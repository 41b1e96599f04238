"""Comparison algorithms and the from-scratch optimal solve.

Everything here is deliberately independent of the incremental engine: the
fresh solve and both baselines run plain single-shot searches over the
product adjacency so that agreement with the incremental planner is
meaningful. Path reconstruction descends the exact cost-to-goal values
with the same lowest-index tie rule the incremental planner uses, so on
identical inputs both produce identical runs, not just identical totals.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .planner import NoAcceptingRun, Run, RunFollower, SUFFIX, check_beta
from .weights import INF, INF_W, lasso_cost, path_weight


def lex_dijkstra(succ_of, sources, targets=None, parents=None):
    """Lexicographic (violation, travel) Dijkstra from multiple sources.

    `succ_of(u)` yields (v, (violation, travel)) pairs. Sources are states,
    or (state, weight) pairs to seed nonzero starting costs. Stops early
    once every target is settled. A state is pushed only when its
    tentative cost improves, and a popped entry worse than that cost is
    skipped. Returns ({state: weight}, pop count); a given `parents` dict
    receives (best cost, predecessor) for every state reached by an edge.
    """
    dist: dict = {}
    tentative: dict = {}  # state -> (cost, predecessor or None for a seed)
    heap = []
    for s in sources:
        s, w = s if isinstance(s, tuple) else (s, (0, 0))
        if s not in tentative or w < tentative[s][0]:
            tentative[s] = (w, None)
            heappush(heap, (w, s))
    remaining = set(targets) if targets is not None else None
    pops = 0
    while heap:
        d, u = heappop(heap)
        if d > tentative[u][0]:
            continue
        dist[u] = d
        pops += 1
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        dv, dt = d
        for v, (wv, wt) in succ_of(u):
            if wt == INF:
                continue
            cand = (dv + wv, dt + wt)
            t = tentative.get(v)
            if t is None or cand < t[0]:
                tentative[v] = (cand, u)
                heappush(heap, (cand, v))
    if parents is not None:
        parents.update((v, t) for v, t in tentative.items() if t[1] is not None)
    return dist, pops


def _fwd(pa):
    succ = pa.succ
    return lambda u: succ[u].items()


def loop_cost(pa, acc) -> tuple[tuple, int]:
    """Cheapest cycle through `acc`, with the count of settled states.

    A backward search from the closing predecessors (`_backward`); a state
    without a finite closing edge costs no pops.
    """
    cost, _values, pops = _backward(pa, _closing(pa, acc), {acc})
    return cost, pops


def _closing(pa, acc) -> dict:
    """Weight of each finite edge into `acc`, by its tail."""
    succ = pa.succ
    return {p: w for p in pa.pred[acc] for w in [succ[p][acc]] if w[1] != INF}


def _backward(pa, seeds: dict, targets, prefix=None, bound=INF_W, beta: int = 1):
    """Dijkstra backward from weighted seeds until the cheapest target's cost is known.

    The search stops once the frontier is no cheaper than the cheapest
    target reached. Every state cheaper than that target is then settled at
    its exact cost, and every other tentative cost is at least the
    target's. A greedy descent from the target only ever moves to a
    strictly cheaper state (travel >= 1 per edge), so every value it acts
    on is exact.

    Seeded with the closing edges of `acc` and targeting `acc`, it finds
    the cheapest cycle through `acc`. With a `prefix` weight, it is
    abandoned once `prefix + beta * frontier` exceeds `bound`, since no
    target is cheaper than the frontier. Returns (the target's cost,
    tentative costs, pops); the cost is INF_W when no target is reachable
    and None when the search was abandoned.
    """
    succ = pa.succ
    pred = pa.pred
    tentative = dict(seeds)
    heap = [(w, s) for s, w in tentative.items()]
    heapify(heap)
    best = min((tentative[t] for t in targets if t in tentative), default=INF_W)
    pops = 0
    while heap:
        d, u = heappop(heap)
        if d >= best:
            break
        if d > tentative[u]:
            continue
        if prefix is not None and lasso_cost(prefix, d, beta) > bound:
            return None, tentative, pops
        pops += 1
        dv, dt = d
        for p in pred[u]:
            wv, wt = succ[p][u]
            if wt == INF:
                continue
            cand = (dv + wv, dt + wt)
            if cand < tentative.get(p, INF_W):
                tentative[p] = cand
                heappush(heap, (cand, p))
                if cand < best and p in targets:
                    best = cand
    return best, tentative, pops


def solve_fresh(pa, start, beta: int) -> tuple[Run, int]:
    """Single-shot optimal run, reconstructed exactly like the incremental planner.

    Computes the loop costs, then sweeps the cost-to-virtual-goal values
    backward from the accepting states until the cheapest source's cost is
    known, and finally descends those values greedily from it (ties to the
    lowest state index, closing the loop only when strictly cheaper, which
    mirrors the virtual goal's high index). The loop itself is descended
    along the chosen state's own loop search. Both descents read only exact
    values (`_backward`).

    Loop searches run unbounded until they have settled as many states as
    the product holds. If more remain, one forward pass from the sources
    gives each accepting state its prefix cost, and the rest are searched
    cheapest prefix first, each abandoned once it cannot beat the best
    total so far. An abandoned state, or one the sources cannot reach,
    closes no run: every route through it costs more than the optimum from
    any state of an optimal path, so dropping it changes no value the
    descent compares against another.
    """
    check_beta(beta)
    sources = list(start) if isinstance(start, (list, tuple)) else [start]
    closing = {acc: c for acc in pa.accepting for c in [_closing(pa, acc)] if c}
    live = list(closing)
    loops = {}  # accepting state -> (loop cost, its search's cost-to-close values)
    pops = 0
    i = 0
    while i < len(live) and pops <= pa.n_states:
        acc = live[i]
        cost, values, p = _backward(pa, closing[acc], {acc})
        pops += p
        loops[acc] = (cost, values)
        i += 1
    rest = live[i:]
    if rest:
        prefix, p = lex_dijkstra(_fwd(pa), sources)
        pops += p
        best = min((lasso_cost(prefix[acc], cost, beta)
                    for acc, (cost, _) in loops.items() if acc in prefix), default=INF_W)
        for acc in sorted((acc for acc in rest if acc in prefix), key=prefix.__getitem__):
            if prefix[acc] > best:
                break
            cost, values, p = _backward(pa, closing[acc], {acc}, prefix[acc], best, beta)
            pops += p
            if cost is not None:
                loops[acc] = (cost, values)
                best = min(best, lasso_cost(prefix[acc], cost, beta))
    loops_scaled = {acc: lasso_cost((0, 0), cost, beta)
                    for acc, (cost, _) in loops.items() if cost[1] != INF}
    if not loops_scaled:
        raise NoAcceptingRun("no accepting state has a finite loop", pops)
    best_d, total_d, p = _backward(pa, loops_scaled, set(sources))
    pops += p
    if best_d[1] == INF:
        raise NoAcceptingRun("no accepting state is reachable with a finite loop", pops)
    best_src = min(s for s in sources if total_d.get(s) == best_d)

    prefix = _descend(pa, total_d, best_src, loops_scaled)
    acc = prefix[-1]
    lk, values = loops[acc]
    loop = _descend(pa, values, acc, closing[acc]) + [acc]
    pk = path_weight(pa.succ, prefix)
    return Run(prefix, loop, acc, pk, lk, lasso_cost(pk, lk, beta)), pops


def _descend(pa, values, start, closing, limit_slack: int = 10):
    """Greedy walk along exact cost-to-goal values; stops where closing wins."""
    path = [start]
    s = start
    limit = 2 * pa.n_states + limit_slack
    while True:
        close = closing.get(s)
        best = None
        best_v = -1
        for v, (wv, wt) in pa.succ[s].items():
            if wt == INF:
                continue
            dv = values.get(v, INF_W)
            if dv[1] == INF:
                continue
            cand = (wv + dv[0], wt + dv[1])
            if best is None or cand < best or (cand == best and v < best_v):
                best = cand
                best_v = v
        if close is not None and (best is None or close < best):
            return path
        if best is None:
            raise RuntimeError(f"dead end at {s} during path reconstruction")
        s = best_v
        path.append(s)
        if len(path) > limit:
            raise RuntimeError("path reconstruction did not terminate")


class _FreshSolveReplanner(RunFollower):
    """What both baselines share: fresh solves whose pops are counted, failed or not."""

    def __init__(self, pa, beta: int = 10):
        super().__init__()
        check_beta(beta)
        self.pa = pa
        self.beta = beta
        self.last_expansions = 0

    def _start_state(self) -> int:
        ini = self.pa.initial
        return ini[0] if len(ini) == 1 else -1

    def plan_initial(self) -> Run:
        self.last_expansions = 0
        return self._solve(list(self.pa.initial))

    def _solve(self, sources) -> Run:
        try:
            run, pops = solve_fresh(self.pa, sources, self.beta)
        except NoAcceptingRun as exc:
            self.last_expansions += exc.pops
            raise
        self.last_expansions += pops
        self._set_run(run)
        return run


class IterativeReplanner(_FreshSolveReplanner):
    """Re-solves everything from scratch with Dijkstra on every change set."""

    def replan(self, mod) -> Run:
        self.pa.apply_changes(mod)
        self.last_expansions = 0
        return self._solve(list(self.pa.initial) if self.run is None else [self.current_state])


class LocalRevisionReplanner(_FreshSolveReplanner):
    """Detours back onto the previous run instead of re-optimizing globally.

    On a change set, finds the cheapest path from the current state that
    rejoins the surviving part of the active run at a later index of the
    same phase, keeping the original accepting state and loop. Falls back
    to a full fresh solve when no valid rejoin exists.
    """

    def __init__(self, pa, beta: int = 10):
        super().__init__(pa, beta)
        self.fallbacks = 0

    def replan(self, mod) -> Run:
        self.pa.apply_changes(mod)
        self.last_expansions = 0
        run = self._try_revision()
        if run is None:
            self.fallbacks += 1
            return self._solve([self.current_state])
        self._set_run(run)
        return run

    def _try_revision(self) -> Run | None:
        cur = self.current_state
        old = self.run
        if self.phase == SUFFIX:
            loop_pos = self._pos - self._suffix_start
            candidates = list(range(loop_pos + 1, len(old.suffix)))
            segment = old.suffix
        else:
            candidates = list(range(self._pos + 1, len(old.prefix)))
            segment = old.prefix
        if not candidates:
            return None
        parents: dict = {}
        dist, pops = lex_dijkstra(_fwd(self.pa), [cur],
                                  targets={segment[i] for i in candidates}, parents=parents)
        self.last_expansions += pops
        best = INF_W
        best_idx = None
        for idx in candidates:
            state = segment[idx]
            d = dist.get(state)
            if d is None:
                continue
            # the detour's cost, then the rest of the old segment
            cand = lasso_cost(d, path_weight(self.pa.succ, segment[idx:]), 1)
            if cand < best:
                best = cand
                best_idx = idx
        if best_idx is None:
            return None
        detour = _walk_parents(parents, segment[best_idx], {cur})
        if self.phase == SUFFIX:
            loop_pos = self._pos - self._suffix_start
            new_suffix = old.suffix[:loop_pos] + detour + old.suffix[best_idx + 1:]
            prefix = detour + old.suffix[best_idx + 1:]
        else:
            new_suffix = list(old.suffix)
            prefix = detour + old.prefix[best_idx + 1:]
        prefix_cost = path_weight(self.pa.succ, prefix)
        suffix_cost = path_weight(self.pa.succ, new_suffix)
        total = lasso_cost(prefix_cost, suffix_cost, self.beta)
        if total[1] == INF:
            return None
        return Run(prefix, new_suffix, old.accepting, prefix_cost, suffix_cost, total)


def _walk_parents(parents, state, sources):
    path = [state]
    while state not in sources:
        state = parents[state][1]
        path.append(state)
    path.reverse()
    return path
