"""Comparison algorithms and the from-scratch optimal solve.

Everything here is deliberately independent of the incremental engine: the
fresh solve and both baselines run plain single-shot searches over the
product adjacency so that agreement with the incremental planner is
meaningful. Path reconstruction descends the exact cost-to-goal values
with the same lowest-index tie rule the incremental planner uses, so on
identical inputs both produce identical runs, not just identical totals.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .planner import NoAcceptingRun, Run, RunFollower, SUFFIX, check_beta
from .weights import INF, INF_W, path_weight


def _settle(adj, tentative: dict, parents=None, goals=()):
    """Dijkstra over a packed adjacency: yields (cost, state) in settling order.

    `adj[u]` maps each neighbour of u to its packed weight, so `pa.out`
    searches forward and `pa.pred` backward. `tentative` holds the seeds'
    costs and is updated in place; a state is pushed only when its
    tentative cost improves, and a popped entry worse than that cost is
    skipped. A given `parents` dict receives each improved state's
    predecessor. With `goals`, the search ends once the frontier is no
    cheaper than the cheapest goal reached.
    """
    heap = []
    for s, w in tentative.items():
        heappush(heap, (w, s))
    best = min((tentative[t] for t in goals if t in tentative), default=INF)
    while heap:
        d, u = heappop(heap)
        if d >= best:
            return
        if d > tentative[u]:
            continue
        yield d, u
        for v, w in adj[u].items():
            cand = d + w
            if cand < tentative.get(v, INF):
                tentative[v] = cand
                heappush(heap, (cand, v))
                if parents is not None:
                    parents[v] = u
                if cand < best and v in goals:
                    best = cand


def lex_dijkstra(adj, sources, targets=None, parents=None):
    """Lexicographic Dijkstra over a packed adjacency from multiple sources.

    Sources are states, or (state, packed weight) pairs to seed nonzero
    starting costs. Stops early once every target is settled. Returns
    ({state: packed cost}, pop count); a given `parents` dict receives the
    predecessor of every state reached by an edge (`_settle`).
    """
    tentative: dict = {}
    for s in sources:
        s, w = s if isinstance(s, tuple) else (s, 0)
        if w < tentative.get(s, INF):
            tentative[s] = w
    remaining = set(targets) if targets is not None else None
    dist: dict = {}
    for d, u in _settle(adj, tentative, parents):
        dist[u] = d
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
    return dist, len(dist)


def loop_cost(pa, acc) -> tuple:
    """Packed cost of the cheapest cycle through `acc`, with the count of settled states.

    A backward search from the closing predecessors (`_backward`); a state
    without a finite closing edge costs no pops.
    """
    cost, _values, pops = _backward(pa, _closing(pa, acc), {acc})
    return cost, pops


def _closing(pa, acc) -> dict:
    """Packed weight of each finite edge into `acc`, by its tail."""
    return {p: w for p, w in pa.pred[acc].items() if w != INF}


def _backward(pa, seeds: dict, targets, prefix=None, bound=INF, beta: int = 1):
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
    tentative costs, pops), all packed; the cost is INF when no target is
    reachable and None when the search was abandoned.
    """
    tentative = dict(seeds)
    pops = 0
    for d, _u in _settle(pa.pred, tentative, goals=targets):
        if prefix is not None and prefix + beta * d > bound:
            return None, tentative, pops
        pops += 1
    best = min((tentative[t] for t in targets if t in tentative), default=INF)
    return best, tentative, pops


def solve_fresh(pa, sources: list[int], beta: int) -> tuple[Run, int]:
    """Single-shot optimal run from a list of `sources`, priced by `Run.lasso`.

    Reconstructed exactly like the incremental planner: computes the loop
    costs, sweeps the cost-to-virtual-goal values backward from the
    accepting states until the cheapest source's cost is known (ties to the
    lowest index), and descends those values greedily from that source
    (ties to the lowest state index, closing the loop only when strictly
    cheaper, which mirrors the virtual goal's high index). The loop itself
    is descended along the chosen state's own loop search. Both descents
    read only exact values (`_backward`).

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
        prefix, p = lex_dijkstra(pa.out, sources)
        pops += p
        best = min((prefix[acc] + beta * cost
                    for acc, (cost, _) in loops.items() if acc in prefix), default=INF)
        for acc in sorted((acc for acc in rest if acc in prefix), key=prefix.__getitem__):
            if prefix[acc] > best:
                break
            cost, values, p = _backward(pa, closing[acc], {acc}, prefix[acc], best, beta)
            pops += p
            if cost is not None:
                loops[acc] = (cost, values)
                best = min(best, prefix[acc] + beta * cost)
    loops_scaled = {acc: beta * cost for acc, (cost, _) in loops.items() if cost != INF}
    if not loops_scaled:
        raise NoAcceptingRun("no accepting state has a finite loop", pops)
    best_d, total_d, p = _backward(pa, loops_scaled, set(sources))
    pops += p
    if best_d == INF:
        raise NoAcceptingRun("no accepting state is reachable with a finite loop", pops)
    best_src = min(s for s in sources if total_d.get(s) == best_d)

    prefix = _descend(pa, total_d, best_src, loops_scaled)
    acc = prefix[-1]
    loop = _descend(pa, loops[acc][1], acc, closing[acc]) + [acc]
    return Run.lasso(pa.out, prefix, loop, acc, beta), pops


def _descend(pa, values, start, closing):
    """Greedy walk along exact packed cost-to-goal values; stops where closing wins."""
    path = [start]
    s = start
    out = pa.out
    limit = 2 * pa.n_states + 10
    while True:
        close = closing.get(s)
        best = INF
        best_v = -1
        for v, w in out[s].items():
            dv = values.get(v)
            if dv is None:
                continue
            cand = w + dv
            if cand < best or (cand == best and v < best_v):
                best = cand
                best_v = v
        if close is not None and close < best:
            return path
        if best_v < 0:
            raise RuntimeError(f"dead end at {s} during path reconstruction")
        s = best_v
        path.append(s)
        if len(path) > limit:
            raise RuntimeError("path reconstruction did not terminate")


class IterativeReplanner(RunFollower):
    """Re-solves everything from scratch with Dijkstra on every change set,
    counting every solve's pops, failed or not."""

    def plan_initial(self) -> Run:
        self.last_expansions = 0
        return self._solve()

    def replan(self, mod) -> Run:
        self.pa.apply_changes(mod)
        self.last_expansions = 0
        return self._solve()

    def _solve(self) -> Run:
        """Fresh solve from the current state, or from the initial states without a run."""
        sources = list(self.pa.initial) if self.run is None else [self.current_state]
        try:
            run, pops = solve_fresh(self.pa, sources, self.beta)
        except NoAcceptingRun as exc:
            self.last_expansions += exc.pops
            raise
        self.last_expansions += pops
        self._set_run(run)
        return run


class LocalRevisionReplanner(IterativeReplanner):
    """Detours back onto the previous run instead of re-optimizing globally.

    On a change set, finds the cheapest path from the current state that
    rejoins the surviving part of the active run at a later index of the
    same phase, keeping the original accepting state and loop. Falls back
    to a full fresh solve when no valid rejoin exists, or no run does.
    """

    def __init__(self, pa, beta: int = 10):
        super().__init__(pa, beta)
        self.fallbacks = 0

    def replan(self, mod) -> Run:
        self.pa.apply_changes(mod)
        self.last_expansions = 0
        run = None if self.run is None else self._try_revision()
        if run is None:
            self.fallbacks += 1
            return self._solve()
        self._set_run(run)
        return run

    def _try_revision(self) -> Run | None:
        cur = self.current_state
        old = self.run
        if self.phase == SUFFIX:  # offset: the current position in the segment
            offset, segment = self._pos - self._suffix_start, old.suffix
        else:
            offset, segment = self._pos, old.prefix
        candidates = range(offset + 1, len(segment))
        if not candidates:
            return None
        out = self.pa.out
        parents: dict = {}
        dist, pops = lex_dijkstra(out, [cur], targets={segment[i] for i in candidates},
                                  parents=parents)
        self.last_expansions += pops
        best = INF
        best_idx = None
        for idx in candidates:
            state = segment[idx]
            d = dist.get(state)
            if d is None:
                continue
            # the detour's cost, then the rest of the old segment
            cand = d + path_weight(out, segment[idx:])
            if cand < best:
                best = cand
                best_idx = idx
        if best_idx is None:
            return None
        detour = _walk_parents(parents, segment[best_idx], {cur})
        prefix = detour + segment[best_idx + 1:]
        # a detour inside the loop becomes part of it; one on the prefix leaves it
        new_suffix = old.suffix[:offset] + prefix if segment is old.suffix else list(old.suffix)
        run = Run.lasso(out, prefix, new_suffix, old.accepting, self.beta)
        return None if run.total == INF_W else run


def _walk_parents(parents, state, sources):
    path = [state]
    while state not in sources:
        state = parents[state]
        path.append(state)
    path.reverse()
    return path
