"""Comparison algorithms and the brute-force optimality oracle.

Everything here is deliberately independent of the incremental engine: the
oracle and both baselines run plain single-shot searches over the product
adjacency so that agreement with the incremental planner is meaningful.
Path reconstruction descends the exact cost-to-goal values with the same
lowest-index tie rule the incremental planner uses, so on identical
inputs both produce identical runs, not just identical totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .planner import NoAcceptingRun, Run, RunFollower, SUFFIX, check_beta
from .weights import INF, Weight

INF_W = (INF, INF)


def lex_dijkstra(succ_of, sources, targets=None, parents=None):
    """Lexicographic (violation, travel) Dijkstra from multiple sources.

    `succ_of(u)` yields (v, (violation, travel)) pairs. Sources are states,
    or (state, weight) pairs to seed nonzero starting costs. Stops early
    once every target is settled. Returns ({state: weight}, pop count).
    """
    dist: dict = {}
    heap = []
    for s in sources:
        if isinstance(s, tuple):
            heappush(heap, (s[1], s[0]))
        else:
            heappush(heap, ((0, 0), s))
    remaining = set(targets) if targets is not None else None
    pops = 0
    while heap:
        d, u = heappop(heap)
        if u in dist:
            continue
        dist[u] = d
        pops += 1
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        dv, dt = d
        for v, (wv, wt) in succ_of(u):
            if wt == INF or v in dist:
                continue
            cand = (dv + wv, dt + wt)
            heappush(heap, (cand, v))
            if parents is not None and (v not in parents or cand < parents[v][0]):
                parents[v] = (cand, u)
    return dist, pops


def bellman_ford(n_states, edges, sources):
    """Naive lexicographic relaxation; cross-check for the oracle on small graphs."""
    dist = {s: (0, 0) for s in sources}
    for _ in range(n_states - 1):
        changed = False
        for u, v, (wv, wt) in edges:
            if wt == INF:
                continue
            du = dist.get(u)
            if du is None:
                continue
            cand = (du[0] + wv, du[1] + wt)
            if cand < dist.get(v, INF_W):
                dist[v] = cand
                changed = True
        if not changed:
            break
    return dist


def _fwd(pa):
    succ = pa.succ
    return lambda u: succ[u].items()


def _bwd(pa):
    succ = pa.succ
    pred = pa.pred
    return lambda u: [(p, succ[p][u]) for p in pred[u]]


@dataclass
class OracleResult:
    prefix: list[Weight]
    loops: list[Weight]
    best_index: int | None
    best_total: Weight
    pops: int = 0


def dijkstra_oracle(pa, start, beta: int) -> OracleResult:
    """Exact best prefix+loop total by exhaustive per-accepting-state search.

    `start` may be a single product state or a list of candidate starts
    (multiple automaton initial states) entered at zero cost.
    """
    sources = list(start) if isinstance(start, (list, tuple)) else [start]
    pre, pops = lex_dijkstra(_fwd(pa), sources)
    prefix = []
    loops = []
    best_index = None
    best_total = INF_W
    for k, acc in enumerate(pa.accepting):
        pk = pre.get(acc, INF_W)
        lk, lk_pops = loop_cost(pa, acc)
        pops += lk_pops
        prefix.append(Weight(*pk))
        loops.append(Weight(*lk))
        if pk[1] == INF or lk[1] == INF:
            continue
        total = (pk[0] + beta * lk[0], pk[1] + beta * lk[1])
        if total < best_total:
            best_total = total
            best_index = k
    return OracleResult(prefix, loops, best_index, Weight(*best_total), pops)


def loop_cost(pa, acc) -> tuple[tuple, int]:
    """Cheapest cycle through `acc`: distance out plus one closing edge.

    A Dijkstra search from `acc` that pushes a state only when its
    tentative cost improves. Settling a closing predecessor `p` (one with a
    finite edge `p -> acc`) offers the cycle `dist(p) + w(p, acc)`. The
    search stops once every closing predecessor is settled, or as soon as
    the cheapest frontier cost is no lower than the best cycle offered so
    far. The second rule is exact too: every state settled later costs at
    least the frontier, and closing weights are non-negative, so no later
    cycle can be cheaper. A closing predecessor that is never reached
    therefore no longer makes the search cover every state reachable from
    `acc`. Returns (cost, settled-state count).
    """
    succ = pa.succ
    closing = {p: w for p in pa.pred[acc] for w in [succ[p][acc]] if w[1] != INF}
    if not closing:
        return INF_W, 0
    unsettled = len(closing)
    best = INF_W
    tentative = {acc: (0, 0)}
    heap = [((0, 0), acc)]
    pops = 0
    while heap:
        d, u = heappop(heap)
        if d >= best:
            break
        if d > tentative[u]:
            continue
        pops += 1
        dv, dt = d
        w = closing.get(u)
        if w is not None:
            best = min(best, (dv + w[0], dt + w[1]))
            unsettled -= 1
            if not unsettled:
                break
        for v, (wv, wt) in succ[u].items():
            if wt == INF:
                continue
            cand = (dv + wv, dt + wt)
            if cand < tentative.get(v, INF_W):
                tentative[v] = cand
                heappush(heap, (cand, v))
    return best, pops


def solve_fresh(pa, start, beta: int) -> tuple[Run, int]:
    """Single-shot optimal run, reconstructed exactly like the incremental planner.

    Computes every accepting state's loop cost, then one backward sweep of
    the cost-to-virtual-goal values, and finally descends those values
    greedily (ties to the lowest state index, closing the loop only when
    strictly cheaper, which mirrors the virtual goal's high index).
    """
    check_beta(beta)
    sources = list(start) if isinstance(start, (list, tuple)) else [start]
    pops = 0
    loops_scaled = {}
    loops_raw = {}
    for acc in pa.accepting:
        lk, lk_pops = loop_cost(pa, acc)
        pops += lk_pops
        loops_raw[acc] = lk
        if lk[1] != INF:
            loops_scaled[acc] = (lk[0] * beta, lk[1] * beta)
    if not loops_scaled:
        raise NoAcceptingRun("no accepting state has a finite loop")
    seeds = [(acc, w) for acc, w in loops_scaled.items()]
    total_d, p2 = lex_dijkstra(_bwd(pa), seeds)
    pops += p2

    best_src = None
    best_d = INF_W
    for s in sources:
        d = total_d.get(s, INF_W)
        if d < best_d or (d == best_d and (best_src is None or s < best_src)):
            best_d = d
            best_src = s
    if best_d[1] == INF:
        raise NoAcceptingRun("no accepting state is reachable with a finite loop")

    prefix = _descend(pa, total_d, best_src, loops_scaled)
    acc = prefix[-1]
    loop, p3 = _loop_path(pa, acc)
    pops += p3
    pk = _sum_path(pa, prefix)
    lk = loops_raw[acc]
    run = Run(prefix, loop, acc, Weight(*pk), Weight(*lk),
              Weight(pk[0] + beta * lk[0], pk[1] + beta * lk[1]))
    return run, pops


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


def _loop_path(pa, acc) -> tuple[list[int], int]:
    """Loop through acc, mirroring the planner's imaginary-goal extraction."""
    seeds = []
    for p in pa.pred[acc]:
        w = pa.succ[p][acc]
        if w[1] != INF:
            seeds.append((p, w))
    dist, pops = lex_dijkstra(_bwd(pa), seeds)
    closing = {}
    for p in pa.pred[acc]:
        w = pa.succ[p][acc]
        if w[1] != INF:
            closing[p] = w
    path = _descend(pa, dist, acc, closing)
    return path + [acc], pops


def _sum_path(pa, path):
    v = t = 0
    for a, b in zip(path, path[1:]):
        wv, wt = pa.succ[a][b]
        v += wv
        t += wt
    return (v, t)


class IterativeReplanner(RunFollower):
    """Re-solves everything from scratch with Dijkstra on every change set."""

    def __init__(self, pa, beta: int = 10, heuristic=None):
        super().__init__()
        check_beta(beta)
        self.pa = pa
        self.beta = beta
        self.last_expansions = 0

    def _start_state(self) -> int:
        ini = self.pa.initial
        return ini[0] if len(ini) == 1 else -1

    def _sources(self):
        if self.run is None:
            return list(self.pa.initial)
        return [self.current_state]

    def plan_initial(self) -> Run:
        run, pops = solve_fresh(self.pa, self._sources(), self.beta)
        self.last_expansions = pops
        self._set_run(run)
        return run

    def replan(self, mod) -> Run:
        self.pa.apply_changes(mod)
        run, pops = solve_fresh(self.pa, self._sources(), self.beta)
        self.last_expansions = pops
        self._set_run(run)
        return run


class LocalRevisionReplanner(RunFollower):
    """Detours back onto the previous run instead of re-optimizing globally.

    On a change set, finds the cheapest path from the current state that
    rejoins the surviving part of the active run at a later index of the
    same phase, keeping the original accepting state and loop. Falls back
    to a full fresh solve when no valid rejoin exists.
    """

    def __init__(self, pa, beta: int = 10, heuristic=None):
        super().__init__()
        check_beta(beta)
        self.pa = pa
        self.beta = beta
        self.last_expansions = 0
        self.fallbacks = 0

    def _start_state(self) -> int:
        ini = self.pa.initial
        return ini[0] if len(ini) == 1 else -1

    def plan_initial(self) -> Run:
        run, pops = solve_fresh(self.pa, list(self.pa.initial), self.beta)
        self.last_expansions = pops
        self._set_run(run)
        return run

    def replan(self, mod) -> Run:
        self.pa.apply_changes(mod)
        self.last_expansions = 0
        run = self._try_revision()
        if run is None:
            self.fallbacks += 1
            run, pops = solve_fresh(self.pa, [self.current_state], self.beta)
            self.last_expansions += pops
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
            tail = self._path_weight(segment[idx:])
            if tail is None:
                continue
            cand = (d[0] + tail[0], d[1] + tail[1])
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
        prefix_cost = self._path_weight(prefix)
        suffix_cost = self._path_weight(new_suffix)
        if prefix_cost is None or suffix_cost is None:
            return None
        return Run(prefix, new_suffix, old.accepting,
                   Weight(*prefix_cost), Weight(*suffix_cost),
                   Weight(*prefix_cost) + Weight(*suffix_cost).scale(self.beta))

    def _path_weight(self, states):
        succ = self.pa.succ
        v = t = 0
        for a, b in zip(states, states[1:]):
            w = succ[a].get(b)
            if w is None or w[1] == INF:
                return None
            v += w[0]
            t += w[1]
        return (v, t)


def _walk_parents(parents, state, sources):
    path = [state]
    while state not in sources:
        state = parents[state][1]
        path.append(state)
    path.reverse()
    return path
