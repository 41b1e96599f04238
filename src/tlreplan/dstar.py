"""Incremental shortest-path engine over packed (violation, travel) weighted graphs.

The engine searches backward from a fixed goal: g(s) estimates the best
cost from s to the goal, rhs(s) is the one-step lookahead over successors,
and the queue is ordered by the key (g-or-rhs + h + k_m, g-or-rhs), where
g-or-rhs is the lower of the two and the start-anchored heuristic h and the
drift accumulator k_m are travel. Every weight, g, rhs and key part is one
packed int (`weights`), so the heuristic adds to the travel part only and
integer order is lexicographic: any state that still has a violation-free
route ranks ahead of all penalized ones. Queue entries are flat
`(k1, k2, state)` tuples.

Queue entries are never removed in place: each carries the key it was
inserted with, and entries whose key no longer matches are skipped or
refreshed when popped.

Invariant: for every state but the goal, rhs is the one-step lookahead
min over successors v of w(s, v) + g(v); an absent entry means INF.
D* Lite's optimized expansion step rests on it. When g(u) falls to
rhs(u), a predecessor's lookahead can only tighten to w + g(u): an O(1)
update, queued only if its rhs fell and it is now inconsistent (one
behind a deleted edge is just marked reached, for `note_changed_edges`).
When g(u) rises to INF, only predecessors whose rhs equals w + the old
g(u), whose lookahead ran through u, are rescanned. Edge changes and goal
edges keep full rescans (`update_vertex`). The start key is recomputed
only when g or rhs of the start changes. Every other key is built inline
from the g and rhs just read, and the zero heuristic is never called.

`compute_shortest_path(budget)` stops before its budget's next expansion
and returns False. The popped entry goes back on the queue, so the search
stays valid and a later call resumes it. Without a budget the limit is
-1, which no expansion count equals, so the hot loop pays one integer
comparison per expansion either way.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .weights import INF, KM_CAP


class OverlayGraph:
    """A product automaton plus per-search virtual nodes and edges.

    The base adjacency is shared and mutated only through the product's
    own change application; virtual edges (imaginary goals, synthetic
    start) live in private overlay maps so concurrent searches over one
    product never observe each other's goals. Weights are packed.
    """

    def __init__(self, pa):
        self.pa = pa
        self._n = pa.n_states
        self.extra_succ: dict[int, dict] = {}
        self.extra_pred: dict[int, dict] = {}
        self.virtual: set[int] = set()

    def add_virtual(self, node: int):
        self.virtual.add(node)

    def set_extra(self, u: int, v: int, w):
        self.extra_succ.setdefault(u, {})[v] = w
        self.extra_pred.setdefault(v, {})[u] = w

    def succ_items(self, u: int):
        ex = self.extra_succ.get(u)
        if u < self._n:
            base = self.pa.out[u].items()
            if ex is None:
                return base
            return list(base) + list(ex.items())
        return ex.items() if ex is not None else ()

    def pred_items(self, u: int):
        ex = self.extra_pred.get(u)
        if u < self._n:
            base = self.pa.pred[u].items()
            if ex is None:
                return base
            return list(base) + list(ex.items())
        return ex.items() if ex is not None else ()

    def has_node(self, u: int) -> bool:
        return 0 <= u < self._n or u in self.virtual

    def size(self) -> int:
        return self._n + len(self.virtual)


class SearchInstance:
    """One incremental search: fixed goal, movable start."""

    def __init__(self, graph, start: int, goal: int, heuristic=None, log_pops: bool = False,
                 counter: list | None = None):
        if not graph.has_node(start):
            raise ValueError(f"start {start} not in graph")
        if not graph.has_node(goal):
            raise ValueError(f"goal {goal} not in graph")
        self.graph = graph
        self.start = start
        self.goal = goal
        self.h = heuristic if heuristic is not None else _zero_h
        self.expansions = 0
        self.counter = counter  # shared expansion tally across instances
        self.pop_log = [] if log_pops else None
        self._reset()

    def _reset(self):
        """Forget every value: the search as built, anchored at the current start."""
        self.km = 0
        self.g: dict[int, int] = {}
        self.rhs: dict[int, int] = {self.goal: 0}
        self.U: list = [(*self.calculate_key(self.goal), self.goal)]

    # -- keys ----------------------------------------------------------------

    def calculate_key(self, s: int) -> tuple:
        """The packed key (m + h(start, s) + km, m), m the lower of g(s) and rhs(s)."""
        g = self.g.get(s, INF)
        rhs = self.rhs.get(s, INF)
        m = g if g <= rhs else rhs
        return (m + self.h(self.start, s) + self.km, m)

    # -- core updates ----------------------------------------------------------

    def update_vertex(self, u: int):
        g = self.g
        rhs = self.rhs
        if u != self.goal:
            best = INF
            for v, w in self.graph.succ_items(u):
                gv = g.get(v)
                if gv is not None:
                    cand = gv + w
                    if cand < best:
                        best = cand
            rhs[u] = best
        else:
            best = rhs.get(u, INF)
        gu = g.get(u, INF)
        if gu != best:
            m = gu if gu <= best else best
            h = self.h
            shift = self.km if h is _zero_h else h(self.start, u) + self.km
            heappush(self.U, (m + shift, m, u))

    def compute_shortest_path(self, budget: int | None = None) -> bool:
        """Expand until the start is consistent and no queued key precedes it.

        With a budget, stop once `budget` states were expanded and more
        are due; returns False if it stopped there, True if it finished.
        """
        limit = -1 if budget is None else self.expansions + budget
        U = self.U
        g = self.g
        rhs = self.rhs
        pred_items = self.graph.pred_items
        update = self.update_vertex
        log = self.pop_log
        start = self.start
        goal = self.goal
        km = self.km
        h = None if self.h is _zero_h else self.h  # keys as in calculate_key, inline
        gs = rs = start_top = None
        while U:
            g_start = g.get(start, INF)
            r_start = rhs.get(start, INF)
            if g_start is not gs or r_start is not rs:
                gs, rs = g_start, r_start
                # state -1 sorts after every entry with the start's key
                start_top = (*self.calculate_key(start), -1)
            if not (U[0] < start_top or g_start != r_start):
                break
            k1, k2, u = heappop(U)
            gu = g.get(u, INF)
            ru = rhs.get(u, INF)
            m = gu if gu <= ru else ru
            n1 = m + (km if h is None else h(start, u) + km)
            if k1 != n1 or k2 != m:
                if k1 < n1 or (k1 == n1 and k2 < m):
                    if gu != ru:
                        heappush(U, (n1, m, u))
                # otherwise a fresher entry for u is already queued
                continue
            if gu == ru:
                continue  # stale entry of a now-consistent state
            n = self.expansions
            if n == limit:
                heappush(U, (k1, k2, u))
                return False
            self.expansions = n + 1
            if self.counter is not None:
                self.counter[0] += 1
            if log is not None:
                log.append((k1, k2, u))
            if gu > ru:
                # g(u) fell to rhs(u): each lookahead through u can only tighten
                g[u] = ru
                for p, w in pred_items(u):
                    cand = ru + w
                    if cand < rhs.get(p, INF):
                        if p != goal:
                            rhs[p] = cand
                            gp = g.get(p, INF)
                            if gp != cand:
                                m = gp if gp <= cand else cand
                                shift = km if h is None else h(start, p) + km
                                heappush(U, (m + shift, m, p))
                    elif w == INF:
                        rhs.setdefault(p, INF)  # reached, for note_changed_edges
            else:
                # g(u) rose to infinity: rescan the states whose lookahead ran through u
                g[u] = INF
                for p, w in pred_items(u):
                    if rhs.get(p) == gu + w and w != INF and p != goal:
                        update(p)
                update(u)
        return True

    # -- change application -----------------------------------------------------

    def move_start(self, new_start: int):
        """Shift the search anchor after the agent moved; keeps queue order valid.

        A search whose key drift km would reach KM_CAP starts over instead,
        so that keys stay within the packed weights' exact range.
        """
        if not self.graph.has_node(new_start):
            raise ValueError(f"start {new_start} not in graph")
        if new_start != self.start:
            self.km += self.h(self.start, new_start)
            self.start = new_start
            if self.km >= KM_CAP:
                self._reset()

    def note_changed_edges(self, sources, force: bool = False):
        """Re-evaluate vertices whose outgoing edge weights were rewritten.

        Vertices the search has never reached have every successor at
        infinity, so their lookahead cannot become finite; skipping them is
        an exact no-op and keeps sparse updates cheap. The shortcut does
        not hold for edges that did not exist when their target was
        expanded, so callers pass force=True after edge creation.
        """
        rhs = self.rhs
        for u in sources:
            if force or u in rhs:
                self.update_vertex(u)

    # -- results -----------------------------------------------------------------

    def cost_from(self, s: int = None):
        """Packed cost from `s` (default: the start) to the goal; INF if none."""
        return self.g.get(self.start if s is None else s, INF)

    def extract_path(self, from_state: int = None) -> list[int]:
        """Greedy descent to the goal; ties go to the lowest state index."""
        s = self.start if from_state is None else from_state
        g = self.g
        if g.get(s, INF) == INF:
            raise ValueError(f"state {s} cannot reach the goal")
        path = [s]
        limit = 2 * self.graph.size() + 10
        while s != self.goal:
            best = INF
            best_v = -1
            for v, w in self.graph.succ_items(s):
                gv = g.get(v)
                if gv is None:
                    continue
                cand = gv + w
                if cand < best or (cand == best and v < best_v):
                    best = cand
                    best_v = v
            if best_v < 0:
                raise RuntimeError(f"dead end at {s} during path extraction")
            s = best_v
            path.append(s)
            if len(path) > limit:
                raise RuntimeError("path extraction did not terminate")
        return path


def _zero_h(a: int, b: int) -> int:
    return 0
