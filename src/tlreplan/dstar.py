"""Incremental shortest-path engine over (violation, travel) weighted graphs.

The engine searches backward from a fixed goal: g(s) estimates the best
cost from s to the goal, rhs(s) is the one-step lookahead over successors,
and the queue is ordered by a duo-component key whose first component adds
the start-anchored heuristic and the drift accumulator k_m to the travel
part only. Violation sits in front of travel inside every weight, so any
state that still has a violation-free route ranks ahead of all penalized
ones.

Queue entries are never removed in place: each carries the key it was
inserted with, and entries whose key no longer matches are skipped or
refreshed when popped.

Invariant: for every state but the goal, rhs is the one-step lookahead
min over successors v of w(s, v) + g(v); an absent entry means INF_W.
D* Lite's optimized expansion step rests on it. When g(u) falls to
rhs(u), a predecessor's lookahead can only tighten to w + g(u): an O(1)
update, queued only if its rhs fell and it is now inconsistent (one
behind a deleted edge is just marked reached, for `note_changed_edges`).
When g(u) rises to INF_W, only predecessors whose rhs equals w + the old
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

from .weights import INF, INF_W


class OverlayGraph:
    """A product automaton plus per-search virtual nodes and edges.

    The base adjacency is shared and mutated only through the product's
    own change application; virtual edges (imaginary goals, synthetic
    start) live in private overlay maps so concurrent searches over one
    product never observe each other's goals.
    """

    def __init__(self, pa):
        self.pa = pa
        self._n = pa.n_states
        self.extra_succ: dict[int, dict] = {}
        self.extra_pred: dict[int, dict] = {}
        self.virtual: set[int] = set()

    def add_virtual(self, node: int):
        self.virtual.add(node)

    def set_extra(self, u: int, v: int, w: tuple):
        self.extra_succ.setdefault(u, {})[v] = w
        self.extra_pred.setdefault(v, {})[u] = w

    def succ_items(self, u: int):
        ex = self.extra_succ.get(u)
        if u < self._n:
            base = self.pa.succ[u].items()
            if ex is None:
                return base
            return list(base) + list(ex.items())
        return ex.items() if ex is not None else ()

    def pred_items(self, u: int):
        ex = self.extra_pred.get(u)
        if u < self._n:
            succ = self.pa.succ
            base = [(p, succ[p][u]) for p in self.pa.pred[u]]
            if ex is None:
                return base
            base.extend(ex.items())
            return base
        return list(ex.items()) if ex is not None else []

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
        self.km = 0
        self.g: dict[int, tuple] = {}
        self.rhs: dict[int, tuple] = {goal: (0, 0)}
        self.U: list = []
        self.expansions = 0
        self.counter = counter  # shared expansion tally across instances
        self.pop_log = [] if log_pops else None
        heappush(self.U, (self.calculate_key(goal), goal))

    # -- keys ----------------------------------------------------------------

    def calculate_key(self, s: int):
        g = self.g.get(s, INF_W)
        rhs = self.rhs.get(s, INF_W)
        m = g if g <= rhs else rhs
        shift = self.h(self.start, s) + self.km
        if shift:
            return (m[0], m[1] + shift, m[0], m[1])
        return (m[0], m[1], m[0], m[1])

    # -- core updates ----------------------------------------------------------

    def update_vertex(self, u: int):
        g = self.g
        rhs = self.rhs
        if u != self.goal:
            best = INF_W
            for v, (wv, wt) in self.graph.succ_items(u):
                if wt == INF:
                    continue
                gv = g.get(v)
                if gv is None or gv[1] == INF:
                    continue
                cand = (gv[0] + wv, gv[1] + wt)
                if cand < best:
                    best = cand
            rhs[u] = best
        else:
            best = rhs.get(u, INF_W)
        gu = g.get(u, INF_W)
        if gu != best:
            m = gu if gu <= best else best
            h = self.h
            shift = self.km if h is _zero_h else h(self.start, u) + self.km
            heappush(self.U, ((m[0], m[1] + shift, m[0], m[1]), u))

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
        gs = rs = start_key = None
        while U:
            g_start = g.get(start, INF_W)
            r_start = rhs.get(start, INF_W)
            if g_start is not gs or r_start is not rs:
                gs, rs = g_start, r_start
                start_key = self.calculate_key(start)
            if not (U[0][0] < start_key or g_start != r_start):
                break
            k_old, u = heappop(U)
            gu = g.get(u, INF_W)
            ru = rhs.get(u, INF_W)
            m = gu if gu <= ru else ru
            k_new = (m[0], m[1] + (km if h is None else h(start, u) + km), m[0], m[1])
            if k_old < k_new:
                if gu != ru:
                    heappush(U, (k_new, u))
                continue
            if k_old > k_new:
                # a fresher entry for u is already queued
                continue
            if gu == ru:
                continue  # stale entry of a now-consistent state
            n = self.expansions
            if n == limit:
                heappush(U, (k_old, u))
                return False
            self.expansions = n + 1
            if self.counter is not None:
                self.counter[0] += 1
            if log is not None:
                log.append((k_old, u))
            if gu > ru:
                # g(u) fell to rhs(u): each lookahead through u can only tighten
                g[u] = ru
                rv, rt = ru
                for p, (wv, wt) in pred_items(u):
                    if wt == INF:
                        rhs.setdefault(p, INF_W)  # reached, for note_changed_edges
                        continue
                    cand = (rv + wv, rt + wt)
                    if p != goal and cand < rhs.get(p, INF_W):
                        rhs[p] = cand
                        gp = g.get(p, INF_W)
                        if gp != cand:
                            m = gp if gp <= cand else cand
                            shift = km if h is None else h(start, p) + km
                            heappush(U, ((m[0], m[1] + shift, m[0], m[1]), p))
            else:
                # g(u) rose to infinity: rescan the states whose lookahead ran through u
                g[u] = INF_W
                gv, gt = gu
                for p, (wv, wt) in pred_items(u):
                    if wt != INF and p != goal and rhs.get(p) == (gv + wv, gt + wt):
                        update(p)
                update(u)
        return True

    # -- change application -----------------------------------------------------

    def move_start(self, new_start: int):
        """Shift the search anchor after the agent moved; keeps queue order valid."""
        if not self.graph.has_node(new_start):
            raise ValueError(f"start {new_start} not in graph")
        if new_start != self.start:
            self.km += self.h(self.start, new_start)
            self.start = new_start

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

    def cost_from(self, s: int = None) -> tuple:
        return self.g.get(self.start if s is None else s, INF_W)

    def extract_path(self, from_state: int = None) -> list[int]:
        """Greedy descent to the goal; ties go to the lowest state index."""
        s = self.start if from_state is None else from_state
        if self.g.get(s, INF_W)[1] == INF:
            raise ValueError(f"state {s} cannot reach the goal")
        g = self.g
        path = [s]
        limit = 2 * self.graph.size() + 10
        while s != self.goal:
            best = None
            best_v = -1
            for v, (wv, wt) in self.graph.succ_items(s):
                if wt == INF:
                    continue
                gv = g.get(v, INF_W)
                if gv[1] == INF:
                    continue
                cand = (gv[0] + wv, gv[1] + wt)
                if best is None or cand < best or (cand == best and v < best_v):
                    best = cand
                    best_v = v
            if best is None:
                raise RuntimeError(f"dead end at {s} during path extraction")
            s = best_v
            path.append(s)
            if len(path) > limit:
                raise RuntimeError("path extraction did not terminate")
        return path


def _zero_h(a: int, b: int) -> int:
    return 0

