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

State is array-backed: `g` and `rhs` are lists of `graph.size()` slots,
indexed by state and filled with `UNSEEN`. That is a float infinity of
its own, so it equals `INF` in every comparison and sum, and `is UNSEEN`
still tells a slot never written. `reached` is the set of states whose
rhs was ever written: the goal, and every predecessor of an expanded
state. A state outside it has every successor at infinity, which is what
`note_changed_edges` and the planner's skip of untouched loop searches
rest on.

Invariant: for every state but the goal, rhs is the one-step lookahead
min over successors v of w(s, v) + g(v). D* Lite's optimized expansion
step rests on it. When g(u) falls to rhs(u), a predecessor's lookahead
can only tighten to w + g(u): an O(1) update, queued only if its rhs fell
and it is now inconsistent (one behind a deleted edge is just marked
reached). When g(u) rises to INF, only predecessors whose rhs equals w +
the old g(u), whose lookahead ran through u, are rescanned. Edge changes
and goal edges keep full rescans (`update_vertex`). An expansion reads
predecessors straight from the product's `pred` rows, and asks the graph
only for a state that carries overlay edges. The start key is recomputed
only when g or rhs of the start changes. Every other key is built inline
from the g and rhs just read, and the zero heuristic is never called.

`compute_shortest_path(budget)` stops before its budget's next expansion
and returns False. The popped entry goes back on the queue, so the search
stays valid and a later call resumes it. Without a budget the limit is
-1, which no expansion count equals, so the hot loop pays one integer
comparison per expansion either way. The count is kept in a local and
written back, to `expansions` and the shared counter, on return.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .weights import INF, KM_CAP

UNSEEN = float("inf")  # a g or rhs slot never written; == INF, but not INF itself


class OverlayGraph:
    """A product automaton plus per-search virtual nodes and edges.

    The base adjacency is shared and mutated only through the product's
    own change application; virtual edges (imaginary goals, synthetic
    start) live in private overlay maps so concurrent searches over one
    product never observe each other's goals. Weights are packed. Every
    overlay reserves id n for a synthetic start and n + 1 for its goal,
    so the graph has n + 2 nodes. `pred` is the product's own head-indexed
    rows, and `extra_pred` holds, for each head with overlay edges and for
    both virtual ids, its overlay tails.
    """

    def __init__(self, pa):
        n = pa.n_states
        self._n = n
        self.out = pa.out
        self.pred = pa.pred
        self.extra_succ: dict[int, dict] = {}
        self.extra_pred: dict[int, dict] = {n: {}, n + 1: {}}

    def set_extra(self, u: int, v: int, w):
        self.extra_succ.setdefault(u, {})[v] = w
        self.extra_pred.setdefault(v, {})[u] = w

    def succ_items(self, u: int):
        ex = self.extra_succ.get(u)
        if u < self._n:
            base = self.out[u].items()
            if ex is None:
                return base
            return list(base) + list(ex.items())
        return ex.items() if ex is not None else ()

    def pred_items(self, u: int):
        ex = self.extra_pred.get(u)
        if u < self._n:
            base = self.pred[u].items()
            if ex is None:
                return base
            return list(base) + list(ex.items())
        return ex.items()

    def has_node(self, u: int) -> bool:
        return 0 <= u < self._n + 2

    def size(self) -> int:
        return self._n + 2


class SearchInstance:
    """One incremental search: fixed goal, movable start.

    The graph gives `size()` node ids, `succ_items` and `pred_items`, and
    two head-indexed maps the expansion reads directly: `pred`, a list of
    {tail: weight} rows, and `extra_pred`, the heads whose predecessors
    `pred` does not hold or holds only in part.
    """

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
        size = self.graph.size()
        self.g: list = [UNSEEN] * size
        self.rhs: list = [UNSEEN] * size
        self.rhs[self.goal] = 0
        self.reached: set[int] = {self.goal}
        self.U: list = [(*self.calculate_key(self.goal), self.goal)]

    # -- keys ----------------------------------------------------------------

    def calculate_key(self, s: int) -> tuple:
        """The packed key (m + h(start, s) + km, m), m the lower of g(s) and rhs(s)."""
        g = self.g[s]
        rhs = self.rhs[s]
        m = g if g <= rhs else rhs
        return (m + self.h(self.start, s) + self.km, m)

    # -- core updates ----------------------------------------------------------

    def update_vertex(self, u: int):
        g = self.g
        rhs = self.rhs
        if u != self.goal:
            best = INF
            for v, w in self.graph.succ_items(u):
                cand = g[v] + w
                if cand < best:
                    best = cand
            rhs[u] = best
            self.reached.add(u)
        else:
            best = rhs[u]
        gu = g[u]
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
        done = done0 = self.expansions
        limit = -1 if budget is None else done + budget
        U = self.U
        g = self.g
        rhs = self.rhs
        reach = self.reached.add
        graph = self.graph
        pred = graph.pred
        extra = graph.extra_pred
        update = self.update_vertex
        log = self.pop_log
        start = self.start
        goal = self.goal
        km = self.km
        h = None if self.h is _zero_h else self.h  # keys as in calculate_key, inline
        finished = True
        gs = rs = start_top = None
        while U:
            g_start = g[start]
            r_start = rhs[start]
            if g_start is not gs or r_start is not rs:
                gs, rs = g_start, r_start
                # state -1 sorts after every entry with the start's key
                start_top = (*self.calculate_key(start), -1)
            if not (U[0] < start_top or g_start != r_start):
                break
            k1, k2, u = heappop(U)
            gu = g[u]
            ru = rhs[u]
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
            if done == limit:
                heappush(U, (k1, k2, u))
                finished = False
                break
            done += 1
            if log is not None:
                log.append((k1, k2, u))
            preds = graph.pred_items(u) if u in extra else pred[u].items()
            if gu > ru:
                # g(u) fell to rhs(u): each lookahead through u can only tighten
                g[u] = ru
                for p, w in preds:
                    cand = ru + w
                    rp = rhs[p]
                    if cand < rp:
                        if p != goal:
                            if rp is UNSEEN:
                                reach(p)
                            rhs[p] = cand
                            gp = g[p]
                            if gp != cand:
                                m = gp if gp <= cand else cand
                                shift = km if h is None else h(start, p) + km
                                heappush(U, (m + shift, m, p))
                    elif rp is UNSEEN:
                        reach(p)  # behind a deleted edge, for note_changed_edges
            else:
                # g(u) rose to infinity: rescan the states whose lookahead ran through u
                g[u] = INF
                for p, w in preds:
                    if rhs[p] == gu + w and w != INF and p != goal:
                        update(p)
                update(u)
        self.expansions = done
        if self.counter is not None:
            self.counter[0] += done - done0
        return finished

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
        reached = self.reached
        for u in sources:
            if force or u in reached:
                self.update_vertex(u)

    # -- results -----------------------------------------------------------------

    def cost_from(self, s: int = None):
        """Packed cost from `s` (default: the start) to the goal; INF if none."""
        return self.g[self.start if s is None else s]

    def extract_path(self, from_state: int = None) -> list[int]:
        """Greedy descent to the goal; ties go to the lowest state index."""
        s = self.start if from_state is None else from_state
        g = self.g
        if g[s] == INF:
            raise ValueError(f"state {s} cannot reach the goal")
        path = [s]
        limit = 2 * self.graph.size() + 10
        while s != self.goal:
            best = INF
            best_v = -1
            for v, w in self.graph.succ_items(s):
                cand = g[v] + w
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
