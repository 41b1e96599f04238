"""Prefix-suffix replanning over a product automaton.

One incremental search per accepting state finds its cheapest loop by
mirroring the accepting state's incoming edges onto an imaginary goal; a
main incremental search then reaches an overall imaginary goal whose
incoming edges carry the finite loop costs scaled by the suffix weighting.
Every search's imaginary goal is id n + 1, and the main search's synthetic
start id n.

The planner keeps one record per accepting state, but builds a search only
for a state that some finite edge enters. Any other record has no search
and the cost INF, which is exact: no loop can close through the state, and
its search would expand its goal once and find INF. Its goal edge would
carry INF and queue nothing, so the main search gets none. A record is
built stale if a finite edge enters its state, and turns stale when a
change set gives it one (an `add`, or a reweight of a deleted edge).
`repair_loop`, the one path that solves a loop search, builds a missing
search from scratch. Such a set can lower costs, so every stale record is
repaired at once, and a finite new cost rebuilds the main search.

On the prefix or inside the loop, the problem from the current state is
the same, so one rule serves both phases. A change set that moves no loop
cost repairs the main search in place: its start moves to the current
state (shifting the key drift accumulator) and the changed edges' tails
are rescanned. A moved loop cost rewrites an edge next to the goal that
nearly every path runs through, and an in-place repair would expand most
of the tree twice, so the main search is built afresh from the current
state, as `plan_initial` builds it. Either search ends with exact costs
along the extracted path, so runs are the same either way.

Loop searches are repaired lazily. A change set can only raise costs when
every change rewrites an existing edge to a weight no lower than before.
Such a set adds the tails of its changed edges to each affected record's
queued sources and marks that record stale, without searching; a stale
record's sources are rescanned once, when it is repaired. A stale record
keeps its old cost on its edge to the overall goal. Costs have only risen
since that cost was exact, so it is a lower bound. Before the main search,
the loop of the current run's accepting state is repaired. After it, while
the extracted path closes through a stale accepting state, that loop is
repaired and, if its cost moved, the main search is built afresh.

A loop repair next to its goal can cost several fresh solves, so each
repair may expand at most a share of the record's last from-scratch
solve. Past that budget the half-repaired search is dropped and solved
from scratch, as a missing one is. Both end with the exact loop cost and
the search `plan_initial` would build, so runs are unchanged.

On grid workspaces every search is focused by a distance in the free
product (`free_product`): the product over the belief WTS's cells, walls
and hidden obstacles ignored, with one move of travel `step`, the cheapest
WTS edge when the planner is built, to each 4-neighbour and only
violation-free automaton moves. Sensing never changes a label and `replan`
keeps every travel at or above `step`, so each violation-free product edge,
now or later, is a free move at no lower cost; an edge that violates raises
a key's first component and needs no bound. Free distances are therefore
admissible and consistent under every change kind. The main search reads
`step` times the Manhattan distance between cells. Each loop search reads
the free distance from its accepting state, the search's fixed start: one
breadth-first search per record gives it, and stops at the shortest free
cycle through the accepting state; any state beyond that depth is given
one step more, which keeps the bound consistent.

Runs stay identical to a search over exact loop costs. The final path
closes through an exact loop, so its total is exact, and since every other
goal edge is a lower bound, no run is cheaper. Every state on that path
therefore has its exact cost-to-goal. A successor that only ties because
of a lower bound would have led the path to a stale loop, so the
lowest-index tie rule picks the same successors as it would over exact
costs. A change set that could lower a cost (a weight decrease or a
created edge) breaks the lower bound, so it repairs every stale loop first.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .dstar import OverlayGraph, SearchInstance
from .weights import BETA_CAP, INF, WeightRangeError, pack, path_weight, unpack

PREFIX = "prefix"
SUFFIX = "suffix"

# A loop repair may expand 1/REPAIR_SHARE of the record's last fresh solve.
# On grid-abcd, shares of 1/4 to 1/32 cut the replan tail by about the same
# 25-40% and 1/2 by about 12%; total expansions rise 12% at 1/4 and 37% at
# 1/32.
REPAIR_SHARE = 4


class NoAcceptingRun(Exception):
    """No accepting state has both a reachable prefix and a finite loop;
    `pops` is the work the failed solve spent."""

    def __init__(self, message: str = "", pops: int = 0):
        super().__init__(message)
        self.pops = pops


class ReweightBelowStepError(ValueError):
    """A change set sets an edge's travel below the free product's step, which
    would make the heuristics inadmissible."""


class EdgeOutsideGridError(ValueError):
    """A change set creates a violation-free edge that is no free-product move
    (its cells are not grid neighbours), which would make the heuristics
    inadmissible."""


def check_beta(beta: int) -> None:
    """Reject a suffix weighting below 1, which would discount the loop away, and
    one the packed weights cannot scale exactly: not an int, or at or above BETA_CAP."""
    if type(beta) is not int or beta >= BETA_CAP:
        raise WeightRangeError(f"beta {beta!r} must be an int below {BETA_CAP}")
    if beta < 1:
        raise ValueError(f"beta must be a positive integer, got {beta}")


@dataclass
class Run:
    prefix: list[int]
    suffix: list[int]
    accepting: int
    prefix_cost: tuple  # (violation, travel), unpacked from the searches
    suffix_cost: tuple
    total: tuple

    def states(self) -> list[int]:
        """Prefix followed by one loop traversal (shared state deduplicated)."""
        return self.prefix + self.suffix[1:]


@dataclass
class SuffixRecord:
    acc: int
    instance: SearchInstance | None = None  # None until a finite edge enters acc
    cost: int | float = INF  # packed loop cost, INF without a loop
    fresh: int = 0  # expansions of the last from-scratch solve; sets the repair budget
    loop: list[int] | None = field(default=None)
    stale: bool = False  # to be solved: changes queued, or a search not yet built
    pending: set[int] = field(default_factory=set)  # changed-edge tails, rescanned at repair
    force: bool = False  # some pending edge was created: rescan unreached tails too
    h: Callable[[int, int], int] | None = None  # kept for re-solves; None: unfocused

    def get_loop(self) -> list[int]:
        """Loop through the accepting state; extracted on demand."""
        if self.loop is None:
            if self.cost == INF:
                self.loop = []
            else:
                path = self.instance.extract_path(self.acc)
                self.loop = path[:-1] + [self.acc]
        return self.loop


class FreeProduct:
    """The grid product without obstacles: travel `step` per move, no violation.

    `adj[i]` holds a pair for each cell j that cell i can ever move to (its
    4-neighbours and its WTS edges): j's first product state, and per
    automaton state the automaton states a violation-free move into j can
    reach. That table is shared by cells with one label.

    `bound(a, b)` is the main search's heuristic: `step` times the
    Manhattan distance between the cells of a and b. The synthetic start
    (id `n`) reads as the nearest of the initial states' cells, a minimum
    of metrics that keeps the triangle inequality the keys need; every
    higher id is a virtual goal and reads 0.
    """

    def __init__(self, pa, step: int):
        wts = pa.wts
        nq = pa.nq
        n = pa.n_states
        index = {cell: i for i, cell in enumerate(wts.coords)}
        by_label = {bits: pa.clean_moves(bits) for bits in set(wts.labels)}
        entry = [(j * nq, by_label[bits]) for j, bits in enumerate(wts.labels)]
        self.adj = []
        for i, (r, c) in enumerate(wts.coords):
            near = {index.get(nb) for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))}
            near.discard(None)
            self.adj.append([entry[j] for j in sorted(near | wts.succ[i].keys())])
        self.nq = nq
        self.n = n
        self.step = step
        # step * row and step * col per product state; the synthetic start's
        # bound to each state, and 0 to itself
        cells = [wts.coords[s // nq] for s in range(n)]
        rows = [step * r for r, _ in cells]
        cols = [step * c for _, c in cells]
        starts = {(rows[s], cols[s]) for s in pa.initial}
        near = [min(abs(r - r0) + abs(c - c0) for r0, c0 in starts)
                for r, c in zip(rows, cols)] + [0]

        def bound(a: int, b: int) -> int:
            if a >= n or b >= n:
                if a > n or b > n:
                    return 0
                return near[b] if a == n else near[a]
            return abs(rows[a] - rows[b]) + abs(cols[a] - cols[b])

        self.bound = bound

    def has_move(self, u: int, v: int) -> bool:
        qm = u % self.nq
        base, qn = divmod(v, self.nq)
        base *= self.nq
        return any(b == base and qn in moves[qm] for b, moves in self.adj[u // self.nq])

    def heuristic(self, acc: int):
        """h(acc, s): free travel from `acc` to s, by a bounded breadth-first search.

        The search stops at the depth of the shortest free cycle through
        `acc`, or when it runs out of states. Every state it did not reach
        lies beyond the last depth, so it gets that depth plus one step:
        still a lower bound, and consistent, since a move from a reached
        state to an unreached one starts at the last depth. Virtual states
        get 0.
        """
        nq, adj = self.nq, self.adj
        depth = {acc: 0}
        frontier = [acc]
        d = 0
        limit = None
        while frontier and d != limit:
            d += 1
            grown = []
            for s in frontier:
                i, q = divmod(s, nq)
                for base, moves in adj[i]:
                    for qn in moves[q]:
                        t = base + qn
                        if t not in depth:
                            depth[t] = d
                            grown.append(t)
                        elif t == acc and limit is None:
                            limit = d
            frontier = grown
        # one byte per state while depths fit: a planner keeps one of these
        # per live accepting state
        dist = bytearray([d + 1]) * self.n if d < 0xFF else [d + 1] * self.n
        for t, k in depth.items():
            dist[t] = k
        step = self.step
        n = self.n

        def h(a: int, b: int) -> int:
            return dist[b] * step if b < n else 0

        return h


def free_product(pa) -> FreeProduct | None:
    """The free product of a grid product; None off the grid or without a finite edge."""
    wts = pa.wts
    if wts.coords is None:
        return None
    step = min((d for _, _, d in wts.edges() if d != INF), default=0)
    return FreeProduct(pa, step) if step else None


class RunFollower:
    """Cursor over the active run: prefix once, then the loop forever."""

    def __init__(self):
        self.run: Run | None = None
        self._seq: list[int] = []
        self._pos = 0
        self._suffix_start = 0

    def _set_run(self, run: Run):
        self.run = run
        self._seq = run.states()
        self._pos = 0
        self._suffix_start = len(run.prefix) - 1

    def _start_state(self) -> int:
        raise NotImplementedError

    @property
    def current_state(self) -> int:
        if self.run is None:
            return self._start_state()
        return self._seq[self._pos]

    @property
    def phase(self) -> str:
        if self.run is None:
            return PREFIX
        return SUFFIX if self._pos >= self._suffix_start else PREFIX

    def _next(self) -> int:
        """Position after the current one: the loop wraps to its second state."""
        nxt = self._pos + 1
        return nxt if nxt < len(self._seq) else self._suffix_start + 1

    def peek_next(self) -> int:
        return self._seq[self._next()]

    def advance(self) -> bool:
        """Move one step along the run; True when a loop traversal completes."""
        self._pos = nxt = self._next()
        return nxt == len(self._seq) - 1


class LTLDStarPlanner(RunFollower):
    """Incremental optimal planner for prefix-suffix runs."""

    def __init__(self, pa, beta: int = 10):
        super().__init__()
        check_beta(beta)
        self.pa = pa
        self.beta = beta
        n = pa.n_states
        self.synth_start = n
        self.goal = n + 1
        self._free = free_product(pa)
        self.records: list[SuffixRecord] = []
        self._rec_by_acc: dict[int, SuffixRecord] = {}
        self.main: SearchInstance | None = None
        self._counter = [0]
        self.last_expansions = 0

    def _start_state(self) -> int:
        return self.pa.initial[0] if len(self.pa.initial) == 1 else self.synth_start

    # -- suffix searches ---------------------------------------------------------

    def mark_stale(self, rec: SuffixRecord, sources, force: bool = False):
        """Queue a change set in a loop search without searching.

        `sources` are the tails of every changed edge. Each that has an edge
        into the accepting state gets that edge's present weight copied
        onto the imaginary goal. They join the record's pending sources, which
        `repair_loop` rescans once: until then g does not move and a rescan
        reads the current weights, so one rescan equals one per change set.
        """
        graph = rec.instance.graph
        into = self.pa.pred[rec.acc]
        for u in sources & into.keys():
            graph.set_extra(u, self.goal, into[u])
        rec.pending |= sources
        rec.force |= force
        rec.stale = True

    def repair_loop(self, rec: SuffixRecord) -> bool:
        """Run a stale loop search to completion; True if its cost moved.

        A record without a search, and a repair that passes its budget, get
        a search over the present product solved from scratch.
        """
        if not rec.stale:
            return False
        inst = rec.instance
        if inst is not None:
            inst.note_changed_edges(rec.pending, force=rec.force)
            rec.pending = set()
            rec.force = False
        if inst is None or not inst.compute_shortest_path(
                budget=max(1, rec.fresh // REPAIR_SHARE)):
            if rec.h is None and self._free is not None:
                rec.h = self._free.heuristic(rec.acc)
            graph = OverlayGraph(self.pa)
            for p, w in self.pa.pred[rec.acc].items():
                graph.set_extra(p, self.goal, w)
            inst = SearchInstance(graph, start=rec.acc, goal=self.goal, heuristic=rec.h,
                                  counter=self._counter)
            inst.compute_shortest_path()
            rec.instance, rec.fresh = inst, inst.expansions
        rec.stale = False
        rec.loop = None
        old = rec.cost
        rec.cost = inst.cost_from(rec.acc)
        return rec.cost != old

    # -- planning ------------------------------------------------------------------

    def plan_initial(self) -> Run:
        pa = self.pa
        before = self._counter[0]
        self.records = [SuffixRecord(acc, stale=any(w != INF for w in pa.pred[acc].values()))
                        for acc in pa.accepting]
        self._rec_by_acc = {rec.acc: rec for rec in self.records}
        for rec in self.records:
            self.repair_loop(rec)
        self._build_main(self._start_state())
        path = self._solve_main()
        self.last_expansions = self._counter[0] - before
        return self._extract_run(path)

    def replan(self, mod) -> Run:
        """Incorporate a change set and re-derive the optimal run."""
        if self.main is None:
            raise RuntimeError("plan_initial must run before replan")
        if not mod:
            return self.run
        out = self.pa.out
        free = self._free
        if free is not None:
            low = [ch for ch in mod if ch.weight[1] < free.step]
            if low:
                raise ReweightBelowStepError(
                    f"edge {low[0].u}->{low[0].v} travel {low[0].weight[1]} is below the "
                    f"heuristic's step {free.step}; the product was left unchanged")
            off = [ch for ch in mod if ch.v not in out[ch.u] and ch.weight[0] == 0
                   and not free.has_move(ch.u, ch.v)]
            if off:
                raise EdgeOutsideGridError(
                    f"new edge {off[0].u}->{off[0].v} is no free-product move; "
                    f"the product was left unchanged")
        before = self._counter[0]
        lowers = any(ch.v not in out[ch.u] or pack(ch.weight) < out[ch.u][ch.v] for ch in mod)
        created = self.pa.apply_changes(mod)
        sources = {ch.u for ch in mod}
        entered = {ch.v for ch in mod if out[ch.u][ch.v] != INF}
        skip_ok = not created  # brand-new edges invalidate the untouched shortcut
        for rec in self.records:
            if rec.instance is None:
                # no loop closed until a finite edge entered; the repair builds the search
                if rec.acc in entered:
                    rec.stale = True
                continue
            # a loop search that never reached any rewritten source cannot be
            # affected; it reached every tail into its state when it first
            # expanded its goal, so an edge into the state is never skipped
            if skip_ok and rec.instance.reached.isdisjoint(sources):
                continue
            self.mark_stale(rec, sources, force=not skip_ok)
        if lowers:
            # stale costs stop being lower bounds once a weight may drop
            repair = self.records
        elif self.run is None:
            repair = []  # no run yet (plan_initial found none); _solve_main decides
        else:
            repair = [self._rec_by_acc[self.run.accepting]]
        moved = [self.repair_loop(rec) for rec in repair]  # every one, no short-circuit
        if any(moved):
            self._build_main(self.current_state)
        else:
            self.main.move_start(self.current_state)
            self.main.note_changed_edges(sources, force=not skip_ok)
        path = self._solve_main()
        self.last_expansions = self._counter[0] - before
        return self._extract_run(path)

    def _solve_main(self) -> list[int] | None:
        """Main search until its path closes through a fresh loop; None if none exists."""
        while True:
            main = self.main
            main.compute_shortest_path()
            if main.cost_from() == INF:
                return None
            path = main.extract_path()
            if not self.repair_loop(self._rec_by_acc[path[-2]]):
                return path
            self._build_main(main.start)

    def _build_main(self, start: int):
        """A fresh main search from `start` over the records' present loop costs."""
        graph = OverlayGraph(self.pa)
        beta = self.beta
        for rec in self.records:
            if rec.cost != INF:
                graph.set_extra(rec.acc, self.goal, beta * rec.cost)
        if start == self.synth_start:
            for s0 in self.pa.initial:
                graph.set_extra(self.synth_start, s0, 0)
        bound = None if self._free is None else self._free.bound
        self.main = SearchInstance(graph, start=start, goal=self.goal,
                                   heuristic=bound, counter=self._counter)

    def _extract_run(self, path: list[int] | None) -> Run:
        if path is None:
            raise NoAcceptingRun("no accepting state is reachable with a finite loop")
        acc = path[-2]
        prefix = path[:-1]
        if prefix and prefix[0] == self.synth_start:
            prefix = prefix[1:]
        rec = self._rec_by_acc[acc]
        loop = list(rec.get_loop())
        prefix_cost = path_weight(self.pa.out, prefix)
        run = Run(prefix, loop, acc, unpack(prefix_cost), unpack(rec.cost),
                  unpack(prefix_cost + self.beta * rec.cost))
        self._set_run(run)
        return run
