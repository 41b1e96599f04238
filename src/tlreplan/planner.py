"""Prefix-suffix replanning over a product automaton.

One incremental search per accepting state finds its cheapest loop by
mirroring the accepting state's incoming edges onto an imaginary goal; a
main incremental search then reaches an overall imaginary goal whose
incoming edges carry the loop costs scaled by the suffix weighting. The
main search keeps its tree (shifting the key drift accumulator) while the
agent is still on the prefix, and restarts from the current state once the
agent is inside the loop, so the traversed part stays behind as history and
the remainder is re-optimized globally.

Loop searches are repaired lazily. A change set can only raise costs when
every change rewrites an existing edge to a weight no lower than before.
Such a set queues its edge updates in each affected loop search and marks
that record stale, without searching. A stale record keeps its old cost
on its edge to the overall goal. Costs have only risen since that cost was
exact, so it is a lower bound. Before the main search, the loop of the
current run's accepting state is repaired. After it, while the extracted
path closes through a stale accepting state, that loop is repaired, its
goal edge raised, and the main search repeated.

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

from dataclasses import dataclass, field

from .dstar import INF_W, OverlayGraph, SearchInstance, path_weight
from .weights import INF, Weight

PREFIX = "prefix"
SUFFIX = "suffix"


class NoAcceptingRun(Exception):
    """No accepting state has both a reachable prefix and a finite loop."""


def check_beta(beta: int) -> None:
    """Reject a suffix weighting below 1, which would discount the loop away."""
    if beta < 1:
        raise ValueError(f"beta must be a positive integer, got {beta}")


@dataclass
class Run:
    prefix: list[int]
    suffix: list[int]
    accepting: int
    prefix_cost: Weight
    suffix_cost: Weight
    total: Weight

    def states(self) -> list[int]:
        """Prefix followed by one loop traversal (shared state deduplicated)."""
        return self.prefix + self.suffix[1:]


def total_cost(run: Run, beta: int) -> Weight:
    """Prefix weight plus beta-scaled loop weight, componentwise."""
    if not run.prefix_cost.finite or not run.suffix_cost.finite:
        return Weight(INF, INF)
    return run.prefix_cost + run.suffix_cost.scale(beta)


@dataclass
class SuffixRecord:
    k: int
    acc: int
    img: int
    graph: OverlayGraph
    instance: SearchInstance
    cost: tuple
    loop: list[int] | None = field(default=None)
    stale: bool = False  # changes queued, search not run; cost is a lower bound

    def get_loop(self) -> list[int]:
        """Loop through the accepting state; extracted on demand."""
        if self.loop is None:
            if self.cost[1] == INF:
                self.loop = []
            else:
                path = self.instance.extract_path(self.acc)
                self.loop = path[:-1] + [self.acc]
        return self.loop


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

    def peek_next(self) -> int:
        nxt = self._pos + 1
        if nxt >= len(self._seq):
            nxt = self._suffix_start + 1
        return self._seq[nxt]

    def advance(self) -> bool:
        """Move one step along the run; True when a loop traversal completes."""
        nxt = self._pos + 1
        if nxt >= len(self._seq):
            nxt = self._suffix_start + 1
        self._pos = nxt
        return nxt == len(self._seq) - 1


class LTLDStarPlanner(RunFollower):
    """Incremental optimal planner for prefix-suffix runs."""

    def __init__(self, pa, beta: int = 10, heuristic=None, log_pops: bool = False):
        super().__init__()
        check_beta(beta)
        self.pa = pa
        self.beta = beta
        self._log_pops = log_pops
        n = pa.n_states
        self.synth_start = n
        self.global_img = n + 1
        self._base_h = heuristic
        self.records: list[SuffixRecord] = []
        self._rec_by_acc: dict[int, SuffixRecord] = {}
        self.main: SearchInstance | None = None
        self.main_graph: OverlayGraph | None = None
        self._counter = [0]
        self.last_expansions = 0

    def _start_state(self) -> int:
        return self.pa.initial[0] if len(self.pa.initial) == 1 else self.synth_start

    # -- heuristic wrapping ----------------------------------------------------

    @property
    def _h(self):
        """Grid heuristics already map virtual ids to zero; the synthetic
        start additionally aliases to the first concrete initial state."""
        base = self._base_h
        if base is None or len(self.pa.initial) == 1:
            return base
        synth = self.synth_start
        alias = self.pa.initial[0]

        def h(a: int, b: int) -> int:
            if a == synth:
                a = alias
            if b == synth:
                b = alias
            return base(a, b)

        return h

    # -- suffix searches ---------------------------------------------------------

    def suffix_initialize(self, k: int) -> SuffixRecord:
        """Set up and solve the loop search for accepting state index k."""
        pa = self.pa
        acc = pa.accepting[k]
        img = pa.n_states + 2 + k
        graph = OverlayGraph(pa)
        graph.add_virtual(img)
        for p in pa.pred[acc]:
            graph.set_extra(p, img, pa.succ[p][acc])
        inst = SearchInstance(graph, start=acc, goal=img, log_pops=self._log_pops,
                              counter=self._counter)
        inst.compute_shortest_path()
        return SuffixRecord(k, acc, img, graph, inst, inst.cost_from(acc))

    def mark_stale(self, rec: SuffixRecord, mirrors, sources, force: bool = False):
        """Queue a change set in a loop search without searching.

        `mirrors` are (u, weight) pairs of changed edges into the accepting
        state, rewritten onto its imaginary goal; `sources` are the tails of
        every changed edge.
        """
        for u, w in mirrors:
            rec.graph.set_extra(u, rec.img, w)
        rec.instance.note_changed_edges(sources, force=force)
        rec.stale = True
        rec.loop = None

    def repair_loop(self, rec: SuffixRecord) -> bool:
        """Run a stale loop search to completion; True if its cost moved."""
        if not rec.stale:
            return False
        rec.instance.compute_shortest_path()
        rec.stale = False
        old = rec.cost
        rec.cost = rec.instance.cost_from(rec.acc)
        return rec.cost != old

    # -- planning ------------------------------------------------------------------

    def plan_initial(self) -> Run:
        pa = self.pa
        before = self._expansion_total()
        self.records = [self.suffix_initialize(k) for k in range(len(pa.accepting))]
        self._rec_by_acc = {rec.acc: rec for rec in self.records}
        start = self._start_state()
        self.main_graph = self._build_main_graph(start)
        self.main = SearchInstance(
            self.main_graph, start=start, goal=self.global_img,
            heuristic=self._h, log_pops=self._log_pops, counter=self._counter,
        )
        path = self._solve_main()
        self.last_expansions = self._expansion_total() - before
        return self._extract_run(path)

    def replan(self, mod) -> Run:
        """Incorporate a change set and re-derive the optimal run."""
        if self.main is None:
            raise RuntimeError("plan_initial must run before replan")
        if not mod:
            return self.run
        before = self._expansion_total()
        succ = self.pa.succ
        lowers = any(ch.v not in succ[ch.u] or ch.weight < succ[ch.u][ch.v] for ch in mod)
        created = self.pa.apply_changes(mod)
        sources = {ch.u for ch in mod}
        sources_seq = tuple(sources)
        mirrors_by_acc: dict[int, list] = {}
        for ch in mod:
            mirrors_by_acc.setdefault(ch.v, []).append((ch.u, ch.weight))
        skip_ok = not created  # brand-new edges invalidate the untouched shortcut
        for rec in self.records:
            mirrors = mirrors_by_acc.get(rec.acc)
            if mirrors is None and skip_ok:
                rhs = rec.instance.rhs
                # a loop search that never reached any rewritten source
                # cannot be affected; its cost is unchanged by construction
                if len(rhs) == 1 or not any(u in rhs for u in sources_seq):
                    continue
            self.mark_stale(rec, mirrors or (), sources, force=not skip_ok)
        if lowers:
            # stale costs stop being lower bounds once a weight may drop
            repair = self.records
        else:
            repair = [self._rec_by_acc[self.run.accepting]]
        changed = [rec for rec in repair if self.repair_loop(rec)]
        current = self.current_state
        if self.phase == PREFIX:
            for rec in changed:
                self._update_goal_edge(rec)
            self.main.move_start(current)
            self.main.note_changed_edges(sources, force=not skip_ok)
        else:
            self.main_graph = self._build_main_graph(current)
            self.main = SearchInstance(
                self.main_graph, start=current, goal=self.global_img,
                heuristic=self._h, log_pops=self._log_pops, counter=self._counter,
            )
        path = self._solve_main()
        self.last_expansions = self._expansion_total() - before
        return self._extract_run(path)

    def _solve_main(self) -> list[int] | None:
        """Main search until its path closes through a fresh loop; None if none exists."""
        main = self.main
        while True:
            main.compute_shortest_path()
            if main.cost_from()[1] == INF:
                return None
            path = main.extract_path()
            rec = self._rec_by_acc[path[-2]]
            if not self.repair_loop(rec):
                return path
            self._update_goal_edge(rec)

    def _update_goal_edge(self, rec: SuffixRecord):
        self.main_graph.set_extra(rec.acc, self.global_img, _scaled(rec.cost, self.beta))
        self.main.update_vertex(rec.acc)

    def _build_main_graph(self, start: int) -> OverlayGraph:
        graph = OverlayGraph(self.pa)
        graph.add_virtual(self.global_img)
        beta = self.beta
        for rec in self.records:
            graph.set_extra(rec.acc, self.global_img, _scaled(rec.cost, beta))
        if start == self.synth_start:
            graph.add_virtual(self.synth_start)
            for s0 in self.pa.initial:
                graph.set_extra(self.synth_start, s0, (0, 0))
        return graph

    def _extract_run(self, path: list[int] | None) -> Run:
        if path is None:
            raise NoAcceptingRun("no accepting state is reachable with a finite loop")
        acc = path[-2]
        prefix = path[:-1]
        if prefix and prefix[0] == self.synth_start:
            prefix = prefix[1:]
        rec = self._rec_by_acc[acc]
        loop = list(rec.get_loop())
        prefix_cost = Weight(*path_weight(self.main_graph, prefix))
        run = Run(prefix, loop, acc, prefix_cost, Weight(*rec.cost),
                  prefix_cost + Weight(*rec.cost).scale(self.beta))
        self._set_run(run)
        return run

    def _expansion_total(self) -> int:
        return self._counter[0]


def _scaled(cost: tuple, beta: int) -> tuple:
    if cost[1] == INF:
        return INF_W
    return (cost[0] * beta, cost[1] * beta)
