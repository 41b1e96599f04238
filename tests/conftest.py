import random
import re
import time
from dataclasses import dataclass
from heapq import heappop, heappush
from pathlib import Path

import pytest

from tlreplan.baselines import lex_dijkstra, loop_cost, solve_fresh
from tlreplan.dstar import SearchInstance
from tlreplan.hoa import cubes_distance, parse_nba_file
from tlreplan.labels import APUniverse, APUniverseError
from tlreplan.planner import NoAcceptingRun
from tlreplan.product import PLAIN, RELAXED, ProductAutomaton
from tlreplan.simulate import ALGO_ITERATIVE, EventRow, TraceReport, build_world
from tlreplan.weights import INF, pack, path_weight
from tlreplan.weights import unpack as unpack_weight
from tlreplan.world import GridScenario

ASSETS = Path(__file__).resolve().parent.parent / "src" / "tlreplan" / "assets"

# A scenario whose start cell is walled in by obstacles it sees at once, so
# no run exists in any mode
BOXED_START = {"width": 6, "height": 6, "obstacles": [[0, 1], [1, 0]],
               "regions": {"a": [[2, 2]], "b": [[0, 5]], "c": [[5, 5]], "d": [[5, 0]]},
               "start": [0, 0]}


@pytest.fixture(scope="session")
def seq_nba():
    return parse_nba_file(ASSETS / "sequence_abcd.hoa")


@pytest.fixture(scope="session")
def seq_nba_anchored():
    return parse_nba_file(ASSETS / "sequence_abcd_anchored.hoa")


@pytest.fixture(scope="session")
def seq_nba_32():
    return parse_nba_file(ASSETS / "sequence_abcd_32.hoa")


class DictGraph:
    """Plain adjacency graph implementing the engine's graph protocol.

    Like a product, it keeps each edge's packed weight by tail (`out`) and
    by head (`pred`); it has no overlay edges (`extra_pred`).
    """

    def __init__(self, n: int):
        self.n = n
        self.out = [dict() for _ in range(n)]
        self.pred = [dict() for _ in range(n)]
        self.extra_pred = {}

    def add_edge(self, u: int, v: int, w: tuple):
        """Add an edge of (violation, travel) weight `w`, or rewrite its weight if it exists."""
        self.out[u][v] = self.pred[v][u] = pack(w)

    def succ_items(self, u: int):
        return self.out[u].items()

    def pred_items(self, u: int):
        return self.pred[u].items()

    def has_node(self, u: int) -> bool:
        return 0 <= u < self.n

    def size(self) -> int:
        return self.n

    def edges(self):
        """(u, v, packed weight) for every edge."""
        for u, row in enumerate(self.out):
            for v, w in row.items():
                yield u, v, w


def apply_edge_changes(inst, changes):
    """Rewrite (u, v, weight) edges of a DictGraph search, then requeue their tails.

    The repair goes through `note_changed_edges` as the planner calls it:
    with `force=True` only when the batch creates an edge, so batches that
    rewrite existing edges exercise its skip of never-reached tails.
    """
    out = inst.graph.out
    created = any(v not in out[u] for u, v, _w in changes)
    sources = set()
    for u, v, w in changes:
        inst.graph.add_edge(u, v, w)
        sources.add(u)
    inst.note_changed_edges(sources, force=created)


class RescanSearchInstance(SearchInstance):
    """Reference engine with the textbook expansion step.

    Every predecessor of an expanded state is rescanned with `update_vertex`,
    and the start key is recomputed on every pop. `SearchInstance` tightens
    predecessors in O(1) instead; both must expand the same states in the
    same order and end with the same `g`, `rhs` and `reached`.
    """

    def compute_shortest_path(self):
        U, g, rhs = self.U, self.g, self.rhs
        while U:
            start_key = self.calculate_key(self.start)
            if not (U[0][:2] < start_key or g[self.start] != rhs[self.start]):
                break
            k1, k2, u = heappop(U)
            k_old = (k1, k2)
            k_new = self.calculate_key(u)
            if k_old < k_new:
                if g[u] != rhs[u]:
                    heappush(U, (*k_new, u))
                continue
            gu = g[u]
            ru = rhs[u]
            if k_old > k_new or gu == ru:
                continue
            self.expansions += 1
            if self.pop_log is not None:
                self.pop_log.append((k1, k2, u))
            g[u] = ru if gu > ru else INF
            for p, _w in self.graph.pred_items(u):
                self.update_vertex(p)
            if gu < ru:
                self.update_vertex(u)


def bellman_ford(n_states, edges, sources):
    """Naive relaxation over (u, v, packed weight) edges; cross-check for the oracle."""
    dist = {s: 0 for s in sources}
    for _ in range(n_states - 1):
        changed = False
        for u, v, w in edges:
            du = dist.get(u)
            if du is None:
                continue
            cand = du + w
            if cand < dist.get(v, INF):
                dist[v] = cand
                changed = True
        if not changed:
            break
    return dist


def random_weighted_graph(rng: random.Random, n: int = 64, avg_degree: float = 3.0,
                          max_violation: int = 0, zero_violation_chain: bool = False):
    """Random directed graph with (violation, travel) weights, packed by `add_edge`.

    With zero_violation_chain, a 0 -> 1 -> ... -> n-1 chain of clean edges
    guarantees a violation-free route to the last node.
    """
    g = DictGraph(n)
    if zero_violation_chain:
        for u in range(n - 1):
            g.add_edge(u, u + 1, (0, rng.randint(1, 9) * 10))
    n_edges = int(n * avg_degree)
    for _ in range(n_edges):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or (zero_violation_chain and v == u + 1):
            continue
        viol = rng.randint(0, max_violation) if max_violation else 0
        g.add_edge(u, v, (viol, rng.randint(1, 9) * 10))
    return g


def visit_in_order_hoa(k: int) -> str:
    """Cyclic mission "visit p0, p1, ..., p(k-1) in order" over k propositions.

    State i waits for p_i; state k is accepting and waits for p0 again.
    """
    aps = " ".join(f'"p{i}"' for i in range(k))
    lines = ["HOA: v1", f"States: {k + 1}", "Start: 0", f"AP: {k} {aps}",
             "acc-name: Buchi", "Acceptance: 1 Inf(0)", "--BODY--"]
    for q in range(k + 1):
        want = q % k
        lines.append(f"State: {q} {{0}}" if q == k else f"State: {q}")
        lines += [f"[!{want}] {q}", f"[{want}] {want + 1}"]
    return "\n".join(lines + ["--END--", ""])


_GUARD_WORDS = {"t": "True", "f": "False", "!": " not ", "&": " and ", "|": " or "}


def guard_predicate(text: str):
    """`bits -> bool` for HOA guard text, evaluated by Python, not by the library.

    `t`/`f`/`!`/`&`/`|` become `True`/`False`/`not`/`and`/`or` and an
    integer k becomes `(bits >> k & 1 == 1)`. Python ranks `not` over `and`
    over `or`, as HOA ranks `!` over `&` over `|`, so the parser's
    precedence is checked too.
    """
    expr = re.sub(r"\d+|[tf!&|]",
                  lambda m: _GUARD_WORDS.get(m[0]) or f"(bits >> {m[0]} & 1 == 1)", text)
    code = compile(expr.strip(), "<guard>", "eval")
    return lambda bits: eval(code, {"bits": bits})


def chi_bits(guard: str, n_props: int) -> tuple[int, ...]:
    """All labels (as bit patterns) over `n_props` propositions that satisfy `guard`.

    Enumerates the 2**n_props labels through `guard_predicate`, so it is an
    oracle for small universes only; the library itself uses cubes.
    """
    holds = guard_predicate(guard)
    return tuple(bits for bits in range(1 << n_props) if holds(bits))


def chi(guard: str, universe: APUniverse) -> set:
    """Labels satisfying `guard`; empty set if none."""
    return {Label(universe, b) for b in chi_bits(guard, universe.size)}


def cubes_enable(cubes, bits: int) -> bool:
    """True when label `bits` satisfies one of the cubes: the enabling oracle.

    The library reads enabling as `cubes_distance(cubes, bits) == 0`, the
    violation-free rows of the relaxed product.
    """
    return any(bits & pos == pos and not bits & neg for pos, neg in cubes)


def enabled_bits(nba, qm: int, qn: int) -> tuple[int, ...]:
    """All labels whose bits the library's cubes for q_m -> q_n enable."""
    cubes = nba.pair_cubes(qm, qn)
    return tuple(bits for bits in range(1 << nba.universe.size) if cubes_enable(cubes, bits))


def hoa_guards(text: str) -> dict:
    """Guard texts of each (q_m, q_n) in HOA text, read from its body lines."""
    guards = {}
    qm = None
    for line in text.split("--BODY--")[1].splitlines():
        line = line.strip()
        if line.startswith("State:"):
            qm = int(line.split()[1])
        elif line.startswith("["):
            guard, _, dest = line[1:].partition("]")
            guards.setdefault((qm, int(dest)), []).append(guard)
    return guards


def delta(nba, qm: int, bits: int) -> list[int]:
    """Successor states of qm on input label `bits`."""
    return [qn for m, qn in nba.pairs() if m == qm and cubes_enable(nba.pair_cubes(qm, qn), bits)]


def scenario_to_dict(scenario: GridScenario) -> dict:
    """The JSON form `world.scenario_from_dict` reads."""
    return {
        "width": scenario.width,
        "height": scenario.height,
        "walls": sorted(sorted(pair) for pair in scenario.walls),
        "obstacles": sorted(scenario.obstacles),
        "bumps": sorted(scenario.bumps),
        "regions": {name: sorted(cells) for name, cells in sorted(scenario.regions.items())},
        "start": list(scenario.start),
        "move_cost": scenario.move_cost,
        "bump_cost": scenario.bump_cost,
    }


def reverse_dijkstra_cost(graph, goal):
    """Independent packed cost-to-goal map: lexicographic Dijkstra over reversed edges."""
    dist, _ = lex_dijkstra(graph.pred, [goal])
    return dist


@dataclass
class OracleResult:
    """Costs as (violation, travel) tuples, like a `Run`'s."""

    prefix: list[tuple]
    loops: list[tuple]
    best_index: int | None
    best_total: tuple
    pops: int = 0


def dijkstra_oracle(pa, start, beta: int) -> OracleResult:
    """Exact best prefix+loop total by exhaustive per-accepting-state search.

    `start` may be a single product state or a list of candidate starts
    (multiple automaton initial states) entered at zero cost.
    """
    sources = list(start) if isinstance(start, (list, tuple)) else [start]
    pre, pops = lex_dijkstra(pa.out, sources)
    prefix = []
    loops = []
    best_index = None
    best_total = INF
    for k, acc in enumerate(pa.accepting):
        pk = pre.get(acc, INF)
        lk, lk_pops = loop_cost(pa, acc)
        pops += lk_pops
        prefix.append(unpack_weight(pk))
        loops.append(unpack_weight(lk))
        total = pk + beta * lk
        if total < best_total:
            best_total = total
            best_index = k
    return OracleResult(prefix, loops, best_index, unpack_weight(best_total), pops)


def unpack(pa: ProductAutomaton, s: int) -> tuple[int, int]:
    """(workspace state, automaton state) of product state s."""
    return divmod(s, pa.nq)


def dist_bits(nba, qm: int, qn: int, label_bits: int) -> int:
    """Violation of taking q_m -> q_n when the destination carries `label_bits`."""
    cubes = nba.pair_cubes(qm, qn)
    if not cubes:
        raise ValueError(f"no transition {qm}->{qn}: relaxation undefined")
    return cubes_distance(cubes, label_bits)


def dist(pa: ProductAutomaton, s_m: int, s_n: int) -> int:
    """Violation of the product transition s_m -> s_n (0 when it is legal)."""
    pi, qm = unpack(pa, s_m)
    pj, qn = unpack(pa, s_n)
    if not pa.wts.has_edge(pi, pj):
        raise ValueError(f"no workspace edge {pi}->{pj}")
    return dist_bits(pa.nba, qm, qn, pa.wts.labels[pj])


def replay_iterative(scenario: GridScenario, nba, recorded, beta: int = 10,
                     mode: str = PLAIN) -> TraceReport:
    """Feed a recorded event stream to from-scratch Dijkstra replanning.

    Gives the baseline the identical change sets and robot states that the
    incremental planner saw, so per-event totals and timings compare
    one-to-one.
    """
    build_mode = RELAXED if mode in (RELAXED, "auto") else PLAIN
    _belief, pa = build_world(scenario, nba, build_mode)
    report = TraceReport(algo=ALGO_ITERATIVE, mode=mode, beta=beta,
                         width=scenario.width, height=scenario.height,
                         loops_requested=0)
    t0 = time.perf_counter_ns()
    run, pops = solve_fresh(pa, list(pa.initial), beta)
    report.initial_ns = time.perf_counter_ns() - t0
    report.initial_expansions = pops
    report.initial_violation, report.initial_travel = run.total
    for i, ev in enumerate(recorded):
        t0 = time.perf_counter_ns()
        pa.apply_changes(ev.mod)
        try:
            run, pops = solve_fresh(pa, [ev.state], beta)
            dt = time.perf_counter_ns() - t0
            report.events.append(EventRow(i, ev.phase, len(ev.mod), dt, pops, *run.total))
        except NoAcceptingRun as exc:
            dt = time.perf_counter_ns() - t0
            report.events.append(EventRow(i, ev.phase, len(ev.mod), dt, exc.pops, INF, INF))
            report.infeasible = True
            return report
    report.completed = True
    return report


def loop_cost_reference(pa, acc):
    """Cheapest cycle through `acc` by a forward Dijkstra search from `acc`.

    Settling a closing predecessor `p` offers the cycle `dist(p) + w(p, acc)`;
    the search stops once the frontier is no cheaper than the best cycle
    offered. Returns (packed cost, settled-state count).
    """
    closing = {p: w for p, w in pa.pred[acc].items() if w != INF}
    best = INF
    tentative = {acc: 0}
    heap = [(0, acc)] if closing else []
    pops = 0
    while heap:
        d, u = heappop(heap)
        if d >= best:
            break
        if d > tentative[u]:
            continue
        pops += 1
        w = closing.get(u)
        if w is not None:
            best = min(best, d + w)
        for v, w in pa.out[u].items():
            cand = d + w
            if cand < tentative.get(v, INF):
                tentative[v] = cand
                heappush(heap, (cand, v))
    return best, pops


def solve_fresh_reference(pa, start, beta: int):
    """`solve_fresh` without pruning or shared searches: the reference it must equal.

    Every accepting state gets a full forward loop search, the total
    cost-to-goal is swept backward until every source settles, the prefix
    is descended along it, and the loop is descended along a separate
    backward search from the chosen state's closing predecessors.
    """
    from tlreplan.baselines import _descend
    from tlreplan.planner import Run

    sources = list(start) if isinstance(start, (list, tuple)) else [start]
    loops = {acc: loop_cost_reference(pa, acc)[0] for acc in pa.accepting}
    scaled = {acc: beta * lk for acc, lk in loops.items() if lk != INF}
    if not scaled:
        raise NoAcceptingRun("no accepting state has a finite loop")
    total, _ = lex_dijkstra(pa.pred, list(scaled.items()), targets=sources)
    best_src = min(sources, key=lambda s: (total.get(s, INF), s))
    if total.get(best_src, INF) == INF:
        raise NoAcceptingRun("no accepting state is reachable with a finite loop")
    prefix = _descend(pa, total, best_src, scaled)
    acc = prefix[-1]
    closing = {p: w for p, w in pa.pred[acc].items() if w != INF}
    dist, _ = lex_dijkstra(pa.pred, list(closing.items()), targets=[acc])
    loop = _descend(pa, dist, acc, closing) + [acc]
    pk = path_weight(pa.out, prefix)
    lk = loops[acc]
    return Run(prefix, loop, acc, unpack_weight(pk), unpack_weight(lk),
               unpack_weight(pk + beta * lk))


# The paper's label notation: the library works on bit masks and cubes, and
# these definitions are the oracle criterion 7 and `test_labels.py` check.


@dataclass(frozen=True)
class Label:
    """A subset of one universe's propositions, held as a bit pattern."""

    universe: APUniverse
    bits: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.universe.size:
            raise APUniverseError(
                f"label bits {self.bits:#x} outside universe of size {self.universe.size}"
            )


def label(universe: APUniverse, names=()) -> Label:
    """Build a label from an iterable of proposition names."""
    bits = 0
    for n in names:
        bits |= 1 << universe.index(n)
    return Label(universe, bits)


def xi(ap: int, l: Label) -> int:
    """1 if proposition index `ap` is in the label, else 0."""
    if not 0 <= ap < l.universe.size:
        raise APUniverseError(f"proposition index {ap} outside universe of size {l.universe.size}")
    return l.bits >> ap & 1


def zeta(l: Label) -> list[int]:
    """Binary membership vector of the label, in universe order."""
    return [l.bits >> i & 1 for i in range(l.universe.size)]


def rho(l: Label, l2: Label) -> int:
    """Symmetric-difference cardinality between two labels of one universe."""
    if l.universe != l2.universe:
        raise APUniverseError("labels belong to different universes")
    return (l.bits ^ l2.bits).bit_count()
