import random
import time
from dataclasses import dataclass
from heapq import heappop, heappush
from pathlib import Path

import pytest

from tlreplan.baselines import lex_dijkstra, loop_cost, solve_fresh
from tlreplan.dstar import SearchInstance
from tlreplan.hoa import cubes_enable, parse_nba_file
from tlreplan.planner import NoAcceptingRun
from tlreplan.product import PLAIN, RELAXED, ProductAutomaton, dist_bits
from tlreplan.simulate import ALGO_ITERATIVE, EventRow, TraceReport, build_world
from tlreplan.weights import INF, INF_W, lasso_cost
from tlreplan.world import GridScenario

ASSETS = Path(__file__).resolve().parent.parent / "src" / "tlreplan" / "assets"


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
    """Plain adjacency graph implementing the engine's graph protocol."""

    def __init__(self, n: int):
        self.n = n
        self.succ = [dict() for _ in range(n)]
        self.pred = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, w: tuple):
        """Add an edge, or rewrite its weight if it exists."""
        if v not in self.succ[u]:
            self.pred[v].append(u)
        self.succ[u][v] = w

    def succ_items(self, u: int):
        return self.succ[u].items()

    def pred_items(self, u: int):
        succ = self.succ
        return [(p, succ[p][u]) for p in self.pred[u]]

    def has_node(self, u: int) -> bool:
        return 0 <= u < self.n

    def size(self) -> int:
        return self.n

    def edges(self):
        for u, out in enumerate(self.succ):
            for v, w in out.items():
                yield u, v, w


def apply_edge_changes(inst, changes):
    """Rewrite (u, v, weight) edges of a DictGraph search, then requeue their tails.

    The repair goes through `note_changed_edges` as the planner calls it:
    with `force=True` only when the batch creates an edge, so batches that
    rewrite existing edges exercise its skip of never-reached tails.
    """
    succ = inst.graph.succ
    created = any(v not in succ[u] for u, v, _w in changes)
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
    same order and end with the same `g` and `rhs`.
    """

    def compute_shortest_path(self):
        U, g, rhs = self.U, self.g, self.rhs
        while U:
            start_key = self.calculate_key(self.start)
            if not (U[0][0] < start_key or g.get(self.start, INF_W) != rhs.get(self.start, INF_W)):
                break
            k_old, u = heappop(U)
            k_new = self.calculate_key(u)
            if k_old < k_new:
                if g.get(u, INF_W) != rhs.get(u, INF_W):
                    heappush(U, (k_new, u))
                continue
            gu = g.get(u, INF_W)
            ru = rhs.get(u, INF_W)
            if k_old > k_new or gu == ru:
                continue
            self.expansions += 1
            if self.pop_log is not None:
                self.pop_log.append((k_old, u))
            g[u] = ru if gu > ru else INF_W
            for p, _w in self.graph.pred_items(u):
                self.update_vertex(p)
            if gu < ru:
                self.update_vertex(u)


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


def random_weighted_graph(rng: random.Random, n: int = 64, avg_degree: float = 3.0,
                          max_violation: int = 0, zero_violation_chain: bool = False):
    """Random directed graph with (violation, travel) weights.

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


def chi_bits(nba, qm: int, qn: int) -> tuple[int, ...]:
    """All labels (as bit patterns) enabling q_m -> q_n, by enumeration.

    Evaluates the guard trees on every one of the 2**|AP| labels, so it is
    an oracle for small universes only; the library itself uses cubes.
    """
    guards = [g for m, g, n in nba.transitions if (m, n) == (qm, qn)]
    return tuple(bits for bits in range(1 << nba.universe.size)
                 if any(g.eval(bits) for g in guards))


def chi(nba, qm: int, qn: int) -> set:
    """Labels enabling the transition q_m -> q_n; empty set if none."""
    return {nba.universe.label_from_bits(b) for b in chi_bits(nba, qm, qn)}


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
    """Independent cost-to-goal map: lexicographic Dijkstra over reversed edges."""
    dist, _ = lex_dijkstra(lambda u: graph.pred_items(u), [goal])
    return dist


@dataclass
class OracleResult:
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
    pre, pops = lex_dijkstra(lambda u: pa.succ[u].items(), sources)
    prefix = []
    loops = []
    best_index = None
    best_total = INF_W
    for k, acc in enumerate(pa.accepting):
        pk = pre.get(acc, INF_W)
        lk, lk_pops = loop_cost(pa, acc)
        pops += lk_pops
        prefix.append(pk)
        loops.append(lk)
        total = lasso_cost(pk, lk, beta)
        if total < best_total:
            best_total = total
            best_index = k
    return OracleResult(prefix, loops, best_index, best_total, pops)


def unpack(pa: ProductAutomaton, s: int) -> tuple[int, int]:
    """(workspace state, automaton state) of product state s."""
    return divmod(s, pa.nq)


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
    offered. Returns (cost, settled-state count).
    """
    succ = pa.succ
    closing = {p: w for p in pa.pred[acc] for w in [succ[p][acc]] if w[1] != INF}
    best = INF_W
    tentative = {acc: (0, 0)}
    heap = [((0, 0), acc)] if closing else []
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
            best = min(best, (d[0] + w[0], d[1] + w[1]))
        for v, (wv, wt) in succ[u].items():
            cand = (d[0] + wv, d[1] + wt)
            if wt != INF and cand < tentative.get(v, INF_W):
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
    from tlreplan.weights import path_weight

    def bwd(u):
        return [(p, pa.succ[p][u]) for p in pa.pred[u]]

    sources = list(start) if isinstance(start, (list, tuple)) else [start]
    loops = {acc: loop_cost_reference(pa, acc)[0] for acc in pa.accepting}
    scaled = {acc: lasso_cost((0, 0), lk, beta) for acc, lk in loops.items() if lk[1] != INF}
    if not scaled:
        raise NoAcceptingRun("no accepting state has a finite loop")
    total, _ = lex_dijkstra(bwd, list(scaled.items()), targets=sources)
    best_src = min(sources, key=lambda s: (total.get(s, INF_W), s))
    if total.get(best_src, INF_W)[1] == INF:
        raise NoAcceptingRun("no accepting state is reachable with a finite loop")
    prefix = _descend(pa, total, best_src, scaled)
    acc = prefix[-1]
    closing = {p: w for p in pa.pred[acc] for w in [pa.succ[p][acc]] if w[1] != INF}
    dist, _ = lex_dijkstra(bwd, list(closing.items()), targets=[acc])
    loop = _descend(pa, dist, acc, closing) + [acc]
    pk = path_weight(pa.succ, prefix)
    return Run(prefix, loop, acc, pk, loops[acc], lasso_cost(pk, loops[acc], beta))
