"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. The heavy criteria stay within their stated runtime budgets on a
single desktop core.
"""

import math
import random
import statistics

import pytest

from conftest import (ASSETS, Label, apply_edge_changes, chi_bits, delta, dijkstra_oracle,
                      dist_bits, enabled_bits, random_weighted_graph, replay_iterative,
                      reverse_dijkstra_cost, rho, zeta)
from tlreplan.dstar import SearchInstance
from tlreplan.hoa import parse_nba, parse_nba_file
from tlreplan.labels import APUniverse
from tlreplan.planner import LTLDStarPlanner, free_product
from tlreplan.product import build_product, build_relaxed_product
from tlreplan.simulate import simulate
from tlreplan.weights import unpack
from tlreplan.world import (Belief, GridScenario, initial_belief, load_scenario, random_map,
                            to_wts)

INF = math.inf

pytestmark = pytest.mark.slow


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {name}{suffix}")
    assert ok, f"criterion {number}: {name}{suffix}"


def _square(n: int) -> GridScenario:
    return GridScenario(
        width=n, height=n, walls=set(), obstacles=set(), bumps=set(),
        regions={"a": {(1, 1)}, "b": {(1, n - 2)},
                 "c": {(n - 2, n - 2)}, "d": {(n - 2, 1)}},
        start=(1, 1))


def test_criterion_1_product_size_identity(seq_nba, seq_nba_32, seq_nba_anchored):
    ok = True
    details = []
    # 32-state automaton against the four benchmark grid sizes
    expected = {10: 3200, 20: 12800, 50: 80000, 100: 320000}
    for n, size in expected.items():
        wts = to_wts(_square(n), Belief(), seq_nba_32.universe)
        pa = build_product(wts, seq_nba_32)
        ok &= pa.n_states == wts.n_states * seq_nba_32.n_states == size
        details.append(f"{n}x{n}:{pa.n_states}")
    # every shipped scenario against every compatible shipped automaton
    for scen_name in ("bench_map_a", "bench_map_b", "bench_map_blocked_c",
                      "ring_unique", "suffix_blockage"):
        scn = load_scenario(ASSETS / f"{scen_name}.json")
        for nba in (seq_nba, seq_nba_32, seq_nba_anchored):
            wts = to_wts(scn, Belief(), nba.universe)
            for build in (build_product, build_relaxed_product):
                pa = build(wts, nba)
                ok &= pa.n_states == wts.n_states * nba.n_states
    # the waypoint-graph shipment
    from tlreplan.wts import load_wts
    dn = parse_nba_file(ASSETS / "delivery_sequence.hoa")
    wts = load_wts(ASSETS / "delivery_6x6.json", dn.universe)
    pa = build_product(wts, dn)
    ok &= pa.n_states == wts.n_states * dn.n_states
    _report(1, "product size identity |S| = |Pi| * |Q|", ok, ", ".join(details))


def _oracle_hook(failures: list, beta: int = 10):
    def hook(kind, planner, run, mod):
        src = [planner.current_state] if kind != "initial" else list(planner.pa.initial)
        oracle = dijkstra_oracle(planner.pa, src, beta)
        if kind == "infeasible":
            if oracle.best_total != (INF, INF):
                failures.append((kind, None, oracle.best_total))
            return
        if tuple(run.total) != tuple(oracle.best_total):
            failures.append((kind, run.total, oracle.best_total))
        if not _run_well_formed(planner.pa, run):
            failures.append((kind, "malformed run", run.accepting))
        if kind == "replan" and run.prefix[0] != planner.current_state:
            failures.append((kind, "prefix does not start at the robot", run.prefix[0]))
    return hook


def _run_well_formed(pa, run) -> bool:
    if not (run.prefix and len(run.suffix) >= 2):
        return False
    if not (run.prefix[-1] == run.suffix[0] == run.suffix[-1] == run.accepting):
        return False
    for seq in (run.prefix, run.suffix):
        for a, b in zip(seq, seq[1:]):
            w = pa.succ[a].get(b)
            if w is None or w[1] == INF:
                return False
    return True


def test_criterion_2_optimality_feasible(seq_nba):
    failures = []
    inner = _oracle_hook(failures)
    checks = [0]

    def hook(*args):
        checks[0] += 1
        inner(*args)

    scenarios = 0
    for seed in range(170):
        scn = random_map(seed, 10, 0.4, nba=seq_nba)
        simulate(scn, seq_nba, beta=10, mode="plain", loops=1, replan_hook=hook)
        scenarios += 1
    for seed in range(40):
        scn = random_map(1000 + seed, 20, 0.4, nba=seq_nba)
        simulate(scn, seq_nba, beta=10, mode="plain", loops=1, replan_hook=hook)
        scenarios += 1
    _report(2, "optimal totals equal the oracle after init and every replan",
            not failures and scenarios >= 200,
            f"{scenarios} scenarios, {checks[0]} oracle checks, {len(failures)} mismatches")


def test_criterion_3_optimality_relaxed(seq_nba):
    failures = []
    hook = _oracle_hook(failures)
    checks = 0
    scenarios = 0
    zero_violation_ok = True

    # mixed pool: high-density maps, many strictly infeasible
    for seed in range(44):
        scn = random_map(seed, 8, 0.45, allow_infeasible=True)
        rep = simulate(scn, seq_nba, beta=10, mode="relaxed", loops=1,
                       replan_hook=hook)
        scenarios += 1
        checks += 1 + len(rep.events)
    # plain-feasible maps: relaxed planning must return violation 0 whenever
    # a violation-free run exists from the queried state (always at the start)
    def zero_hook(kind, planner, run, mod):
        nonlocal zero_violation_ok
        hook(kind, planner, run, mod)
        if run is not None:
            src = [planner.current_state] if kind != "initial" else list(planner.pa.initial)
            oracle = dijkstra_oracle(planner.pa, src, planner.beta)
            if oracle.best_total[0] == 0:
                zero_violation_ok &= run.total[0] == 0

    for seed in range(5):
        scn = random_map(seed, 10, 0.3, nba=seq_nba)
        rep = simulate(scn, seq_nba, beta=10, mode="relaxed", loops=1,
                       replan_hook=zero_hook)
        scenarios += 1
        checks += 1 + len(rep.events)
        zero_violation_ok &= rep.initial_violation == 0
    # the shipped sealed-region map
    scn = load_scenario(ASSETS / "bench_map_blocked_c.json")
    rep = simulate(scn, seq_nba, beta=10, mode="relaxed", loops=1, replan_hook=hook)
    scenarios += 1
    checks += 1 + len(rep.events)
    blocked_ok = rep.completed and rep.traversed_violation > 0

    _report(3, "relaxed planner matches the relaxed-product oracle exactly",
            not failures and zero_violation_ok and blocked_ok and scenarios >= 50,
            f"{scenarios} scenarios, {checks} checks, {len(failures)} mismatches, "
            f"blocked-c violation>0: {blocked_ok}")


def test_criterion_4_incremental_speedup(seq_nba):
    scn = random_map(42, 50, 0.4, nba=seq_nba)
    rep = simulate(scn, seq_nba, beta=10, mode="plain", loops=1, record=True)
    replay = replay_iterative(scn, seq_nba, rep.recorded, beta=10)
    events = len(rep.events)
    med_ltl = statistics.median(e.wall_time_ns for e in rep.events)
    med_iter = statistics.median(e.wall_time_ns for e in replay.events)
    ratio = med_iter / med_ltl
    totals_equal = all(
        (a.total_violation, a.total_travel) == (b.total_violation, b.total_travel)
        for a, b in zip(rep.events, replay.events))
    _report(4, "median replan time at least 10x faster than from-scratch Dijkstra",
            events >= 30 and ratio >= 10.0 and totals_equal,
            f"{events} events, median {med_ltl/1e6:.2f}ms vs {med_iter/1e6:.2f}ms, "
            f"speedup {ratio:.0f}x, totals equal: {totals_equal}")


SWEEP_SEEDS = (10, 11, 18)


def test_criterion_5_strategy_dominance(seq_nba_anchored):
    ok = True
    details = []
    for size in (10, 20, 50):
        for seed in SWEEP_SEEDS:
            scn = random_map(seed, size, 0.4, nba=seq_nba_anchored)
            r_ltl = simulate(scn, seq_nba_anchored, mode="plain",
                             algo="ltl-dstar", loops=1)
            r_loc = simulate(scn, seq_nba_anchored, mode="plain",
                             algo="local-revision", loops=1)
            good = (r_ltl.completed and r_loc.completed and
                    r_ltl.traversed_travel <= r_loc.traversed_travel)
            ok &= good
            if not good:
                details.append(f"{size}/{seed}: ltl={r_ltl.traversed_travel} "
                               f"local={r_loc.traversed_travel}")
    # strict win on the shipped suffix-phase blockage scenario
    scn = load_scenario(ASSETS / "suffix_blockage.json")
    r_ltl = simulate(scn, seq_nba_anchored, mode="plain", algo="ltl-dstar", loops=1)
    r_loc = simulate(scn, seq_nba_anchored, mode="plain", algo="local-revision", loops=1)
    suffix_events = sum(1 for e in r_ltl.events if e.phase == "suffix")
    strict = (r_ltl.completed and r_loc.completed and suffix_events > 0 and
              r_ltl.traversed_travel < r_loc.traversed_travel)
    detail = (f"sweep 3 seeds x 3 sizes; blockage: ltl={r_ltl.traversed_travel} < "
              f"local={r_loc.traversed_travel} with {suffix_events} suffix-phase events")
    _report(5, "never costlier than local revision; strictly better on suffix blockage",
            ok and strict, detail + ("; " + "; ".join(details) if details else ""))


def test_criterion_6_dstar_property_suite(seq_nba):
    # heuristic consistency on every shipped grid scenario
    consistency_ok = True
    for name in ("bench_map_a", "bench_map_b", "bench_map_blocked_c",
                 "ring_unique", "suffix_blockage"):
        scn = load_scenario(ASSETS / f"{name}.json")
        belief = initial_belief(scn)
        wts = to_wts(scn, belief, seq_nba.universe)
        pa = build_product(wts, seq_nba)
        h = free_product(pa).bound
        start = pa.initial[0]
        for u in range(pa.n_states):
            hu = h(start, u)
            for v, (wv, wt) in pa.succ[u].items():
                if wt == INF:
                    continue
                if h(start, v) > hu + wt:
                    consistency_ok = False

    # zero-violation-first expansion on random relaxed instances
    order_ok = True
    for seed in range(100):
        rng = random.Random(5000 + seed)
        g = random_weighted_graph(rng, n=40, avg_degree=3.0, max_violation=3,
                                  zero_violation_chain=True)
        inst = SearchInstance(g, start=0, goal=39, log_pops=True)
        inst.compute_shortest_path()
        order_ok &= unpack(inst.cost_from())[0] == 0
        # the key's violation is 0 for every expanded state
        order_ok &= all(unpack(k2)[0] == 0 for _k1, k2, _ in inst.pop_log)

    # interleaved mutation/compute equals fresh search
    interleave_ok = True
    for seed in range(100):
        rng = random.Random(6000 + seed)
        g = random_weighted_graph(rng, n=64, avg_degree=3.5, max_violation=2)
        inst = SearchInstance(g, start=0, goal=63)
        inst.compute_shortest_path()
        edges = [(u, v) for u, v, _ in g.edges()]
        for _ in range(rng.randint(2, 5)):
            batch = []
            for _ in range(rng.randint(1, 4)):
                u, v = rng.choice(edges)
                w = (0, INF) if rng.random() < 0.4 else \
                    (rng.randint(0, 2), rng.randint(1, 9) * 10)
                batch.append((u, v, w))
            apply_edge_changes(inst, batch)
            inst.compute_shortest_path()
        oracle = reverse_dijkstra_cost(g, 63)
        interleave_ok &= inst.cost_from() == oracle.get(0, INF)

    _report(6, "heuristic consistency, violation-first expansion, repair soundness",
            consistency_ok and order_ok and interleave_ok,
            f"consistency={consistency_ok} order={order_ok} repair={interleave_ok}")


def _equivalent_guard_text(rng, guard_text: str) -> str:
    """Random semantics-preserving rewrite of a guard expression."""
    choice = rng.randrange(3)
    if choice == 0:
        return f"!(!({guard_text}))"
    if choice == 1:
        return f"({guard_text}) & ({guard_text})"
    return f"({guard_text}) | ({guard_text})"


def _random_guard_text(rng, n_props, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return str(rng.randrange(n_props))
    op = rng.choice(["&", "|", "!"])
    if op == "!":
        return f"!({_random_guard_text(rng, n_props, depth - 1)})"
    left = _random_guard_text(rng, n_props, depth - 1)
    right = _random_guard_text(rng, n_props, depth - 1)
    return f"({left}) {op} ({right})"


def _nba_with_guard(guard_text, n_props):
    names = " ".join(f'"p{i}"' for i in range(n_props))
    return parse_nba(f"""HOA: v1
States: 2
Start: 0
AP: {n_props} {names}
acc-name: Buchi
Acceptance: 1 Inf(0)
--BODY--
State: 0
[{guard_text}] 1
State: 1 {{0}}
[t] 1
--END--
""")


def test_criterion_7_violation_metric_suite():
    # metric axioms, exhaustively at r = 10 against the componentwise oracle
    u10 = APUniverse(tuple(f"p{i}" for i in range(10)))
    vectors = {b: zeta(Label(u10, b)) for b in range(1 << 10)}
    metric_ok = True
    for x in range(1 << 10):
        zx = vectors[x]
        lx = Label(u10, x)
        for y in range(x, 1 << 10):
            expected = sum(abs(a - b) for a, b in zip(zx, vectors[y]))
            r = rho(lx, Label(u10, y))
            if r != expected or r != (x ^ y).bit_count():
                metric_ok = False
        if not metric_ok:
            break
    # triangle inequality on random triples (x-check beyond popcount identity)
    rng = random.Random(99)
    for _ in range(3000):
        x, y, z = (Label(u10, rng.randrange(1 << 10)) for _ in range(3))
        if rho(x, z) > rho(x, y) + rho(y, z):
            metric_ok = False

    # representation invariance of dist over 50 equivalent guard pairs
    invariance_ok = True
    for i in range(50):
        rng = random.Random(7000 + i)
        n_props = rng.randint(2, 5)
        base = _random_guard_text(rng, n_props)
        variant = _equivalent_guard_text(rng, base)
        nba_a = _nba_with_guard(base, n_props)
        nba_b = _nba_with_guard(variant, n_props)
        enabling = chi_bits(base, n_props)
        if not enabled_bits(nba_a, 0, 1) == enabled_bits(nba_b, 0, 1) == enabling:
            invariance_ok = False
            continue
        if not enabling:
            continue
        for bits in range(1 << n_props):
            if dist_bits(nba_a, 0, 1, bits) != dist_bits(nba_b, 0, 1, bits):
                invariance_ok = False

    # chi by evaluating the guard text equals direct transition-function probing
    chi_ok = True
    for i in range(30):
        rng = random.Random(8000 + i)
        n_props = rng.randint(2, 6)
        text = _random_guard_text(rng, n_props)
        nba = _nba_with_guard(text, n_props)
        via_delta = {b for b in range(1 << n_props) if 1 in delta(nba, 0, b)}
        chi_ok &= set(chi_bits(text, n_props)) == via_delta

    _report(7, "violation metric axioms, dist invariance, chi enumeration",
            metric_ok and invariance_ok and chi_ok,
            f"metric={metric_ok} invariance={invariance_ok} chi={chi_ok}")
