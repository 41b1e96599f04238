import math
import random

import pytest

from conftest import random_weighted_graph, visit_in_order_hoa
from tlreplan.baselines import (IterativeReplanner, LocalRevisionReplanner,
                                bellman_ford, dijkstra_oracle, lex_dijkstra,
                                loop_cost, solve_fresh)
from tlreplan.hoa import parse_nba
from tlreplan.planner import LTLDStarPlanner, NoAcceptingRun
from tlreplan.product import build_product, build_relaxed_product
from tlreplan.simulate import simulate
from tlreplan.world import Belief, ChangeEvent, GridScenario, initial_belief, random_map, to_wts
from tlreplan.weights import Weight

INF = math.inf


def test_lex_dijkstra_prefers_low_violation():
    succ = {0: [(1, (1, 5)), (2, (0, 50))], 1: [(3, (0, 5))], 2: [(3, (0, 5))], 3: []}
    dist, _ = lex_dijkstra(lambda u: succ[u], [0])
    assert dist[3] == (0, 55)


def test_bellman_ford_agrees_with_dijkstra_on_random_graphs():
    for seed in range(20):
        rng = random.Random(seed)
        g = random_weighted_graph(rng, n=24, avg_degree=3.0, max_violation=2)
        dist, _ = lex_dijkstra(lambda u: g.succ[u].items(), [0])
        bf = bellman_ford(g.n, list(g.edges()), [0])
        for s in range(g.n):
            assert dist.get(s) == bf.get(s), f"seed {seed} state {s}"


def test_bellman_ford_agrees_with_dijkstra_on_scenarios(seq_nba):
    # second, naive route for the oracle's distances on real products
    for seed in range(20):
        scn = random_map(seed, 6, 0.25, allow_infeasible=True)
        from tlreplan.world import Belief
        pa = build_product(to_wts(scn, Belief(), seq_nba.universe), seq_nba)
        edges = [(u, v, w) for u in range(pa.n_states)
                 for v, w in pa.succ[u].items()]
        sources = list(pa.initial)
        dist, _ = lex_dijkstra(lambda u: pa.succ[u].items(), sources)
        bf = bellman_ford(pa.n_states, edges, sources)
        for s in range(pa.n_states):
            assert dist.get(s) == bf.get(s), f"seed {seed} state {s}"


def _loop_cost_by_full_search(pa, acc):
    """Full Dijkstra from acc, then the cheapest closing edge; no stopping rule.

    Also returns how many finite closing edges start at a state unreachable
    from acc.
    """
    dist, _ = lex_dijkstra(lambda u: pa.succ[u].items(), [acc])
    best = (INF, INF)
    unreachable = 0
    for p in pa.pred[acc]:
        w = pa.succ[p][acc]
        if w[1] == INF:
            continue
        if p not in dist:
            unreachable += 1
            continue
        best = min(best, (dist[p][0] + w[0], dist[p][1] + w[1]))
    return best, unreachable


def _pa(seq_nba, seed=7, n=10, density=0.3):
    scn = random_map(seed, n, density, nba=seq_nba)
    belief = initial_belief(scn)
    wts = to_wts(scn, belief, seq_nba.universe)
    belief.attach(wts)
    return build_product(wts, seq_nba), scn, belief


class TestOracle:
    def test_unreachable_accepting_set_infinite(self, seq_nba):
        pa, _, _ = _pa(seq_nba)
        result = dijkstra_oracle(pa, [pa.sid(0, 0)], 10)
        assert result.best_index is not None
        assert result.best_total.travel < INF
        # deleting every edge into the accepting states breaks all loops
        for acc in pa.accepting:
            for p in pa.pred[acc]:
                pa.succ[p][acc] = (INF, INF)
        result2 = dijkstra_oracle(pa, [pa.sid(0, 0)], 10)
        assert result2.best_index is None
        assert result2.best_total == Weight(INF, INF)

    def test_single_accepting_self_loop(self):
        from test_planner import TinyPA
        pa = TinyPA(3, [(0, 1, (0, 10)), (1, 1, (0, 7)), (1, 2, (0, 5))],
                    accepting=[1], initial=[0])
        result = dijkstra_oracle(pa, [0], 10)
        assert result.best_index == 0
        assert result.prefix[0] == Weight(0, 10)
        assert result.loops[0] == Weight(0, 7)
        assert result.best_total == Weight(0, 10 + 10 * 7)

    def test_loop_cost_short_circuits_without_predecessors(self):
        from test_planner import TinyPA
        pa = TinyPA(2, [(0, 1, (0, 10))], accepting=[0], initial=[0])
        cost, pops = loop_cost(pa, 0)
        assert cost == (INF, INF)
        assert pops == 0

    def test_loop_cost_matches_full_search_from_acc(self):
        unreachable_closing = 0
        for seed in range(10):
            rng = random.Random(seed)
            k = rng.randint(2, 4)
            nba = parse_nba(visit_in_order_hoa(k))
            cells = [(r, c) for r in range(6) for c in range(6)]
            rng.shuffle(cells)
            regions, rest = cells[:k], cells[k:]
            scenario = GridScenario(
                width=6, height=6, walls=set(), bumps=set(),
                obstacles={cell for cell in rest if rng.random() < 0.25},
                regions={f"p{i}": {cell} for i, cell in enumerate(regions)}, start=regions[0])
            wts = to_wts(scenario, Belief(known_obstacles=set(scenario.obstacles)),
                         nba.universe)
            for build in (build_product, build_relaxed_product):
                pa = build(wts, nba)
                for i, out in enumerate(wts.succ):
                    for j in out:
                        if rng.random() < 0.1:
                            kind = rng.choice(["delete", "reweight"])
                            weight = rng.choice([20, 50]) if kind == "reweight" else None
                            pa.apply_changes(pa.map_wts_change(ChangeEvent(kind, i, j, weight)))
                for acc in pa.accepting:
                    expected, unreachable = _loop_cost_by_full_search(pa, acc)
                    unreachable_closing += unreachable
                    assert loop_cost(pa, acc)[0] == expected, (seed, build.__name__, acc)
            # violations on arbitrary edges, so a cheap violating cycle can precede
            # a longer clean one
            graph = random_weighted_graph(rng, n=40, avg_degree=2.5, max_violation=2)
            for acc in range(graph.n):
                assert loop_cost(graph, acc)[0] == _loop_cost_by_full_search(graph, acc)[0]
        assert unreachable_closing > 0

    def test_oracle_matches_planner_across_random_scenarios(self, seq_nba):
        for seed in range(12):
            pa, _, _ = _pa(seq_nba, seed=seed, n=10, density=0.35)
            planner = LTLDStarPlanner(pa, beta=10)
            run = planner.plan_initial()
            oracle = dijkstra_oracle(pa, list(pa.initial), 10)
            assert tuple(run.total) == tuple(oracle.best_total), f"seed {seed}"


class TestIterative:
    def test_initial_plan_identical_to_incremental(self, seq_nba):
        pa, _, _ = _pa(seq_nba)
        pa2, _, _ = _pa(seq_nba)
        run_inc = LTLDStarPlanner(pa, beta=10).plan_initial()
        it = IterativeReplanner(pa2, beta=10)
        run_it = it.plan_initial()
        assert tuple(run_it.total) == tuple(run_inc.total)
        assert run_it.prefix == run_inc.prefix
        assert run_it.suffix == run_inc.suffix

    def test_zero_events_single_plan(self, seq_nba):
        scn = random_map(3, 10, 0.0)
        rep = simulate(scn, seq_nba, algo="iterative", loops=1)
        assert rep.completed
        assert rep.events == []
        # with nothing hidden, the traversal equals the initial plan:
        # one prefix plus one unscaled loop
        from tlreplan.world import Belief
        pa = build_product(to_wts(scn, Belief(), seq_nba.universe), seq_nba)
        run, _ = solve_fresh(pa, list(pa.initial), 10)
        assert rep.traversed_travel == run.prefix_cost.travel + run.suffix_cost.travel

    def test_raises_without_accepting_run(self):
        from test_planner import TinyPA
        pa = TinyPA(2, [(0, 1, (0, 10))], accepting=[1], initial=[0])
        with pytest.raises(NoAcceptingRun):
            IterativeReplanner(pa, beta=10).plan_initial()


class TestLocalRevision:
    def test_no_event_identical_to_initial(self, seq_nba):
        scn = random_map(3, 10, 0.0)
        rep_lc = simulate(scn, seq_nba, algo="local-revision", loops=1)
        rep_pl = simulate(scn, seq_nba, algo="ltl-dstar", loops=1)
        assert rep_lc.completed and rep_lc.events == []
        assert rep_lc.traversed_travel == rep_pl.traversed_travel

    def test_simple_detour_rejoins_prefix(self):
        from test_planner import TinyPA
        # straight prefix 0-1-2-3 to accepting 3 with self-loop; a parallel
        # detour 1-4-2 exists; block edge 1->2 while the agent is at 1
        pa = TinyPA(5, [(0, 1, (0, 10)), (1, 2, (0, 10)), (2, 3, (0, 10)),
                        (3, 3, (0, 10)), (1, 4, (0, 10)), (4, 2, (0, 10))],
                    accepting=[3], initial=[0])
        lr = LocalRevisionReplanner(pa, beta=10)
        run0 = lr.plan_initial()
        assert run0.prefix == [0, 1, 2, 3]
        lr.advance()  # at state 1
        from tlreplan.product import PAEdgeChange
        mod = [PAEdgeChange(1, 2, (INF, INF))]
        run1 = lr.replan(mod)
        assert lr.fallbacks == 0
        assert run1.prefix == [1, 4, 2, 3]  # rejoined two hops later
        assert run1.suffix == run0.suffix

    def test_falls_back_when_no_rejoin_exists(self):
        from test_planner import TinyPA
        # blocking 1->2 leaves only a route that bypasses every later
        # prefix state, so revision fails and a fresh solve takes over
        pa = TinyPA(4, [(0, 1, (0, 10)), (1, 2, (0, 10)), (2, 2, (0, 10)),
                        (1, 3, (0, 10)), (3, 3, (0, 10))],
                    accepting=[2, 3], initial=[0])
        lr = LocalRevisionReplanner(pa, beta=10)
        run0 = lr.plan_initial()
        assert run0.accepting == 2
        lr.advance()
        from tlreplan.product import PAEdgeChange
        mod = [PAEdgeChange(1, 2, (INF, INF))]
        run1 = lr.replan(mod)
        assert lr.fallbacks == 1
        assert run1.accepting == 3

    def test_total_never_below_optimal(self, seq_nba):
        for seed in (1, 4, 8):
            scn = random_map(seed, 10, 0.4, nba=seq_nba)
            rep_lc = simulate(scn, seq_nba, algo="local-revision", loops=1)
            rep_pl = simulate(scn, seq_nba, algo="ltl-dstar", loops=1)
            assert rep_pl.completed and rep_lc.completed
            assert rep_pl.traversed_travel <= rep_lc.traversed_travel, f"seed {seed}"


def test_solve_fresh_infeasible():
    from test_planner import TinyPA
    pa = TinyPA(2, [(0, 1, (0, 10))], accepting=[0, 1], initial=[0])
    with pytest.raises(NoAcceptingRun):
        solve_fresh(pa, [0], 10)


def test_local_revision_event_totals_never_beat_optimal(seq_nba_anchored):
    # on each event the spliced run can tie the optimum but never beat it
    from conftest import ASSETS
    from tlreplan.world import load_scenario
    scn = load_scenario(ASSETS / "suffix_blockage.json")
    gaps = []

    def hook(kind, planner, run, mod):
        if kind == "initial" or run is None:
            return
        oracle = dijkstra_oracle(planner.pa, [planner.current_state], planner.beta)
        assert tuple(oracle.best_total) <= tuple(run.total)
        gaps.append(tuple(run.total) != tuple(oracle.best_total))

    rep = simulate(scn, seq_nba_anchored, algo="local-revision", loops=1,
                   replan_hook=hook)
    assert rep.completed
    assert gaps, "scenario should force local revisions"


@pytest.mark.parametrize("make", [
    lambda pa: LTLDStarPlanner(pa, beta=0),
    lambda pa: IterativeReplanner(pa, beta=0),
    lambda pa: LocalRevisionReplanner(pa, beta=0),
    lambda pa: solve_fresh(pa, list(pa.initial), 0),
], ids=["ltl-dstar", "iterative", "local-revision", "solve_fresh"])
def test_nonpositive_beta_rejected(make):
    from test_planner import TinyPA
    pa = TinyPA(2, [(0, 1, (0, 10)), (1, 1, (0, 7))], accepting=[1], initial=[0])
    with pytest.raises(ValueError, match="beta must be a positive integer, got 0"):
        make(pa)
