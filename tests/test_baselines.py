import math
import random

import pytest

from conftest import (bellman_ford, dijkstra_oracle, random_weighted_graph, sid,
                      solve_fresh_reference, visit_in_order_hoa)
from tlreplan import baselines
from tlreplan.baselines import (IterativeReplanner, LocalRevisionReplanner, lex_dijkstra,
                                loop_cost, solve_fresh)
from tlreplan.hoa import parse_nba
from tlreplan.planner import LTLDStarPlanner, NoAcceptingRun
from tlreplan.product import build_product, build_relaxed_product
from tlreplan.simulate import simulate
from tlreplan.product import PAEdgeChange
from tlreplan.weights import pack
from tlreplan.world import Belief, ChangeEvent, GridScenario, initial_belief, random_map, to_wts

INF = math.inf


def test_lex_dijkstra_prefers_low_violation():
    out = {0: {1: pack((1, 5)), 2: pack((0, 50))}, 1: {3: pack((0, 5))}, 2: {3: pack((0, 5))},
           3: {}}
    dist, _ = lex_dijkstra(out, [0])
    assert dist[3] == pack((0, 55))


def test_lex_dijkstra_pushes_only_on_improvement(monkeypatch, seq_nba):
    # every heap entry must strictly lower its state's tentative cost; the
    # settled distances stay those of the naive relaxation
    import tlreplan.baselines as baselines
    pushed = {}
    real_push = baselines.heappush

    def checked_push(heap, entry):
        cost, v = entry
        assert cost < pushed.get(v, INF), f"push {entry} after {pushed[v]}"
        pushed[v] = cost
        real_push(heap, entry)

    monkeypatch.setattr(baselines, "heappush", checked_push)
    for seed in range(6):
        scn = random_map(seed, 6, 0.2, allow_infeasible=True, bump_density=0.2)
        for build in (build_product, build_relaxed_product):
            pa = build(to_wts(scn, Belief(), seq_nba.universe), seq_nba)
            edges = [(u, v, w) for u in range(pa.n_states) for v, w in pa.out[u].items()]
            pushed.clear()
            dist, pops = lex_dijkstra(pa.out, list(pa.initial))
            assert pops == len(dist)
            assert dist == bellman_ford(pa.n_states, edges, list(pa.initial))
            pushed.clear()
            dist, pops = lex_dijkstra(pa.pred, [(acc, pack((0, 10 * k)))
                                                for k, acc in enumerate(pa.accepting)])
            assert pops == len(dist)
            pushed.clear()
            parents = {}
            dist, _ = lex_dijkstra(pa.out, [pa.initial[0]], targets=pa.accepting[:2],
                                   parents=parents)
            # each state's last push came through its recorded predecessor
            assert all(pushed[v] == dist[u] + pa.out[u][v] for v, u in parents.items())


def test_bellman_ford_agrees_with_dijkstra_on_random_graphs():
    for seed in range(20):
        rng = random.Random(seed)
        g = random_weighted_graph(rng, n=24, avg_degree=3.0, max_violation=2)
        dist, _ = lex_dijkstra(g.out, [0])
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
                 for v, w in pa.out[u].items()]
        sources = list(pa.initial)
        dist, _ = lex_dijkstra(pa.out, sources)
        bf = bellman_ford(pa.n_states, edges, sources)
        for s in range(pa.n_states):
            assert dist.get(s) == bf.get(s), f"seed {seed} state {s}"


def _loop_cost_by_full_search(pa, acc):
    """Full Dijkstra from acc, then the cheapest closing edge; no stopping rule.

    Also returns how many finite closing edges start at a state unreachable
    from acc.
    """
    dist, _ = lex_dijkstra(pa.out, [acc])
    best = INF
    unreachable = 0
    for p, w in pa.pred[acc].items():
        if w == INF:
            continue
        if p not in dist:
            unreachable += 1
            continue
        best = min(best, dist[p] + w)
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
        result = dijkstra_oracle(pa, [sid(pa, 0, 0)], 10)
        assert result.best_index is not None
        assert result.best_total[1] < INF
        # deleting every edge into the accepting states breaks all loops
        pa.apply_changes([PAEdgeChange(p, acc, (INF, INF))
                          for acc in pa.accepting for p in pa.pred[acc]])
        result2 = dijkstra_oracle(pa, [sid(pa, 0, 0)], 10)
        assert result2.best_index is None
        assert result2.best_total == (INF, INF)

    def test_single_accepting_self_loop(self):
        from test_planner import TinyPA
        pa = TinyPA(3, [(0, 1, (0, 10)), (1, 1, (0, 7)), (1, 2, (0, 5))],
                    accepting=[1], initial=[0])
        result = dijkstra_oracle(pa, [0], 10)
        assert result.best_index == 0
        assert result.prefix[0] == (0, 10)
        assert result.loops[0] == (0, 7)
        assert result.best_total == (0, 10 + 10 * 7)

    def test_loop_cost_short_circuits_without_predecessors(self):
        from test_planner import TinyPA
        pa = TinyPA(2, [(0, 1, (0, 10))], accepting=[0], initial=[0])
        cost, pops = loop_cost(pa, 0)
        assert cost == INF
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
        assert rep.traversed_travel == run.prefix_cost[1] + run.suffix_cost[1]

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


def test_solve_fresh_matches_reference(monkeypatch, seq_nba):
    """Pruned, shared loop searches give the reference's run, or its verdict.

    Random 6x6 maps in plain and relaxed mode, with random deletes and
    reweights, solved from single starts and from several at once. Some
    solves prune loop searches by the prefix bound, and some are infeasible.
    """
    searches = {"bounded": 0, "abandoned": 0}
    search = baselines._backward

    def counted(pa, seeds, targets, prefix=None, bound=INF, beta=1):
        result = search(pa, seeds, targets, prefix, bound, beta)
        searches["bounded"] += prefix is not None
        searches["abandoned"] += result[0] is None
        return result

    monkeypatch.setattr(baselines, "_backward", counted)
    verdicts = {"run": 0, "infeasible": 0}
    for seed in range(12):
        rng = random.Random(seed)
        k = rng.randint(2, 4)
        nba = seq_nba if seed % 3 == 0 else parse_nba(visit_in_order_hoa(k))
        names = list(nba.universe.names)
        cells = [(r, c) for r in range(6) for c in range(6)]
        rng.shuffle(cells)
        scenario = GridScenario(
            width=6, height=6, walls=set(), bumps=set(),
            obstacles={cell for cell in cells[len(names):] if rng.random() < 0.2},
            regions={name: {cell} for name, cell in zip(names, cells)}, start=cells[0])
        wts = to_wts(scenario, Belief(known_obstacles=set(scenario.obstacles)), nba.universe)
        for build in (build_product, build_relaxed_product):
            pa = build(wts, nba)
            for _ in range(3):
                for i, out in enumerate(wts.succ):
                    for j in out:
                        if rng.random() < 0.08:
                            kind = rng.choice(["delete", "reweight"])
                            weight = rng.choice([20, 50]) if kind == "reweight" else None
                            pa.apply_changes(pa.map_wts_change(ChangeEvent(kind, i, j, weight)))
                starts = [list(pa.initial)] + [[rng.randrange(pa.n_states)] for _ in range(3)]
                starts.append(rng.sample(range(pa.n_states), 3))
                for start in starts:
                    try:
                        want = solve_fresh_reference(pa, start, 10)
                    except NoAcceptingRun:
                        with pytest.raises(NoAcceptingRun):
                            solve_fresh(pa, start, 10)
                        verdicts["infeasible"] += 1
                        continue
                    got, _ = solve_fresh(pa, start, 10)
                    assert got == want, (seed, build.__name__, start)
                    verdicts["run"] += 1
    assert all(verdicts.values()), verdicts
    assert all(searches.values()), searches


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


@pytest.mark.parametrize("cls", [IterativeReplanner, LocalRevisionReplanner],
                         ids=["iterative", "local-revision"])
def test_failed_fresh_solve_reports_its_own_pops(cls):
    # prefix 0-1-2 into the loop 2 <-> 3, with a dead end 1 <-> 4; blocking
    # 1->2 while the agent is at 1 leaves no accepting run
    from test_planner import TinyPA
    from tlreplan.product import PAEdgeChange
    pa = TinyPA(5, [(0, 1, (0, 10)), (1, 2, (0, 10)), (2, 3, (0, 10)), (3, 2, (0, 10)),
                    (1, 4, (0, 10)), (4, 1, (0, 10))], accepting=[2], initial=[0])
    planner = cls(pa, beta=10)
    planner.plan_initial()
    planner.advance()
    with pytest.raises(NoAcceptingRun):
        planner.replan([PAEdgeChange(1, 2, (INF, INF))])
    with pytest.raises(NoAcceptingRun) as failed:
        solve_fresh(pa, [1], 10)
    assert failed.value.pops > 0
    revision = 0
    if cls is LocalRevisionReplanner:
        assert planner.fallbacks == 1
        revision = lex_dijkstra(pa.out, [1], targets={2})[1]
    assert planner.last_expansions == revision + failed.value.pops
