import copy
import itertools
import math
import random
from types import SimpleNamespace

import pytest
from conftest import ASSETS, dijkstra_oracle, sid

from tlreplan.baselines import lex_dijkstra, loop_cost, solve_fresh
from tlreplan.hoa import parse_nba, parse_nba_file
from tlreplan.planner import (PREFIX, REPAIR_SHARE, SUFFIX, EdgeOutsideGridError,
                              LTLDStarPlanner, NoAcceptingRun, ReweightBelowStepError,
                              SuffixRecord, check_beta, free_product)
from tlreplan.product import (PAEdgeChange, ProductAutomaton, WeightView, build_product,
                              build_relaxed_product)
from tlreplan.simulate import simulate
from tlreplan.world import (Belief, ChangeEvent, initial_belief, load_scenario, random_map,
                            sense, to_wts)
from tlreplan.weights import BETA_CAP, KM_CAP, WeightRangeError, pack, unpack
from tlreplan.wts import load_wts
from tlreplan.wts import WTS

INF = math.inf


class TinyPA:
    """Hand-built product stand-in for exercising the planner mechanics.

    Edges are given with (violation, travel) weights and stored packed, as
    in a product: by tail in `out`, by head in `pred`, viewed as tuples in
    `succ`.
    """

    def __init__(self, n, edges, accepting, initial):
        self.n_states = n
        self.out = [dict() for _ in range(n)]
        self.pred = [dict() for _ in range(n)]
        self.succ = WeightView(self.out)
        self.apply_changes([PAEdgeChange(u, v, w) for u, v, w in edges])
        self.accepting = list(accepting)
        self.initial = list(initial)
        self.mode = "plain"
        self.wts = SimpleNamespace(coords=None)  # no grid, so no free product

    apply_changes = ProductAutomaton.apply_changes


def brute_force_min_cycle(pa, acc, max_len=8):
    """Enumerate simple cycles through acc; exact reference for loop costs."""
    best = (INF, INF)
    nodes = [s for s in range(pa.n_states)]
    def dfs(state, cost, visited):
        nonlocal best
        for v, (wv, wt) in pa.succ[state].items():
            if wt == INF:
                continue
            c = (cost[0] + wv, cost[1] + wt)
            if v == acc:
                if c < best:
                    best = c
            elif v not in visited and len(visited) < max_len:
                dfs(v, c, visited | {v})
    dfs(acc, (0, 0), {acc})
    return best


def loop_record(planner, acc):
    """The record `plan_initial` builds for `acc`: stale if a finite edge enters, then solved."""
    rec = SuffixRecord(acc, stale=any(w != INF for w in planner.pa.pred[acc].values()))
    planner.repair_loop(rec)
    return rec


def repair_with(planner, rec, mod):
    """Queue a change set in one loop search and repair it, as replan does."""
    planner.mark_stale(rec, {ch.u for ch in mod})
    return planner.repair_loop(rec)


def test_suffix_self_loop():
    pa = TinyPA(2, [(0, 0, (0, 10)), (0, 1, (0, 10)), (1, 0, (0, 10))],
                accepting=[0], initial=[0])
    planner = LTLDStarPlanner(pa, beta=10)
    rec = loop_record(planner, 0)
    assert rec.cost == pack((0, 10))
    assert rec.get_loop() == [0, 0]


def test_suffix_no_cycle_is_infinite():
    pa = TinyPA(2, [(0, 1, (0, 10))], accepting=[0], initial=[0])
    planner = LTLDStarPlanner(pa, beta=10)
    rec = loop_record(planner, 0)
    assert rec.cost == INF
    assert rec.get_loop() == []


def test_suffix_three_cycle_matches_brute_force():
    pa = TinyPA(3, [(0, 1, (0, 10)), (1, 2, (0, 10)), (2, 0, (0, 30))],
                accepting=[0], initial=[0])
    assert brute_force_min_cycle(pa, 0) == (0, 50)
    planner = LTLDStarPlanner(pa, beta=10)
    rec = loop_record(planner, 0)
    assert rec.cost == pack((0, 50))
    assert rec.get_loop() == [0, 1, 2, 0]


def test_suffix_replan_empty_mod_no_expansions():
    pa = TinyPA(3, [(0, 1, (0, 10)), (1, 2, (0, 10)), (2, 0, (0, 30))],
                accepting=[0], initial=[0])
    planner = LTLDStarPlanner(pa, beta=10)
    rec = loop_record(planner, 0)
    before = rec.instance.expansions
    assert not planner.repair_loop(rec)  # a fresh record is left alone
    changed = repair_with(planner, rec, [])
    assert not changed
    assert rec.instance.expansions == before


def test_suffix_replan_deleted_cycle_goes_infinite():
    pa = TinyPA(3, [(0, 1, (0, 10)), (1, 2, (0, 10)), (2, 0, (0, 30))],
                accepting=[0], initial=[0])
    planner = LTLDStarPlanner(pa, beta=10)
    rec = loop_record(planner, 0)
    mod = [PAEdgeChange(1, 2, (INF, INF))]
    pa.apply_changes(mod)
    assert repair_with(planner, rec, mod)
    assert rec.cost == INF
    assert rec.get_loop() == []


def test_suffix_replan_switches_to_alternate_cycle():
    # two cycles through 0: via 1 (cost 20, bumpable) and via 2+3 (cost 70)
    pa = TinyPA(4, [(0, 1, (0, 10)), (1, 0, (0, 10)),
                    (0, 2, (0, 20)), (2, 3, (0, 20)), (3, 0, (0, 30))],
                accepting=[0], initial=[0])
    planner = LTLDStarPlanner(pa, beta=10)
    rec = loop_record(planner, 0)
    assert rec.cost == pack((0, 20))
    mod = [PAEdgeChange(0, 1, (0, 80))]  # bump one edge of the cheap cycle
    pa.apply_changes(mod)
    repair_with(planner, rec, mod)
    assert rec.cost == pack((0, 70))
    assert brute_force_min_cycle(pa, 0) == (0, 70)
    assert rec.get_loop() == [0, 2, 3, 0]


def _degenerate_nba():
    return parse_nba("""HOA: v1
States: 1
Start: 0
AP: 1 "a"
acc-name: Buchi
Acceptance: 1 Inf(0)
--BODY--
State: 0 {0}
[t] 0
--END--
""")


def test_plan_initial_degenerate_single_state_nba():
    nba = _degenerate_nba()
    scn = random_map(0, 5, 0.0)
    belief = Belief()
    wts = to_wts(scn, belief, nba.universe)
    pa = build_product(wts, nba)
    planner = LTLDStarPlanner(pa, beta=10)
    run = planner.plan_initial()
    assert len(run.prefix) == 1
    assert run.prefix_cost == (0, 0)
    assert run.suffix_cost == (0, 20)  # cheapest two-step shuttle
    assert run.total == (0, 200)
    assert pack(run.total) == pack(run.prefix_cost) + 10 * pack(run.suffix_cost)


def test_plan_initial_matches_oracle_on_benchmark(seq_nba):
    scn = random_map(9, 10, 0.3, nba=seq_nba)
    belief = initial_belief(scn)
    wts = to_wts(scn, belief, seq_nba.universe)
    belief.attach(wts)
    pa = build_product(wts, seq_nba)
    planner = LTLDStarPlanner(pa, beta=10)
    run = planner.plan_initial()
    oracle = dijkstra_oracle(pa, list(pa.initial), 10)
    assert tuple(run.total) == tuple(oracle.best_total)
    assert run.total[0] == 0
    assert pack(run.total) == pack(run.prefix_cost) + 10 * pack(run.suffix_cost)


def test_plan_initial_no_accepting_run_raises():
    pa = TinyPA(2, [(0, 1, (0, 10))], accepting=[1], initial=[0])
    planner = LTLDStarPlanner(pa, beta=10)
    with pytest.raises(NoAcceptingRun):
        planner.plan_initial()


def test_plan_relaxed_when_plain_infeasible(seq_nba):
    scn = random_map(101, 8, 0.0)
    # seal region c behind believed obstacles so the plain product has no run
    (cr, cc) = next(iter(scn.regions["c"]))
    ring = {(cr + dr, cc + dc) for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0))}
    ring = {cell for cell in ring if 0 <= cell[0] < 8 and 0 <= cell[1] < 8}
    belief = Belief(known_obstacles=ring)
    wts = to_wts(scn, belief, seq_nba.universe)
    plain = build_product(wts, seq_nba)
    with pytest.raises(NoAcceptingRun):
        LTLDStarPlanner(plain, beta=10).plan_initial()
    relaxed = build_relaxed_product(wts, seq_nba)
    run = LTLDStarPlanner(relaxed, beta=10).plan_initial()
    assert run.total[0] > 0
    oracle = dijkstra_oracle(relaxed, list(relaxed.initial), 10)
    assert tuple(run.total) == tuple(oracle.best_total)
    assert pack(run.total) == pack(run.prefix_cost) + 10 * pack(run.suffix_cost)


def test_run_well_formed_and_phase_tracking(seq_nba):
    scn = random_map(4, 10, 0.3, nba=seq_nba)
    belief = initial_belief(scn)
    wts = to_wts(scn, belief, seq_nba.universe)
    belief.attach(wts)
    pa = build_product(wts, seq_nba)
    planner = LTLDStarPlanner(pa, beta=10)
    run = planner.plan_initial()
    assert run.prefix[-1] == run.suffix[0] == run.suffix[-1] == run.accepting
    for a, b in zip(run.prefix, run.prefix[1:]):
        assert b in pa.succ[a]
    for a, b in zip(run.suffix, run.suffix[1:]):
        assert b in pa.succ[a]
    assert planner.phase == "prefix"
    for _ in range(len(run.prefix) - 1):
        planner.advance()
    assert planner.current_state == run.accepting
    assert planner.phase == "suffix"


def test_replan_after_obstacle_matches_fresh_plan(seq_nba):
    scn = random_map(12, 10, 0.35, nba=seq_nba)
    belief = initial_belief(scn)
    wts = to_wts(scn, belief, seq_nba.universe)
    belief.attach(wts)
    pa = build_product(wts, seq_nba)
    planner = LTLDStarPlanner(pa, beta=10)
    planner.plan_initial()
    # walk until the first sensing event fires
    coords = pa.wts.coords
    mod = []
    for _ in range(200):
        planner.advance()
        cell = coords[planner.current_state // pa.nq]
        events = sense(scn, belief, cell)
        if events:
            for ev in events:
                mod.extend(pa.map_wts_change(ev))
            break
    assert mod, "scenario produced no sensing event"
    run = planner.replan(mod)
    oracle = dijkstra_oracle(pa, [planner.current_state], 10)
    assert tuple(run.total) == tuple(oracle.best_total)
    assert run.prefix[0] == planner.current_state


def test_replan_untouched_mod_is_cheap(seq_nba):
    scn = random_map(3, 10, 0.0)
    belief = Belief()
    wts = to_wts(scn, belief, seq_nba.universe)
    pa = build_product(wts, seq_nba)
    planner = LTLDStarPlanner(pa, beta=10)
    run0 = planner.plan_initial()
    initial_expansions = planner.last_expansions
    # rewrite an edge far from every optimal route with its own weight
    far = next(s for s in range(pa.n_states)
               if pa.succ[s] and s not in set(run0.states()))
    v = next(iter(pa.succ[far]))
    mod = [PAEdgeChange(far, v, pa.succ[far][v])]
    pa.apply_changes(mod)
    run1 = planner.replan(mod)
    assert tuple(run1.total) == tuple(run0.total)
    assert planner.last_expansions < max(1, initial_expansions)


def test_suffix_independence(seq_nba):
    scn = random_map(6, 10, 0.2, nba=seq_nba)
    belief = initial_belief(scn)
    wts = to_wts(scn, belief, seq_nba.universe)
    belief.attach(wts)
    pa = build_product(wts, seq_nba)
    planner = LTLDStarPlanner(pa, beta=10)
    planner.plan_initial()
    costs_before = [rec.cost for rec in planner.records]
    # delete one outgoing edge of a corner far from the loop
    pi = wts.n_states - 1
    target = next(iter(wts.succ[pi]))
    mod = [PAEdgeChange(sid(pa, pi, 0), sid(pa, target, 0), (INF, INF))]
    pa.apply_changes(mod)
    for rec in planner.records:
        if rec.instance is not None:  # a deletion gives no other record a search
            repair_with(planner, rec, mod)
    for rec, before in zip(planner.records, costs_before):
        if rec.cost != before:
            # only loops actually using that edge may move; clean ones stay
            assert before != INF


def test_beta_cap_boundary(seq_nba):
    check_beta(1)
    check_beta(BETA_CAP - 1)
    for bad in (BETA_CAP, 2.5, 10.0, True, "10"):
        with pytest.raises(WeightRangeError):
            check_beta(bad)
    with pytest.raises(WeightRangeError):
        simulate(load_scenario(ASSETS / "bench_map_a.json"), seq_nba, beta=2.5)


def test_beta_validation():
    pa = TinyPA(1, [], accepting=[0], initial=[0])
    with pytest.raises(ValueError):
        LTLDStarPlanner(pa, beta=0)


def _lazy_case(seq_nba, seed, relaxed):
    """A small grid with one wall, so that an `add` later creates an edge.

    Region a, where runs accept, gets two extra cells: with one accepting
    cell, the only loop that matters belongs to the current run, which is
    never left stale. A third of the cells start as known slow cells, so a
    later reweight can drop loop costs below any earlier value without
    going under the grid heuristic's step cost.
    """
    rng = random.Random(seed)
    scn = random_map(seed, 6, 0.15, nba=seq_nba)
    labeled = set().union(*scn.regions.values())
    free = [c for c in scn.cells() if c not in scn.obstacles]
    scn.regions["a"] |= set(rng.sample([c for c in free if c not in labeled], 2))
    cell = rng.choice(free)
    nb = rng.choice([c for c in scn.neighbors(cell) if c not in scn.obstacles])
    scn.walls = {frozenset((cell, nb))}
    belief = initial_belief(scn)
    belief.known_bumps |= set(rng.sample(free, len(free) // 3))
    wts = to_wts(scn, belief, seq_nba.universe)
    belief.attach(wts)
    pa = (build_relaxed_product if relaxed else build_product)(wts, seq_nba)
    return rng, pa, belief.cell_index[cell], belief.cell_index[nb]


def _check_goal_edges(planner):
    """Each loop search reached every tail into its accepting state, and once
    repaired its goal edges carry the product's weights into that state."""
    pa = planner.pa
    for rec in planner.records:
        if rec.instance is None:
            continue
        into = pa.pred[rec.acc]
        assert into.keys() <= rec.instance.reached, rec.acc
        if not rec.stale:
            extra = rec.instance.graph.extra_succ
            assert {u: extra[u][planner.goal] for u in into} == into, rec.acc


@pytest.mark.parametrize("relaxed", [False, True], ids=["plain", "relaxed"])
@pytest.mark.parametrize("seed", [2, 3, 8, 11, 15])
def test_lazy_repair_matches_fresh_solve(seq_nba, seed, relaxed):
    """Raises leave loops stale; a later weight drop and a created edge repair them all.

    The last three batches come after the robot walked into the loop, so
    the suffix phase is covered too. After every replan the run equals a
    from-scratch solve, the chosen loop is fresh, fresh loop costs are
    exact and stale ones lower bounds. At least one repair passes its
    budget and is solved again from scratch.
    """
    rng, pa, wall_i, wall_j = _lazy_case(seq_nba, seed, relaxed)
    wts = pa.wts
    travel = {(i, j): d for i, j, d in wts.edges()}
    planner = LTLDStarPlanner(pa, beta=10)
    planner.plan_initial()
    _check_goal_edges(planner)
    seen = {"stale": False, "lowered": False, "created": False, "suffix": False,
            "abandoned": False}

    def raise_batch():
        on_run = {s // pa.nq for s in planner.run.states()}
        near = [e for e in travel if e[1] in on_run and travel[e] != INF]
        pool = near if near and rng.random() < 0.7 else [e for e in travel if travel[e] != INF]
        events = []
        for i, j in rng.sample(pool, min(len(pool), rng.randint(1, 3))):
            if rng.random() < 0.3:
                travel[i, j] = INF
                events.append(ChangeEvent("delete", i, j))
            else:
                travel[i, j] += 40
                events.append(ChangeEvent("reweight", i, j, travel[i, j]))
        return events

    def lower_batch():
        slow = [e for e in travel if travel[e] != 10]
        for e in slow:
            travel[e] = 10
        return [ChangeEvent("reweight", i, j, 10) for i, j in slow]

    def add_batch():
        assert not wts.has_edge(wall_i, wall_j)
        return [ChangeEvent("add", wall_i, wall_j, 10), ChangeEvent("add", wall_j, wall_i, 10)]

    script = [raise_batch] * 5 + [lower_batch] + [raise_batch] * 2 + [add_batch, raise_batch]
    script = [(batch, False) for batch in script] + \
        [(raise_batch, True), (lower_batch, True), (raise_batch, True)]
    for make_batch, into_loop in script:
        for _ in range(rng.randint(0, 3)):
            planner.advance()
        while into_loop and planner.phase != SUFFIX:
            planner.advance()
        seen["suffix"] |= planner.phase == SUFFIX
        if make_batch is lower_batch and not into_loop:
            seen["lowered"] = any(rec.stale for rec in planner.records)
        mod = [ch for ev in make_batch() for ch in pa.map_wts_change(ev)]
        if make_batch is add_batch:
            seen["created"] = any(ch.v not in pa.out[ch.u] for ch in mod)
        start = planner.current_state
        searches = [rec.instance for rec in planner.records]
        try:
            run = planner.replan(mod)
        except NoAcceptingRun:
            with pytest.raises(NoAcceptingRun):
                solve_fresh(copy.deepcopy(pa), [start], 10)
            pytest.fail(f"seed {seed} turned infeasible; pick a seed that keeps a run")
        fresh, _ = solve_fresh(copy.deepcopy(pa), [start], 10)
        assert (run.prefix, run.suffix, run.accepting, run.total) == \
            (fresh.prefix, fresh.suffix, fresh.accepting, fresh.total)
        _check_goal_edges(planner)
        for rec in planner.records:
            exact, _ = loop_cost(pa, rec.acc)
            if rec.stale:
                assert rec.acc != run.accepting
                assert rec.cost <= exact
            else:
                assert rec.cost == exact
        seen["stale"] |= any(rec.stale for rec in planner.records)
        # a repair past its budget leaves the record with a new search
        seen["abandoned"] |= any(old is not None and rec.instance is not old
                                 for rec, old in zip(planner.records, searches))
        # every live loop search is focused by its free-product distance
        assert all(rec.h is not None for rec in planner.records if rec.cost != INF)
    assert seen == {"stale": True, "lowered": True, "created": True, "suffix": True,
                    "abandoned": True}


@pytest.mark.parametrize("relaxed", [False, True], ids=["plain", "relaxed"])
def test_deferred_rescans_accumulate_until_a_lowering_batch(relaxed):
    """A stale loop search queues the tails of every raise-only batch that reaches it.

    `eventually_a` on a shipped 10x10 map, every bump known: each cell in
    state q1 is accepting, and each loop search is local. The loop at the
    walled cell (4, 0) stays stale across three raise-only batches: the
    edges at the cell, then edges its search never reached (a skip), then
    edges one step out. A weight drop elsewhere, and later a created edge
    through the wall, repair every record from its accumulated tails: each
    loop cost is then exact, and every run equals a from-scratch solve.
    """
    nba = parse_nba_file(ASSETS / "eventually_a.hoa")
    scn = load_scenario(ASSETS / "bench_map_a.json")
    belief = initial_belief(scn)
    belief.known_bumps |= scn.bumps
    wts = to_wts(scn, belief, nba.universe)
    belief.attach(wts)
    pa = (build_relaxed_product if relaxed else build_product)(wts, nba)
    planner = LTLDStarPlanner(pa, beta=10)
    planner.plan_initial()
    cell = belief.cell_index
    target, wall_nb = cell[4, 0], cell[5, 0]
    rec = planner._rec_by_acc[sid(pa, target, 1)]
    assert rec.acc != planner.run.accepting

    def replan(events):
        mod = [ch for ev in events for ch in pa.map_wts_change(ev)]
        start = planner.current_state
        run = planner.replan(mod)
        fresh, _ = solve_fresh(copy.deepcopy(pa), [start], 10)
        assert (run.prefix, run.suffix, run.accepting, run.total) == \
            (fresh.prefix, fresh.suffix, fresh.accepting, fresh.total)
        return {ch.u for ch in mod}

    def raised(edges):
        return [ChangeEvent("reweight", i, j, wts.succ[i][j] + 40) for i, j in edges]

    def raise_batches():
        near = set(wts.succ[target])
        at_target = [(i, target) for i in near] + [(target, j) for j in near]
        tails = replan(raised(at_target))
        assert rec.stale and tails <= rec.pending
        reached = {s // pa.nq for s in rec.instance.reached if s < pa.n_states}
        far = next((i, j) for i, j, d in wts.edges() if i not in reached and d != INF)
        tails = replan(raised([far]))
        assert rec.stale and not tails <= rec.pending  # skipped
        one_out = [(i, j) for i in near for j in wts.succ[i] if j != target]
        tails = replan(raised(one_out))
        assert rec.stale and tails <= rec.pending

    def check_all_repaired():
        for r in planner.records:
            assert (r.stale, r.pending, r.force) == (False, set(), False)
            assert r.cost == loop_cost(pa, r.acc)[0]

    raise_batches()
    bump = cell[1, 5]
    replan([ChangeEvent("reweight", i, bump, scn.move_cost) for i in range(wts.n_states)
            if wts.has_edge(i, bump)])
    check_all_repaired()
    raise_batches()
    replan([ChangeEvent("add", target, wall_nb, scn.move_cost),
            ChangeEvent("add", wall_nb, target, scn.move_cost)])
    check_all_repaired()
    assert rec.cost == pack((0, 2 * scn.move_cost))  # the new edge closes the cheapest loop


def _unreachable_a():
    """`eventually_a` over 0 <-> 1 and 2 -> 1: the one `a` state, 2, has no way in."""
    nba = parse_nba_file(ASSETS / "eventually_a.hoa")
    wts = WTS(nba.universe, 3, [0, 0, 1], [0], [{1: 10}, {0: 10}, {1: 10}])
    pa = build_product(wts, nba)
    planner = LTLDStarPlanner(pa, beta=10)
    with pytest.raises(NoAcceptingRun):
        planner.plan_initial()
    return pa, planner


def test_raise_only_replan_after_infeasible_initial_plan_raises_no_accepting_run():
    pa, planner = _unreachable_a()
    with pytest.raises(NoAcceptingRun):
        planner.replan(pa.map_wts_change(ChangeEvent("delete", 0, 1)))


def test_add_after_infeasible_initial_plan_finds_the_fresh_run():
    pa, planner = _unreachable_a()
    run = planner.replan(pa.map_wts_change(ChangeEvent("add", 1, 2, 10)))
    fresh, _ = solve_fresh(copy.deepcopy(pa), pa.initial, 10)
    assert (run.prefix, run.suffix, run.accepting, run.total) == \
        (fresh.prefix, fresh.suffix, fresh.accepting, fresh.total)


@pytest.mark.parametrize("relaxed", [False, True], ids=["plain", "relaxed"])
@pytest.mark.parametrize("seed", [3, 8, 14])
def test_reweight_below_heuristic_step_is_rejected(seq_nba, seed, relaxed):
    """A reweight under the grid heuristic's step raises before the product is written.

    The planner stays usable: a reweight down to the step itself is accepted
    and gives the from-scratch optimum.
    """
    _rng, pa, _, _ = _lazy_case(seq_nba, seed, relaxed)
    step = free_product(pa).step
    planner = LTLDStarPlanner(pa, beta=10)
    planner.plan_initial()
    states = planner.run.states()
    i, j = states[0] // pa.nq, states[1] // pa.nq
    before = (copy.deepcopy(pa.out), copy.deepcopy(pa.pred))
    with pytest.raises(ReweightBelowStepError, match="below the heuristic's step"):
        planner.replan(pa.map_wts_change(ChangeEvent("reweight", i, j, 1)))
    assert (pa.out, pa.pred) == before
    # every edge down to the step: the cheapest admissible drop
    mod = [ch for a, b, d in pa.wts.edges() if d not in (INF, step)
           for ch in pa.map_wts_change(ChangeEvent("reweight", a, b, step))]
    start = planner.current_state
    run = planner.replan(mod)
    fresh, _ = solve_fresh(copy.deepcopy(pa), [start], 10)
    assert (run.prefix, run.suffix, run.total) == (fresh.prefix, fresh.suffix, fresh.total)


def _ring_planner(seq_nba, relaxed, phase):
    """`ring_unique`, planned and walked one step into `phase`."""
    scn = load_scenario(ASSETS / "ring_unique.json")
    belief = initial_belief(scn)
    wts = to_wts(scn, belief, seq_nba.universe)
    belief.attach(wts)
    pa = (build_relaxed_product if relaxed else build_product)(wts, seq_nba)
    planner = LTLDStarPlanner(pa, beta=10)
    run = planner.plan_initial()
    for _ in range(1 if phase == PREFIX else len(run.prefix)):
        planner.advance()
    assert planner.phase == phase
    return pa, planner


def _raise_and_check(planner, edges):
    """Raise each WTS edge by 40; the new run equals a from-scratch solve."""
    pa = planner.pa
    wts = pa.wts
    mod = [ch for i, j in edges
           for ch in pa.map_wts_change(ChangeEvent("reweight", i, j, wts.succ[i][j] + 40))]
    start = planner.current_state
    run = planner.replan(mod)
    fresh, _ = solve_fresh(copy.deepcopy(pa), [start], 10)
    assert (run.prefix, run.suffix, run.accepting, run.total) == \
        (fresh.prefix, fresh.suffix, fresh.accepting, fresh.total)


@pytest.mark.parametrize("relaxed", [False, True], ids=["plain", "relaxed"])
@pytest.mark.parametrize("phase", [PREFIX, SUFFIX])
def test_change_that_moves_no_loop_cost_repairs_the_main_search(seq_nba, phase, relaxed):
    """An edge off the run rises: the main search keeps its tree and shifts its start."""
    pa, planner = _ring_planner(seq_nba, relaxed, phase)
    states = planner.run.states()
    on_run = {(s // pa.nq, t // pa.nq) for s, t in zip(states, states[1:])}
    off_run = next((i, j) for i, j, d in pa.wts.edges() if d != INF and (i, j) not in on_run)
    main, km = planner.main, planner.main.km
    costs = [rec.cost for rec in planner.records]
    _raise_and_check(planner, [off_run])
    assert [rec.cost for rec in planner.records] == costs
    assert planner.main is main
    assert planner.main.km > km


@pytest.mark.parametrize("relaxed", [False, True], ids=["plain", "relaxed"])
def test_main_search_starts_over_before_km_reaches_its_cap(seq_nba, relaxed):
    """A start move that would take km to KM_CAP resets the main search in place,
    so keys keep within the packing's exact range; the run equals a fresh solve."""
    pa, planner = _ring_planner(seq_nba, relaxed, SUFFIX)
    states = planner.run.states()
    on_run = {(s // pa.nq, t // pa.nq) for s, t in zip(states, states[1:])}
    off_run = next((i, j) for i, j, d in pa.wts.edges() if d != INF and (i, j) not in on_run)
    main = planner.main
    main.km = KM_CAP - 1
    _raise_and_check(planner, [off_run])
    assert planner.main is main
    assert main.km == 0 and main.start == planner.current_state


@pytest.mark.parametrize("relaxed", [False, True], ids=["plain", "relaxed"])
@pytest.mark.parametrize("phase", [PREFIX, SUFFIX])
def test_change_that_raises_the_run_loop_restarts_the_main_search(seq_nba, phase, relaxed):
    """Every edge into the accepting cell rises: the main search is built afresh."""
    pa, planner = _ring_planner(seq_nba, relaxed, phase)
    rec = planner._rec_by_acc[planner.run.accepting]
    cost, main = rec.cost, planner.main
    acc_cell = rec.acc // pa.nq
    _raise_and_check(planner, [(i, acc_cell) for i in range(pa.wts.n_states)
                               if pa.wts.has_edge(i, acc_cell)])
    assert rec.cost > cost
    assert planner.main is not main


@pytest.mark.parametrize("relaxed", [False, True], ids=["plain", "relaxed"])
def test_blocked_run_loop_is_solved_again_from_scratch(seq_nba, relaxed):
    """The run's loop loses its last edge into the accepting cell, which passes the budget.

    The half-repaired search is dropped and the record holds a new one that
    equals a from-scratch solve on the present product. Its cost is exact,
    the run equals `solve_fresh`, and the record's loop expansions in that
    replan are at most the budget plus the new solve.
    """
    scn = load_scenario(ASSETS / "bench_map_b.json")
    belief = initial_belief(scn)
    wts = to_wts(scn, belief, seq_nba.universe)
    belief.attach(wts)
    pa = (build_relaxed_product if relaxed else build_product)(wts, seq_nba)
    planner = LTLDStarPlanner(pa, beta=10)
    run = planner.plan_initial()
    rec = planner._rec_by_acc[run.accepting]
    old, spent = rec.instance, rec.instance.expansions
    budget = max(1, rec.fresh // REPAIR_SHARE)
    last = rec.get_loop()[-2] // pa.nq
    mod = pa.map_wts_change(ChangeEvent("delete", last, rec.acc // pa.nq))
    start = planner.current_state
    run = planner.replan(mod)
    assert rec.instance is not old and not rec.stale
    ref = loop_record(planner, rec.acc).instance
    assert (rec.instance.g, rec.instance.rhs, rec.instance.reached) == \
        (ref.g, ref.rhs, ref.reached)
    assert rec.fresh == ref.expansions
    assert rec.cost == loop_cost(pa, rec.acc)[0]
    fresh, _ = solve_fresh(copy.deepcopy(pa), [start], 10)
    assert (run.prefix, run.suffix, run.accepting, run.total) == \
        (fresh.prefix, fresh.suffix, fresh.accepting, fresh.total)
    assert old.expansions - spent + rec.instance.expansions <= budget + ref.expansions


GRID_MAPS = ("bench_map_a", "bench_map_b", "bench_map_blocked_c", "ring_unique",
             "suffix_blockage")


def _grid_map_planner(seq_nba, name, relaxed):
    """A shipped map, planned, with every wall as an edge an `add` can create.

    A map without walls gets one, between two free neighbours of the start.
    """
    scn = load_scenario(ASSETS / f"{name}.json")
    if not scn.walls:
        free = [c for c in scn.neighbors(scn.start) if c not in scn.obstacles]
        scn.walls = {frozenset((scn.start, free[0]))}
    belief = initial_belief(scn)
    wts = to_wts(scn, belief, seq_nba.universe)
    belief.attach(wts)
    pa = (build_relaxed_product if relaxed else build_product)(wts, seq_nba)
    planner = LTLDStarPlanner(pa, beta=10)
    planner.plan_initial()
    index = belief.cell_index
    walls = [(index[a], index[b]) for a, b in map(tuple, scn.walls)
             if a in index and b in index]
    return pa, planner, walls


def _check_loop_heuristics(planner) -> int:
    """Each focused loop search's h(acc, .) is 0 at acc, admissible and consistent.

    Admissible: no higher than the violation-free travel from acc in the
    present product. Consistent: no violation-free edge u -> v has
    h(v) > h(u) + travel. Returns the number of searches checked.
    """
    pa = planner.pa
    clean = [(u, v, wt) for u, out in enumerate(pa.succ) for v, (wv, wt) in out.items()
             if wv == 0 and wt != INF]
    checked = 0
    for rec in planner.records:
        if rec.h is None:
            continue
        h = [rec.h(rec.acc, s) for s in range(pa.n_states)]
        assert h[rec.acc] == 0
        assert all(h[v] <= h[u] + wt for u, v, wt in clean), rec.acc
        clean_out = [{v: w for v, w in row.items() if unpack(w)[0] == 0} for row in pa.out]
        dist, _ = lex_dijkstra(clean_out, [rec.acc])
        assert all(h[s] <= t for s, t in dist.items()), rec.acc
        checked += 1
    return checked


@pytest.mark.parametrize("relaxed", [False, True], ids=["plain", "relaxed"])
@pytest.mark.parametrize("name", GRID_MAPS)
def test_loop_heuristic_admissible_and_consistent(seq_nba, name, relaxed):
    """On every shipped grid map the loop heuristics hold before and after the
    product gains edges and loses cost: a raise, a lowering set that undoes
    it, and an `add` that opens every wall. Each replan equals `solve_fresh`.
    """
    pa, planner, walls = _grid_map_planner(seq_nba, name, relaxed)
    assert walls
    assert _check_loop_heuristics(planner) > 0
    rng = random.Random(name)
    raised = rng.sample([(i, j) for i, j, d in pa.wts.edges() if d == 10], 12)
    batches = [[ChangeEvent("reweight", i, j, 50) for i, j in raised],
               [ChangeEvent("reweight", i, j, 10) for i, j in raised],
               [ChangeEvent("add", a, b, 10) for i, j in walls for a, b in ((i, j), (j, i))]]
    for events in batches:
        mod = [ch for ev in events for ch in pa.map_wts_change(ev)]
        start = planner.current_state
        run = planner.replan(mod)
        fresh, _ = solve_fresh(copy.deepcopy(pa), [start], 10)
        assert run == fresh
        assert _check_loop_heuristics(planner) > 0
        planner.advance()


@pytest.mark.parametrize("relaxed", [False, True], ids=["plain", "relaxed"])
def test_grid_heuristic_is_step_times_manhattan(seq_nba, relaxed):
    """The main search's bound: step times Manhattan distance between cells.

    The step is the cheapest edge, `move_cost`. The synthetic start (id n)
    reads as the start cell, and every virtual goal (ids above n) reads 0.
    """
    scn = load_scenario(ASSETS / "bench_map_a.json")
    wts = to_wts(scn, initial_belief(scn), seq_nba.universe)
    pa = (build_relaxed_product if relaxed else build_product)(wts, seq_nba)
    free = free_product(pa)
    h = free.bound
    assert free.step == min(d for _, _, d in wts.edges() if d != INF) == scn.move_cost
    cells = [wts.coords[s // pa.nq] for s in range(pa.n_states)]
    for a, ca in enumerate(cells):
        for b, cb in enumerate(cells):
            assert h(a, b) == free.step * (abs(ca[0] - cb[0]) + abs(ca[1] - cb[1]))
    n = pa.n_states
    start = pa.initial[0]
    for s in range(n):
        assert (h(n, s), h(s, n)) == (h(start, s), h(s, start))
    assert h(n, n) == 0
    for a, b in [(n - 1, n + 1), (n + 2, n + 3), (n, n + 1), (n + 1, n)]:
        assert h(a, b) == 0


@pytest.mark.parametrize("relaxed", [False, True], ids=["plain", "relaxed"])
@pytest.mark.parametrize("name", GRID_MAPS)
def test_synthetic_start_runs_match_fresh_solve(seq_nba_anchored, name, relaxed):
    """Two automaton start states put the main search on the synthetic start.

    The bound is consistent on every finite edge out of it, and after the
    initial plan and every replan of a mission the run equals `solve_fresh`
    on a copy of the product.
    """
    scn = load_scenario(ASSETS / f"{name}.json")
    runs = []

    def hook(kind, planner, run, mod):
        pa = planner.pa
        synth = planner.synth_start
        if kind == "initial":
            assert len(pa.initial) == 2 and planner.main.start == synth
            h = planner.main.h
            out = planner.main.graph.extra_succ[synth]
            assert sorted(out) == sorted(pa.initial)
            for v, w in out.items():
                _wv, wt = unpack(w)
                for a in range(synth + 1):
                    assert abs(h(a, v) - h(a, synth)) <= wt
                    assert abs(h(v, a) - h(synth, a)) <= wt
        sources = list(pa.initial) if kind == "initial" else [planner.current_state]
        if run is None:
            with pytest.raises(NoAcceptingRun):
                solve_fresh(copy.deepcopy(pa), sources, planner.beta)
            return
        fresh, _ = solve_fresh(copy.deepcopy(pa), sources, planner.beta)
        assert (run.prefix, run.suffix, run.total) == (fresh.prefix, fresh.suffix, fresh.total)
        runs.append(kind)

    simulate(scn, seq_nba_anchored, mode="relaxed" if relaxed else "plain", replan_hook=hook)
    assert runs[0] == "initial" and len(runs) > 1


def _run_matches_fresh(planner, run, sources):
    fresh, _ = solve_fresh(copy.deepcopy(planner.pa), sources, planner.beta)
    assert (run.prefix, run.suffix, run.total) == (fresh.prefix, fresh.suffix, fresh.total)


@pytest.mark.parametrize("relaxed", [False, True], ids=["plain", "relaxed"])
@pytest.mark.parametrize("name", ("bench_map_a", "bench_map_b", "ring_unique", "suffix_blockage"))
def test_initial_states_in_two_cells_match_fresh_solve(seq_nba, name, relaxed):
    """A second initial cell puts the main search on a synthetic start between two cells.

    Its bound reads the nearer initial cell, so it stays admissible. For ten
    random second cells per map, the initial plan, a replan that raises the
    edges along the run, and one that restores them after two steps each
    equal `solve_fresh` on a copy of the product.
    """
    scn = load_scenario(ASSETS / f"{name}.json")
    rng = random.Random(name)
    free = sorted(c for c in scn.cells() if c not in scn.obstacles and c != scn.start)
    for cell in rng.sample(free, 10):
        wts = to_wts(scn, initial_belief(scn), seq_nba.universe)
        wts.init.append(wts.coords.index(cell))
        pa = (build_relaxed_product if relaxed else build_product)(wts, seq_nba)
        planner = LTLDStarPlanner(pa, beta=10)
        try:
            run = planner.plan_initial()
        except NoAcceptingRun:
            with pytest.raises(NoAcceptingRun):
                solve_fresh(copy.deepcopy(pa), list(pa.initial), 10)
            continue
        _run_matches_fresh(planner, run, list(pa.initial))
        states = run.states()
        edges = sorted({(s // pa.nq, t // pa.nq) for s, t in zip(states, states[1:])
                        if s // pa.nq != t // pa.nq})[:3]
        for travel in (lambda i, j: wts.succ[i][j] + 40, lambda i, j: wts.succ[i][j]):
            mod = [ch for i, j in edges
                   for ch in pa.map_wts_change(ChangeEvent("reweight", i, j, travel(i, j)))]
            sources = [planner.current_state]
            if sources == [planner.synth_start]:
                sources = list(pa.initial)
            _run_matches_fresh(planner, planner.replan(mod), sources)
            planner.advance()
            planner.advance()


def test_plain_plan_builds_one_loop_search(seq_nba):
    """In plain `sequence_abcd` only the a-cell's accepting state has a finite
    incoming edge, so `plan_initial` builds one loop search among 100 records."""
    scn = load_scenario(ASSETS / "bench_map_a.json")
    pa = build_product(to_wts(scn, initial_belief(scn), seq_nba.universe), seq_nba)
    planner = LTLDStarPlanner(pa, beta=10)
    planner.plan_initial()
    assert len(planner.records) == 100
    built = [rec for rec in planner.records if rec.instance is not None]
    assert [rec.acc for rec in built] == [planner.run.accepting]
    assert all(rec.cost == INF for rec in planner.records if rec.instance is None)


@pytest.mark.parametrize("kind", ["reweight", "add"])
def test_edge_into_a_never_entered_accepting_state_builds_its_search(seq_nba, kind):
    """A second a-cell behind a wall, every edge into it deleted: its accepting
    state has a record but no search. A reweight of a deleted edge into it, or
    an `add` through the wall, builds the search and rebuilds the main search,
    and the run equals `solve_fresh` on a copy of the product."""
    scn = load_scenario(ASSETS / "bench_map_a.json")
    labeled = set().union(*scn.regions.values())
    cell, across = next((b, a) for a, b in sorted(tuple(sorted(w)) for w in scn.walls)
                        if not {a, b} & (scn.obstacles | labeled))
    scn.regions["a"] = scn.regions["a"] | {cell}
    wts = to_wts(scn, initial_belief(scn), seq_nba.universe)
    pa = build_product(wts, seq_nba)
    j = wts.coords.index(cell)
    into = [i for i in range(wts.n_states) if wts.has_edge(i, j)]
    pa.apply_changes([ch for i in into for ch in pa.map_wts_change(ChangeEvent("delete", i, j))])
    planner = LTLDStarPlanner(pa, beta=10)
    planner.plan_initial()
    rec = planner._rec_by_acc[sid(pa, j, 4)]
    assert rec.instance is None and rec.cost == INF
    assert sum(r.instance is not None for r in planner.records) == 1
    main = planner.main
    if kind == "add":
        event = ChangeEvent("add", wts.coords.index(across), j, scn.move_cost)
    else:
        event = ChangeEvent("reweight", into[0], j, scn.move_cost)
    mod = pa.map_wts_change(event)
    start = planner.current_state
    run = planner.replan(mod)
    assert rec.instance is not None and not rec.stale
    assert rec.cost == loop_cost(pa, rec.acc)[0] != INF
    assert planner.main is not main
    _run_matches_fresh(planner, run, [start])


def test_waypoint_graph_loop_searches_stay_unfocused():
    """Without cell coordinates there is no free product and no loop heuristic."""
    nba = parse_nba_file(ASSETS / "delivery_sequence.hoa")
    pa = build_product(load_wts(ASSETS / "delivery_6x6.json", nba.universe), nba)
    planner = LTLDStarPlanner(pa, beta=10)
    planner.plan_initial()
    assert all(rec.h is None for rec in planner.records)


@pytest.mark.parametrize("relaxed", [False, True], ids=["plain", "relaxed"])
def test_add_outside_the_grid_is_rejected(seq_nba, relaxed):
    """An `add` between cells that are no grid neighbours raises before the
    product is written, since it would undercut the free-product distance."""
    pa, planner, _walls = _grid_map_planner(seq_nba, "bench_map_a", relaxed)
    coords = pa.wts.coords
    far = next(j for j, c in enumerate(coords)
               if abs(c[0] - coords[0][0]) + abs(c[1] - coords[0][1]) == 2)
    before = (copy.deepcopy(pa.out), copy.deepcopy(pa.pred))
    with pytest.raises(EdgeOutsideGridError, match="no free-product move"):
        planner.replan(pa.map_wts_change(ChangeEvent("add", 0, far, 10)))
    assert (pa.out, pa.pred) == before
