import copy
import itertools
import math
import random

import pytest

from tlreplan.baselines import dijkstra_oracle, loop_cost, solve_fresh
from tlreplan.hoa import parse_nba
from tlreplan.planner import (LTLDStarPlanner, NoAcceptingRun, Run, total_cost)
from tlreplan.product import PAEdgeChange, build_product, build_relaxed_product
from tlreplan.weights import Weight
from tlreplan.world import (Belief, ChangeEvent, initial_belief, make_grid_heuristic,
                            random_map, sense, to_wts)
from tlreplan.wts import WTS

INF = math.inf


class TinyPA:
    """Hand-built product stand-in for exercising the planner mechanics."""

    def __init__(self, n, edges, accepting, initial):
        self.n_states = n
        self.succ = [dict() for _ in range(n)]
        self.pred = [[] for _ in range(n)]
        for u, v, w in edges:
            self.succ[u][v] = w
            self.pred[v].append(u)
        self.accepting = list(accepting)
        self.initial = list(initial)
        self.mode = "plain"

    def apply_changes(self, mod):
        created = []
        for ch in mod:
            if ch.v not in self.succ[ch.u]:
                self.pred[ch.v].append(ch.u)
                created.append(ch)
            self.succ[ch.u][ch.v] = ch.weight
        return created


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


def repair_with(planner, rec, mod):
    """Queue a change set in one loop search and repair it, as replan does."""
    mirrors = [(ch.u, ch.weight) for ch in mod if ch.v == rec.acc]
    planner.mark_stale(rec, mirrors, {ch.u for ch in mod})
    return planner.repair_loop(rec)


def test_suffix_self_loop():
    pa = TinyPA(2, [(0, 0, (0, 10)), (0, 1, (0, 10)), (1, 0, (0, 10))],
                accepting=[0], initial=[0])
    planner = LTLDStarPlanner(pa, beta=10)
    rec = planner.suffix_initialize(0)
    assert rec.cost == (0, 10)
    assert rec.get_loop() == [0, 0]


def test_suffix_no_cycle_is_infinite():
    pa = TinyPA(2, [(0, 1, (0, 10))], accepting=[0], initial=[0])
    planner = LTLDStarPlanner(pa, beta=10)
    rec = planner.suffix_initialize(0)
    assert rec.cost == (INF, INF)
    assert rec.get_loop() == []


def test_suffix_three_cycle_matches_brute_force():
    pa = TinyPA(3, [(0, 1, (0, 10)), (1, 2, (0, 10)), (2, 0, (0, 30))],
                accepting=[0], initial=[0])
    assert brute_force_min_cycle(pa, 0) == (0, 50)
    planner = LTLDStarPlanner(pa, beta=10)
    rec = planner.suffix_initialize(0)
    assert rec.cost == (0, 50)
    assert rec.get_loop() == [0, 1, 2, 0]


def test_suffix_replan_empty_mod_no_expansions():
    pa = TinyPA(3, [(0, 1, (0, 10)), (1, 2, (0, 10)), (2, 0, (0, 30))],
                accepting=[0], initial=[0])
    planner = LTLDStarPlanner(pa, beta=10)
    rec = planner.suffix_initialize(0)
    before = rec.instance.expansions
    assert not planner.repair_loop(rec)  # a fresh record is left alone
    changed = repair_with(planner, rec, [])
    assert not changed
    assert rec.instance.expansions == before


def test_suffix_replan_deleted_cycle_goes_infinite():
    pa = TinyPA(3, [(0, 1, (0, 10)), (1, 2, (0, 10)), (2, 0, (0, 30))],
                accepting=[0], initial=[0])
    planner = LTLDStarPlanner(pa, beta=10)
    rec = planner.suffix_initialize(0)
    mod = [PAEdgeChange(1, 2, (INF, INF))]
    pa.apply_changes(mod)
    assert repair_with(planner, rec, mod)
    assert rec.cost == (INF, INF)
    assert rec.get_loop() == []


def test_suffix_replan_switches_to_alternate_cycle():
    # two cycles through 0: via 1 (cost 20, bumpable) and via 2+3 (cost 70)
    pa = TinyPA(4, [(0, 1, (0, 10)), (1, 0, (0, 10)),
                    (0, 2, (0, 20)), (2, 3, (0, 20)), (3, 0, (0, 30))],
                accepting=[0], initial=[0])
    planner = LTLDStarPlanner(pa, beta=10)
    rec = planner.suffix_initialize(0)
    assert rec.cost == (0, 20)
    mod = [PAEdgeChange(0, 1, (0, 80))]  # bump one edge of the cheap cycle
    pa.apply_changes(mod)
    repair_with(planner, rec, mod)
    assert rec.cost == (0, 70)
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
    assert run.prefix_cost == Weight(0, 0)
    assert run.suffix_cost == Weight(0, 20)  # cheapest two-step shuttle
    assert run.total == Weight(0, 200)


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
    assert run.total.violation == 0


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
    assert run.total.violation > 0
    oracle = dijkstra_oracle(relaxed, list(relaxed.initial), 10)
    assert tuple(run.total) == tuple(oracle.best_total)


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
    mod = [PAEdgeChange(pa.sid(pi, 0), pa.sid(target, 0), (INF, INF))]
    pa.apply_changes(mod)
    for rec in planner.records:
        repair_with(planner, rec, mod)
    for rec, before in zip(planner.records, costs_before):
        if rec.cost != before:
            # only loops actually using that edge may move; clean ones stay
            assert before[1] != INF


def test_total_cost_examples():
    run = Run(prefix=[0], suffix=[0, 1, 0], accepting=0,
              prefix_cost=Weight(0, 0), suffix_cost=Weight(0, 40),
              total=Weight(0, 400))
    assert total_cost(run, 10) == Weight(0, 400)
    run = Run(prefix=[2, 0], suffix=[0, 1, 0], accepting=0,
              prefix_cost=Weight(0, 30), suffix_cost=Weight(0, 40),
              total=Weight(0, 430))
    assert total_cost(run, 10) == Weight(0, 430)
    run = Run(prefix=[2, 0], suffix=[0, 1, 0], accepting=0,
              prefix_cost=Weight(1, 30), suffix_cost=Weight(2, 40),
              total=Weight(21, 430))
    assert total_cost(run, 10) == Weight(21, 430)


def test_total_cost_infinite_when_loop_missing():
    run = Run(prefix=[0], suffix=[], accepting=0,
              prefix_cost=Weight(0, 0), suffix_cost=Weight(INF, INF),
              total=Weight(INF, INF))
    assert total_cost(run, 10) == Weight(INF, INF)


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


@pytest.mark.parametrize("relaxed", [False, True], ids=["plain", "relaxed"])
@pytest.mark.parametrize("seed", [2, 3, 8, 11, 15])
def test_lazy_repair_matches_fresh_solve(seq_nba, seed, relaxed):
    """Raises leave loops stale; a later weight drop and a created edge repair them all.

    After every replan the run equals a from-scratch solve, the chosen
    loop is fresh, fresh loop costs are exact and stale ones lower bounds.
    """
    rng, pa, wall_i, wall_j = _lazy_case(seq_nba, seed, relaxed)
    wts = pa.wts
    travel = {(i, j): d for i, j, d in wts.edges()}
    planner = LTLDStarPlanner(pa, beta=10, heuristic=make_grid_heuristic(pa))
    planner.plan_initial()
    seen = {"stale": False, "lowered": False, "created": False}

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
    for make_batch in script:
        for _ in range(rng.randint(0, 3)):
            planner.advance()
        if make_batch is lower_batch:
            seen["lowered"] = any(rec.stale for rec in planner.records)
        mod = [ch for ev in make_batch() for ch in pa.map_wts_change(ev)]
        if make_batch is add_batch:
            seen["created"] = any(ch.v not in pa.succ[ch.u] for ch in mod)
        start = planner.current_state
        try:
            run = planner.replan(mod)
        except NoAcceptingRun:
            with pytest.raises(NoAcceptingRun):
                solve_fresh(copy.deepcopy(pa), [start], 10)
            pytest.fail(f"seed {seed} turned infeasible; pick a seed that keeps a run")
        fresh, _ = solve_fresh(copy.deepcopy(pa), [start], 10)
        assert (run.prefix, run.suffix, run.accepting, run.total) == \
            (fresh.prefix, fresh.suffix, fresh.accepting, fresh.total)
        for rec in planner.records:
            exact, _ = loop_cost(pa, rec.acc)
            if rec.stale:
                assert rec.acc != run.accepting
                assert rec.cost <= exact
            else:
                assert rec.cost == exact
        seen["stale"] |= any(rec.stale for rec in planner.records)
    assert seen == {"stale": True, "lowered": True, "created": True}
