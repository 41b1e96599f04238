import math
from types import SimpleNamespace

import pytest

from conftest import scenario_to_dict
from tlreplan.baselines import solve_fresh
from tlreplan.labels import APUniverse
from tlreplan.planner import NoAcceptingRun
from tlreplan.product import build_product
from tlreplan import world
from tlreplan.weights import STATE_CAP, TRAVEL_CAP, WeightRangeError
from tlreplan.world import (Belief, ChangeEvent, GridScenario, _ground_truth_feasible,
                            initial_belief, load_scenario, random_map, scenario_from_dict,
                            sense, to_wts)

INF = math.inf
U = APUniverse(("a", "b", "c", "d"))


def _empty(n=10, **kw):
    defaults = dict(width=n, height=n, walls=set(), obstacles=set(), bumps=set(),
                    regions={"a": {(1, 1)}, "b": {(1, n - 2)},
                             "c": {(n - 2, n - 2)}, "d": {(n - 2, 1)}},
                    start=(1, 1))
    defaults.update(kw)
    return GridScenario(**defaults)


def test_empty_grid_state_and_edge_counts():
    wts = to_wts(_empty(10), Belief(), U)
    assert wts.n_states == 100
    assert wts.n_edges == 360  # 2 directions x 2 axes x N x (N-1)


def test_wall_removes_both_directions():
    scn = _empty(10, walls={frozenset(((0, 0), (0, 1)))})
    wts = to_wts(scn, Belief(), U)
    i = wts.coords.index((0, 0))
    j = wts.coords.index((0, 1))
    assert not wts.has_edge(i, j)
    assert not wts.has_edge(j, i)
    assert wts.n_edges == 358


def test_believed_bump_reweights_incoming_edges():
    scn = _empty(10, bumps={(5, 5)})
    belief = Belief(known_bumps={(5, 5)})
    wts = to_wts(scn, belief, U)
    j = wts.coords.index((5, 5))
    for nb in ((4, 5), (6, 5), (5, 4), (5, 6)):
        i = wts.coords.index(nb)
        assert wts.weight(i, j) == 50
        assert wts.weight(j, i) == 10  # leaving a bump costs the normal step


def test_believed_obstacle_removes_state():
    scn = _empty(10, obstacles={(5, 5)})
    belief = Belief(known_obstacles={(5, 5)})
    wts = to_wts(scn, belief, U)
    assert wts.n_states == 99
    assert (5, 5) not in wts.coords


def test_labels_follow_regions():
    wts = to_wts(_empty(10), Belief(), U)
    assert wts.labels[wts.coords.index((1, 1))] == 1 << U.index("a")
    assert wts.labels[wts.coords.index((1, 8))] == 1 << U.index("b")
    assert wts.labels[wts.coords.index((0, 0))] == 0


def test_scenario_validation():
    with pytest.raises(ValueError):
        _empty(10, start=(20, 0))
    with pytest.raises(ValueError):
        _empty(10, obstacles={(1, 1)})  # region cell blocked
    with pytest.raises(ValueError):
        _empty(10, obstacles={(3, 3)}, bumps={(3, 3)})
    with pytest.raises(ValueError):
        _empty(10, walls={frozenset(((0, 0), (2, 0)))})  # not adjacent


class TestSense:
    def _world(self):
        scn = _empty(10, obstacles={(2, 3)}, bumps={(4, 1)})
        belief = Belief()
        wts = to_wts(scn, belief, U)
        belief.attach(wts)
        return scn, belief, wts

    def test_reveals_adjacent_obstacle_as_edge_deletes(self):
        scn, belief, wts = self._world()
        events = sense(scn, belief, (2, 2))
        assert (2, 3) in belief.known_obstacles
        assert {e.kind for e in events} == {"delete"}
        assert len(events) == 4
        j = wts.coords.index((2, 3))
        assert all(e.j == j for e in events)
        assert all(wts.weight(e.i, e.j) == INF for e in events)

    def test_reveals_adjacent_bump_as_reweights(self):
        scn, belief, wts = self._world()
        events = sense(scn, belief, (4, 2))
        assert (4, 1) in belief.known_bumps
        assert {e.kind for e in events} == {"reweight"}
        assert all(e.weight == 50 for e in events)
        j = wts.coords.index((4, 1))
        assert all(wts.weight(e.i, j) == 50 for e in events)

    def test_resensing_is_idempotent(self):
        scn, belief, _ = self._world()
        assert sense(scn, belief, (2, 2))
        assert sense(scn, belief, (2, 2)) == []

    def test_nothing_new_yields_empty(self):
        scn, belief, _ = self._world()
        assert sense(scn, belief, (8, 8)) == []

    def test_initial_belief_senses_start(self):
        scn = _empty(10, obstacles={(1, 2)})
        belief = initial_belief(scn)
        assert (1, 2) in belief.known_obstacles


@pytest.mark.parametrize("move_cost, bump_cost", [(10, 2), (10, 9), (0, 50), (0, 0)])
def test_scenario_rejects_a_bump_cheaper_than_a_move(move_cost, bump_cost):
    # the planner fixes its step at the cheapest edge when it is built, so a
    # revealed bump below it would make its heuristics overshoot
    with pytest.raises(ValueError, match=f"move_cost={move_cost} and bump_cost={bump_cost}"):
        _empty(6, move_cost=move_cost, bump_cost=bump_cost)


def test_scenario_accepts_a_bump_as_cheap_as_a_move():
    assert _empty(6, move_cost=10, bump_cost=10).bump_cost == 10
    assert _empty(6, move_cost=1, bump_cost=1).move_cost == 1


def test_scenario_cost_caps():
    assert _empty(6, move_cost=TRAVEL_CAP - 1, bump_cost=TRAVEL_CAP - 1).bump_cost == TRAVEL_CAP - 1
    for move_cost, bump_cost in [(10, TRAVEL_CAP), (10.0, 50), (10, 50.5)]:
        with pytest.raises(WeightRangeError):
            _empty(6, move_cost=move_cost, bump_cost=bump_cost)


def test_scenario_json_round_trip(tmp_path):
    scn = _empty(10, walls={frozenset(((4, 0), (5, 0)))},
                 obstacles={(3, 3)}, bumps={(6, 6)})
    data = scenario_to_dict(scn)
    back = scenario_from_dict(data)
    assert back == scn


def _visited(*args):
    raise AssertionError("visited a cell")


def test_grid_at_the_product_cap_fails_before_any_cell_is_visited(monkeypatch):
    monkeypatch.setattr(GridScenario, "cells", _visited)
    side = 1 << 10
    assert side * side == STATE_CAP
    scn = _empty(side)
    with pytest.raises(WeightRangeError, match="cap"):
        to_wts(scn, Belief(), U)
    with pytest.raises(AssertionError, match="visited"):  # one cell below the cap
        to_wts(scn, Belief(known_obstacles={(0, 0)}), U)


def test_random_map_at_the_product_cap_fails_before_any_cell_is_rolled(monkeypatch):
    monkeypatch.setattr(world, "random", SimpleNamespace(Random=_visited))
    with pytest.raises(WeightRangeError, match="cap"):
        random_map(0, 1 << 10, 0.4)
    with pytest.raises(AssertionError, match="visited"):
        random_map(0, (1 << 10) - 1, 0.4)


def test_random_map_deterministic():
    a = random_map(5, 10, 0.3)
    b = random_map(5, 10, 0.3)
    assert a == b


def test_random_map_zero_density_has_no_obstacles():
    scn = random_map(1, 10, 0.0)
    assert scn.obstacles == set()


def test_random_map_regions_in_quadrants():
    scn = random_map(2, 10, 0.2)
    (ar, ac) = next(iter(scn.regions["a"]))
    (cr, cc) = next(iter(scn.regions["c"]))
    assert ar < 5 and ac < 5
    assert cr >= 5 and cc >= 5
    assert scn.start in scn.regions["a"]


def test_random_map_feasible_with_nba(seq_nba):
    for seed in (0, 1, 2):
        scn = random_map(seed, 20, 0.4, nba=seq_nba)
        assert _ground_truth_feasible(scn, seq_nba)


def test_ground_truth_check_agrees_with_fresh_solve(seq_nba):
    outcomes = []
    for seed in range(40):
        scn = random_map(seed, 6, 0.5, allow_infeasible=True)
        belief = Belief(known_obstacles=set(scn.obstacles), known_bumps=set(scn.bumps))
        pa = build_product(to_wts(scn, belief, seq_nba.universe), seq_nba)
        try:
            solve_fresh(pa, list(pa.initial), 10)
            solvable = True
        except NoAcceptingRun:
            solvable = False
        assert _ground_truth_feasible(scn, seq_nba) == solvable, f"seed {seed}"
        outcomes.append(solvable)
    assert any(outcomes) and not all(outcomes)


def test_random_map_parameter_validation():
    with pytest.raises(ValueError):
        random_map(0, 10, 1.0)
    with pytest.raises(ValueError):
        random_map(0, 3, 0.2)


def test_shipped_scenarios_load():
    from conftest import ASSETS
    for name in ("bench_map_a", "bench_map_b", "bench_map_blocked_c",
                 "ring_unique", "suffix_blockage"):
        scn = load_scenario(ASSETS / f"{name}.json")
        assert set(scn.regions) == {"a", "b", "c", "d"}
