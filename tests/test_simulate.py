import csv
import json
import math
import sys

import pytest

from conftest import ASSETS, BOXED_START, dijkstra_oracle, replay_iterative
from tlreplan.planner import NoAcceptingRun
from tlreplan.simulate import (ALGORITHMS, CSV_HEADER, build_world, make_planner, simulate,
                               write_trace_csv, write_trace_json)
from tlreplan.world import ChangeEvent, load_scenario, random_map, scenario_from_dict

INF = math.inf


def test_no_hidden_objects_zero_replans(seq_nba):
    scn = random_map(3, 10, 0.0)
    rep = simulate(scn, seq_nba, loops=1)
    assert rep.completed
    assert rep.events == []
    assert rep.loops_done == 1
    assert rep.traversed_violation == 0


@pytest.mark.parametrize("kwargs, bad", [({"mode": "relaxd"}, "'relaxd'"),
                                          ({"loops": 0}, "got 0"), ({"loops": -2}, "got -2")])
def test_simulate_rejects_bad_mode_or_loops_before_building(seq_nba, monkeypatch, kwargs, bad):
    def build_world(*args):
        raise AssertionError("built a world for a rejected mission")

    # the package exports the function `simulate`, which shadows its module
    monkeypatch.setattr(sys.modules["tlreplan.simulate"], "build_world", build_world)
    with pytest.raises(ValueError, match=bad):
        simulate(random_map(3, 6, 0.0), seq_nba, **kwargs)


def test_traversed_cost_equals_executed_edge_weights(seq_nba):
    # conservation: cumulative cost is the sum of step weights at execution
    scn = random_map(4, 10, 0.35, nba=seq_nba)
    rep = simulate(scn, seq_nba, loops=1)
    assert rep.completed
    assert rep.traversed_travel % 10 == 0
    assert rep.traversed_travel >= 10 * rep.steps  # each step costs >= 10
    assert (rep.traversed_travel - 10 * rep.steps) % 40 == 0  # bump surcharges


def test_robot_never_steps_into_revealed_obstacle(seq_nba):
    # sensing completeness: traversing a deleted edge would raise; a clean
    # return (finished or provably stuck) is the pass condition
    for seed in (2, 5, 9):
        scn = random_map(seed, 12, 0.4, nba=seq_nba)
        rep = simulate(scn, seq_nba, loops=2)
        assert rep.completed or rep.infeasible, f"seed {seed}"


def test_belief_monotone_over_simulation(seq_nba):
    scn = random_map(4, 10, 0.35, nba=seq_nba)
    seen_sizes = []

    def hook(kind, planner, run, mod):
        seen_sizes.append(sum(1 for row in planner.pa.succ for w in row.values()
                              if w[1] == INF))

    rep = simulate(scn, seq_nba, loops=1, replan_hook=hook)
    assert rep.completed
    assert seen_sizes == sorted(seen_sizes)  # deletions only accumulate


def test_multiple_loops(seq_nba):
    scn = random_map(3, 8, 0.2, nba=seq_nba)
    one = simulate(scn, seq_nba, loops=1)
    three = simulate(scn, seq_nba, loops=3)
    assert three.loops_done == 3
    assert three.traversed_travel > one.traversed_travel


def test_auto_mode_zero_violation_when_plain_feasible(seq_nba):
    scn = random_map(7, 10, 0.3, nba=seq_nba)
    rep = simulate(scn, seq_nba, mode="auto", loops=1)
    assert rep.completed
    assert rep.traversed_violation == 0
    assert rep.initial_violation == 0


def test_blocked_c_asset_plain_vs_relaxed(seq_nba):
    scn = load_scenario(ASSETS / "bench_map_blocked_c.json")
    plain = simulate(scn, seq_nba, mode="plain", loops=1)
    assert plain.infeasible and not plain.completed
    assert plain.events and plain.events[-1].total_travel == INF
    relaxed = simulate(scn, seq_nba, mode="relaxed", loops=1)
    assert relaxed.completed and not relaxed.infeasible
    assert relaxed.traversed_violation > 0


@pytest.mark.parametrize("mode", ["plain", "relaxed"])
@pytest.mark.parametrize("algo", ["ltl-dstar", "iterative"])
def test_infeasible_start_reports_its_work_and_no_total(seq_nba, mode, algo):
    scn = scenario_from_dict(BOXED_START)
    rep = simulate(scn, seq_nba, mode=mode, algo=algo)
    assert rep.infeasible and not rep.completed
    assert (rep.steps, rep.events) == (0, [])
    planner = make_planner(algo, build_world(scn, seq_nba, mode)[1], 10)
    with pytest.raises(NoAcceptingRun):
        planner.plan_initial()
    assert rep.initial_expansions == planner.last_expansions > 0
    assert (rep.initial_violation, rep.initial_travel) == (INF, INF)
    data = rep.to_json_dict()
    assert (data["initial_violation"], data["initial_travel"]) == (None, None)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_replan_after_an_infeasible_start_raises_no_accepting_run(seq_nba, algo):
    """With no run to follow, a replan solves from the initial states and finds none."""
    pa = build_world(scenario_from_dict(BOXED_START), seq_nba, "plain")[1]
    planner = make_planner(algo, pa, 10)
    with pytest.raises(NoAcceptingRun):
        planner.plan_initial()
    i, j, d = next((i, j, d) for i, j, d in pa.wts.edges() if d != INF)
    mod = pa.map_wts_change(ChangeEvent("reweight", i, j, d + 40))
    assert mod
    with pytest.raises(NoAcceptingRun):
        planner.replan(mod)


def test_trace_files_round_trip(tmp_path, seq_nba):
    scn = random_map(4, 10, 0.35, nba=seq_nba)
    rep = simulate(scn, seq_nba, loops=1)
    csv_path = tmp_path / "trace.csv"
    json_path = tmp_path / "trace.json"
    write_trace_csv(rep, csv_path)
    write_trace_json(rep, json_path)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER
    assert len(rows) == len(rep.events) + 1
    for row, ev in zip(rows[1:], rep.events):
        assert int(row[0]) == ev.event
        assert row[1] == ev.phase
        assert float(row[5]) == ev.total_violation
        assert float(row[6]) == ev.total_travel
    data = json.loads(json_path.read_text())
    assert data["completed"] is True
    assert data["traversed_travel"] == rep.traversed_travel
    assert len(data["events"]) == len(rep.events)


def test_identical_walks_on_unique_route_map(seq_nba):
    scn = load_scenario(ASSETS / "ring_unique.json")
    rep_a = simulate(scn, seq_nba, algo="ltl-dstar", loops=1)
    rep_b = simulate(scn, seq_nba, algo="iterative", loops=1)
    rows_a = [(e.event, e.phase, e.mod_size, e.total_violation, e.total_travel)
              for e in rep_a.events]
    rows_b = [(e.event, e.phase, e.mod_size, e.total_violation, e.total_travel)
              for e in rep_b.events]
    assert rows_a == rows_b
    assert rep_a.traversed_travel == rep_b.traversed_travel
    assert len(rows_a) >= 2


def test_replay_matches_recorded_totals(seq_nba):
    # seed 4 completes; seed 12 turns infeasible mid-run: totals must agree
    # event-for-event in both outcomes, including the infinite final row
    for seed in (4, 12):
        _replay_case(seq_nba, seed)


def _replay_case(seq_nba, seed):
    scn = random_map(seed, 10, 0.35, nba=seq_nba)
    rep = simulate(scn, seq_nba, loops=1, record=True)
    assert rep.recorded
    replayed = replay_iterative(scn, seq_nba, rep.recorded, beta=10)
    assert len(replayed.events) == len(rep.events)
    for a, b in zip(rep.events, replayed.events):
        assert (a.total_violation, a.total_travel) == (b.total_violation, b.total_travel)
    assert (rep.initial_violation, rep.initial_travel) == \
        (replayed.initial_violation, replayed.initial_travel)
    assert rep.infeasible == replayed.infeasible


def test_midrun_infeasibility_agrees_with_oracle(seq_nba):
    # becoming stuck is legitimate: the remaining sequence can be blocked
    # from the robot's progress state; the oracle must agree it is stuck
    scn = random_map(12, 10, 0.35, nba=seq_nba)
    outcome = {}

    def hook(kind, planner, run, mod):
        if kind == "infeasible":
            oracle = dijkstra_oracle(planner.pa, [planner.current_state], planner.beta)
            outcome["oracle_total"] = oracle.best_total

    rep = simulate(scn, seq_nba, loops=1, replan_hook=hook)
    assert rep.infeasible
    assert outcome["oracle_total"] == (INF, INF)


def test_benchmark_map_a_every_replan_matches_oracle(seq_nba):
    from tlreplan.world import load_scenario
    scn = load_scenario(ASSETS / "bench_map_a.json")
    failures = []

    def hook(kind, planner, run, mod):
        src = [planner.current_state] if kind != "initial" else list(planner.pa.initial)
        oracle = dijkstra_oracle(planner.pa, src, planner.beta)
        if run is not None and tuple(run.total) != tuple(oracle.best_total):
            failures.append((kind, run.total, oracle.best_total))

    rep = simulate(scn, seq_nba, loops=1, replan_hook=hook)
    assert rep.completed
    assert rep.events, "benchmark map should force replans"
    assert failures == []
