import csv
import json

import pytest

from conftest import ASSETS, BOXED_START
from tlreplan.cli import BENCH_HEADER, SUMMARY_HEADER, main
from tlreplan.product import PLAIN, RELAXED
from tlreplan.simulate import CSV_HEADER, build_world
from tlreplan.world import GridScenario, load_scenario

SEQ = str(ASSETS / "sequence_abcd.hoa")
SEQ32 = str(ASSETS / "sequence_abcd_32.hoa")
MAP_A = str(ASSETS / "bench_map_a.json")
BLOCKED = str(ASSETS / "bench_map_blocked_c.json")

TRACE_KEYS = ["algo", "mode", "beta", "width", "height", "loops_requested", "completed",
              "infeasible", "loops_done", "steps", "initial_ns", "initial_expansions",
              "initial_violation", "initial_travel", "traversed_violation",
              "traversed_travel", "fallbacks", "events"]
EVENT_KEYS = ["event", "phase", "mod_size", "wall_time_ns", "expansions", "total_violation",
              "total_travel"]


def test_build_reports_product_sizes(capsys):
    assert main(["build", SEQ32, MAP_A]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["nba_states"] == 32
    assert stats["nba_transitions"] == 92
    assert stats["wts_states"] == 100
    assert stats["pa_states"] == 3200
    assert "relaxed_pa_transitions" not in stats


def test_build_relaxed_flag(capsys):
    assert main(["build", SEQ, MAP_A, "--relaxed"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["relaxed_pa_transitions"] >= stats["pa_transitions"]
    assert stats["pa_states"] == stats["wts_states"] * stats["nba_states"]


def test_build_reports_the_product_simulate_plans_on(capsys, seq_nba):
    """`build` sizes the product over the belief at time zero, walls plus what
    the start cell sees, as `build_world` gives it to `simulate`."""
    path = ASSETS / "suffix_blockage.json"
    assert main(["build", "builtin:sequence_abcd", str(path), "--relaxed"]) == 0
    stats = json.loads(capsys.readouterr().out)
    _, pa = build_world(load_scenario(path), seq_nba, PLAIN)
    _, rpa = build_world(load_scenario(path), seq_nba, RELAXED)
    assert (stats["wts_states"], stats["pa_states"], stats["relaxed_pa_states"]) == \
        (pa.wts.n_states, pa.n_states, rpa.n_states) == (143, 715, 715)
    assert (stats["wts_transitions"], stats["pa_transitions"],
            stats["relaxed_pa_transitions"]) == (pa.wts.n_edges, pa.n_edges, rpa.n_edges)


def test_build_single_state_nba(capsys, tmp_path):
    ev = str(ASSETS / "eventually_a.hoa")
    assert main(["build", ev, MAP_A]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["pa_states"] == stats["wts_states"] * 2
    unit = tmp_path / "unit.hoa"
    unit.write_text('HOA: v1\nStates: 1\nStart: 0\nAP: 1 "a"\nacc-name: Buchi\n'
                    'Acceptance: 1 Inf(0)\n--BODY--\nState: 0 {0}\n[t] 0\n--END--\n')
    assert main(["build", str(unit), MAP_A]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["pa_states"] == stats["wts_states"]


def test_build_waypoint_graph(capsys):
    assert main(["build", str(ASSETS / "delivery_sequence.hoa"),
                 str(ASSETS / "delivery_6x6.json")]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["pa_states"] == 36 * 9


def test_build_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.hoa"
    bad.write_text("HOA: v1\nStates: oops\n--BODY--\n--END--\n")
    assert main(["build", str(bad), MAP_A]) == 1
    assert "error" in capsys.readouterr().err


def test_build_over_bound_guard_is_input_error(tmp_path, capsys):
    guard = " & ".join(f"({2 * i} | {2 * i + 1})" for i in range(20))
    names = " ".join(f'"p{i}"' for i in range(40))
    big = tmp_path / "big.hoa"
    big.write_text(f"HOA: v1\nStates: 1\nStart: 0\nAP: 40 {names}\nacc-name: Buchi\n"
                   f"Acceptance: 1 Inf(0)\n--BODY--\nState: 0 {{0}}\n[{guard}] 0\n--END--\n")
    assert main(["build", str(big), MAP_A]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "cubes" in err and "line 9" in err


def test_simulate_writes_traces_and_succeeds(tmp_path, capsys):
    out = tmp_path / "trace"
    code = main(["simulate", SEQ, MAP_A, "--trace-out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["completed"] is True
    assert list(summary) == TRACE_KEYS[:-1]
    with open(f"{out}.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER == EVENT_KEYS
    data = json.loads((tmp_path / "trace.json").read_text())
    assert list(data) == TRACE_KEYS
    assert data["events"] and all(list(e) == EVENT_KEYS for e in data["events"])


def test_simulate_infeasible_exit_code(capsys):
    assert main(["simulate", SEQ, BLOCKED, "--mode", "plain"]) == 3
    capsys.readouterr()
    assert main(["simulate", SEQ, BLOCKED, "--mode", "relaxed"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["completed"] is True
    assert summary["traversed_violation"] > 0


@pytest.mark.parametrize("mode", ["plain", "relaxed", "auto"])
def test_simulate_infeasible_start_exits_3_in_every_mode(mode, tmp_path, capsys):
    boxed = tmp_path / "boxed.json"
    boxed.write_text(json.dumps(BOXED_START))
    assert main(["simulate", SEQ, str(boxed), "--mode", mode]) == 3
    summary = json.loads(capsys.readouterr().out)
    assert summary["infeasible"] is True and summary["initial_travel"] is None


def test_simulate_random_scenario(capsys):
    assert main(["simulate", SEQ, "random", "--seed", "4", "--size", "8",
                 "--density", "0.2"]) == 0
    assert json.loads(capsys.readouterr().out)["completed"] is True


def test_simulate_random_needs_seed(capsys):
    assert main(["simulate", SEQ, "random"]) == 1


def test_simulate_nonpositive_beta_is_input_error(capsys):
    assert main(["simulate", SEQ, MAP_A, "--beta", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_simulate_beta_at_its_cap_is_input_error(capsys):
    assert main(["simulate", SEQ, MAP_A, "--beta", "65536"]) == 1
    assert capsys.readouterr().err.startswith("error: --beta: beta 65536 must be an int below")


@pytest.mark.parametrize("loops", ["0", "-2"])
def test_simulate_nonpositive_loops_is_input_error(loops, capsys):
    assert main(["simulate", SEQ, MAP_A, "--loops", loops]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: --loops must be >= 1, got {loops}")


def test_simulate_bump_cheaper_than_move_is_input_error(tmp_path, capsys):
    data = json.loads((ASSETS / "bench_map_a.json").read_text())
    data["bump_cost"] = 2
    cheap = tmp_path / "cheap_bumps.json"
    cheap.write_text(json.dumps(data))
    assert main(["simulate", SEQ, str(cheap)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "move_cost=10" in err and "bump_cost=2" in err


def _without_width():
    data = json.loads((ASSETS / "bench_map_a.json").read_text())
    del data["width"]
    return data


@pytest.mark.parametrize("command", ["build", "simulate"])
@pytest.mark.parametrize("data, named", [
    ({"width": 1100, "height": 1100, "start": [0, 0]}, "cap"),  # over the cell cap
    ({"width": 512, "height": 512, "start": [0, 0]}, "cap"),  # cells x automaton states over it
    (_without_width(), "width"),
], ids=["cells", "product", "no-width"])
def test_bad_scenario_is_input_error_before_any_cell(command, data, named, tmp_path, capsys,
                                                     monkeypatch):
    def visited(*args):
        raise AssertionError("visited a cell")

    monkeypatch.setattr(GridScenario, "cells", visited)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert main([command, SEQ, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_build_unknown_builtin_nba_is_input_error(capsys):
    assert main(["build", "builtin:nope", MAP_A]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_builtin_nba_reference(capsys):
    assert main(["build", "builtin:sequence_abcd", MAP_A]) == 0
    assert json.loads(capsys.readouterr().out)["nba_states"] == 5


class TestBench:
    def _config(self, tmp_path, **overrides):
        cfg = {
            "sizes": [8], "seeds": [1, 2], "density": 0.3, "beta": 10,
            "mode": "plain", "algorithms": ["ltl-dstar", "iterative"],
            "loops": 1, "nba": "builtin:sequence_abcd",
            "output": str(tmp_path / "bench.csv"),
            "summary_output": str(tmp_path / "summary.csv"),
        }
        cfg.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path, cfg

    def test_bench_runs_and_emits_stable_headers(self, tmp_path, capsys):
        path, cfg = self._config(tmp_path)
        assert main(["bench", str(path)]) == 0
        with open(cfg["output"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == BENCH_HEADER
        assert len(rows) == 1 + 2 * 2  # sizes x seeds x algorithms
        with open(cfg["summary_output"], newline="") as fh:
            srows = list(csv.reader(fh))
        assert srows[0] == SUMMARY_HEADER

    def test_bench_deterministic_except_timing(self, tmp_path, capsys):
        path, cfg = self._config(tmp_path)
        timing_cols = {BENCH_HEADER.index(c) for c in BENCH_HEADER if "_ns" in c}

        def strip(path):
            with open(path, newline="") as fh:
                return [[c for i, c in enumerate(row) if i not in timing_cols]
                        for row in csv.reader(fh)]

        assert main(["bench", str(path)]) == 0
        first = strip(cfg["output"])
        assert main(["bench", str(path)]) == 0
        second = strip(cfg["output"])
        assert first == second

    def test_bench_empty_algorithms_usage_error(self, tmp_path, capsys):
        path, _ = self._config(tmp_path, algorithms=[])
        assert main(["bench", str(path)]) == 2

    def test_bench_validates_sizes_and_beta(self, tmp_path, capsys):
        path, _ = self._config(tmp_path, sizes=[3])
        assert main(["bench", str(path)]) == 2
        path, _ = self._config(tmp_path, beta=0)
        assert main(["bench", str(path)]) == 2
        path, _ = self._config(tmp_path, beta=2.5)
        assert main(["bench", str(path)]) == 2
        assert "beta 2.5 must be an int below" in capsys.readouterr().err

    @pytest.mark.parametrize("loops", [0, -2])
    def test_bench_nonpositive_loops_usage_error(self, tmp_path, capsys, loops):
        path, cfg = self._config(tmp_path, loops=loops)
        assert main(["bench", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: loops must be >= 1")
        assert not (tmp_path / "bench.csv").exists()

    def test_bench_unknown_mode_usage_error(self, tmp_path, capsys):
        path, _ = self._config(tmp_path, mode="relaxd")
        assert main(["bench", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: unknown mode 'relaxd'")

    def test_bench_unknown_algorithm(self, tmp_path, capsys):
        path, _ = self._config(tmp_path, algorithms=["a-star"])
        assert main(["bench", str(path)]) == 2

    def test_bench_bad_density_is_input_error(self, tmp_path, capsys):
        path, _ = self._config(tmp_path, density=1.5)
        assert main(["bench", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_bench_unknown_builtin_nba_is_input_error(self, tmp_path, capsys):
        path, _ = self._config(tmp_path, nba="builtin:nope")
        assert main(["bench", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # missing positionals
    assert exc.value.code == 2


def test_bench_flags_midrun_infeasible_rows(tmp_path, capsys):
    cfg = {
        "sizes": [10], "seeds": [2], "density": 0.35, "beta": 10,
        "mode": "plain", "algorithms": ["ltl-dstar"], "loops": 1,
        "nba": "builtin:sequence_abcd", "output": str(tmp_path / "b.csv"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["bench", str(path)]) == 0
    with open(cfg["output"], newline="") as fh:
        rows = list(csv.reader(fh))
    status = rows[1][BENCH_HEADER.index("status")]
    assert status == "infeasible"
