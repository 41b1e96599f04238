"""Golden traces: the non-timing output of `simulate` on every shipped grid map.

Each case runs one mission (`sequence_abcd`, beta 10, one loop) and compares
everything but wall times against `tests/golden/simulate_sequence_abcd.json`:
completion, steps, loops, fallbacks, the initial and traversed costs, and
every event's phase, change-set size, expansions and totals. A refactor that
claims unchanged outputs must keep these equal, expansions included.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

from conftest import ASSETS
from tlreplan.hoa import parse_nba_file
from tlreplan.simulate import ALGORITHMS, simulate
from tlreplan.world import load_scenario

GOLDEN = Path(__file__).resolve().parent / "golden" / "simulate_sequence_abcd.json"
SCENARIOS = ("bench_map_a", "bench_map_b", "bench_map_blocked_c", "ring_unique",
             "suffix_blockage")
MODES = ("plain", "relaxed")
CASES = [f"{s}/{m}/{a}" for s in SCENARIOS for m in MODES for a in ALGORITHMS]


def trace(case: str, nba) -> dict:
    """The mission's JSON report without its wall times."""
    scenario, mode, algo = case.split("/")
    report = simulate(load_scenario(ASSETS / f"{scenario}.json"), nba, beta=10, mode=mode,
                      algo=algo, loops=1)
    out = report.to_json_dict()
    del out["initial_ns"]
    for event in out["events"]:
        del event["wall_time_ns"]
    return out


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", CASES)
def test_simulate_matches_golden_trace(case, golden, seq_nba):
    assert trace(case, seq_nba) == golden[case]


if __name__ == "__main__":
    nba = parse_nba_file(ASSETS / "sequence_abcd.hoa")
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({case: trace(case, nba) for case in CASES}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN} ({len(CASES)} cases)")
