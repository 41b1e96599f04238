"""The benchmark's tracer still finds every layer it times in the library.

`perfbench/tracer.py` wraps library functions by name and reads a few
attributes with defaults, so a rename would silently zero a traced layer
instead of failing. These tests fail instead.
"""

import importlib.util
from pathlib import Path

import pytest

import tlreplan
from conftest import ASSETS
from tlreplan.world import load_scenario

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
# gone since guards became cubes; its layer reads as absent (ROADMAP item 1)
GONE = {("tlreplan.hoa", "NBA.chi_bits")}


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [t for t in _tracer_module().TARGETS if t[:2] not in GONE]


@pytest.mark.parametrize("module_name, name, span", TARGETS, ids=[t[1] for t in TARGETS])
def test_every_traced_name_resolves(module_name, name, span):
    obj = importlib.import_module(module_name)
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj), span


def test_traced_mission_fills_every_layer(seq_nba):
    """A traced mission counts work in every layer the tracer reads by attribute:
    `pa.n_edges`, `inst.U`, `inst.g`, `inst.expansions`, `inst.cost_from`,
    `planner.main` and `planner.records`."""
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        tracer.phase = "mission"
        report = tlreplan.simulate(load_scenario(ASSETS / "bench_map_a.json"), seq_nba)
    finally:
        tracer.uninstall()
    assert report.completed and report.events
    assert tracer.absent == {"hoa"}
    count = tracer.snapshot()
    for counter in ("product.states", "product.edges", "product.edge_changes",
                    "dstar.loop_expansions", "dstar.main_expansions", "dstar.g_entries",
                    "planner.loops_repaired", "planner.loops_skipped", "simulate.events"):
        assert count[counter] > 0, counter
    for span in ("product.build", "product.map", "product.apply", "dstar.loop", "dstar.main",
                 "dstar.extract", "dstar.update", "planner.initial", "planner.replan",
                 "world.sense"):
        assert tracer.ns["mission", span] > 0, span
    assert tracer.heap_max > 0
