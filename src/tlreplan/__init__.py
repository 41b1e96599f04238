"""Incremental temporal-logic replanning over Buchi product automata."""

from .hoa import (NBA, GuardTooLargeError, HoaParseError, UnsupportedHoaError, parse_nba,
                  parse_nba_file)
from .labels import APUniverse, APUniverseError, Label, rho, xi, zeta
from .planner import LTLDStarPlanner, NoAcceptingRun, Run, total_cost
from .product import (ProductAutomaton, build_product, build_relaxed_product,
                      dist)
from .simulate import TraceReport, replay_iterative, simulate
from .weights import Weight
from .world import GridScenario, load_scenario, random_map, sense, to_wts
from .wts import WTS, load_wts

__all__ = [
    "APUniverse", "APUniverseError", "GridScenario", "GuardTooLargeError",
    "HoaParseError", "Label", "LTLDStarPlanner", "NBA", "NoAcceptingRun",
    "ProductAutomaton", "Run", "TraceReport", "UnsupportedHoaError", "WTS", "Weight",
    "build_product", "build_relaxed_product", "dist", "load_scenario", "load_wts",
    "parse_nba", "parse_nba_file", "random_map", "replay_iterative", "rho",
    "sense", "simulate", "to_wts", "total_cost", "xi", "zeta",
]
