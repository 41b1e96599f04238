"""Incremental temporal-logic replanning over Buchi product automata."""

from .hoa import (NBA, GuardTooLargeError, HoaParseError, UnsupportedHoaError, parse_nba,
                  parse_nba_file)
from .labels import APUniverse, APUniverseError
from .planner import (EdgeOutsideGridError, LTLDStarPlanner, NoAcceptingRun,
                      ReweightBelowStepError, Run)
from .product import ProductAutomaton, build_product, build_relaxed_product
from .simulate import TraceReport, simulate
from .weights import WeightRangeError
from .world import GridScenario, load_scenario, random_map, sense, to_wts
from .wts import WTS, load_wts

__all__ = [
    "APUniverse", "APUniverseError", "EdgeOutsideGridError", "GridScenario", "GuardTooLargeError",
    "HoaParseError", "LTLDStarPlanner", "NBA", "NoAcceptingRun",
    "ProductAutomaton", "ReweightBelowStepError", "Run", "TraceReport",
    "UnsupportedHoaError", "WTS", "WeightRangeError",
    "build_product", "build_relaxed_product", "load_scenario", "load_wts",
    "parse_nba", "parse_nba_file", "random_map",
    "sense", "simulate", "to_wts",
]
