"""Sense -> replan -> move simulation loop and machine-readable traces.

The robot follows its planner's run one edge at a time. Arriving at a cell
it senses the 4-neighborhood; newly revealed objects become product-edge
changes and trigger a timed replan. A traversal finishes after the
configured number of loop completions, or halts in place when the product
it plans on admits no accepting run.

Every replan, successful or not, yields one `EventRow` and one hook call;
a replan with no run records an `INF_W` total, and an initial plan with no
run records its expansions and an `INF_W` initial total. The trace files
are declared by the dataclasses: the JSON holds every `TraceReport` field
but `recorded`, in declaration order, and the CSV one column per `EventRow`
field (`CSV_HEADER`); INF is written as `null` in JSON and `inf` in CSV.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, fields

from .baselines import IterativeReplanner, LocalRevisionReplanner
from .planner import LTLDStarPlanner, NoAcceptingRun
from .product import PLAIN, RELAXED, build_product, build_relaxed_product
from .weights import INF, INF_W, unpack
from .world import GridScenario, check_cells, initial_belief, sense, to_wts

ALGO_LTL_DSTAR = "ltl-dstar"
ALGO_ITERATIVE = "iterative"
ALGO_LOCAL = "local-revision"
ALGORITHMS = (ALGO_LTL_DSTAR, ALGO_ITERATIVE, ALGO_LOCAL)
MODES = (PLAIN, RELAXED, "auto")

@dataclass
class EventRow:
    """One replanning event; its fields are the trace's event columns, in order."""

    event: int
    phase: str
    mod_size: int
    wall_time_ns: int
    expansions: int
    total_violation: float
    total_travel: float


CSV_HEADER = [f.name for f in fields(EventRow)]


@dataclass
class RecordedEvent:
    """Enough context to replay one replanning event into another algorithm."""

    state: int
    phase: str
    mod: list


@dataclass
class TraceReport:
    """One mission's outcome; every field but `recorded` is written to the JSON trace."""

    algo: str
    mode: str
    beta: int
    width: int
    height: int
    loops_requested: int
    completed: bool = False
    infeasible: bool = False
    loops_done: int = 0
    steps: int = 0
    initial_ns: int = 0
    initial_expansions: int = 0
    initial_violation: float = 0
    initial_travel: float = 0
    traversed_violation: int = 0
    traversed_travel: int = 0
    fallbacks: int = 0
    events: list[EventRow] = field(default_factory=list)
    recorded: list[RecordedEvent] = field(default_factory=list, repr=False)

    def replan_times_ns(self) -> list[int]:
        return [e.wall_time_ns for e in self.events]

    def to_json_dict(self) -> dict:
        """The fields in declaration order, events as dicts, INF as None."""
        out = _json_fields(self, skip=("events", "recorded"))
        out["events"] = [_json_fields(e) for e in self.events]
        return out


def _json_fields(obj, skip=()) -> dict:
    return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj) if f.name not in skip}


def _jsonable(x):
    return None if x == INF else x


def write_trace_json(report: TraceReport, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=1)
        fh.write("\n")


def write_trace_csv(report: TraceReport, path):
    """One row per event; INF is written as `inf`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows([getattr(e, name) for name in CSV_HEADER] for e in report.events)


def build_world(scenario: GridScenario, nba, mode: str):
    """Belief at time zero plus the matching product, size-checked before any cell is visited."""
    belief = initial_belief(scenario)
    check_cells(scenario.width * scenario.height - len(belief.known_obstacles), nba.n_states)
    wts = to_wts(scenario, belief, nba.universe)
    belief.attach(wts)
    builder = build_product if mode == PLAIN else build_relaxed_product
    return belief, builder(wts, nba)


def make_planner(algo: str, pa, beta: int):
    if algo == ALGO_LTL_DSTAR:
        return LTLDStarPlanner(pa, beta)
    if algo == ALGO_ITERATIVE:
        return IterativeReplanner(pa, beta)
    if algo == ALGO_LOCAL:
        return LocalRevisionReplanner(pa, beta)
    raise ValueError(f"unknown algorithm {algo!r}; pick one of {ALGORITHMS}")


def simulate(scenario: GridScenario, nba, beta: int = 10, mode: str = PLAIN,
             algo: str = ALGO_LTL_DSTAR, loops: int = 1,
             replan_hook=None, record: bool = False) -> TraceReport:
    """Run one full mission; mode 'auto' plans on the relaxed product."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; pick one of {MODES}")
    if loops < 1:
        raise ValueError(f"loops must be a positive integer, got {loops}")
    build_mode = RELAXED if mode in (RELAXED, "auto") else PLAIN
    belief, pa = build_world(scenario, nba, build_mode)
    planner = make_planner(algo, pa, beta)
    report = TraceReport(algo=algo, mode=mode, beta=beta, width=scenario.width,
                         height=scenario.height, loops_requested=loops)

    t0 = time.perf_counter_ns()
    try:
        run = planner.plan_initial()
    except NoAcceptingRun:
        run = None
    report.initial_ns = time.perf_counter_ns() - t0
    report.initial_expansions = planner.last_expansions
    report.initial_violation, report.initial_travel = INF_W if run is None else run.total
    if run is None:
        report.infeasible = True
        return report
    if replan_hook is not None:
        replan_hook("initial", planner, run, [])

    coords = pa.wts.coords
    nq = pa.nq
    max_steps = loops * scenario.width * scenario.height * 50 + 1000

    while report.loops_done < loops:
        cur = planner.current_state
        nxt = planner.peek_next()
        wv, wt = unpack(pa.out[cur][nxt])
        if wt == INF:
            raise RuntimeError(f"run traverses a deleted edge {cur}->{nxt}")
        report.traversed_violation += wv
        report.traversed_travel += wt
        lap_done = planner.advance()
        report.steps += 1
        if report.steps > max_steps:
            raise RuntimeError("simulation exceeded its step budget")
        if lap_done:
            report.loops_done += 1
            if report.loops_done >= loops:
                break
        cell = coords[planner.current_state // nq]
        events = sense(scenario, belief, cell)
        if not events:
            continue
        mod = []
        for ev in events:
            mod.extend(pa.map_wts_change(ev))
        phase = planner.phase
        if record:
            report.recorded.append(RecordedEvent(planner.current_state, phase, list(mod)))
        t0 = time.perf_counter_ns()
        try:
            run = planner.replan(mod)
        except NoAcceptingRun:
            run = None
        dt = time.perf_counter_ns() - t0
        report.events.append(EventRow(len(report.events), phase, len(mod), dt,
                                      planner.last_expansions,
                                      *(INF_W if run is None else run.total)))
        report.infeasible = run is None
        if replan_hook is not None:
            replan_hook("infeasible" if run is None else "replan", planner, run, mod)
        if report.infeasible:
            break

    report.completed = not report.infeasible
    report.fallbacks = getattr(planner, "fallbacks", 0)
    return report
