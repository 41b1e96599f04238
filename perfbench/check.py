"""Correctness gate: replay a mission's recorded events against from-scratch solves.

The incremental planner and `solve_fresh` break ties the same way, so on one
event stream they must produce the same run after every event. The replay
takes a product of the mission's scenario that the mission never used,
applies each recorded change set to it, solves from scratch at the start
and after each change set, and walks the fresh runs the way the simulator
walks its planner's run. It then checks that:

- each event's (violation, travel) total equals the fresh total;
- every event fires at the state and phase the fresh walk reaches;
- the steps and the traversed (violation, travel) cost agree;
- an infeasible verdict happens exactly where the fresh solve also fails.
"""

from __future__ import annotations

import math
import time

from workloads import BETA, LOOPS


class Mismatch(Exception):
    """The mission's outputs disagree with the from-scratch replay."""


class _Cursor:
    """Position on a run: prefix once, then the loop forever (as the simulator walks)."""

    def __init__(self, run, phases: tuple[str, str]):
        self.seq = run.states()
        self.pos = 0
        self.loop_start = len(run.prefix) - 1
        self._phases = phases  # (prefix, suffix)

    @property
    def state(self) -> int:
        return self.seq[self.pos]

    @property
    def phase(self) -> str:
        return self._phases[self.pos >= self.loop_start]

    def advance(self) -> tuple[int, int, bool]:
        """Step once; returns (from, to, lap completed)."""
        cur = self.seq[self.pos]
        nxt = self.pos + 1
        if nxt >= len(self.seq):
            nxt = self.loop_start + 1
        self.pos = nxt
        return cur, self.seq[nxt], nxt == len(self.seq) - 1


def check_mission(api, pa, report) -> list[tuple[int, int]]:
    """Raise Mismatch unless `report` equals the from-scratch replay.

    `pa` is a product built for the mission's scenario that the mission did
    not touch; the replay applies the recorded changes to it.
    Returns (ns, pops) of every fresh solve, the baseline's cost figures.
    """
    fresh_costs = []

    def fresh(starts):
        t0 = time.perf_counter_ns()
        try:
            run, pops = api.solve_fresh(pa, starts, BETA)
        except api.NoAcceptingRun:
            fresh_costs.append((time.perf_counter_ns() - t0, 0))
            return None
        fresh_costs.append((time.perf_counter_ns() - t0, pops))
        return run

    def expect(what, got, want):
        if got != want:
            raise Mismatch(f"{what}: mission {got!r}, fresh replay {want!r}")

    run = fresh(list(pa.initial))
    if run is None:
        expect("initial verdict", (report.infeasible, len(report.events), report.steps),
               (True, 0, 0))
        return fresh_costs
    expect("initial total", (report.initial_violation, report.initial_travel), tuple(run.total))

    cursor = _Cursor(run, (api.PREFIX, api.SUFFIX))
    walked = {"steps": 0, "violation": 0, "travel": 0, "loops": 0}

    def walk(target):
        """Advance until `target` is reached or the mission's laps are done."""
        while walked["steps"] < report.steps:
            u, v, lap = cursor.advance()
            wv, wt = pa.succ[u][v]
            if wt == math.inf:
                raise Mismatch(f"fresh run crosses deleted edge {u}->{v}")
            walked["steps"] += 1
            walked["violation"] += wv
            walked["travel"] += wt
            if lap:
                walked["loops"] += 1
                if walked["loops"] >= LOOPS:
                    return "done"
            if cursor.state == target:
                return "event"
        return "out of steps"

    if len(report.recorded) != len(report.events):
        raise Mismatch("recorded event stream and event rows differ in length")
    for i, (ev, row) in enumerate(zip(report.recorded, report.events)):
        expect(f"event {i} reached", "event", walk(ev.state))
        expect(f"event {i} phase", ev.phase, cursor.phase)
        pa.apply_changes(ev.mod)
        run = fresh([ev.state])
        if run is None:
            expect(f"event {i} verdict", (report.infeasible, i), (True, len(report.events) - 1))
            expect(f"event {i} total", (row.total_violation, row.total_travel),
                   (math.inf, math.inf))
            break
        expect(f"event {i} total", (row.total_violation, row.total_travel), tuple(run.total))
        cursor = _Cursor(run, (api.PREFIX, api.SUFFIX))
    else:
        expect("mission verdict", (report.infeasible, report.completed), (False, True))
        expect("mission end", "done", walk(None))
    expect("steps", report.steps, walked["steps"])
    expect("traversed cost", (report.traversed_violation, report.traversed_travel),
           (walked["violation"], walked["travel"]))
    return fresh_costs
