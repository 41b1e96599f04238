"""Run one workload in this process and report it as JSON lines on stdout.

Started by run.py, one process per workload. Missions are closed-loop and
single-threaded: one robot, the next event only after the replan returns.
Missions run until the measured time reaches --seconds (and the run holds
enough replan events for its tail percentile). Each mission is replayed
against the from-scratch solver right after it ran, outside the measured
time, and then dropped, so no mission's data outlives its own check.

Line types: "start" (peak RSS before the first mission), "begin" (a
mission starts), "mission" (its timings, its deterministic counters and the
process's peak RSS so far), "failed", "checked" (replay passed, with the
fresh solves' costs), "trace" (per-layer metrics, with --trace 1) and
"done".
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from check import Mismatch, check_mission  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import BETA, LOOPS, WORKLOADS, automaton_text, fingerprint, make_scenario  # noqa: E402

now = time.perf_counter_ns


def emit(kind: str, **fields):
    print(json.dumps({"type": kind, **fields}), flush=True)


class Api:
    """The program's entry points, looked up at call time so tracer patches apply."""

    def __init__(self):
        import tlreplan
        if SRC not in Path(tlreplan.__file__).resolve().parents:
            raise ImportError(f"tlreplan was imported from outside {SRC}")
        self.pkg = tlreplan
        self.sim = sys.modules["tlreplan.simulate"]
        self.baselines = sys.modules["tlreplan.baselines"]
        planner = sys.modules["tlreplan.planner"]
        self.NoAcceptingRun = planner.NoAcceptingRun
        self.PREFIX, self.SUFFIX = planner.PREFIX, planner.SUFFIX
        self.assets = Path(tlreplan.__file__).resolve().parent / "assets"

    def parse_nba(self, text):
        return self.pkg.parse_nba(text)

    def build_world(self, scenario, nba, mode):
        return self.sim.build_world(scenario, nba, mode)

    def simulate(self, scenario, nba, workload):
        return self.pkg.simulate(scenario, nba, beta=BETA, mode=workload.mode, loops=LOOPS,
                                 record=True)

    def solve_fresh(self, pa, starts, beta):
        return self.baselines.solve_fresh(pa, starts, beta)


def one_pass(api, workload, text, scenario, setups: int, tracer=None):
    """`setups` set-ups, then the mission, each on a freshly parsed automaton.

    Returns (set-up ns list, mission ns, the last set-up's product, report).
    """
    nba = api.parse_nba(text)
    gc.collect()
    gc.freeze()  # earlier missions' objects stay out of this one's collections
    if tracer is not None:
        tracer.install()
        tracer.phase = "setup"
    try:
        setup_ns = []
        for _ in range(setups):
            t0 = now()
            _belief, pa = api.build_world(scenario, api.parse_nba(text), workload.mode)
            setup_ns.append(now() - t0)
        if tracer is not None:
            tracer.phase = "mission"
        t0 = now()
        report = api.simulate(scenario, nba, workload)
        mission_ns = now() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return setup_ns, mission_ns, pa, report


def counters(pa, report) -> dict:
    """Deterministic outcome of one mission; must repeat exactly for one seed."""
    return {
        "events": len(report.events),
        "steps": report.steps,
        "product_states": pa.n_states,
        "product_edges": pa.n_edges,
        "expansions": report.initial_expansions + sum(e.expansions for e in report.events),
        "traversed": [report.traversed_violation, report.traversed_travel],
        "completed": report.completed,
        "infeasible": report.infeasible,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reason(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--missions", type=int, default=None,
                    help="run exactly this many missions instead of timing")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    api = Api()
    text = automaton_text(workload, api.assets)
    map_nba = api.parse_nba(text)
    tracer = Tracer() if args.trace else None

    fresh = []
    measured = events = index = ran = 0
    untraced_total = traced_total = 0
    limit_ns = int(args.seconds * 1e9)
    emit("start", rss_mb=peak_rss_mb())

    def more() -> bool:
        if args.missions is not None:
            return index < args.missions
        if measured >= 2 * limit_ns:
            return False
        return measured < limit_ns or events < workload.min_tail_events

    while more():
        i = index
        index += 1
        scenario = make_scenario(api.pkg, workload, map_nba.universe.names, args.seed, i)
        digest = hashlib.sha256(repr(fingerprint(scenario)).encode()).hexdigest()[:16]
        emit("begin", i=i, inputs=digest)
        started = now()
        try:
            setup_ns, mission_ns, pa, report = one_pass(api, workload, text, scenario,
                                                        workload.setups)
            result = counters(pa, report)
            line = {}
            if tracer is not None:
                before = tracer.snapshot()
                t_setup, t_mission, t_pa, t_report = one_pass(api, workload, text, scenario,
                                                              1, tracer)
                if counters(t_pa, t_report) != result:
                    raise Mismatch("traced and untraced passes disagree")
                del t_pa, t_report
                after = tracer.snapshot()
                line["layer_counts"] = {k: after[k] - before.get(k, 0) for k in sorted(after)}
                untraced_total += setup_ns[0] + mission_ns
                traced_total += t_setup[0] + t_mission
                measured += t_setup[0] + t_mission
        except Exception as exc:  # a mission boundary: record and go on with the next
            emit("failed", i=i, reason=reason(exc))
            measured += now() - started  # failing missions use up the window too
            continue
        measured += sum(setup_ns) + mission_ns
        events += len(report.events)
        ran += 1
        emit("mission", i=i, setup_ns=setup_ns, mission_ns=mission_ns,
             initial_ns=report.initial_ns, replan_ns=report.replan_times_ns(),
             counters=result, rss_mb=peak_rss_mb(), **line)
        # The replay runs outside the timed window; nothing of this mission is kept.
        try:
            costs = check_mission(api, pa, report)
        except Exception as exc:  # mismatch or crash in the replay: the mission failed
            emit("failed", i=i, reason=reason(exc))
            continue
        finally:
            del pa, report
        fresh.extend(costs)
        emit("checked", i=i, fresh_solves=len(costs))

    if tracer is not None and ran:
        emit("trace", metrics=layer_metrics(tracer, ran, fresh,
                                            traced_total / untraced_total - 1),
             absent=sorted(tracer.absent))
    emit("done")
    return 0


def layer_metrics(tracer: Tracer, missions: int, fresh, overhead: float) -> dict:
    """Per-layer figures, per traced mission unless named otherwise."""
    def ns(phase, span):
        return tracer.ns[phase, span] / missions / 1e6

    def cnt(phase, name):
        return tracer.count[phase, name] / missions

    m = "mission"
    search_ns = tracer.ns[m, "dstar.loop"] + tracer.ns[m, "dstar.main"]
    expansions = tracer.count[m, "dstar.loop_expansions"] + tracer.count[m, "dstar.main_expansions"]
    repaired = tracer.count[m, "planner.loops_repaired"]
    return {
        "dstar.loop_ms": ns(m, "dstar.loop"),
        "dstar.loop_expansions": cnt(m, "dstar.loop_expansions"),
        "planner.loops_repaired": cnt(m, "planner.loops_repaired"),
        "planner.loops_skipped": cnt(m, "planner.loops_skipped"),
        "planner.loop_useful_frac":
            tracer.count[m, "planner.loops_useful"] / repaired if repaired else 0.0,
        "dstar.main_ms": ns(m, "dstar.main"),
        "dstar.main_expansions": cnt(m, "dstar.main_expansions"),
        "planner.main_restarts": cnt(m, "planner.main_restarts"),
        "dstar.expansions_per_s": expansions / (search_ns / 1e9) if search_ns else 0.0,
        "dstar.extract_ms": ns(m, "dstar.extract"),
        "dstar.update_ms": ns(m, "dstar.update"),
        "dstar.heap_entries_max": tracer.heap_max,
        "dstar.g_entries": cnt(m, "dstar.g_entries"),
        "hoa.parse_ms": ns("setup", "hoa.parse"),
        "hoa.chi_ms": ns("setup", "hoa.chi"),
        "product.build_ms": ns("setup", "product.build"),
        "product.states": cnt("setup", "product.states"),
        "product.edges": cnt("setup", "product.edges"),
        "world.to_wts_ms": ns("setup", "world.to_wts"),
        "world.sense_ms": ns(m, "world.sense"),
        "world.sense_calls": cnt(m, "world.sense_calls"),
        "product.map_ms": ns(m, "product.map"),
        "product.apply_ms": ns(m, "product.apply"),
        "product.edge_changes": cnt(m, "product.edge_changes"),
        "product.created_edges": cnt(m, "product.created_edges"),
        "planner.initial_ms": ns(m, "planner.initial"),
        "planner.replan_ms": ns(m, "planner.replan"),
        "planner.other_ms": ns(m, "planner.other"),
        "simulate.steps": cnt(m, "simulate.steps"),
        "simulate.events": cnt(m, "simulate.events"),
        "baselines.fresh_ms_p50":
            statistics.median(t for t, _ in fresh) / 1e6 if fresh else 0.0,
        "baselines.fresh_pops": statistics.median(p for _, p in fresh) if fresh else 0,
        "trace.overhead_frac": overhead,
    }


if __name__ == "__main__":
    sys.exit(main())
