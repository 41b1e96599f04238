"""Command-line entry points: build | simulate | bench.

Exit codes: 0 success, 1 input/parse errors, 2 usage errors (argparse),
3 no accepting run exists (task infeasible in the requested mode).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import statistics
import sys
from importlib import resources

from .hoa import HoaParseError, parse_nba_file
from .planner import NoAcceptingRun, check_beta
from .product import build_product, build_relaxed_product
from .simulate import (ALGORITHMS, MODES, TraceReport, simulate, write_trace_csv,
                       write_trace_json)
from .world import Belief, check_cells, load_scenario, random_map, scenario_from_dict, to_wts
from .wts import load_wts

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 3

BENCH_HEADER = ["size", "seed", "algorithm", "status", "events", "steps",
                "initial_ns", "replan_ns_min", "replan_ns_q1", "replan_ns_median",
                "replan_ns_q3", "replan_ns_max", "loop_violation", "loop_travel"]
SUMMARY_HEADER = ["size", "algorithm", "trials", "completed", "avg_loop_travel",
                  "avg_loop_violation", "median_replan_ns", "speedup_vs_ltl_dstar"]

log = logging.getLogger("tlreplan")


def asset_path(name: str):
    return resources.files("tlreplan").joinpath("assets", name)


def _load_nba(spec: str):
    if spec.startswith("builtin:"):
        return parse_nba_file(asset_path(spec[len("builtin:"):] + ".hoa"))
    return parse_nba_file(spec)


def cmd_build(args) -> int:
    try:
        nba = _load_nba(args.nba)
    except (HoaParseError, OSError) as exc:
        print(f"error: {args.nba}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        with open(args.scenario, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        if "states" in data:
            wts = load_wts(args.scenario, nba.universe)
        else:
            scenario = scenario_from_dict(data)
            check_cells(scenario.width * scenario.height, nba.n_states)
            wts = to_wts(scenario, Belief(), nba.universe)
        pa = build_product(wts, nba)
    except (ValueError, KeyError) as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    stats = {
        "nba_states": nba.n_states,
        "nba_transitions": nba.n_transitions,
        "wts_states": wts.n_states,
        "wts_transitions": wts.n_edges,
        "pa_states": pa.n_states,
        "pa_transitions": pa.n_edges,
    }
    if args.relaxed:
        rpa = build_relaxed_product(wts, nba)
        stats["relaxed_pa_states"] = rpa.n_states
        stats["relaxed_pa_transitions"] = rpa.n_edges
    print(json.dumps(stats, indent=1))
    return EXIT_OK


def _scenario_for(args):
    if args.scenario == "random":
        if args.seed is None:
            raise ValueError("scenario 'random' needs --seed")
        return random_map(args.seed, args.size, args.density)
    return load_scenario(args.scenario)


def cmd_simulate(args) -> int:
    try:
        check_beta(args.beta)
    except ValueError as exc:
        print(f"error: --beta: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.loops < 1:
        print(f"error: --loops must be >= 1, got {args.loops}", file=sys.stderr)
        return EXIT_ERROR
    try:
        nba = _load_nba(args.nba)
        scenario = _scenario_for(args)
        report = simulate(scenario, nba, beta=args.beta, mode=args.mode,
                          algo=args.algo, loops=args.loops)
    except (ValueError, KeyError, OSError) as exc:  # parse, JSON and range errors too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.trace_out:
        write_trace_csv(report, args.trace_out + ".csv")
        write_trace_json(report, args.trace_out + ".json")
        log.info("wrote %s.csv and %s.json", args.trace_out, args.trace_out)
    summary = report.to_json_dict()
    summary.pop("events")
    print(json.dumps(summary, indent=1))
    if report.infeasible:
        return EXIT_INFEASIBLE
    return EXIT_OK


def _quartiles(times: list[int]) -> list[int]:
    if not times:
        return [0, 0, 0, 0, 0]
    if len(times) == 1:
        t = times[0]
        return [t, t, t, t, t]
    qs = statistics.quantiles(times, n=4, method="inclusive")
    return [min(times), round(qs[0]), round(qs[1]), round(qs[2]), max(times)]


def cmd_bench(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {args.config}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    sizes = cfg.get("sizes", [10])
    seeds = cfg.get("seeds", [0])
    density = cfg.get("density", 0.4)
    beta = cfg.get("beta", 10)
    mode = cfg.get("mode", "plain")
    algorithms = cfg.get("algorithms", [])
    loops = cfg.get("loops", 1)
    nba_spec = cfg.get("nba", "builtin:sequence_abcd")
    out_path = cfg.get("output", "bench.csv")
    summary_path = cfg.get("summary_output")
    if not algorithms:
        print("error: config lists no algorithms", file=sys.stderr)
        return 2
    for algo in algorithms:
        if algo not in ALGORITHMS:
            print(f"error: unknown algorithm {algo!r}", file=sys.stderr)
            return 2
    try:
        check_beta(beta)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if loops < 1:
        print("error: loops must be >= 1", file=sys.stderr)
        return 2
    if mode not in MODES:
        print(f"error: unknown mode {mode!r}", file=sys.stderr)
        return 2
    if any(s < 4 for s in sizes):
        print("error: sizes must be >= 4", file=sys.stderr)
        return 2

    try:
        nba = _load_nba(nba_spec)
    except (HoaParseError, OSError) as exc:
        print(f"error: {nba_spec}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    rows = []
    reports: dict[tuple, TraceReport] = {}
    for size in sizes:
        for seed in seeds:
            try:
                scenario = random_map(seed, size, density, nba=nba)
            except ValueError as exc:  # bad config, same for every map
                print(f"error: {args.config}: {exc}", file=sys.stderr)
                return EXIT_ERROR
            except RuntimeError as exc:
                log.warning("size=%s seed=%s: %s", size, seed, exc)
                for algo in algorithms:
                    rows.append([size, seed, algo, "error", 0, 0, 0, 0, 0, 0, 0, 0, "", ""])
                continue
            for algo in algorithms:
                try:
                    rep = simulate(scenario, nba, beta=beta, mode=mode,
                                   algo=algo, loops=loops)
                except Exception as exc:  # flagged, run continues
                    log.warning("size=%s seed=%s algo=%s failed: %s", size, seed, algo, exc)
                    rows.append([size, seed, algo, "error", 0, 0, 0, 0, 0, 0, 0, 0, "", ""])
                    continue
                reports[(size, seed, algo)] = rep
                status = "ok" if rep.completed else ("infeasible" if rep.infeasible else "halted")
                q = _quartiles(rep.replan_times_ns())
                rows.append([size, seed, algo, status, len(rep.events), rep.steps,
                             rep.initial_ns, *q,
                             rep.traversed_violation, rep.traversed_travel])
                log.info("size=%s seed=%s algo=%s events=%s median=%sns",
                         size, seed, algo, len(rep.events), q[2])

    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BENCH_HEADER)
        writer.writerows(rows)
    print(f"wrote {out_path} ({len(rows)} rows)")

    if summary_path:
        _write_summary(summary_path, sizes, seeds, algorithms, reports)
        print(f"wrote {summary_path}")
    return EXIT_OK


def _write_summary(path, sizes, seeds, algorithms, reports):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for size in sizes:
            medians = {}
            for algo in algorithms:
                times = []
                for seed in seeds:
                    rep = reports.get((size, seed, algo))
                    if rep is not None:
                        times.extend(rep.replan_times_ns())
                medians[algo] = statistics.median(times) if times else 0
            base = medians.get("ltl-dstar", 0)
            for algo in algorithms:
                reps = [reports[(size, seed, algo)] for seed in seeds
                        if (size, seed, algo) in reports]
                done = [r for r in reps if r.completed]
                avg_t = statistics.mean([r.traversed_travel for r in done]) if done else ""
                avg_v = statistics.mean([r.traversed_violation for r in done]) if done else ""
                speedup = round(medians[algo] / base, 2) if base and medians[algo] else ""
                writer.writerow([size, algo, len(reps), len(done), avg_t, avg_v,
                                 round(medians[algo]), speedup])


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlreplan",
        description="Incremental temporal-logic replanning over Buchi product automata.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="parse inputs and print product sizes")
    p_build.add_argument("nba", help="automaton file (HOA v1 subset) or builtin:<name>")
    p_build.add_argument("scenario", help="grid scenario or waypoint-graph JSON")
    p_build.add_argument("--relaxed", action="store_true", help="also build the relaxed product")
    p_build.set_defaults(func=cmd_build)

    p_sim = sub.add_parser("simulate", help="run one mission simulation")
    p_sim.add_argument("nba")
    p_sim.add_argument("scenario", help="scenario JSON path, or 'random' with --seed/--size")
    p_sim.add_argument("--beta", type=int, default=10)
    p_sim.add_argument("--mode", choices=list(MODES), default="plain")
    p_sim.add_argument("--algo", choices=list(ALGORITHMS), default="ltl-dstar")
    p_sim.add_argument("--loops", type=int, default=1)
    p_sim.add_argument("--trace-out", help="write <prefix>.csv and <prefix>.json traces")
    p_sim.add_argument("--seed", type=int, help="seed for scenario 'random'")
    p_sim.add_argument("--size", type=int, default=10, help="grid size for scenario 'random'")
    p_sim.add_argument("--density", type=float, default=0.4, help="obstacle density for 'random'")
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("bench", help="run a benchmark sweep from a JSON config")
    p_bench.add_argument("config")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("TLREPLAN_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except NoAcceptingRun as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
