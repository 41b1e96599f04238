"""Mission benchmark for tlreplan: one command, inputs generated from --seed.

    python3 perfbench/run.py --workload grid-abcd --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --workload all --seed 1 --self-check

Each workload runs in its own child process (child.py), one after another,
under an address-space limit and a wall-clock timeout. This process reads
the child's JSON lines, prints a table of every metric with its unit and
sample count, and ends with one JSON line: with --trace 0 the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
--seconds defaults to BENCHMARK.json's run_seconds.

A mission fails when it raises, overruns the simulator's step budget,
disagrees with the from-scratch replay, or is cut by the memory limit or
the timeout. `correct` is true only when no mission failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MEMORY_LIMIT = 2 << 30   # bytes of address space for one workload's process
CHILD_TIMEOUT = 160      # seconds; one run must end within 180


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_child(name: str, seed: int, seconds: float, trace: int, missions=None) -> dict:
    """Run one workload's child process and collect its JSON lines by type."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if missions is not None:
        cmd += ["--missions", str(missions)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            preexec_fn=_limit_memory, cwd=ROOT)
    timed_out = False
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        timed_out = True
    lines = {"start": [], "begin": [], "mission": [], "failed": [], "checked": [], "trace": [],
             "done": []}
    for raw in out.splitlines():
        try:
            line = json.loads(raw)
        except json.JSONDecodeError:
            continue
        lines.setdefault(line.get("type"), []).append(line)
    lines["returncode"] = proc.returncode
    lines["timed_out"] = timed_out
    lines["stderr"] = err
    return lines


def nearest_rank(sorted_values, pct: float):
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1], len(sorted_values) - int(rank)


def summarize(workload, lines) -> dict:
    """Outcome counts and every end-to-end metric, each with unit and sample count."""
    missions = {m["i"]: m for m in lines["mission"]}
    attempted = len(lines["begin"])
    checked = {c["i"] for c in lines["checked"]}
    failed = attempted - len(checked & set(missions))
    reasons = [f"mission {f['i']}: {f['reason']}" for f in lines["failed"]]
    if not lines["done"]:
        reasons.append("child did not finish: " + (
            "timeout" if lines["timed_out"] else f"exit code {lines['returncode']}"))
    result = {"attempted": attempted, "failed": failed, "reasons": reasons, "metrics": {}}
    if not missions:
        return result
    ms = list(missions.values())
    replans = sorted(ns / 1e6 for m in ms for ns in m["replan_ns"])
    setups = [ns for m in ms for ns in m["setup_ns"]]
    metrics = {
        "setup_s": (statistics.median(setups) / 1e9, "s", f"median of {len(setups)} set-ups"),
        "initial_plan_ms": (statistics.median(m["initial_ns"] for m in ms) / 1e6, "ms",
                            f"median of {len(ms)} missions"),
        "mission_s": (statistics.median(m["mission_ns"] for m in ms) / 1e9, "s",
                      f"median of {len(ms)} missions"),
        "peak_rss_mb": (max(m["rss_mb"] for m in ms), "MB",
                        f"1 process, {len(ms)} missions; {lines['start'][0]['rss_mb']:.1f} MB "
                        "before the first"),
        "failed_frac": (failed / attempted, "1", f"{failed} of {attempted} missions"),
    }
    if replans:
        metrics["replan_ms_p50"] = (statistics.median(replans), "ms",
                                    f"median of {len(replans)} events")
        tail, beyond = nearest_rank(replans, workload.tail_pct)
        metrics["replan_ms_tail"] = (tail, "ms", f"p{workload.tail_pct} of {len(replans)} "
                                                 f"events, {beyond} beyond")
    result["metrics"] = metrics
    return result


def benchmark_spec(key: str):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[key]


def print_table(name: str, seed: int, summary: dict, layers: dict | None):
    print(f"== {name} (seed {seed}): {summary['attempted']} missions attempted, "
          f"{summary['failed']} failed")
    for metric, (value, unit, samples) in summary["metrics"].items():
        print(f"  {metric:<16} {value:>12.4f} {unit:<3} {samples}")
    for line in summary["reasons"][:10]:
        print(f"  FAILED {line}")
    if len(summary["reasons"]) > 10:
        print(f"  ... and {len(summary['reasons']) - 10} more failures")
    if layers:
        print("  per layer, per mission (traced run):")
        for metric, value in layers["metrics"].items():
            print(f"    {metric:<26} {value:>14.4f}")
        if layers["absent"]:
            print(f"    absent layers: {', '.join(layers['absent'])}")


def run_workload(name: str, seed: int, seconds: float, trace: int):
    """Run, print the table; returns (summary, per-layer metrics or None, finished)."""
    lines = run_child(name, seed, seconds, trace)
    summary = summarize(WORKLOADS[name], lines)
    layers = lines["trace"][0] if lines["trace"] else None
    print_table(name, seed, summary, layers)
    finished = bool(lines["done"]) or bool(lines["mission"])
    if not finished:
        sys.stderr.write(lines["stderr"][-4000:])
    return summary, layers, finished


def result_line(summary, layers, trace: int) -> dict | None:
    """The JSON result: BENCHMARK.json's metrics; None if one of them was not measured."""
    if trace:
        declared = benchmark_spec("per_layer")
        values = layers["metrics"] if layers else {}
    else:
        declared = benchmark_spec("end_to_end")
        values = {k: v[0] for k, v in summary["metrics"].items()}
    if any(d["name"] not in values for d in declared):
        return None
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
                    for d in declared},
    }


def self_check(names, seed: int) -> int:
    """Deterministic counters repeat for one seed; another seed changes the inputs."""
    ok = True
    for name in names:
        runs = [run_child(name, s, 0, 1, missions=2) for s in (seed, seed, seed + 1)]
        views = [[(m["counters"], m.get("layer_counts")) for m in r["mission"]] for r in runs]
        inputs = [[b["inputs"] for b in r["begin"]] for r in runs]
        checks = {
            "every mission ran and passed the replay":
                all(len(r["checked"]) == 2 and not r["failed"] for r in runs),
            "counters repeat with one seed": views[0] == views[1] and bool(views[0]),
            "inputs repeat with one seed": inputs[0] == inputs[1],
            "another seed changes the inputs": inputs[0] != inputs[2],
        }
        for what, passed in checks.items():
            print(f"{name}: {'PASS' if passed else 'FAIL'} {what}")
            ok &= passed
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="check determinism and seed sensitivity instead of measuring")
    args = ap.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.self_check:
        return self_check(names, args.seed)
    if args.seconds is None:
        args.seconds = benchmark_spec("run_seconds")

    results = {}
    for name in names:
        summary, layers, finished = run_workload(name, args.seed, args.seconds, args.trace)
        result = result_line(summary, layers, args.trace) if finished else None
        if result is None:
            print(f"error: workload {name} produced no result", file=sys.stderr)
            return 1
        results[name] = result
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                          "workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
