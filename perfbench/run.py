"""scmc benchmark: four seeded workloads over `scmc check` and trace analysis.

Usage (from the repository root):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see workloads.py):
  check-verify   `scmc check` on the correct protocol; every search closes
  check-bugfind  `scmc check` on the buggy protocol; BFS stops at the first
                 counterexample, which is extracted and re-verified
  analyze-long   `scmc analyze` on long SC traces and on long traces ending in
                 a store-buffer violation
  oracle-short   the oracle cross-check (oracle, graph, cycle, nice cycle) on
                 thousands of short traces, as library calls

Each run measures the workload in a child process of its own (measure.py),
so peak RSS is that run's.  Every operation's output is checked; the last
line of standard output is the result as JSON, and the lines before it
report the error rate and per-class medians and tails with sample counts.

--trace 0 prints the end-to-end metrics.  Times are wall time scaled to a
reference CPU speed (refclock.py); the report lines give the unscaled wall
time too.
  setup_s      median of three set-ups, each generating the inputs from the
               seed; on check-*, whose inputs are only configurations, it
               includes a gated warm-up check of piranha 2x2 Q3 k=1
  wall_s       time of one round of the workload's operations: the sum of each
               operation's mean over the rounds run
  peak_rss_mb  peak RSS of the measuring process
The report lines also give the throughput, a round's work over wall_s:
product states/s on check-*, traces/s on the others.  It is not a metric of
its own, since a round's work is fixed and it only restates wall_s.
--trace 1 runs the workload untraced and then traced, for half the time
each, and prints the per-layer metrics of one round (tracer.py, measure.py)
and the tracing overhead, the traced wall_s minus the untraced one.

Seed 108016 is held out: it was never run while this benchmark was tuned,
so later claims can be checked on it.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from refclock import REFERENCE_S  # noqa: E402
WORKLOADS = ("check-verify", "check-bugfind", "analyze-long", "oracle-short")
# A run must end within 180 s; children are killed past this.
RUN_TIMEOUT_S = 170
WORK_UNITS = {
    "check-verify": "product states",
    "check-bugfind": "product states",
    "analyze-long": "traces",
    "oracle-short": "traces",
}


def child(workload: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if traced:
        cmd.append("--traced")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(res: dict) -> dict:
    return {
        "setup_s": (res["setup_s"], "s"),
        "wall_s": (res["wall_s"], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(plain: dict, traced: dict) -> dict:
    units = {}
    for name, value in traced["layers"].items():
        if name.endswith("_s"):
            units[name] = (value, "s")
        elif name.endswith(("_share", "_per_protocol_state")):
            units[name] = (value, "ratio")
        else:
            units[name] = (value, "count")
    units["checker.bytes_per_state"] = (plain["bytes_per_state"], "B")
    classes = plain["classes"]
    for cls in ("sc", "violating"):
        units[f"analyze.{cls}_trace_s"] = (classes[cls]["median_s"] if cls in classes else 0.0, "s")
    overhead = traced["wall_s"] - plain["wall_s"]
    units["tracing.overhead_s"] = (overhead, "s")
    units["tracing.overhead_share"] = (overhead / plain["wall_s"], "ratio")
    return units


def report(workload: str, runs: list[dict], metrics: dict) -> None:
    """Human-readable lines; the JSON result follows them."""
    for res in runs:
        mode = "traced" if "layers" in res else "untraced"
        attempted, failed = res["attempted"], res["failed"]
        print(f"# {workload} {mode}: {res['rounds']} rounds, {attempted} operations,"
              f" {failed} failed, error_rate {failed / attempted:.4f},"
              f" setup median of {len(res['setup_samples'])},"
              f" {res['work_per_round'] / res['wall_s']:.1f} {WORK_UNITS[workload]}/s")
        print(f"#   unscaled: {res['raw_wall_s']:.6f} s of wall time per round; reference"
              f" kernel median {res['kernel_s']:.6f} s, {REFERENCE_S} s at reference speed")
        for cls, stats in res["classes"].items():
            line = f"#   {cls}: median {stats['median_s']:.6f} s over {stats['samples']} samples"
            if stats["tail"]:
                line += f", p{stats['tail'][0]} {stats['tail'][1]:.6f} s"
            print(line)
        for err in res["errors"] + res["gate_errors"]:
            print(f"#   FAILED {err.strip()}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36} {value:>16.6f} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (HERE.parent / "src" / "scmc").is_dir():
        print("run.py: src/scmc not found; run from a checkout of the repository",
              file=sys.stderr)
        return 1
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        if args.trace:
            runs = [child(args.workload, args.seed, args.seconds / 2, traced, deadline)
                    for traced in (False, True)]
            metrics = per_layer(*runs)
        else:
            runs = [child(args.workload, args.seed, args.seconds, False, deadline)]
            metrics = end_to_end(runs[0])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 1
    report(args.workload, runs, metrics)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and not any(r["gate_errors"] for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
