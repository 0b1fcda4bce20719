"""One measured run of one workload, in a process of its own.

Usage: measure.py --workload W --seed N --seconds S [--traced]

Sets the workload up from the seed several times, then runs rounds of its
operations until the time is spent, checking every output.  All times are
scaled to the reference speed of refclock.py.  Prints one JSON
object with the raw figures; run.py turns it into the benchmark's metrics.
With --traced, wrappers from tracer.py record spans and counts, and the
per-layer figures of each round are added.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs scmc on the path)
from refclock import REFERENCE_S, RefClock, time_kernel  # noqa: E402

SETUP_REPEATS = 3


def is_time(name: str) -> bool:
    """Layer figures named *_s are times; all others are exact counts."""
    return name.endswith("_s")


def rss_bytes() -> int:
    with open("/proc/self/statm") as fp:
        return int(fp.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def layer_figures(totals: dict, counts: Counter, exact: Counter, scale: float) -> dict:
    """Per-layer figures of one round from span totals and counts; times are
    multiplied by `scale`, the round's reference-speed factor."""
    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    edges = counts["protocol.successor_edges"]
    succ_calls = calls("protocol.successors")
    figures = {
        "protocol.successors_s": total_s("protocol.successors"),
        "protocol.successors_calls": succ_calls,
        "protocol.successor_edges": edges,
        "protocol.read_selfloop_share": counts["protocol.read_selfloops"] / edges if edges else 0.0,
        "protocol.encode_s": total_s("protocol.encode"),
        "protocol.encode_calls": calls("protocol.encode"),
        "protocol.decode_s": total_s("protocol.decode"),
        "protocol.decode_calls": calls("protocol.decode"),
        "checker.search_self_s": self_s("checker.model_check"),
        "checker.extract_s": total_s("checker.extract"),
        "checker.states": exact["states"],
        "checker.transitions": exact["transitions"],
        "checker.max_depth": exact["max_depth"],
        "checker.product_per_protocol_state": exact["states"] / succ_calls if succ_calls else 0.0,
        "events.parse_s": total_s("events.parse"),
        "analysis.precheck_s": total_s("analysis.precheck"),
        "analysis.oracle_s": total_s("analysis.oracle"),
        "analysis.oracle_calls": calls("analysis.oracle"),
        "witness.build_s": total_s("witness.build"),
        "witness.find_cycle_s": total_s("witness.find_cycle"),
        "witness.graph_successors_calls": counts["witness.graph_successors_calls"],
        "witness.nice_cycle_s": total_s("witness.nice_cycle"),
        "witness.loc_edge_label_calls": counts["witness.loc_edge_label_calls"],
        "witness.verify_s": total_s("witness.verify"),
        "cli.self_s": self_s("cli.main"),
    }
    return {name: v * scale if is_time(name) else v for name, v in figures.items()}


def tail(samples: list[float]):
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    for pct in (99, 95, 90, 75):
        if len(samples) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
    return None


def run_op(op, errors: list[str], tracer) -> tuple[dict | None, float]:
    """Run and check one operation: its exact counts, or None if it failed,
    and its wall time.  A failed operation keeps its time; it is counted,
    never skipped.
    """
    if tracer is not None:
        tracer.active = True
    t0 = perf_counter()
    try:
        out = op.run()
    except (Exception, SystemExit) as exc:
        return fail(op, exc, errors), perf_counter() - t0
    finally:
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.active = False
    try:
        return op.check(out), elapsed
    except Exception as exc:
        return fail(op, exc, errors), elapsed


def fail(op, exc: BaseException, errors: list[str]) -> None:
    traceback.print_exception(exc, file=sys.stderr)
    errors.append(f"{op.label}: {type(exc).__name__}: {exc}")


def measure(args, scratch: Path) -> dict:
    setup = []
    for _ in range(SETUP_REPEATS):
        before = time_kernel()
        t0 = perf_counter()
        ops = workloads.build(args.workload, args.seed, scratch)
        for op in workloads.warmup(args.workload):
            op.check(op.run())
        elapsed = perf_counter() - t0
        setup.append(elapsed * REFERENCE_S / ((before + time_kernel()) / 2))

    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    rss_before = rss_bytes()
    # compact arrays, so that the samples of a long run barely add to RSS
    samples = {op.label: array("d") for op in ops}
    clock = RefClock()
    attempted = failed = 0
    errors: list[str] = []
    round_layers: list[dict] = []
    round_times: list[float] = []
    start = perf_counter()
    while True:
        r0 = perf_counter()
        exact: Counter = Counter()
        round_raw = 0.0
        for op in ops:
            attempted += 1
            if tracer is not None:
                tracer.op_id = attempted
            counts, elapsed = run_op(op, errors, tracer)
            round_raw += elapsed
            for label, scaled in clock.add(op.label, elapsed):
                samples[label].append(scaled)
            if counts is None:
                failed += 1
                continue
            exact["states"] += counts.get("states", 0)
            exact["transitions"] += counts.get("transitions", 0)
            exact["max_depth"] = max(exact["max_depth"], counts.get("max_depth", 0))
        for label, scaled in clock.flush():
            samples[label].append(scaled)
        round_times.append(perf_counter() - r0)
        if tracer is not None:
            # the round's own scale, so that layer times match the scaled wall_s
            scale = sum(samples[op.label][-1] for op in ops) / round_raw
            round_layers.append(layer_figures(*tracer.take_round(), exact, scale))
        # stop where another round would more likely end past the time than
        # before it; the first round always runs
        if perf_counter() - start + statistics.median(round_times) / 2 >= args.seconds:
            break

    peak = peak_rss_bytes()  # before the statistics below allocate
    gate_errors = []
    # the mean over rounds uses every sample; the scaling has taken out the
    # slow phases that a median would otherwise have to reject
    per_op = {label: statistics.fmean(ts) for label, ts in samples.items()}
    wall_s = sum(per_op.values())
    classes = {}
    for cls in dict.fromkeys(op.cls for op in ops):
        medians = [per_op[op.label] for op in ops if op.cls == cls]
        pooled = [t for op in ops if op.cls == cls for t in samples[op.label]]
        classes[cls] = {"median_s": statistics.median(medians),
                        "samples": len(pooled), "tail": tail(pooled)}
    bytes_per_state = 0.0
    if args.workload in workloads.CHECK_CONFIGS:
        # searches free their memory when they end, so the largest one sets
        # the peak
        bytes_per_state = (peak - rss_before) / max(op.work for op in ops)
    result = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "rounds": len(round_times),
        "setup_s": statistics.median(setup),
        "setup_samples": setup,
        "wall_s": wall_s,
        "raw_wall_s": clock.raw_s / len(round_times),
        "kernel_s": statistics.median(clock.kernel_samples),
        "work_per_round": sum(op.work for op in ops),
        "peak_rss_mb": peak / 2**20,
        "bytes_per_state": bytes_per_state,
        "classes": classes,
    }
    if tracer is not None:
        layers = {}
        for name in round_layers[0]:
            values = [r[name] for r in round_layers]
            if is_time(name):
                layers[name] = statistics.median(values)
            elif any(v != values[0] for v in values):
                gate_errors.append(f"{name} differs between rounds: {values}")
            else:
                layers[name] = values[0]
        want = workloads.EXPECTED["counts"].get(args.workload, {})
        for name, value in want.items():
            if layers.get(name) != value:
                gate_errors.append(f"{name} = {layers.get(name)}, recorded {value}")
        result["layers"] = layers
        tracer.uninstall()
        tracer.write(HERE / "out" / f"spans-{args.workload}")
    result["gate_errors"] = gate_errors
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    scratch = HERE / "out" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
