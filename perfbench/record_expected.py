"""Record expected.json: the outputs and exact counts the benchmark gates on.

Usage: python3 perfbench/record_expected.py

Runs every check configuration once through the CLI and keeps its verdict
(result, states, transitions, depth, run, cycle), then one traced round of
each check workload and keeps its count figures, which do not depend on the
seed.  The README's figures are asserted as anchors, so a recording from
code that changed a verdict or a count fails here rather than being kept.
Rerun it only on purpose, when a change is meant to alter these outputs.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import measure  # puts scmc on the path
import workloads

# (label, states, transitions, max_depth, run length) from the README
ANCHORS = (
    ("piranha 2x2 Q3 k=1", 2479, 12661, 14, None),
    ("piranha 2x2 Q3 k=2", 32661, 164556, 20, None),
    ("piranha-buggy 2x2 Q3 k=2", 109686, 357747, 12, 12),
)
README_RUN = ("ACKX(2,2) UPD(2) ACKS(1,2) ACKX(2,2) ACKX(1,1) UPD(1) "
              "UPD(1) W(1,1,1) R(1,2,0) UPD(2) W(2,2,1) R(2,1,0)")


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"record_expected.py: {message}")


def format_run(run: list[dict]) -> str:
    return " ".join(
        f"{e['op']}({e['proc']},{e['loc']},{e['data']})" if "op" in e
        else f"{e['internal']}({','.join(map(str, e['params']))})"
        for e in run
    )


def main() -> int:
    expected = {"check": {}, "counts": {}}
    for configs in workloads.CHECK_CONFIGS.values():
        for config in configs:
            code, text = workloads.run_cli(workloads.check_argv(config))
            verdict = json.loads(text)["verdicts"][0]
            expected["check"][workloads.config_label(config)] = {"exit": code, "verdict": verdict}
    for label, states, transitions, depth, run_len in ANCHORS:
        v = expected["check"][label]["verdict"]
        require((v["states"], v["transitions"], v["max_depth"]) == (states, transitions, depth)
                and (run_len is None) == (v["run"] is None), f"{label} differs from the README")
    buggy_run = expected["check"]["piranha-buggy 2x2 Q3 k=2"]["verdict"]["run"]
    require(format_run(buggy_run) == README_RUN, "BFS counterexample differs from the README")

    workloads.EXPECTED.update(expected)
    scratch = Path(measure.HERE) / "out" / "record"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        for workload in workloads.CHECK_CONFIGS:
            args = argparse.Namespace(workload=workload, seed=0, seconds=0, traced=True)
            result = measure.measure(args, scratch)
            require(result["failed"] == 0 and not result["gate_errors"], f"{workload}: {result}")
            expected["counts"][workload] = {
                name: value for name, value in result["layers"].items() if not measure.is_time(name)
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    path = Path(measure.HERE) / "expected.json"
    path.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
