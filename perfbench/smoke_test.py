#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny length.

    python3 perfbench/smoke_test.py

Run from the repository root. For every workload in BENCHMARK.json, and
the extra ones the benchmark can run by name, it runs the benchmark
untraced and traced at scale 0.05 and asserts that

* the last output line is the result object with exactly the keys
  `correct`, `attempted`, `failed`, `metrics`, and `correct` holds;
* the metrics are exactly the `end_to_end` (untraced) or `per_layer`
  (traced) names of BENCHMARK.json, each with its unit;
* the `report_digest` checks passed: no run failed inside a process,
  and the untraced and traced processes printed the same digest.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Runnable by name but outside the timed set of BENCHMARK.json.
EXTRA_WORKLOADS = ["gcc-startup"]


def run(workload: str, trace: int) -> tuple[dict, str]:
    out = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", "7",
            "--seconds", "1",
            "--trace", str(trace),
            "--scale", "0.05",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert out.returncode == 0, f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr}"
    lines = out.stdout.strip().splitlines()
    digests = [l.split()[-1] for l in lines if l.startswith("perfbench: report_digest ")]
    assert len(digests) == 1, f"{workload} trace={trace}: no report_digest line"
    return json.loads(lines[-1]), digests[0]


def check(result: dict, expected: list, label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(result)}"
    assert result["correct"] is True, f"{label}: not correct"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert result["failed"] == 0, f"{label}: {result['failed']} runs failed"
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    assert set(metrics) == set(want), f"{label}: metric names differ: {set(metrics) ^ set(want)}"
    for name, unit in want.items():
        got = metrics[name]
        assert got["unit"] == unit, f"{label}: {name} unit {got['unit']} != {unit}"
        assert isinstance(got["value"], (int, float)), f"{label}: {name} value {got['value']!r}"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for name in [w["name"] for w in bench["workloads"]] + EXTRA_WORKLOADS:
        untraced, d0 = run(name, 0)
        check(untraced, bench["end_to_end"], f"{name} untraced")
        traced, d1 = run(name, 1)
        check(traced, bench["per_layer"], f"{name} traced")
        assert d0 == d1, f"{name}: report_digest {d0} untraced != {d1} traced"
        print(f"ok {name} report_digest {d0}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
