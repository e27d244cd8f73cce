"""Smoke test for the benchmark harness.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json on seed 0 at minimal length
(--seconds 1, which still makes two rounds) and checks that the last line
names every end-to-end metric with its declared unit, that the error-rate
line is printed with its base, and that no operation failed. One traced
gate600 run checks the per-layer metrics the same way. Exits non-zero on the
first mismatch.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 0


def run(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(SEED),
                             "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload}: exit code {proc.returncode}\n{proc.stderr}")
    return proc.stdout.strip().splitlines()


def check(lines: list[str], expected: list[dict], label: str) -> int:
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"{label}: result keys are {sorted(result)}")
    if not any(line.startswith("error_rate ") and "attempted" in line for line in lines):
        sys.exit(f"{label}: no error_rate line with its base")
    if result["failed"] != 0 or not result["correct"]:
        sys.exit(f"{label}: {result['failed']} of {result['attempted']} operations failed")
    got = result["metrics"]
    for metric in expected:
        entry = got.get(metric["name"])
        if entry is None:
            sys.exit(f"{label}: metric {metric['name']} missing")
        if entry["unit"] != metric["unit"]:
            sys.exit(f"{label}: {metric['name']} has unit {entry['unit']}, "
                     f"expected {metric['unit']}")
    extra = set(got) - {m["name"] for m in expected}
    if extra:
        sys.exit(f"{label}: metrics not declared in BENCHMARK.json: {sorted(extra)}")
    print(f"ok {label}: {len(expected)} metrics, error_rate 0 of {result['attempted']}")
    return 0


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in spec["workloads"]:
        name = workload["name"]
        check(run(spec, name, 0), spec["end_to_end"], name)
    check(run(spec, "gate600", 1), spec["per_layer"], "gate600 traced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
