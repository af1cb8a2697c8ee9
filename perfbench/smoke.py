"""Quick check that the benchmark emits every metric BENCHMARK.json names.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced with ``--seconds 1``
(about four minutes in all) and checks that the last stdout line is a
result with exactly the keys correct, attempted, failed and metrics, that
every named metric is there with its unit, that every time is above zero,
and that no check failed. It
also checks that the benchmark refuses to run outside a checkout. Run from
the repository root; exits 1 on the first problem.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile


def fail(message: str) -> None:
    print(f"smoke: FAIL: {message}")
    sys.exit(1)


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = bench["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                                      "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-1000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload} trace={trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{workload} trace={trace}: {result['failed']} of {result['attempted']} failed")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                fail(f"{workload} trace={trace}: missing {missing}, unexpected {extra}, or wrong units")
            zero = [name for name, m in result["metrics"].items()
                    if m["unit"] in ("s", "MB") and not name.startswith("trace_overhead.") and m["value"] <= 0]
            if zero:
                fail(f"{workload} trace={trace}: not above zero: {zero}")
            print(f"smoke: ok {workload} trace={trace} ({len(got)} metrics)")

    # Outside a checkout (only BENCHMARK.json and the benchmark's files) the
    # benchmark must fail without printing a result.
    with tempfile.TemporaryDirectory(dir=".") as bare:
        shutil.copy("BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(path, os.path.join(bare, path), ignore=shutil.ignore_patterns("__pycache__"))
        cmd = bench["command"] + ["--workload", bench["workloads"][0]["name"], "--seed", "1",
                                  "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            fail("ran outside a checkout")
    print("smoke: ok outside a checkout")
    return 0


if __name__ == "__main__":
    sys.exit(main())
