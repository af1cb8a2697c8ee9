"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1-10] [--trace 0|1] [--out FILE]

Without ``--workload`` every workload in BENCHMARK.json runs. For every
end-to-end metric it prints the median and the interquartile range as a
share of the median (``statistics.quantiles(values, n=4)``) next to the
metric's bound. ``--out`` writes every value as JSON. Run from the
repository root.

``perfbench/baseline.json`` holds the ``--out`` files of ``--seeds 1-10``
(``untraced``), ``--seeds 11-20`` (``untraced_second_set``) and
``--trace 1 --seeds 1`` (``traced``) on the commit that added the benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(bench: dict, workload: str, seeds: list[int], trace: int) -> dict:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in seeds:
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        env = json.loads(lines[0][len("env: "):])
        runs.append({"seed": seed, "env": env, **json.loads(lines[-1])})
        print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
              f"failed={runs[-1]['failed']}/{runs[-1]['attempted']}", file=sys.stderr)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        entry = {"unit": runs[0]["metrics"][name]["unit"], "median": statistics.median(values)}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3)
            if entry["median"]:
                entry["iqr_share"] = (q3 - q1) / abs(entry["median"])
        entry["values"] = values
        summary[name] = entry
        if name in bounds:
            print(f"{workload:13s} {name:12s} median={entry['median']:<10.6g} {entry['unit']:3s} "
                  f"iqr/median={entry.get('iqr_share', float('nan')):.4f} bound={bounds[name]}")
    return {"runs": runs, "summary": summary}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    results = {w: spread(bench, w, seed_list(args.seeds), args.trace) for w in workloads}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"trace": args.trace, "seeds": args.seeds, "workloads": results}, fh, indent=1)
    return 0 if all(r["correct"] for w in results.values() for r in w["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
