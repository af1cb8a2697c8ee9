"""rankdual benchmark: three workloads, end-to-end metrics, traced per-layer runs.

Run from the repository root (stdlib only; no install needed)::

    python3 perfbench/run.py --workload large_tables --seed 1 --seconds 25 --trace 0

Workloads (why each was chosen is recorded in BENCHMARK.json):

* ``large_tables`` - single n = 16 tables through the analysis pipeline;
* ``suite_sweep``  - every verification suite at its default params;
* ``cli_files``    - fresh ``python -m rankdual.cli`` processes on documents.

Each run starts fresh processes with a fixed environment: a few set-up
probes (import, seeded inputs, cache warm-up) whose median is ``setup_s``,
then one worker that measures for ``--seconds`` and checks every output.
With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced round and the
tracing overhead. The last stdout line is the JSON result; the lines before
it record the environment and every metric with its unit. Scratch files,
traces and a full result record go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import TRACED
from worker import CLI_COMMANDS, SCRATCH, SUITE_NAMES, WORKLOADS, Clock, environment, tail

SETUP_PROBES = 5
RUN_LIMIT_S = 170
# Fixed child environment: a stray RANKDUAL_THREADS or PYTHONPATH in the
# caller's shell must not change the measured program.
CHILD_ENV = {
    "PATH": os.defpath,
    "PYTHONPATH": "src",
    "PYTHONHASHSEED": "0",
    "PYTHONUTF8": "1",
}
OVERHEAD_METRICS = ("analyze_s", "sweep_s", "cli_p50_s")

END_TO_END = (
    ("setup_s", "s"),
    ("analyze_s", "s"),
    ("sweep_s", "s"),
    ("cli_p50_s", "s"),
    ("cli_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric a traced run reports."""
    out = []
    for layer, fn, counters in TRACED:
        base = f"{layer}.{fn}"
        if fn == "enumerate_tables":
            out += [(f"{base}.s", "s"), (f"{base}.tables", "count")]
            continue
        out += [(f"{base}.s", "s"), (f"{base}.calls", "count")]
        out += [(f"{base}.{counter}", "count") for counter in counters]
    for suite in SUITE_NAMES:
        out += [(f"verify.{suite}.s", "s"), (f"verify.{suite}.instances", "count")]
    out += [("import.rankdual.s", "s"), ("import.rankdual.calls", "count")]
    out += [(f"cli.{name}.s", "s") for name, _ in CLI_COMMANDS]
    out += [(f"trace_overhead.{name}", "s") for name in OVERHEAD_METRICS]
    return out


def run_child(argv: list[str], deadline: float) -> dict:
    """Run a child to completion and parse the JSON on its last stdout line."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(argv, env=CHILD_ENV, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:3])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rankdual benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "rankdual", "__init__.py")):
        print("error: run from the root of a rankdual checkout (src/rankdual not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(SCRATCH, exist_ok=True)
    env = environment(args.seed, args.workload)
    worker = [sys.executable, os.path.join(os.path.dirname(__file__), "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed)]
    try:
        # Untimed: compile the package once so that no probe pays for it.
        subprocess.run([sys.executable, "-c", "import rankdual"], env=CHILD_ENV, check=True,
                       capture_output=True, timeout=60)
        probes = [Clock(run_child, worker + ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
        record = run_child(worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    notes = {}
    if args.trace:
        units = dict(per_layer_metrics())
        values = layer_values(record)
        metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}
    else:
        # Per table kind and per (command, document): the median of its
        # units, so that the mix is the same however many units a run got.
        kinds = per_label(record["analyze"])
        commands = per_label(record["cli"])
        cli_tail = tail(list(commands.values()))
        if cli_tail is None:
            print(f"error: {len(commands)} CLI commands are too few for a tail", file=sys.stderr)
            return 1
        values = {
            # the probe reports its own set-up time; scale it like its wall time
            "setup_s": statistics.median(p.result["setup_s"] * p.scaled / p.raw for p in probes),
            "analyze_s": sum(kinds.values()),
            "sweep_s": statistics.median(scaled for _, scaled, _ in record["sweep"]),
            "cli_p50_s": statistics.median(commands.values()),
            "cli_tail_s": cli_tail[0],
            # a child's peak includes the worker's pages at the fork
            "peak_rss_mb": max(record["peak_rss_mb"].values()),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        notes = {
            "setup_s": f"median of {SETUP_PROBES} fresh processes; "
                       f"raw {statistics.median(p.result['setup_s'] for p in probes):.4g} s",
            "analyze_s": f"sum over {len(kinds)} table kinds of the median of their "
                         f"{len(record['analyze'])} units; raw {sum(per_label(record['analyze'], 2).values()):.4g} s",
            "sweep_s": f"median of {len(record['sweep'])} sweeps; "
                       f"raw {statistics.median(raw for _, _, raw in record['sweep']):.4g} s",
            "cli_p50_s": f"median over {len(commands)} commands of the median of {len(record['cli'])} runs; "
                         f"raw {statistics.median(per_label(record['cli'], 2).values()):.4g} s",
            "cli_tail_s": f"p{cli_tail[1]:.1f} of the {cli_tail[2]} command medians, 10 beyond it",
        }

    attempted, failed = record["attempted"], record["failed"]
    print("env: " + json.dumps(env, sort_keys=True))
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}{note}")
    print(f"metric error_rate = {failed / attempted:.6g} ({failed} failed of {attempted} checked operations)")
    for failure in record["failures"]:
        print(f"failure: {failure}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(SCRATCH, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result, "raw": record,
                   "setup_probes": [{**p.result, "scaled": p.scaled, "raw": p.raw} for p in probes]}, fh)
    print(json.dumps(result))
    return 0


def per_label(rows: list, column: int = 1) -> dict:
    """Median of one column of [label, scaled, raw] rows, per label."""
    by_label: dict = {}
    for row in rows:
        by_label.setdefault(row[0], []).append(row[column])
    return {label: statistics.median(values) for label, values in by_label.items()}


def layer_values(record: dict) -> dict:
    values = {}
    for name, entry in record["layers"].items():
        for key, value in entry.items():
            values[f"{name}.{'tables' if key == 'items' and name.endswith('enumerate_tables') else key}"] = value
    for name, seconds in record["cli_layer"].items():
        values[f"cli.{name}.s"] = seconds
    values["import.rankdual.s"] = record["import"]["s"]
    values["import.rankdual.calls"] = record["import"]["calls"]
    for name, delta in record["overhead"].items():
        values[f"trace_overhead.{name}"] = delta
    return values


if __name__ == "__main__":
    sys.exit(main())
