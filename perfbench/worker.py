"""One benchmark process: build the inputs, run one workload, check outputs.

Started by ``perfbench/run.py`` from the repository root with a fixed
environment (``PYTHONPATH=src``, ``PYTHONHASHSEED=0``, no
``RANKDUAL_THREADS``)::

    python3 perfbench/worker.py --workload large_tables --seed 1 --seconds 25 --trace 0
    python3 perfbench/worker.py --workload cli_files --seed 1 --setup-only

The last stdout line is one JSON object with the raw measurements.

Every workload runs all three user paths, so every end-to-end metric exists
on every workload; the workload's ``share`` decides which path gets most of
the run's time, and the paths take turns unit by unit across the run:

* analysis: one table of each kind through the fixed pipeline in
  ``analyse_table`` (n = 16 on ``large_tables``, n = 8 elsewhere);
* sweep: every suite through ``run_suite`` plus the enumerations and
  censuses (default params on ``suite_sweep``, tiny params elsewhere);
* cli: every command in a fresh ``python -m rankdual.cli`` process on the
  two rank-table fixtures and seeded n = 10 documents, plus seeded n = 14
  documents on ``cli_files``.

Timings are in reference seconds (see ``Clock``); every output is checked
and each mismatch counts as a failed operation.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

SETUP_START = time.perf_counter()

from tracing import Tracer, dump, summarize  # noqa: E402  (perfbench/ is sys.path[0])

SCRATCH = ".perfbench"
CLI_TIMEOUT_S = 120

SUITE_NAMES = (
    "involution", "exchange", "contract_formula", "direct_sum_dual",
    "recursion_oracle", "duality_swap", "polynomiality", "contract_feasibility",
    "minor_agreement", "dual_greedoid_axioms", "greedoid_intersection",
    "root_adjacency", "full_dual_nonpositive", "closure_dual_rank",
    "convex_zero_dual", "nullity_monotone", "demimatroid_characterization",
    "branching_goldens", "pruning_goldens",
)
RANDOMIZED = {
    "involution", "exchange", "contract_formula", "direct_sum_dual",
    "recursion_oracle", "duality_swap", "polynomiality", "nullity_monotone",
    "demimatroid_characterization",
}
# Many small random tables rather than a few larger ones, so that the cost
# of the corpus hardly depends on the seed.
_SMALL_CORPUS = {"count": 200, "max_n": 3}
# Params of the short sweep that the non-sweep workloads run: each suite
# gets only the keys it reads, at the smallest size that still checks it.
QUICK_PARAMS = {
    "involution": _SMALL_CORPUS,
    "exchange": _SMALL_CORPUS,
    "contract_formula": _SMALL_CORPUS,
    "direct_sum_dual": _SMALL_CORPUS,
    "recursion_oracle": _SMALL_CORPUS,
    "duality_swap": _SMALL_CORPUS,
    "polynomiality": _SMALL_CORPUS,
    "contract_feasibility": {"n": 2},
    "minor_agreement": {"n": 2},
    "dual_greedoid_axioms": {"n": 3},
    "greedoid_intersection": {"n": 3},
    "root_adjacency": {"max_edges": 4},
    "full_dual_nonpositive": {"n": 3},
    "closure_dual_rank": {"n": 3, "max_tree_edges": 5},
    "convex_zero_dual": {"n": 3, "max_tree_edges": 5},
    "nullity_monotone": {"n": 2, **_SMALL_CORPUS},
    "demimatroid_characterization": {"n": 2, **_SMALL_CORPUS},
    "branching_goldens": {},
    "pruning_goldens": {},
}
CONSTRAINTS = ("all-normalized-subcardinal-monotone", "greedoid", "matroid", "full-antimatroid")
# Sizes of the sweep's own enumerations and censuses: (enumerate n, tree
# edges, rooted-graph edges). The full sizes match the suites' defaults.
CENSUS = {"full": (4, 8, 6), "quick": (3, 5, 4)}
# Known counts at the full sizes: labeled normalized subcardinal monotone
# tables, greedoids and matroids on 4 elements; free trees with 0..8 edges
# (OEIS A000055); rooted trees with 0..6 edges (OEIS A000081).
ENUM_COUNTS_N4 = {"all-normalized-subcardinal-monotone": 134602, "greedoid": 3012, "matroid": 68}
FREE_TREES = (1, 1, 1, 2, 3, 6, 11, 23, 47)
ROOTED_TREES = (1, 1, 2, 4, 9, 20, 48)

CLI_COMMANDS = (
    ("tutte", ("tutte",)),
    ("tutte_recursive", ("tutte", "--method", "recursive")),
    ("dual", ("dual",)),
    ("check_greedoid", ("check", "greedoid")),
    ("check_matroid", ("check", "matroid")),
    ("check_antimatroid", ("check", "antimatroid")),
)
FIXTURES = ("fixtures/branching_demo_table.json", "fixtures/uniform_u23.json")

LARGE_DOC_N = 14

# Every workload runs all three paths; ``share`` is the part of the run's
# time each path gets. The paths take turns unit by unit (see schedule()),
# so each one is measured across the whole run and not in one window of it.
WORKLOADS = {
    "large_tables": {"analyze_n": 16, "sweep": "quick", "doc_sizes": (10,),
                     "share": {"analyze": 0.65, "sweep": 0.1, "cli": 0.25}},
    "suite_sweep": {"analyze_n": 8, "sweep": "full", "doc_sizes": (10,),
                    "share": {"analyze": 0.1, "sweep": 0.65, "cli": 0.25}},
    "cli_files": {"analyze_n": 8, "sweep": "quick", "doc_sizes": (10, LARGE_DOC_N),
                  "share": {"analyze": 0.1, "sweep": 0.1, "cli": 0.8}},
}
KINDS = ("branching", "pruning", "uniform", "random")
# One analysis unit repeats one table kind this often, so that a unit on
# small tables lasts long enough for the gauge (see Clock).
ANALYZE_REPEATS = {16: 1, 8: 10}


class Checks:
    """Counts checked operations and the ones whose output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def error(self, what: str, exc: BaseException) -> None:
        self.expect(False, f"{what}: {exc!r}")


# The gauge loop's time at the reference speed that scaled times are in
# (about what it takes on a 2-CPU Xeon host), and how often an operation is
# interrupted to run it.
GAUGE_NOMINAL_S = 0.001
GAUGE_PERIOD_S = 0.05


def gauge_s() -> float:
    """Wall time of a fixed pure-Python loop of about a millisecond: how
    fast the host runs this process right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    return time.perf_counter() - t0


class Clock:
    """Times one operation in reference seconds.

    On a shared host the speed of a core drifts by tens of percent over
    seconds and minutes, which no number of repetitions within one run
    averages away. So while the operation runs, a SIGALRM timer interrupts
    this process every GAUGE_PERIOD_S and the handler runs ``gauge_s``. The
    operation's wall time, less the time spent in the handler, is scaled by
    GAUGE_NOMINAL_S over the mean gauge time around and during it. For an
    in-process operation the gauge runs in the same thread; on n = 15
    tables that cut the spread of repeated timings from about 20% to about
    6%. For a child process (a CLI command, a set-up probe) the gauge runs
    in the waiting parent, on the other core, and corrects only the drift
    that the whole host sees. ``raw`` keeps the unscaled wall time.
    """

    def __init__(self, fn, *args, **kwargs):
        gauges = [gauge_s()]
        in_handler = 0.0

        def sample(signum, frame):
            nonlocal in_handler
            t0 = time.perf_counter()
            gauges.append(gauge_s())
            in_handler += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            self.result = fn(*args, **kwargs)
        finally:
            raw = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        gauges.append(gauge_s())
        self.raw = raw - in_handler
        self.scaled = self.raw * GAUGE_NOMINAL_S / statistics.fmean(gauges)


def environment(seed: int, workload: str) -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for root, dirs, files in sorted(os.walk("src")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "workload": workload,
        "seed": seed,
        "git_rev": git_rev(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
    }


def git_rev() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(".git", ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unavailable"


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def seeded_rooted_graph(rng: random.Random, n: int):
    """Connected simple rooted graph with n edges: a random spanning tree on
    about 3n/4 vertices plus random extra edges, edges in random order."""
    from rankdual import RootedGraph

    nv = max(2, 3 * n // 4)
    pairs = [(rng.randrange(i), i) for i in range(1, nv)]
    present = set(pairs)
    while len(pairs) < n:
        a, b = sorted(rng.sample(range(nv), 2))
        if (a, b) not in present:
            present.add((a, b))
            pairs.append((a, b))
    rng.shuffle(pairs)
    return RootedGraph(
        tuple(f"v{i}" for i in range(nv)),
        "v0",
        tuple((f"e{k}", f"v{a}", f"v{b}") for k, (a, b) in enumerate(pairs)),
    )


def _connected_edge_sets(n: int, pairs) -> int:
    """Number of non-empty connected edge sets of a tree on vertices 0..n
    whose edges are (parent, child) pairs. Their complements are the
    feasible sets of the pruning antimatroid, apart from the full set."""
    children = [[] for _ in range(n + 1)]
    for parent, child in pairs:
        children[parent].append(child)
    rooted = [1] * (n + 1)  # edge sets hanging from v, v included, possibly empty
    for v in range(n, -1, -1):  # children have larger numbers than parents
        for c in children[v]:
            rooted[v] *= 1 + rooted[c]
    return sum(rooted) - (n + 1)


TREE_CANDIDATES = 21


def seeded_tree(rng: random.Random, n: int):
    """Random tree with n edges and maximum degree 3, edges in random order.

    The pruning antimatroid's union-closed scan, and with it the time and
    memory of check_antimatroid, grows with the square of the number of
    feasible sets, which varies several-fold between random trees. So the
    tree is the median, by that number, of TREE_CANDIDATES seeded random
    trees: its shape still changes with the seed, its cost hardly does.
    """
    from rankdual import Tree

    drawn = []
    for _ in range(TREE_CANDIDATES):
        degree = [0] * (n + 1)
        pairs = []
        for i in range(1, n + 1):
            j = rng.randrange(i)
            while degree[j] >= 3:
                j = rng.randrange(i)
            degree[i] += 1
            degree[j] += 1
            pairs.append((j, i))
        drawn.append((_connected_edge_sets(n, pairs), pairs))
    drawn.sort(key=lambda item: item[0])
    pairs = drawn[TREE_CANDIDATES // 2][1]
    rng.shuffle(pairs)
    return Tree(
        tuple(f"v{i}" for i in range(n + 1)),
        tuple((f"e{k}", f"v{a}", f"v{b}") for k, (a, b) in enumerate(pairs)),
    )


def analysis_inputs(rng: random.Random, n: int) -> dict:
    """Structures and raw ranks for one table of each kind on n elements.
    The random table is normalized, with ranks in [-3, 8]: negative and
    non-monotone, so every axiom check fails on it."""
    return {
        "n": n,
        "graph": seeded_rooted_graph(rng, n),
        "tree": seeded_tree(rng, n),
        "labels": tuple(f"e{i}" for i in range(n)),
        "random_values": [0] + [rng.randint(-3, 8) for _ in range((1 << n) - 1)],
    }


def write_documents(rng: random.Random, sizes, directory: str) -> list[str]:
    """Seeded rank-table documents: a branching greedoid and a pruning
    antimatroid table at each size."""
    import rankdual as rd

    os.makedirs(directory, exist_ok=True)
    paths = []
    for n in sizes:
        for kind, table in (
            ("branching", rd.branching_greedoid(seeded_rooted_graph(rng, n))),
            ("pruning", rd.pruning_antimatroid(seeded_tree(rng, n))),
        ):
            path = os.path.join(directory, f"{kind}{n}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(rd.dump_rank_table(table))
            paths.append(path)
    return paths


def warm_up(n: int) -> None:
    """Fill the per-size caches that the scans of an n-element table use."""
    import rankdual as rd

    rd.validate(rd.table_from_values(rd.GroundSet(tuple(f"e{i}" for i in range(n))), [0] * (1 << n)))


# ---------------------------------------------------------------------------
# analysis path
# ---------------------------------------------------------------------------


def analyse_table(kind: str, inp: dict, chk: Checks) -> None:
    """The fixed pipeline for one table: build, validate, dual, minors, both
    polynomial evaluations, and the axiom checks that fit the kind."""
    import rankdual as rd

    labels, n = inp["labels"], inp["n"]
    if kind == "branching":
        g = rd.branching_greedoid(inp["graph"])
    elif kind == "pruning":
        g = rd.pruning_antimatroid(inp["tree"])
    elif kind == "uniform":
        g = rd.uniform_matroid(labels, n // 2)
    else:
        g = rd.table_from_values(rd.GroundSet(labels), inp["random_values"])
    tag = f"{kind} n={n}"

    report = rd.validate(g)
    structured = kind != "random"
    chk.expect(report.nonnegative == structured and report.monotone == structured,
               f"{tag}: validate flags")
    d = rd.dual(g)
    chk.expect(rd.dual(d) == g, f"{tag}: dual(dual(g)) == g")
    p = labels[0]
    deleted, contracted = rd.delete(g, p), rd.contract(g, p)
    chk.expect(deleted.values == g.values[0::2], f"{tag}: delete")
    chk.expect(contracted.values == tuple(v - g.values[1] for v in g.values[1::2]), f"{tag}: contract")
    spec = rd.MinorSpec(g.ground.subset(labels[1:3]), g.ground.subset(labels[3:5]))
    chk.expect(rd.minor(g, spec).n == n - 4, f"{tag}: minor size")
    subset_poly = rd.tutte_subset(g)
    chk.expect(rd.tutte_recursive(g) == subset_poly, f"{tag}: tutte_recursive == tutte_subset")

    if kind == "branching":
        chk.expect(rd.check_greedoid(g).passed, f"{tag}: greedoid passes")
        chk.expect(rd.check_dual_greedoid(d).passed, f"{tag}: dual passes the starred axioms")
    elif kind == "pruning":
        chk.expect(rd.check_antimatroid(g).passed, f"{tag}: antimatroid passes")
        a = g.ground.subset(labels[:3])
        closed = rd.convex_closure(g, a).bits
        rest = g.ground.full_mask ^ closed
        chk.expect(closed & a.bits == a.bits and g.values[rest] == rest.bit_count(),
                   f"{tag}: closure is a convex superset")
    elif kind == "uniform":
        chk.expect(rd.check_matroid(g).passed, f"{tag}: matroid passes")
        chk.expect(rd.check_demimatroid_characterization(g).passed, f"{tag}: demi-matroid passes")
    else:
        chk.expect(not rd.check_greedoid(g).passed, f"{tag}: greedoid fails")
        chk.expect(not rd.check_matroid(g).passed, f"{tag}: matroid fails")
        chk.expect(not rd.check_demimatroid_characterization(g).passed, f"{tag}: demi-matroid fails")
        chk.expect(min(subset_poly.min_exponents()) < 0, f"{tag}: negative exponents")


# ---------------------------------------------------------------------------
# sweep path
# ---------------------------------------------------------------------------


def sweep(kind: str, seed: int, chk: Checks, tracer: Tracer | None, seen: dict) -> None:
    """Every suite, then the enumerations and censuses. ``seen`` keeps the
    counts that the untimed cross-checks in ``check_sweep_counts`` need."""
    import rankdual as rd

    for name in SUITE_NAMES:
        params = {} if kind == "full" else dict(QUICK_PARAMS[name])
        if name in RANDOMIZED:
            params["seed"] = seed
        try:
            if tracer:
                with tracer.span(f"verify.{name}") as span:
                    result = rd.run_suite(name, params)
                    span.counters["instances"] = result.instances_checked
            else:
                result = rd.run_suite(name, params)
            chk.expect(result.passed and result.to_report().endswith("result: pass"),
                       f"suite {name}: result: pass")
            seen[f"suite:{name}"] = result.instances_checked
        except Exception as exc:
            chk.error(f"suite {name}", exc)

    enum_n, tree_edges, graph_edges = CENSUS[kind]
    try:
        for constraint in CONSTRAINTS:
            tables = list(rd.enumerate_tables(rd.EnumSpec(enum_n, constraint)))
            seen[constraint] = len(tables)
            if constraint == "greedoid":
                seen["greedoids"] = tables
        seen["tree_edges"] = [len(t.edges) for t in rd.all_trees(tree_edges)]
        graphs = list(rd.all_rooted_graphs(graph_edges))
        seen["rooted_graphs"] = [(len(g.edges), len(g.vertices)) for g in graphs]
    except Exception as exc:
        chk.error(f"{kind} censuses", exc)


def check_sweep_counts(kind: str, chk: Checks, seen: dict) -> None:
    """Cross-check the enumeration and census counts (untimed)."""
    import rankdual as rd

    enum_n, tree_edges, graph_edges = CENSUS[kind]
    if kind == "full":
        for constraint, count in ENUM_COUNTS_N4.items():
            chk.expect(seen.get(constraint) == count, f"enumerate {constraint} n=4 count")
        per_size = [seen["tree_edges"].count(e) for e in range(tree_edges + 1)]
        chk.expect(tuple(per_size) == FREE_TREES, "all_trees census by edge count")
        rooted_trees = sum(1 for e, v in seen["rooted_graphs"] if e == v - 1)
        chk.expect(rooted_trees == sum(ROOTED_TREES), "rooted-tree part of all_rooted_graphs")
    # The full antimatroids are exactly the full greedoids whose feasible
    # family is union-closed; the witnessed checker decides the latter.
    antimatroids = sum(
        1 for g in seen["greedoids"] if g.n == enum_n and g.full_rank == g.n and rd.check_antimatroid(g).passed
    )
    chk.expect(seen.get("full-antimatroid") == antimatroids, "full-antimatroid count")
    matroids = sum(1 for g in seen["greedoids"] if g.n == enum_n and rd.check_matroid(g).passed)
    chk.expect(seen.get("matroid") == matroids, "matroid count")
    chk.expect(len(seen["rooted_graphs"]) == seen.get("suite:root_adjacency")
               and all(e <= graph_edges for e, _ in seen["rooted_graphs"]),
               "all_rooted_graphs matches the root_adjacency census")


# ---------------------------------------------------------------------------
# CLI path
# ---------------------------------------------------------------------------


def expected_cli(docs) -> dict:
    """(exit code, sha256 of stdout) of every command on every document,
    computed in process from the same document."""
    import rankdual as rd

    out = {}
    for path in docs:
        gc.collect()  # see schedule()
        _, table = rd.load_document(path)
        for name, _ in CLI_COMMANDS:
            if name == "tutte":
                rc, text = 0, str(rd.tutte_subset(table))
            elif name == "tutte_recursive":
                rc, text = 0, str(rd.tutte_recursive(table))
            elif name == "dual":
                rc, text = 0, rd.dump_rank_table(rd.dual(table))
            else:
                checker = {
                    "check_greedoid": rd.check_greedoid,
                    "check_matroid": rd.check_matroid,
                    "check_antimatroid": rd.check_antimatroid,
                }[name]
                report = checker(table)
                rc, text = (0 if report.passed else 1), "\n".join(report.lines())
            out[(path, name)] = (rc, hashlib.sha256((text + "\n").encode()).hexdigest())
    return out


def cli_unit(path: str, name: str, args, expected: dict, chk: Checks):
    """One command on one document in a fresh process, output checked."""

    def unit(trace: TraceContext | None):
        if trace is None:
            argv = [sys.executable, "-m", "rankdual.cli", *args, "--in", path]
        else:
            out_path = os.path.join(trace.directory, f"cli{len(trace.children)}.json")
            argv = [sys.executable, os.path.join(os.path.dirname(__file__), "clitrace.py"),
                    out_path, *args, "--in", path]
        try:
            clock = Clock(subprocess.run, argv, capture_output=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            chk.error(f"cli {name} {path}", exc)
            return None
        proc = clock.result
        got = (proc.returncode, hashlib.sha256(proc.stdout).hexdigest())
        chk.expect(got == expected[(path, name)] and not proc.stderr, f"cli {name} {path}")
        if trace is not None:
            with open(out_path, encoding="utf-8") as fh:
                trace.children.append(json.load(fh))
        return clock

    return unit


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class TraceContext:
    """The in-process tracer plus the traces the CLI children write."""

    def __init__(self, directory: str):
        self.tracer = Tracer()
        self.directory = directory
        self.children: list[dict] = []


def make_units(spec: dict, seed: int, inputs: dict, docs, expected: dict, chk: Checks, seen: dict) -> dict:
    """Per path, the units that path cycles through: (label, unit) where
    unit(trace) returns the Clock of its timed work, or None if it failed."""
    repeats = ANALYZE_REPEATS[inputs["n"]]

    def analysis_unit(kind):
        def work():
            for _ in range(repeats):
                try:
                    analyse_table(kind, inputs, chk)
                except Exception as exc:  # a crash is one failed operation, not a lost run
                    chk.error(f"{kind} n={inputs['n']}", exc)

        return lambda trace: Clock(work)

    def sweep_unit(trace):
        return Clock(sweep, spec["sweep"], seed, chk, trace.tracer if trace else None, seen)

    return {
        "analyze": [(kind, analysis_unit(kind)) for kind in KINDS],
        "sweep": [("sweep", sweep_unit)],
        # Commands on the largest documents come twice in each cycle: their
        # times spread most, and the metrics use per-command medians, so
        # sampling them more often does not change the mix.
        "cli": [(f"{name} {path}", cli_unit(path, name, args, expected, chk))
                for path in docs for name, args in CLI_COMMANDS
                for _ in range(2 if path.endswith(f"{LARGE_DOC_N}.json") else 1)],
    }


def schedule(units: dict, share: dict, budget_s: float) -> dict:
    """Fair-share loop: always run the next unit of the path furthest below
    its share of the time used so far, until budget_s has passed; then
    finish the first turn of any unit that has not run yet. Returns the
    (label, Clock) of every unit."""
    done = {path: [] for path in units}
    used = {path: 0.0 for path in units}
    turns = {path: 0 for path in units}
    start = time.perf_counter()
    while True:
        if time.perf_counter() - start < budget_s:
            path = min(units, key=lambda p: used[p] / share[p])
        else:
            lagging = [p for p in units if turns[p] < len(units[p])]
            if not lagging:
                break
            path = lagging[0]
        label, unit = units[path][turns[path] % len(units[path])]
        turns[path] += 1
        t0 = time.perf_counter()
        clock = unit(None)
        used[path] += time.perf_counter() - t0
        if clock is not None:
            done[path].append((label, clock))
        if path != "cli":
            # tutte_recursive's memo lives in a reference cycle; without this
            # the cyclic collector's timing, not the work, sets the peak RSS
            gc.collect()
    return done


def timings(done: dict, repeats: int) -> dict:
    """The raw record run.py turns into metrics: [label, scaled, raw] per
    unit, analysis times per table (divided by the repeats)."""
    return {
        path: [[label, c.scaled / (repeats if path == "analyze" else 1),
                c.raw / (repeats if path == "analyze" else 1)] for label, c in clocks]
        for path, clocks in done.items()
    }


def tail(values: list[float], beyond: int = 10):
    """Highest percentile with at least ``beyond`` samples above it:
    (value, percentile, sample count), or None with too few samples."""
    ordered = sorted(values)
    k = len(ordered) - beyond - 1
    if k < 0:
        return None
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def peak_rss_mb() -> dict:
    """Peak resident memory of this process and of its largest child."""
    return {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload]

    # set-up: import, inputs from the seed, cache warm-up
    t_import = time.perf_counter()
    import rankdual  # noqa: F401

    import_s = time.perf_counter() - t_import
    rng = random.Random(args.seed)
    run_dir = os.path.join(SCRATCH, f"run-{os.getpid()}")
    inputs = analysis_inputs(rng, spec["analyze_n"])
    docs = list(FIXTURES) + write_documents(rng, spec["doc_sizes"], run_dir)
    warm_up(spec["analyze_n"])
    setup_s = time.perf_counter() - SETUP_START
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
            return 0
        return measure(args, spec, inputs, docs, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, spec, inputs, docs, run_dir) -> int:
    chk = Checks()
    expected = expected_cli(docs)
    seen: dict = {}
    units = make_units(spec, args.seed, inputs, docs, expected, chk, seen)
    repeats = ANALYZE_REPEATS[inputs["n"]]
    if args.trace:
        record = trace_record(units, repeats, run_dir, args)
    else:
        record = timings(schedule(units, spec["share"], args.seconds), repeats)
        record["peak_rss_mb"] = peak_rss_mb()
    check_sweep_counts(spec["sweep"], chk, seen)
    record.update(attempted=chk.attempted, failed=chk.failed, failures=chk.failures)
    print(json.dumps(record))
    return 0


def trace_record(units: dict, repeats: int, run_dir: str, args) -> dict:
    """Every unit once untraced, then once traced. Per-layer numbers come
    from the traced round; traced minus untraced time is the tracing
    overhead."""
    # The sweep runs one extra untraced round first: it fills the suites'
    # small caches, so that the two measured rounds both run warm.
    units["sweep"][0][1](None)
    untraced = {path: [unit(None) for _, unit in path_units] for path, path_units in units.items()}
    trace = TraceContext(run_dir)
    trace.tracer.install()
    try:
        traced = {}
        for path, path_units in units.items():
            with trace.tracer.span(f"bench.{path}"):
                traced[path] = [unit(trace) for _, unit in path_units]
    finally:
        trace.tracer.uninstall()

    def total(clocks: dict) -> dict:
        scaled = {path: [c.scaled for c in path_clocks if c] for path, path_clocks in clocks.items()}
        return {
            "analyze_s": sum(scaled["analyze"]) / repeats,
            "sweep_s": sum(scaled["sweep"]),
            "cli_p50_s": statistics.median(scaled["cli"]),
        }

    before, after = total(untraced), total(traced)
    cli: dict = {}
    for (label, _), clock in zip(units["cli"], traced["cli"]):
        if clock:
            name = label.split()[0]
            cli[name] = cli.get(name, 0.0) + clock.raw
    imports = [child["import_s"] for child in trace.children]
    trace_path = os.path.join(SCRATCH, f"trace-{args.workload}-seed{args.seed}.json")
    dump(trace_path, {"env": environment(args.seed, args.workload), "worker": trace.tracer.export(),
                      "cli_children": trace.children})
    return {
        "layers": summarize([trace.tracer.export(), *trace.children]),
        "cli_layer": cli,
        "import": {"s": sum(imports), "calls": len(imports)},
        "overhead": {key: after[key] - before[key] for key in before},
        "trace_file": trace_path,
    }


if __name__ == "__main__":
    sys.exit(main())
