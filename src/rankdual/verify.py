"""Exhaustive enumeration of small rank tables and named verification suites.

Each suite machine-checks one identity or class statement at desk scale:
exhaustively over all tables up to n = 4 (pruned by subcardinality,
monotonicity, and local semimodularity), over structural censuses (all
trees and connected rooted graphs up to a size bound), or over seeded
random corpora. Suites are deterministic given (name, params, seed).

Suites and checkers share one kernel: an exhaustive suite lays its tables
end to end and reads one verdict per table from ``axioms.block_failures``,
built from the violation sets that give the checkers their witnesses; a
checker runs only to word the witness of a failing table.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from operator import eq, sub
from typing import NamedTuple

from .axioms import (
    DemiTriple,
    _locally_union_closed,
    block_failures,
    check_demimatroid_characterization,
    check_demimatroid_triple,
    check_dual_greedoid,
    check_greedoid,
    feasible_descriptors,
)
from .core import (
    DECREASE,
    JUMP,
    MAX_RANK_MAGNITUDE,
    GroundSet,
    RankFunctionError,
    RankTable,
    SubsetRef,
    bitset,
    members_of,
    popcounts,
    step_sets,
    table_from_values,
)
from .ops import _dual_values, contract, delete, direct_sum, dual
from .structures import (
    ContractionError,
    RootedGraph,
    Tree,
    _components,
    branching_greedoid,
    branching_ranks,
    branching_rows,
    closure_table,
    demo_pruning_tree,
    demo_rooted_tree,
    greedoid_minor_feasible,
    pruning_antimatroid,
    root_adjacency_test,
)
from .tutte import swap_vars, tutte_recursive, tutte_subset

_LABELS = "abcdefghijklmnopqrstuvwx"

MAX_EXHAUSTIVE_N = 4

# Caps on suite sizes: the largest at which one run with the default counts
# stays within about 30 s and 150 MB. Largest ground of a random corpus
# table: at 12, nullity_monotone's 3**n nested pairs take about 3 s and
# 130 MB per run; at 13, 9 s and 350 MB.
MAX_RANDOM_N = 12
# Census sizes: root_adjacency takes about 0.5 s at 6 edges, 11 s at 7 and
# more than 300 s at 8; closure_dual_rank takes about 2.5 s at 11 tree edges,
# 11 s at 12 and 31 s at 13.
MAX_CENSUS_EDGES = 7
MAX_TREE_EDGES = 12
# Random ranks stay small enough that every derived table (duals, minors,
# direct sums of duals) keeps within the 2**31 magnitude bound.
MAX_RANDOM_RANK = MAX_RANK_MAGNITUDE // 8

CONSTRAINTS = (
    "all-normalized-subcardinal-monotone",
    "greedoid",
    "matroid",
    "full-antimatroid",
)


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnumSpec:
    """Exhaustive enumeration request: ground size and constraint name."""

    n: int
    constraint: str

    def __post_init__(self):
        if self.constraint not in CONSTRAINTS:
            raise RankFunctionError(
                f"unknown constraint {self.constraint!r}; choose from {CONSTRAINTS}"
            )
        if self.n < 0:
            raise RankFunctionError(
                f"n = {self.n} is negative; a ground set has 0 or more elements"
            )
        if self.n > MAX_EXHAUSTIVE_N:
            raise RankFunctionError(
                f"n = {self.n} too large for exhaustive enumeration (max {MAX_EXHAUSTIVE_N})"
            )


@lru_cache(maxsize=None)
def _enum_tables(n: int):
    size = 1 << n
    preds = tuple(
        tuple(m & ~(1 << p) for p in range(n) if m >> p & 1) for m in range(size)
    )
    # local-semimodularity instances that become fully determined at mask m
    gr3_at = [[] for _ in range(size)]
    for m in range(size):
        for p1 in range(n):
            if not m >> p1 & 1:
                continue
            for p2 in range(p1 + 1, n):
                if not m >> p2 & 1:
                    continue
                a = m & ~(1 << p1) & ~(1 << p2)
                gr3_at[m].append((a, a | (1 << p1), a | (1 << p2)))
    return preds, tuple(tuple(x) for x in gr3_at)


def _enumerate_values(n: int, constraint: str, form=tuple):
    """DFS over rank assignments in increasing mask order, smallest value
    first, pruned by subcardinality and monotonicity (plus local
    semimodularity and the unit upper bound where the constraint allows).
    Each table is yielded as ``form`` of its values, a tuple or bytes.

    The search is one loop over an explicit stack: ``cursors[m]`` iterates
    the values still to try at mask m, within bounds computed from the
    values already fixed at smaller masks.
    """
    size = 1 << n
    preds, gr3_at = _enum_tables(n)
    prune_gr3 = constraint in ("greedoid", "matroid", "full-antimatroid")
    prune_unit = constraint == "matroid"
    keep = _emit_filter(n, constraint)

    vals = [0] * size

    def values_at(m):
        below = [vals[p] for p in preds[m]]
        lo = max(below)
        hi = min(m.bit_count(), min(below) + 1) if prune_unit else m.bit_count()
        if prune_gr3:
            # a flat square a, a1, a2 under m forces r(m) = r(a1) <= lo
            for a, a1, a2 in gr3_at[m]:
                flat = vals[a1]
                if vals[a] == flat == vals[a2]:
                    hi = min(hi, lo) if flat == lo else lo - 1
        return iter(range(lo, hi + 1))

    if size == 1:
        candidate = form(vals)
        if keep is None or keep(candidate):
            yield candidate
        return
    last = size - 1
    cursors = [None] * size
    cursors[1] = values_at(1)
    m = 1
    while True:
        v = next(cursors[m], None)
        if v is None:
            if m == 1:
                return
            m -= 1
        elif m < last:
            vals[m] = v
            m += 1
            cursors[m] = values_at(m)
        else:
            vals[m] = v
            candidate = form(vals)
            if keep is None or keep(candidate):
                yield candidate


def _emit_filter(n: int, constraint: str):
    """Check on complete tables for the part of a constraint that the search
    does not prune: full rank and a union-closed feasible family for full
    antimatroids. Matroids need none: under R1, which the search enforces,
    a violation of submodularity is a Gr3 flat square (Schrijver,
    Combinatorial Optimization, 2003, Thm 44.1)."""
    if constraint == "full-antimatroid":
        # the search prunes by Gr1-Gr3, so every table here is a greedoid and
        # the local union test is exact
        return lambda v: v[-1] == n and _locally_union_closed(n, bitset(map(eq, v, popcounts(n))))
    return None


def enumerate_tables(spec: EnumSpec):
    """Yield every rank table on n labeled elements satisfying the
    constraint, exactly once, in deterministic order."""
    ground = GroundSet(tuple(_LABELS[: spec.n]))
    for values in _enumerate_values(spec.n, spec.constraint):
        yield table_from_values(ground, values)


# ---------------------------------------------------------------------------
# seeded random corpora
# ---------------------------------------------------------------------------


def random_tables(count: int, max_n: int = 6, seed=None, lo: int = -3, hi: int = 8):
    """Seeded stream of tables with r(empty) = 0 and independent uniform
    ranks in [lo, hi] elsewhere. Negative and non-monotone ranks are the
    point: the polynomial identities hold for arbitrary integer tables."""
    if seed is None:
        raise RankFunctionError("random table sampling requires a seed")
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, max_n)
        ground = GroundSet(tuple(_LABELS[:n]))
        values = [0] + [rng.randint(lo, hi) for _ in range((1 << n) - 1)]
        yield table_from_values(ground, values)


def random_monotone_tables(count: int, max_n: int = 6, seed=None):
    """Seeded stream of normalized monotone subcardinal tables: each rank is
    uniform between the largest immediate-subset rank and the cardinality."""
    if seed is None:
        raise RankFunctionError("random table sampling requires a seed")
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, max_n)
        size = 1 << n
        preds, _ = _enum_tables(n)
        values = [0] * size
        for m in range(1, size):
            lo_bound = max((values[p] for p in preds[m]), default=0)
            values[m] = rng.randint(lo_bound, m.bit_count())
        yield table_from_values(GroundSet(tuple(_LABELS[:n])), values)


# ---------------------------------------------------------------------------
# structural censuses
# ---------------------------------------------------------------------------


def all_trees(max_edges: int):
    """All trees with at most max_edges edges, one per isomorphism class.

    Each free tree is its rooted shape at its centre (Wright, Richmond,
    Odlyzko & McKay 1986): a shape whose two tallest subtrees have equal
    height, or, for a two-centre tree, an unordered pair of equal-height
    shapes joined by the central edge. Edge labels are letters assigned in
    sorted endpoint order; vertex names are v0, v1, ... numbered breadth
    first from a centre.
    """
    trees = []
    for order in range(1, max_edges + 2):
        centred = [shape for shape in _rooted_tree_shapes(order) if _one_centre(shape)]
        # two centres: shape b hangs from the root of shape a by the central
        # edge; equal-size halves are taken once, as a <= b
        for half in range(1, order // 2 + 1):
            for a in _rooted_tree_shapes(half):
                for b in _rooted_tree_shapes(order - half):
                    if _height(a) == _height(b) and (2 * half < order or a <= b):
                        centred.append(a + (b,))
        vertices = tuple(f"v{i}" for i in range(order))
        trees.extend(Tree(vertices, _labelled(_shape_pairs(shape))) for shape in centred)
    return trees


@lru_cache(maxsize=None)
def _height(shape) -> int:
    return 1 + max(map(_height, shape)) if shape else 0


def _one_centre(shape) -> bool:
    """True when the root is the tree's only centre: the bare root, or two
    tallest child subtrees of equal height."""
    heights = sorted(map(_height, shape))
    return len(heights) != 1 and heights[-2:-1] == heights[-1:]


@lru_cache(maxsize=None)
def _rooted_tree_shapes(nodes: int):
    """Unlabeled rooted trees on the given node count, one per isomorphism
    class, encoded as canonically sorted tuples of child shapes."""
    if nodes == 1:
        return ((),)
    shapes = set()
    # split nodes-1 children nodes into non-increasing part sizes
    def partitions(total, cap):
        if total == 0:
            yield ()
            return
        for part in range(min(total, cap), 0, -1):
            for rest in partitions(total - part, part):
                yield (part,) + rest

    for parts in partitions(nodes - 1, nodes - 1):
        groups = []
        for size, count in sorted(
            ((s, len(list(g))) for s, g in itertools.groupby(parts)), reverse=True
        ):
            groups.append(
                list(itertools.combinations_with_replacement(_rooted_tree_shapes(size), count))
            )
        for combo in itertools.product(*groups):
            children = tuple(sorted(itertools.chain.from_iterable(combo)))
            shapes.add(children)
    return tuple(sorted(shapes))


def _shape_pairs(shape) -> list:
    """(parent, child) edges of a rooted shape with vertices numbered breadth
    first from the root 0. The queue is read in index order, so the list is
    sorted."""
    pairs = []
    queue = [shape]
    for parent, children in enumerate(queue):  # queue grows while it is read
        for child in children:
            pairs.append((parent, len(queue)))
            queue.append(child)
    return pairs


def _labelled(pairs) -> tuple:
    """(label, u, v) edges from vertex index pairs, labelled in list order."""
    return tuple((_LABELS[i], f"v{a}", f"v{b}") for i, (a, b) in enumerate(pairs))


def _shape_to_rooted_graph(shape) -> RootedGraph:
    pairs = _shape_pairs(shape)
    return RootedGraph(tuple(f"v{i}" for i in range(len(pairs) + 1)), "v0", _labelled(pairs))


def _cyclic_connected_graphs(max_edges: int):
    """All connected simple graphs with a cycle and at most max_edges edges,
    enumerated over labeled vertex sets (isomorphic repeats are harmless for
    exhaustive verification). Yields (vertex_count, edge_pairs)."""
    for v in range(3, max_edges + 1):
        pairs = list(itertools.combinations(range(v), 2))
        for e in range(v, max_edges + 1):
            if e > len(pairs):
                break
            for combo in itertools.combinations(pairs, e):
                if len(set(_components(v, combo))) == 1:
                    yield v, combo


def all_rooted_graphs(max_edges: int):
    """All connected simple rooted graphs with at most max_edges edges:
    rooted trees one per isomorphism class, plus every labeled rooted choice
    of the cyclic connected graphs."""
    for nodes in range(1, max_edges + 2):
        for shape in _rooted_tree_shapes(nodes):
            yield _shape_to_rooted_graph(shape)
    for v, combo in _cyclic_connected_graphs(max_edges):
        vertices = tuple(f"v{i}" for i in range(v))
        edges = _labelled(combo)
        for root in range(v):
            yield RootedGraph(vertices, f"v{root}", edges)


# ---------------------------------------------------------------------------
# suite machinery
# ---------------------------------------------------------------------------


@dataclass
class SuiteResult:
    """Outcome of one verification suite run."""

    suite: str
    params: dict
    instances_checked: int
    failures: list
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_report(self, include_elapsed: bool = False) -> str:
        lines = [f"suite: {self.suite}"]
        rendered = " ".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        lines.append(f"params: {rendered}" if rendered else "params:")
        lines.append(f"instances: {self.instances_checked}")
        lines.append(f"failures: {len(self.failures)}")
        for instance, assertion, witness in self.failures:
            lines.append(f"failure: {instance} | {assertion} | {witness}")
        lines.append(f"result: {'pass' if self.passed else 'fail'}")
        if include_elapsed:
            lines.append(f"elapsed: {self.elapsed:.3f}s")
        return "\n".join(lines)


class _Abort(Exception):
    """Stops a fail-fast suite at its first failure; run_suite catches it."""


class _Recorder:
    def __init__(self, fail_fast: bool, max_failures: int):
        self.instances = 0
        self.failures = []
        self.fail_fast = fail_fast
        self.max_failures = max_failures

    def check(self, ok: bool, instance, assertion: str, witness="") -> None:
        """Count one instance, and record a failure unless ``ok``.

        ``instance`` and ``witness`` are strings or zero-argument callables
        returning one; a callable is called only when a failure is recorded,
        so passing checks never format their descriptions."""
        self.instances += 1
        if not ok:
            self.fail(instance, assertion, witness)

    def fail(self, instance, assertion: str, witness="") -> None:
        """Record a failure, keeping the first ``max_failures``; under
        fail-fast, stop the suite."""
        if len(self.failures) < self.max_failures:
            self.failures.append((_text(instance), assertion, _text(witness)))
        if self.fail_fast:
            raise _Abort


def _text(description) -> str:
    return description() if callable(description) else description


class Param(NamedTuple):
    """One param as its suite declares it: the default used when the param
    is absent or None (None: the param must be given), and for an integer
    param the inclusive range, open on a side that is None. A str default
    declares a string param. ``scope`` says what the range is for in the
    out-of-range error."""

    default: object
    lowest: int | None = None
    highest: int | None = None
    scope: str = ""

    def resolve(self, key: str, value):
        """The value to run with; a non-integer or out-of-range one is an input error."""
        if isinstance(self.default, str):
            return str(value)
        try:
            # int() would truncate a float: only ints (bools among them) and
            # strings are read
            if not isinstance(value, (int, str)):
                raise TypeError
            value = int(value)
        except (TypeError, ValueError):
            raise RankFunctionError(f"{key} must be an integer, got {value!r}") from None
        lowest, highest = self.lowest, self.highest
        if (lowest is not None and value < lowest) or (highest is not None and value > highest):
            scope = f" {self.scope}" if self.scope else ""
            bounds = f"{lowest} or more" if highest is None else f"{lowest} to {highest}"
            raise RankFunctionError(f"{key} = {value} out of range{scope} ({bounds})")
        return value


def _exhaustive_n(default: int) -> Param:
    """The enumeration size n: a suite checks every table of size 0 to n."""
    return Param(default, 0, MAX_EXHAUSTIVE_N, "for exhaustive enumeration")


#: A seeded sample of random tables; the keys are the samplers' parameters.
_SAMPLE = {"seed": Param(None), "count": Param(500), "max_n": Param(6, 0, MAX_RANDOM_N)}
#: A sample with uniform ranks in [lo, hi].
_CORPUS = {
    **_SAMPLE,
    "lo": Param(-3, -MAX_RANDOM_RANK, MAX_RANDOM_RANK),
    "hi": Param(8, -MAX_RANDOM_RANK, MAX_RANDOM_RANK),
}


def _corpus(params: dict):
    return list(random_tables(**{key: params[key] for key in _CORPUS}))


def _desc(i: int, g: RankTable):
    return lambda: f"table[{i}] n={g.n} values={g.values}"


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


class Suite(NamedTuple):
    """A registered suite: the function that checks its instances, called
    with exactly its declared params resolved, and those declarations."""

    run: object
    params: dict


#: Suites by name.
SUITES: dict = {}
#: Params of the run itself, which every suite accepts.
_RUN_PARAMS = {"fail_fast": Param(0, 0, 1), "max_failures": Param(100, 1)}


def _suite(shared: dict | None = None, /, **params: Param):
    """Register the suite function ``_suite_<name>`` as ``<name>``, declaring
    the ``shared`` params and then ``params``, which override them."""

    def register(fn):
        SUITES[fn.__name__.removeprefix("_suite_")] = Suite(fn, {**(shared or {}), **params})
        return fn

    return register


@_suite(_CORPUS)
def _suite_involution(params, rec: _Recorder):
    for i, g in enumerate(_corpus(params)):
        rec.check(
            dual(dual(g)) == g, _desc(i, g), "dual(dual(g)) == g", lambda: str(dual(dual(g)).values)
        )


@_suite(_CORPUS)
def _suite_exchange(params, rec: _Recorder):
    for i, g in enumerate(_corpus(params)):
        gd = dual(g)
        for p in g.ground.labels:
            ok1 = dual(delete(g, p)) == contract(gd, p)
            rec.check(ok1, _desc(i, g), f"dual(delete(g,{p})) == contract(dual(g),{p})")
            ok2 = dual(contract(g, p)) == delete(gd, p)
            rec.check(ok2, _desc(i, g), f"dual(contract(g,{p})) == delete(dual(g),{p})")


@_suite(_CORPUS)
def _suite_contract_formula(params, rec: _Recorder):
    for i, g in enumerate(_corpus(params)):
        for p in g.ground.labels:
            got = contract(g, p)
            via_dual = dual(delete(dual(g), p))
            bit = 1 << g.ground.position(p)
            rp = g.values[bit]
            # masks avoiding p, in increasing order, are the contracted
            # table's masks in order: an oracle independent of ops._project
            expected = tuple(
                g.values[m | bit] - rp for m in range(g.ground.size) if not m & bit
            )
            ok = got.values == expected and via_dual.values == expected
            rec.check(ok, _desc(i, g), f"contract formula at {p}", lambda: str(got.values))


# max_n stops at 8: the second summand takes its labels from "pqrstuvw"
@_suite(_CORPUS, count=Param(250), max_n=Param(4, 0, 8))
def _suite_direct_sum_dual(params, rec: _Recorder):
    max_n, lo, hi = params["max_n"], params["lo"], params["hi"]
    rng = random.Random(params["seed"])
    for i in range(params["count"]):
        n1, n2 = rng.randint(0, max_n), rng.randint(0, max_n)
        g1 = table_from_values(
            GroundSet(tuple(_LABELS[:n1])),
            [0] + [rng.randint(lo, hi) for _ in range((1 << n1) - 1)],
        )
        g2 = table_from_values(
            GroundSet(tuple("pqrstuvw"[:n2])),
            [0] + [rng.randint(lo, hi) for _ in range((1 << n2) - 1)],
        )
        ok = dual(direct_sum(g1, g2)) == direct_sum(dual(g1), dual(g2))
        rec.check(ok, lambda: f"pair[{i}] n1={n1} n2={n2}", "dual(g1 + g2) == dual(g1) + dual(g2)")


@_suite(_CORPUS, strategies=Param("lowest,highest"))
def _suite_recursion_oracle(params, rec: _Recorder):
    strategies = params["strategies"].split(",")
    for i, g in enumerate(_corpus(params)):
        reference = tutte_subset(g)
        for strategy in strategies:
            ok = tutte_recursive(g, strategy) == reference
            rec.check(ok, _desc(i, g), f"recursion({strategy}) == subset expansion")


@_suite(_CORPUS)
def _suite_duality_swap(params, rec: _Recorder):
    for i, g in enumerate(_corpus(params)):
        ok = tutte_subset(dual(g)) == swap_vars(tutte_subset(g))
        rec.check(ok, _desc(i, g), "poly(dual) == swap_vars(poly)")


@_suite(_CORPUS)
def _suite_polynomiality(params, rec: _Recorder):
    from .core import validate

    for i, g in enumerate(_corpus(params)):
        report = validate(g)
        mins = tutte_subset(g).min_exponents()
        ok = (min(mins) >= 0) == (report.rank_s_maximum and report.subcardinal)
        rec.check(
            ok,
            _desc(i, g),
            "nonnegative exponents iff rank-S-maximum and subcardinal",
            lambda: str(mins),
        )


@_suite(n=_exhaustive_n(3))
def _suite_contract_feasibility(params, rec: _Recorder):
    tables = (g for n in range(params["n"] + 1) for g in enumerate_tables(EnumSpec(n, "greedoid")))
    for idx, g in enumerate(tables):
        loops = feasible_descriptors(g).loops
        for pos, label in enumerate(g.ground.labels):
            if label in loops:
                continue  # loops are handled by the minor-agreement suite
            singleton_feasible = g.values[1 << pos] == 1
            rank_contract = contract(g, label)
            is_greedoid = check_greedoid(rank_contract).passed
            rec.check(
                is_greedoid == singleton_feasible,
                lambda: f"greedoid[{idx}] values={g.values} p={label}",
                "contraction is a greedoid iff the singleton is feasible",
            )
            raised = False
            try:
                greedoid_minor_feasible(g, label, "contract")
            except ContractionError:
                raised = True
            rec.check(
                raised == (not singleton_feasible),
                lambda: f"greedoid[{idx}] values={g.values} p={label}",
                "feasible-set contraction rejects exactly the infeasible covered case",
            )


@_suite(n=_exhaustive_n(3))
def _suite_minor_agreement(params, rec: _Recorder):
    tables = (g for n in range(params["n"] + 1) for g in enumerate_tables(EnumSpec(n, "greedoid")))
    for idx, g in enumerate(tables):
        loops = feasible_descriptors(g).loops
        for pos, label in enumerate(g.ground.labels):
            fam = greedoid_minor_feasible(g, label, "delete")
            ok = fam.induced_rank_table() == delete(g, label)
            rec.check(
                ok,
                lambda: f"greedoid[{idx}] values={g.values} p={label}",
                "feasible-set deletion matches rank deletion",
            )
            if g.values[1 << pos] == 1 or label in loops:
                fam = greedoid_minor_feasible(g, label, "contract")
                ok = fam.induced_rank_table() == contract(g, label)
                rec.check(
                    ok,
                    lambda: f"greedoid[{idx}] values={g.values} p={label}",
                    "feasible-set contraction matches rank contraction",
                )


@_suite(n=_exhaustive_n(4))
def _suite_dual_greedoid_axioms(params, rec: _Recorder):
    idx = 0
    for n in range(params["n"] + 1):
        tables = list(enumerate_tables(EnumSpec(n, "greedoid")))
        duals = [dual(g) for g in tables]
        *_, failing = block_failures(n, [v for gd in duals for v in gd.values], len(duals))
        for b, (g, gd) in enumerate(zip(tables, duals)):
            # the checker runs only to word the witness of a failing table
            rec.check(
                not failing >> b & 1,
                lambda: f"greedoid[{idx}] n={n} values={g.values}",
                "dual of a greedoid passes the starred axioms",
                lambda: "; ".join(
                    line for line in check_dual_greedoid(gd).lines() if "fail" in line
                ),
            )
            idx += 1


# Tables per packed corpus: enough for the passes over a corpus to pay off,
# and few enough that the corpus and its bit sets stay small.
_CORPUS_TABLES = 4096


def _intersection_failures(n, corpus):
    """The failures among tables laid end to end, each with the index of its
    table in the corpus. The axioms' verdicts are read for all the tables at
    once."""
    size, count = 1 << n, len(corpus) >> n
    greedoid, matroid, dual_greedoid = block_failures(n, corpus, count)
    # greedoid(r*) is read only where r is a greedoid
    greedoids = members_of(~greedoid, count)
    duals = [v for b in greedoids for v in _dual_values(corpus[b * size : (b + 1) * size], n)]
    dual_fails = block_failures(n, duals, len(greedoids))[0] if greedoids else 0
    both = sum(1 << greedoids[j] for j in members_of(~dual_fails, len(greedoids)))
    failures = []
    for assertion, fails in (
        ("greedoid(r) and greedoid(r*) iff matroid(r)", ~both ^ matroid),
        ("greedoid(r) and starred-axioms(r) iff matroid(r)", (greedoid | dual_greedoid) ^ matroid),
    ):
        for b in members_of(fails, count):
            values = tuple(corpus[b * size : (b + 1) * size])
            witness = f"matroid={not matroid >> b & 1}"
            failures.append((b, (f"n={n} values={values}", assertion, witness)))
    # a table failing both assertions keeps them in this order
    failures.sort(key=lambda failure: failure[0])
    return failures


@_suite(n=_exhaustive_n(4))
def _suite_greedoid_intersection(params, rec: _Recorder):
    for n in range(params["n"] + 1):
        tables = _enumerate_values(n, "all-normalized-subcardinal-monotone", form=bytes)
        while corpus := b"".join(itertools.islice(tables, _CORPUS_TABLES)):
            # count through each failing table, so that a fail-fast run
            # stops at the first failure in enumeration order
            counted = 0
            for index, failure in _intersection_failures(n, corpus):
                rec.instances += index + 1 - counted
                counted = index + 1
                rec.fail(*failure)
            rec.instances += (len(corpus) >> n) - counted


def _root_adjacent(vertex_count: int, edge_pairs) -> list:
    """Entry r says whether every vertex shares an edge with vertex r."""
    neighbours = [1 << x for x in range(vertex_count)]
    for a, b in edge_pairs:
        neighbours[a] |= 1 << b
        neighbours[b] |= 1 << a
    everyone = (1 << vertex_count) - 1
    return [mask == everyone for mask in neighbours]


@_suite(max_edges=Param(6, 0, MAX_CENSUS_EDGES))
def _suite_root_adjacency(params, rec: _Recorder):
    max_edges = params["max_edges"]
    # cross-check every k-th instance against the public ops; the instance
    # being checked is number rec.instances + 1
    sample_stride = 97

    def check_instance(vertex_count, edge_pairs, root, values, root_adjacent, graph_desc):
        # graph_desc: a callable describing the graph, called only on failure
        min_dual = min(_dual_values(values, len(edge_pairs)))
        ok = (min_dual >= 0) == root_adjacent
        if (rec.instances + 1) % sample_stride == 0:
            rg = RootedGraph(
                tuple(f"v{i}" for i in range(vertex_count)), f"v{root}", _labelled(edge_pairs)
            )
            ok = ok and branching_greedoid(rg).values == tuple(values)
            ok = ok and root_adjacency_test(rg) == root_adjacent
        rec.check(
            ok,
            lambda: f"{graph_desc()} root=v{root}",
            "dual rank nonnegative iff every vertex is root-adjacent",
            lambda: f"min_dual={min_dual} adjacent={root_adjacent}",
        )

    for nodes in range(1, max_edges + 2):
        for shape in _rooted_tree_shapes(nodes):
            pairs = _shape_pairs(shape)
            values = branching_ranks(len(pairs), nodes, pairs, 0)
            adjacent = _root_adjacent(nodes, pairs)[0]
            check_instance(nodes, pairs, 0, values, adjacent, lambda: f"tree{shape}")
    for v, combo in _cyclic_connected_graphs(max_edges):
        rows = branching_rows(len(combo), v, combo)
        adjacent = _root_adjacent(v, combo)
        for root in range(v):
            check_instance(
                v, combo, root, rows[root], adjacent[root], lambda: f"cyclic v={v} edges={combo}"
            )


@_suite(n=_exhaustive_n(4))
def _suite_full_dual_nonpositive(params, rec: _Recorder):
    tables = (g for n in range(params["n"] + 1) for g in enumerate_tables(EnumSpec(n, "greedoid")))
    for idx, g in enumerate(tables):
        if g.full_rank != g.n:
            continue
        dv = _dual_values(g.values, g.n)
        rec.check(
            max(dv) <= 0,
            lambda: f"full-greedoid[{idx}] n={g.n} values={g.values}",
            "dual rank of a full greedoid is nonpositive everywhere",
            lambda: f"max={max(dv)}",
        )


_CLOSURE = {"n": _exhaustive_n(4), "max_tree_edges": Param(8, 0, MAX_TREE_EDGES)}


def _closure_corpora(params):
    """(description, table) pairs; each description is a callable."""
    tables = (
        g for n in range(params["n"] + 1) for g in enumerate_tables(EnumSpec(n, "full-antimatroid"))
    )
    for idx, g in enumerate(tables):
        yield (lambda idx=idx, g=g: f"antimatroid[{idx}] n={g.n} values={g.values}"), g
    for idx, tree in enumerate(all_trees(params["max_tree_edges"])):
        yield (lambda idx=idx, tree=tree: f"pruning-tree[{idx}] edges={len(tree.edges)}"), (
            pruning_antimatroid(tree)
        )


@_suite(_CLOSURE)
def _suite_closure_dual_rank(params, rec: _Recorder):
    for desc, g in _closure_corpora(params):
        closures = closure_table(g)
        dv = _dual_values(g.values, g.n)
        for mask in range(g.ground.size):
            gap = (closures[mask] & ~mask).bit_count()
            rec.check(
                dv[mask] == -gap,
                desc,
                "dual rank equals minus the closure gap",
                lambda: f"A={SubsetRef(g.ground, mask)} dual={dv[mask]} gap={gap}",
            )
    # spot value on the bundled ten-edge tree
    g = pruning_antimatroid(demo_pruning_tree())
    a = g.ground.subset(("a", "d", "f"))
    dv = _dual_values(g.values, g.n)
    rec.check(
        dv[a.bits] == -3,
        "demo pruning tree",
        "dual rank of {a,d,f} is -3",
        lambda: str(dv[a.bits]),
    )


@_suite(_CLOSURE)
def _suite_convex_zero_dual(params, rec: _Recorder):
    for desc, g in _closure_corpora(params):
        dv = _dual_values(g.values, g.n)
        full = g.ground.full_mask
        for mask in range(g.ground.size):
            convex = g.values[full ^ mask] == (full ^ mask).bit_count()
            rec.check(
                convex == (dv[mask] == 0),
                desc,
                "convex iff dual rank zero",
                lambda: f"C={SubsetRef(g.ground, mask)} convex={convex} dual={dv[mask]}",
            )


_MONOTONE = {**_SAMPLE, "n": _exhaustive_n(3)}


def _monotone_corpus(params):
    """(description, table) pairs; each description is a callable."""
    tables = (
        g
        for n in range(params["n"] + 1)
        for g in enumerate_tables(EnumSpec(n, "all-normalized-subcardinal-monotone"))
    )
    for idx, g in enumerate(tables):
        yield (lambda idx=idx, g=g: f"enumerated[{idx}] n={g.n} values={g.values}"), g
    for idx, g in enumerate(random_monotone_tables(**{key: params[key] for key in _SAMPLE})):
        yield (lambda idx=idx, g=g: f"sampled[{idx}] n={g.n} values={g.values}"), g


@_suite(_MONOTONE)
def _suite_nullity_monotone(params, rec: _Recorder):
    for desc, g in _monotone_corpus(params):
        # three independent readings: no jump step of r, no decreasing step
        # of the nullity |A| - r(A), and no pair A <= B stretched past |B - A|
        (jump,) = step_sets(g.n, g.values, JUMP)
        unit = not any(jump)
        (drop,) = step_sets(g.n, tuple(map(sub, popcounts(g.n), g.values)), DECREASE)
        nullity = not any(drop)
        stretch = all(
            g.values[b] - g.values[a] <= (b & ~a).bit_count()
            for a, b in _nested_pairs(g.n)
        )
        rec.check(
            unit == nullity == stretch,
            desc,
            "unit rank increase iff monotone nullity (iff bounded stretch)",
            lambda: f"unit={unit} nullity={nullity} stretch={stretch}",
        )


@lru_cache(maxsize=None)
def _nested_pairs(n: int):
    size = 1 << n
    return tuple((a, b) for b in range(size) for a in range(size) if a & b == a)


@_suite(_MONOTONE)
def _suite_demimatroid_characterization(params, rec: _Recorder):
    for desc, g in _monotone_corpus(params):
        lhs = check_demimatroid_characterization(g).passed
        rhs = check_demimatroid_triple(DemiTriple(g, dual(g))).passed
        rec.check(
            lhs == rhs,
            desc,
            "characterization passes iff (S, r, r*) is a demi triple",
            lambda: f"characterization={lhs} triple={rhs}",
        )


@_suite()
def _suite_branching_goldens(params, rec: _Recorder):
    g = branching_greedoid(demo_rooted_tree())
    sub = g.ground.subset

    rec.check(
        g.values == (0, 1, 0, 2, 1, 2, 1, 3),
        "demo rooted tree",
        "branching ranks",
        lambda: str(g.values),
    )
    gd = dual(g)
    rec.check(
        gd.values == (0, -1, 0, 0, 0, -1, 0, 0),
        "demo rooted tree",
        "dual ranks",
        lambda: str(gd.values),
    )
    rec.check(gd.rank(sub("ac")) == -1, "demo rooted tree", "dual rank of {a,c} is -1")
    rec.check(dual(gd) == g, "demo rooted tree", "dual is an involution")

    rec.check(
        delete(g, "a").values == (0, 0, 1, 1),
        "demo rooted tree",
        "deletion ranks",
        lambda: str(delete(g, "a").values),
    )
    rec.check(
        contract(g, "a").values == (0, 1, 1, 2),
        "demo rooted tree",
        "contraction ranks",
        lambda: str(contract(g, "a").values),
    )

    f = tutte_subset(g)
    rec.check(
        str(f) == "t^3*z + t^3 + t^2*z + 2*t^2 + 2*t + 1",
        "demo rooted tree",
        "canonical polynomial string",
        lambda: str(f),
    )
    rec.check(tutte_recursive(g, "lowest") == f, "demo rooted tree", "recursion (lowest pivot)")
    rec.check(tutte_recursive(g, "highest") == f, "demo rooted tree", "recursion (highest pivot)")
    rec.check(
        tutte_subset(gd) == swap_vars(f),
        "demo rooted tree",
        "dual polynomial is the variable swap",
    )

    f_del_a = tutte_subset(delete(g, "a"))
    f_con_a = tutte_subset(contract(g, "a"))
    rec.check(
        f == f_del_a.shift(2, 0) + f_con_a,
        "demo rooted tree",
        "pivot identity at a: f = t^2 f(G-a) + f(G/a)",
    )
    f_del_b = tutte_subset(delete(g, "b"))
    f_con_b = tutte_subset(contract(g, "b"))
    rec.check(
        f == f_del_b.shift(1, 0) + f_con_b.shift(0, 1),
        "demo rooted tree",
        "pivot identity at b: f = t f(G-b) + z f(G/b)",
    )
    rec.check(
        str(f_con_b) == "t^3 + t^2 + t*z^-1 + z^-1",
        "demo rooted tree",
        "contraction polynomial at b",
        lambda: str(f_con_b),
    )


@_suite()
def _suite_pruning_goldens(params, rec: _Recorder):
    from .structures import convex_closure

    g = pruning_antimatroid(demo_pruning_tree())
    sub = g.ground.subset
    full = g.ground.full_mask

    rec.check(g.full_rank == 10, "demo pruning tree", "full antimatroid")
    adef = sub(("a", "d", "e", "f"))
    rec.check(
        g.rank(adef) == 4,
        "demo pruning tree",
        "rank of the prunable set {a,d,e,f}",
        lambda: str(g.rank(adef)),
    )
    dv = _dual_values(g.values, g.n)
    rec.check(dv[full ^ adef.bits] == 0, "demo pruning tree", "dual rank of its complement is 0")

    beh = sub(("b", "e", "h"))
    rec.check(
        g.rank(beh) == 2,
        "demo pruning tree",
        "rank of {b,e,h} is 2",
        lambda: str(g.rank(beh)),
    )
    rec.check(
        convex_closure(g, beh) == sub(("b", "c", "d", "e", "h")),
        "demo pruning tree",
        "closure of {b,e,h}",
        lambda: str(convex_closure(g, beh)),
    )
    adf = sub(("a", "d", "f"))
    rec.check(
        convex_closure(g, adf) == sub(("a", "b", "c", "d", "f", "g")),
        "demo pruning tree",
        "closure of {a,d,f}",
        lambda: str(convex_closure(g, adf)),
    )
    rec.check(
        g.rank(adf.complement()) == 4,
        "demo pruning tree",
        "rank of the complement of {a,d,f}",
    )
    rec.check(
        dv[adf.bits] == -3,
        "demo pruning tree",
        "dual rank of {a,d,f} is -3",
        lambda: str(dv[adf.bits]),
    )


#: Suites that declare a seed (it has no default); they refuse to run without one.
RANDOMIZED_SUITES = frozenset(name for name, suite in SUITES.items() if "seed" in suite.params)


def run_suite(name: str, params: dict | None = None) -> SuiteResult:
    """Run a named verification suite. Deterministic given (name, params,
    seed); randomized suites require a seed parameter.

    Each param takes the given value, else its declared default; unknown
    keys, a missing seed, a non-integer or out-of-range value, and lo above
    hi are input errors, raised before the suite runs."""
    if name not in SUITES:
        raise RankFunctionError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    params = dict(params or {})
    suite = SUITES[name]
    # the CLI passes --seed to any suite; for one that declares none, the
    # seed is checked as an integer and not handed on
    declared = {"seed": Param(0)} | suite.params | _RUN_PARAMS
    unknown = sorted(map(str, params.keys() - declared.keys()))
    if unknown:
        raise RankFunctionError(
            f"unknown params for suite {name!r}: {', '.join(unknown)}; "
            f"accepted: {', '.join(sorted(declared))}"
        )
    values = {}
    for key, param in declared.items():
        value = params.get(key)
        if value is None:
            if param.default is None:
                raise RankFunctionError(f"suite {name!r} is randomized and requires a seed")
            value = param.default
        values[key] = param.resolve(key, value)
    if "lo" in values and values["lo"] > values["hi"]:
        raise RankFunctionError(f"lo = {values['lo']} exceeds hi = {values['hi']}")
    rec = _Recorder(fail_fast=bool(values["fail_fast"]), max_failures=values["max_failures"])
    start = time.perf_counter()
    with suppress(_Abort):
        suite.run({key: values[key] for key in suite.params}, rec)
    elapsed = time.perf_counter() - start
    if not rec.instances:
        raise RankFunctionError(f"suite {name!r} checked no instances with these params")
    return SuiteResult(
        suite=name,
        params=params,
        instances_checked=rec.instances,
        failures=rec.failures,
        elapsed=elapsed,
    )
