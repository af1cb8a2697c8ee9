"""Exhaustive enumeration of small rank tables and named verification suites.

Each suite machine-checks one identity or class statement at desk scale:
exhaustively over all tables up to n = 4 (a join of monotone subcardinal
table halves, filtered by the axiom verdicts), over structural censuses (all
trees and connected rooted graphs up to a size bound), or over seeded
random corpora. Suites are deterministic given (name, params, seed).

Suites and checkers share one kernel: an exhaustive suite reads packed
corpora (tables laid end to end; one per lower half of the monotone tables,
one per pruned class) and one verdict per table from ``block_failures``,
built from the violation sets that give the checkers their witnesses; a
checker runs only to word the witness of a failing table.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_, ne, neg, or_, sub
from typing import NamedTuple

from .axioms import (
    DemiTriple,
    _union_failures,
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
    MAX_GROUND_SIZE,
    MAX_RANK_MAGNITUDE,
    GroundSet,
    RankFunctionError,
    RankTable,
    SubsetRef,
    bitset,
    failing_blocks,
    feasible_flags,
    member_flags,
    members_of,
    popcounts,
    step_sets,
    subset_max,
    table_from_values,
    validate,
)
from .ops import _dual_sums, _packed_dual, contract, delete, direct_sum, dual
from .structures import (
    ContractionError,
    RootedGraph,
    Tree,
    _closure_gaps,
    _connected,
    _convex_flags,
    branching_greedoid,
    branching_rows,
    convex_closure,
    demo_pruning_tree,
    demo_rooted_tree,
    greedoid_minor_feasible,
    pruning_antimatroid,
    root_adjacency_test,
)
from .tutte import swap_vars, tutte_recursive, tutte_subset

_LABELS = "abcdefghijklmnopqrstuvwx"

MAX_EXHAUSTIVE_N = 4

# Caps on suite sizes. Largest ground of a random corpus table: the largest
# at which each sampled suite runs within about 1 s at the default counts.
# In process on a 2-CPU host, the slowest (contract_formula and
# demimatroid_characterization) take 0.7-1.05 s at 12, at about 21 MB peak
# RSS, and 1.5-2.2 s at 13, at 24 MB.
MAX_RANDOM_N = 12
# Census size: the largest at which one run with the default counts stays
# within about 30 s and 150 MB. root_adjacency takes about 0.2 s at 6 edges
# and 5-6 s at 7, both at about 18 MB peak RSS, and took more than 300 s at
# 8 when it still relaxed one graph at a time.
MAX_CENSUS_EDGES = 7
# Tree census size: each closure suite runs within about 6 s. On a 2-CPU
# host the CLI run of each takes 1.2-1.7 s at 12 tree edges; in process at
# 13 each took about 4.5 s at 37 MB peak RSS.
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
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise RankFunctionError(f"n must be an integer, got {self.n!r}")
        if self.n < 0:
            raise RankFunctionError(
                f"n = {self.n} is negative; a ground set has 0 or more elements"
            )
        if self.n > MAX_EXHAUSTIVE_N:
            raise RankFunctionError(
                f"n = {self.n} too large for exhaustive enumeration (max {MAX_EXHAUSTIVE_N})"
            )


def _join(size: int, lowers: bytes, uppers: bytes):
    """For each table low of the corpus ``lowers`` (tables of ``size`` values
    laid end to end, as bytes) that some up of the corpus ``uppers`` fits,
    low <= up at every mask, yield the corpus of every low + up, by low and
    then by up: in lexicographic order when both corpora are.

    Bit i of at_least[A][v] says uppers table i has a value >= v at A, so
    the uppers that fit low are the AND over A of at_least[A][low[A]]. Each
    row runs to the largest lower value, where no upper may reach."""
    tables = [uppers[i : i + size] for i in range(0, len(uppers), size)]
    top = max(lowers, default=0)
    at_least = [[bitset(map(v.__le__, uppers[a::size])) for v in range(top + 1)] for a in range(size)]
    everyone = (1 << len(tables)) - 1
    for i in range(0, len(lowers), size):
        low = lowers[i : i + size]
        if fits := reduce(and_, map(list.__getitem__, at_least, low), everyone):
            yield low + low.join(itertools.compress(tables, member_flags(fits, len(tables))))


@lru_cache(maxsize=None)
def _monotone(n: int, c: int) -> bytes:
    """Every monotone table f on n elements with 0 <= f(empty) and
    f(A) <= |A| + c, laid end to end in lexicographic order.

    A table is its half without element n - 1 followed by its half with it;
    the halves are monotone tables on n - 1 elements under the bounds c and
    c + 1, the first below the second at every mask (the recursion that
    counts monotone Boolean functions, Wiedemann, Order 8, 1991)."""
    if n == 0:
        return bytes(range(c + 1))
    return b"".join(_join(1 << n - 1, _monotone(n - 1, c), _monotone(n - 1, c + 1)))


def _corpora(n: int, constraint: str):
    """Every table of the constraint on n elements, in lexicographic order,
    as corpora: tables of 2**n values laid end to end, as bytes. The
    monotone tables stream from the join of table halves, one corpus per
    lower half (at n = 4, 209 corpora of 256 to 1,341 tables). A pruned
    class is one corpus, built once per process by _pruned."""
    if constraint != "all-normalized-subcardinal-monotone":
        yield _pruned(n, constraint)
    elif n == 0:
        yield b"\0"  # the one normalized table
    else:
        yield from _join(1 << n - 1, _monotone(n - 1, 0), _monotone(n - 1, 1))


# The block_failures verdict that keeps a greedoid or a matroid. Deletion
# keeps both classes, so the lower half of each of their tables on n
# elements is a table of the class on n - 1 elements.
_VERDICT = {"greedoid": 0, "matroid": 1}


@lru_cache(maxsize=None)
def _pruned(n: int, constraint: str) -> bytes:
    """Every table of a pruned constraint on n elements, laid end to end in
    lexicographic order: the tables of the parent corpora that the class's
    block verdict keeps. A greedoid's or a matroid's parents are the class
    on n - 1 elements joined to the upper halves, one corpus per lower half.
    A full antimatroid's parent is the corpus of the greedoids. The largest
    class, the 3,012 greedoids on 4 elements, takes 48 kB."""
    if n == 0:
        return b"\0"  # the one normalized table, in every class
    if constraint == "full-antimatroid":
        parents = [_pruned(n, "greedoid")]
    else:
        parents = _join(1 << n - 1, _pruned(n - 1, constraint), _monotone(n - 1, 1))
    kept = []
    for corpus in parents:
        count = len(corpus) >> n
        if constraint == "full-antimatroid":
            # a full greedoid has r(S) = n, the last value of its block, and
            # an accessible family, on which the local union test is exact
            failing = bitset(map(n.__ne__, corpus[(1 << n) - 1 :: 1 << n]))
            failing |= _union_failures(n, bitset(feasible_flags(n, corpus, count)), count)
        else:
            failing = block_failures(n, corpus, count)[_VERDICT[constraint]]
        kept += (corpus[b << n : (b + 1) << n] for b in members_of(~failing, count))
    return b"".join(kept)


def enumerate_tables(spec: EnumSpec):
    """Yield every rank table on n labeled elements satisfying the
    constraint, exactly once, in deterministic order."""
    ground = GroundSet(tuple(_LABELS[: spec.n]))
    # the join yields 2**n values in 0..n, and EnumSpec bounds n, so the
    # tables skip the checked constructor; 2**n references to one iterator,
    # zipped, cut a corpus into tables
    for corpus in _corpora(spec.n, spec.constraint):
        tables = zip(*[iter(corpus)] * (1 << spec.n))
        yield from map(RankTable._trusted, itertools.repeat(ground), tables)


def _enumerated(max_n: int, constraint: str):
    """Every table of the constraint on 0 to max_n elements, by size."""
    for n in range(max_n + 1):
        yield from enumerate_tables(EnumSpec(n, constraint))


def _packed_corpora(max_n: int, constraint: str):
    """(n, corpus, count) for every table of the constraint on 0 to max_n
    elements, by size: the corpora of _corpora, each of count tables."""
    for n in range(max_n + 1):
        for corpus in _corpora(n, constraint):
            yield n, corpus, len(corpus) >> n


# ---------------------------------------------------------------------------
# seeded random corpora
# ---------------------------------------------------------------------------


def _seeded(seed, count, max_n, lo=0, hi=0) -> random.Random:
    """The generator of a seeded sample with integer arguments, 0 <= max_n <= MAX_GROUND_SIZE
    and lo <= hi. A negative count draws no table, as range() would."""
    if seed is None:
        raise RankFunctionError("random table sampling requires a seed")
    for key, value in (("count", count), ("max_n", max_n), ("lo", lo), ("hi", hi)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise RankFunctionError(f"{key} must be an integer, got {value!r}")
    if not 0 <= max_n <= MAX_GROUND_SIZE:
        raise RankFunctionError(f"max_n = {max_n} out of range (0 to {MAX_GROUND_SIZE})")
    if lo > hi:
        raise RankFunctionError(f"lo = {lo} exceeds hi = {hi}")
    return random.Random(seed)


def random_tables(count: int, max_n: int = 6, seed=None, lo: int = -3, hi: int = 8):
    """Seeded stream of tables with r(empty) = 0 and independent uniform
    ranks in [lo, hi] elsewhere. Negative and non-monotone ranks are the
    point: the polynomial identities hold for arbitrary integer tables."""
    rng = _seeded(seed, count, max_n, lo, hi)
    for _ in range(count):
        yield _random_table(rng, _LABELS[: rng.randint(0, max_n)], lo, hi)


def _random_table(rng: random.Random, labels: str, lo: int, hi: int) -> RankTable:
    """A table on ``labels`` with r(empty) = 0 and ranks drawn from ``rng``
    uniformly in [lo, hi] elsewhere, in mask order."""
    values = [0] + [rng.randint(lo, hi) for _ in range((1 << len(labels)) - 1)]
    return table_from_values(GroundSet(tuple(labels)), values)


def random_monotone_tables(count: int, max_n: int = 6, seed=None):
    """Seeded stream of normalized monotone subcardinal tables: each rank is
    uniform between the largest immediate-subset rank and the cardinality."""
    rng = _seeded(seed, count, max_n)
    subsets = {}  # per ground size: the immediate subsets of each mask
    for _ in range(count):
        n = rng.randint(0, max_n)
        if n not in subsets:
            subsets[n] = [[m & ~(1 << p) for p in range(n) if m >> p & 1] for m in range(1 << n)]
        values = [0] * (1 << n)
        for m in range(1, 1 << n):
            below = max(map(values.__getitem__, subsets[n][m]))
            values[m] = rng.randint(below, m.bit_count())
        # 2**n ints in 0..n with n within the cap: no checks needed
        yield RankTable._trusted(GroundSet(tuple(_LABELS[:n])), tuple(values))


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


# Graphs per pass of the census and of root_adjacency: enough for a pass to
# pay off, and few enough that its bit sets stay small. At v = 7 and e = 7,
# 64 graphs hold 7 kB per bit set and a pass peaks at about 0.5 MB, which
# keeps a max_edges=7 run at the peak RSS of relaxing one graph at a time.
_CENSUS_GRAPHS = 64


def _rooted_graphs(max_edges: int):
    """Every connected simple graph with at most max_edges edges, as
    (vertex_count, graphs, roots), graphs being at most _CENSUS_GRAPHS edge
    pair tuples of one length: each rooted tree shape once, rooted at vertex
    0, then each cyclic graph over labeled vertex sets (isomorphic repeats
    are harmless for exhaustive verification) rooted at every vertex."""
    for nodes in range(1, max_edges + 2):
        shapes = iter(_rooted_tree_shapes(nodes))
        while chunk := [tuple(_shape_pairs(shape)) for shape in itertools.islice(shapes, _CENSUS_GRAPHS)]:
            yield nodes, chunk, (0,)
    for v in range(3, max_edges + 1):
        pairs = list(itertools.combinations(range(v), 2))
        for e in range(v, min(max_edges, len(pairs)) + 1):
            combos = itertools.combinations(pairs, e)
            while chunk := list(itertools.islice(combos, _CENSUS_GRAPHS)):
                if graphs := list(itertools.compress(chunk, _connected(v, chunk))):
                    yield v, graphs, range(v)


def all_rooted_graphs(max_edges: int):
    """All connected simple rooted graphs with at most max_edges edges:
    rooted trees one per isomorphism class, plus every labeled rooted choice
    of the cyclic connected graphs."""
    for v, graphs, roots in _rooted_graphs(max_edges):
        # distinct vertex pairs of a connected graph
        vertices = tuple(f"v{i}" for i in range(v))
        for pairs in graphs:
            edges = _labelled(pairs)
            for root in roots:
                yield RootedGraph._trusted(vertices, f"v{root}", edges)


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

    def tally(self, count: int, wrong: int, failures) -> None:
        """Count ``count`` instances, those in the bit set ``wrong`` failing:
        through each failing instance i, in increasing order, count the
        instances up to i and record each (instance, assertion, witness) of
        ``failures(i)``, so that fail-fast and the failure cap act as one
        ``check`` per instance would."""
        counted = 0
        for i in members_of(wrong, count):
            self.instances += i + 1 - counted
            counted = i + 1
            for failure in failures(i):
                self.fail(*failure)
        self.instances += count - counted

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
            raise RankFunctionError(f"{key} = {value} out of range{scope} ({self.range_text()})")
        return value

    def range_text(self) -> str:
        """The inclusive range in words ("0 to 4", "1 or more", "at most
        9"), or "" for a param without one."""
        if self.lowest is None:
            return "" if self.highest is None else f"at most {self.highest}"
        if self.highest is None:
            return f"{self.lowest} or more"
        return f"{self.lowest} to {self.highest}"


def _exhaustive_n(default: int) -> Param:
    """The enumeration size n: a suite checks every table of size 0 to n."""
    return Param(default, 0, MAX_EXHAUSTIVE_N, "for exhaustive enumeration")


#: A seeded sample of random tables; the keys are the samplers' parameters.
#: The count is capped by the rule of the caps above: at 100,000, exchange,
#: the costliest suite per table, takes about 17 s at 18 MB peak RSS,
#: contract_formula 11.5 s and direct_sum_dual 6.7 s. A count below 1
#: checks no instances, which run_suite reports.
_SAMPLE = {
    "seed": Param(None),
    "count": Param(500, None, 100_000),
    "max_n": Param(6, 0, MAX_RANDOM_N),
}
#: A sample with uniform ranks in [lo, hi].
_CORPUS = {
    **_SAMPLE,
    "lo": Param(-3, -MAX_RANDOM_RANK, MAX_RANDOM_RANK),
    "hi": Param(8, -MAX_RANDOM_RANK, MAX_RANDOM_RANK),
}


def _corpus(params: dict):
    return random_tables(**{key: params[key] for key in _CORPUS})


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
            # table's masks in order: an oracle independent of ops._select
            expected = tuple(
                g.values[m | bit] - rp for m in range(g.ground.size) if not m & bit
            )
            ok = got.values == expected and via_dual.values == expected
            rec.check(ok, _desc(i, g), f"contract formula at {p}", lambda: str(got.values))


# max_n stops at 8: the second summand takes its labels from "pqrstuvw"
@_suite(_CORPUS, count=_SAMPLE["count"]._replace(default=250), max_n=Param(4, 0, 8))
def _suite_direct_sum_dual(params, rec: _Recorder):
    max_n, lo, hi = params["max_n"], params["lo"], params["hi"]
    rng = _seeded(params["seed"], params["count"], max_n, lo, hi)
    for i in range(params["count"]):
        n1, n2 = rng.randint(0, max_n), rng.randint(0, max_n)
        g1 = _random_table(rng, _LABELS[:n1], lo, hi)
        g2 = _random_table(rng, "pqrstuvw"[:n2], lo, hi)
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
    for idx, g in enumerate(_enumerated(params["n"], "greedoid")):
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
    for idx, g in enumerate(_enumerated(params["n"], "greedoid")):
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
    for n, corpus, count in _packed_corpora(params["n"], "greedoid"):
        *_, failing = block_failures(n, _packed_dual(n, corpus, count), count)

        def failures(b):
            # a failing table is built, and checked, only to word its witness
            g = RankTable._trusted(GroundSet(tuple(_LABELS[:n])), tuple(corpus[b << n : (b + 1) << n]))
            return [(
                f"greedoid[{idx + b}] n={n} values={g.values}",
                "dual of a greedoid passes the starred axioms",
                lambda: "; ".join(
                    line for line in check_dual_greedoid(dual(g)).lines() if "fail" in line
                ),
            )]

        rec.tally(count, failing, failures)
        idx += count


@_suite(n=_exhaustive_n(4))
def _suite_greedoid_intersection(params, rec: _Recorder):
    for n, corpus, count in _packed_corpora(params["n"], "all-normalized-subcardinal-monotone"):
        greedoid, matroid, dual_greedoid = block_failures(n, corpus, count)
        # greedoid(r*) is read only where r is a greedoid
        greedoids = members_of(~greedoid, count)
        tables = b"".join([corpus[b << n : (b + 1) << n] for b in greedoids])
        dual_fails = block_failures(n, _packed_dual(n, tables, len(greedoids)), len(greedoids))[0]
        both = sum(1 << greedoids[j] for j in members_of(~dual_fails, len(greedoids)))
        # a table failing both assertions reports them in this order
        wrong = {
            "greedoid(r) and greedoid(r*) iff matroid(r)": ~both ^ matroid,
            "greedoid(r) and starred-axioms(r) iff matroid(r)": (greedoid | dual_greedoid) ^ matroid,
        }

        def failures(b):
            instance = f"n={n} values={tuple(corpus[b << n : (b + 1) << n])}"
            witness = f"matroid={not matroid >> b & 1}"
            return [(instance, claim, witness) for claim, fails in wrong.items() if fails >> b & 1]

        rec.tally(count, reduce(or_, wrong.values()), failures)


def _root_adjacent(vertex_count: int, graphs, roots) -> int:
    """Bit g * len(roots) + i says whether roots[i] has degree vertex_count - 1
    in graphs[g]: in a simple graph, whether every other vertex shares an
    edge with it."""
    ends = [bytes(itertools.chain.from_iterable(pairs)) for pairs in graphs]
    return bitset(end.count(root) == vertex_count - 1 for end in ends for root in roots)


@_suite(max_edges=Param(6, 0, MAX_CENSUS_EDGES))
def _suite_root_adjacency(params, rec: _Recorder):
    # cross-check every k-th instance against the public ops; the instance
    # being checked is number rec.instances + 1
    sample_stride = 97

    for v, graphs, roots in _rooted_graphs(params["max_edges"]):
        e, count = len(graphs[0]), len(graphs) * len(roots)
        size = 1 << e
        # block b is the row of roots[b % len(roots)] in graphs[b // len(roots)]
        rows = branching_rows(e, v, graphs, roots)
        sums = _dual_sums(e, rows, count)
        # byte A of a block is r*(A) + bias, and byte 0 is the bias: the
        # bytes below it are the negative duals
        below = b"1" * sums[0] + b"0" * (256 - sums[0])
        negative = failing_blocks(e, int(sums.translate(below)[::-1], 2), count)
        adjacent = _root_adjacent(v, graphs, roots)
        wrong = ~(negative ^ adjacent)
        for b in range((-rec.instances - 1) % sample_stride, count, sample_stride):
            pairs, root = graphs[b // len(roots)], roots[b % len(roots)]
            rg = RootedGraph(tuple(f"v{i}" for i in range(v)), f"v{root}", _labelled(pairs))
            g = branching_greedoid(rg)
            ok = g.values == tuple(rows[b * size : (b + 1) * size])
            ok = ok and min(dual(g).values) == min(sums[b * size : (b + 1) * size]) - sums[0]
            if not (ok and root_adjacency_test(rg) == bool(adjacent >> b & 1)):
                wrong |= 1 << b

        def failures(b):
            pairs, root = graphs[b // len(roots)], roots[b % len(roots)]
            min_dual = min(sums[b * size : (b + 1) * size]) - sums[0]
            return [(
                f"{'tree' if e < v else 'cyclic'} v={v} edges={pairs} root=v{root}",
                "dual rank nonnegative iff every vertex is root-adjacent",
                f"min_dual={min_dual} adjacent={bool(adjacent >> b & 1)}",
            )]

        rec.tally(count, wrong, failures)


@_suite(n=_exhaustive_n(4))
def _suite_full_dual_nonpositive(params, rec: _Recorder):
    idx = 0
    for n, corpus, count in _packed_corpora(params["n"], "greedoid"):
        # the full greedoids, r(S) = n, are the blocks of one dual pass
        full = members_of(bitset(map(n.__eq__, corpus[(1 << n) - 1 :: 1 << n])), count)
        tables = b"".join([corpus[b << n : (b + 1) << n] for b in full])
        duals = _packed_dual(n, tables, len(full)).values

        def failures(j):
            block = slice(j << n, (j + 1) << n)
            return [(
                f"full-greedoid[{idx + full[j]}] n={n} values={tuple(tables[block])}",
                "dual rank of a full greedoid is nonpositive everywhere",
                f"max={max(duals[block])}",
            )]

        rec.tally(len(full), failing_blocks(n, bitset(map((0).__lt__, duals)), len(full)), failures)
        idx += count


_CLOSURE = {"n": _exhaustive_n(4), "max_tree_edges": Param(8, 0, MAX_TREE_EDGES)}


def _closure_corpora(params):
    """(description, table) pairs; each description is a callable."""
    for idx, g in enumerate(_enumerated(params["n"], "full-antimatroid")):
        yield (lambda idx=idx, g=g: f"antimatroid[{idx}] n={g.n} values={g.values}"), g
    for idx, tree in enumerate(all_trees(params["max_tree_edges"])):
        yield (lambda idx=idx, tree=tree: f"pruning-tree[{idx}] edges={len(tree.edges)}"), (
            pruning_antimatroid(tree)
        )


@_suite(_CLOSURE)
def _suite_closure_dual_rank(params, rec: _Recorder):
    for desc, g in _closure_corpora(params):
        # the corpora are full antimatroids by construction; the closures are
        # still checked to be convex
        gaps = _closure_gaps(g)
        dv = dual(g).values

        def failures(mask):
            witness = f"A={SubsetRef(g.ground, mask)} dual={dv[mask]} gap={gaps[mask]}"
            return [(desc, "dual rank equals minus the closure gap", witness)]

        rec.tally(g.ground.size, bitset(map(ne, dv, map(neg, gaps))), failures)
    # spot value on the bundled ten-edge tree
    rank = dual(pruning_antimatroid(demo_pruning_tree())).rank(("a", "d", "f"))
    rec.check(rank == -3, "demo pruning tree", "dual rank of {a,d,f} is -3", str(rank))


@_suite(_CLOSURE)
def _suite_convex_zero_dual(params, rec: _Recorder):
    for desc, g in _closure_corpora(params):
        convex = _convex_flags(g)
        dv = dual(g).values

        def failures(mask):
            witness = f"C={SubsetRef(g.ground, mask)} convex={bool(convex[mask])} dual={dv[mask]}"
            return [(desc, "convex iff dual rank zero", witness)]

        rec.tally(g.ground.size, bitset(map(ne, convex, map((0).__eq__, dv))), failures)


_MONOTONE = {**_SAMPLE, "n": _exhaustive_n(3)}


def _monotone_corpus(params):
    """(description, table) pairs; each description is a callable."""
    for idx, g in enumerate(_enumerated(params["n"], "all-normalized-subcardinal-monotone")):
        yield (lambda idx=idx, g=g: f"enumerated[{idx}] n={g.n} values={g.values}"), g
    for idx, g in enumerate(random_monotone_tables(**{key: params[key] for key in _SAMPLE})):
        yield (lambda idx=idx, g=g: f"sampled[{idx}] n={g.n} values={g.values}"), g


@_suite(_MONOTONE)
def _suite_nullity_monotone(params, rec: _Recorder):
    for desc, g in _monotone_corpus(params):
        # three independent readings: no jump step of r, no decreasing step
        # of the nullity |A| - r(A), and no pair A <= B stretched past |B - A|
        # (no nullity below a subset's); both corpora keep nullities in 0..n
        nullities = bytes(map(sub, popcounts(g.n), g.values))
        (jump,) = step_sets(g.n, g._kernel_view(), JUMP)
        unit = not any(jump)
        (drop,) = step_sets(g.n, nullities, DECREASE)
        nullity = not any(drop)
        stretch = subset_max(g.n, nullities) == nullities
        rec.check(
            unit == nullity == stretch,
            desc,
            "unit rank increase iff monotone nullity (iff bounded stretch)",
            lambda: f"unit={unit} nullity={nullity} stretch={stretch}",
        )


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
    dv = dual(g).values
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
