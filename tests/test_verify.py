import ast
import hashlib
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from operator import le
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankdual import verify
from rankdual import (
    EnumSpec,
    RankFunctionError,
    RankTable,
    RootedGraph,
    SuiteResult,
    all_rooted_graphs,
    all_trees,
    check_greedoid,
    check_matroid,
    direct_sum,
    dual,
    enumerate_tables,
    random_monotone_tables,
    random_tables,
    root_adjacency_test,
    run_suite,
    table_from_values,
    validate,
)
from rankdual.verify import (
    CONSTRAINTS,
    RANDOMIZED_SUITES,
    SUITES,
    Suite,
    _Abort,
    _Recorder,
    _corpora,
    _join,
    _monotone,
    _pruned,
    _root_adjacent,
    _rooted_graphs,
    _rooted_tree_shapes,
    _shape_pairs,
)
from rankdual.axioms import block_failures
from rankdual.core import bitset, failing_blocks
from rankdual.ops import _dual_sums, _dual_values, _packed_dual
from rankdual.structures import branching_rows

from enum_oracle import oracle_enumerate_values


# --- enumeration ----------------------------------------------------------------


def test_enum_spec_validation():
    with pytest.raises(RankFunctionError, match="too large"):
        EnumSpec(5, "greedoid")
    with pytest.raises(RankFunctionError, match="constraint"):
        EnumSpec(2, "lattice")


@pytest.mark.parametrize("n", [2.0, "3", True])
def test_enum_spec_rejects_a_non_integer_n(n):
    with pytest.raises(RankFunctionError, match="n must be an integer"):
        EnumSpec(n, "greedoid")


def test_enumeration_trivial_counts():
    assert len(list(enumerate_tables(EnumSpec(0, "greedoid")))) == 1
    ones = list(enumerate_tables(EnumSpec(1, "greedoid")))
    assert [g.values for g in ones] == [(0, 0), (0, 1)]


def test_enumeration_is_deterministic_and_duplicate_free():
    seen = [g.values for g in enumerate_tables(EnumSpec(3, "greedoid"))]
    assert len(seen) == len(set(seen))
    assert seen == [g.values for g in enumerate_tables(EnumSpec(3, "greedoid"))]
    assert seen == sorted(seen)


def test_enumeration_double_count_cross_check():
    # the pruned enumerators must agree with filtering everything through the
    # witnessed checkers
    for n in (2, 3):
        everything = list(enumerate_tables(EnumSpec(n, "all-normalized-subcardinal-monotone")))
        for g in everything:
            report = validate(g)
            assert report.normalized and report.subcardinal and report.monotone
        greedoids = [g.values for g in everything if check_greedoid(g).passed]
        matroids = [g.values for g in everything if check_matroid(g).passed]
        assert greedoids == [g.values for g in enumerate_tables(EnumSpec(n, "greedoid"))]
        assert matroids == [g.values for g in enumerate_tables(EnumSpec(n, "matroid"))]


def test_recorded_census_numbers():
    # cross-checked against the filter-everything pass (previous test) at
    # n <= 3; the n = 4 numbers are frozen census values
    assert sum(1 for _ in enumerate_tables(EnumSpec(2, "all-normalized-subcardinal-monotone"))) == 9
    assert sum(1 for _ in enumerate_tables(EnumSpec(2, "greedoid"))) == 7
    assert sum(1 for _ in enumerate_tables(EnumSpec(2, "matroid"))) == 5
    assert sum(1 for _ in enumerate_tables(EnumSpec(3, "all-normalized-subcardinal-monotone"))) == 209
    assert sum(1 for _ in enumerate_tables(EnumSpec(3, "greedoid"))) == 64
    assert sum(1 for _ in enumerate_tables(EnumSpec(3, "matroid"))) == 16
    assert sum(1 for _ in enumerate_tables(EnumSpec(4, "matroid"))) == 68
    assert sum(1 for _ in enumerate_tables(EnumSpec(4, "greedoid"))) == 3012


def _halves(width, top):
    return st.lists(st.lists(st.integers(0, top), min_size=width, max_size=width).map(bytes), max_size=12)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda width: st.tuples(_halves(width, 5), _halves(width, 3))))
@example(([], [b"\0\1"]))
@example(([b"\0\1"], []))
@example(([b"\5\0", b"\1\1"], [b"\3\3", b"\1\2"]))  # a lower above every upper
def test_join_keeps_the_pointwise_ordered_pairs_in_order(halves):
    lowers, uppers = halves
    want = [low + up for low in lowers for up in uppers if all(map(le, low, up))]
    width = len((lowers + uppers)[0]) if lowers + uppers else 1
    corpora = list(_join(width, b"".join(lowers), b"".join(uppers)))
    assert b"".join(corpora) == b"".join(want)
    # one corpus for each lower half that some upper fits, holding its tables
    fitted = [low for low in lowers if any(all(map(le, low, up)) for up in uppers)]
    assert len(corpora) == len(fitted)
    for low, corpus in zip(fitted, corpora):
        assert corpus == b"".join(low + up for up in uppers if all(map(le, low, up)))


@pytest.mark.parametrize("n", range(3))
@pytest.mark.parametrize("c", range(4))
def test_monotone_tables_are_every_bounded_monotone_table(n, c):
    size = 1 << n
    want = [
        bytes(v)
        for v in itertools.product(range(n + c + 1), repeat=size)
        if all(v[m] <= m.bit_count() + c for m in range(size))
        and all(v[a] <= v[b] for a in range(size) for b in range(size) if a & b == a)
    ]
    assert _monotone(n, c) == b"".join(want)


def test_each_corpus_of_the_stream_stays_small():
    # a monotone corpus holds the tables of one lower half: at most one per
    # upper half
    bound = len(_monotone(3, 1)) >> 3
    assert bound == 1341
    sizes = [len(corpus) >> 4 for corpus in _corpora(4, "all-normalized-subcardinal-monotone")]
    assert len(sizes) == 209 and sum(sizes) == 134602
    assert min(sizes) == 256 and max(sizes) == bound
    # a pruned class is one corpus
    for constraint in CONSTRAINTS[1:]:
        assert [len(corpus) >> 4 for corpus in _corpora(4, constraint)] == [len(_pruned(4, constraint)) >> 4]


def test_full_antimatroid_enumeration_matches_filter():
    from rankdual import check_antimatroid

    for n in (2, 3):
        expected = [
            g.values
            for g in enumerate_tables(EnumSpec(n, "all-normalized-subcardinal-monotone"))
            if check_antimatroid(g).passed and g.full_rank == n
        ]
        got = [g.values for g in enumerate_tables(EnumSpec(n, "full-antimatroid"))]
        assert got == expected


def _pruned_values(n, constraint):
    return [g.values for g in enumerate_tables(EnumSpec(n, constraint))]


def test_pruned_classes_are_built_once_per_process(monkeypatch):
    calls, block_failures = [], verify.block_failures
    monkeypatch.setattr(verify, "block_failures", lambda *args: calls.append(args) or block_failures(*args))
    _pruned.cache_clear()
    first = list(enumerate_tables(EnumSpec(4, "greedoid")))
    assert calls
    calls.clear()
    second = list(enumerate_tables(EnumSpec(4, "greedoid")))
    assert calls == [] and [g.values for g in second] == [g.values for g in first]


def test_a_partly_drained_enumeration_leaves_the_whole_class():
    # a fail-fast suite stops reading the enumeration early
    _pruned.cache_clear()
    assert len(list(itertools.islice(enumerate_tables(EnumSpec(4, "greedoid")), 5))) == 5
    got = _pruned_values(4, "greedoid")
    assert len(got) == 3012 and got == list(oracle_enumerate_values(4, "greedoid"))


def test_pruned_classes_do_not_depend_on_the_order_they_are_built_in():
    _pruned.cache_clear()
    for constraint in ("full-antimatroid", "matroid", "greedoid"):
        for n in (4, 3):
            assert _pruned_values(n, constraint) == list(oracle_enumerate_values(n, constraint))


# --- random corpora ----------------------------------------------------------------


def test_random_tables_deterministic_and_normalized():
    first = [g.values for g in random_tables(40, max_n=5, seed=123)]
    second = [g.values for g in random_tables(40, max_n=5, seed=123)]
    assert first == second
    assert first != [g.values for g in random_tables(40, max_n=5, seed=124)]
    for values in first:
        assert values[0] == 0
        assert all(-3 <= v <= 8 for v in values[1:])


def test_random_tables_require_seed():
    with pytest.raises(RankFunctionError, match="seed"):
        next(random_tables(1))


def test_random_monotone_tables_satisfy_constraints():
    for g in random_monotone_tables(60, max_n=5, seed=9):
        report = validate(g)
        assert report.normalized and report.monotone
        assert report.subcardinal and report.nonnegative


def test_random_monotone_tables_reject_a_ground_past_the_cap():
    with pytest.raises(RankFunctionError, match="max_n = 25"):
        next(random_monotone_tables(1, max_n=25, seed=1))


@pytest.mark.parametrize(
    "sampler, args, message",
    [
        (random_tables, {"max_n": -1}, "max_n = -1 out of range"),
        (random_monotone_tables, {"max_n": -1}, "max_n = -1 out of range"),
        (random_tables, {"max_n": 25}, "max_n = 25 out of range"),
        (random_monotone_tables, {"max_n": 2.5}, "max_n must be an integer"),
        (random_tables, {"lo": 5, "hi": 1}, "lo = 5 exceeds hi = 1"),
        (random_tables, {"hi": 0.5}, "hi must be an integer"),
        (random_monotone_tables, {"count": 2.5}, "count must be an integer"),
    ],
)
def test_samplers_reject_bad_arguments_before_drawing(sampler, args, message):
    with pytest.raises(RankFunctionError, match=message):
        next(sampler(**{"count": 1, "seed": 1} | args))


# --- generated tables and graphs skip the checked constructors -----------------------


def _same_as_checked_table(g):
    assert type(g.values) is tuple and set(map(type, g.values)) <= {int}
    checked = table_from_values(g.ground, g.values)
    assert g == checked and hash(g) == hash(checked)


@pytest.mark.parametrize("constraint", CONSTRAINTS)
def test_enumerated_tables_equal_the_checked_tables(constraint):
    for n in range(5):
        for g in enumerate_tables(EnumSpec(n, constraint)):
            _same_as_checked_table(g)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_monotone_tables_equal_the_checked_tables(seed):
    for g in random_monotone_tables(200, max_n=6, seed=seed):
        _same_as_checked_table(g)


def test_census_graphs_equal_the_checked_graphs():
    for rg in all_rooted_graphs(6):
        checked = RootedGraph(rg.vertices, rg.root, rg.edges)
        assert rg == checked and hash(rg) == hash(checked)
        assert type(rg.vertices) is tuple and type(rg.edges) is tuple
        assert all(type(e) is tuple for e in rg.edges)


def test_generated_tables_and_graphs_skip_the_checked_constructors(monkeypatch):
    def refuse(self):
        raise AssertionError(f"checked constructor of {type(self).__name__} ran")

    monkeypatch.setattr(RankTable, "__post_init__", refuse)
    monkeypatch.setattr(RootedGraph, "__post_init__", refuse)
    for constraint in CONSTRAINTS:
        assert sum(1 for _ in enumerate_tables(EnumSpec(3, constraint))) > 0
    assert sum(1 for _ in random_monotone_tables(20, max_n=4, seed=1)) == 20
    assert sum(1 for _ in all_rooted_graphs(4)) > 0


# --- structural censuses -------------------------------------------------------------


def _ahu(adjacency, vertex, parent):
    """AHU encoding of the subtree hanging from vertex, away from parent."""
    return "(" + "".join(
        sorted(_ahu(adjacency, w, vertex) for w in adjacency[vertex] if w != parent)
    ) + ")"


def _canonical_form(tree):
    """Brute-force isomorphism invariant: the AHU string minimised over all roots."""
    adjacency = {v: [] for v in tree.vertices}
    for _, u, v in tree.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return min(_ahu(adjacency, root, None) for root in tree.vertices)


def test_tree_census_counts():
    trees = all_trees(8)
    by_edges = {}
    for t in trees:
        by_edges[len(t.edges)] = by_edges.get(len(t.edges), 0) + 1
    assert [by_edges[e] for e in range(9)] == [1, 1, 1, 2, 3, 6, 11, 23, 47]
    assert len(trees) == 95
    # counts alone could hide a duplicate paired with a missing class
    assert len({_canonical_form(t) for t in trees}) == 95
    for t in trees:
        pairs = [(int(u[1:]), int(v[1:])) for _, u, v in t.edges]
        assert pairs == sorted(pairs) and all(u < v for u, v in pairs)
        assert [label for label, _, _ in t.edges] == list("abcdefgh"[: len(t.edges)])


def test_library_runs_without_networkx():
    script = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "import rankdual\n"
        "from rankdual.cli import run_command\n"
        "assert len(rankdual.all_trees(8)) == 95\n"
        "sys.exit(run_command(['verify', '--suite', 'closure_dual_rank']))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert "instances: 23895" in proc.stdout
    assert proc.stdout.rstrip().endswith("result: pass")


def test_library_imports_only_the_standard_library():
    package = Path(__file__).resolve().parents[1] / "src" / "rankdual"
    sources = sorted(package.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_every_imported_name_is_used():
    package = Path(__file__).resolve().parents[1] / "src" / "rankdual"
    sources = sorted(set(package.glob("*.py")) - {package / "__init__.py"})
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


def test_nullity_monotone_holds_no_per_size_structure():
    # the small run builds the process's one-off caches; a structure kept
    # per ground size while the run lasts, such as all nested pairs A <= B of
    # every ground up to 9 (about 2 MB), shows in the peak
    run_suite("nullity_monotone", {"max_n": 2, "count": 20, "n": 0, "seed": 1})
    tracemalloc.start()
    try:
        result = run_suite("nullity_monotone", {"max_n": 9, "count": 20, "n": 0, "seed": 1})
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.passed
    assert held < 500_000
    assert peak < 500_000


def test_rooted_tree_shape_counts():
    assert [len(_rooted_tree_shapes(k)) for k in range(1, 8)] == [1, 1, 2, 4, 9, 20, 48]


def test_rooted_graph_census_smoke():
    graphs = list(all_rooted_graphs(3))
    # 8 rooted trees with up to 3 edges plus the triangle rooted 3 ways
    assert len(graphs) == 8 + 3
    for rg in graphs:
        assert rg.root in rg.vertices


def test_root_adjacency_checks_each_census_graph_once():
    for k in range(6):
        result = run_suite("root_adjacency", {"max_edges": k})
        assert result.passed
        assert result.instances_checked == len(list(all_rooted_graphs(k)))


def test_packed_min_duals_match_the_per_row_duals_on_the_census():
    # as root_adjacency reads them: byte A of each row's block of the batch's
    # pass is r*(A) + bias, and byte 0 is r*(empty) + bias = bias; the blocks
    # with a byte below the bias are those with a negative dual
    for v, graphs, roots in _rooted_graphs(5):
        n, size = len(graphs[0]), 1 << len(graphs[0])
        count = len(graphs) * len(roots)
        rows = branching_rows(n, v, graphs, roots)
        sums = _dual_sums(n, rows, count)
        least = [min(sums[i : i + size]) - sums[0] for i in range(0, len(sums), size)]
        assert least == [min(_dual_values(rows[i : i + size], n)) for i in range(0, len(rows), size)]
        below = b"1" * sums[0] + b"0" * (256 - sums[0])
        negative = failing_blocks(n, int(sums.translate(below)[::-1], 2), count)
        assert negative == bitset(x < 0 for x in least)


def _components(vertex_count, pairs):
    """Union-find: the component representative of each vertex 0..count-1
    in the graph with the given (u, v) index pairs as edges."""
    parent = list(range(vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return [find(x) for x in range(vertex_count)]


def test_the_census_keeps_the_graphs_that_union_find_calls_connected():
    expected = []
    for nodes in range(1, 8):
        expected += [(nodes, tuple(_shape_pairs(shape)), (0,)) for shape in _rooted_tree_shapes(nodes)]
    for v in range(3, 7):
        pairs = list(itertools.combinations(range(v), 2))
        for e in range(v, min(6, len(pairs)) + 1):
            for combo in itertools.combinations(pairs, e):
                if len(set(_components(v, combo))) == 1:
                    expected.append((v, combo, tuple(range(v))))
    batches = list(_rooted_graphs(6))
    assert [(v, pairs, tuple(roots)) for v, graphs, roots in batches for pairs in graphs] == expected
    for _, graphs, _ in batches:
        assert 0 < len(graphs) <= verify._CENSUS_GRAPHS
        assert len({len(pairs) for pairs in graphs}) == 1


def test_root_adjacency_from_degrees_matches_the_test_on_the_whole_census():
    # bit g * len(roots) + i of a pass is roots[i] of graphs[g], the order in
    # which all_rooted_graphs lists the instances
    flags = []
    for v, graphs, roots in _rooted_graphs(5):
        adjacent = _root_adjacent(v, graphs, roots)
        flags += [bool(adjacent >> b & 1) for b in range(len(graphs) * len(roots))]
    assert flags == [root_adjacency_test(rg) for rg in all_rooted_graphs(5)]
    assert True in flags and False in flags


def test_the_default_root_adjacency_report():
    assert run_suite("root_adjacency", {}).to_report().split("\n") == [
        "suite: root_adjacency",
        "params:",
        "instances: 24271",
        "failures: 0",
        "result: pass",
    ]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(st.integers(0, 40), min_size=1 << n, max_size=1 << n), max_size=5),
        )
    )
)
def test_the_corpus_dual_is_the_duals_of_its_tables_laid_end_to_end(case):
    # r(S) is arbitrary per table, so that each block lifts its own; the
    # dual is unchanged by a shift of all values, which makes the int-list
    # input negative in places
    n, rows = case
    expected = [x for row in rows for x in _dual_values(row, n)]
    corpus = b"".join(map(bytes, rows))
    for values in (corpus, [x - 20 for x in corpus]):
        view = _packed_dual(n, values, len(rows))
        assert list(view.values) == expected
        assert (view.low, view.high) == (min(expected + [0]), max(expected, default=0))
        # the axiom verdicts read the view as the duals themselves
        assert block_failures(n, view, len(rows)) == block_failures(n, expected, len(rows))
    sums = _dual_sums(n, corpus, len(rows))
    assert [x - sums[0] for x in sums] == expected


def test_a_corpus_whose_dual_bytes_could_carry_gets_no_view():
    # bias is 127, from the second table, and byte 6 of the first is
    # |{b, c}| + 127 + 127 - 0 = 256
    first, second = [0, 127] + [0] * 6, [0] * 7 + [127]
    assert _packed_dual(3, bytes(first + second), 2) is None
    assert _packed_dual(3, bytes(second + second), 2).values == _dual_values(second, 3) * 2


# --- suite machinery -----------------------------------------------------------------


def test_unknown_suite():
    with pytest.raises(RankFunctionError, match="unknown suite"):
        run_suite("nonesuch")


def test_randomized_suite_requires_seed():
    assert RANDOMIZED_SUITES == {
        "involution", "exchange", "contract_formula", "direct_sum_dual", "recursion_oracle",
        "duality_swap", "polynomiality", "nullity_monotone", "demimatroid_characterization",
    }
    for name in sorted(RANDOMIZED_SUITES):
        with pytest.raises(RankFunctionError, match="requires a seed"):
            run_suite(name, {"count": 5})


@pytest.mark.parametrize("key, value", [("count", 2.7), ("seed", 1.9)])
def test_run_suite_rejects_a_float_param(key, value):
    # truncated, count=2.7 would check 2 tables and seed=1.9 would run seed 1
    with pytest.raises(RankFunctionError) as raised:
        run_suite("involution", {"seed": 1, "count": 2, key: value})
    assert str(raised.value) == f"{key} must be an integer, got {value!r}"


def test_random_corpora_are_checked_as_they_are_drawn(monkeypatch):
    events = []

    def drawing(**params):
        for g in random_tables(**params):
            events.append("draw")
            yield g

    def checking(g):
        events.append("check")
        return dual(g)

    monkeypatch.setattr(verify, "random_tables", drawing)
    monkeypatch.setattr(verify, "dual", checking)
    assert run_suite("involution", {"seed": 1, "count": 3}).passed
    # no table waits in a list: each is checked before the next is drawn
    assert events == ["draw", "check", "check"] * 3


def _reference_pairs(seed, count=250, max_n=4, lo=-3, hi=8):
    """The summand pairs of direct_sum_dual as the suite once drew them
    inline, at its default params."""
    rng = random.Random(seed)
    for _ in range(count):
        n1, n2 = rng.randint(0, max_n), rng.randint(0, max_n)
        values1 = [0] + [rng.randint(lo, hi) for _ in range((1 << n1) - 1)]
        values2 = [0] + [rng.randint(lo, hi) for _ in range((1 << n2) - 1)]
        yield ("abcd"[:n1], tuple(values1)), ("pqrs"[:n2], tuple(values2))


@pytest.mark.parametrize("seed", range(5))
def test_direct_sum_dual_draws_the_same_pairs(monkeypatch, seed):
    summed = []

    def recording(g1, g2):
        summed.append(tuple(("".join(g.ground.labels), g.values) for g in (g1, g2)))
        return direct_sum(g1, g2)

    monkeypatch.setattr(verify, "direct_sum", recording)
    assert run_suite("direct_sum_dual", {"seed": seed}).passed
    # each pair is summed, then its duals are
    assert summed[::2] == list(_reference_pairs(seed))


def test_suite_results_are_deterministic():
    a = run_suite("duality_swap", {"count": 40, "seed": 77})
    b = run_suite("duality_swap", {"count": 40, "seed": 77})
    assert (a.suite, a.params, a.instances_checked, a.failures) == (
        b.suite,
        b.params,
        b.instances_checked,
        b.failures,
    )
    assert a.passed


SMALL_PARAMS = {
    "involution": {"count": 40, "seed": 3},
    "exchange": {"count": 25, "seed": 3},
    "contract_formula": {"count": 25, "seed": 3},
    "direct_sum_dual": {"count": 25, "seed": 3},
    "recursion_oracle": {"count": 25, "seed": 3},
    "duality_swap": {"count": 40, "seed": 3},
    "polynomiality": {"count": 40, "seed": 3},
    "contract_feasibility": {"n": 2},
    "minor_agreement": {"n": 2},
    "dual_greedoid_axioms": {"n": 3},
    "greedoid_intersection": {"n": 3},
    "root_adjacency": {"max_edges": 3},
    "full_dual_nonpositive": {"n": 3},
    "closure_dual_rank": {"n": 3, "max_tree_edges": 4},
    "convex_zero_dual": {"n": 3, "max_tree_edges": 4},
    "nullity_monotone": {"n": 2, "count": 40, "seed": 3},
    "demimatroid_characterization": {"n": 2, "count": 40, "seed": 3},
    "branching_goldens": {},
    "pruning_goldens": {},
}


# sha256 of run_suite(name, {"seed": 1}).to_report() for every suite; the
# instance counts depend on every default param, so these pin the defaults
GOLDEN_REPORTS = {
    "branching_goldens": "db3cd72dc121caf21161040fa4d322969474bf94710fccffba93371ac94f4044",
    "closure_dual_rank": "0d5d7a3c8667179c3ffea9c562101c4e9d17dce9188892d0429c8ec55015ea45",
    "contract_feasibility": "bebcc677b7f39b4a9328c6704f9acebb92c087e7913c5b7a413fa0d527c568c4",
    "contract_formula": "5ad29bde954bbe39bedb9669741fc84ac900d18d955cb7122b3da88186fb28ef",
    "convex_zero_dual": "8dbdec44c542181602781639fbf684362569e4cec5c6f7f1f4b763663d9678c2",
    "demimatroid_characterization": "fff19ca1f9d95d63e5c87c038e879517a2146ed071aa939165cbdbd29c8b951a",
    "direct_sum_dual": "cc72c2c6ff96b75b695cd8b24395aad346eabe930282624d97421608a1666b85",
    "dual_greedoid_axioms": "b729899c56c71c037b47c6060b1593af1ee0404ea8cea65ba279314acbf5ed35",
    "duality_swap": "e955830740a719da5130f9c77a83cceaa0313240ebd46adeba30eabb6187290e",
    "exchange": "15a21ecd29951a3fbbb00834a9442b214f5da3bf8eb93bcd98635c7a95f86e31",
    "full_dual_nonpositive": "130f820ed9604e0224a1eaa037e8a8808e7a34e7cf373686fe2dc1b6e433eb04",
    "greedoid_intersection": "f905a5ce2c862266334def49bde3be93c7e0cd278b3d3bcfb6b7143760b50b5a",
    "involution": "ad70cd80a5cbc186760117e75e339e616c4def7b6fac3fa85cde62ebd40ca497",
    "minor_agreement": "db05a3ec06a4fbeed6f214b32fafbf537803a7139c47d1507ee9e15c7bda0a02",
    "nullity_monotone": "468109becf30f72f126a1715b2bda62e44deacf3cceb0a9bb8547735131a934a",
    "polynomiality": "22f3a1d1805e7d9095fc5bc3ac132070d2321cd9811d5d6b8f70791db4e7000c",
    "pruning_goldens": "e45febe6d286c6399437facb43196aa56781931b3e8a2352c530b373c1bcd5a4",
    "recursion_oracle": "376fe97cfaa9a3eeae77617cc02acd628c51cf8719d6da02f712c940eeb0463c",
    "root_adjacency": "c1f5d7b6fc4bd07d984c0fb54552ae363ed6636803f2d9efb79d7ed6f572ae86",
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_default_report_is_unchanged(name):
    report = run_suite(name, {"seed": 1}).to_report()
    assert hashlib.sha256(report.encode()).hexdigest() == GOLDEN_REPORTS[name], report


def test_all_suites_pass_at_small_scale():
    assert set(SMALL_PARAMS) == set(SUITES)
    for name, p in SMALL_PARAMS.items():
        result = run_suite(name, p)
        assert result.passed, (name, result.failures[:3])
        assert result.instances_checked > 0


def test_suites_read_exactly_their_declared_params(monkeypatch):
    class Reads(dict):
        def get(self, key, default=None):
            seen.add(key)
            return super().get(key, default)

        def __getitem__(self, key):
            seen.add(key)
            return super().__getitem__(key)

        def __contains__(self, key):
            seen.add(key)
            return super().__contains__(key)

    def reading(params, rec):
        handed.update(params)
        suite.run(Reads(params), rec)

    for name, suite in SUITES.items():
        seen, handed = set(), {}
        monkeypatch.setitem(SUITES, name, suite._replace(run=reading))
        run_suite(name, {**SMALL_PARAMS[name], "seed": 3})
        # run_suite hands the suite exactly its declared params, and it reads each
        assert set(handed) == seen == set(suite.params), name


def test_recorder_fail_fast_and_cap(monkeypatch):
    rec = _Recorder(fail_fast=False, max_failures=2)
    for i in range(5):
        rec.check(False, f"i{i}", "bad")
    assert rec.instances == 5 and len(rec.failures) == 2

    def stub(params, rec):
        for i, ok in enumerate([True, True, False, True, False]):
            rec.check(ok, f"i{i}", "bad")

    monkeypatch.setitem(SUITES, "stub", Suite(stub, {}))
    assert run_suite("stub").instances_checked == 5
    # fail-fast counts the instances through the first failure and no further
    result = run_suite("stub", {"fail_fast": True})
    assert result.instances_checked == 3
    assert result.failures == [("i2", "bad", "")]


def _recorded(fail_fast, max_failures, count_instances):
    """The instances and failures a recorder holds after count_instances(rec),
    and whether it stopped the suite."""
    rec = _Recorder(fail_fast=fail_fast, max_failures=max_failures)
    try:
        count_instances(rec)
    except _Abort:
        return rec.instances, rec.failures, True
    return rec.instances, rec.failures, False


@settings(max_examples=300, deadline=None)
@given(
    count=st.integers(0, 300),
    wrong=st.integers(-(1 << 320), 1 << 320),
    doubled=st.integers(0, (1 << 300) - 1),
    fail_fast=st.booleans(),
    max_failures=st.integers(1, 5),
)
@example(count=0, wrong=-1, doubled=0, fail_fast=True, max_failures=1)
@example(count=300, wrong=-1 << 299, doubled=-1, fail_fast=False, max_failures=5)
def test_tally_acts_as_one_check_per_instance(count, wrong, doubled, fail_fast, max_failures):
    def failures(i):
        # instance i fails twice where bit i of doubled is set
        return [(f"i{i}", f"claim {k}", f"w{i}") for k in range(1 + (doubled >> i & 1))]

    def one_at_a_time(rec):
        for i in range(count):
            first, *rest = failures(i)
            rec.check(not wrong >> i & 1, *first)
            for failure in rest if wrong >> i & 1 else ():
                rec.fail(*failure)

    def tallied(rec):
        rec.tally(count, wrong, failures)

    expected = _recorded(fail_fast, max_failures, one_at_a_time)
    assert _recorded(fail_fast, max_failures, tallied) == expected


def test_suite_report_rendering():
    result = SuiteResult(
        suite="demo",
        params={"n": 2, "seed": 5},
        instances_checked=3,
        failures=[("inst", "claim", "why")],
        elapsed=1.25,
    )
    report = result.to_report()
    assert "suite: demo" in report
    assert "params: n=2 seed=5" in report
    assert "failure: inst | claim | why" in report
    assert report.endswith("result: fail")
    assert "elapsed" in result.to_report(include_elapsed=True)
