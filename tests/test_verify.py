import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rankdual import (
    EnumSpec,
    RankFunctionError,
    SuiteResult,
    all_rooted_graphs,
    all_trees,
    check_greedoid,
    check_matroid,
    enumerate_tables,
    random_monotone_tables,
    random_tables,
    run_suite,
    validate,
)
from rankdual.verify import RANDOMIZED_SUITES, SUITES, Suite, _Recorder, _rooted_tree_shapes


# --- enumeration ----------------------------------------------------------------


def test_enum_spec_validation():
    with pytest.raises(RankFunctionError, match="too large"):
        EnumSpec(5, "greedoid")
    with pytest.raises(RankFunctionError, match="constraint"):
        EnumSpec(2, "lattice")


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


def test_rooted_tree_shape_counts():
    assert [len(_rooted_tree_shapes(k)) for k in range(1, 8)] == [1, 1, 2, 4, 9, 20, 48]


def test_rooted_graph_census_smoke():
    graphs = list(all_rooted_graphs(3))
    # 8 rooted trees with up to 3 edges plus the triangle rooted 3 ways
    assert len(graphs) == 8 + 3
    for rg in graphs:
        assert rg.root in rg.vertices


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
