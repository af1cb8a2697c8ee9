import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankdual import (
    DemiTriple,
    EnumSpec,
    GroundSet,
    GroundSetError,
    check_antimatroid,
    check_demimatroid_characterization,
    check_demimatroid_triple,
    check_dual_greedoid,
    check_greedoid,
    check_matroid,
    demo_pruning_tree,
    dual,
    enumerate_tables,
    feasible_descriptors,
    pruning_antimatroid,
    random_tables,
    uniform_matroid,
)
from rankdual.axioms import FeasibleFamily, block_failures
from rankdual.core import DECREASE, JUMP, popcounts, step_sets
from rankdual.ops import _dual_values
from rankdual.verify import _corpora

from conftest import make_table


def witness_str(report, axiom):
    return {k: str(v) for k, v in report.witnesses[axiom].items()}


# --- matroid ---------------------------------------------------------------


def test_matroid_demo_fails_unit_increase(demo_table):
    report = check_matroid(demo_table)
    assert not report.passed
    assert not report.verdicts["R1"]
    # smallest witness in (cardinality, mask, element) order
    assert witness_str(report, "R1") == {"A": "{b}", "p": "a"}
    # the classic two-step jump r({b,c}) = 1 -> r(S) = 3 is also a violation
    assert demo_table.rank(("a", "b", "c")) > demo_table.rank(("b", "c")) + 1


def test_matroid_uniform_passes():
    report = check_matroid(uniform_matroid("abc", 2))
    assert report.passed
    assert report.witnesses == {}
    assert report.details["global_local_agree"]


def test_matroid_semimodularity_witness():
    table = make_table("ab", [0, 0, 0, 1])
    report = check_matroid(table)
    assert not report.verdicts["R2"]
    assert witness_str(report, "R2") == {"A": "{a}", "B": "{b}"}
    assert report.verdicts["R0"] and report.verdicts["R1"]


def test_matroid_large_ground_skips_pairwise_scan():
    report = check_matroid(uniform_matroid([f"e{i}" for i in range(13)], 2))
    assert "R2" not in report.verdicts
    assert report.verdicts["R2'"]
    assert "semimodularity" in report.details
    assert report.passed


def test_local_equals_global_semimodularity_when_r0_r1_hold():
    for g in enumerate_tables(EnumSpec(3, "all-normalized-subcardinal-monotone")):
        report = check_matroid(g)
        if report.verdicts["R0"] and report.verdicts["R1"]:
            assert report.verdicts["R2"] == report.verdicts["R2'"]
            assert report.details["global_local_agree"]


# --- greedoid ---------------------------------------------------------------


def test_greedoid_demo_passes(demo_table):
    assert check_greedoid(demo_table).passed


def test_greedoid_dual_of_demo_fails_nonnegativity(demo_table):
    report = check_greedoid(dual(demo_table))
    assert not report.passed
    assert not report.verdicts["nonnegative"]
    assert str(report.witnesses["nonnegative"]["A"]) == "{a}"


def test_matroids_are_greedoids():
    for g in enumerate_tables(EnumSpec(3, "matroid")):
        assert check_greedoid(g).passed


# --- dual greedoid ----------------------------------------------------------


def test_dual_greedoid_accepts_demo_dual(demo_table):
    assert check_dual_greedoid(dual(demo_table)).passed


def test_dual_greedoid_rejects_demo_itself(demo_table):
    report = check_dual_greedoid(demo_table)
    assert not report.verdicts["Gr1*"]
    assert witness_str(report, "Gr1*") == {"B": "{b}", "p": "a"}
    # the larger jump B = {b,c}, p = a violates the same axiom
    assert demo_table.rank(("a", "b", "c")) > demo_table.rank(("b", "c")) + 1


def test_matroids_pass_dual_greedoid_axioms():
    for g in enumerate_tables(EnumSpec(3, "matroid")):
        assert check_dual_greedoid(g).passed


def test_every_greedoid_dual_passes_starred_axioms():
    for g in enumerate_tables(EnumSpec(3, "greedoid")):
        assert check_dual_greedoid(dual(g)).passed


# --- feasible descriptors ---------------------------------------------------


def test_feasible_descriptors_demo(demo_table):
    desc = feasible_descriptors(demo_table)
    feasible = {str(s) for s in desc.family.subsets()}
    assert feasible == {"{}", "{a}", "{c}", "{a,b}", "{a,c}", "{a,b,c}"}
    assert [str(s) for s in desc.bases] == ["{a,b,c}"]
    assert desc.full
    assert desc.loops == ()


def test_feasible_descriptors_uniform():
    desc = feasible_descriptors(uniform_matroid("ab", 1))
    assert [str(s) for s in desc.bases] == ["{a}", "{b}"]
    assert not desc.full


def test_feasible_descriptors_loop():
    desc = feasible_descriptors(make_table("p", [0, 0]))
    assert [str(s) for s in desc.family.subsets()] == ["{}"]
    assert desc.loops == ("p",)


def test_feasible_descriptors_list_in_cardinality_then_mask_order():
    for g in random_tables(60, max_n=6, seed=13, lo=0, hi=3):
        desc = feasible_descriptors(g)
        total = g.full_rank
        order = sorted(range(g.ground.size), key=lambda m: (m.bit_count(), m))
        spanning = [m for m in order if g.values[m] == total]
        assert [s.bits for s in desc.spanning] == spanning
        assert [s.bits for s in desc.bases] == [m for m in spanning if m in desc.family.members]


def test_feasible_descriptors_keep_no_order_of_a_large_table():
    n = 20
    # one feasible set (the empty one) and one spanning set (S)
    g = make_table([f"e{i}" for i in range(n)], [0] * ((1 << n) - 1) + [1])
    popcounts(n)  # cached for every caller, 1 MB
    FeasibleFamily.from_table(g)  # packs the table's own view, 1 MB kept by the table
    tracemalloc.start()
    try:
        desc = feasible_descriptors(g)
        del desc
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 2**20


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([(-3, 8), (-200, 200)]))
def test_feasible_family_holds_exactly_the_sets_of_full_rank(seed, ranks):
    lo, hi = ranks
    for g in random_tables(4, max_n=6, seed=seed, lo=lo, hi=hi):
        members = {a for a in range(g.ground.size) if g.values[a] == a.bit_count()}
        assert FeasibleFamily.from_table(g).members == members


def test_induced_rank_table_round_trip(demo_table):
    family = FeasibleFamily.from_table(demo_table)
    assert family.induced_rank_table() == demo_table


@given(st.integers(0, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.frozensets(st.integers(0, (1 << n) - 1)))))
def test_induced_rank_table_is_the_largest_member_below_each_set(case):
    # any family, with or without the empty set
    n, members = case
    family = FeasibleFamily(GroundSet(tuple("abcdef"[:n])), members)
    expected = [max((f.bit_count() for f in members if f & a == f), default=0) for a in range(1 << n)]
    assert family.induced_rank_table().values == tuple(expected)


# --- antimatroid ------------------------------------------------------------


def test_antimatroid_pruning_demo_passes():
    assert check_antimatroid(pruning_antimatroid(demo_pruning_tree())).passed


def test_antimatroid_branching_demo_passes(demo_table):
    assert check_antimatroid(demo_table).passed


def test_antimatroid_uniform_fails_union_closure():
    report = check_antimatroid(uniform_matroid("ab", 1))
    assert not report.verdicts["union-closed"]
    assert witness_str(report, "union-closed") == {"F1": "{a}", "F2": "{b}"}


# --- demi-matroid -----------------------------------------------------------


def two_element_demi():
    # r(empty) = r(a) = r(b) = 0, r(S) = 1; here the dual equals the table
    return make_table("ab", [0, 0, 0, 1])


def test_demi_triple_two_element_example_passes():
    r = two_element_demi()
    assert dual(r) == r
    report = check_demimatroid_triple(DemiTriple(r, r))
    assert report.passed
    assert report.details["s_is_dual_of_r"]


def test_demi_triple_demo_with_dual_fails_monotonicity(demo_table):
    report = check_demimatroid_triple(DemiTriple(demo_table, dual(demo_table)))
    assert not report.verdicts["s-monotone"]
    a, b = report.witnesses["s-monotone"]["A"], report.witnesses["s-monotone"]["B"]
    assert (str(a), str(b)) == ("{}", "{a}")
    # the pair {c} in {a,c} is another monotonicity violation of the dual
    gd = dual(demo_table)
    assert gd.rank(("c",)) > gd.rank(("a", "c"))
    # the duality condition itself holds for this pair
    assert report.verdicts["rank-nullity-duality"]


def test_demi_triple_matroid_with_dual_passes():
    g = uniform_matroid("abc", 2)
    assert check_demimatroid_triple(DemiTriple(g, dual(g))).passed


def test_demi_triple_ground_mismatch():
    with pytest.raises(GroundSetError):
        DemiTriple(make_table("a", [0, 1]), make_table("b", [0, 1]))


def test_characterization_demo_witness(demo_table):
    report = check_demimatroid_characterization(demo_table)
    assert not report.passed
    assert witness_str(report, "unit-increase") == {"A": "{b}", "p": "a"}
    assert not report.verdicts["monotone-nullity"]


def test_characterization_two_element_example_passes():
    report = check_demimatroid_characterization(two_element_demi())
    assert report.passed
    # yet the same table is not a matroid: semimodularity fails
    assert not check_matroid(two_element_demi()).passed


def test_characterization_matroids_pass():
    for g in enumerate_tables(EnumSpec(3, "matroid")):
        assert check_demimatroid_characterization(g).passed


def test_characterization_mn_matches_unit_increase_under_a_and_b():
    for g in enumerate_tables(EnumSpec(3, "all-normalized-subcardinal-monotone")):
        report = check_demimatroid_characterization(g)
        assert report.verdicts["nonnegative-subcardinal"] and report.verdicts["monotone"]
        assert report.verdicts["unit-increase"] == report.verdicts["monotone-nullity"]


# --- report structure invariants ---------------------------------------------


def test_report_witness_present_iff_failed(demo_table):
    corpus = [demo_table, dual(demo_table), uniform_matroid("abc", 2)]
    corpus += list(random_tables(40, max_n=3, seed=13))
    checkers = (check_matroid, check_greedoid, check_dual_greedoid, check_antimatroid, check_demimatroid_characterization)
    for g in corpus:
        # a table on the same ground, unrelated to g and to its dual
        unrelated = g.ground.labels, [m % 3 - 1 for m in range(g.ground.size)]
        reports = [checker(g) for checker in checkers]
        reports += [check_demimatroid_triple(DemiTriple(g, s)) for s in (dual(g), make_table(*unrelated))]
        for report in reports:
            for axiom, ok in report.verdicts.items():
                assert (axiom in report.witnesses) == (not ok)
            if report.system != "demi-matroid-characterization":
                assert report.passed == all(report.verdicts.values())


def test_report_lines_render(demo_table):
    lines = check_matroid(demo_table).lines()
    assert lines[0] == "system: matroid"
    assert "R1: fail (A={b}, p=a)" in lines
    assert lines[-1] == "overall: fail"


# --- block verdicts agree with the witnessed checkers ------------------------


def _assert_block_failures_match_the_checkers(n, tables):
    failing = block_failures(n, [v for g in tables for v in g.values], len(tables))
    for b, g in enumerate(tables):
        want = [not check(g).passed for check in (check_greedoid, check_matroid, check_dual_greedoid)]
        assert [bool(s >> b & 1) for s in failing] == want, g.values


def test_fast_predicates_match_checkers_exhaustively():
    for n in range(4):
        tables = list(enumerate_tables(EnumSpec(n, "all-normalized-subcardinal-monotone")))
        duals = [dual(g) for g in tables]
        _assert_block_failures_match_the_checkers(n, tables)
        _assert_block_failures_match_the_checkers(n, duals)
        for g, gd in zip(tables, duals):
            assert _dual_values(g.values, g.n) == gd.values


def test_fast_predicates_match_checkers_on_random_tables():
    # negative ranks, packed; then spreads past MAX_PACKED_SPREAD, which take
    # the map path
    for lo, hi in ((-3, 8), (-200, 200)):
        by_n = {}
        for g in random_tables(150, max_n=4, seed=31, lo=lo, hi=hi):
            by_n.setdefault(g.n, []).append(g)
            # the two step readings of nullity_monotone
            report = check_demimatroid_characterization(g)
            (jump,) = step_sets(g.n, g.values, JUMP)
            assert (not any(jump)) == report.verdicts["unit-increase"]
            (drop,) = step_sets(g.n, [c - v for c, v in zip(popcounts(g.n), g.values)], DECREASE)
            assert (not any(drop)) == report.verdicts["monotone-nullity"]
        for n, tables in by_n.items():
            _assert_block_failures_match_the_checkers(n, tables)


def test_fast_predicates_match_checkers_on_sampled_enumeration():
    # the checkers take about 40 s for every n = 4 table and its dual, so
    # n = 4 is sampled here and its greedoids and matroids are compared with
    # the enumerator's searches below
    tables = list(enumerate_tables(EnumSpec(4, "all-normalized-subcardinal-monotone")))[::97]
    _assert_block_failures_match_the_checkers(4, tables)
    _assert_block_failures_match_the_checkers(4, [dual(g) for g in tables])


def test_block_failures_select_the_enumerated_greedoids_and_matroids():
    corpus = b"".join(_corpora(4, "all-normalized-subcardinal-monotone"))
    count = len(corpus) >> 4
    greedoid, matroid, _ = block_failures(4, corpus, count)
    for failing, constraint in ((greedoid, "greedoid"), (matroid, "matroid")):
        passing = b"".join(corpus[b << 4 : (b + 1) << 4] for b in range(count) if not failing >> b & 1)
        assert [passing] == list(_corpora(4, constraint))


def test_matroid_iff_greedoid_and_starred_axioms():
    # the two readings of the class identity agree table by table
    for g in enumerate_tables(EnumSpec(3, "all-normalized-subcardinal-monotone")):
        greedoid = check_greedoid(g).passed
        assert check_matroid(g).passed == (greedoid and check_dual_greedoid(g).passed)
        assert check_matroid(g).passed == (greedoid and check_greedoid(dual(g)).passed)
