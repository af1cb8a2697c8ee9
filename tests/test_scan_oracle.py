"""The bit-set checkers and ``validate`` against the brute-force scans of
``scan_oracle``: same verdicts, witnesses (in insertion order), details and
rendered lines on every table."""

import random
from operator import eq

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankdual import (
    DemiTriple,
    EnumSpec,
    GroundSet,
    RankTable,
    TableBuildError,
    check_antimatroid,
    check_demimatroid_characterization,
    check_demimatroid_triple,
    check_dual_greedoid,
    check_greedoid,
    check_matroid,
    dual,
    enumerate_tables,
    random_tables,
    table_from_values,
    validate,
)
from rankdual.axioms import FeasibleFamily, _union_failures
from rankdual.core import MAX_PACKED_SPREAD, MAX_RANK_MAGNITUDE, bitset, popcounts, subset_max
from rankdual.ops import PACKED_PASS_SIZE, _dual_values, _packed_dual

from scan_oracle import (
    oracle_antimatroid,
    oracle_demimatroid_characterization,
    oracle_demimatroid_triple,
    oracle_dual_greedoid,
    oracle_greedoid,
    oracle_matroid,
    oracle_validate,
    pairwise_union_closed,
    subset_maxima,
)

PAIRS = (
    (check_matroid, oracle_matroid),
    (check_greedoid, oracle_greedoid),
    (check_dual_greedoid, oracle_dual_greedoid),
    (check_antimatroid, oracle_antimatroid),
    (check_demimatroid_characterization, oracle_demimatroid_characterization),
)


def table(values):
    n = (len(values) - 1).bit_length()
    return table_from_values(GroundSet(tuple("abcdefghi"[:n])), values)


def assert_reports_match(g, s=None):
    """Every checker on g, the triple (g, s) (s defaults to the dual of g)
    and validate(g) equal their oracle-built reports."""
    s = dual(g) if s is None else s
    runs = [(check, oracle, g) for check, oracle in PAIRS]
    runs.append((check_demimatroid_triple, oracle_demimatroid_triple, DemiTriple(g, s)))
    for check, oracle, arg in runs:
        got, want = check(arg), oracle(arg)
        assert got == want, (check.__name__, g.values)
        assert list(got.verdicts) == list(want.verdicts)
        assert list(got.witnesses) == list(want.witnesses)
        assert list(got.details) == list(want.details)
        assert got.lines() == want.lines()
    got, want = validate(g), oracle_validate(g)
    assert got == want, ("validate", g.values)
    assert list(got.witnesses) == list(want.witnesses)


def test_exhaustive_small_tables_and_their_duals():
    for n in range(4):
        for g in enumerate_tables(EnumSpec(n, "all-normalized-subcardinal-monotone")):
            assert_reports_match(g)
            assert_reports_match(dual(g))


def test_seeded_random_tables():
    # negative and non-monotone ranks; the second table of each triple is
    # unrelated to the first, so the duality conditions fail too
    for seed in range(4):
        for lo, hi in ((-3, 8), (0, 2), (-1, 1)):
            corpus = list(random_tables(40, max_n=6, seed=seed, lo=lo, hi=hi))
            for g, other in zip(corpus, corpus[1:] + corpus[:1]):
                assert_reports_match(g)
                if other.ground == g.ground:
                    assert_reports_match(g, other)


def test_unnormalized_tables():
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(0, 6)
        assert_reports_match(table([rng.randint(-4, 7) for _ in range(1 << n)]))


def test_empty_and_single_element_grounds():
    for r0 in (-2, 0, 1):
        assert_reports_match(table([r0]))
    for r0 in range(-2, 3):
        for r1 in range(-2, 4):
            assert_reports_match(table([r0, r1]))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.lists(st.integers(-3, 6), min_size=1 << n, max_size=1 << n)))
def test_reports_match_oracle_on_any_table(values):
    assert_reports_match(table(values))


def _near_bound_table(rng, n, low, spread):
    """Small steps over ranks low..low + 3, with one entry at low and one at
    low + spread, so that the table's spread is exactly ``spread``."""
    values = [low + rng.randint(0, 3) for _ in range(1 << n)]
    lowest, highest = rng.sample(range(1 << n), 2)
    values[lowest], values[highest] = low, low + spread
    return table(values)


def test_value_spread_on_both_sides_of_the_packed_bound():
    # spread MAX_PACKED_SPREAD takes the packed byte deltas, one more the map path
    M = MAX_RANK_MAGNITUDE
    for spread in (MAX_PACKED_SPREAD, MAX_PACKED_SPREAD + 1):
        for low in (0, -spread, -3):
            assert_reports_match(table([low, low + spread]))
            assert_reports_match(table([low + spread, low]))
            assert_reports_match(table([low, low + spread, low + spread, low]))
            assert_reports_match(table([low + spread, low + spread - 1, low, low + 1]))
        rng = random.Random(spread)
        for n in range(1, 6):
            for low in (0, -spread, -M, M - spread):
                assert_reports_match(_near_bound_table(rng, n, low, spread))
        for seed in range(3):
            assert_reports_match(_near_bound_table(random.Random(seed), 8, -seed, spread))


def _topped_table(rng, n, low, spread):
    """A _near_bound_table whose entry at low + spread is r(S): its duals
    |A| + r(S - A) - r(S) then spread no further than it does, so that a
    table and its dual pack together."""
    values = list(_near_bound_table(rng, n, low, spread).values)
    top = values.index(low + spread)
    values[top], values[-1] = values[-1], low + spread
    return table(values)


def test_unrelated_triples_of_tables_large_enough_for_the_packed_dual():
    # the duality conditions of tables that pack fail, read from the packed
    # duals: at spread MAX_PACKED_SPREAD on each side, one more takes the
    # _dual_values path; s is unrelated to r, or r's dual off at a few masks
    rng = random.Random(12)
    spreads = (MAX_PACKED_SPREAD, MAX_PACKED_SPREAD + 1)
    for n in (8, 9):
        for r_spread, s_spread in ((a, b) for a in spreads for b in spreads):
            r, s = (_topped_table(rng, n, -rng.randint(0, 3), spread) for spread in (r_spread, s_spread))
            for t, spread in ((r, r_spread), (s, s_spread)):
                assert (_packed_dual(n, t._kernel_view()) is not None) == (spread == MAX_PACKED_SPREAD)
            # off at three masks, with no wider spread, so that it packs with r
            off = list(dual(r).values)
            for mask in rng.sample(range(1, 1 << n), 3):
                off[mask] += 1 if off[mask] < max(off) else -1
            for t, u in ((r, s), (s, r), (r, table(off))):
                report = check_demimatroid_triple(DemiTriple(t, u))
                assert not report.verdicts["rank-nullity-duality"]
                assert report == oracle_demimatroid_triple(DemiTriple(t, u))
                assert report.lines() == oracle_demimatroid_triple(DemiTriple(t, u)).lines()


def test_ranks_at_the_magnitude_bound():
    M = MAX_RANK_MAGNITUDE
    for values in ([-M, M], [M, -M], [0, M, -M, 0], [M, M, M, -M], [-M, -M + 1, M - 1, M]):
        g = table(values)
        assert_reports_match(g, g)
    rng = random.Random(7)
    for n in range(1, 6):
        g = table([rng.choice((-M, M, 0, 1)) for _ in range(1 << n)])
        assert_reports_match(g, g)


def _views_of_one_table(values):
    """Three builds of one table: checked, _trusted with its view unfilled,
    and _trusted with its view filled by another reader."""
    ground = GroundSet(tuple(f"e{i}" for i in range((len(values) - 1).bit_length())))
    filled = RankTable._trusted(ground, tuple(values))
    FeasibleFamily.from_table(filled)
    return table_from_values(ground, values), RankTable._trusted(ground, tuple(values)), filled


def _kernel_tables(n):
    """Values with negative ranks, with spreads on both sides of
    MAX_PACKED_SPREAD, and at +-MAX_RANK_MAGNITUDE."""
    M, size = MAX_RANK_MAGNITUDE, 1 << n
    near_bound = st.tuples(
        st.sampled_from((0, -3, -MAX_PACKED_SPREAD, -M, M - 300)),
        st.sampled_from((MAX_PACKED_SPREAD - 1, MAX_PACKED_SPREAD, MAX_PACKED_SPREAD + 1, 300)),
    ).flatmap(lambda ls: st.lists(st.sampled_from((ls[0], ls[0] + 1, ls[0] + ls[1])), min_size=size, max_size=size))
    return st.one_of(
        st.lists(st.integers(-3, 6), min_size=size, max_size=size),
        near_bound,
        st.lists(st.sampled_from((-M, M, 0, 1, -1)), min_size=size, max_size=size),
    )


def _fields(view):
    return view.values, view.low, view.high, view.offsets


def assert_duals_match(builds):
    """The dual of every build is the table of _dual_values, with the view
    its checked build has, or the checked build's error when that dual
    passes the magnitude bound; so is the packed pass's dual, wherever the
    packed pass applies."""
    g0 = builds[0]
    expected = _dual_values(g0.values, g0.n)
    try:
        want = table_from_values(g0.ground, expected)
    except TableBuildError as exc:
        for g in builds:
            with pytest.raises(TableBuildError) as caught:
                dual(g)
            assert str(caught.value) == str(exc)
        return
    for g in builds:
        got = dual(g)
        assert got == want and got.values == expected
        assert _fields(got._kernel_view()) == _fields(want._kernel_view())
        packed = _packed_dual(g.n, g._kernel_view())
        if packed is not None:
            assert _fields(packed) == _fields(want._kernel_view())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(_kernel_tables))
def test_every_build_of_a_table_reads_the_same(values):
    builds = _views_of_one_table(values)
    for g in builds:
        assert_reports_match(g, g)
    for check, _ in PAIRS:
        assert len({tuple(check(g).lines()) for g in builds}) == 1
    assert len({repr(validate(g)) for g in builds}) == 1
    assert_duals_match(builds)


@settings(max_examples=40, deadline=None)
@given(st.integers(PACKED_PASS_SIZE.bit_length() - 1, 9).flatmap(_kernel_tables))
def test_tables_large_enough_for_the_packed_dual(values):
    assert_duals_match(_views_of_one_table(values))


def test_dual_refuses_an_overflowing_dual_as_the_constructor_does():
    # at the packed pass's size: a packed table's dual comes from the pass
    # (it lies within 151 of 0), and only an unpacked one can pass the
    # magnitude bound, which the fallback refuses as the constructor does
    M, n = MAX_RANK_MAGNITUDE, PACKED_PASS_SIZE.bit_length() - 1
    rng = random.Random(8)
    packed = _views_of_one_table([0] + [rng.randint(-3, 8) for _ in range((1 << n) - 1)])
    for g in packed:
        assert _packed_dual(n, g._kernel_view()) is not None
    assert_duals_match(packed)
    overflowing = _views_of_one_table([M] + [-M] * ((1 << n) - 1))
    for g in overflowing:
        with pytest.raises(TableBuildError, match=f"rank {n + 2 * M} exceeds the magnitude bound"):
            dual(g)
    assert_duals_match(overflowing)


def test_union_closed_needs_an_accessible_family():
    # {a} and {b} are feasible but the empty set is not: no A, A|p, A|q are
    # all feasible, yet {a} | {b} is not feasible
    g = table([1, 1, 1, 0])
    report = check_antimatroid(g)
    assert report == oracle_antimatroid(g)
    assert report.lines()[-2:] == ["union-closed: fail (F1={a}, F2={b})", "overall: fail"]


@st.composite
def feasible_families(draw, n=None):
    """A table on n elements (0..6 when not given) whose feasible sets
    {A : r(A) = |A|} are an arbitrary family, an accessible one grown one
    element at a time, or the union-closure of one; the other ranks are off
    by -3..3."""
    if n is None:
        n = draw(st.integers(0, 6))
    size = 1 << n
    kind = draw(st.sampled_from(("any", "accessible", "union-closed")))
    if kind == "any" or n == 0:
        family = draw(st.sets(st.integers(0, size - 1)))
    else:
        family = [0]
        for i, p in draw(st.lists(st.tuples(st.integers(0, size), st.integers(0, n - 1)), max_size=3 * n)):
            family.append(family[i % len(family)] | 1 << p)
        family = set(family)
        while kind == "union-closed":
            unions = {a | b for a in family for b in family} - family
            if not unions:
                break
            family |= unions
    offsets = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=size, max_size=size))
    return table([m.bit_count() + (0 if m in family else off) for m, off in enumerate(offsets)])


@settings(max_examples=150, deadline=None)
@given(feasible_families())
def test_union_closed_verdict_and_witness_match_the_pairwise_scan(g):
    got, want = check_antimatroid(g), oracle_antimatroid(g)
    assert got.verdicts["union-closed"] == want.verdicts["union-closed"]
    assert got.witnesses.get("union-closed") == want.witnesses.get("union-closed")
    assert got.lines() == want.lines()


# --- the local union verdict against the pairwise scan ---------------------


def accessible(g) -> bool:
    """The empty set is feasible, and so is some one-smaller subset of every
    nonempty feasible set."""
    feasible = {m for m in range(g.ground.size) if g.values[m] == m.bit_count()}
    return 0 in feasible and all(
        any(f & ~(1 << p) in feasible for p in range(g.n) if f >> p & 1) for f in feasible if f
    )


def _feasible(tables):
    """The feasible sets of tables of one size laid end to end, as a bit set."""
    return bitset(map(eq, [v for g in tables for v in g.values], popcounts(tables[0].n) * len(tables)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(feasible_families(n), min_size=1, max_size=4)))
@example([table([0]), table([1]), table([0])])  # n = 0, with and without the empty set
@example([table([0, 1, 1, 2]), table([1, 1, 1, 2])])  # the second without the empty set
def test_local_union_verdict_matches_the_pairwise_scan_on_accessible_families(tables):
    g = tables[0]
    local = not _union_failures(g.n, _feasible([g]))
    pairwise = pairwise_union_closed(g.values, g.n)
    # the local test also requires accessibility: exact on accessible
    # families, and only sufficient on any other
    if accessible(g):
        assert local == pairwise
    else:
        assert not local or pairwise
    # laid end to end, block b fails as family b does alone
    alone = bitset(bool(_union_failures(t.n, _feasible([t]))) for t in tables)
    assert _union_failures(g.n, _feasible(tables), len(tables)) == alone


@settings(max_examples=60)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sampled_from([1, 2, 7]).flatmap(lambda blocks: st.lists(
        st.integers(0, 127), min_size=blocks << n, max_size=blocks << n)),
)))
@example((3, [127] + [0] * 7 + [0] * 7 + [127]))
@example((2, [0, 127, 0, 0] * 7))
def test_subset_max_over_blocks_reads_each_table_alone(case):
    # corpora of 1, 2 and 7 tables of bytes in 0..127
    n, values = case
    blocks = len(values) >> n
    assert list(subset_max(n, bytes(values), blocks)) == subset_maxima(values, n, blocks)
