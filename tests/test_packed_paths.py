"""The packed paths of the polynomials, the minors and the direct sum
against per-mask definitions kept here: tables of at least
``ops.PACKED_PASS_SIZE`` subsets (n = 8..10) read their offsets, and wider
ones their values."""

import importlib
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankdual import (
    GroundSet,
    LaurentPoly2,
    MinorSpec,
    SubsetRef,
    TableBuildError,
    branching_greedoid,
    contract,
    delete,
    direct_sum,
    minor,
    ops,
    pruning_antimatroid,
    table_from_values,
    tutte,
    tutte_recursive,
    tutte_subset,
    uniform_matroid,
)
from rankdual.core import MAX_PACKED_SPREAD, MAX_RANK_MAGNITUDE
from rankdual.ops import PACKED_PASS_SIZE, _expansion, _packed_view
from rankdual.tutte import _pair_counts, _pivot_order, _renumbered

from test_scan_oracle import _fields, _kernel_tables, _views_of_one_table

SIZES = st.integers(PACKED_PASS_SIZE.bit_length() - 1, 10)


def _middle(remaining):
    """A pivot that is neither strategy: the middle remaining element."""
    members = [pos for pos in range(remaining.bit_length()) if remaining >> pos & 1]
    return members[len(members) // 2]


PIVOTS = ("lowest", "highest", _middle)


def per_mask_polynomial(values):
    """sum over A of t**(r(S) - r(A)) * z**(|A| - r(A)), mask by mask."""
    full = values[-1]
    return LaurentPoly2(Counter((full - v, mask.bit_count() - v) for mask, v in enumerate(values)))


def per_mask_minor(values, n, contracted, removed, base):
    """r(A | C) - base for the masks A over the elements outside ``removed``,
    by scattering the bits of each new mask to the kept positions."""
    kept = [pos for pos in range(n) if not removed >> pos & 1]
    out = []
    for new in range(1 << len(kept)):
        old = sum(1 << pos for i, pos in enumerate(kept) if new >> i & 1)
        out.append(values[old | contracted] - base)
    return out


def _normalized(values):
    return [0, *values[1:]]


@settings(max_examples=20, deadline=None)
@given(SIZES.flatmap(_kernel_tables))
def test_subset_polynomial_of_large_tables(values):
    want = per_mask_polynomial(values)
    for g in _views_of_one_table(values):
        assert tutte_subset(g) == want


@settings(max_examples=20, deadline=None)
@given(SIZES.flatmap(_kernel_tables).map(_normalized))
# r(S) = 0 lies below the largest rank 5: the spread of the keys is not r(S)
@example([0] + [5 * (m % 2) for m in range(1, 255)] + [0])
def test_recursion_of_large_tables(values):
    want = per_mask_polynomial(values)
    for g in _views_of_one_table(values):
        for pivot in PIVOTS:
            assert tutte_recursive(g, pivot) == want, pivot


BITS = (0, 1, 5, 6, -1)


def assert_minor_matches(g, contracted, deleted):
    """minor(g, (C, D)) and, for one element, delete or contract, equal the
    per-mask table, view and all, or raise the checked build's error."""
    n, removed = g.n, contracted | deleted
    want_ground = GroundSet(tuple(label for pos, label in enumerate(g.ground.labels) if not removed >> pos & 1))
    base = g.values[contracted] if contracted else 0
    calls = []
    if g.values[0] == 0:
        spec = MinorSpec(SubsetRef(g.ground, contracted), SubsetRef(g.ground, deleted))
        calls.append(lambda: minor(g, spec))
    if removed.bit_count() == 1:
        label = g.ground.labels[removed.bit_length() - 1]
        if not contracted:
            calls.append(lambda: delete(g, label))
        elif g.values[0] == 0:
            calls.append(lambda: contract(g, label))
    expected = per_mask_minor(g.values, n, contracted, removed, base)
    try:
        want = table_from_values(want_ground, expected)
    except TableBuildError as exc:
        for call in calls:
            with pytest.raises(TableBuildError) as caught:
                call()
            assert str(caught.value) == str(exc)
        return
    for call in calls:
        got = call()
        assert got == want and got.values == tuple(expected)
        assert _fields(got._kernel_view()) == _fields(want._kernel_view())


@settings(max_examples=20, deadline=None)
@given(SIZES.flatmap(_kernel_tables), st.booleans())
def test_single_element_minors_of_large_tables(values, normalize):
    if normalize:
        values = _normalized(values)
    for g in _views_of_one_table(values):
        for pos in BITS:
            bit = 1 << pos % g.n
            assert_minor_matches(g, 0, bit)
            assert_minor_matches(g, bit, 0)


@settings(max_examples=20, deadline=None)
@given(SIZES.flatmap(lambda n: st.tuples(
    _kernel_tables(n).map(_normalized),
    st.lists(st.sampled_from("cdk"), min_size=n, max_size=n),
)))
def test_minors_with_several_contracted_and_deleted_elements(drawn):
    values, roles = drawn
    contracted = sum(1 << pos for pos, role in enumerate(roles) if role == "c")
    deleted = sum(1 << pos for pos, role in enumerate(roles) if role == "d")
    for g in _views_of_one_table(values):
        assert_minor_matches(g, contracted, deleted)


def _pivot_by_priority(priority):
    """A callable pivot: the first element of ``priority`` still remaining."""
    return lambda remaining: next(pos for pos in priority if remaining >> pos & 1)


@settings(max_examples=30, deadline=None)
@given(SIZES.flatmap(lambda n: st.tuples(_kernel_tables(n).map(_normalized), st.permutations(range(n)))))
def test_renumbering_by_delta_swaps_matches_the_expansion_map(case):
    values, priority = case
    n = len(priority)
    order = _pivot_order(_pivot_by_priority(priority), n)
    offsets = bytes(v % 256 for v in values)
    expansion = _expansion([1 << pos for pos in order])
    assert _renumbered(offsets, order) == bytes(map(offsets.__getitem__, expansion))
    want = per_mask_polynomial(values)
    for g in _views_of_one_table(values):
        assert tutte_recursive(g, _pivot_by_priority(priority)) == want


@pytest.mark.parametrize("spread, packed", [(MAX_PACKED_SPREAD, True), (MAX_PACKED_SPREAD + 1, False)])
def test_the_byte_path_ends_at_a_spread_of_127(spread, packed):
    # negative ranks down to -60, and the largest rank sets the spread
    n = 9
    values = [0] + [(mask * 37) % 9 - 3 for mask in range(1, 1 << n)]
    values[5], values[200] = -60, spread - 60
    for g in _views_of_one_table(values):
        assert (_packed_view(g) is not None) == packed
        want = per_mask_polynomial(values)
        assert tutte_subset(g) == want
        for pivot in PIVOTS:
            assert tutte_recursive(g, pivot) == want
        for pos in BITS:
            bit = 1 << pos % n
            assert_minor_matches(g, 0, bit)
            assert_minor_matches(g, bit, 0)
        assert_minor_matches(g, 0b100010010, 0b001001001)


def test_a_deletion_below_the_signed_bytes_reads_the_values():
    # packed (spread 100) but with ranks below -128: the deleted ranks are
    # no signed bytes, so they come from the values
    n = 8
    values = [-1000 + (mask * 29) % 101 for mask in range(1 << n)]
    for g in _views_of_one_table(values):
        assert _packed_view(g) is not None
        for pos in BITS:
            assert_minor_matches(g, 0, 1 << pos % n)
        assert tutte_subset(g) == per_mask_polynomial(values)


def test_pair_counts_of_hand_built_bytes():
    ts = bytes([0, 1, 255, 1, 0, 7])
    zs = bytes([0, 2, 9, 2, 0, 0])
    got = _pair_counts(ts, zs, 3, 1)
    assert got.terms == {(-3, -1): 2, (-2, 1): 2, (252, 8): 1, (4, -1): 1}
    assert _pair_counts(b"", b"", 0, 0) == LaurentPoly2.zero()


def test_pair_counts_read_the_hosts_byte_order(monkeypatch):
    # the counted units are read in the host's order; told the other order,
    # the decode swaps the two exponents, so it takes the order from
    # sys.byteorder rather than assuming one
    other = "big" if sys.byteorder == "little" else "little"
    monkeypatch.setattr(sys, "byteorder", other)
    got = _pair_counts(bytes([5, 5, 1]), bytes([2, 2, 3]), 0, 0)
    assert got.terms == {(2, 5): 2, (3, 1): 1}


def _key_bound(n):
    """The largest spread whose keys fit one byte in _monomial_counts."""
    return 256 // (n - 1) - 1


@st.composite
def _tables_at_key_bounds(draw, n):
    """Values with low <= 0 and a spread of exactly the one-byte key bound,
    one past it, or MAX_PACKED_SPREAD; the ends take any value."""
    spread = draw(st.sampled_from((_key_bound(n), _key_bound(n) + 1, MAX_PACKED_SPREAD)))
    low = draw(st.sampled_from((0, -1, -(spread // 2), -spread)))
    size = 1 << n
    values = draw(st.lists(st.integers(low, low + spread), min_size=size, max_size=size))
    values[1], values[2] = low, low + spread
    return values


@settings(max_examples=25, deadline=None)
@given(SIZES.flatmap(_tables_at_key_bounds))
def test_both_polynomials_on_both_sides_of_the_one_byte_key_bound(values):
    want = per_mask_polynomial(values)
    for g in _views_of_one_table(values):
        assert tutte_subset(g) == want
    normalized = _normalized(values)
    want = per_mask_polynomial(normalized)
    for g in _views_of_one_table(normalized):
        for pivot in PIVOTS:
            assert tutte_recursive(g, pivot) == want, pivot


def _pair_calls(monkeypatch):
    """Wrap tutte._pair_counts, the path of keys wider than a byte, so that
    each call is listed."""
    calls, real = [], tutte._pair_counts
    monkeypatch.setattr(tutte, "_pair_counts", lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("n, spread, keyed", [(9, 31, True), (9, 32, False), (10, 27, True), (10, 28, False)])
def test_the_one_byte_keys_end_at_their_bound(monkeypatch, n, spread, keyed):
    # (spread + 1) * (n - 1) is 256, 264, 252 and 261; a set of n - 1
    # elements at the lowest rank has the largest key, 255 at n = 9
    low, full = -3, (1 << n) - 1
    values = [low + (mask * 37) % (spread + 1) for mask in range(1 << n)]
    values[0], values[1], values[full ^ 1] = 0, low + spread, low
    calls = _pair_calls(monkeypatch)
    want = per_mask_polynomial(values)
    g = table_from_values(GroundSet(tuple(f"e{i}" for i in range(n))), values)
    assert tutte_subset(g) == want
    for pivot in PIVOTS:
        assert tutte_recursive(g, pivot) == want
    assert len(calls) == (0 if keyed else 4)


def test_the_benchmark_tables_take_the_one_byte_keys(monkeypatch):
    # the four n = 16 tables of the benchmark's analysis round, built as it
    # builds them
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    worker = importlib.import_module("worker")
    inp = worker.analysis_inputs(random.Random(1), 16)
    labels = inp["labels"]
    tables = (
        branching_greedoid(inp["graph"]),
        pruning_antimatroid(inp["tree"]),
        uniform_matroid(labels, 8),
        table_from_values(GroundSet(labels), inp["random_values"]),
    )
    calls = _pair_calls(monkeypatch)
    for g in tables:
        assert _packed_view(g) is not None
        want = per_mask_polynomial(g.values)
        assert tutte_subset(g) == want
        assert tutte_recursive(g) == want
    assert calls == []


@st.composite
def _packed_summands(draw):
    """Two tables of at least PACKED_PASS_SIZE subsets, or a small right
    one, with negative ranks, or with a least rank above 0, and with ranges
    of ranks that add up to MAX_PACKED_SPREAD, one past it, or less."""
    s1 = draw(st.integers(0, MAX_PACKED_SPREAD))
    s2 = draw(st.sampled_from((MAX_PACKED_SPREAD - s1, MAX_PACKED_SPREAD + 1 - s1, min(3, MAX_PACKED_SPREAD - s1))))
    tables = []
    for prefix, n, spread in (("a", draw(st.sampled_from((8, 9))), s1), ("b", draw(st.sampled_from((2, 8))), s2)):
        least = draw(st.sampled_from((0, -1, -(spread // 2), -spread, 40, -MAX_RANK_MAGNITUDE)))
        size = 1 << n
        values = draw(st.lists(st.integers(least, least + spread), min_size=size, max_size=size))
        values[1], values[2] = least, least + spread
        tables.append(table_from_values(GroundSet(tuple(f"{prefix}{i}" for i in range(n))), values))
    return tables


@settings(max_examples=25, deadline=None)
@given(_packed_summands())
def test_direct_sum_of_large_tables(summands):
    g1, g2 = summands
    n1, left = g1.n, g1.ground.full_mask
    ground = GroundSet(g1.ground.labels + g2.ground.labels)
    expected = [g1.values[a & left] + g2.values[a >> n1] for a in range(ground.size)]
    try:
        want = table_from_values(ground, expected)
    except TableBuildError as exc:
        with pytest.raises(TableBuildError) as caught:
            direct_sum(g1, g2)
        assert str(caught.value) == str(exc)
        return
    got = direct_sum(g1, g2)
    assert got == want and got.values == tuple(expected)
    assert _fields(got._kernel_view()) == _fields(want._kernel_view())


@pytest.mark.parametrize("right_least, right_spread, joined", [(-7, 27, True), (-7, 28, False), (30, 20, True)])
def test_the_joined_direct_sum_ends_at_a_spread_of_127(monkeypatch, right_least, right_spread, joined):
    # the left ranks spread over -40..60; the sum's spread is 127, 128, and
    # 120 from views whose spreads add up to 150 (the right view's low is 0)
    left = [-40 + (mask * 29) % 101 for mask in range(1 << 8)]
    right = [right_least + (mask * 13) % (right_spread + 1) for mask in range(1 << 8)]
    g1 = table_from_values(GroundSet(tuple(f"a{i}" for i in range(8))), left)
    g2 = table_from_values(GroundSet(tuple(f"b{i}" for i in range(8))), right)
    built = []
    monkeypatch.setattr(ops, "table_from_values", lambda *args: built.append(args) or table_from_values(*args))
    got = direct_sum(g1, g2)
    want = tuple(v1 + v2 for v2 in right for v1 in left)
    assert got.values == want
    assert _fields(got._kernel_view()) == _fields(table_from_values(got.ground, want)._kernel_view())
    assert bool(built) != joined
