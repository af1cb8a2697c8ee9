import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankdual import (
    DemiTriple,
    GroundSet,
    GroundSetError,
    SubsetRef,
    TableBuildError,
    Tree,
    build_rank_table,
    check_antimatroid,
    check_demimatroid_characterization,
    check_demimatroid_triple,
    check_dual_greedoid,
    check_greedoid,
    check_matroid,
    convex_closure,
    dual,
    pruning_antimatroid,
    table_from_values,
    validate,
)
from rankdual import axioms, core
from rankdual.core import (
    DECREASE,
    FLAT,
    FULL,
    JUMP,
    MAX_PACKED_SPREAD,
    MAX_PAIRWISE_N,
    MAX_RANK_MAGNITUDE,
    NEGATIVE,
    SIZE,
    UNIT,
    RankTable,
    bitset,
    exceeding,
    failing_blocks,
    feasible_flags,
    masks_by_cardinality,
    member_counts,
    members_of,
    step_sets,
)

from conftest import make_table
from scan_oracle import step_classes


def test_ground_set_rejects_duplicates():
    with pytest.raises(GroundSetError):
        GroundSet(("a", "b", "a"))


def test_ground_set_rejects_oversize():
    with pytest.raises(GroundSetError):
        GroundSet(tuple(f"e{i}" for i in range(25)))


def test_ground_set_rejects_non_string_labels():
    with pytest.raises(GroundSetError):
        GroundSet(("a", ""))


def test_subset_iteration_visits_every_mask_once():
    ground = GroundSet(("a", "b", "c"))
    masks = [s.bits for s in ground.subsets()]
    assert masks == list(range(8))


def test_subset_labels_and_str():
    ground = GroundSet(("a", "b", "c"))
    s = ground.subset(("a", "c"))
    assert s.labels() == ("a", "c")
    assert str(s) == "{a,c}"
    assert str(ground.empty()) == "{}"
    assert "a" in s and "b" not in s


def test_subset_rejects_unknown_and_duplicate_labels():
    ground = GroundSet(("a", "b"))
    with pytest.raises(GroundSetError):
        ground.subset(("x",))
    with pytest.raises(GroundSetError):
        ground.subset(("a", "a"))


def test_subset_ops_require_same_ground():
    g1 = GroundSet(("a", "b"))
    g2 = GroundSet(("a", "c"))
    with pytest.raises(GroundSetError):
        g1.subset(("a",)).union(g2.subset(("a",)))


@given(st.integers(0, 6), st.data())
def test_subset_algebra_laws(n, data):
    ground = GroundSet(tuple("abcdef"[:n]))
    mask = data.draw(st.integers(0, ground.full_mask))
    s = ground.subset_from_mask(mask)
    assert len(s) + len(s.complement()) == n
    assert s.complement().complement() == s
    assert (s | s.complement()) == ground.full()
    assert (s & s.complement()) == ground.empty()


def test_build_rank_table_demo_entries(demo_table):
    ground = GroundSet(("a", "b", "c"))
    entries = [
        ((), 0), (("a",), 1), (("b",), 0), (("c",), 1),
        (("a", "b"), 2), (("a", "c"), 2), (("b", "c"), 1), (("a", "b", "c"), 3),
    ]
    table = build_rank_table(ground, entries)
    assert table == demo_table
    assert table.rank(("b", "c")) == 1
    assert table.full_rank == 3


def test_build_rank_table_empty_ground():
    ground = GroundSet(())
    table = build_rank_table(ground, [((), 0)])
    assert table.values == (0,)


def test_build_rank_table_missing_entry():
    ground = GroundSet(("a", "b", "c"))
    entries = [((), 0), (("a",), 1), (("b",), 0), (("c",), 1),
               (("a", "b"), 2), (("a", "c"), 2), (("a", "b", "c"), 3)]
    with pytest.raises(TableBuildError, match="missing subset"):
        build_rank_table(ground, entries)


def test_build_rank_table_duplicate_entry():
    ground = GroundSet(("a",))
    with pytest.raises(TableBuildError, match="duplicate subset"):
        build_rank_table(ground, [((), 0), (("a",), 1), (("a",), 0)])


def test_build_rank_table_unknown_label():
    ground = GroundSet(("a",))
    with pytest.raises(GroundSetError):
        build_rank_table(ground, [((), 0), (("z",), 1)])


@pytest.mark.parametrize("mask", [-1, 8, True, False, 1.5, None])
def test_rank_rejects_a_mask_outside_the_ground_set(demo_table, mask):
    with pytest.raises(GroundSetError):
        demo_table.rank(mask)


@pytest.mark.parametrize("mask", [1.5, True, False, "3", None])
def test_subset_rejects_a_mask_that_is_not_an_integer(mask):
    ground = GroundSet(("a", "b"))
    with pytest.raises(GroundSetError, match="mask must be an integer"):
        ground.subset_from_mask(mask)
    with pytest.raises(GroundSetError, match="mask must be an integer"):
        SubsetRef(ground, mask)


def test_rank_reads_integer_masks(demo_table):
    assert [demo_table.rank(m) for m in range(8)] == list(demo_table.values)


def test_table_rejects_non_integer_ranks():
    with pytest.raises(TableBuildError):
        make_table("a", [0, 1.5])
    with pytest.raises(TableBuildError):
        make_table("a", [0, True])


@pytest.mark.parametrize(
    "labels, values, message",
    [
        ("ab", [0, 1, True, 1.5], "rank of mask 2 is not an integer: True"),
        ("ab", [0, 1.5, 1, True], "rank of mask 1 is not an integer: 1.5"),
        ("a", [0, "1"], "rank of mask 1 is not an integer: '1'"),
        ("ab", [0, 1, MAX_RANK_MAGNITUDE + 1, 1.5], f"rank {MAX_RANK_MAGNITUDE + 1} exceeds the magnitude bound"),
        ("a", [-MAX_RANK_MAGNITUDE - 1, 0], f"rank {-MAX_RANK_MAGNITUDE - 1} exceeds the magnitude bound"),
        ("ab", [0, 1, 1], "expected 4 rank entries, got 3"),
    ],
)
def test_table_build_error_messages(labels, values, message):
    # the message names the first bad mask in mask order, whatever is wrong
    # with the masks after it
    with pytest.raises(TableBuildError) as info:
        make_table(labels, values)
    assert str(info.value) == message


def test_rank_table_is_slotted_and_frozen(demo_table):
    import copy
    import dataclasses
    import pickle

    assert not hasattr(demo_table, "__dict__")
    for field in ("ground", "values"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(demo_table, field, getattr(demo_table, field))
    # a name that is not a field has no slot; on Python 3.11 the frozen
    # __setattr__ of a slotted dataclass reports that as a TypeError
    with pytest.raises((AttributeError, TypeError)):
        demo_table.extra = 1
    assert not hasattr(demo_table, "extra")
    # a _trusted table whose view was never filled has an unset slot, which
    # a copy must not read; a scanned and an unscanned table are one table,
    # and the view is no dataclass field
    unscanned = RankTable._trusted(demo_table.ground, demo_table.values)
    scanned = RankTable._trusted(demo_table.ground, demo_table.values)
    validate(scanned)
    with pytest.raises(AttributeError):
        unscanned._view
    assert scanned._view.offsets == bytes(demo_table.values)
    assert [f.name for f in dataclasses.fields(RankTable)] == ["ground", "values"]
    assert dataclasses.asdict(unscanned) == dataclasses.asdict(scanned)
    for table in (demo_table, unscanned, scanned):
        assert table == demo_table and hash(table) == hash(demo_table)
        assert repr(table) == repr(demo_table) and "_view" not in repr(table)
        clones = [pickle.loads(pickle.dumps(table, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in clones + [copy.deepcopy(table), copy.copy(table)]:
            assert clone is not table
            assert clone == table and hash(clone) == hash(table) and repr(clone) == repr(table)
            assert clone.values == (0, 1, 0, 2, 1, 2, 1, 3) and clone.ground.labels == ("a", "b", "c")
            assert validate(clone) == validate(demo_table)
    assert make_table("ab", [0, 1, 1, 2]).values == (0, 1, 1, 2)  # a list is stored as a tuple


def test_each_table_is_packed_at_most_once(monkeypatch):
    # every reader takes the table's view: g is packed on its first read,
    # the dual pass makes the dual's bytes, the pruning table arrives with
    # its own bytes, and no reader packs any of them again
    packs = Counter()
    pack = core._pack

    def counting(values, low, high):
        packs[id(values)] += 1
        return pack(values, low, high)

    monkeypatch.setattr(core, "_pack", counting)
    rng = random.Random(10)
    # nonnegative, so that the characterization reads the SIZE bound too;
    # the dual has negative ranks
    g = make_table([f"e{i}" for i in range(10)], [0] + [rng.randint(0, 8) for _ in range(1023)])
    d = dual(g)
    assert min(d.values) < 0
    # a full antimatroid, whose convex closures read its feasible sets
    t = pruning_antimatroid(Tree(tuple(f"v{i}" for i in range(11)),
                                 tuple((f"e{i}", f"v{i}", f"v{i + 1}") for i in range(10))))
    for _ in range(2):
        for table in (g, d):
            validate(table)
            dual(table)
            for check in (check_matroid, check_greedoid, check_dual_greedoid, check_antimatroid,
                          check_demimatroid_characterization):
                check(table)
        check_demimatroid_triple(DemiTriple(g, d))
        convex_closure(t, t.ground.subset(["e3"]))
    assert packs == {id(g.values): 1}


def _scan_tables():
    """An n = 10 table with nonnegative ranks, its dual, whose ranks are
    not, and a full antimatroid, whose convex closures re-check it."""
    rng = random.Random(10)
    g = make_table([f"e{i}" for i in range(10)], [0] + [rng.randint(0, 8) for _ in range(1023)])
    t = pruning_antimatroid(Tree(tuple(f"v{i}" for i in range(11)),
                                 tuple((f"e{i}", f"v{i}", f"v{i + 1}") for i in range(10))))
    return g, dual(g), t


def test_each_view_is_scanned_once(monkeypatch):
    # the first step_sets call on the view of one table scans its step code,
    # which every later call reads, at any size: the n = 4 table too
    scans, calls = Counter(), Counter()
    scan, steps = core._step_code, core.step_sets

    def counting_scan(n, view, blocks=1):
        scans[id(view)] += 1
        return scan(n, view, blocks)

    def counting_steps(n, values, *relations, **blocks):
        calls[id(values)] += 1
        return steps(n, values, *relations, **blocks)

    monkeypatch.setattr(core, "_step_code", counting_scan)
    for module in (core, axioms):
        monkeypatch.setattr(module, "step_sets", counting_steps)
    g, d, t = _scan_tables()
    small = make_table("abcd", [0, 1, 1, 2, 1, 2, 2, 2, 1, 2, 2, 3, 2, 3, 3, 3])
    checks = (validate, dual, check_matroid, check_greedoid, check_dual_greedoid, check_antimatroid,
              check_demimatroid_characterization)
    for _ in range(2):
        for table in (g, d, t, small):
            for check in checks:
                check(table)
        check_demimatroid_triple(DemiTriple(g, d))
        convex_closure(t, t.ground.subset(["e3"]))
    tables = (g, d, t, small)
    views = [id(table._kernel_view()) for table in tables]
    assert set(scans) == set(calls) == set(views)
    assert [scans[view] for view in views] == [1, 1, 1, 1]
    assert min(calls[view] for view in views) > 1
    assert all(hasattr(table._kernel_view(), "_steps") for table in tables)


def test_raw_values_and_corpora_are_scanned_on_every_call(monkeypatch):
    scans = Counter()
    scan = core._step_code

    def counting_scan(n, view, blocks=1):
        scans[blocks] += 1
        return scan(n, view, blocks)

    monkeypatch.setattr(core, "_step_code", counting_scan)
    values = [0, 1, 1, 2]
    view = make_table("ab", values)._kernel_view()
    for _ in range(3):
        step_sets(2, values, FLAT)
        step_sets(2, bytes(values), UNIT)
        step_sets(2, view, FLAT, UNIT, JUMP, blocks=1)
        step_sets(2, bytes(values * 3), DECREASE, blocks=3)
    # the raw list and bytes thrice each, the view once, the corpus thrice
    assert scans == {1: 7, 3: 3}


@settings(max_examples=40, deadline=None)
@given(
    st.integers(8, 9),
    st.integers(0, 2**32),
    st.sampled_from([(0, 8), (-3, 8), (-60, 67), (-200, 200)]),
    st.lists(st.lists(st.sampled_from((DECREASE, FLAT, UNIT, JUMP)), max_size=5), max_size=6),
    st.booleans(),
)
def test_kept_step_sets_match_a_new_scan(n, seed, lohi, calls, mutate):
    # ranks packed and, past the packed spread, read by the map path; any
    # order of calls and relations, repeats among them, and a caller that
    # spoils the lists it was given
    rng = random.Random(seed)
    values = [rng.randint(*lohi) for _ in range(1 << n)]
    view = make_table([f"e{i}" for i in range(n)], values)._kernel_view()
    assert (view.offsets is None) == (lohi == (-200, 200))
    classes = dict(zip((DECREASE, FLAT, UNIT, JUMP), step_classes(values, n)))
    for relations in calls:
        found = step_sets(n, view, *relations)
        assert found == step_sets(n, list(values), *relations) == [classes[r] for r in relations]
        if mutate:
            for sets in found:
                sets[:] = [~s for s in sets] + [0]
    # the kept code: the low plane (flat or jump) at the masks A without p,
    # the high plane (unit or jump) moved to A | p
    assert hasattr(view, "_steps") == bool(calls)
    if calls:
        planes = enumerate(zip(classes[FLAT], classes[UNIT], classes[JUMP]))
        assert view._steps == [f | j | (u | j) << (1 << p) for p, (f, u, j) in planes]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(8, 9),
    st.integers(0, 2**32),
    # ranks in lo..hi, some moved by +-wide: packed up to a spread of 127,
    # the map path past it, with steps past +-128
    st.sampled_from([(0, 3, 0), (-2, 2, 0), (0, 127, 0), (-64, 63, 0), (0, 3, 300), (-1, 2, 130)]),
    st.permutations((DECREASE, FLAT, UNIT, JUMP)),
    st.integers(0, 4),
)
def test_kept_relations_match_the_steps_of_every_mask(n, seed, ranks, order, split):
    lo, hi, wide = ranks
    rng = random.Random(seed)
    values = [rng.randint(lo, hi) + wide * rng.choice((-1, 0, 0, 0, 1)) for _ in range(1 << n)]
    # steps of the full spread up and down, and of exactly -1, 0, 1 and 2
    values[:8] = [lo, hi, hi, lo, lo + 1, lo, lo + 1, lo + 3]
    values[12] = lo + 2
    view = make_table([f"e{i}" for i in range(n)], values)._kernel_view()
    assert (view.offsets is None) == (wide > 0)
    holds = dict(STEP_RELATIONS)
    seen = set()
    # two calls that split the relations, then all four in reverse order
    for relations in (order[:split], order[split:], order[::-1]):
        for relation, sets in zip(relations, step_sets(n, view, *relations)):
            for p, members in enumerate(sets):
                want = 0
                for a in range(1 << n):
                    if not a >> p & 1:
                        d = values[a | 1 << p] - values[a]
                        seen.add(d)
                        want |= holds[relation](d) << a
                assert members == want, (relation, p)
    assert {-1, 0, 1, 2, hi - lo, lo - hi} <= seen
    assert wide == 0 or max(map(abs, seen)) > 128


def test_table_accepts_ranks_at_the_magnitude_bound():
    g = make_table("a", [-MAX_RANK_MAGNITUDE, MAX_RANK_MAGNITUDE])
    assert g.values == (-MAX_RANK_MAGNITUDE, MAX_RANK_MAGNITUDE)


@given(st.integers(0, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << (1 << n)) - 1), max_size=8))))
def test_member_counts_counts_the_sets_holding_each_mask(case):
    n, sets = case
    counts = member_counts(n, sets)
    assert list(counts) == [sum(s >> mask & 1 for s in sets) for mask in range(1 << n)]
    for s in sets:
        assert member_counts(n, [s]) == bytes(s >> mask & 1 for mask in range(1 << n))
        assert bitset(member_counts(n, [s])) == s


@settings(max_examples=50)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << (1 << n)) - 1), min_size=9, max_size=60))))
def test_member_counts_of_many_sets_carry_through_every_plane(case):
    # counts up to 60 take six bit planes; 255 full sets fill every byte
    n, sets = case
    assert list(member_counts(n, sets)) == [sum(s >> mask & 1 for s in sets) for mask in range(1 << n)]
    assert member_counts(n, [(1 << (1 << n)) - 1] * 255) == b"\xff" * (1 << n)


@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, 4).flatmap(lambda blocks: st.tuples(
        st.just(blocks), st.lists(st.integers(0, (1 << (blocks << n)) - 1), max_size=6))))))
def test_member_counts_over_blocks_counts_each_position(case):
    n, (blocks, sets) = case
    counts = member_counts(n, sets, blocks)
    assert list(counts) == [sum(s >> i & 1 for s in sets) for i in range(blocks << n)]


def _tables_of_bytes(n):
    """2**n bytes in 0..127, among them the all-0 and all-127 tables."""
    size = 1 << n
    uniform = st.sampled_from([0, 127]).map(lambda b: bytes([b]) * size)
    return st.one_of(uniform, st.binary(min_size=size, max_size=size).map(
        lambda data: bytes(b & 127 for b in data)))


@given(st.integers(0, 6).flatmap(lambda n: st.tuples(st.just(n), _tables_of_bytes(n))))
def test_subset_max_takes_the_largest_byte_over_the_subsets(case):
    n, data = case
    size = 1 << n
    expected = bytes(max(data[a] for a in range(size) if a & b == a) for b in range(size))
    assert core.subset_max(n, data) == expected


# each step relation with the plain condition on d = values[A | p] - values[A]
STEP_RELATIONS = (
    (DECREASE, lambda d: d < 0),
    (FLAT, lambda d: d == 0),
    (UNIT, lambda d: d == 1),
    (JUMP, lambda d: d > 1),
)


def _spread_values(n):
    """Values whose spread max - min is drawn near the packed path's bound,
    from anywhere inside the magnitude bound."""
    spreads = st.sampled_from(
        [0, 1, 2, MAX_PACKED_SPREAD - 1, MAX_PACKED_SPREAD, MAX_PACKED_SPREAD + 1, 300]
    )
    lows = st.integers(-MAX_RANK_MAGNITUDE, MAX_RANK_MAGNITUDE - 300)
    return st.tuples(lows, spreads).flatmap(
        lambda ls: st.lists(st.integers(ls[0], ls[0] + ls[1]), min_size=1 << n, max_size=1 << n)
    )


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 9),
    st.integers(0, 2**32),
    # packed with a spread up to 127, and past it
    st.sampled_from([(0, 1), (0, 4), (-3, 8), (0, 127), (-64, 63), (-64, 64), (0, 255), (-200, 200)]),
)
def test_step_sets_match_the_class_of_every_step(n, seed, lohi):
    # one table of every size: its view on the first call and from its kept
    # code, its values as a list, and as bytes where they fit
    rng = random.Random(seed)
    values = [rng.randint(*lohi) for _ in range(1 << n)]
    want = step_classes(values, n)
    view = make_table([f"e{i}" for i in range(n)], values)._kernel_view()
    relations = (DECREASE, FLAT, UNIT, JUMP)
    assert step_sets(n, view, *relations) == step_sets(n, view, *relations) == want
    assert hasattr(view, "_steps")
    assert step_sets(n, values, *relations) == want
    if lohi[0] >= 0:
        assert step_sets(n, bytes(values), *relations) == want


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.one_of(_spread_values(n), st.lists(st.integers(), min_size=1 << n, max_size=1 << n)),
        )
    )
)
def test_step_sets_match_a_loop_over_every_step(case):
    # both sides of MAX_PACKED_SPREAD: the packed byte deltas and the map path
    n, values = case
    assert step_sets(n, values, DECREASE, FLAT, UNIT, JUMP) == step_classes(values, n)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.sampled_from((0, 0, 1, -1, -3, 120, -200)), min_size=1 << n, max_size=1 << n),
        )
    )
)
def test_feasible_flags_mark_the_sets_of_rank_their_size(case):
    # ranks |A| + e: packed with offset 0 or below it, and past the packed spread
    n, shifts = case
    values = [mask.bit_count() + e for mask, e in enumerate(shifts)]
    want = bytes(v == mask.bit_count() for mask, v in enumerate(values))
    assert feasible_flags(n, values) == want
    assert feasible_flags(n, table_from_values(GroundSet(tuple("abcdef"[:n])), values)._kernel_view()) == want
    if min(values) >= 0:
        assert feasible_flags(n, bytes(values)) == want
    # the same table in k blocks, packed or not as the single table is
    for k in (1, 2, 3):
        assert feasible_flags(n, values * k, k) == want * k
        if min(values) >= 0:
            assert feasible_flags(n, bytes(values) * k, k) == want * k


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sampled_from([(0, 4), (-3, 8), (0, 255), (-200, 200)]).flatmap(
                lambda lohi: st.lists(
                    st.lists(st.integers(*lohi), min_size=1 << n, max_size=1 << n),
                    min_size=1,
                    max_size=5,
                )
            ),
            st.booleans(),
        )
    )
)
def test_blocks_read_each_table_as_if_alone(case):
    # small ranks, also as bytes, negative ranks, and spreads past the packed
    # path, also as bytes
    n, tables, as_bytes = case
    size, blocks = 1 << n, len(tables)
    values = [v for t in tables for v in t]
    if as_bytes and min(values) >= 0:
        values = bytes(values)
    found = step_sets(n, values, DECREASE, FLAT, UNIT, JUMP, blocks=blocks)
    for b, table in enumerate(tables):
        block_sets = [[s >> (b * size) & (1 << size) - 1 for s in sets] for sets in found]
        assert block_sets == step_classes(table, n)
    for bound, exceeds in (
        (SIZE, lambda t, a: t[a] > a.bit_count()),
        (FULL, lambda t, a: t[a] > t[-1]),
        (NEGATIVE, lambda t, a: t[a] < 0),
    ):
        want = [b * size + a for b, t in enumerate(tables) for a in range(size) if exceeds(t, a)]
        got = exceeding(n, values, bound, blocks)
        assert members_of(got, blocks * size) == want
        assert members_of(~got, blocks * size) == sorted(set(range(blocks * size)) - set(want))
        assert members_of(failing_blocks(n, got, blocks), blocks) == sorted({i // size for i in want})


def test_no_flags_and_no_blocks_read_as_the_empty_set():
    assert bitset(()) == 0
    assert bitset(iter([])) == 0
    for n in range(5):
        # members past the width, none of which lies in a block
        for members in (0, 1, (1 << 40) - 1, -1):
            assert failing_blocks(n, members, 0) == 0


@pytest.mark.parametrize("n", range(4))
def test_failing_blocks_ignore_members_past_the_last_block(n):
    size = 1 << n
    for blocks in (1, 2, 5):
        for inside in (0, 1, 1 << (blocks * size - 1)):
            want = failing_blocks(n, inside, blocks)
            for stray in (1 << (blocks * size), 1 << (blocks * size + 3), ~((1 << blocks * size) - 1)):
                assert failing_blocks(n, inside | stray, blocks) == want
        assert failing_blocks(n, -1, blocks) == (1 << blocks) - 1


def test_validate_demo_all_flags_true(demo_table):
    report = validate(demo_table)
    assert report.normalized
    assert report.subcardinal and report.nonnegative
    assert report.monotone and report.rank_s_maximum
    assert report.witnesses == {}


def test_validate_dual_of_demo(demo_table):
    report = validate(dual(demo_table))
    assert not report.nonnegative
    assert str(report.witnesses["nonnegative"]) == "{a}"
    # any nested drop also breaks monotonicity; the minimal witness starts at {}
    assert not report.monotone
    a, b = report.witnesses["monotone"]
    assert str(a) == "{}" and str(b) == "{a}"
    # the pair ({c}, {a,c}) is another genuine violation of monotonicity
    gd = dual(demo_table)
    assert gd.rank(("c",)) > gd.rank(("a", "c"))


def test_validate_non_normalized():
    # r(empty) = 3 with wild singleton ranks
    table = make_table("ab", [3, -1, 7, 2])
    report = validate(table)
    assert not report.normalized
    assert not report.rank_s_maximum  # r(b) = 7 > r(S) = 2
    assert not report.subcardinal


def test_validate_is_pure(demo_table):
    assert validate(demo_table) == validate(demo_table)


def test_masks_by_cardinality_order():
    assert masks_by_cardinality(3) == (0, 1, 2, 4, 3, 5, 6, 7)
    n = MAX_PAIRWISE_N + 1
    assert masks_by_cardinality(n) == tuple(sorted(range(1 << n), key=lambda m: (m.bit_count(), m)))
