import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankdual import (
    GroundSet,
    GroundSetError,
    MinorSpec,
    NormalizationError,
    TableBuildError,
    contract,
    delete,
    direct_sum,
    dual,
    minor,
    table_from_values,
)

from conftest import make_table


@st.composite
def rank_tables(draw, max_n=4, lo=-3, hi=8):
    n = draw(st.integers(0, max_n))
    size = 1 << n
    values = [0] + [draw(st.integers(lo, hi)) for _ in range(size - 1)]
    return table_from_values(GroundSet(tuple("abcdef"[:n])), values)


def test_dual_golden_row(demo_table):
    gd = dual(demo_table)
    assert gd.values == (0, -1, 0, 0, 0, -1, 0, 0)
    # |{a,c}| + r({b}) - r(S) = 2 + 0 - 3
    assert gd.rank(("a", "c")) == -1


def test_dual_results_are_checked():
    # r*({a}) = 1 + r(empty) - r({a}) = 1 - 2**32 leaves the magnitude bound
    g = table_from_values(GroundSet(("a",)), (-(2**31), 2**31))
    with pytest.raises(TableBuildError, match="rank -4294967295 exceeds the magnitude bound"):
        dual(g)


def test_dual_involution_on_demo(demo_table):
    assert dual(dual(demo_table)) == demo_table


@given(rank_tables())
def test_dual_endpoints(g):
    gd = dual(g)
    assert gd.rank(()) == 0
    assert gd.full_rank == g.n - g.full_rank


@given(rank_tables())
@settings(max_examples=200)
def test_dual_involution(g):
    assert dual(dual(g)) == g


@given(rank_tables(max_n=4))
def test_exchange_identities(g):
    gd = dual(g)
    for p in g.ground.labels:
        assert dual(delete(g, p)) == contract(gd, p)
        assert dual(contract(g, p)) == delete(gd, p)


def test_delete_golden(demo_table):
    reduced = delete(demo_table, "a")
    assert reduced.ground.labels == ("b", "c")
    assert reduced.values == (0, 0, 1, 1)


def test_delete_single_element_ground():
    table = make_table("a", [0, 5])
    reduced = delete(table, "a")
    assert reduced.ground.labels == ()
    assert reduced.values == (0,)


def test_delete_preserves_restriction_flags(demo_table):
    from rankdual import validate

    before = validate(demo_table)
    after = validate(delete(demo_table, "a"))
    assert before.subcardinal and after.subcardinal
    assert before.monotone and after.monotone


def test_contract_golden(demo_table):
    contracted = contract(demo_table, "a")
    assert contracted.ground.labels == ("b", "c")
    assert contracted.values == (0, 1, 1, 2)


def test_contract_second_element(demo_table):
    # r(A | b) - r(b) over {a, c}
    contracted = contract(demo_table, "b")
    assert contracted.ground.labels == ("a", "c")
    assert contracted.values == (0, 2, 1, 3)


def test_contract_free_element_is_restriction(demo_table):
    # glue on an element q with r(q) = 0 and r(A | q) = r(A); contracting it
    # leaves the original ranks untouched
    loop = make_table("q", [0, 0])
    widened = direct_sum(demo_table, loop)
    assert contract(widened, "q") == demo_table


def test_contract_unknown_element(demo_table):
    with pytest.raises(GroundSetError):
        contract(demo_table, "z")


def test_contract_requires_normalization():
    table = make_table("ab", [3, -1, 7, 2])
    with pytest.raises(NormalizationError):
        contract(table, "a")


def test_minor_contract_only_equals_contract(demo_table):
    spec = MinorSpec(demo_table.ground.subset(("a",)), demo_table.ground.empty())
    assert minor(demo_table, spec) == contract(demo_table, "a")


def test_minor_golden(demo_table):
    spec = MinorSpec(
        demo_table.ground.subset(("a",)), demo_table.ground.subset(("b",))
    )
    result = minor(demo_table, spec)
    assert result.ground.labels == ("c",)
    # r({a,c}) - r({a}) = 2 - 1
    assert result.values == (0, 1)


def test_minor_rejects_overlap(demo_table):
    with pytest.raises(Exception, match="overlap"):
        MinorSpec(
            demo_table.ground.subset(("a",)), demo_table.ground.subset(("a", "b"))
        )


@given(rank_tables(max_n=4))
@settings(max_examples=100)
def test_minor_order_independence(g):
    if g.n < 3:
        return
    labels = g.ground.labels
    spec = MinorSpec(g.ground.subset(labels[:2]), g.ground.subset(labels[2:3]))
    expected = minor(g, spec)
    steps = [("contract", labels[0]), ("contract", labels[1]), ("delete", labels[2])]
    for order in itertools.permutations(steps):
        current = g
        for op, label in order:
            current = contract(current, label) if op == "contract" else delete(current, label)
        assert current == expected


def test_direct_sum_additivity():
    g1 = make_table("p", [0, 1])
    g2 = make_table("q", [0, 0])
    total = direct_sum(g1, g2)
    assert total.ground.labels == ("p", "q")
    assert total.values == (0, 1, 0, 1)


def test_direct_sum_commutes_with_dual(demo_table):
    coloop = make_table("q", [0, 1])
    assert dual(direct_sum(demo_table, coloop)) == direct_sum(
        dual(demo_table), dual(coloop)
    )


def test_direct_sum_identity(demo_table):
    empty = table_from_values(GroundSet(()), (0,))
    assert direct_sum(demo_table, empty) == demo_table


def test_direct_sum_associative_up_to_label_order():
    g1, g2, g3 = make_table("a", [0, 1]), make_table("b", [0, 0]), make_table("c", [0, 1])
    assert direct_sum(direct_sum(g1, g2), g3) == direct_sum(g1, direct_sum(g2, g3))


@st.composite
def summand_pairs(draw):
    n1, n2 = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    ranks = st.integers(-20, 20)
    g1 = make_table("abcd"[:n1], draw(st.lists(ranks, min_size=1 << n1, max_size=1 << n1)))
    g2 = make_table("pqrs"[:n2], draw(st.lists(ranks, min_size=1 << n2, max_size=1 << n2)))
    return g1, g2


@settings(max_examples=200)
@given(summand_pairs())
def test_direct_sum_adds_the_ranks_of_the_two_parts(pair):
    g1, g2 = pair
    total = direct_sum(g1, g2)
    n1, low = g1.ground.n, g1.ground.full_mask
    assert total.ground.labels == g1.ground.labels + g2.ground.labels
    assert total.values == tuple(
        g1.values[a & low] + g2.values[a >> n1] for a in range(total.ground.size)
    )


def test_direct_sum_label_collision(demo_table):
    with pytest.raises(GroundSetError, match="collision"):
        direct_sum(demo_table, make_table("a", [0, 1]))
