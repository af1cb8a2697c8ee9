import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankdual import (
    LaurentPoly2,
    NormalizationError,
    RankFunctionError,
    contract,
    delete,
    direct_sum,
    dual,
    random_tables,
    swap_vars,
    tutte_recursive,
    tutte_subset,
    uniform_matroid,
    validate,
)

from conftest import make_table


def test_poly_drops_zero_coefficients():
    p = LaurentPoly2({(1, 0): 2, (0, 1): 0})
    assert p.terms == {(1, 0): 2}
    assert LaurentPoly2({(0, 0): 1}) + LaurentPoly2({(0, 0): -1}) == LaurentPoly2.zero()


def test_poly_arithmetic():
    t = LaurentPoly2.monomial(1, 0)
    z = LaurentPoly2.monomial(0, 1)
    one = LaurentPoly2.one()
    assert (t + one) * (z + one) == LaurentPoly2({(1, 1): 1, (1, 0): 1, (0, 1): 1, (0, 0): 1})
    assert 3 * t == LaurentPoly2({(1, 0): 3})
    assert t.shift(-2, 1) == LaurentPoly2.monomial(-1, 1)
    assert hash(t + z) == hash(z + t)


def test_poly_rejects_non_integer_coefficients():
    with pytest.raises(RankFunctionError):
        LaurentPoly2({(0, 0): 1.5})


@pytest.mark.parametrize(
    "key", [(1.5, 0), (1.0, 0), ("2", "0"), (True, 0), (0, False), (1,), (1, 0, 0), 5]
)
def test_poly_rejects_non_integer_exponents(key):
    with pytest.raises(RankFunctionError, match="non-integer exponent pair"):
        LaurentPoly2({key: 1})


def test_poly_canonical_string():
    assert str(LaurentPoly2.zero()) == "0"
    assert str(LaurentPoly2.one()) == "1"
    p = LaurentPoly2({(3, 1): 1, (3, 0): 1, (2, 1): 1, (2, 0): 2, (1, 0): 2, (0, 0): 1})
    assert str(p) == "t^3*z + t^3 + t^2*z + 2*t^2 + 2*t + 1"
    assert str(LaurentPoly2({(1, 0): -2, (0, 0): 1})) == "-2*t + 1"
    assert str(LaurentPoly2({(0, -1): 1, (-5, -6): 1})) == "z^-1 + t^-5*z^-6"


def test_swap_twice_is_identity():
    p = LaurentPoly2({(2, -1): 3, (0, 5): -1})
    assert swap_vars(swap_vars(p)) == p


def test_swap_fixed_point_on_symmetric_poly():
    p = LaurentPoly2({(1, 1): 1, (1, 0): 1, (0, 1): 1, (0, 0): 1})
    assert swap_vars(p) == p


def test_subset_expansion_goldens(demo_table):
    f = tutte_subset(demo_table)
    t = LaurentPoly2.monomial(1, 0)
    z = LaurentPoly2.monomial(0, 1)
    one = LaurentPoly2.one()
    t2 = LaurentPoly2.monomial(2, 0)
    # (t + 1)(t^2 z + t^2 + t + 1)
    assert f == (t + one) * (t2 * z + t2 + t + one)
    assert tutte_subset(delete(demo_table, "a")) == t * z + t + z + one
    assert tutte_subset(contract(demo_table, "a")) == (t + one) * (t + one)
    assert tutte_subset(delete(demo_table, "b")) == (t + one) * (t + one)
    assert tutte_subset(contract(demo_table, "b")) == LaurentPoly2(
        {(3, 0): 1, (2, 0): 1, (1, -1): 1, (0, -1): 1}
    )


def test_empty_ground_polynomial():
    empty = make_table("", [0])
    assert tutte_subset(empty) == LaurentPoly2.one()
    assert tutte_recursive(empty) == LaurentPoly2.one()


def test_non_normalized_expansion():
    # r(empty)=3, r(a)=-1, r(b)=7, r(S)=2: substituting the corank/nullity
    # exponents per subset gives four Laurent terms
    table = make_table("ab", [3, -1, 7, 2])
    assert tutte_subset(table) == LaurentPoly2(
        {(-1, -3): 1, (3, 2): 1, (-5, -6): 1, (0, 0): 1}
    )


def test_recursion_requires_normalization():
    with pytest.raises(NormalizationError):
        tutte_recursive(make_table("a", [1, 1]))


def test_unknown_pivot_strategy(demo_table):
    with pytest.raises(RankFunctionError):
        tutte_recursive(demo_table, "zigzag")


def test_recursion_matches_subset_on_random_corpus():
    for g in random_tables(120, max_n=5, seed=99):
        reference = tutte_subset(g)
        assert tutte_recursive(g, "lowest") == reference
        assert tutte_recursive(g, "highest") == reference


def test_recursion_accepts_callable_pivot(demo_table):
    def middle(remaining):
        bits = [p for p in range(remaining.bit_length()) if remaining >> p & 1]
        return bits[len(bits) // 2]

    assert tutte_recursive(demo_table, middle) == tutte_subset(demo_table)


@pytest.mark.parametrize("choice", [-1, 99, "x", None, 1.0])
def test_bad_pivot_is_an_input_error(demo_table, choice):
    with pytest.raises(RankFunctionError, match="^pivot strategy chose an element outside the ground set$"):
        tutte_recursive(demo_table, lambda remaining: choice)


def test_pivot_is_checked_on_every_level(demo_table):
    # a pivot that is valid on the full ground but repeats an element later
    calls = []

    def always_a(remaining):
        calls.append(remaining)
        return 0

    with pytest.raises(RankFunctionError, match="outside the ground set"):
        tutte_recursive(demo_table, always_a)
    assert calls == [0b111, 0b110]


def test_pivot_is_called_once_per_level(demo_table):
    calls = []

    def highest(remaining):
        calls.append(remaining)
        return remaining.bit_length() - 1

    assert tutte_recursive(demo_table, highest) == tutte_subset(demo_table)
    assert calls == [0b111, 0b011, 0b001]


def test_recursion_leaves_no_reference_cycle(demo_table):
    # the memo must be freed on return, not left for the cyclic collector
    gc.disable()
    try:
        gc.collect()
        tutte_recursive(demo_table)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_pivot_identities(demo_table):
    f = tutte_subset(demo_table)
    # r(S) - r(S - a) = 2 and r(a) = 1
    assert f == tutte_subset(delete(demo_table, "a")).shift(2, 0) + tutte_subset(
        contract(demo_table, "a")
    )
    # r(S) - r(S - b) = 1 and r(b) = 0
    assert f == tutte_subset(delete(demo_table, "b")).shift(1, 0) + tutte_subset(
        contract(demo_table, "b")
    ).shift(0, 1)


def test_duality_swap_on_demo(demo_table):
    left = tutte_subset(dual(demo_table))
    assert left == swap_vars(tutte_subset(demo_table))
    assert left == LaurentPoly2(
        {(1, 3): 1, (1, 2): 1, (0, 3): 1, (0, 2): 2, (0, 1): 2, (0, 0): 1}
    )


def test_polynomiality_iff_flags():
    for g in random_tables(200, max_n=5, seed=4242):
        report = validate(g)
        mins = tutte_subset(g).min_exponents()
        assert (min(mins) >= 0) == (report.rank_s_maximum and report.subcardinal)


def test_terms_match_subset_multiset(demo_table):
    for g in list(random_tables(50, max_n=4, seed=11)) + [demo_table]:
        total = g.full_rank
        pairs = {}
        for mask in range(g.ground.size):
            v = g.values[mask]
            key = (total - v, mask.bit_count() - v)
            pairs[key] = pairs.get(key, 0) + 1
        assert pairs == tutte_subset(g).terms


def test_subset_terms_swap_to_complement_terms(demo_table):
    # the term of A in f(G) reappears, exponents swapped, as the term of
    # S - A in f(G*)
    g = demo_table
    gd = dual(g)
    full = g.ground.full_mask
    for mask in range(g.ground.size):
        corank = g.full_rank - g.values[mask]
        nullity = mask.bit_count() - g.values[mask]
        co = full ^ mask
        dual_corank = gd.full_rank - gd.values[co]
        dual_nullity = co.bit_count() - gd.values[co]
        assert (corank, nullity) == (dual_nullity, dual_corank)


def test_matroid_specialization():
    g = uniform_matroid("abc", 2)
    # b is neither a coloop nor a loop, so both recursion exponents vanish
    assert g.full_rank - delete(g, "b").full_rank == 0
    assert g.rank(("b",)) == 1
    assert tutte_subset(g) == tutte_subset(delete(g, "b")) + tutte_subset(contract(g, "b"))


def test_direct_sum_multiplies_polynomials():
    tables = list(random_tables(24, max_n=3, seed=5))
    for g1, g2 in zip(tables[::2], tables[1::2]):
        relabeled = make_table("pqr"[: g2.n], g2.values)
        assert tutte_subset(direct_sum(g1, relabeled)) == tutte_subset(g1) * tutte_subset(g2)
