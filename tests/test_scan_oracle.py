"""The bit-set checkers and ``validate`` against the brute-force scans of
``scan_oracle``: same verdicts, witnesses (in insertion order), details and
rendered lines on every table."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from rankdual import (
    DemiTriple,
    EnumSpec,
    GroundSet,
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

from scan_oracle import (
    oracle_antimatroid,
    oracle_demimatroid_characterization,
    oracle_demimatroid_triple,
    oracle_dual_greedoid,
    oracle_greedoid,
    oracle_matroid,
    oracle_validate,
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
    return table_from_values(GroundSet(tuple("abcdefgh"[:n])), values)


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
