"""The four sampled suites that read per-size corpora give the reports of
their per-table reference (``suite_oracle``), byte for byte: on seeds 0 to
4, in one pass and in passes of a few tables, counts 0 to 60 and grounds
of up to 8 elements; with the default ranks, with ranks near 2**28, which
do not pack and take the per-table route, and with ranks in [-40, 40],
whose larger sizes take it; under both fail_fast values and max_failures 1
and 3; and with a planted fault, which both readings must report alike."""

import itertools

import pytest

import suite_oracle
from rankdual import random_monotone_tables, random_tables, table_from_values, verify
from rankdual.core import _view_of

SUITES = ("involution", "exchange", "nullity_monotone", "demimatroid_characterization")
# (seed, count, max_n, values per pass); the last sample is read in passes
# of a few tables each, so that the draw indices run on from pass to pass
SAMPLES = ((0, 0, 3, None), (1, 60, 8, None), (2, 13, 0, None), (3, 37, 5, None), (4, 22, 2, None),
           (1, 60, 8, 300))
# ranks that pack at small sizes only (at seed 1, up to n = 3 for involution
# and n = 2 for exchange): one pass reads some sizes as corpora and the rest
# per table
MIXED = {"lo": -40, "hi": 40}
WIDE = {"lo": -(2**28), "hi": 2**28}


def _odd_full_raised(values, n, blocks=1):
    """values with the value at the full set of each block raised by 1
    where it is odd."""
    values = list(values)
    for end in range((1 << n) - 1, blocks << n, 1 << n):
        values[end] += values[end] % 2
    return values


def _plant(monkeypatch, name):
    """A fault in what both readings of the suite compute: a dual wrong at
    the full set where it is odd, or for nullity_monotone a subset max wrong
    at the full set where it is odd."""
    if name == "nullity_monotone":
        subset_max = verify.subset_max

        def wrong_subset_max(n, data, blocks=1):
            return bytes(_odd_full_raised(subset_max(n, data, blocks), n, blocks))

        monkeypatch.setattr(verify, "subset_max", wrong_subset_max)
        monkeypatch.setattr(suite_oracle, "subset_max", wrong_subset_max)
        return
    dual, packed_dual = verify.dual, verify._packed_dual

    def wrong_dual(g):
        d = dual(g)
        return table_from_values(d.ground, _odd_full_raised(d.values, d.n))

    def wrong_packed_dual(n, values, blocks=1):
        view = packed_dual(n, values, blocks)
        return None if view is None else _view_of(tuple(_odd_full_raised(view.values, n, blocks)))

    monkeypatch.setattr(verify, "dual", wrong_dual)
    monkeypatch.setattr(verify, "_packed_dual", wrong_packed_dual)
    monkeypatch.setattr(suite_oracle, "dual", wrong_dual)


def _variants(name):
    """(params, planted) of the runs of one sample: each range of ranks (of
    the enumerated sizes n for the monotone suites) without a fault, and
    with one under every fail_fast and max_failures."""
    if name in ("involution", "exchange"):
        ranges = ({}, MIXED, WIDE)
    else:
        ranges = ({"n": 0}, {"n": 3})
    for extra in ranges:
        yield extra, False
        for fail_fast, max_failures in itertools.product((0, 1), (1, 3)):
            yield {**extra, "fail_fast": fail_fast, "max_failures": max_failures}, True
        # every failure, up to the default cap of 100, in draw order
        yield extra, True


@pytest.mark.parametrize("seed, count, max_n, pass_values", SAMPLES)
@pytest.mark.parametrize("name", SUITES)
def test_corpus_reports_equal_the_per_table_reference(monkeypatch, name, seed, count, max_n, pass_values):
    if pass_values:
        monkeypatch.setattr(verify, "_PASS_VALUES", pass_values)
    failing = 0
    for extra, planted in _variants(name):
        params = {"seed": seed, "count": count, "max_n": max_n, **extra}
        with monkeypatch.context() as patched:
            if planted:
                _plant(patched, name)
            want = suite_oracle.reference_report(name, params)
            try:
                got = verify.run_suite(name, params).to_report()
            except verify.RankFunctionError as exc:
                got = f"error: {exc}"
        assert got == want, params
        failing += "result: fail" in got
    # the planted fault shows on the larger samples
    assert failing or count < 20


@pytest.mark.parametrize("seed", range(5))
def test_the_samplers_draw_the_reference_tables(seed):
    for lo, hi in ((-3, 8), (-(2**28), 2**28)):
        want = suite_oracle.random_tables(40, 8, seed, lo, hi)
        assert list(random_tables(40, 8, seed, lo, hi)) == list(want)
    assert list(random_monotone_tables(40, 8, seed)) == list(suite_oracle.random_monotone_tables(40, 8, seed))
