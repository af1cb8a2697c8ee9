"""The per-table reference of the four sampled suites that verify reads as
per-size corpora: ``involution``, ``exchange``, ``nullity_monotone`` and
``demimatroid_characterization``.

The suite loops and the seeded samplers below are the library's own before
it grouped the drawn tables by size: one call of the public ops or of the
witnessed checkers per drawn table, and one ``check`` per instance.
``reference_report`` runs them through ``run_suite``, so that the params
are resolved and the report is rendered as for the suites themselves. The
tests patch the module-level names (``dual`` among them) to plant faults.
This file is not collected by pytest.
"""

from __future__ import annotations

import random
from operator import sub

from rankdual import verify
from rankdual.axioms import DemiTriple, check_demimatroid_characterization, check_demimatroid_triple
from rankdual.core import (
    DECREASE,
    JUMP,
    GroundSet,
    RankTable,
    popcounts,
    step_sets,
    subset_max,
    table_from_values,
)
from rankdual.ops import contract, delete, dual
from rankdual.verify import _LABELS, _CORPUS, _SAMPLE, _enumerated, _Recorder, _seeded

# ---------------------------------------------------------------------------
# the seeded samplers
# ---------------------------------------------------------------------------


def random_tables(count: int, max_n: int = 6, seed=None, lo: int = -3, hi: int = 8):
    """Seeded stream of tables with r(empty) = 0 and independent uniform
    ranks in [lo, hi] elsewhere. Negative and non-monotone ranks are the
    point: the polynomial identities hold for arbitrary integer tables."""
    rng = _seeded(seed, count, max_n, lo, hi)
    for _ in range(count):
        yield _random_table(rng, _LABELS[: rng.randint(0, max_n)], lo, hi)


def _random_table(rng: random.Random, labels: str, lo: int, hi: int) -> RankTable:
    """A table on ``labels`` with r(empty) = 0 and ranks drawn from ``rng``
    uniformly in [lo, hi] elsewhere, in mask order."""
    values = [0] + [rng.randint(lo, hi) for _ in range((1 << len(labels)) - 1)]
    return table_from_values(GroundSet(tuple(labels)), values)


def random_monotone_tables(count: int, max_n: int = 6, seed=None):
    """Seeded stream of normalized monotone subcardinal tables: each rank is
    uniform between the largest immediate-subset rank and the cardinality."""
    rng = _seeded(seed, count, max_n)
    subsets = {}  # per ground size: the immediate subsets of each mask
    for _ in range(count):
        n = rng.randint(0, max_n)
        if n not in subsets:
            subsets[n] = [[m & ~(1 << p) for p in range(n) if m >> p & 1] for m in range(1 << n)]
        values = [0] * (1 << n)
        for m in range(1, 1 << n):
            below = max(map(values.__getitem__, subsets[n][m]))
            values[m] = rng.randint(below, m.bit_count())
        # 2**n ints in 0..n with n within the cap: no checks needed
        yield RankTable._trusted(GroundSet(tuple(_LABELS[:n])), tuple(values))


def _corpus(params: dict):
    return random_tables(**{key: params[key] for key in _CORPUS})


def _desc(i: int, g: RankTable):
    return lambda: f"table[{i}] n={g.n} values={g.values}"


def _monotone_corpus(params):
    """(description, table) pairs; each description is a callable."""
    for idx, g in enumerate(_enumerated(params["n"], "all-normalized-subcardinal-monotone")):
        yield (lambda idx=idx, g=g: f"enumerated[{idx}] n={g.n} values={g.values}"), g
    for idx, g in enumerate(random_monotone_tables(**{key: params[key] for key in _SAMPLE})):
        yield (lambda idx=idx, g=g: f"sampled[{idx}] n={g.n} values={g.values}"), g


# ---------------------------------------------------------------------------
# the suites, one table at a time
# ---------------------------------------------------------------------------


def _suite_involution(params, rec: _Recorder):
    for i, g in enumerate(_corpus(params)):
        rec.check(
            dual(dual(g)) == g, _desc(i, g), "dual(dual(g)) == g", lambda: str(dual(dual(g)).values)
        )


def _suite_exchange(params, rec: _Recorder):
    for i, g in enumerate(_corpus(params)):
        gd = dual(g)
        for p in g.ground.labels:
            ok1 = dual(delete(g, p)) == contract(gd, p)
            rec.check(ok1, _desc(i, g), f"dual(delete(g,{p})) == contract(dual(g),{p})")
            ok2 = dual(contract(g, p)) == delete(gd, p)
            rec.check(ok2, _desc(i, g), f"dual(contract(g,{p})) == delete(dual(g),{p})")


def _suite_nullity_monotone(params, rec: _Recorder):
    for desc, g in _monotone_corpus(params):
        # three independent readings: no jump step of r, no decreasing step
        # of the nullity |A| - r(A), and no pair A <= B stretched past |B - A|
        # (no nullity below a subset's); both corpora keep nullities in 0..n
        nullities = bytes(map(sub, popcounts(g.n), g.values))
        (jump,) = step_sets(g.n, g._kernel_view(), JUMP)
        unit = not any(jump)
        (drop,) = step_sets(g.n, nullities, DECREASE)
        nullity = not any(drop)
        stretch = subset_max(g.n, nullities) == nullities
        rec.check(
            unit == nullity == stretch,
            desc,
            "unit rank increase iff monotone nullity (iff bounded stretch)",
            lambda: f"unit={unit} nullity={nullity} stretch={stretch}",
        )


def _suite_demimatroid_characterization(params, rec: _Recorder):
    for desc, g in _monotone_corpus(params):
        lhs = check_demimatroid_characterization(g).passed
        rhs = check_demimatroid_triple(DemiTriple(g, dual(g))).passed
        rec.check(
            lhs == rhs,
            desc,
            "characterization passes iff (S, r, r*) is a demi triple",
            lambda: f"characterization={lhs} triple={rhs}",
        )


REFERENCES = {
    "involution": _suite_involution,
    "exchange": _suite_exchange,
    "nullity_monotone": _suite_nullity_monotone,
    "demimatroid_characterization": _suite_demimatroid_characterization,
}


def reference_report(name: str, params: dict) -> str:
    """run_suite(name, params).to_report() with the suite's reference loop
    in place of its corpus readers; an input error is returned as its
    message."""
    suite = verify.SUITES[name]
    verify.SUITES[name] = suite._replace(run=REFERENCES[name])
    try:
        return verify.run_suite(name, params).to_report()
    except verify.RankFunctionError as exc:
        return f"error: {exc}"
    finally:
        verify.SUITES[name] = suite
