"""Recursive reference for the exhaustive enumerator.

``oracle_enumerate_values`` is a depth-first search over rank assignments in
increasing mask order, smallest value first: one generator frame per mask,
every value passed up through ``yield from``, and the local-semimodularity
and unit-increase tests applied to each candidate value. The library builds
its tables another way, as a join of table halves filtered by
``axioms.block_failures``, and shares no code with this search; the tests
require the same tables in the same order. Complete tables are kept by the
pairwise semimodularity and union scans of ``scan_oracle``, where the
library uses local tests.
"""

from scan_oracle import pairwise_semimodular, pairwise_union_closed


def _search_tables(n: int):
    """Per mask m: its immediate subsets, and the local-semimodularity
    squares (A, A | p1, A | p2) with A | p1 | p2 = m."""
    size = 1 << n
    preds = [[m & ~(1 << p) for p in range(n) if m >> p & 1] for m in range(size)]
    squares = [[] for _ in range(size)]
    for m in range(size):
        for p1 in range(n):
            for p2 in range(p1 + 1, n):
                if m >> p1 & 1 and m >> p2 & 1:
                    a = m & ~(1 << p1) & ~(1 << p2)
                    squares[m].append((a, a | 1 << p1, a | 1 << p2))
    return preds, squares


def oracle_enumerate_values(n: int, constraint: str):
    size = 1 << n
    preds, squares = _search_tables(n)
    prune_gr3 = constraint in ("greedoid", "matroid", "full-antimatroid")
    prune_unit = constraint == "matroid"

    vals = [0] * size

    def emit(v):
        if constraint == "matroid":
            return pairwise_semimodular(v, n)
        if constraint == "full-antimatroid":
            return v[size - 1] == n and pairwise_union_closed(v, n)
        return True

    def rec(m):
        if m == size:
            candidate = tuple(vals)
            if emit(candidate):
                yield candidate
            return
        lo = max((vals[p] for p in preds[m]), default=0)
        hi = m.bit_count()
        if prune_unit and preds[m]:
            hi = min(hi, min(vals[p] for p in preds[m]) + 1)
        triples = squares[m] if prune_gr3 else ()
        for v in range(lo, hi + 1):
            if any(vals[a] == vals[a1] == vals[a2] != v for a, a1, a2 in triples):
                continue
            vals[m] = v
            yield from rec(m + 1)
        vals[m] = 0

    yield from rec(1)
