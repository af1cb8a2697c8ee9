"""Recursive reference for the exhaustive enumerator.

``oracle_enumerate_values`` is the generator form of the search: one
generator frame per mask, every value passed up through ``yield from``, and
the local-semimodularity test applied to each candidate value. The library
runs the same search as one loop over an explicit stack and narrows each
mask's value range before the loop; the tests require the same tuples in the
same order, for full tables and for ``stop`` prefixes. Complete tables are
kept by the pairwise semimodularity and union scans of ``scan_oracle``,
where the library uses local tests.
"""

from rankdual.verify import _enum_tables

from scan_oracle import pairwise_semimodular, pairwise_union_closed


def oracle_enumerate_values(n: int, constraint: str, prefix=(), stop=None):
    size = 1 << n
    preds, gr3_at = _enum_tables(n)
    prune_gr3 = constraint in ("greedoid", "matroid", "full-antimatroid")
    prune_unit = constraint == "matroid"

    vals = [0] * size
    for i, v in enumerate(prefix):
        vals[i + 1] = v
    start = len(prefix) + 1
    end = size if stop is None else stop + 1

    def emit(v):
        if stop is not None:
            return True
        if constraint == "matroid":
            return pairwise_semimodular(v, n)
        if constraint == "full-antimatroid":
            return v[size - 1] == n and pairwise_union_closed(v, n)
        return True

    def rec(m):
        if m == end:
            candidate = tuple(vals[1 : stop + 1]) if stop is not None else tuple(vals)
            if emit(candidate):
                yield candidate
            return
        lo = max((vals[p] for p in preds[m]), default=0)
        hi = m.bit_count()
        if prune_unit and preds[m]:
            hi = min(hi, min(vals[p] for p in preds[m]) + 1)
        triples = gr3_at[m] if prune_gr3 else ()
        for v in range(lo, hi + 1):
            if any(vals[a] == vals[a1] == vals[a2] != v for a, a1, a2 in triples):
                continue
            vals[m] = v
            yield from rec(m + 1)
        vals[m] = 0

    yield from rec(start)
