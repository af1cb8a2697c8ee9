"""The join enumerator against the recursive search of ``enum_oracle``."""

import pytest

from rankdual.verify import CONSTRAINTS, MAX_EXHAUSTIVE_N, _corpora

from enum_oracle import oracle_enumerate_values


@pytest.mark.parametrize("constraint", CONSTRAINTS)
def test_same_tables_in_the_same_order(constraint):
    for n in range(MAX_EXHAUSTIVE_N + 1):
        size = 1 << n
        corpora = list(_corpora(n, constraint))
        got = [tuple(corpus[i : i + size]) for corpus in corpora for i in range(0, len(corpus), size)]
        assert got == list(oracle_enumerate_values(n, constraint)), n
        assert got and all(corpora), n

