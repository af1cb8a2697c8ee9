"""The join enumerator against the recursive search of ``enum_oracle``."""

import pytest

from rankdual.verify import CONSTRAINTS, MAX_EXHAUSTIVE_N, _enumerate_values

from enum_oracle import oracle_enumerate_values


@pytest.mark.parametrize("constraint", CONSTRAINTS)
def test_same_tables_in_the_same_order(constraint):
    for n in range(MAX_EXHAUSTIVE_N + 1):
        got = list(map(tuple, _enumerate_values(n, constraint)))
        assert got == list(oracle_enumerate_values(n, constraint)), n
        assert got, n

