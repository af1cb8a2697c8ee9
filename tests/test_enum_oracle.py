"""The explicit-stack enumerator against the recursive ``enum_oracle``."""

import pytest

from rankdual.verify import CONSTRAINTS, MAX_EXHAUSTIVE_N, _enumerate_values

from enum_oracle import oracle_enumerate_values


@pytest.mark.parametrize("constraint", CONSTRAINTS)
def test_same_tables_in_the_same_order(constraint):
    for n in range(MAX_EXHAUSTIVE_N + 1):
        got = list(_enumerate_values(n, constraint))
        assert got == list(oracle_enumerate_values(n, constraint)), n
        assert got, n


@pytest.mark.parametrize("constraint", CONSTRAINTS)
def test_stop_prefixes_partition_the_n4_search(constraint):
    n, depth = 4, 3
    prefixes = list(_enumerate_values(n, constraint, stop=depth))
    assert prefixes == list(oracle_enumerate_values(n, constraint, stop=depth))
    assert len(prefixes) > 1 and all(len(p) == depth for p in prefixes)
    expanded = [
        values for prefix in prefixes for values in _enumerate_values(n, constraint, prefix=prefix)
    ]
    assert expanded == list(_enumerate_values(n, constraint))
    some = prefixes[len(prefixes) // 2]
    assert list(_enumerate_values(n, constraint, prefix=some)) == list(
        oracle_enumerate_values(n, constraint, prefix=some)
    )
