import pytest

from rankdual import GroundSet, branching_greedoid, demo_rooted_tree, table_from_values


def make_table(labels, values):
    return table_from_values(GroundSet(tuple(labels)), values)


@pytest.fixture
def demo_table():
    """Branching greedoid of the three-edge demo rooted tree: the ranks are
    (0, 1, 0, 2, 1, 2, 1, 3) in mask order over labels a, b, c."""
    return branching_greedoid(demo_rooted_tree())

