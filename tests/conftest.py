import pytest

from rankdual import GroundSet, branching_greedoid, demo_rooted_tree, table_from_values


def make_table(labels, values):
    return table_from_values(GroundSet(tuple(labels)), values)


@pytest.fixture
def demo_table():
    """Branching greedoid of the three-edge demo rooted tree: the ranks are
    (0, 1, 0, 2, 1, 2, 1, 3) in mask order over labels a, b, c."""
    return branching_greedoid(demo_rooted_tree())


@pytest.fixture
def recording_pool(monkeypatch):
    """Stand in for the process pool with one that runs its tasks in this
    process. The returned list gets (max_workers, task count) per map call."""
    import concurrent.futures

    calls = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            calls.append((self.max_workers, len(tasks)))
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return calls
