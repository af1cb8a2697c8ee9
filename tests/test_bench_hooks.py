"""The benchmark's traced run (perfbench/tracing.py) rebinds library
functions by name: every name it lists must still name a function of its
layer, or a rename would silently drop that layer from the traced figures."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced():
    """TRACED of perfbench/tracing.py, loaded from its file as it is."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_is_a_function_of_its_layer():
    traced = _traced()
    assert traced
    for layer, name, counters in traced:
        module = importlib.import_module(f"rankdual.{layer}")
        assert inspect.isfunction(getattr(module, name, None)), f"rankdual.{layer}.{name}"
        assert all(map(callable, counters.values())), f"{layer}.{name}"
