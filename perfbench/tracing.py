"""In-memory spans around the public functions of each rankdual layer.

The tracer measures the library from outside: it rebinds the traced
functions in every loaded ``rankdual`` module namespace to timing wrappers,
so calls between layers (``verify`` calling ``ops.dual``, ``structures``
calling ``axioms.check_antimatroid``) are seen too. Nothing under ``src/``
is changed and ``uninstall`` restores the original bindings.

A span is ``[name_id, start_ns, end_ns, parent, counters]``: ``name_id``
indexes the tracer's name table, ``parent`` is the index of the enclosing
span or -1, and ``counters`` holds the counts taken at that call (or None).
Spans stay in memory until ``dump`` writes them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time


def _table_size(args, result):
    return args[0].ground.size


def _result_size(args, result):
    return result.ground.size


def _terms(args, result):
    return len(result.terms)


# (layer, function, {counter: function(args, result) -> int}).
# ``subsets_computed`` is 2**n of the table the call scans, worked out from
# the input size; the functions themselves are not instrumented.
TRACED = (
    ("core", "validate", {"subsets_computed": _table_size}),
    ("core", "table_from_values", {}),
    ("ops", "dual", {"subsets_computed": _table_size}),
    ("ops", "delete", {}),
    ("ops", "contract", {}),
    ("ops", "minor", {}),
    ("tutte", "tutte_subset", {"subsets_computed": _table_size, "terms": _terms}),
    ("tutte", "tutte_recursive", {"subsets_computed": _table_size, "terms": _terms}),
    ("axioms", "check_greedoid", {"subsets_computed": _table_size}),
    ("axioms", "check_dual_greedoid", {"subsets_computed": _table_size}),
    ("axioms", "check_antimatroid", {"subsets_computed": _table_size}),
    ("axioms", "check_matroid", {"subsets_computed": _table_size}),
    ("axioms", "check_demimatroid_characterization", {"subsets_computed": _table_size}),
    ("structures", "branching_greedoid", {"subsets_computed": _result_size}),
    ("structures", "pruning_antimatroid", {"subsets_computed": _result_size}),
    ("structures", "uniform_matroid", {"subsets_computed": _result_size}),
    ("structures", "convex_closure", {"subsets_computed": _table_size}),
    ("documents", "parse_document", {}),
    ("documents", "dump_rank_table", {}),
    ("verify", "all_trees", {}),
    ("verify", "all_rooted_graphs", {}),
    ("verify", "enumerate_tables", {}),
)


class Tracer:
    """Collects spans and per-span counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start_ns, end_ns, parent, counters]
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._name_id(name), time.perf_counter_ns(), 0, parent, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, counters: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        if counters:
            span[4] = counters
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def _wrap(self, name, fn, counters):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # Time only the work done inside next(); the span covers the
            # whole iteration and ``busy_ns`` is what the generator itself cost.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                idx = tracer.begin(name)
                tracer._stack.pop()
                busy = 0
                items = 0
                it = fn(*args, **kwargs)
                try:
                    while True:
                        tracer._stack.append(idx)
                        t0 = time.perf_counter_ns()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            busy += time.perf_counter_ns() - t0
                            tracer._stack.pop()
                        items += 1
                        yield item
                finally:
                    span = tracer.spans[idx]
                    span[2] = time.perf_counter_ns()
                    span[4] = {"busy_ns": busy, "items": items}

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                counts = None
                if counters and result is not None:
                    counts = {key: f(args, result) for key, f in counters.items()}
                if isinstance(result, list):
                    counts = dict(counts or {}, items=len(result))
                tracer.end(idx, counts)

        return wrapper

    def install(self) -> None:
        """Rebind every traced function in every loaded rankdual module."""
        modules = [m for key, m in sys.modules.items() if key == "rankdual" or key.startswith("rankdual.")]
        for layer, fn_name, counters in TRACED:
            original = getattr(importlib.import_module(f"rankdual.{layer}"), fn_name)
            wrapper = self._wrap(f"{layer}.{fn_name}", original, counters)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def export(self) -> dict:
        return {"names": self.names, "spans": self.spans}


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.counters: dict = {}

    def __enter__(self) -> "_Span":
        self.idx = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc) -> bool:
        self.tracer.end(self.idx, self.counters or None)
        return False


def summarize(exports) -> dict:
    """Sum span time (seconds), call counts and counters per span name.

    ``exports`` are ``Tracer.export()`` results, possibly from several
    processes. Generator spans count their busy time, not their lifetime.
    """
    out: dict = {}
    for export in exports:
        names = export["names"]
        for name_id, start, end, _parent, counters in export["spans"]:
            name = names[name_id]
            entry = out.setdefault(name, {"s": 0.0, "calls": 0})
            busy = counters.get("busy_ns") if counters else None
            entry["s"] += (busy if busy is not None else end - start) / 1e9
            entry["calls"] += 1
            if counters:
                for key, value in counters.items():
                    if key != "busy_ns":
                        entry[key] = entry.get(key, 0) + value
    return out


def dump(path: str, record: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, separators=(",", ":"))
