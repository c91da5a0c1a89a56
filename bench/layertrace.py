"""Outside-in layer tracing of the mortforecast package.

Every public function of the ten modules (the names in each module's
``__all__`` that the module itself defines) is wrapped, and the wrapper
is bound in place of the original at every module attribute that refers
to it, e.g. ``mortforecast.fdm.smooth_surface`` and
``mortforecast.cli.fit_fdm``. Calls made through those bindings record a
span: name, start, end, parent span and op id. The program's source is
not touched; detaching restores the original bindings.

Spans are kept in flat arrays in memory and written out once, at the
end of a run. A span's self time is its duration minus the durations of
its direct children; the self times of one op add up to the duration of
its root span (``cli.main``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "mortforecast"
LAYERS = ("cli", "ingest", "smoothing", "numerics", "fdm", "tsforecast",
          "lifetable", "leecarter", "evaluate", "svgchart")


def _bound(fn, args, kwargs, name):
    sig = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


# Work counts read from a call's arguments or result: span name ->
# (counter name, amount(fn, args, kwargs, result)).
AMOUNTS = {
    "ingest.parse_hmd_rates": ("ingest.rows", lambda fn, a, k, r: len(r)),
    "smoothing.choose_lambda": (
        "smoothing.gcv_evals",
        lambda fn, a, k, r: len(_bound(fn, a, k, "config").lambda_grid)),
    "fdm.bootstrap_intervals": (
        "fdm.replicates", lambda fn, a, k, r: int(_bound(fn, a, k, "B"))),
}


class LayerTracer:
    """Records spans for calls into the package's public functions."""

    def __init__(self):
        self.names: list[str] = []
        self._name_col = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.op = -1
        self.amounts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._patches = self._find_bindings()

    def _find_bindings(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")
        patches = []
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    patches.append((module, attr, value, wrappers[value]))
        return patches

    def _wrap(self, fn, name):
        name_id = len(self.names)
        self.names.append(name)
        amount = AMOUNTS.get(name)
        stack, perf = self._stack, time.perf_counter
        name_col, parent_col, op_col = self._name_col, self._parent, self._op
        start_col, end_col = self._start, self._end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start_col)
            name_col.append(name_id)
            parent_col.append(stack[-1] if stack else -1)
            op_col.append(self.op)
            start_col.append(0.0)
            end_col.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                start_col[idx] = t0
                end_col[idx] = t1
            if amount is not None:
                key, count = amount
                self.amounts[self.op][key] += count(fn, args, kwargs, result)
            return result

        return traced

    @property
    def binding_count(self) -> int:
        return len(self._patches)

    @contextlib.contextmanager
    def attached(self, op: int):
        """Trace calls made inside the block, tagged with ``op``."""
        self.op = op
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)
            self._stack.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name_col, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self._op, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def write(self, path: str) -> None:
        """Write every span recorded so far to a compressed ``.npz``."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def load(path: str) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def op_breakdown(spans: dict[str, np.ndarray]) -> dict[int, dict]:
    """Per op: self seconds by layer, inclusive seconds and call count by
    span name, and the root span's duration."""
    names = [str(n) for n in spans["names"]]
    layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names], dtype=int)
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                             minlength=len(duration))
    self_time = duration - child_time
    out = {}
    for op in np.unique(spans["op"]):
        sel = spans["op"] == op
        name_ids = spans["name"][sel]
        layer_self = np.bincount(layer_of[name_ids], weights=self_time[sel],
                                 minlength=len(LAYERS))
        inclusive = np.bincount(name_ids, weights=duration[sel], minlength=len(names))
        calls = np.bincount(name_ids, minlength=len(names))
        roots = sel & ~has_parent
        out[int(op)] = {
            "self_s": {layer: float(layer_self[i]) for i, layer in enumerate(LAYERS)},
            "inclusive_s": {n: float(inclusive[i]) for i, n in enumerate(names) if calls[i]},
            "calls": {n: int(calls[i]) for i, n in enumerate(names) if calls[i]},
            "root_s": float(duration[roots].sum()),
        }
    return out
