"""Span tracer installed from outside the berezin package.

`Tracer.install()` wraps the public functions of the layer modules (plus a
few private boundaries named below) and rebinds every name that refers to
them in the package's modules, e.g. `inequalities.positive_power`,
`calc.normalized_kernel` and `fuzz.check`.  It also wraps
`numpy.linalg.eigh` / `eigvalsh` and mpmath's `eighe`, so each eigensolve is
a span whose parent tells which layer asked for it.  `uninstall()` restores
every original binding.

Spans live in flat in-memory arrays (name id, parent index, start, end in
ns) and are written out once, by `save()`, after the traced work.  A span's
self time is its duration minus the time covered by its direct children.
"""

from __future__ import annotations

import csv
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("fuzz", "inequalities", "linalg", "calc", "models", "io", "cli")
# Private functions that mark a layer boundary the metrics need.
PRIVATE = {
    ("inequalities", "_validated_operands"): "inequalities.validate",
    ("fuzz", "_csv_row"): "fuzz.csv",
}


class _CsvProxy:
    """Stands in for the csv module inside berezin.fuzz; traces row writes."""

    def __init__(self, tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(csv, name)

    def writer(self, fh, *args, **kwargs):
        return _TracedWriter(csv.writer(fh, *args, **kwargs), self._tracer)


class _TracedWriter:
    def __init__(self, writer, tracer):
        self._writer = writer
        self.writerow = tracer.wrap("fuzz.csv", writer.writerow)

    def __getattr__(self, name):
        return getattr(self._writer, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._undo: list[tuple] = []
        # computed byte counts and per-span facts recorded from call arguments
        self.kernel_matrix_bytes = 0
        self.pair_matrix_bytes = 0
        self.continuous_sup_spans: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, observe=None):
        nid = self._intern(name)
        stack, now = self._stack, time.perf_counter_ns
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            if observe is not None:
                observe(idx, args, kwargs)
            stack.append(idx)
            start.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = now()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation -----------------------------------------------------------
    def _setattr(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, obj.__dict__.get(attr, _MISSING)))
        setattr(obj, attr, value)

    def install(self) -> None:
        import berezin  # noqa: F401  (loads every layer module)
        import berezin.cli  # noqa: F401
        import mpmath

        models = sys.modules["berezin.models"]

        def grid_points(level):
            return 1 + models.BASE_ANGLES * models.BASE_RADII * 4 ** level
        norm_level = inspect.signature(sys.modules["berezin.calc"].berezin_norm).parameters["level"].default

        def sup_observer(idx, args, kwargs):
            if not args[0].is_finite_kind:
                self.continuous_sup_spans.append(idx)

        def norm_observer(idx, args, kwargs):
            sup_observer(idx, args, kwargs)
            if not args[0].is_finite_kind:
                level = kwargs.get("level", args[2] if len(args) > 2 else norm_level)
                self.pair_matrix_bytes = max(self.pair_matrix_bytes, 16 * grid_points(level) ** 2)

        def kmat_observer(idx, args, kwargs):
            self.kernel_matrix_bytes += 16 * args[0].dimension * len(args[1])

        observers = {
            "calc.berezin_number": sup_observer,
            "calc.berezin_norm": norm_observer,
            "models.kernel_matrix": kmat_observer,
        }
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"berezin.{layer}"]
            for attr, val in vars(mod).items():
                public = not attr.startswith("_")
                special = PRIVATE.get((layer, attr))
                if not (public or special) or not inspect.isfunction(val):
                    continue
                if val.__module__ != mod.__name__:
                    continue
                name = special or f"{layer}.{attr}"
                wrapped[val] = self.wrap(name, val, observers.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname != "berezin" and not modname.startswith("berezin."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._setattr(mod, attr, wrapped[val])
        self._setattr(sys.modules["berezin.fuzz"], "csv", _CsvProxy(self))
        for fname in ("eigh", "eigvalsh"):
            self._setattr(np.linalg, fname, self.wrap(f"numpy.{fname}", getattr(np.linalg, fname)))
        self._setattr(mpmath.mp, "eighe", self.wrap("mpmath.eighe", mpmath.mp.eighe))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)

    # -- results ------------------------------------------------------------------
    def arrays(self):
        return (np.array(self.name_id, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=np.int64), np.array(self.end, dtype=np.int64))

    def summary(self) -> dict:
        """Per span name: calls and self seconds; plus the sum of all self times."""
        names, parent, start, end = self.arrays()
        dur = (end - start).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            out[name] = {
                "calls": int(sel.sum()),
                "self_s": float(self_ns[sel].sum()) / 1e9,
            }
        out["_self_total_s"] = float(self_ns.sum()) / 1e9
        return out

    def by_parent(self, child_name: str) -> dict:
        """For spans named `child_name`: {parent span name: (count, seconds)}."""
        names, parent, start, end = self.arrays()
        out: dict = {}
        if child_name not in self._ids:
            return out
        sel = np.flatnonzero((names == self._ids[child_name]) & (parent >= 0))
        for i in sel:
            key = self.names[names[parent[i]]]
            count, secs = out.get(key, (0, 0.0))
            out[key] = (count + 1, secs + (end[i] - start[i]) / 1e9)
        return out

    def parents_of(self, child_name: str) -> set:
        """Indices of spans that have a direct child named `child_name`."""
        names, parent, _, _ = self.arrays()
        if child_name not in self._ids:
            return set()
        sel = (names == self._ids[child_name]) & (parent >= 0)
        return set(parent[sel].tolist())

    def save(self, path) -> None:
        names, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=names, parent=parent,
                            start_ns=start, end_ns=end)


_MISSING = object()
