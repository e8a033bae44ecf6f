"""Scoped memoization of whole calls, the package's one memo mechanism.

A parameter sweep evaluates many expressions built from the same handful of
operands.  Inside a `computation_scope()` block, a function decorated with
`scoped` runs once per distinct call.  The key is the function, the dtype,
shape and raw bytes of each positional ndarray argument, and every other
argument by value (so those must be hashable).  A call that raises is not
cached, so the input checks inside a cached function run on every distinct
input.  Outside a scope every call computes from scratch.  Cached values
equal freshly computed ones, so a scope never changes results; callers share
them, and every array among them is read-only.  In `linalg` the eigensystems
and the powers |A|^p and H^p are cached, in `models` the kernel matrices,
and in `fuzz` the operand draws of a campaign trial.  The Berezin numbers,
norms and numerical radii in `calc` are not: their disk searches are
deduplicated within one batch instead (`calc._searches`).
"""

from __future__ import annotations

import contextlib
import functools
from contextvars import ContextVar

import numpy as np

_scope: ContextVar[dict | None] = ContextVar("berezin_memo_scope", default=None)


@contextlib.contextmanager
def computation_scope():
    """Enable memoization for the duration of the block."""
    token = _scope.set({})
    try:
        yield
    finally:
        _scope.reset(token)


def array_key(x):
    """x's memo key part: dtype, shape and raw bytes for an ndarray, else x."""
    return (x.dtype.str, x.shape, x.tobytes()) if isinstance(x, np.ndarray) else x


def scoped(fn):
    """Memoize whole calls of `fn` inside a computation_scope()."""

    @functools.wraps(fn)
    def cached(*args, **kwargs):
        table = _scope.get()
        if table is None:
            return fn(*args, **kwargs)
        key = (fn, *map(array_key, args), *kwargs.items())
        if key not in table:
            table[key] = fn(*args, **kwargs)
        return table[key]

    return cached

