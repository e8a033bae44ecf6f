"""Scoped memoization of whole calls.

A parameter sweep evaluates many expressions built from the same handful of
operands.  Inside a `computation_scope()` block, a function decorated with
`scoped` runs once per distinct call.  The key is the function, the dtype,
shape and raw bytes of each positional ndarray argument, and every other
argument by value (so those must be hashable).  A call that raises is not
cached, so the input checks inside a cached function run on every distinct
input.  Outside a scope every call computes from scratch.  Cached values
equal freshly computed ones, so a scope never changes results; callers share
them and must not modify them.
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


def _key(x):
    return (x.dtype.str, x.shape, x.tobytes()) if isinstance(x, np.ndarray) else x


def scoped(fn):
    """Memoize whole calls of `fn` inside a computation_scope()."""

    @functools.wraps(fn)
    def cached(*args, **kwargs):
        table = _scope.get()
        if table is None:
            return fn(*args, **kwargs)
        key = (fn, *map(_key, args), *kwargs.items())
        if key not in table:
            table[key] = fn(*args, **kwargs)
        return table[key]

    return cached
