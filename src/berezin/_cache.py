"""Scoped memoization of whole calls.

A parameter sweep evaluates many expressions built from the same handful of
operands.  Inside a `computation_scope()` block, a function decorated with
`scoped` runs once per distinct call.  The key is the function, the dtype,
shape and raw bytes of each positional ndarray argument, and every other
argument by value (so those must be hashable).  A call that raises is not
cached, so the input checks inside a cached function run on every distinct
input.  Outside a scope every call computes from scratch.  Cached values
equal freshly computed ones, so a scope never changes results; callers share
them and must not modify them.  `memoize` fills a scope ahead of the calls,
with results computed together.
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


def memoize(cached, calls, batch) -> None:
    """Inside a computation_scope, memoize the result of cached(*args) for
    each distinct argument tuple of `calls` not memoized yet, all computed
    by one batch(list of tuples) -> one result per tuple.  A result that is
    an exception is not memoized, so that call raises when made.  `cached`
    is a `scoped` function called with positional arguments only; outside a
    scope nothing happens."""
    table = _scope.get()
    if table is None:
        return
    todo = {}
    for args in calls:
        key = (cached.__wrapped__, *map(_key, args))
        if key not in table:
            todo.setdefault(key, args)
    if todo:
        for key, result in zip(todo, batch(list(todo.values()))):
            if not isinstance(result, Exception):
                table[key] = result
