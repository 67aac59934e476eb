"""Interrupt a search at a chosen call: the k-th-call injection.

:func:`trap` replaces one method or function for the length of a
``with`` block.  The replacement counts its calls and raises
``KeyboardInterrupt`` from the *at*-th one, as a Ctrl-C (or the SIGTERM
the CLI turns into one) would if it landed at that moment.  Counting
with ``at=None`` tells a test how many interrupt points a run has.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager

_MISSING = object()


class Calls:
    """How many calls the trapped callable has seen."""

    count = 0


@contextmanager
def trap(owner, name: str, at: int | None = None):
    """Count the calls of ``owner.name`` in the block and raise
    ``KeyboardInterrupt`` from call number *at* (1-based; None: never).

    Static methods stay static, and an inherited attribute is removed
    again afterwards rather than pinned on *owner*.
    """
    raw = inspect.getattr_static(owner, name)
    static = isinstance(raw, staticmethod)
    func = raw.__func__ if static else getattr(owner, name)
    calls = Calls()

    def counted(*args, **kwargs):
        calls.count += 1
        if calls.count == at:
            raise KeyboardInterrupt
        return func(*args, **kwargs)

    saved = vars(owner).get(name, _MISSING)
    setattr(owner, name, staticmethod(counted) if static else counted)
    try:
        yield calls
    finally:
        if saved is _MISSING:
            delattr(owner, name)
        else:
            setattr(owner, name, saved)
