"""Pinned pickle codec for cross-process payloads.

The fault-isolated pool (:mod:`repro.resilience.pool`) moves payloads and
results between the supervisor and its workers through pipes and queues.
:func:`dumps` / :func:`loads` pickle with the protocol pinned to
``pickle.HIGHEST_PROTOCOL``.  Every byte the pool puts on a pipe or queue
goes through these two functions, so no message silently falls back to
the (slower, fatter) default protocol.
"""

from __future__ import annotations

import pickle

#: The pickle protocol every cross-process payload is encoded with.
PROTOCOL = pickle.HIGHEST_PROTOCOL


def dumps(obj: object) -> bytes:
    """Pickle *obj* with the pinned wire protocol."""
    return pickle.dumps(obj, protocol=PROTOCOL)


def loads(data: bytes) -> object:
    """Inverse of :func:`dumps`."""
    return pickle.loads(data)
