"""Global states (Section 2 of the paper).

A *global state* consists of a local state for each of the ``n`` processes
plus a local state for the *environment* ``e``, which captures everything
else relevant to the system: messages in transit, shared registers, the set
of processes recorded as failed, and so on.

Process identifiers are ``0 .. n-1`` (the paper uses ``1 .. n``; we use the
Pythonic 0-based convention uniformly, including in environment actions).

States are immutable and hashable so they can serve as vertices in the
similarity and valence graphs and as memoization keys for the valence
analyzer.  Local states and environment states must themselves be hashable;
all model substrates in this library use tuples and frozensets.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True, slots=True)
class GlobalState:
    """An element of ``G = L_e x L_1 x ... x L_n``.

    Attributes:
        env: the environment's local state ``x_e``.
        locals: a tuple of process local states, ``locals[i] = x_i``.
    """

    env: Hashable
    locals: tuple[Hashable, ...] = field(default=())
    _hash: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.locals, tuple):
            object.__setattr__(self, "locals", tuple(self.locals))

    def __hash__(self) -> int:
        # Hashed on first use, then cached: a layer fold builds one state
        # per layer endpoint, and only the states that become dict keys
        # (visited sets, memo tables, BFS parents) pay for hashing.  The
        # cache is excluded from __eq__ (compare=False), so equality is
        # still structural.
        cached = self._hash
        if cached is None:
            cached = hash((self.env, self.locals))
            object.__setattr__(self, "_hash", cached)
        return cached

    # A hash is only valid in the interpreter that computed it (``str``
    # hashes are salted per process, and before Python 3.12 ``hash(None)``
    # is derived from an address), so a state pickles as its constructor
    # call and is rebuilt with an empty cache.  ``__reduce__`` rather than
    # ``__getstate__``: a slots dataclass on some Python versions replaces
    # a class-body ``__getstate__``/``__setstate__`` with its own.
    def __reduce__(self) -> tuple:
        return (GlobalState, (self.env, self.locals))

    @property
    def n(self) -> int:
        """Number of processes in the state."""
        return len(self.locals)

    def local(self, i: int) -> Hashable:
        """The local state ``x_i`` of process *i*."""
        return self.locals[i]

    def replace_local(self, i: int, new_local: Hashable) -> "GlobalState":
        """A copy of this state with process *i*'s local state replaced."""
        if not 0 <= i < self.n:
            raise IndexError(f"process {i} out of range 0..{self.n - 1}")
        updated = self.locals[:i] + (new_local,) + self.locals[i + 1 :]
        return GlobalState(self.env, updated)

    def replace_locals(
        self, updates: dict[int, Hashable] | Iterable[tuple[int, Hashable]]
    ) -> "GlobalState":
        """A copy with several process local states replaced at once."""
        items = dict(updates)
        new_locals = list(self.locals)
        for i, new_local in items.items():
            if not 0 <= i < self.n:
                raise IndexError(f"process {i} out of range 0..{self.n - 1}")
            new_locals[i] = new_local
        return GlobalState(self.env, tuple(new_locals))

    def replace_env(self, env: Hashable) -> "GlobalState":
        """A copy of this state with the environment's state replaced."""
        return GlobalState(env, self.locals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GlobalState(env={self.env!r}, locals={self.locals!r})"


def _drop_hash_setstate(self: GlobalState, state) -> None:
    """Load the ``[env, locals, _hash]`` state older versions pickled,
    dropping its stale hash."""
    object.__setattr__(self, "env", state[0])
    object.__setattr__(self, "locals", state[1])
    object.__setattr__(self, "_hash", None)


# Set after the class body, where the dataclass decorator cannot replace
# it with its own field-restoring ``__setstate__``; ``setattr`` because
# type checkers do not see the decorator's method.
setattr(GlobalState, "__setstate__", _drop_hash_setstate)  # noqa: B010


class StateFacts(dict):
    """``state -> (failed_at, decisions)``, each read from the system once.

    One table per exploration: the terminal test, the safety predicates,
    the contract checks and every per-process lasso pass look a state up
    here instead of asking the system again.  A resumed exploration starts
    with an empty table and refills it as states come up.
    """

    def __init__(self, system) -> None:
        super().__init__()
        self._system = system

    def __missing__(
        self, state: GlobalState
    ) -> tuple[frozenset[int], dict[int, Hashable]]:
        facts = (self._system.failed_at(state), self._system.decisions(state))
        self[state] = facts
        return facts


def revoked_decision(before: dict, after: dict) -> Optional[str]:
    """How an edge from decisions *before* to *after* breaks write-once
    (the first decision it changed or dropped); None when it does not."""
    for i, v in before.items():
        if after.get(i) != v:
            return (
                f"process {i}'s decision changed from {v!r} to "
                f"{after.get(i)!r}"
            )
    return None


def agree_modulo(x: GlobalState, y: GlobalState, j: int) -> bool:
    """True iff *x* and *y* agree modulo process *j* (Section 2).

    Two states agree modulo ``j`` when their environment states are equal
    and the local states of every process other than ``j`` are equal.  The
    local state of ``j`` itself may or may not differ.
    """
    if x.n != y.n:
        return False
    if x.env != y.env:
        return False
    return all(x.locals[i] == y.locals[i] for i in range(x.n) if i != j)


def differing_processes(x: GlobalState, y: GlobalState) -> frozenset[int]:
    """The set of processes whose local states differ between *x* and *y*.

    Raises ``ValueError`` if the states have different process counts.
    The environment is not included; check ``x.env == y.env`` separately.
    """
    if x.n != y.n:
        raise ValueError("states have different numbers of processes")
    return frozenset(i for i in range(x.n) if x.locals[i] != y.locals[i])


def agreement_witnesses(x: GlobalState, y: GlobalState) -> frozenset[int]:
    """All processes *j* such that *x* and *y* agree modulo *j*.

    Empty when the environments differ or when two or more processes'
    local states differ.  When ``x == y`` every process is a witness.
    """
    if x.n != y.n or x.env != y.env:
        return frozenset()
    diff = differing_processes(x, y)
    if len(diff) == 0:
        return frozenset(range(x.n))
    if len(diff) == 1:
        return diff
    return frozenset()
