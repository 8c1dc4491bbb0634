"""The user's local view of an execution.

Sensing functions (Section 3 of the paper) are "predicates of the history of
the portion of the system visible to the user" — the user sees its own
states and the messages it sent and received, *never* the server's or the
world's internal state.  :class:`UserView` packages exactly that surface, so
that a sensing function physically cannot depend on hidden information: the
type system enforces the paper's information constraint.
"""

from __future__ import annotations

from typing import Any, Iterator, List, NamedTuple, Optional, Sequence

from repro.comm.messages import UserInbox, UserOutbox, value_type


@value_type
class ViewRecord(NamedTuple):
    """What the user experienced during one round.

    ``state_before`` is the user's state entering the round; ``inbox`` what
    it read; ``outbox`` what it emitted; ``state_after`` the resulting state.
    Built every round by the universal users, so it is a NamedTuple value
    type like the message profiles (see :mod:`repro.comm.messages`).
    """

    round_index: int
    state_before: Any
    inbox: UserInbox
    outbox: UserOutbox
    state_after: Any


class UserView:
    """An append-only sequence of :class:`ViewRecord`.

    The universal users maintain one view per *trial* (i.e., restarted from
    empty whenever they switch inner strategies), because a sensing verdict
    should judge the current strategy, not the wreckage of abandoned ones.
    The engine also maintains a whole-execution view for post-hoc analysis.
    """

    def __init__(self, records: Optional[Sequence[ViewRecord]] = None) -> None:
        self._records: List[ViewRecord] = list(records) if records else []

    def append(self, record: ViewRecord) -> None:
        """Add the latest round's record."""
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ViewRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> ViewRecord:
        return self._records[index]

    def __eq__(self, other: object) -> bool:
        """Structural equality: same rounds seen, same retained records.

        Views compare by content, not identity, so two executions of the
        same cast/seed have *equal* results — the property the batch and
        serve parity suites assert end to end.  Comparing ``len`` (total
        rounds, which for bounded views exceeds the retained count) keeps
        a bounded view distinct from a truncated full view.
        """
        if not isinstance(other, UserView):
            return NotImplemented
        return len(self) == len(other) and tuple(self._records) == tuple(
            other._records
        )

    __hash__ = None  # type: ignore[assignment]  # mutable container

    @property
    def records(self) -> Sequence[ViewRecord]:
        """Read-only access to the underlying records."""
        return tuple(self._records)

    def last(self) -> Optional[ViewRecord]:
        """The most recent record, or ``None`` for an empty view."""
        return self._records[-1] if self._records else None


class BoundedUserView(UserView):
    """A :class:`UserView` that counts rounds and retains no records.

    The metrics-only recording policy (see
    :class:`~repro.core.execution.RecordingPolicy`) uses this to stop a
    long execution from accumulating one :class:`ViewRecord` per round
    when nothing downstream reads the engine-level history (sensing runs
    on the universal users' own per-trial monitors).  ``len`` reports the
    number of rounds seen; iteration and the record accessors see nothing.
    """

    def __init__(self) -> None:
        super().__init__()
        self._total = 0

    def append(self, record: ViewRecord) -> None:
        """Count the round; the record is not kept."""
        self._total += 1

    def advance(self, rounds: int = 1) -> None:
        """Advance the round count without building a record."""
        self._total += rounds

    def __len__(self) -> int:
        return self._total
