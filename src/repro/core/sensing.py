"""Sensing: the user's feedback about its own progress.

Section 3 of the paper introduces *sensing* — "predicates of the history of
the portion of the system visible to the user" — as the resource that makes
universal communication possible.  A :class:`Sensing` object maps a
:class:`~repro.core.views.UserView` to a Boolean indication; ``True`` is a
*positive* indication (things look fine), ``False`` a *negative* one (the
current strategy is failing).

The value of a sensing function is captured by two properties, *safety* and
*viability*, defined relative to a goal and a server class; the empirical
checkers for those properties live in :mod:`repro.core.properties`.  This
module provides the interface plus combinators that concrete goals use to
assemble their sensing from world feedback.

One form: the monitor
---------------------
Safety and viability are statements about the verdict on *every prefix* of
the view — exactly the sequence a per-record monitor computes.  So the
monitor is the one definition of a sensing: :meth:`Sensing.incremental`
returns a fresh :class:`IncrementalSensing` whose ``observe(record)``
consumes the next :class:`~repro.core.views.ViewRecord` and returns the
indication on the prefix seen so far.  :meth:`Sensing.indicate` is derived,
once, as a fold of a fresh monitor over a whole view, so the whole-view and
per-round readings cannot drift apart.  Every sensing shipped here observes
in O(1) time and memory per round.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Tuple

from repro.core.views import UserView, ViewRecord
from repro.obs.events import GraceSuppressed
from repro.obs.tracer import TracerLike, is_tracing


class IncrementalSensing:
    """A stateful, per-trial monitor: the definition of some :class:`Sensing`.

    ``observe`` must be fed every record of a trial view, in order, and
    returns the indication for the prefix seen so far; ``empty`` is the
    indication on the empty view.  Monitors are single-trial: start a fresh
    one (via :meth:`Sensing.incremental`) whenever the view they judge
    restarts.
    """

    #: The indication before any record is observed.
    empty: bool

    def observe(self, record: ViewRecord) -> bool:
        """Consume one new round's record; return the current indication."""
        raise NotImplementedError

    def _state(self) -> Tuple[object, ...]:
        """Every slot value, MRO order — the monitor's structural content."""
        names: List[str] = []
        for klass in type(self).__mro__:
            names.extend(getattr(klass, "__slots__", ()))
        return tuple(getattr(self, name) for name in names)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same monitor type, same slot contents.

        Universal-user states embed their monitors, and the serve/batch
        parity suites compare those states structurally — two runs of the
        same cast/seed must produce *equal* states, not merely equivalent
        ones.  Subclasses keep all state in ``__slots__``, so comparing
        slot tuples compares the full progress of the monitor.
        """
        if type(other) is not type(self):
            return NotImplemented
        return self._state() == other._state()

    __hash__ = None  # type: ignore[assignment]  # mutable monitor


class Sensing:
    """A Boolean feedback function over the user's local view."""

    def incremental(self) -> IncrementalSensing:
        """A fresh monitor — the one method a sensing implements."""
        raise NotImplementedError

    def indicate(self, view: UserView) -> bool:
        """The indication on ``view``: a fresh monitor folded over it."""
        monitor = self.incremental()
        verdict = monitor.empty
        for record in view:
            verdict = monitor.observe(record)
        return verdict

    @property
    def name(self) -> str:
        return type(self).__name__

    def negate(self) -> "Sensing":
        """The pointwise negation (used to build deliberately unsafe sensing)."""
        return _Negation(self)

    def __repr__(self) -> str:
        return f"<Sensing {self.name}>"


@dataclass(frozen=True)
class ConstantSensing(Sensing):
    """Always returns the same indication.

    ``ConstantSensing(True)`` is the degenerate, maximally *unsafe* sensing
    (never flags a failing strategy); ``ConstantSensing(False)`` is the
    maximally *non-viable* one (never endorses a working strategy).  Both
    appear in the ablation experiment E6.
    """

    value: bool

    @property
    def name(self) -> str:
        return "always-positive" if self.value else "always-negative"

    def incremental(self) -> IncrementalSensing:
        return _ConstantIncremental(self.value)


class _ConstantIncremental(IncrementalSensing):
    __slots__ = ("empty",)

    def __init__(self, value: bool) -> None:
        self.empty = value

    def observe(self, record: ViewRecord) -> bool:
        return self.empty  # Every prefix reads as the empty one.


@dataclass(frozen=True)
class _Negation(Sensing):
    inner: Sensing

    @property
    def name(self) -> str:
        return f"not({self.inner.name})"

    def incremental(self) -> IncrementalSensing:
        return _NegationIncremental(self.inner.incremental())


class _NegationIncremental(IncrementalSensing):
    __slots__ = ("_inner", "empty")

    def __init__(self, inner: IncrementalSensing) -> None:
        self._inner = inner
        self.empty = not inner.empty

    def observe(self, record: ViewRecord) -> bool:
        return not self._inner.observe(record)


@dataclass(frozen=True)
class LastWorldMessageSensing(Sensing):
    """Judges the most recent non-silent message from the world.

    Many goals route ground-truth feedback through the world (the printer
    reports what it printed; the control world scores the last action).
    ``default`` is the indication used before any world message arrives —
    positive by default so a strategy is not condemned before it acted.
    """

    predicate: Callable[[str], bool]
    default: bool = True
    label: str = "last-world-msg"

    @property
    def name(self) -> str:
        return self.label

    def incremental(self) -> IncrementalSensing:
        return _LastWorldMessageIncremental(self.predicate, self.default)


class _LastWorldMessageIncremental(IncrementalSensing):
    """Judges each world message as it arrives; silence keeps the verdict."""

    __slots__ = ("_predicate", "_verdict", "empty")

    def __init__(self, predicate: Callable[[str], bool], default: bool) -> None:
        self._predicate = predicate
        self._verdict = self.empty = default

    def observe(self, record: ViewRecord) -> bool:
        message = record.inbox.from_world
        if message:
            self._verdict = bool(self._predicate(message))
        return self._verdict


@dataclass(frozen=True)
class GraceSensing(Sensing):
    """Wraps another sensing with an initial grace period.

    During the first ``grace_rounds`` of a trial the indication is positive
    regardless of the inner sensing; afterwards the inner verdict applies.
    Universal users need this when feedback is delayed by the two-round
    message latency of the synchronous model — without a grace period they
    would condemn every strategy before its first action could possibly be
    scored.

    When a :mod:`repro.obs` tracer is attached (``with_tracer``), each
    round where the grace window overrides a *negative* inner verdict
    emits a :class:`~repro.obs.events.GraceSuppressed` event — the exact
    feedback the grace ablation (E6) gives up.  ``indicate`` folds a fresh
    monitor, so it reports every suppressed round of the view it is given.
    """

    inner: Sensing
    grace_rounds: int = 4
    tracer: TracerLike = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.grace_rounds < 0:
            raise ValueError(f"grace_rounds must be >= 0: {self.grace_rounds}")

    @property
    def name(self) -> str:
        return f"grace({self.grace_rounds},{self.inner.name})"

    def with_tracer(self, tracer: TracerLike) -> "GraceSensing":
        """A copy of this sensing reporting suppressions to ``tracer``."""
        return replace(self, tracer=tracer)

    def incremental(self) -> IncrementalSensing:
        return _GraceIncremental(self, self.inner.incremental())


class _GraceIncremental(IncrementalSensing):
    """Counts the trial's rounds; the inner monitor sees every record."""

    __slots__ = ("_sensing", "_inner", "_seen")
    empty = True  # The empty view lies inside every grace window.

    def __init__(self, sensing: GraceSensing, inner: IncrementalSensing) -> None:
        self._sensing = sensing
        self._inner = inner
        self._seen = 0

    def observe(self, record: ViewRecord) -> bool:
        self._seen += 1
        verdict = self._inner.observe(record)
        if self._seen <= self._sensing.grace_rounds:
            if not verdict and is_tracing(self._sensing.tracer):
                self._sensing.tracer.emit(
                    GraceSuppressed(
                        round_index=self._seen - 1,
                        grace_rounds=self._sensing.grace_rounds,
                    )
                )
            return True
        return verdict


@dataclass(frozen=True)
class AllOfSensing(Sensing):
    """Positive iff every component is positive."""

    parts: Tuple[Sensing, ...]

    @property
    def name(self) -> str:
        return "all(" + ",".join(p.name for p in self.parts) + ")"

    def incremental(self) -> IncrementalSensing:
        return _CombinatorIncremental([p.incremental() for p in self.parts], all)


@dataclass(frozen=True)
class AnyOfSensing(Sensing):
    """Positive iff at least one component is positive."""

    parts: Tuple[Sensing, ...]

    @property
    def name(self) -> str:
        return "any(" + ",".join(p.name for p in self.parts) + ")"

    def incremental(self) -> IncrementalSensing:
        return _CombinatorIncremental([p.incremental() for p in self.parts], any)


class _CombinatorIncremental(IncrementalSensing):
    """Advances *every* component monitor, then combines.

    No short-circuiting: each component's state must track the full record
    stream, and a traced grace component reports its suppressions even
    when an earlier component already decided the verdict.
    """

    __slots__ = ("_monitors", "_combine", "empty")

    def __init__(
        self,
        monitors: List[IncrementalSensing],
        combine: Callable[[List[bool]], bool],
    ) -> None:
        self._monitors = monitors
        self._combine = combine
        self.empty = combine([monitor.empty for monitor in monitors])

    def observe(self, record: ViewRecord) -> bool:
        return self._combine([monitor.observe(record) for monitor in self._monitors])


@dataclass(frozen=True)
class NoRecentProgressSensing(Sensing):
    """Negative when the world has been silent for too long.

    A weak, generic sensing usable when the world offers no semantic
    feedback: it only detects *stalls*.  It is safe for goals where any
    progress is reflected in world chatter, and it is the best one can do in
    the feedback-free printer variant of experiment E9 — where it is
    provably not viable, illustrating why Theorem 1's hypotheses matter.
    """

    stall_rounds: int = 8

    def __post_init__(self) -> None:
        if self.stall_rounds < 1:
            raise ValueError(f"stall_rounds must be >= 1: {self.stall_rounds}")

    @property
    def name(self) -> str:
        return f"no-stall({self.stall_rounds})"

    def incremental(self) -> IncrementalSensing:
        return _StallIncremental(self.stall_rounds)


class _StallIncremental(IncrementalSensing):
    """Positive while the last ``stall_rounds`` rounds held a message.

    Remembers the last active round, with round 0 counting as activity, so
    a view shorter than ``stall_rounds`` is never a stall.
    """

    __slots__ = ("_stall_rounds", "_rounds", "_last_activity")
    empty = True

    def __init__(self, stall_rounds: int) -> None:
        self._stall_rounds = stall_rounds
        self._rounds = 0
        self._last_activity = 0

    def observe(self, record: ViewRecord) -> bool:
        self._rounds += 1
        if record.inbox.from_world or record.inbox.from_server:
            self._last_activity = self._rounds
        return self._rounds - self._last_activity < self._stall_rounds
