"""Unreliable user↔server channels for the execution engine.

The paper's model delivers every message perfectly; a real medium does
not.  :class:`FaultyChannel` is an immutable description of an unreliable
user↔server link — a list of :class:`ChannelFault` clauses, each pairing a
fault *kind* with a :class:`~repro.faults.schedules.FaultSchedule` and a
direction — that :func:`repro.core.execution.run_execution` accepts via
``channel=``.  Only the user↔server link is faulty: the world channels are
physical reality (the printer's paper does not drop packets), exactly as
only that link is wrapped by :class:`~repro.servers.wrappers.EncodedServer`.

Fault kinds (applied to the message in flight for one round):

* ``drop`` — the payload becomes :data:`~repro.comm.messages.SILENCE`;
* ``corrupt`` — the payload is replaced by a deterministic garbling of
  itself (parsers must reject it, nobody may crash);
* ``duplicate`` — the payload is delivered again next round *if* the
  channel would otherwise be silent (a stale retransmission);
* ``delay`` — the payload is held back and delivered ``delay_rounds``
  late, unless a fresh message occupies the channel at the due round (the
  late copy loses the collision and is silently discarded).

Determinism: a channel holds no mutable state.  ``start(seed)`` builds a
:class:`FaultyChannelRun` whose schedule runs and queues derive entirely
from that seed, so one execution seed replays one fault trace — the
property the parity tests assert across recording policies and process
boundaries.  When a tracer is attached the run emits
:class:`~repro.obs.events.FaultInjected` (every applied fault) and
:class:`~repro.obs.events.FaultRecovered` (first clean delivery after a
faulted stretch on a direction); tracing never alters the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Tuple

from repro.comm.messages import SILENCE
from repro.faults.schedules import (
    BernoulliSchedule,
    FaultSchedule,
    ScheduleRun,
    schedule_from_spec,
)
from repro.obs.events import FaultInjected, FaultRecovered
from repro.obs.tracer import TracerLike, is_tracing

#: Direction labels (also the ``site`` field of fault events).
USER_TO_SERVER = "user->server"
SERVER_TO_USER = "server->user"
BOTH = "both"

#: Fault kinds.
DROP = "drop"
CORRUPT = "corrupt"
DUPLICATE = "duplicate"
DELAY = "delay"

_KINDS = (DROP, CORRUPT, DUPLICATE, DELAY)
_DIRECTIONS = (USER_TO_SERVER, SERVER_TO_USER, BOTH)


def garble(payload: str, salt: int) -> str:
    """Deterministically corrupt a payload (same length, different bytes).

    A simple position-dependent substitution over the printable range:
    reproducible (no RNG), never the identity on non-empty input, and
    guaranteed unparseable by the tagged-message convention because the
    substitution maps ``:`` away from itself.
    """
    if not payload:
        return payload
    return "".join(
        chr(33 + (ord(ch) + salt + 7 * i) % 94) for i, ch in enumerate(payload)
    )


@dataclass(frozen=True)
class ChannelFault:
    """One fault clause: *kind* happens per *schedule* on *direction*."""

    kind: str
    schedule: FaultSchedule
    direction: str = BOTH
    delay_rounds: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind: {self.kind!r} (use one of {_KINDS})")
        if self.direction not in _DIRECTIONS:
            raise ValueError(
                f"unknown direction: {self.direction!r} (use one of {_DIRECTIONS})"
            )
        if self.kind == DELAY and self.delay_rounds < 1:
            raise ValueError(f"delay_rounds must be >= 1: {self.delay_rounds}")

    @property
    def name(self) -> str:
        kind = f"delay+{self.delay_rounds}" if self.kind == DELAY else self.kind
        return f"{kind}[{self.direction}]@{self.schedule.name}"

    def spec(self) -> Dict[str, Any]:
        """Plain-JSON description (raises ``NotImplementedError`` for
        custom schedules that do not describe themselves)."""
        return {
            "kind": self.kind,
            "direction": self.direction,
            "delay_rounds": self.delay_rounds,
            "schedule": self.schedule.spec(),
        }


@dataclass(frozen=True)
class FaultyChannel:
    """An immutable unreliable-link description, shareable across runs.

    ``faults`` apply in order each round (a drop firing first leaves
    nothing for a later corrupt clause to touch).  ``label`` names the
    configuration in sweep cells and reports; the default is derived from
    the clauses.
    """

    faults: Tuple[ChannelFault, ...]
    label: str = ""

    def __init__(self, faults: Iterable[ChannelFault], label: str = "") -> None:
        object.__setattr__(self, "faults", tuple(faults))
        object.__setattr__(self, "label", label)

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        if not self.faults:
            return "perfect"
        return "+".join(f.name for f in self.faults)

    def start(self, seed: int, tracer: TracerLike = None) -> "FaultyChannelRun":
        """A fresh per-execution run, fully determined by ``seed``."""
        return FaultyChannelRun(self, seed, tracer)

    def spec(self) -> Dict[str, Any]:
        """A plain-JSON description that :func:`channel_from_spec` inverts.

        Recorders (``record_run``) stamp this into the trace header so the
        ``repro.obs certify`` checker can rebuild the channel and replay
        its fault schedule from the execution seed alone.  Raises
        ``NotImplementedError`` when any clause's schedule cannot describe
        itself.
        """
        return {
            "label": self.label,
            "faults": [fault.spec() for fault in self.faults],
        }


def channel_from_spec(data: Mapping[str, Any]) -> FaultyChannel:
    """Rebuild a channel from :meth:`FaultyChannel.spec` output."""
    faults = [
        ChannelFault(
            kind=str(item["kind"]),
            schedule=schedule_from_spec(item["schedule"]),
            direction=str(item.get("direction", BOTH)),
            delay_rounds=int(item.get("delay_rounds", 1)),
        )
        for item in data.get("faults", ())
    ]
    return FaultyChannel(faults, label=str(data.get("label", "")))


def drop_channel(rate: float, *, direction: str = BOTH, salt: int = 0) -> FaultyChannel:
    """A Bernoulli drop channel — the workhorse of the robustness grid."""
    return FaultyChannel(
        [ChannelFault(DROP, BernoulliSchedule(rate, salt=salt), direction)],
        label=f"drop({rate})[{direction}]" if direction != BOTH else f"drop({rate})",
    )


class _DirectionState:
    """Mutable per-direction run state: schedule runs, queues, outage flag."""

    __slots__ = ("runs", "pending", "duplicate", "faulted")

    def __init__(self, runs: List[Tuple[ChannelFault, ScheduleRun]]) -> None:
        self.runs = runs
        self.pending: Dict[int, str] = {}  # due round -> delayed payload
        self.duplicate: str = SILENCE  # payload to replay next round
        self.faulted = False  # inside a faulted stretch (for recovery events)


class FaultyChannelRun:
    """Applies one channel description to one execution.

    The engine calls :meth:`apply` once per round, after the parties'
    outboxes were delivered; the returned pair replaces the in-flight
    user↔server payloads.  Every schedule run is advanced every round —
    including silent ones — so the fault trace is independent of traffic.
    """

    __slots__ = ("_directions", "_tracer", "_tracing")

    def __init__(
        self, channel: FaultyChannel, seed: int, tracer: TracerLike = None
    ) -> None:
        self._tracer = tracer
        # The tracer is fixed for the run, so the hot-loop check is too.
        self._tracing = is_tracing(tracer)
        self._directions: Dict[str, _DirectionState] = {}
        for index, direction in enumerate((USER_TO_SERVER, SERVER_TO_USER)):
            runs = [
                (fault, fault.schedule.start(seed * 2 + index))
                for fault in channel.faults
                if fault.direction in (direction, BOTH)
            ]
            self._directions[direction] = _DirectionState(runs)

    def apply(
        self, round_index: int, user_to_server: str, server_to_user: str
    ) -> Tuple[str, str]:
        """Pass this round's in-flight payloads through the fault clauses."""
        return (
            self._apply_direction(round_index, USER_TO_SERVER, user_to_server),
            self._apply_direction(round_index, SERVER_TO_USER, server_to_user),
        )

    def _apply_direction(self, round_index: int, direction: str, payload: str) -> str:
        state = self._directions[direction]
        tracing = self._tracing
        faulted_now = False

        # Retransmissions first: a duplicate fills an otherwise-idle round,
        # and a delayed payload comes due (losing any collision with fresh
        # traffic, like a late packet beaten by a retry).
        if state.duplicate and payload == SILENCE:
            payload = state.duplicate
        state.duplicate = SILENCE
        due = state.pending.pop(round_index, None)
        if due is not None and payload == SILENCE:
            payload = due

        for fault, run in state.runs:
            fired = run.fires(round_index)
            if not fired or payload == SILENCE:
                # Schedules advance unconditionally (determinism); faults
                # only *count* when there was a message to disturb.
                continue
            faulted_now = True
            if tracing:
                self._tracer.emit(
                    FaultInjected(
                        round_index=round_index, site=direction, fault=fault.kind
                    )
                )
            if fault.kind == DROP:
                payload = SILENCE
            elif fault.kind == CORRUPT:
                payload = garble(payload, salt=round_index)
            elif fault.kind == DUPLICATE:
                state.duplicate = payload
            elif fault.kind == DELAY:
                state.pending[round_index + fault.delay_rounds] = payload
                payload = SILENCE

        if faulted_now:
            state.faulted = True
        elif state.faulted and payload != SILENCE:
            state.faulted = False
            if tracing:
                self._tracer.emit(
                    FaultRecovered(round_index=round_index, site=direction)
                )
        return payload
