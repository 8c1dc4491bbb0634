"""Flaky, crashing, and byzantine server wrappers.

Where :mod:`repro.faults.channel` degrades the *medium*, these wrappers
degrade the *server* — and, being ordinary
:class:`~repro.core.strategy.ServerStrategy` decorators, they compose
freely with :class:`~repro.servers.wrappers.EncodedServer` (language
mismatch) and :class:`~repro.servers.wrappers.ResettableServer`
(re-entrancy): ``FlakyServer(ResettableServer(EncodedServer(base, c)))``
is a service that speaks codec *c*, times out stale sessions, and
sometimes just doesn't answer.

All three derive their fault randomness from the schedule seeded by the
server's engine RNG at ``initial_state`` time, so a run's fault trace is a
pure function of the execution seed (the engine gives every party an
independent stream derived from the master seed).

Each wrapper takes an optional ``tracer`` at construction; when tracing
it emits
:class:`~repro.obs.events.FaultInjected` /
:class:`~repro.obs.events.FaultRecovered` events with ``site="server"``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Tuple

from repro.comm.messages import ServerInbox, ServerOutbox
from repro.core.strategy import ServerStrategy
from repro.faults.schedules import FaultSchedule, ScheduleRun
from repro.obs.events import FaultInjected, FaultRecovered
from repro.obs.tracer import TracerLike, is_tracing


@dataclass
class _FaultyServerState:
    """Inner state plus the wrapper's per-run fault machinery."""

    inner_state: Any
    schedule_run: ScheduleRun
    clock: int = 0
    down: bool = False


class _ScheduledWrapper(ServerStrategy):
    """Shared plumbing: schedule lifecycle, clock, and fault events."""

    _site = "server"

    def __init__(
        self, inner: ServerStrategy, schedule: FaultSchedule, tracer: TracerLike = None
    ) -> None:
        self._inner = inner
        self._schedule = schedule
        self.tracer = tracer

    @property
    def inner(self) -> ServerStrategy:
        return self._inner

    def initial_state(self, rng: random.Random) -> _FaultyServerState:
        return _FaultyServerState(
            inner_state=self._inner.initial_state(rng),
            schedule_run=self._schedule.start(rng.getrandbits(64)),
        )

    def _note(self, clock: int, down: bool, kind: str, faulted: bool) -> bool:
        """Emit injected/recovered events; return the new outage flag."""
        tracing = is_tracing(self.tracer)
        if faulted:
            if tracing:
                self.tracer.emit(
                    FaultInjected(round_index=clock, site=self._site, fault=kind)
                )
            return True
        if down and tracing:
            self.tracer.emit(FaultRecovered(round_index=clock, site=self._site))
        return False


class FlakyServer(_ScheduledWrapper):
    """Transiently unresponsive: frozen on rounds where the schedule fires.

    During a faulted round the inner server neither hears nor speaks (as
    if unplugged); on the next clean round it resumes from exactly the
    state it froze in — transient unresponsiveness *with recovery*, the
    behaviour retry/backoff machinery must survive.
    """

    @property
    def name(self) -> str:
        return f"flaky({self._schedule.name})({self._inner.name})"

    def step(
        self, state: _FaultyServerState, inbox: ServerInbox, rng: random.Random
    ) -> Tuple[_FaultyServerState, ServerOutbox]:
        # Fresh state per step (no in-place mutation): under FULL recording
        # the engine keeps the previous state as the round's snapshot.
        fired = state.schedule_run.fires(state.clock)
        down = self._note(state.clock, state.down, "flaky", fired)
        inner_state = state.inner_state
        if fired:
            outbox = ServerOutbox()
        else:
            inner_state, outbox = self._inner.step(inner_state, inbox, rng)
        return (
            _FaultyServerState(inner_state, state.schedule_run, state.clock + 1, down),
            outbox,
        )


class CrashingServer(_ScheduledWrapper):
    """Fail-stop: dead forever from the first round its schedule fires.

    The strongest outage model — after the crash the server is silent for
    the rest of the execution (no recovery event is ever emitted).  With a
    :class:`~repro.faults.schedules.ScriptedSchedule` the crash round is
    exact; with a Bernoulli schedule it is a geometric lifetime.
    """

    @property
    def name(self) -> str:
        return f"crashing({self._schedule.name})({self._inner.name})"

    def step(
        self, state: _FaultyServerState, inbox: ServerInbox, rng: random.Random
    ) -> Tuple[_FaultyServerState, ServerOutbox]:
        down = state.down
        if not down and state.schedule_run.fires(state.clock):
            down = self._note(state.clock, state.down, "crash", True)
        inner_state = state.inner_state
        if down:
            outbox = ServerOutbox()
        else:
            inner_state, outbox = self._inner.step(inner_state, inbox, rng)
        return (
            _FaultyServerState(inner_state, state.schedule_run, state.clock + 1, down),
            outbox,
        )


class ByzantineWrapper(_ScheduledWrapper):
    """Adversarial replies while the schedule fires (a bounded lie window).

    On faulted rounds the inner server still runs (its state advances and
    its world-side effects happen — the physical world cannot be forged)
    but its reply to the *user* is replaced by an adversarial message.
    The default forgery echoes a plausible-looking but wrong payload;
    pass ``forge=`` to script a sharper attack.  Safety claims are tested
    against exactly this wrapper: a safely-sensed user may waste the lie
    window but must never accept on the strength of forged replies.
    """

    def __init__(
        self,
        inner: ServerStrategy,
        schedule: FaultSchedule,
        forge: str = "ACK:forged",
        tracer: TracerLike = None,
    ) -> None:
        super().__init__(inner, schedule, tracer)
        self._forge = forge

    @property
    def name(self) -> str:
        return f"byzantine({self._schedule.name})({self._inner.name})"

    def step(
        self, state: _FaultyServerState, inbox: ServerInbox, rng: random.Random
    ) -> Tuple[_FaultyServerState, ServerOutbox]:
        fired = state.schedule_run.fires(state.clock)
        down = self._note(state.clock, state.down, "byzantine", fired)
        inner_state, outbox = self._inner.step(state.inner_state, inbox, rng)
        if fired:
            outbox = ServerOutbox(to_user=self._forge, to_world=outbox.to_world)
        return (
            _FaultyServerState(inner_state, state.schedule_run, state.clock + 1, down),
            outbox,
        )
