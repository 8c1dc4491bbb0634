"""The synchronous execution engine.

Couples one user, one server, and one world strategy and runs them in
lockstep, exactly as in the paper's model: each round, every party reads the
messages emitted in the previous round, updates its state, and emits new
messages (delivered next round).  All three parties step *simultaneously* —
a user request sent in round *t* is read by the server in round *t+1* and
the reply reaches the user in round *t+2*.

The engine records the world-state history (goal achievement is defined
on it), the user's local view (sensing is defined on it), and optionally a
flat transcript of channel traffic.  Given the goal's referee
(``referee=``), it also judges the run as it goes: a compact referee's
per-prefix monitor (:class:`~repro.core.referees.RefereeMonitor`) is fed
each world state the round it appears, so the verdict never needs the
history kept.

One round loop: :class:`ExecutionStepper` holds an execution between calls
and :meth:`ExecutionStepper.step_many` is the only place a round runs.
:func:`run_execution` is a stepper driven to completion in one call; the
session service (:mod:`repro.serve`) drives the same object a slice at a
time, so a served session is bitwise identical to ``run_execution`` by
construction.

The round is lean: the six in-flight messages (one per directed channel)
are plain strings the stepper owns.  For the length of a slice they live
in locals with the party states and the round count, the inboxes are
built with ``tuple.__new__`` and the outboxes read by unpacking; the
stepper's slots hold them between slices.  Per round, the loop calls only
the three party steps and, when present, the fault channel's ``apply``,
the referee monitor's ``observe`` and the tracer (plus the history appends
under :data:`FULL_RECORDING`); the metrics-only view's round count is
advanced once per slice.

Reproducibility: the engine derives an independent PRNG per party from the
master seed (:func:`derive_party_seeds`), so a strategy that consumes more
randomness does not perturb the other parties' random streams.  A party's
stream is seeded on its first use (:func:`party_stream`) and draws exactly
what ``random.Random(seed)`` would.  Most parties never draw (tabular
machines, followers, advisors), and a stream never touched holds ~100
bytes instead of a ~2.7 KB Mersenne Twister state, which was most of
what an open served session held.

Observability: pass ``tracer=`` (see :mod:`repro.obs`) to stream typed
round events; the stepper hands the tracer to the user's per-run
state (:meth:`~repro.core.strategy.UserStrategy.initial_traced_state`), so
a universal user's events join the stream.  Tracing is read-only — it
never touches the RNGs or the in-flight messages — so a traced run is
bitwise-identical to an untraced one, and the off path (``tracer=None``
or a disabled tracer) allocates nothing.

Recording policies: by default the engine retains everything
(:data:`FULL_RECORDING`) — every world state, one :class:`RoundRecord` and
one :class:`~repro.core.views.ViewRecord` per round.  Metric-only callers
(every sweep cell, served sessions, helpfulness and property checks) pass
``recording=METRICS_RECORDING`` to run in bounded memory: the latest world
state, the round count, the halt flag, the final user state, the referee's
monitor and tracer counters are kept — exactly what
:func:`repro.analysis.metrics.collect_metrics` reads — while ``rounds``
stays empty, ``world_states`` holds only the latest state, and
``user_view`` becomes a round-counting
:class:`~repro.core.views.BoundedUserView`.  The simulation itself is
untouched: both policies execute identical rounds from identical seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple, cast

from repro.comm.channels import Roles
from repro.comm.messages import SILENCE, ServerInbox, ServerOutbox, UserInbox, UserOutbox, WorldInbox, WorldOutbox
from repro.core.interfaces import (
    ChannelLike,
    ChannelRunLike,
    RefereeLike,
    RefereeMonitorLike,
)
from repro.core.strategy import ServerStrategy, UserStrategy, WorldStrategy
from repro.core.views import BoundedUserView, UserView, ViewRecord
from repro.comm.transcripts import Transcript
from repro.errors import ExecutionError
from repro.obs.events import (
    ExecutionFinished,
    ExecutionStarted,
    RoundExecuted,
    rng_chain_digest,
)
from repro.obs.tracer import TracerLike, is_tracing


@dataclass(frozen=True)
class RecordingPolicy:
    """What :func:`run_execution` retains as it runs.

    ``full`` keeps the whole history: every world state, the per-round
    :class:`RoundRecord` list and the user's view.  Without it the result
    keeps the latest world state and counts rounds, in memory that does
    not grow with the horizon.  Use :data:`FULL_RECORDING` (the default —
    anything reading a run's history after it ends needs it) or
    :data:`METRICS_RECORDING`.
    """

    full: bool = True
    label: str = "full"


#: Retain everything (the historical behaviour, and still the default).
FULL_RECORDING = RecordingPolicy(full=True, label="full")

#: Retain only what metric collection reads, in bounded memory.
METRICS_RECORDING = RecordingPolicy(full=False, label="metrics")


@dataclass(frozen=True)
class RoundRecord:
    """Everything that happened during one synchronous round."""

    index: int
    user_inbox: UserInbox
    user_outbox: UserOutbox
    server_inbox: ServerInbox
    server_outbox: ServerOutbox
    world_inbox: WorldInbox
    world_outbox: WorldOutbox
    user_state_after: Any
    server_state_after: Any
    world_state_after: Any


@dataclass
class ExecutionResult:
    """The outcome of running a (user, server, world) system.

    ``world_states`` contains the initial world state followed by the state
    after each executed round — this is the sequence the referee judges.
    ``halted`` is True iff the *user* halted (finite-goal semantics); an
    execution that merely hit ``max_rounds`` has ``halted == False``.

    Under :data:`METRICS_RECORDING`, ``rounds`` stays empty (the count
    lives in ``rounds_completed``), ``world_states`` holds only the latest
    state and ``user_view`` only counts rounds; ``final_user_state`` is
    filled by the engine under every policy so metric collection never
    needs the round list.  ``referee_monitor`` is the compact referee's
    fold the engine fed each round (``None`` unless a compact referee was
    passed to the engine); :meth:`repro.core.goals.CompactGoal.evaluate`
    reads its verdict.
    """

    rounds: List[RoundRecord] = field(default_factory=list)
    world_states: List[Any] = field(default_factory=list)
    user_view: UserView = field(default_factory=UserView)
    transcript: Optional[Transcript] = None
    halted: bool = False
    user_output: Optional[str] = None
    final_user_state: Any = None
    rounds_completed: int = 0
    recording: RecordingPolicy = FULL_RECORDING
    #: Name of the fault channel the run went through (None = perfect link).
    channel_name: Optional[str] = None
    referee_monitor: Optional[RefereeMonitorLike] = None

    @property
    def rounds_executed(self) -> int:
        """Number of rounds that actually ran (under any recording policy)."""
        return len(self.rounds) if self.rounds else self.rounds_completed

    def final_world_state(self) -> Any:
        """The last recorded world state."""
        if not self.world_states:
            raise ExecutionError("execution recorded no world states")
        return self.world_states[-1]


# Structural interfaces for ``channel=`` arguments.  The concrete
# implementation lives in :mod:`repro.faults.channel`; anything with a
# conforming ``start`` works, keeping the engine free of an upward
# dependency on the fault layer.  (Formerly duck-typed stub classes of
# the same names; now checkable Protocols from repro.core.interfaces.)
FaultyChannelLike = ChannelLike
FaultyChannelRunLike = ChannelRunLike


def derive_party_seeds(seed: int) -> Tuple[int, int, int, int]:
    """The engine's per-party seed chain for master ``seed``.

    User, server, and world streams first, then the channel stream (drawn
    last, so a fault-free run's party streams do not depend on whether a
    channel stream exists).  ``repro.obs.certify`` re-derives this chain
    independently, because the certifier must never import the engine.
    """
    master = random.Random(seed)
    return (
        master.getrandbits(64),
        master.getrandbits(64),
        master.getrandbits(64),
        master.getrandbits(64),
    )


class LazyRandom:
    """``random.Random(seed)``, seeded on its first use.

    The first lookup of a non-dunder attribute builds ``random.Random(seed)``
    and forwards to it; each method looked up is cached on the instance,
    so a draw after the first is an instance-dict hit on the real bound
    method and returns exactly what ``random.Random(seed)`` returns.  A
    stream that is never touched never pays for the generator's state.

    Dunder names are not forwarded: ``copy`` and ``pickle`` see this
    object, whose :meth:`__reduce__` carries the seed and, once drawn,
    the generator's state, so a copy continues the same sequence on its
    own generator.
    """

    def __init__(self, seed: int) -> None:
        self._seed = seed

    def __getattr__(self, name: str) -> Any:
        if name[:2] == "__" == name[-2:]:
            raise AttributeError(name)
        cached = self.__dict__
        rng: Optional[random.Random] = cached.get("_rng")
        if rng is None:
            rng = cached["_rng"] = random.Random(cached["_seed"])
        value = getattr(rng, name)
        if callable(value):
            cached[name] = value
        return value

    def __reduce__(self) -> Tuple[Any, ...]:
        rng: Optional[random.Random] = self.__dict__.get("_rng")
        return (LazyRandom, (self._seed,), None if rng is None else rng.getstate())

    def __setstate__(self, state: Tuple[Any, ...]) -> None:
        rng = self.__dict__["_rng"] = random.Random(self._seed)
        rng.setstate(state)


def party_stream(seed: int) -> random.Random:
    """The random stream a party draws from: ``random.Random(seed)``,
    seeded on its first use (see :class:`LazyRandom`)."""
    # LazyRandom forwards every method to the random.Random(seed) it builds.
    return cast(random.Random, LazyRandom(seed))


class ExecutionStepper:
    """One execution, advanced a slice of rounds per :meth:`step_many` call.

    Construction performs the engine's prologue: seed derivation, the
    tracer's start event, channel-run creation, the parties' initial
    states, and — given a compact ``referee`` — its monitor's first
    observation (the initial state is prefix 1).  :meth:`step_many` runs
    rounds; the stepper goes *settled* when the user halts or
    ``max_rounds`` is exhausted, after which :meth:`finish` returns the
    result (and emits the finish event).

    Steppers are single-use and not thread-safe; cooperative interleaving
    (many steppers advanced from one thread, in any order) is the intended
    mode and changes no stepper's results — all state is per-instance.
    """

    __slots__ = (
        "user", "server", "world", "max_rounds", "channel", "tracer",
        "user_rng", "server_rng", "world_rng", "user_state", "server_state",
        "world_state", "user_to_server", "user_to_world", "server_to_user",
        "server_to_world", "world_to_user", "world_to_server", "channel_run",
        "result", "tracing", "full", "live", "finished",
    )

    def __init__(
        self,
        user: UserStrategy,
        server: ServerStrategy,
        world: WorldStrategy,
        *,
        max_rounds: int,
        seed: int = 0,
        record_transcript: bool = False,
        tracer: TracerLike = None,
        recording: RecordingPolicy = FULL_RECORDING,
        channel: Optional[FaultyChannelLike] = None,
        referee: Optional[RefereeLike] = None,
    ) -> None:
        if max_rounds <= 0:
            raise ExecutionError(f"max_rounds must be positive: {max_rounds}")
        self.user = user
        self.server = server
        self.world = world
        self.max_rounds = max_rounds
        self.channel = channel
        self.tracer = tracer
        user_seed, server_seed, world_seed, channel_seed = derive_party_seeds(seed)
        self.user_rng = party_stream(user_seed)
        self.server_rng = party_stream(server_seed)
        self.world_rng = party_stream(world_seed)
        self.tracing = is_tracing(tracer)
        if self.tracing:
            assert tracer is not None
            tracer.emit(
                ExecutionStarted(
                    user=user.name, server=server.name, world=world.name,
                    max_rounds=max_rounds, seed=seed,
                    rng_digest=rng_chain_digest(
                        seed, (user_seed, server_seed, world_seed)
                    ),
                )
            )
        self.channel_run = (
            channel.start(channel_seed, tracer if self.tracing else None)
            if channel is not None
            else None
        )
        if self.tracing:  # The user's per-run state takes the tracer.
            self.user_state = user.initial_traced_state(self.user_rng, tracer)
        else:
            self.user_state = user.initial_state(self.user_rng)
        self.server_state = server.initial_state(self.server_rng)
        self.world_state = world.initial_state(self.world_rng)
        # The six in-flight messages, all silent before the first round.
        self.user_to_server = self.user_to_world = SILENCE
        self.server_to_user = self.server_to_world = SILENCE
        self.world_to_user = self.world_to_server = SILENCE
        monitor = None if referee is None else referee.monitor()
        self.full = recording.full
        self.result = ExecutionResult(
            world_states=[self.world_state],
            user_view=UserView() if self.full else BoundedUserView(),
            transcript=Transcript() if record_transcript else None,
            recording=recording,
            referee_monitor=monitor,
        )
        if monitor is not None:
            monitor.observe(self.world_state)
        self.live = True
        self.finished = False

    @property
    def rounds_completed(self) -> int:
        """Rounds executed so far (== the next round's index while live)."""
        return self.result.rounds_completed

    def step(self) -> bool:
        """Advance one round; return ``True`` while live.

        Raises :class:`~repro.errors.ExecutionError` when called after the
        execution settled (a scheduler bug, not a recoverable condition).
        """
        if not self.live:
            raise ExecutionError("step() called on a settled execution")
        self.step_many(1)
        return self.live

    def step_many(self, rounds: int) -> int:
        """Advance up to ``rounds`` rounds; return how many actually ran.

        Each round: party steps, outbox validation, delivery, channel
        faults, recording, the referee monitor's observation, tracing,
        and the halt check.  Stops early when
        the execution settles, and is a no-op (returning 0) on an already
        settled stepper — schedulers may race a settle without guarding.

        The loop runs on locals — the six in-flight messages, the party
        states and the round count — and writes them back in a
        ``finally``, so a strategy that raises mid-slice leaves the stepper
        at the last completed round and :meth:`finish` still returns the
        partial run.
        """
        if rounds < 0:
            raise ExecutionError(f"rounds must be non-negative: {rounds}")
        if not self.live:
            return 0
        result = self.result
        start = completed = result.rounds_completed
        stop = min(start + rounds, self.max_rounds)

        # Hoisted once: the loop pays one local lookup per artefact, and
        # nothing for tracing when it is off.
        user, server, world = self.user, self.server, self.world
        user_step, server_step, world_step = user.step, server.step, world.step
        user_rng, server_rng, world_rng = self.user_rng, self.server_rng, self.world_rng
        user_state, server_state, world_state = (
            self.user_state, self.server_state, self.world_state
        )
        u2s, u2w = self.user_to_server, self.user_to_world
        s2u, s2w = self.server_to_user, self.server_to_world
        w2u, w2s = self.world_to_user, self.world_to_server
        channel_run = self.channel_run
        full = self.full
        monitor = result.referee_monitor
        observe = None if monitor is None else monitor.observe
        rounds_list = result.rounds
        world_states = result.world_states
        user_view = result.user_view
        transcript = result.transcript
        tracing = self.tracing
        tracer = self.tracer
        # Inboxes are built by ``tuple.__new__``: the profiles are
        # NamedTuples, and this skips their generated ``__new__``.
        new = tuple.__new__
        try:
            for round_index in range(start, stop):
                user_inbox = new(UserInbox, (s2u, w2u))
                server_inbox = new(ServerInbox, (u2s, w2s))
                world_inbox = new(WorldInbox, (u2w, s2w))

                next_user, user_out = user_step(user_state, user_inbox, user_rng)
                next_server, server_out = server_step(server_state, server_inbox, server_rng)
                next_world, world_out = world_step(world_state, world_inbox, world_rng)

                # Exact class first; ``isinstance`` still admits subclasses.
                if user_out.__class__ is not UserOutbox and not isinstance(user_out, UserOutbox):
                    raise ExecutionError(f"user strategy {user.name} returned {type(user_out).__name__}")
                if server_out.__class__ is not ServerOutbox and not isinstance(server_out, ServerOutbox):
                    raise ExecutionError(f"server strategy {server.name} returned {type(server_out).__name__}")
                if world_out.__class__ is not WorldOutbox and not isinstance(world_out, WorldOutbox):
                    raise ExecutionError(f"world strategy {world.name} returned {type(world_out).__name__}")

                # Delivery replaces every in-flight message wholesale: a
                # party silent on a channel clears it (no buffering).
                u2s, u2w, halt, _ = user_out
                s2u, s2w = server_out
                w2u, w2s = world_out
                if channel_run is not None:
                    u2s, s2u = channel_run.apply(round_index, u2s, s2u)

                completed += 1
                if full:
                    rounds_list.append(
                        RoundRecord(
                            index=round_index,
                            user_inbox=user_inbox,
                            user_outbox=user_out,
                            server_inbox=server_inbox,
                            server_outbox=server_out,
                            world_inbox=world_inbox,
                            world_outbox=world_out,
                            user_state_after=next_user,
                            server_state_after=next_server,
                            world_state_after=next_world,
                        )
                    )
                    world_states.append(next_world)
                    user_view.append(
                        ViewRecord(
                            round_index=round_index,
                            state_before=user_state,
                            inbox=user_inbox,
                            outbox=user_out,
                            state_after=next_user,
                        )
                    )
                user_state, server_state, world_state = next_user, next_server, next_world
                if observe is not None:
                    observe(world_state)
                if transcript is not None:
                    transcript.record(round_index, Roles.USER, Roles.SERVER, user_out.to_server)
                    transcript.record(round_index, Roles.USER, Roles.WORLD, user_out.to_world)
                    transcript.record(round_index, Roles.SERVER, Roles.USER, server_out.to_user)
                    transcript.record(round_index, Roles.SERVER, Roles.WORLD, server_out.to_world)
                    transcript.record(round_index, Roles.WORLD, Roles.USER, world_out.to_user)
                    transcript.record(round_index, Roles.WORLD, Roles.SERVER, world_out.to_server)

                if tracing:
                    assert tracer is not None
                    # What each party sent (the channel may have replaced
                    # ``u2s`` and ``s2u`` on delivery); silence is None.
                    tracer.emit(
                        RoundExecuted(
                            round_index, halt,
                            user_out.to_server or None, u2w or None,
                            server_out.to_user or None, s2w or None,
                            w2u or None, w2s or None,
                        )
                    )

                if halt:
                    result.halted = True
                    result.user_output = user_out.output
                    break
        finally:
            self.user_state = user_state
            self.server_state = server_state
            self.world_state = world_state
            self.user_to_server, self.user_to_world = u2s, u2w
            self.server_to_user, self.server_to_world = s2u, s2w
            self.world_to_user, self.world_to_server = w2u, w2s
            result.rounds_completed = completed
            if not full:
                world_states[0] = world_state
                user_view.advance(completed - start)
            if result.halted or completed >= self.max_rounds:
                self.live = False
        return completed - start

    def finish(self) -> ExecutionResult:
        """Seal and return the result (idempotent after the first call).

        Fills ``final_user_state``, stamps the channel name, and emits the
        :class:`~repro.obs.events.ExecutionFinished` event exactly once.
        Callable while live (an aborted drain still wants partial state),
        but the normal path calls it once the stepper settled.
        """
        result = self.result
        if self.finished:
            return result
        self.finished = True
        result.final_user_state = self.user_state
        if self.channel_run is not None:
            result.channel_name = getattr(
                self.channel, "name", type(self.channel).__name__
            )
        if self.tracing:
            assert self.tracer is not None
            self.tracer.emit(
                ExecutionFinished(
                    rounds_executed=result.rounds_completed, halted=result.halted
                )
            )
        return result


def run_execution(
    user: UserStrategy,
    server: ServerStrategy,
    world: WorldStrategy,
    *,
    max_rounds: int,
    seed: int = 0,
    record_transcript: bool = False,
    tracer: TracerLike = None,
    recording: RecordingPolicy = FULL_RECORDING,
    channel: Optional["FaultyChannelLike"] = None,
    referee: Optional[RefereeLike] = None,
) -> ExecutionResult:
    """Run the three-party system for up to ``max_rounds`` rounds.

    The execution stops early when the user halts.  ``seed`` controls all
    randomness; two runs with equal arguments are identical.  ``tracer``
    (optional) receives :class:`~repro.obs.events.ExecutionStarted`, one
    :class:`~repro.obs.events.RoundExecuted` per round carrying the
    round's messages, and a final
    :class:`~repro.obs.events.ExecutionFinished` event; it observes but
    never influences the run.  ``recording`` picks how much history the
    result retains (see :class:`RecordingPolicy`); it never changes what
    the parties do, only what is kept.

    ``channel`` (optional) makes the user↔server link unreliable: a
    :class:`~repro.faults.channel.FaultyChannel` whose per-run state is
    seeded from the master seed, so fault traces replay exactly (see
    ``docs/ROBUSTNESS.md``).  Faults apply to the payloads *in flight* —
    after outboxes are recorded (the transcript shows what was said) and
    before the next round's inboxes (views show what was heard).  With
    ``channel=None`` the RNG derivations are untouched, so every pre-fault
    execution is bitwise unchanged.

    ``referee`` (optional, the goal's referee) makes the run judge itself:
    a compact referee's monitor observes every world state as it appears
    and rides on the result as ``referee_monitor``, which is what lets a
    metrics-only run be evaluated without its history.  Finite referees
    need no monitor.

    Raises :class:`ExecutionError` if ``max_rounds`` is not positive or a
    strategy returns an outbox of the wrong type (catching wiring mistakes
    early rather than corrupting the in-flight messages).
    """
    stepper = ExecutionStepper(
        user, server, world,
        max_rounds=max_rounds, seed=seed, record_transcript=record_transcript,
        tracer=tracer, recording=recording, channel=channel, referee=referee,
    )
    stepper.step_many(max_rounds)
    return stepper.finish()
