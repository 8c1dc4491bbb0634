"""One served session: a cast with create/step/close semantics.

A :class:`Session` owns exactly what one :func:`~repro.core.execution.run_execution`
call owns — user, server, world (via the goal), seed, recording policy,
fault channel — but advances it cooperatively: the engine steps it a few
rounds at a time and parks it between slices, so thousands of sessions
share one process while each keeps its enumeration state alive across
steps.  :meth:`Session.close` seals the run exactly the way
:func:`repro.obs.ledger.record_run` does: the goal is judged, the verdict
goes into the trace as evidence, and a :class:`~repro.obs.ledger.RunManifest`
with the trace's SHA-256 (taken as the trace was written) lands beside it
— a served session is certifiable by ``python -m repro.obs certify`` like
any batch run.

Determinism is per-session: seeds derive through the same
:func:`~repro.core.execution.derive_party_seeds` chain the engine uses, so a
session's results depend only on its spec, never on how it was interleaved
with its neighbours.  :func:`derive_session_seeds` spreads one master seed
into per-session seeds for fleets of sessions.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Union

from repro.core.execution import (
    METRICS_RECORDING,
    ExecutionResult,
    ExecutionStepper,
    FaultyChannelLike,
    RecordingPolicy,
)
from repro.core.goals import Goal, GoalOutcome
from repro.core.strategy import ServerStrategy, UserStrategy
from repro.errors import ServeError
from repro.obs.events import ABANDON_EXPLICIT, ABANDON_REASONS, SessionAbandoned
from repro.obs.flight import FlightBuffer, TeeSink, dump_flight
from repro.obs.tracer import Tracer

if TYPE_CHECKING:
    from repro.obs.ledger import RunManifest
    from repro.obs.sinks import JsonlSink


def derive_session_seeds(seed: int, count: int) -> List[int]:
    """``count`` independent 64-bit session seeds from one master ``seed``.

    The service-level analogue of the engine's per-party chain: one
    configured seed fans out into one seed per session, so a fleet is
    reproducible from a single number and no two sessions share party
    streams.  Deterministic and order-stable — seed ``i`` is the same
    whether the fleet has 10 sessions or 10,000.
    """
    if count < 0:
        raise ServeError(f"count must be non-negative: {count}")
    master = random.Random(seed)
    return [master.getrandbits(64) for _ in range(count)]


@lru_cache(maxsize=1)
def _cached_git_sha() -> Optional[str]:
    """One ``git rev-parse`` per process, not one per served session."""
    from repro.obs.ledger import git_sha

    return git_sha()


@dataclass(frozen=True)
class SessionSpec:
    """Everything that determines one session's results.

    Immutable and reusable: the same spec submitted twice yields bitwise-
    identical executions, and strategy objects may be shared across specs
    (strategies are non-mutating by contract — reprolint RL002 — so
    interleaved sessions cannot contaminate each other through them).
    ``label`` is free-form provenance for load reports; identity lives in
    the cast + seed.
    """

    user: UserStrategy
    server: ServerStrategy
    goal: Goal
    seed: int = 0
    max_rounds: int = 2000
    recording: RecordingPolicy = METRICS_RECORDING
    channel: Optional[FaultyChannelLike] = None
    label: str = ""


@dataclass(frozen=True)
class SessionOutcome:
    """What :meth:`Session.close` hands back: the run plus its paper trail.

    ``execution`` is bitwise-identical to a batch ``run_execution`` of the
    same spec; ``outcome`` is the goal's judgement of it.  The ledger
    fields are ``None`` unless the session was created with a ledger
    directory.  ``wall_time_s``/``cpu_time_s`` cover only time spent
    *inside* this session (create + steps + close), not time parked in the
    engine's queues — the figure a manifest should carry for a multiplexed
    run.
    """

    session_id: str
    label: str
    execution: ExecutionResult
    outcome: GoalOutcome
    wall_time_s: float
    cpu_time_s: float
    manifest: Optional["RunManifest"] = None
    manifest_path: Optional[Path] = None
    trace_path: Optional[Path] = None


class Session:
    """One cast stepped cooperatively, with create/step/close semantics.

    Construction performs the engine's prologue (seed derivation, initial
    states, the trace's start event); :meth:`step` advances up to a slice
    of rounds; :meth:`close` seals the run, judges the goal, and writes
    the trace/manifest pair when a ledger directory was given.  Sessions
    are single-use and cooperative — many can interleave on one thread in
    any order without affecting any session's results.

    Universal users expose a reassignable ``tracer`` attribute; a traced
    session *borrows* it for exactly the duration of each step slice (and
    restores it after), so several sessions can share one user object and
    still write disjoint, per-session event streams.  Under cooperative
    single-threaded scheduling the borrowed stream is byte-identical to
    :func:`~repro.obs.ledger.record_run`'s whole-run borrowing, because
    users only emit while stepping.
    """

    def __init__(
        self,
        spec: SessionSpec,
        *,
        session_id: str = "s0",
        ledger_dir: Optional[Union[str, Path]] = None,
        trace: bool = False,
        certify: bool = False,
        flight: int = 0,
    ) -> None:
        if trace and ledger_dir is None:
            raise ServeError("trace=True requires a ledger_dir to write into")
        if certify and not trace:
            raise ServeError("certify=True requires trace=True")
        if flight < 0:
            raise ServeError(f"flight capacity must be non-negative: {flight}")
        if flight and ledger_dir is None:
            raise ServeError("flight recording requires a ledger_dir for dumps")
        self.spec = spec
        self.session_id = session_id
        self._ledger_dir = None if ledger_dir is None else Path(ledger_dir)
        self._certify = certify
        self._outcome: Optional[SessionOutcome] = None
        self._abandoned = False
        self._wall = 0.0
        self._cpu = 0.0

        self.trace_path: Optional[Path] = None
        self.flight_path: Optional[Path] = None
        self._trace_sink: Optional["JsonlSink"] = None
        self._tracer: Optional[Tracer] = None
        self._flight: Optional[FlightBuffer] = None
        if trace or flight:
            assert self._ledger_dir is not None
            from repro.obs.sinks import JsonlSink, Sink

            self._ledger_dir.mkdir(parents=True, exist_ok=True)
            sinks: List[Sink] = []
            if trace:
                from repro.obs.ledger import channel_spec

                header: Dict[str, Any] = {}
                described = channel_spec(spec.channel)
                if described is not None:
                    header["channel"] = described
                self.trace_path = self._ledger_dir / f"{session_id}.jsonl"
                self._trace_sink = JsonlSink(self.trace_path, header=header)
                sinks.append(self._trace_sink)
            if flight:
                self._flight = FlightBuffer(flight)
                sinks.append(self._flight)
            self._tracer = Tracer(
                sink=sinks[0] if len(sinks) == 1 else TeeSink(*sinks)
            )

        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        with self._borrowed_tracer():
            self._stepper = ExecutionStepper(
                spec.user,
                spec.server,
                spec.goal.world,
                max_rounds=spec.max_rounds,
                seed=spec.seed,
                tracer=self._tracer,
                recording=spec.recording,
                channel=spec.channel,
                referee=spec.goal.referee,
            )
        self._wall += time.perf_counter() - wall_start
        self._cpu += time.process_time() - cpu_start

    @contextmanager
    def _borrowed_tracer(self) -> Iterator[None]:
        """Lend this session's tracer to the (possibly shared) user."""
        user = self.spec.user
        borrow = self._tracer is not None and hasattr(user, "tracer")
        saved = user.tracer if borrow else None
        if borrow:
            user.tracer = self._tracer
        try:
            yield
        finally:
            if borrow:
                user.tracer = saved

    @property
    def live(self) -> bool:
        """``True`` until the user halts or ``max_rounds`` is exhausted."""
        return self._stepper.live

    @property
    def closed(self) -> bool:
        return self._outcome is not None

    @property
    def rounds_completed(self) -> int:
        return self._stepper.rounds_completed

    def step(self, rounds: int = 1) -> int:
        """Advance up to ``rounds`` rounds; return how many actually ran.

        Stops early when the session settles (check :attr:`live`); calling
        after :meth:`close` is a scheduler bug and raises
        :class:`~repro.errors.ServeError`.
        """
        if self._outcome is not None:
            raise ServeError(f"session {self.session_id} is closed")
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        with self._borrowed_tracer():
            executed = self._stepper.step_many(rounds)
        self._wall += time.perf_counter() - wall_start
        self._cpu += time.process_time() - cpu_start
        return executed

    def close(self) -> SessionOutcome:
        """Seal the session; idempotent after the first call.

        Finishes the stepper (an early close keeps the partial state —
        the goal then judges an unhalted run), evaluates the goal, emits
        the verdict into the trace, and writes the manifest beside it when
        a ledger directory was configured.  With ``certify=True`` the
        freshly written pair is immediately re-checked by
        :func:`repro.obs.certify.certify_run`.
        """
        if self._outcome is not None:
            return self._outcome
        spec = self.spec
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        with self._borrowed_tracer():
            execution = self._stepper.finish()
            outcome = spec.goal.evaluate(execution)
            if self._tracer is not None:
                from repro.obs.ledger import emit_goal_verdict

                emit_goal_verdict(self._tracer, spec.goal, outcome)
        if self._tracer is not None:
            self._tracer.close()
        self._wall += time.perf_counter() - wall_start
        self._cpu += time.process_time() - cpu_start

        manifest = None
        manifest_path = None
        if self._ledger_dir is not None:
            from repro.obs.ledger import RunManifest, write_manifest

            manifest = RunManifest(
                kind="run",
                goal=spec.goal.name,
                user=spec.user.name,
                server=spec.server.name,
                channel=(
                    None
                    if spec.channel is None
                    else getattr(spec.channel, "name", "channel")
                ),
                recording=spec.recording.label,
                seeds=(spec.seed,),
                max_rounds=spec.max_rounds,
                rounds=execution.rounds_executed,
                achieved=int(outcome.achieved),
                halted=int(execution.halted),
                wall_time_s=round(self._wall, 6),
                cpu_time_s=round(self._cpu, 6),
                trace_path=None if self.trace_path is None else self.trace_path.name,
                trace_sha256=(
                    None if self._trace_sink is None else self._trace_sink.sha256()
                ),
                git_sha=_cached_git_sha(),
            )
            manifest_path = write_manifest(
                manifest, self._ledger_dir / f"{self.session_id}.json"
            )
            if self._certify and self.trace_path is not None:
                from repro.obs.certify import certify_run

                certify_run(self.trace_path, manifest_path)

        self._outcome = SessionOutcome(
            session_id=self.session_id,
            label=spec.label,
            execution=execution,
            outcome=outcome,
            wall_time_s=self._wall,
            cpu_time_s=self._cpu,
            manifest=manifest,
            manifest_path=manifest_path,
            trace_path=self.trace_path,
        )
        return self._outcome

    def abandon(self, reason: str = ABANDON_EXPLICIT) -> None:
        """Release resources without sealing (the engine's abort path).

        Emits a terminating ``session-abandoned`` event (so the stream is
        self-describing about *why* it ends early), closes the trace sink
        so no file handle leaks, and — when the session carries a flight
        buffer — dumps the last events to ``flight/<session_id>.jsonl``,
        a fragment checkable by ``python -m repro.obs certify --fragment``.
        Writes no verdict and no manifest: an abandoned trace is visibly
        incomplete rather than falsely certified.  Safe to call at any
        point, including after :meth:`close` (then a no-op).
        """
        if reason not in ABANDON_REASONS:
            raise ServeError(f"unknown abandon reason {reason!r}")
        if self._outcome is not None or self._abandoned:
            return
        self._abandoned = True
        if self._tracer is not None:
            self._tracer.emit(
                SessionAbandoned(
                    session_id=self.session_id,
                    rounds_completed=self.rounds_completed,
                    reason=reason,
                )
            )
            self._tracer.close()
        if self._flight is not None:
            assert self._ledger_dir is not None
            self.flight_path = dump_flight(
                self._flight,
                self._ledger_dir / "flight" / f"{self.session_id}.jsonl",
                header={"session_id": self.session_id, "reason": reason},
            )

    def __repr__(self) -> str:
        state = "closed" if self.closed else ("live" if self.live else "settled")
        return (
            f"<Session {self.session_id} {state} "
            f"rounds={self.rounds_completed}/{self.spec.max_rounds}>"
        )
