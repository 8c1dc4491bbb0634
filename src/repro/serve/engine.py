"""ServeEngine: an asyncio multiplexer for goal-oriented sessions.

One process, one event loop, thousands of interleaved sessions.  The
engine is a cooperative scheduler over :class:`~repro.serve.session.Session`
objects: each worker task repeatedly takes the next runnable session,
advances it ``slice_rounds`` rounds, and re-queues it — round-robin
through a deque, so no session can starve and no session can monopolise
the loop for more than one slice.  CPU-bound stepping happens inline (the
model is synchronous and pure Python); concurrency buys *multiplexing*
(long-lived sessions with persistent enumeration state, arrival/completion
overlap, bounded memory), not parallelism — that is what
:mod:`repro.analysis.parallel` is for.

Backpressure is at admission: the engine holds at most ``max_open``
sessions.  :meth:`ServeEngine.try_submit` *rejects* (raises
:class:`SessionRejected`) when full — the open-loop load-shedding mode —
while :meth:`ServeEngine.submit` *parks* the caller on a condition until
a slot frees.  Only admission is bounded; the internal runnable queue
holds admitted sessions only, so workers re-queueing a live session can
never deadlock against the limit.

Lifecycle: :meth:`start` (or ``async with``) spawns the workers;
:meth:`drain` closes admission and waits for every open session to
settle; :meth:`close` drains and then stops the workers; :meth:`abort`
fails everything immediately (pending futures get :class:`~repro.errors.ServeError`,
trace sinks are flushed via :meth:`~repro.serve.session.Session.abandon`).

Telemetry flows through a per-engine
:class:`~repro.obs.counters.CounterSet` (``serve.*`` names: sessions
submitted/rejected/parked/settled/achieved/failed, rounds, open-session
and queue-depth high-water marks) — the same plain-data snapshots the
sweep runner ships, so serve metrics merge into existing tooling.  With
``ledger_dir`` set, every session appends a manifest line to the
ledger's ``manifests.ndjson`` (and, with ``trace=True``, writes a
certifiable trace) through the :mod:`repro.obs` ledger.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Union

from repro.errors import ServeError
from repro.obs.counters import CounterSet
from repro.obs.events import ABANDON_ABORT, ABANDON_FAILURE
from repro.serve.session import (
    Session,
    SessionOutcome,
    SessionSpec,
    _cached_git_sha,
)

if TYPE_CHECKING:
    # The live-telemetry plane loads where an engine first uses it
    # (metrics stream, admin endpoint, ledger summary), never at import.
    from repro.obs.live import AdminRoute, AdminServer, MetricsSampler


class SessionRejected(ServeError):
    """Admission refused: the engine is at ``max_open`` (backpressure)."""


class EngineClosed(ServeError):
    """Submission after :meth:`ServeEngine.drain`/``close`` began."""


class SessionHandle:
    """A submitted session's future result (plus the live session).

    ``await handle`` (or ``await handle.future``) yields the
    :class:`~repro.serve.session.SessionOutcome`; failures surface as the
    exception that broke the session.  The handle exposes the live
    :class:`~repro.serve.session.Session` read-only conveniences
    (``rounds_completed``) for progress inspection.
    """

    __slots__ = ("session", "future")

    def __init__(
        self, session: Session, future: "asyncio.Future[SessionOutcome]"
    ) -> None:
        self.session = session
        self.future = future

    @property
    def session_id(self) -> str:
        return self.session.session_id

    def done(self) -> bool:
        return self.future.done()

    async def result(self) -> SessionOutcome:
        return await self.future

    def __await__(self) -> Any:
        return self.future.__await__()

    def __repr__(self) -> str:
        state = "done" if self.future.done() else "open"
        return f"<SessionHandle {self.session_id} {state}>"


class ServeEngine:
    """A bounded, fair, drainable multiplexer of sessions.

    Parameters
    ----------
    max_open:
        Admission bound — the most sessions open (admitted, not yet
        settled) at once.  This is the engine's memory bound: each open
        session holds its states and recording buffers.
    workers:
        Cooperative worker tasks.  More workers do not add CPU (one
        event loop); they shorten the re-queue latency when a slice
        blocks on I/O (trace flushes).  One or two is typical.
    slice_rounds:
        Rounds per scheduling slice — the fairness quantum.  Small
        slices interleave finely (lower per-session latency variance),
        large slices amortise scheduling overhead.
    ledger_dir / trace / certify:
        Per-session provenance, passed through to
        :class:`~repro.serve.session.Session`: a manifest line in the
        ledger's one stream (and a trace file, and an immediate
        certification re-check) for every session.
    metrics_path / metrics_interval_s:
        With a path set, :meth:`start` spawns a
        :class:`~repro.obs.live.MetricsSampler` task that appends one
        flushed sample per interval to the ``metrics.jsonl`` stream —
        counter deltas, gauge levels, cumulative histograms.  Off by
        default: the telemetry plane must cost nothing when unused.
    admin:
        An admin-endpoint spec (``[host:]port`` on loopback, or a UNIX
        socket path) serving ``/status`` and ``/sessions`` as JSON and
        ``/metrics`` as Prometheus text.  The bind happens on a
        background task; await :meth:`admin_address` for the resolved
        address (port ``0`` picks an ephemeral port).
    flight:
        Per-session flight-recorder capacity (0 = off).  Each session
        keeps a bounded ring of its most recent trace events; on
        failure or abort the ring is dumped to
        ``<ledger_dir>/flight/<session_id>.jsonl`` — a fragment
        checkable by ``python -m repro.obs certify --fragment``.
    """

    def __init__(
        self,
        *,
        max_open: int = 1024,
        workers: int = 2,
        slice_rounds: int = 32,
        ledger_dir: Optional[Union[str, Path]] = None,
        trace: bool = False,
        certify: bool = False,
        counters: Optional[CounterSet] = None,
        metrics_path: Optional[Union[str, Path]] = None,
        metrics_interval_s: float = 1.0,
        admin: Optional[str] = None,
        flight: int = 0,
    ) -> None:
        if max_open <= 0:
            raise ServeError(f"max_open must be positive: {max_open}")
        if workers <= 0:
            raise ServeError(f"workers must be positive: {workers}")
        if slice_rounds <= 0:
            raise ServeError(f"slice_rounds must be positive: {slice_rounds}")
        if flight and ledger_dir is None:
            raise ServeError("flight recording requires a ledger_dir for dumps")
        self.max_open = max_open
        self.slice_rounds = slice_rounds
        self.counters = counters if counters is not None else CounterSet()
        self._worker_count = workers
        self._ledger_dir = None if ledger_dir is None else Path(ledger_dir)
        self._trace = trace
        self._certify = certify
        self._flight = flight
        self._metrics_path = None if metrics_path is None else Path(metrics_path)
        self._metrics_interval_s = metrics_interval_s
        self._admin_spec = admin
        self._sampler: Optional[MetricsSampler] = None
        self._sampler_task: Optional["asyncio.Task[None]"] = None
        self._admin: Optional[AdminServer] = None
        self._admin_task: Optional["asyncio.Task[str]"] = None

        self._runnable: Deque[SessionHandle] = deque()
        self._handles: Dict[str, SessionHandle] = {}
        self._space = asyncio.Condition()
        self._wakeup = asyncio.Event()
        self._open = 0
        self._next_id = 0
        self._closing = False
        self._stopping = False
        self._started_at: Optional[float] = None
        self._workers: List["asyncio.Task[None]"] = []

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        """Spawn the worker tasks (requires a running event loop)."""
        if self._workers:
            raise ServeError("engine already started")
        if self._stopping:
            raise ServeError("engine already closed")
        if self._ledger_dir is not None:
            # Warm the git-sha cache before any session is admitted: the
            # first call shells out to `git rev-parse`, and leaving it to
            # the first session close would block the event loop mid-serve
            # (the RL101 hazard).  Here it costs startup time only.
            _cached_git_sha()
        self._started_at = time.monotonic()
        if self._metrics_path is not None:
            from repro.obs.live import MetricsSampler

            # Constructing the sampler opens + flushes the stream header:
            # startup-time I/O, same budget as the git-sha warm above.
            self._sampler = MetricsSampler(
                self.counters,
                self._metrics_path,
                interval_s=self._metrics_interval_s,
                gauges=self._gauge_levels,
            )
            self._sampler_task = asyncio.create_task(
                self._sampler.run(), name="serve-metrics"
            )
        if self._admin_spec is not None:
            from repro.obs.live import AdminServer

            self._admin = AdminServer(self._admin_routes())
            self._admin_task = asyncio.create_task(
                self._admin.start(self._admin_spec), name="serve-admin"
            )
        self._workers = [
            asyncio.create_task(self._worker(), name=f"serve-worker-{i}")
            for i in range(self._worker_count)
        ]

    async def __aenter__(self) -> "ServeEngine":
        # start() warms the git-sha cache (one subprocess) before any
        # session exists: blocking the loop at startup is the accepted
        # cost of never blocking it mid-serve.
        self.start()  # reprolint: disable=RL101
        return self

    async def __aexit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is None:
            await self.close()
        else:
            await self.abort()

    async def join(self) -> None:
        """Wait until every open session has settled (admission stays open)."""
        async with self._space:
            while self._open:
                await self._space.wait()

    async def drain(self) -> None:
        """Close admission, then wait for the open sessions to settle.

        Graceful by construction: sessions already admitted keep their
        enumeration state and run to their natural settle; parked
        :meth:`submit` callers are woken and get :class:`EngineClosed`.
        """
        self._closing = True
        async with self._space:
            self._space.notify_all()
        await self.join()

    async def close(self) -> None:
        """Drain, stop the workers and telemetry, write the summary."""
        await self.drain()
        self._stopping = True
        self._wakeup.set()
        if self._workers:
            # return_exceptions: a close after an explicit abort() must
            # not re-raise the workers' CancelledError.
            await asyncio.gather(*self._workers, return_exceptions=True)
        await self._stop_telemetry()
        # Runs after drain: no live session is left to stall, so the
        # summary write may block the loop for its one file.
        self._write_summary()  # reprolint: disable=RL101

    async def abort(self) -> None:
        """Fail fast: stop workers, fail every open session's future.

        Open sessions are :meth:`~repro.serve.session.Session.abandon`\\ ed
        (trace sinks flushed, flight rings dumped, no verdict written) so
        an aborted ledger is visibly incomplete rather than falsely
        certified.
        """
        self._closing = True
        self._stopping = True
        self._wakeup.set()
        for task in self._workers:
            task.cancel()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        error = ServeError("engine aborted")
        while self._runnable:
            handle = self._runnable.popleft()
            # Inline sink flush (and flight dump) on the fail-fast path:
            # the engine is tearing down, no serving is left to stall.
            handle.session.abandon(ABANDON_ABORT)  # reprolint: disable=RL101
            if not handle.future.done():
                handle.future.set_exception(error)
            self.counters.inc("serve.sessions_failed")
        self._handles.clear()
        async with self._space:
            self._open = 0
            self._space.notify_all()
        await self._stop_telemetry()

    async def _stop_telemetry(self) -> None:
        """Cancel the sampler task (final tick) and unbind the admin plane."""
        sampler_task, self._sampler_task = self._sampler_task, None
        if sampler_task is not None:
            sampler_task.cancel()
            try:
                await sampler_task
            except asyncio.CancelledError:
                pass
        if self._sampler is not None:
            # Final flushed tick: the stream's deltas sum to the totals.
            self._sampler.close()  # reprolint: disable=RL101
        admin_task, self._admin_task = self._admin_task, None
        if admin_task is not None:
            try:
                await admin_task
            except (OSError, ValueError):
                pass  # the bind itself failed; nothing to unbind
        admin, self._admin = self._admin, None
        if admin is not None:
            await admin.aclose()

    # ------------------------------------------------------------------
    # admission

    def _admit(self, spec: SessionSpec, session_id: Optional[str]) -> SessionHandle:
        if session_id is None:
            session_id = f"s{self._next_id:06d}"
        self._next_id += 1
        session = Session(
            spec,
            session_id=session_id,
            ledger_dir=self._ledger_dir,
            trace=self._trace,
            certify=self._certify,
            flight=self._flight,
        )
        loop = asyncio.get_running_loop()
        handle = SessionHandle(session, loop.create_future())
        self._open += 1
        self._runnable.append(handle)
        self._handles[session_id] = handle
        self.counters.inc("serve.sessions_submitted")
        self.counters.observe("serve.open_sessions", float(self._open))
        self.counters.observe("serve.queue_depth", float(len(self._runnable)))
        self._wakeup.set()
        return handle

    def try_submit(
        self, spec: SessionSpec, *, session_id: Optional[str] = None
    ) -> SessionHandle:
        """Admit ``spec`` now or raise — the load-shedding admission mode.

        Raises :class:`EngineClosed` once draining began and
        :class:`SessionRejected` when ``max_open`` sessions are already
        open; the caller decides whether to retry, queue elsewhere, or
        drop the arrival.
        """
        if self._closing:
            raise EngineClosed("engine is draining; no new sessions")
        if self._open >= self.max_open:
            self.counters.inc("serve.sessions_rejected")
            raise SessionRejected(
                f"{self._open} sessions open (max_open={self.max_open})"
            )
        return self._admit(spec, session_id)

    async def submit(
        self, spec: SessionSpec, *, session_id: Optional[str] = None
    ) -> SessionHandle:
        """Admit ``spec``, parking the caller while the engine is full.

        The flow-controlled admission mode: arrivals queue *outside* the
        engine (in their own coroutines) until a slot frees, so memory
        stays bounded by ``max_open`` no matter how fast callers submit.
        Raises :class:`EngineClosed` if draining begins while parked.
        """
        parked = False
        async with self._space:
            while self._open >= self.max_open and not self._closing:
                if not parked:
                    parked = True
                    self.counters.inc("serve.sessions_parked")
                await self._space.wait()
            if self._closing:
                raise EngineClosed("engine is draining; no new sessions")
            # Deliberate inline ledger I/O: admission opens the session's
            # trace sink (mkdir + open) on the loop.  Byte-identical
            # traces require the single-threaded write path
            # (docs/SERVING.md); the cost is microseconds on local disk.
            return self._admit(spec, session_id)  # reprolint: disable=RL101

    # ------------------------------------------------------------------
    # scheduling

    async def _worker(self) -> None:
        while True:
            if not self._runnable:
                if self._stopping:
                    return
                self._wakeup.clear()
                if self._runnable or self._stopping:
                    continue  # lost-wakeup guard: re-check after clear
                await self._wakeup.wait()
                continue
            handle = self._runnable.popleft()
            live = False
            error: Optional[BaseException] = None
            try:
                executed = handle.session.step(self.slice_rounds)
                self.counters.inc("serve.rounds", executed)
                live = handle.session.live
            except asyncio.CancelledError:
                self._runnable.appendleft(handle)
                raise
            except Exception as exc:
                error = exc
            if live:
                self._runnable.append(handle)
            else:
                await self._settle(handle, error)
            # Yield every slice so submitters, timers, and the other
            # workers run between quanta even while the queue is hot.
            await asyncio.sleep(0)

    async def _settle(
        self, handle: SessionHandle, error: Optional[BaseException]
    ) -> None:
        outcome: Optional[SessionOutcome] = None
        if error is None:
            try:
                # Deliberate inline ledger I/O: settling appends the manifest
                # line and the trace tail on the loop — the single-threaded write path
                # that keeps traces byte-identical (docs/SERVING.md).
                outcome = handle.session.close()  # reprolint: disable=RL101
            except Exception as exc:
                error = exc
        if error is None:
            assert outcome is not None
            self.counters.inc("serve.sessions_settled")
            if outcome.outcome.achieved:
                self.counters.inc("serve.sessions_achieved")
            self.counters.observe(
                "serve.session_rounds", float(outcome.execution.rounds_executed)
            )
            self.counters.observe(
                "serve.session_wall_ms", outcome.wall_time_s * 1000.0
            )
        else:
            # Inline sink flush (and flight dump), same single-threaded
            # write path as above.
            handle.session.abandon(ABANDON_FAILURE)  # reprolint: disable=RL101
            self.counters.inc("serve.sessions_failed")
        self._handles.pop(handle.session_id, None)
        async with self._space:
            self._open -= 1
            self._space.notify_all()
        if not handle.future.done():
            if error is None:
                assert outcome is not None
                handle.future.set_result(outcome)
            else:
                handle.future.set_exception(error)

    # ------------------------------------------------------------------
    # introspection

    @property
    def open_sessions(self) -> int:
        """Sessions admitted and not yet settled."""
        return self._open

    @property
    def draining(self) -> bool:
        return self._closing

    def stats(self) -> Dict[str, Any]:
        """Counters snapshot plus the instantaneous gauges."""
        snapshot: Dict[str, Any] = dict(self.counters.snapshot())
        snapshot["open_sessions_now"] = self._open
        snapshot["runnable_now"] = len(self._runnable)
        return snapshot

    def _gauge_levels(self) -> Dict[str, float]:
        """The live gauge vector (the sampler's and admin plane's view)."""
        return {
            "open_sessions": float(self._open),
            "queue_depth": float(len(self._runnable)),
            "draining": 1.0 if self._closing else 0.0,
        }

    def _uptime_s(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    def _status_payload(self) -> Dict[str, Any]:
        """The ``/status`` document (the shape ``repro.obs top`` eats)."""
        return {
            "seq": 0 if self._sampler is None else self._sampler.seq,
            "uptime_s": round(self._uptime_s(), 6),
            "counters": self.counters.snapshot(),
            "gauges": self._gauge_levels(),
            "draining": self._closing,
        }

    def _sessions_payload(self) -> List[Dict[str, Any]]:
        """The ``/sessions`` document: every open session, in admit order."""
        return [
            {
                "session_id": handle.session_id,
                "label": handle.session.spec.label,
                "rounds_completed": handle.session.rounds_completed,
                "live": handle.session.live,
            }
            for handle in self._handles.values()
        ]

    def _admin_routes(self) -> Dict[str, AdminRoute]:
        from repro.obs.live import json_route, render_prometheus

        return {
            "/status": json_route(self._status_payload),
            "/sessions": json_route(self._sessions_payload),
            "/metrics": lambda: (
                "text/plain; version=0.0.4; charset=utf-8",
                render_prometheus(self.counters.snapshot(), self._gauge_levels()),
            ),
        }

    async def admin_address(self) -> str:
        """The admin endpoint's resolved address (awaits the bind)."""
        if self._admin_task is None:
            raise ServeError("engine has no admin endpoint configured")
        return await self._admin_task

    def _write_summary(self) -> None:
        """Compose the engine's counter snapshot into ``engine.json``.

        :func:`~repro.obs.live.write_metrics` merges over whatever the
        file already holds and stamps ``metrics_schema`` + the git SHA —
        a re-run refreshes its own figures without clobbering keys other
        tooling parked there.
        """
        if self._ledger_dir is None:
            return
        from repro.obs.live import write_metrics

        write_metrics(
            self._ledger_dir / "engine.json",
            self.stats(),
            git_sha=_cached_git_sha(),
        )

    def __repr__(self) -> str:
        return (
            f"<ServeEngine open={self._open}/{self.max_open} "
            f"runnable={len(self._runnable)} workers={len(self._workers)}>"
        )
