"""Parallel sweep execution: pluggable backends for independent cells.

Every reproduction target is a sweep — "pair this user with every server
in the class, under these seeds" — and sweep cells are *shared-nothing* by
construction (all randomness derives from the per-run seed; nothing flows
between cells).  That makes a sweep embarrassingly parallel: this module
provides the executor backends that :func:`repro.analysis.runner.sweep`
and :func:`~repro.analysis.runner.sweep_goals` accept via ``executor=``.

* :class:`SerialExecutor` — runs the cells in-process, in order.  The
  reference backend: ``sweep(..., executor=SerialExecutor())`` is
  identical to ``sweep(...)`` with no executor.
* :class:`ProcessExecutor` — fans the cells out over a **persistent**
  :class:`concurrent.futures.ProcessPoolExecutor`.  The pool is created
  (and :mod:`multiprocessing` imported) on first use and reused across
  ``sweep`` calls (process spawning was the dominant cost of the old
  per-call pool — the ``parallel_speedup: 0.81`` regression in
  ``BENCH_history.jsonl``); the sweep's shared cast
  (user/server/goal/channel objects) is pickled **once** into a
  content-addressed blob that each worker unpickles once and caches, so
  per-chunk payloads are light :class:`CellRef` index tuples; and chunk
  sizes adapt to the measured per-cell cost (``chunk_size="auto"``).
* :class:`BatchProcessExecutor` — processes × lockstep: each worker runs
  its sub-grid through :class:`repro.analysis.batch.BatchExecutor`, so
  the process fan-out multiplies with the batched backend's per-process
  throughput (see "Batched execution" in ``docs/PERFORMANCE.md``).

Determinism contract: a backend may only change *where* cells run, never
what they compute.  The parity tests in ``tests/analysis/test_parallel.py``
and ``tests/analysis/test_parallel_pool.py`` assert serial/process
equality cell by cell, including telemetry totals.

Picklability: process workers require every object reachable from a task
to pickle — use module-level functions (not lambdas or closures) for
sensing predicates and referees.  The library's goal builders comply;
:func:`ensure_picklable` gives an actionable error before any worker is
spawned when a custom object does not.
"""

from __future__ import annotations

import atexit
import hashlib
import math
import os
import pickle
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.analysis.runner import CellTask, SweepCell
from repro.core.execution import FaultyChannelLike
from repro.core.goals import Goal
from repro.core.strategy import ServerStrategy, UserStrategy
from repro.errors import ExecutionError

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: Adaptive chunking aims for work items of roughly this wall time — long
#: enough to amortise dispatch/IPC, short enough to load-balance.
TARGET_CHUNK_SECONDS = 0.2

_T = TypeVar("_T")


def run_cell_chunk(tasks: Sequence[CellTask]) -> List[Tuple[int, SweepCell]]:
    """Worker entry point: run a chunk of cells, tagged with their indices.

    Module-level (not a method) so it pickles by reference under every
    multiprocessing start method, including ``spawn``.
    """
    return [(task.index, task.run()) for task in tasks]


def ensure_picklable(task: CellTask) -> None:
    """Raise a diagnosable error if ``task`` cannot cross a process boundary.

    Checked eagerly so the failure names the real problem instead of
    surfacing as an opaque ``PicklingError`` from a worker's result
    future.  Lambdas inside sensing predicates or referees are the usual
    culprit — hoist them to module level.
    """
    try:
        pickle.dumps(task)
    except Exception as error:
        raise ExecutionError(
            f"sweep cell {task.index} ({task.user.name} vs {task.server.name}) "
            f"is not picklable for process execution: {error!r}. "
            "Process workers receive cells by pickling; replace lambdas/"
            "closures in sensing predicates and referees with module-level "
            "functions, or use SerialExecutor."
        ) from error


class SerialExecutor:
    """In-process, in-order execution — the reference backend.

    Satisfies :class:`~repro.analysis.runner.SweepExecutorLike`
    structurally (it is a Protocol; no inheritance needed).
    """

    backend_name = "serial"

    def map_cells(self, tasks: Sequence[CellTask]) -> List[SweepCell]:
        return [task.run() for task in tasks]


@dataclass(frozen=True)
class SweepCast:
    """A sweep's heavy shared objects, interned for one-time transfer.

    A sweep's tasks reference few *distinct* objects (typically one user,
    one goal, N servers); pickling them per :class:`CellTask` re-serialised
    the whole graph for every cell.  The cast holds each distinct object
    once; :class:`CellRef` entries index into it.
    """

    users: Tuple[UserStrategy, ...]
    servers: Tuple[ServerStrategy, ...]
    goals: Tuple[Goal, ...]
    channels: Tuple[FaultyChannelLike, ...]


@dataclass(frozen=True)
class CellRef:
    """A light, per-cell work item: indices into a :class:`SweepCast`."""

    index: int
    user: int
    server: int
    goal: int
    channel: Optional[int]
    seeds: Tuple[int, ...]
    max_rounds: int
    telemetry: bool


def build_sweep_cast(
    tasks: Sequence[CellTask],
) -> Tuple[SweepCast, List[CellRef]]:
    """Intern the tasks' shared objects (by identity) into one cast."""
    users: List[UserStrategy] = []
    servers: List[ServerStrategy] = []
    goals: List[Goal] = []
    channels: List[FaultyChannelLike] = []
    seen: Dict[Tuple[str, int], int] = {}

    def intern(kind: str, pool: List[_T], obj: _T) -> int:
        key = (kind, id(obj))
        index = seen.get(key)
        if index is None:
            index = len(pool)
            seen[key] = index
            pool.append(obj)
        return index

    refs = [
        CellRef(
            index=task.index,
            user=intern("user", users, task.user),
            server=intern("server", servers, task.server),
            goal=intern("goal", goals, task.goal),
            channel=(
                None
                if task.channel is None
                else intern("channel", channels, task.channel)
            ),
            seeds=task.seeds,
            max_rounds=task.max_rounds,
            telemetry=task.telemetry,
        )
        for task in tasks
    ]
    return (
        SweepCast(
            users=tuple(users),
            servers=tuple(servers),
            goals=tuple(goals),
            channels=tuple(channels),
        ),
        refs,
    )


#: Worker-side cache of unpickled casts, keyed by blob digest: each worker
#: deserialises a given sweep's cast once, however many chunks it runs.
_WORKER_CASTS: Dict[str, SweepCast] = {}
_WORKER_CAST_LIMIT = 4


def _resolve_cast(digest: str, blob: bytes) -> SweepCast:
    cast = _WORKER_CASTS.get(digest)
    if cast is None:
        if len(_WORKER_CASTS) >= _WORKER_CAST_LIMIT:
            _WORKER_CASTS.clear()
        cast = pickle.loads(blob)
        _WORKER_CASTS[digest] = cast
    return cast


def run_cast_chunk(
    payload: Tuple[str, bytes, Tuple[CellRef, ...], Optional[int]],
) -> List[Tuple[int, SweepCell]]:
    """Worker entry point for cast-backed chunks.

    ``payload`` is ``(digest, blob, refs, batch_width)``; the cast blob is
    unpickled once per worker per digest (see :data:`_WORKER_CASTS`).
    ``batch_width=None`` runs the cells one at a time (plain process
    semantics); an integer width runs them through the lockstep
    :class:`~repro.analysis.batch.BatchExecutor` (processes × lockstep).
    """
    digest, blob, refs, batch_width = payload
    cast = _resolve_cast(digest, blob)
    tasks = [
        CellTask(
            index=ref.index,
            user=cast.users[ref.user],
            server=cast.servers[ref.server],
            goal=cast.goals[ref.goal],
            seeds=ref.seeds,
            max_rounds=ref.max_rounds,
            telemetry=ref.telemetry,
            channel=None if ref.channel is None else cast.channels[ref.channel],
        )
        for ref in refs
    ]
    if batch_width is None:
        return [(task.index, task.run()) for task in tasks]
    from repro.analysis.batch import BatchExecutor

    cells = BatchExecutor(width=batch_width).map_cells(tasks)
    return [(task.index, cell) for task, cell in zip(tasks, cells)]


class ProcessExecutor:
    """Persistent-pool process execution with cast sharing and adaptive chunks.

    Satisfies :class:`~repro.analysis.runner.SweepExecutorLike`
    structurally.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to ``os.cpu_count()``.  The pool is created
        lazily on first :meth:`map_cells` and **reused across calls** —
        repeated sweeps pay process spawning once.  :meth:`close` shuts
        it down; the executor is also a context manager (``with
        ProcessExecutor() as executor: ...`` closes on exit), and an
        ``atexit`` hook — registered once per live pool, unregistered by
        :meth:`close` — catches anything still open at interpreter exit,
        so long-lived processes (e.g. one also running a
        :class:`~repro.serve.engine.ServeEngine`) never leak worker
        processes or their semaphores.
    chunk_size:
        Cells per submitted work item.  The default ``"auto"`` times the
        first cell in the parent process (its result is kept — no work is
        wasted) and sizes chunks so each work item runs for roughly
        :data:`TARGET_CHUNK_SECONDS`, capped to keep every worker busy.
        An explicit integer pins the chunk size.
    """

    backend_name = "process"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        *,
        chunk_size: Union[int, str] = "auto",
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1: {max_workers}")
        if isinstance(chunk_size, int):
            if chunk_size < 1:
                raise ValueError(f"chunk_size must be >= 1: {chunk_size}")
        elif chunk_size != "auto":
            raise ValueError(f"chunk_size must be an int or 'auto': {chunk_size!r}")
        self._max_workers = max_workers
        self._chunk_size = chunk_size
        self._pool: Optional[ProcessPoolExecutor] = None
        self._atexit_registered = False

    @property
    def workers(self) -> int:
        """The pool size this executor runs (or will create) with."""
        return self._max_workers or os.cpu_count() or 1

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut the persistent pool down (idempotent; recreated on next use).

        Also drops this executor's ``atexit`` hook: a closed executor holds
        no worker processes, so there is nothing left for interpreter exit
        to clean up, and the hook must not pin the executor alive.  A later
        :meth:`map_cells` recreates both the pool and the hook.
        """
        pool = self._pool
        self._pool = None
        if self._atexit_registered:
            self._atexit_registered = False
            atexit.unregister(self.close)
        if pool is not None:
            pool.shutdown(wait=True)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Imported here: concurrent.futures.process pulls in
            # multiprocessing, which no serial sweep needs.
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.workers)
            if not self._atexit_registered:
                # Exactly one live registration per open pool: close()
                # unregisters, so close/recreate cycles cannot stack
                # duplicate hooks in the interpreter's exit table.
                self._atexit_registered = True
                atexit.register(self.close)
        return self._pool

    def _worker_batch_width(self) -> Optional[int]:
        """Lockstep width workers should use (None = plain, one at a time)."""
        return None

    def _plan_chunk_size(self, probe_seconds: Optional[float], n_cells: int) -> int:
        """Pick the cells-per-chunk for this dispatch."""
        if isinstance(self._chunk_size, int):
            return self._chunk_size
        balance_cap = max(1, math.ceil(n_cells / self.workers))
        if probe_seconds is None:
            return balance_cap
        per_chunk = max(1, round(TARGET_CHUNK_SECONDS / max(probe_seconds, 1e-9)))
        return min(per_chunk, balance_cap)

    def map_cells(self, tasks: Sequence[CellTask]) -> List[SweepCell]:
        if not tasks:
            return []
        for task in tasks:
            ensure_picklable(task)
        cast, refs = build_sweep_cast(tasks)
        blob = pickle.dumps(cast, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(blob).hexdigest()

        indexed: List[Tuple[int, SweepCell]] = []
        pending = refs
        probe_seconds: Optional[float] = None
        if self._chunk_size == "auto" and len(tasks) > 1:
            # Probe: run the first cell here, timed; keep its result.
            probe_start = time.perf_counter()
            indexed.append((tasks[0].index, tasks[0].run()))
            probe_seconds = time.perf_counter() - probe_start
            pending = refs[1:]
        if pending:
            size = self._plan_chunk_size(probe_seconds, len(pending))
            chunks = [
                tuple(pending[i : i + size]) for i in range(0, len(pending), size)
            ]
            width = self._worker_batch_width()
            pool = self._ensure_pool()
            futures = [
                pool.submit(run_cast_chunk, (digest, blob, chunk, width))
                for chunk in chunks
            ]
            for future in futures:
                indexed.extend(future.result())
        # Deterministic merge: sort by task index whatever the completion
        # order was (futures are drained in submission order; the sort is
        # belt-and-braces for future backends).
        indexed.sort(key=lambda pair: pair[0])
        return [cell for _, cell in indexed]


class BatchProcessExecutor(ProcessExecutor):
    """Processes × lockstep: every worker batch-steps its sub-grid.

    The multiplicative backend: process fan-out from
    :class:`ProcessExecutor` (persistent pool, shared cast), per-worker
    throughput from :class:`~repro.analysis.batch.BatchExecutor` (lockstep
    width ``width``).  Defaults to one contiguous sub-grid per worker —
    lockstep efficiency grows with slot count, so bigger chunks beat finer
    load-balancing here.
    """

    backend_name = "batch-process"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        *,
        width: int = 1024,
        chunk_size: Union[int, str] = "auto",
    ) -> None:
        if width < 1:
            raise ValueError(f"width must be >= 1: {width}")
        super().__init__(max_workers, chunk_size=chunk_size)
        self._width = width

    @property
    def batch_width(self) -> int:
        return self._width

    def _worker_batch_width(self) -> Optional[int]:
        return self._width

    def _plan_chunk_size(self, probe_seconds: Optional[float], n_cells: int) -> int:
        if isinstance(self._chunk_size, int):
            return self._chunk_size
        # Even sub-grids, no cost probing: a lockstep worker amortises
        # per-round overhead across its whole chunk, so maximal chunks win.
        return max(1, math.ceil(n_cells / self.workers))

    def map_cells(self, tasks: Sequence[CellTask]) -> List[SweepCell]:
        if not tasks:
            return []
        for task in tasks:
            ensure_picklable(task)
        cast, refs = build_sweep_cast(tasks)
        blob = pickle.dumps(cast, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(blob).hexdigest()
        size = self._plan_chunk_size(None, len(refs))
        chunks = [tuple(refs[i : i + size]) for i in range(0, len(refs), size)]
        pool = self._ensure_pool()
        futures = [
            pool.submit(run_cast_chunk, (digest, blob, chunk, self._width))
            for chunk in chunks
        ]
        indexed: List[Tuple[int, SweepCell]] = []
        for future in futures:
            indexed.extend(future.result())
        indexed.sort(key=lambda pair: pair[0])
        return [cell for _, cell in indexed]
