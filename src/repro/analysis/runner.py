"""Experiment runner: sweep a user over a server class with seeds.

The benchmarks all have the same skeleton — "pair this user with every
member of this server class, under these seeds, and report per-server
metrics" — so it lives here once.  Cells are *shared-nothing*: every run
derives all randomness from its own seed and no state crosses cells, which
is what lets a sweep be executed serially (the default, and the reference
semantics) or fanned out across processes via ``executor=`` (see
:mod:`repro.analysis.parallel`) with byte-identical results — same seeds
in, equal :class:`SweepResult` out, regardless of backend or worker count.

With ``telemetry=True`` the runner attaches one counters-only
:class:`~repro.obs.Tracer` per cell (shared across that cell's seeds) and
snapshots the totals into :attr:`SweepCell.telemetry` — rounds, messages,
bytes, and, for universal users, sensing/switch/trial counts.  Because the
tracer is per-cell, a parallel sweep aggregates into exactly the totals a
serial sweep produces; :func:`merge_telemetry` further folds cell totals
into sweep-wide totals (see ``docs/OBSERVABILITY.md``).

Every run executes under :data:`~repro.core.execution.METRICS_RECORDING`:
a cell returns only :class:`RunMetrics`, the goal's referee judges each
run as it goes (``run_execution(..., referee=)``), and
:func:`collect_metrics` reads nothing the lean policy drops, so per-round
history would be allocated and thrown away (see ``docs/PERFORMANCE.md``).  Callers that need the
history of one run use :func:`repro.core.execution.run_execution` or
:func:`repro.obs.ledger.record_run` directly.

``ledger_dir=`` writes run provenance — one :class:`repro.obs.ledger.RunManifest`
line per cell plus a sweep index line, appended to the directory's
``manifests.ndjson`` — after the cells return, so every
sweep output stays attributable to the seeds/config/version that produced
it (see the "Run ledger" section of ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

if TYPE_CHECKING:
    from repro.obs.ledger import SweepManifest

from repro.analysis.metrics import RunMetrics, collect_metrics, success_rate
from repro.core.execution import (
    METRICS_RECORDING,
    FaultyChannelLike,
    run_execution,
)
from repro.core.goals import Goal
from repro.core.strategy import ServerStrategy, UserStrategy
from repro.obs.counters import CounterSet
from repro.obs.tracer import Tracer


@dataclass(frozen=True)
class CellTelemetry:
    """Counter totals for one sweep cell, aggregated over its seeds.

    ``counters`` preserves the tracer's creation order as an immutable
    tuple of ``(name, value)`` pairs; :meth:`as_dict` re-inflates it
    (once — the dict is cached on first use).  User-level counters
    (``switches``, ``sensing_negative``, …) appear only when the swept
    user exposes a ``tracer`` attribute (the universal users do).
    """

    counters: Tuple[Tuple[str, int], ...]
    _dict_cache: Optional[Dict[str, int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @staticmethod
    def from_counters(counters: CounterSet) -> "CellTelemetry":
        return CellTelemetry(
            counters=tuple(
                (name, value)
                for name, value in counters.snapshot().items()
                if isinstance(value, int)
            )
        )

    def as_dict(self) -> Dict[str, int]:
        """The counters as a name→value dict (built once, then cached)."""
        cached = self._dict_cache
        if cached is None:
            cached = dict(self.counters)
            # Frozen dataclass: route the one-time cache fill around the
            # immutability guard.  The cache never affects eq/hash/repr.
            object.__setattr__(self, "_dict_cache", cached)
        return cached

    def get(self, name: str, default: int = 0) -> int:
        return self.as_dict().get(name, default)


def merge_telemetry(
    telemetries: Sequence[Optional[CellTelemetry]],
) -> CellTelemetry:
    """Fold per-cell counter totals into sweep-wide totals.

    Counter order follows first appearance across the inputs, so merging
    the cells of a parallel sweep (whatever order the workers finished
    in, since cells are returned in deterministic cell order) equals
    merging the serial sweep's cells.  ``None`` entries (cells swept with
    ``telemetry=False``) are skipped.
    """
    totals: Dict[str, int] = {}
    for telemetry in telemetries:
        if telemetry is None:
            continue
        for name, value in telemetry.counters:
            totals[name] = totals.get(name, 0) + value
    return CellTelemetry(counters=tuple(totals.items()))


@dataclass(frozen=True)
class SweepCell:
    """All runs of one (user, server) pairing.

    ``channel_name`` names the fault-channel configuration the cell ran
    under (``None`` = perfect link), distinguishing the cells of a
    ``faults=`` sweep that share a server.
    """

    user_name: str
    server_name: str
    runs: Tuple[RunMetrics, ...]
    telemetry: Optional[CellTelemetry] = None
    channel_name: Optional[str] = None
    #: Wall/CPU seconds the cell took where it ran (its worker process for
    #: parallel sweeps).  Excluded from equality — the determinism contract
    #: (`parallel == serial`) is about *results*, never timing — and read
    #: by the run ledger (see :func:`sweep`'s ``ledger_dir``).
    wall_time_s: float = field(default=0.0, compare=False)
    cpu_time_s: float = field(default=0.0, compare=False)

    @property
    def success_rate(self) -> float:
        return success_rate(self.runs)

    @property
    def all_achieved(self) -> bool:
        return all(m.achieved for m in self.runs)

    def mean_rounds(self) -> float:
        achieved = [m.rounds for m in self.runs if m.achieved]
        if not achieved:
            return float("nan")
        return sum(achieved) / len(achieved)


@dataclass(frozen=True)
class SweepResult:
    """A full user × server-class sweep."""

    goal_name: str
    cells: Tuple[SweepCell, ...]

    @property
    def universal_success(self) -> bool:
        """Did the user succeed with *every* server, on *every* seed?

        This is the paper's universality statement, checked literally.
        """
        return all(cell.all_achieved for cell in self.cells)

    def failures(self) -> List[SweepCell]:
        return [cell for cell in self.cells if not cell.all_achieved]


@dataclass(frozen=True)
class CellTask:
    """One sweep cell as a self-contained, picklable work item.

    Everything a worker needs to reproduce the cell: the strategies, the
    goal, the seed schedule, and the knobs.  Pickling the task is what
    gives a process worker its *fresh* user/server/goal instances — the
    shared-nothing guarantee — so every object reachable from a task must
    be picklable for :class:`~repro.analysis.parallel.ProcessExecutor`
    (module-level predicates instead of lambdas in sensing and referees).
    """

    index: int
    user: UserStrategy
    server: ServerStrategy
    goal: Goal
    seeds: Tuple[int, ...]
    max_rounds: int
    telemetry: bool
    channel: Optional[FaultyChannelLike] = None

    def run(self) -> SweepCell:
        """Execute the cell in the current process."""
        return _run_cell(
            self.user, self.server, self.goal, self.seeds,
            self.max_rounds, self.telemetry, self.channel,
        )


def _run_cell(
    user: UserStrategy,
    server: ServerStrategy,
    goal: Goal,
    seeds: Sequence[int],
    max_rounds: int,
    telemetry: bool,
    channel: Optional[FaultyChannelLike] = None,
) -> SweepCell:
    """One (user, server) cell: all seeds, optional shared-tracer telemetry."""
    counters = CounterSet() if telemetry else None
    tracer = None if counters is None else Tracer(counters=counters)
    # Universal users expose a public, reassignable ``tracer`` attribute;
    # borrow it for the cell so user-level events land in the same counters.
    user_traced = telemetry and hasattr(user, "tracer")
    saved = user.tracer if user_traced else None
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    if user_traced:
        user.tracer = tracer
    try:
        runs = []
        for seed in seeds:
            execution = run_execution(
                user, server, goal.world,
                max_rounds=max_rounds, seed=seed, tracer=tracer,
                recording=METRICS_RECORDING, channel=channel,
                referee=goal.referee,
            )
            runs.append(collect_metrics(execution, goal))
    finally:
        if user_traced:
            user.tracer = saved
    return SweepCell(
        user_name=user.name,
        server_name=server.name,
        runs=tuple(runs),
        telemetry=None if counters is None else CellTelemetry.from_counters(counters),
        channel_name=None if channel is None else getattr(channel, "name", "channel"),
        wall_time_s=round(time.perf_counter() - wall_start, 6),
        cpu_time_s=round(time.process_time() - cpu_start, 6),
    )


def sweep(
    user: UserStrategy,
    servers: Sequence[ServerStrategy],
    goal: Goal,
    *,
    seeds: Sequence[int] = (0, 1, 2),
    max_rounds: int = 2000,
    telemetry: bool = False,
    executor: Optional["SweepExecutorLike"] = None,
    batch: Optional[int] = None,
    faults: Optional[Sequence[Optional[FaultyChannelLike]]] = None,
    ledger_dir: Optional[Union[str, Path]] = None,
    certify: bool = False,
) -> SweepResult:
    """Run ``user`` against every server under every seed.

    ``telemetry=True`` additionally aggregates per-cell counters (see
    :class:`CellTelemetry`); it does not change any run's outcome.
    ``executor`` dispatches the cells (``None`` = in-process, in order;
    see :mod:`repro.analysis.parallel` for the process-pool backend) —
    cells are independent, so every backend returns the same result.
    ``batch=N`` is shorthand for
    ``executor=repro.analysis.batch.BatchExecutor(width=N)`` — the
    batched backend that vectorizes table-compilable casts N cells at a
    time and runs the rest serially (see ``docs/PERFORMANCE.md``);
    passing both ``executor`` and ``batch`` is a ``ValueError``.

    ``faults`` adds a degradation axis: a sequence of fault-channel
    configurations (``None`` entries mean a perfect link), crossed with
    the server class — the sweep covers ``len(servers) × len(faults)``
    cells, server-major, each tagged with its
    :attr:`SweepCell.channel_name`.  Omitting ``faults`` keeps the
    classical one-cell-per-server sweep.

    ``ledger_dir`` writes run provenance (see :mod:`repro.obs.ledger`) to
    the directory's ``manifests.ndjson``: one manifest line per cell —
    seeds, goal, user, server, channel (fault schedule included),
    recording policy (always ``"metrics"``), rounds, wall/CPU time — and
    then a :class:`~repro.obs.ledger.SweepManifest` index line listing the
    cells' run ids, so a directory of sweep outputs is self-describing.
    Ledger writing happens after the cells return and never changes any
    result.

    ``certify=True`` (requires ``ledger_dir``) re-checks the written
    ledger's integrity — a cell line before the index for every cell it
    lists, and the index's ``cells_sha256`` digest matching — raising
    :class:`repro.obs.certify.CertificationError` on any mismatch.
    """
    if certify and ledger_dir is None:
        raise ValueError("sweep(certify=True) requires ledger_dir")
    executor = _resolve_executor(executor, batch)
    channels = list(faults) if faults is not None else [None]
    tasks = [
        CellTask(
            index=i * len(channels) + j, user=user, server=server, goal=goal,
            seeds=tuple(seeds), max_rounds=max_rounds,
            telemetry=telemetry, channel=chan,
        )
        for i, server in enumerate(servers)
        for j, chan in enumerate(channels)
    ]
    wall_start = time.perf_counter()
    result = SweepResult(goal_name=goal.name, cells=tuple(_dispatch(tasks, executor)))
    if ledger_dir is not None:
        _write_sweep_ledger(
            result, tasks, Path(ledger_dir), time.perf_counter() - wall_start,
            backend=(
                "serial"
                if executor is None
                else getattr(executor, "backend_name", type(executor).__name__)
            ),
            batch_width=getattr(executor, "batch_width", None),
        )
        if certify:
            from repro.obs.certify import certify_sweep

            certify_sweep(Path(ledger_dir))
    return result


def _resolve_executor(
    executor: Optional["SweepExecutorLike"], batch: Optional[int]
) -> Optional["SweepExecutorLike"]:
    """Turn the ``batch=`` shorthand into a batched executor.

    Lazy import: sweeps that never batch (the default path) must not load
    the batch backend.
    """
    if batch is None:
        return executor
    if executor is not None:
        raise ValueError("pass either executor= or batch=, not both")
    from repro.analysis.batch import BatchExecutor

    return BatchExecutor(width=batch)


def _write_sweep_ledger(
    result: SweepResult,
    tasks: Sequence[CellTask],
    directory: Path,
    wall_time_s: float,
    *,
    backend: str = "serial",
    batch_width: Optional[int] = None,
) -> "SweepManifest":
    """One manifest line per cell, then the sweep index line after them.

    Runs in the parent after the executor returns, so the stream has one
    writer even for pool sweeps.  Deliberately a lazy import: the ledger
    is analysis-side code, and sweeps without ``ledger_dir`` (the hot
    path) must not load it.
    """
    from repro.obs.certify import sweep_cells_digest
    from repro.obs.ledger import (
        MANIFEST_STREAM,
        RunManifest,
        SweepManifest,
        git_sha,
        write_manifest,
    )

    sha = git_sha()
    stream = directory / MANIFEST_STREAM
    cell_ids: List[str] = []
    cell_lines: List[bytes] = []
    for task, cell in zip(tasks, result.cells):
        manifest = RunManifest(
            kind="cell",
            goal=result.goal_name,
            user=cell.user_name,
            server=cell.server_name,
            channel=cell.channel_name,
            recording=METRICS_RECORDING.label,
            seeds=task.seeds,
            max_rounds=task.max_rounds,
            rounds=sum(m.rounds for m in cell.runs),
            achieved=sum(1 for m in cell.runs if m.achieved),
            halted=sum(1 for m in cell.runs if m.halted),
            wall_time_s=cell.wall_time_s,
            cpu_time_s=cell.cpu_time_s,
            git_sha=sha,
        )
        write_manifest(manifest, stream)
        cell_ids.append(manifest.run_id())
        cell_lines.append(manifest.to_json().encode("utf-8"))
    sweep_manifest = SweepManifest(
        goal=result.goal_name,
        user=tasks[0].user.name if tasks else "",
        cells=tuple(cell_ids),
        seeds=tasks[0].seeds if tasks else (),
        max_rounds=tasks[0].max_rounds if tasks else 0,
        cells_sha256=sweep_cells_digest(cell_lines),
        wall_time_s=round(wall_time_s, 6),
        git_sha=sha,
        backend=backend,
        batch_width=batch_width,
    )
    write_manifest(sweep_manifest, stream)
    return sweep_manifest


def sweep_goals(
    user_factory: Callable[[], UserStrategy],
    pairs: Sequence[Tuple[Goal, ServerStrategy]],
    *,
    seeds: Sequence[int] = (0, 1),
    max_rounds: int = 2000,
    telemetry: bool = False,
    executor: Optional["SweepExecutorLike"] = None,
    batch: Optional[int] = None,
) -> List[SweepCell]:
    """Sweep over (goal, server) pairs — for world-class non-determinism.

    Used when the adversary picks the *world* too (e.g. one control goal
    per hidden law): each pair gets a fresh user instance from the factory.
    ``batch=`` selects the batched backend exactly as in :func:`sweep`.
    """
    executor = _resolve_executor(executor, batch)
    tasks = [
        CellTask(
            index=i, user=user_factory(), server=server, goal=goal,
            seeds=tuple(seeds), max_rounds=max_rounds,
            telemetry=telemetry,
        )
        for i, (goal, server) in enumerate(pairs)
    ]
    return _dispatch(tasks, executor)


def _dispatch(
    tasks: Sequence[CellTask], executor: Optional["SweepExecutorLike"]
) -> List[SweepCell]:
    """Run the tasks on the chosen backend, results in cell order."""
    if executor is None:
        return [task.run() for task in tasks]
    return executor.map_cells(tasks)


@runtime_checkable
class SweepExecutorLike(Protocol):
    """Structural interface for ``executor=`` arguments.

    Concrete executors live in :mod:`repro.analysis.parallel`; anything
    with a conforming ``map_cells`` works — a Protocol, so custom
    backends need not inherit from anything and ``mypy --strict`` checks
    both implementations and call sites.  A backend may only change
    *where* cells run, never what they compute (the determinism contract
    tested by ``tests/analysis/test_parallel.py``).
    """

    def map_cells(self, tasks: Sequence[CellTask]) -> List[SweepCell]:
        """Run every task; return the cells sorted by ``task.index``."""
        ...
