"""Batched sweep backend: vectorize what compiles, run the rest serially.

:class:`BatchExecutor` is the ``executor=`` backend built on
:mod:`repro.core.batch`.  It partitions a sweep's cells into two groups:

* cells whose whole cast compiles to finite-state tables over a shared
  alphabet (see :func:`repro.core.batch.compile_tabular_cast`) run on the
  **vectorized** kernel — one numpy gather per party per round across all
  slots of a chunk, which is where the 100×+ ``cells_per_s`` lives;
* everything else runs through :meth:`~repro.analysis.runner.CellTask.run`,
  exactly as :class:`~repro.analysis.parallel.SerialExecutor` runs it.

Either way the determinism contract of :mod:`repro.analysis.parallel`
holds: same seeds in, equal :class:`~repro.analysis.runner.SweepCell` out
— metrics, verdicts, telemetry totals, and cell order all match the
serial sweep (``tests/analysis/test_parallel_pool.py`` and
``tests/core/test_batch.py`` pin this cell by cell).

The vectorized tier exploits that compiled casts are RNG-free (the
:class:`~repro.core.batch.TabularStrategy` contract): every seed of a cell
produces the identical run, so the kernel executes one slot per cell and
replicates the per-seed metrics.  Its telemetry is **counters-only** —
totals equal the serial sweep's, but there is no ordered event stream (see
"Batched execution" in ``docs/PERFORMANCE.md``).

Vectorized cell timing (``wall_time_s``/``cpu_time_s``) is attributed per
chunk and split evenly across the chunk's cells — cells sharing a kernel
run have no individually measurable times.  Timing is excluded from cell
equality.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import RunMetrics
from repro.analysis.runner import CellTask, CellTelemetry, SweepCell
from repro.core.batch import (
    TabularCast,
    TabularOutcome,
    compile_tabular_cast,
    run_tabular_batch,
)

#: Default lockstep width: big enough to amortise per-round numpy/Python
#: overhead, small enough to keep per-chunk arrays cache-resident.
DEFAULT_BATCH_WIDTH = 1024


class BatchExecutor:
    """Vectorized sweep execution — satisfies ``SweepExecutorLike``.

    Parameters
    ----------
    width:
        Maximum number of compiled cells advanced together in one
        vectorized chunk.  Width changes scheduling only, never results.
    """

    #: Ledger identity (see :class:`repro.obs.ledger.SweepManifest`).
    backend_name = "batch"

    def __init__(self, width: int = DEFAULT_BATCH_WIDTH) -> None:
        if width < 1:
            raise ValueError(f"width must be >= 1: {width}")
        self._width = width

    @property
    def batch_width(self) -> int:
        return self._width

    def map_cells(self, tasks: Sequence[CellTask]) -> List[SweepCell]:
        results: List[Optional[SweepCell]] = [None] * len(tasks)
        # Vector chunks must share (alphabet, horizon, telemetry); the
        # grouping is deterministic (dict preserves first-seen order).
        vector: Dict[
            Tuple[Tuple[str, ...], int, bool],
            List[Tuple[int, CellTask, TabularCast]],
        ] = {}
        # Sweeps tile a handful of strategy objects across many cells
        # (the tasks hold references, so ids stay stable for the cache's
        # lifetime); compiling each distinct cast once turns the compile
        # cost from O(cells) into O(distinct casts).
        compiled: Dict[
            Tuple[int, int, int, int], Optional[TabularCast]
        ] = {}
        for pos, task in enumerate(tasks):
            cache_key = (
                id(task.user), id(task.server), id(task.goal), id(task.channel)
            )
            if cache_key in compiled:
                cast = compiled[cache_key]
            else:
                cast = compile_tabular_cast(
                    task.user, task.server, task.goal.world, task.goal,
                    channel=task.channel,
                )
                compiled[cache_key] = cast
            if cast is None:
                results[pos] = task.run()
            else:
                key = (cast.alphabet, task.max_rounds, task.telemetry)
                vector.setdefault(key, []).append((pos, task, cast))
        for (_, max_rounds, telemetry), entries in vector.items():
            for start in range(0, len(entries), self._width):
                _run_vector_chunk(
                    entries[start : start + self._width],
                    max_rounds, telemetry, results,
                )
        return [cell for cell in results if cell is not None]


def _vector_metrics(outcome: TabularOutcome) -> RunMetrics:
    """Exactly what ``collect_metrics`` extracts from a tabular cast's run.

    Compiled casts never halt, produce no output, and carry no
    universal-user state, so the optional fields are all ``None`` — the
    parity suite checks this equals the serial path field by field.
    """
    return RunMetrics(
        achieved=outcome.achieved,
        halted=False,
        rounds=outcome.rounds,
        bad_prefixes=outcome.bad_prefixes,
        last_bad_round=outcome.last_bad_round,
    )


def _vector_telemetry(outcome: TabularOutcome, n_seeds: int) -> CellTelemetry:
    """Reconstruct the serial tracer's counter tuple for one cell.

    Each round line bumps ``rounds``, ``messages`` and ``message_bytes``
    in that order; compiled casts are deterministic, so all seeds replay
    the first.
    """
    return CellTelemetry(
        counters=(
            ("rounds", outcome.rounds * n_seeds),
            ("messages", outcome.messages * n_seeds),
            ("message_bytes", outcome.message_bytes * n_seeds),
        )
    )


def _run_vector_chunk(
    entries: Sequence[Tuple[int, CellTask, TabularCast]],
    max_rounds: int,
    telemetry: bool,
    results: List[Optional[SweepCell]],
) -> None:
    """One vectorized lockstep chunk: one kernel slot per cell."""
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    outcomes = run_tabular_batch(
        [cast for _, _, cast in entries],
        max_rounds=max_rounds,
        count_messages=telemetry,
    )
    wall = round((time.perf_counter() - wall_start) / len(entries), 6)
    cpu = round((time.process_time() - cpu_start) / len(entries), 6)
    for (pos, task, _), outcome in zip(entries, outcomes):
        metrics = _vector_metrics(outcome)
        results[pos] = SweepCell(
            user_name=task.user.name,
            server_name=task.server.name,
            runs=tuple(metrics for _ in task.seeds),
            telemetry=(
                _vector_telemetry(outcome, len(task.seeds)) if telemetry else None
            ),
            channel_name=None,
            wall_time_s=wall,
            cpu_time_s=cpu,
        )


__all__ = ["DEFAULT_BATCH_WIDTH", "BatchExecutor"]
