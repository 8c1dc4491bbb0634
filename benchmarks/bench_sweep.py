"""Sweep-level performance: executor backends and batching.

Three questions, answered with tables and a JSON record of the figures:

1. Does the process-pool executor pay for itself?  A 4-worker sweep over
   8 independent cells must return the *same* :class:`SweepResult` as the
   serial reference — asserted unconditionally — and complete at least 2×
   faster when the machine actually has 4 cores (asserted only then:
   on a shared single-core runner the pool can only add overhead, which
   the table still reports honestly).  The executor is created once and
   reused across the timed repeats, so the number reflects the persistent
   pool, not per-call process spawning.  (Every sweep run records
   metrics only; see ``docs/PERFORMANCE.md``.)
2. What do the cells cost per second, for capacity planning.
3. What does the vectorized lockstep backend buy?  A width sweep
   (1/64/1024) over the table-compilable relay grid, with the serial
   engine on the same grid as the reference — the ≥100× claim is gated
   here against the serial universal-grid figure from the same run.

Run with ``pytest benchmarks/bench_sweep.py -s``: the figures land in
the git-ignored ``BENCH_sweep.fresh.json`` (repo root), which
``check_bench_regression.py`` compares against the committed
``BENCH_sweep.json``; a test run never rewrites the baseline.  Run
directly with ``python benchmarks/bench_sweep.py [--record
BENCH_history.jsonl]`` to re-record the committed baseline and stamp the
figures into the bench history.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conftest import emit

from repro.analysis.parallel import BatchProcessExecutor, ProcessExecutor
from repro.analysis.runner import merge_telemetry, sweep
from repro.analysis.tables import format_table
from repro.comm.codecs import codec_family
from repro.core.batch import HAVE_NUMPY
from repro.machines.tabular import (
    coded_server_class,
    relay_decoder_class,
    relay_goal,
)
from repro.servers.advisors import advisor_server_class
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.users.control_users import follower_user_class
from repro.worlds.control import control_goal, control_sensing, random_law

CODECS = codec_family(8)
LAW = random_law(random.Random(1))
GOAL = control_goal(LAW)
SERVERS = advisor_server_class(LAW, CODECS)  # 8 independent cells
HORIZON = 2000
SEEDS = (0, 1)
WORKERS = 4
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"
#: Where the bench tests write their figures unless told otherwise.
FRESH_PATH = BASELINE_PATH.with_name("BENCH_sweep.fresh.json")

#: The vectorizable relay grid (see repro.machines.tabular): one relay
#: decoder against the cyclic coded-server class, horizon as above.
RELAY_SYMBOLS = tuple("abcdefgh")
RELAY_GOAL = relay_goal(RELAY_SYMBOLS)
RELAY_SERVERS = coded_server_class(RELAY_SYMBOLS)
BATCH_WIDTHS = (1, 64, 1024)


def universal():
    return CompactUniversalUser(
        ListEnumeration(follower_user_class(CODECS), label="followers"),
        control_sensing(),
    )


def relay_user():
    return relay_decoder_class(RELAY_SYMBOLS)[0]


def relay_grid(n_cells):
    """``n_cells`` relay cells (the 8 coded servers, tiled)."""
    return [RELAY_SERVERS[i % len(RELAY_SERVERS)] for i in range(n_cells)]


def run_sweep(executor=None, telemetry=False):
    return sweep(
        universal(), SERVERS, GOAL,
        seeds=SEEDS, max_rounds=HORIZON,
        telemetry=telemetry, executor=executor,
    )


def run_relay_sweep(n_cells, batch=None, executor=None):
    return sweep(
        relay_user(), relay_grid(n_cells), RELAY_GOAL,
        seeds=SEEDS, max_rounds=HORIZON, batch=batch, executor=executor,
    )


def timed(fn, repeats=2):
    """(best wall-clock seconds, last result) — min is the noise-robust
    estimator for "how fast can this go"."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _update_figures(fields, out):
    """Merge ``fields`` into ``out`` (the bench tests compose it).

    A missing ``out`` starts from the committed baseline, so a test run
    alone still finds every figure the 100x gate reads.
    """
    source = out if out.exists() else BASELINE_PATH
    payload = json.loads(source.read_text()) if source.exists() else {}
    payload.update(fields)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_sweep_backends(out=FRESH_PATH):
    cores = os.cpu_count() or 1
    cells = len(SERVERS)

    serial_s, serial = timed(lambda: run_sweep())
    # One executor across the repeats: the second call reuses the warm
    # pool, and min() picks it — the steady-state persistent-pool figure.
    executor = ProcessExecutor(max_workers=WORKERS)
    try:
        parallel_s, parallel = timed(lambda: run_sweep(executor=executor))
    finally:
        executor.close()

    # Correctness before speed: every backend agrees exactly.
    assert parallel == serial, "process pool changed sweep results"
    assert serial.universal_success

    speedup = serial_s / parallel_s
    rows = [
        ["serial", f"{serial_s:.3f}", f"{cells / serial_s:.1f}", "1.00"],
        [
            f"process×{WORKERS}",
            f"{parallel_s:.3f}",
            f"{cells / parallel_s:.1f}",
            f"{speedup:.2f}",
        ],
    ]
    emit(
        format_table(
            ["backend", "seconds", "cells/s", "speedup"],
            rows,
            title=f"sweep throughput ({cells} cells, horizon={HORIZON}, "
                  f"{cores} cores)",
        )
    )

    _update_figures(
        {
            "cells": cells,
            "horizon": HORIZON,
            "seeds": len(SEEDS),
            "cores": cores,
            "workers": WORKERS,
            "serial_s": round(serial_s, 4),
            "cells_per_s": round(cells / serial_s, 3),
            "parallel_s": round(parallel_s, 4),
            "parallel_speedup": round(speedup, 3),
        },
        out,
    )

    # The scaling gate only means something when the cores exist.
    if cores >= WORKERS:
        assert speedup >= 2.0, (
            f"{WORKERS}-worker speedup {speedup:.2f}x < 2x on {cores} cores"
        )


def test_batched_lockstep_throughput(out=FRESH_PATH):
    """Width sweep for the vectorized lockstep backend, serial-referenced.

    Parity is asserted on the 64-cell grid (batched == serial sweep,
    cell by cell); throughput is measured per width on a grid of exactly
    ``width`` cells, so each figure is one kernel dispatch.  The ≥100×
    acceptance gate compares the widest batch against the *universal*
    serial figure recorded by the backend bench above — the committed
    capacity-planning baseline this issue targets.
    """
    if not HAVE_NUMPY:  # the serial fallback is exercised by tests/
        emit("batched bench skipped: numpy unavailable")
        return
    cores = os.cpu_count() or 1

    serial_s, serial = timed(lambda: run_relay_sweep(64), repeats=1)
    batched = run_relay_sweep(64, batch=64)
    assert batched == serial, "batched backend changed sweep results"

    relay_serial_cps = 64 / serial_s
    rows = [["serial", "-", f"{serial_s:.3f}", f"{relay_serial_cps:.1f}", "1.00"]]
    width_cps = {}
    for width in BATCH_WIDTHS:
        batch_s, _ = timed(lambda: run_relay_sweep(width, batch=width), repeats=1)
        cps = width / batch_s
        width_cps[width] = cps
        rows.append(
            [
                "batch", str(width), f"{batch_s:.3f}", f"{cps:.1f}",
                f"{cps / relay_serial_cps:.2f}",
            ]
        )
    emit(
        format_table(
            ["backend", "width", "seconds", "cells/s", "vs serial"],
            rows,
            title=f"batched relay throughput (horizon={HORIZON}, "
                  f"{len(RELAY_SYMBOLS)} symbols, {cores} cores)",
        )
    )

    top_width = max(BATCH_WIDTHS)
    batched_cps = width_cps[top_width]
    payload = _update_figures(
        {
            "relay_cells_per_s": round(relay_serial_cps, 3),
            "batched_width": top_width,
            "batched_cells_per_s": round(batched_cps, 3),
            "batched_speedup_vs_relay_serial": round(
                batched_cps / relay_serial_cps, 3
            ),
        },
        out,
    )

    # The headline gate: vectorized lockstep vs the serial capacity
    # figure (the universal grid), same machine, same run.
    universal_cps = payload.get("cells_per_s")
    if universal_cps:
        ratio = batched_cps / universal_cps
        emit(
            f"batched({top_width}) = {batched_cps:.0f} cells/s — "
            f"{ratio:.0f}x the serial universal-grid baseline "
            f"({universal_cps:.1f} cells/s)"
        )
        assert ratio >= 100.0, (
            f"vectorized path {batched_cps:.0f} cells/s is only {ratio:.1f}x "
            f"the serial baseline {universal_cps:.1f} cells/s (need >= 100x)"
        )


def test_batch_process_composes():
    """Processes × lockstep parity (and an honest timing row)."""
    if not HAVE_NUMPY:
        emit("batch-process bench skipped: numpy unavailable")
        return
    cores = os.cpu_count() or 1
    executor = BatchProcessExecutor(max_workers=2, width=512)
    try:
        bp_s, composed = timed(
            lambda: run_relay_sweep(256, executor=executor), repeats=2
        )
    finally:
        executor.close()
    reference = run_relay_sweep(256, batch=512)
    assert composed == reference, "batch-process changed sweep results"
    emit(
        f"batch-process(2 workers x width 512): 256 cells in {bp_s:.3f}s "
        f"({256 / bp_s:.0f} cells/s, {cores} cores)"
    )


def test_parallel_telemetry_totals_match_serial():
    """Telemetry merged across workers equals the serial totals."""
    serial = run_sweep(telemetry=True)
    executor = ProcessExecutor(max_workers=WORKERS)
    try:
        parallel = run_sweep(telemetry=True, executor=executor)
    finally:
        executor.close()
    serial_totals = merge_telemetry([c.telemetry for c in serial.cells])
    parallel_totals = merge_telemetry([c.telemetry for c in parallel.cells])
    assert parallel_totals == serial_totals
    assert serial_totals.get("rounds") > 0


def main(argv=None):
    """Refresh BENCH_sweep.json outside pytest; optionally record history."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record",
        type=Path,
        metavar="FILE",
        help="append the fresh figures to this bench-history JSONL file",
    )
    args = parser.parse_args(argv)
    test_sweep_backends(out=BASELINE_PATH)
    test_batched_lockstep_throughput(out=BASELINE_PATH)
    test_batch_process_composes()
    if args.record is not None:
        from check_bench_regression import record_history

        record_history(
            args.record, json.loads(BASELINE_PATH.read_text()), BASELINE_PATH
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
