"""End-to-end and per-layer benchmark of the ``repro`` package.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep|serve-burst|serve-open|all \\
        [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` first repeats that untraced pass, then runs the same work
again with the layer proxies and patches of ``layers.py`` installed, and
reports the per-layer metrics (and the tracing overhead between the two).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same figures, the raw unscaled times and the checks for people.
``--workload all`` runs each workload in a fresh interpreter of its own.

Times are read on the process CPU clock and scaled to a nominal core by
the reference loop of ``calibrate.py``, run beside every pass; the serve
workloads' latencies are stamped from each arrival's due time, and the
open loop's schedule pauses while the core is taken away (see
``workloads.py``).  The exit code is 0 only when
every correctness check passed: verdict digests equal across passes and
between the traced and untraced pass, Theorem 1's ``universal_success`` on
every sweep, no failed session, and every ``serve-open`` certificate green.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from calibrate import SpeedSampler, speed_factor
from layers import PER_LAYER, TIME_UNITS, Probe, layer_metrics
from spans import GcPauses, median, percentile

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "serve-burst", "serve-open")
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPS = 3

END_TO_END = (
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Outcome:
    """One workload's verdict and figures."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def cpu_s() -> float:
    """CPU seconds of this process and its waited-for children so far."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def timed_setups(setup: Callable[[], Any], import_s: float) -> Tuple[float, Any]:
    """Scaled set-up CPU seconds (imports + median set-up), last result."""
    speeds = [speed_factor()]
    times = []
    result = None
    for _ in range(SETUP_REPS):
        start = cpu_s()
        result = setup()
        times.append(cpu_s() - start)
    speeds.append(speed_factor())
    return (import_s + median(times)) * sum(speeds) / len(speeds), result


def gc_note(label: str, pauses: GcPauses) -> str:
    return (
        f"gc ({label}): {len(pauses.pauses_ns)} pauses, "
        f"{pauses.total_ms:.1f} ms total, {pauses.max_ms:.1f} ms max, "
        f"{pauses.gen2_collections} gen2"
    )


def end_to_end(
    out: Outcome, throughput: float, latencies_ms: List[float], setup_s: float
) -> None:
    """The end-to-end figures, every time already scaled to the nominal core."""
    out.metrics = {
        "throughput_per_s": throughput,
        "latency_p50_ms": percentile(latencies_ms, 50.0),
        "latency_p99_ms": percentile(latencies_ms, 99.0),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def samples_note(latencies_ms: List[float]) -> str:
    beyond = len(latencies_ms) - math.ceil(0.99 * len(latencies_ms))
    return f"{len(latencies_ms)} latency samples, {beyond} beyond p99"


def per_layer(
    out: Outcome, metrics: Dict[str, float], speed: float, cpu_s: float, wall_s: float
) -> None:
    """Scale the time-valued layer metrics; name the uncovered share."""
    scale = {unit: speed for unit in TIME_UNITS}
    scale["1/s"] = 1.0 / speed
    out.metrics = {name: metrics[name] * scale.get(unit, 1.0) for name, unit in PER_LAYER}
    covered = metrics["trace.coverage_frac"]
    off_cpu = max(0.0, 1.0 - cpu_s / wall_s)
    out.notes.append(
        f"traced pass: {wall_s:.2f} s wall, {cpu_s:.2f} s CPU, speed {speed:.3f}; "
        f"spans cover {covered:.1%} of the wall time; the process was off the "
        f"CPU {off_cpu:.1%} (idle between arrivals, or the core taken away) and "
        f"the other {max(0.0, 1.0 - covered - off_cpu):.1%} ran outside every "
        f"span (event loop, scheduler between slices, the benchmark's load generator)"
    )


# ---------------------------------------------------------------------------
# workloads


def run_sweep(seed: int, seconds: float, trace: bool, import_s: float) -> Outcome:
    import workloads as w

    out = Outcome()

    def setup() -> Any:
        grid = w.sweep_grid(seed, w.Plain())
        w.sweep_pass(grid, grid.servers[:1])  # warm-up: one cell, all seeds
        return grid

    setup_s, grid = timed_setups(setup, import_s)
    # Every cell's scaled seconds per run on every pass; a cell's figure is
    # its median pass.
    cell_s: Dict[str, List[float]] = {}
    speeds: List[float] = []
    cpu_s = 0.0
    digests = set()
    untraced_edge = speed_factor()
    with GcPauses() as pauses, SpeedSampler() as sampler:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(speeds) < 3:
            start, cpu_start = time.perf_counter(), time.process_time()
            result = w.sweep_pass(grid)
            cpu_s += time.process_time() - cpu_start
            speeds.append(sampler.mean(start, time.perf_counter()) or speed_factor())
            for cell in result.cells:
                # Scale each cell by the samples taken while it ran.
                end = start + cell.wall_time_s
                speed = sampler.mean(start - sampler.interval, end + sampler.interval)
                cell_s.setdefault(cell.server_name, []).append(
                    cell.cpu_time_s * (speed or speeds[-1]) / len(grid.seeds)
                )
                start = end
            out.check(result.universal_success, "sweep: universal_success is False")
            digests.add(w.verdict_digest(w.sweep_verdicts(result)))
    untraced_edge = (untraced_edge + speed_factor()) / 2
    passes = len(speeds)
    out.attempted = passes * grid.cells
    out.check(len(digests) == 1, f"sweep: {len(digests)} distinct verdict digests")
    out.notes.append(
        f"verdict digest {min(digests)[:16]} over {passes} passes of "
        f"{grid.cells} cells; failed_frac {out.failed / out.attempted:.4f}"
    )
    out.notes.append(gc_note("untraced", pauses))
    if not trace:
        run_s = [median(times) for times in cell_s.values()]
        end_to_end(out, len(run_s) / sum(run_s), [x * 1000.0 for x in run_s], setup_s)
        out.notes.append(
            f"{len(run_s)} grid cells, each the median of {passes} passes, per "
            f"(server, seed) run; speed {min(speeds):.3f}-{max(speeds):.3f} of nominal"
        )
        return out

    probe = Probe()
    traced_grid = w.sweep_grid(seed, probe)
    traced_digests = set()
    before = speed_factor()
    with GcPauses() as traced_pauses, probe.patched():
        start, cpu_start = time.perf_counter(), time.process_time()
        for _ in range(passes):
            result = w.sweep_pass(traced_grid)
            out.check(result.universal_success, "traced sweep: universal_success is False")
            traced_digests.add(w.verdict_digest(w.sweep_verdicts(result)))
        traced_wall = time.perf_counter() - start
        traced_cpu = time.process_time() - cpu_start
    speed = (before + speed_factor()) / 2
    out.attempted += passes * grid.cells
    out.check(traced_digests == digests, "traced sweep changed the verdict digest")
    out.notes.append(gc_note("traced", traced_pauses))
    metrics = layer_metrics(
        probe, cells=passes * grid.cells, sessions=0,
        traced_wall_s=traced_wall, traced_cpu_s=traced_cpu * speed,
        untraced_cpu_s=cpu_s * untraced_edge, gc_pauses=pauses,
    )
    per_layer(out, metrics, speed, traced_cpu, traced_wall)
    return out


def run_serve(
    workload: str, seed: int, seconds: float, trace: bool, import_s: float, scratch: Path
) -> Outcome:
    import workloads as w

    out = Outcome()
    open_loop = workload == "serve-open"
    if not open_loop:
        sessions = w.BURST_SESSIONS

        def build(wrap: Any) -> List[Any]:
            return w.mixed_fleet(seed, sessions, wrap, max_rounds=w.BURST_HORIZON)

        run_pass: Callable[..., Any] = w.serve_burst

        def warm(fleet: List[Any]) -> None:
            w.serve_burst(fleet[:60])

    else:
        # Enough arrivals for ten samples beyond p99 at the fixed rate.
        sessions = max(1000, math.ceil(w.OPEN_RATE * seconds))

        def build(wrap: Any) -> List[Any]:
            return w.mixed_fleet(
                seed, sessions, wrap, max_rounds=w.OPEN_HORIZON, drop=w.OPEN_DROP
            )

        def run_pass(fleet: List[Any]) -> Any:
            return w.serve_open(fleet, w.OPEN_RATE, scratch)

        def warm(fleet: List[Any]) -> None:
            # Ten times the rate: the schedule is not what is warmed up.
            w.serve_open(fleet[:30], 10 * w.OPEN_RATE, scratch)

    def setup() -> List[Any]:
        fleet = build(w.Plain())
        warm(fleet)  # engine start included
        return fleet

    def passes(fleet: List[Any], count: int, sampler: Any = None) -> List[Any]:
        """``count`` passes, or (count 0) as many as ``seconds`` holds, >= 2."""
        runs: List[Any] = []
        deadline = time.perf_counter() + seconds
        while (
            len(runs) < count
            if count
            else time.perf_counter() < deadline or len(runs) < 2
        ):
            runs.append(run_pass(fleet, sampler) if sampler else run_pass(fleet))
        return runs

    setup_s, fleet = timed_setups(setup, import_s)
    # Speed at either end of the untraced and of the traced passes, the same
    # way for both: what the tracing overhead is scaled by.
    untraced_edge = speed_factor()
    with GcPauses() as pauses:
        if open_loop:
            runs = passes(fleet, 1)
        else:
            # Sampling slices into the engine's work: only where throughput,
            # not per-session latency, is the point.
            with SpeedSampler() as sampler:
                runs = passes(fleet, 0, sampler)
    untraced_edge = (untraced_edge + speed_factor()) / 2
    digests = {w.verdict_digest(run.verdicts) for run in runs}
    out.attempted = sum(run.sessions for run in runs)
    out.failed = sum(run.failed for run in runs)
    out.check(out.failed == 0, f"{workload}: {out.failed} sessions failed")
    out.check(len(digests) == 1, f"{workload}: {len(digests)} distinct verdict digests")
    achieved = sum(1 for _, ok, _ in runs[0].verdicts if ok)
    out.notes.append(
        f"verdict digest {min(digests)[:16]} over {len(runs)} passes of "
        f"{sessions} sessions ({achieved} achieved); failed_frac "
        f"{out.failed / out.attempted:.4f}"
    )
    if open_loop:
        lag = percentile(runs[0].lag_ms, 99.0)
        out.notes.append(
            f"offered {w.OPEN_RATE:g} sessions/s; generator lag p99 {lag:.2f} ms; "
            f"{runs[0].settled} certificates passed"
        )
    out.notes.append(gc_note("untraced", pauses))
    if not trace:
        # The median pass by throughput, with its latencies.  A burst keeps
        # the process busy, so its throughput is read on the CPU clock and
        # scaled; an open loop's throughput is its offered rate.
        def throughput(run: Any) -> float:
            if open_loop:
                return run.settled / run.wall_s
            return run.settled / (run.cpu_s * run.speed)

        pick = sorted(runs, key=throughput)[(len(runs) - 1) // 2]
        end_to_end(out, throughput(pick), pick.scaled_latency_ms, setup_s)
        out.notes.append(
            f"wall clock: {pick.settled / pick.wall_s:.4g}/s, p50 "
            f"{percentile(pick.latency_ms, 50.0):.4g} ms, p99 "
            f"{percentile(pick.latency_ms, 99.0):.4g} ms; speed {pick.speed:.3f} "
            f"of nominal; {samples_note(pick.latency_ms)}"
        )
        return out

    probe = Probe()
    traced_fleet = build(probe)
    before = speed_factor()
    with GcPauses() as traced_pauses, probe.patched():
        traced = passes(traced_fleet, len(runs))
    speed = (before + speed_factor()) / 2
    out.attempted += sum(run.sessions for run in traced)
    traced_failed = sum(run.failed for run in traced)
    out.failed += traced_failed
    out.check(traced_failed == 0, f"traced {workload}: {traced_failed} sessions failed")
    out.check(
        {w.verdict_digest(run.verdicts) for run in traced} == digests,
        f"traced {workload} changed the verdict digest",
    )
    out.notes.append(gc_note("traced", traced_pauses))
    traced_wall = sum(run.wall_s for run in traced)
    traced_cpu = sum(run.cpu_s for run in traced)
    metrics = layer_metrics(
        probe, cells=0, sessions=sum(run.sessions for run in traced),
        traced_wall_s=traced_wall, traced_cpu_s=traced_cpu * speed,
        untraced_cpu_s=sum(run.cpu_s for run in runs) * untraced_edge,
        gc_pauses=pauses,
        trace_bytes=sum(run.trace_bytes for run in traced),
        lag_ms=[x for run in traced for x in run.lag_ms],
        open_high_water=max(run.open_high_water for run in traced),
    )
    per_layer(out, metrics, speed, traced_cpu, traced_wall)
    return out


# ---------------------------------------------------------------------------
# command line


def report(out: Outcome, workload: str, trace: bool) -> Dict[str, Any]:
    units = dict(PER_LAYER if trace else END_TO_END)
    print(f"# {workload} ({'traced' if trace else 'untraced'})")
    for note in out.notes:
        print(f"#   {note}")
    for name, value in out.metrics.items():
        print(f"{name:<28} {value:>16.6g} {units[name]}")
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}")
    return {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in out.metrics.items()
        },
    }


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh interpreter; fails if any of them fails."""
    status = 0
    results = {}
    for workload in WORKLOADS:
        completed = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            status = 1
            continue
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import repro.analysis.runner  # noqa: F401
    import repro.obs.certify  # noqa: F401
    import repro.serve.engine  # noqa: F401

    import_s = cpu_s()  # from interpreter start, through the imports
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        if args.workload == "sweep":
            out = run_sweep(args.seed, args.seconds, bool(args.trace), import_s)
        else:
            out = run_serve(
                args.workload, args.seed, args.seconds, bool(args.trace), import_s, scratch
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = report(out, args.workload, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
