"""The traced pass: proxies and patches wired to one recorder, and the
per-layer metrics computed from what they saw.

:class:`Probe` hands the workload builders timed proxies for every object
the benchmark gives the program, and :meth:`Probe.patched` swaps these
public entry points for timed versions while the traced pass runs:

* ``repro.analysis.runner.sweep`` (layer ``analysis``) and the
  ``run_execution`` it calls (``core``);
* ``CompactGoal.evaluate`` / ``FiniteGoal.evaluate`` (``core.goals``);
* ``ServeEngine.submit`` (``serve.admit``), ``Session.step`` (``core``:
  the slice of rounds) and ``Session.close`` (``serve.close``);
* ``Tracer.emit`` (``obs.emit``), ``write_manifest`` and ``file_sha256``
  (``obs.manifest``), ``certify_run`` (``obs.certify``) -- ``Session.close``
  imports the last three at call time, so patching their modules reaches it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from spans import (
    FaultStats,
    GcPauses,
    Patches,
    SensingStats,
    SpanRecorder,
    TimedChannel,
    TimedSensing,
    TimedStrategy,
    clock,
    percentile,
)

#: Party-step layers, keyed by the ``repro`` subpackage of the strategy.
PARTY_LAYERS = ("users", "servers", "worlds", "machines")


class Probe:
    """One traced pass: recorder, proxy statistics and serve bookkeeping."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.sensing_stats = SensingStats()
        self.fault_stats = FaultStats()
        # serve: when each session last became runnable, and the waits.
        self._ready_at: Dict[int, int] = {}
        self.queue_wait_ns: List[int] = []
        self.certified_events = 0
        self.rounds = 0
        # universal users: (final-trial rounds, total rounds, switches).
        self.universal_runs: List[Tuple[int, int, int]] = []

    # -- proxies handed to the builders --------------------------------
    def strategy(self, strategy: Any) -> TimedStrategy:
        return TimedStrategy(strategy, self.recorder)

    def sensing(self, sensing: Any) -> TimedSensing:
        return TimedSensing(sensing, self.recorder, self.sensing_stats)

    def channel(self, channel: Any) -> TimedChannel:
        return TimedChannel(channel, self.recorder, self.fault_stats)

    def _note_execution(self, execution: Any) -> None:
        from repro.universal.compact import CompactUniversalState

        self.rounds += execution.rounds_executed
        state = execution.final_user_state
        if isinstance(state, CompactUniversalState):
            self.universal_runs.append(
                (state.rounds_in_trial, state.total_rounds, state.switches)
            )

    # -- patched entry points ------------------------------------------
    def patched(self) -> Patches:
        import repro.analysis.runner as runner
        import repro.obs.certify as certify
        import repro.obs.ledger as ledger
        from repro.core.goals import CompactGoal, FiniteGoal
        from repro.obs.tracer import Tracer
        from repro.serve.engine import ServeEngine
        from repro.serve.session import Session

        rec = self.recorder
        patches = Patches()
        patches.set(runner, "sweep", rec.timed("analysis", runner.sweep))

        run_execution = rec.timed("core", runner.run_execution)

        def traced_run_execution(*args: Any, **kwargs: Any) -> Any:
            execution = run_execution(*args, **kwargs)
            self._note_execution(execution)
            return execution

        patches.set(runner, "run_execution", traced_run_execution)
        for goal_class in (CompactGoal, FiniteGoal):
            patches.set(
                goal_class, "evaluate", rec.timed("core.goals", goal_class.evaluate)
            )
        patches.set(Tracer, "emit", rec.timed("obs.emit", Tracer.emit))
        patches.set(
            ledger, "write_manifest", rec.timed("obs.manifest", ledger.write_manifest)
        )
        patches.set(
            ledger, "file_sha256", rec.timed("obs.manifest", ledger.file_sha256)
        )
        certify_run = rec.timed("obs.certify", certify.certify_run)

        def traced_certify_run(*args: Any, **kwargs: Any) -> Any:
            report = certify_run(*args, **kwargs)
            self.certified_events += report.events
            return report

        patches.set(certify, "certify_run", traced_certify_run)

        submit = ServeEngine.submit
        admit = rec.layer("serve.admit")
        ready_at = self._ready_at

        async def traced_submit(engine: Any, spec: Any, **kwargs: Any) -> Any:
            depth = rec.depth
            start = rec.open()
            try:
                # Never parks at the benchmark's max_open, so no other task
                # runs inside this span and the span stack stays nested.
                handle = await submit(engine, spec, **kwargs)
            finally:
                if rec.depth != depth + 1:
                    raise RuntimeError("submit parked: span stack interleaved")
                rec.close(admit, start)
            ready_at[id(handle.session)] = clock()
            return handle

        patches.set(ServeEngine, "submit", traced_submit)

        step = rec.timed("core", Session.step)
        waits = self.queue_wait_ns

        def traced_step(session: Any, rounds: int = 1) -> int:
            began = clock()
            waits.append(began - ready_at[id(session)])
            try:
                return step(session, rounds)
            finally:
                ready_at[id(session)] = clock()

        patches.set(Session, "step", traced_step)

        close = rec.timed("serve.close", Session.close)

        def traced_close(session: Any) -> Any:
            ready_at.pop(id(session), None)
            outcome = close(session)
            self._note_execution(outcome.execution)
            return outcome

        patches.set(Session, "close", traced_close)
        return patches


#: Units of the metrics that are scaled by the machine speed like times.
TIME_UNITS = frozenset({"ns", "us", "ms", "s"})

#: Every per-layer metric with its unit, in report order.
PER_LAYER = (
    ("analysis.cell_self_ms", "ms"),
    ("core.rounds", "count"),
    ("core.round_self_ns", "ns"),
    ("core.evaluate_ms", "ms"),
    *((f"{layer}.step_ns", "ns") for layer in PARTY_LAYERS),
    ("universal.step_self_ns", "ns"),
    ("universal.switches", "count"),
    ("universal.useful_frac", "fraction"),
    ("sensing.observe_ns", "ns"),
    ("sensing.negative_frac", "fraction"),
    ("faults.apply_ns", "ns"),
    ("faults.altered_frac", "fraction"),
    ("obs.emit_ns", "ns"),
    ("obs.events_per_session", "count"),
    ("obs.trace_kb_per_session", "KiB"),
    ("obs.manifest_us", "us"),
    ("obs.certify_ms", "ms"),
    ("obs.certify_events_per_s", "1/s"),
    ("serve.admit_us", "us"),
    ("serve.slice_us", "us"),
    ("serve.close_ms", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.busy_frac", "fraction"),
    ("serve.open_high_water", "count"),
    ("loadgen.lag_ms_p99", "ms"),
    ("gc.pause_ms_total", "ms"),
    ("gc.pause_ms_max", "ms"),
    ("gc.gen2_collections", "count"),
    ("trace.coverage_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
)


def layer_metrics(
    probe: Probe,
    *,
    cells: int,
    sessions: int,
    traced_wall_s: float,
    traced_cpu_s: float,
    untraced_cpu_s: float,
    gc_pauses: GcPauses,
    trace_bytes: int = 0,
    lag_ms: Sequence[float] = (),
    open_high_water: int = 0,
) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER` from one traced pass.

    A layer the workload never calls reads 0.  ``cells`` counts sweep cell
    runs and ``sessions`` served sessions.  Coverage divides Σ self time by
    the traced wall time; overhead compares process CPU time of the traced
    and untraced passes (an open loop's wall time is set by its schedule).
    """
    rec = probe.recorder
    rounds = probe.rounds
    universal = probe.universal_runs
    universal_rounds = sum(total for _, total, _ in universal)
    sensing = probe.sensing_stats
    faults = probe.fault_stats
    certify_s = rec.total_ns("obs.certify") / 1e9
    waits_ms = [w / 1e6 for w in probe.queue_wait_ns]
    serve_busy_ns = (
        rec.total_ns("serve.admit") + rec.total_ns("serve.close")
        + (rec.total_ns("core") if sessions else 0)
    )
    metrics: Dict[str, float] = {
        "analysis.cell_self_ms": _ratio(rec.self_ns("analysis") / 1e6, cells),
        "core.rounds": float(rounds),
        "core.round_self_ns": _ratio(rec.self_ns("core"), rounds),
        "core.evaluate_ms": rec.per_call_ns("core.goals") / 1e6,
    }
    for layer in PARTY_LAYERS:
        metrics[f"{layer}.step_ns"] = rec.per_call_ns(layer)
    metrics.update(
        {
            "universal.step_self_ns": rec.per_call_ns("universal", own=True),
            "universal.switches": _ratio(sum(s for _, _, s in universal), len(universal)),
            "universal.useful_frac": _ratio(
                sum(final for final, _, _ in universal), universal_rounds
            ),
            "sensing.observe_ns": rec.per_call_ns("sensing"),
            "sensing.negative_frac": _ratio(sensing.negative, sensing.observed),
            "faults.apply_ns": rec.per_call_ns("faults"),
            "faults.altered_frac": _ratio(faults.altered, faults.applied),
            "obs.emit_ns": rec.per_call_ns("obs.emit"),
            "obs.events_per_session": _ratio(rec.calls("obs.emit"), sessions),
            "obs.trace_kb_per_session": _ratio(trace_bytes / 1024, sessions),
            "obs.manifest_us": _ratio(rec.total_ns("obs.manifest") / 1e3, sessions),
            "obs.certify_ms": rec.per_call_ns("obs.certify") / 1e6,
            "obs.certify_events_per_s": _ratio(probe.certified_events, certify_s),
            "serve.admit_us": rec.per_call_ns("serve.admit", own=True) / 1e3,
            "serve.slice_us": rec.per_call_ns("core") / 1e3 if sessions else 0.0,
            "serve.close_ms": rec.per_call_ns("serve.close", own=True) / 1e6,
            "serve.queue_wait_ms_p50": _pct(waits_ms, 50.0),
            "serve.queue_wait_ms_p99": _pct(waits_ms, 99.0),
            "serve.busy_frac": _ratio(serve_busy_ns / 1e9, traced_wall_s),
            "serve.open_high_water": float(open_high_water),
            "loadgen.lag_ms_p99": _pct(lag_ms, 99.0),
            "gc.pause_ms_total": gc_pauses.total_ms,
            "gc.pause_ms_max": gc_pauses.max_ms,
            "gc.gen2_collections": float(gc_pauses.gen2_collections),
            "trace.coverage_frac": rec.sum_self_ns() / 1e9 / traced_wall_s,
            "trace.overhead_frac": traced_cpu_s / untraced_cpu_s - 1.0,
        }
    )
    return metrics


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _pct(values: Sequence[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


