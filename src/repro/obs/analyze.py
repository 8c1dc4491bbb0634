"""Trace analysis: summaries, timelines, and regression diffs.

The library behind ``python -m repro.obs`` (see ``repro/obs/__main__``).
Everything here consumes the *recorded* artefacts — JSONL traces written
by :class:`~repro.obs.sinks.JsonlSink`, manifests written by
:mod:`repro.obs.ledger`, bench history files — and produces plain-data
reports, so the same functions back the CLI's text and JSON outputs and
the test suite's assertions.

Three report shapes:

* :class:`TraceSummary` — per-event-kind counts plus the headline run
  figures (rounds, halt, message volume, fault count) of one trace, read
  off the one event fold (:class:`~repro.obs.overhead.TraceFold`) that
  the overhead accounting and the certificate checker share;
* a timeline — :func:`render_timeline` turns an event stream into one
  plain-text line per event, in stream order, for eyeballing a run;
* :class:`DiffReport` — :func:`compute_diff` compares two metric
  dictionaries (from traces, manifests, or bench-history entries) and
  flags *configured* regressions: a metric named in ``fail_on`` whose new
  value exceeds the old by more than ``tolerance`` percent.

This module is analysis-side: nothing on the tracing-off hot path
imports it (see the lazy re-exports in ``repro/obs/__init__``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.obs.events import (
    DIRECTIONS,
    Event,
    ExecutionFinished,
    ExecutionStarted,
    FaultInjected,
    GoalVerdict,
    GraceSuppressed,
    ProofFinished,
    ProofRoundChecked,
    ProofStarted,
    RoundExecuted,
    SensingIndication,
    SessionAbandoned,
    StrategySwitch,
    TrialFinished,
    TrialStarted,
)
from repro.obs.overhead import TraceSummary, fold_events
from repro.obs.sinks import first_record, iter_trace


# --------------------------------------------------------------------------
# Summaries
# --------------------------------------------------------------------------


def summarize_events(
    events: Iterable[Event],
    *,
    path: str = "<memory>",
    header: Optional[Mapping[str, Any]] = None,
) -> TraceSummary:
    """Build a :class:`TraceSummary` from an ordered event stream.

    One pass of :class:`~repro.obs.overhead.TraceFold`: any iterable
    works, including the lazy stream from
    :func:`~repro.obs.sinks.iter_trace`, so a multi-gigabyte trace is
    never materialised.
    """
    return fold_events(events).summary(path, header)


def summarize_trace(path: Union[str, Path]) -> TraceSummary:
    """Stream one JSONL trace and summarise it."""
    header, events = iter_trace(path)
    return summarize_events(events, path=str(path), header=header or None)


# --------------------------------------------------------------------------
# Timeline
# --------------------------------------------------------------------------


def _detail(event: Event) -> str:
    """One human-readable clause describing the event's payload."""
    if isinstance(event, ExecutionStarted):
        return (
            f"{event.user} vs {event.server} on {event.world} "
            f"(max_rounds={event.max_rounds}, seed={event.seed})"
        )
    if isinstance(event, RoundExecuted):
        sent = " ".join(
            f"{sender}->{receiver} {payload!r}"
            for (_, sender, receiver), payload in zip(DIRECTIONS, event.payloads)
            if payload is not None
        )
        halt = "  HALT" if event.halted else ""
        return f"{sent or 'silent'}{halt}"
    if isinstance(event, ExecutionFinished):
        return (
            f"rounds={event.rounds_executed} "
            f"{'halted' if event.halted else 'exhausted'}"
        )
    if isinstance(event, FaultInjected):
        return f"{event.fault} at {event.site}"
    if isinstance(event, SensingIndication):
        verdict = "positive" if event.positive else "NEGATIVE"
        return f"candidate {event.candidate_index}: {verdict}"
    if isinstance(event, StrategySwitch):
        wrap = ", wrapped" if event.wrapped else ""
        return (
            f"{event.from_index} -> {event.to_index} ({event.reason}{wrap})"
        )
    if isinstance(event, TrialStarted):
        budget = "open-ended" if event.budget is None else f"budget={event.budget}"
        return (
            f"trial {event.trial_number} of candidate "
            f"{event.candidate_index} ({budget})"
        )
    if isinstance(event, TrialFinished):
        return (
            f"trial {event.trial_number} of candidate "
            f"{event.candidate_index}: {event.reason} "
            f"after {event.rounds_used} round(s)"
        )
    if isinstance(event, GraceSuppressed):
        return f"grace window ({event.grace_rounds} rounds) masked a negative"
    if isinstance(event, GoalVerdict):
        verdict = "ACHIEVED" if event.achieved else "not achieved"
        evidence = (
            f", settled by prefix {event.last_bad_round}"
            if event.last_bad_round is not None
            else ""
        )
        return f"{event.goal}: {verdict} after {event.rounds} round(s){evidence}"
    if isinstance(event, ProofStarted):
        return (
            f"{event.protocol} over GF({event.modulus}), "
            f"claim {event.claimed_value}"
        )
    if isinstance(event, ProofRoundChecked):
        status = "rejected" if event.challenge is None else "passed"
        return (
            f"round {event.index}: {event.op_kind}({event.var}) "
            f"deg<={event.degree_bound} {status}"
        )
    if isinstance(event, ProofFinished):
        if event.accepted:
            return "ACCEPTED"
        return f"REJECTED ({event.reason or 'no reason recorded'})"
    if isinstance(event, SessionAbandoned):
        return (
            f"session {event.session_id} abandoned ({event.reason}) "
            f"after {event.rounds_completed} round(s)"
        )
    payload = {k: v for k, v in event.to_dict().items() if k != "kind"}
    payload.pop("round_index", None)
    return " ".join(f"{k}={v!r}" for k, v in payload.items())


def render_timeline(events: Iterable[Event], *, limit: Optional[int] = None) -> str:
    """One plain-text line per event, in stream order.

    ``limit`` truncates to the first N events (with a trailing marker), so
    a multi-thousand-round trace stays glanceable.  Single-pass: events
    past the limit are counted for the marker but never rendered, so a
    lazy :func:`~repro.obs.sinks.iter_trace` stream works unmaterialised.
    """
    lines: List[str] = []
    truncated = 0
    for event in events:
        if limit is not None and len(lines) >= limit:
            truncated += 1
            continue
        round_index = getattr(event, "round_index", None)
        where = "     -" if round_index is None else f"{round_index:>6}"
        lines.append(f"[{where}] {event.kind:<19} {_detail(event)}")
    if truncated:
        lines.append(f"... {truncated} more event(s) truncated")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Diffs
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DiffEntry:
    """One metric's old/new pair in a diff."""

    metric: str
    old: float
    new: float

    @property
    def delta(self) -> float:
        return self.new - self.old


@dataclass(frozen=True)
class DiffReport:
    """A metric-by-metric comparison of two runs, with verdicts.

    ``regressions`` lists the metrics named in ``fail_on`` whose new value
    exceeded the old by more than the tolerance — the CLI exits 1 exactly
    when this tuple is non-empty.
    """

    old_source: str
    new_source: str
    entries: Tuple[DiffEntry, ...]
    regressions: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def format(self) -> str:
        """Fixed-width text rendering (the CLI's ``diff`` output)."""
        lines = [f"old: {self.old_source}", f"new: {self.new_source}"]
        if not self.entries:
            lines.append("no shared numeric metrics to compare")
            return "\n".join(lines)
        width = max(len(e.metric) for e in self.entries)
        for e in self.entries:
            flag = "  << REGRESSION" if e.metric in self.regressions else ""
            lines.append(
                f"  {e.metric:<{width}}  {e.old:g} -> {e.new:g} "
                f"({e.delta:+g}){flag}"
            )
        verdict = (
            "ok"
            if self.ok
            else f"{len(self.regressions)} regression(s): "
            + ", ".join(self.regressions)
        )
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (the CLI's ``--format json`` output)."""
        return {
            "old_source": self.old_source,
            "new_source": self.new_source,
            "metrics": [
                {"metric": e.metric, "old": e.old, "new": e.new, "delta": e.delta}
                for e in self.entries
            ],
            "regressions": list(self.regressions),
            "ok": self.ok,
        }


def compute_diff(
    old: Mapping[str, Any],
    new: Mapping[str, Any],
    *,
    old_source: str = "old",
    new_source: str = "new",
    fail_on: Sequence[str] = (),
    tolerance_pct: float = 0.0,
) -> DiffReport:
    """Compare the numeric metrics two runs share.

    A metric regresses when it is named in ``fail_on`` and its new value
    exceeds ``old * (1 + tolerance_pct/100)`` (for an old value of 0, any
    increase beyond 0 counts).  Unknown ``fail_on`` names raise
    ``ValueError`` — a gate that silently checks nothing is worse than no
    gate.
    """
    entries: List[DiffEntry] = []
    for metric in sorted(set(old) & set(new)):
        old_value, new_value = old[metric], new[metric]
        if isinstance(old_value, bool) or isinstance(new_value, bool):
            continue
        if isinstance(old_value, (int, float)) and isinstance(
            new_value, (int, float)
        ):
            entries.append(
                DiffEntry(metric=metric, old=float(old_value), new=float(new_value))
            )
    known = {e.metric for e in entries}
    missing = [metric for metric in fail_on if metric not in known]
    if missing:
        raise ValueError(
            f"--fail-on names metrics absent from both inputs: "
            f"{', '.join(sorted(missing))} (have: {', '.join(sorted(known))})"
        )
    regressions = tuple(
        e.metric
        for e in entries
        if e.metric in fail_on
        and e.new > e.old * (1.0 + tolerance_pct / 100.0) + (
            0.0 if e.old else 1e-12
        )
    )
    return DiffReport(
        old_source=old_source,
        new_source=new_source,
        entries=tuple(entries),
        regressions=regressions,
    )


def trace_metrics(path: Union[str, Path]) -> Dict[str, Any]:
    """The diffable metrics of one JSONL trace (summary + overhead)."""
    _, events = iter_trace(path)
    fold = fold_events(events)
    overhead = fold.report()
    return {
        "events": fold.events,
        "rounds": fold.rounds,
        "messages": fold.messages,
        "message_bytes": fold.message_bytes,
        "faults_injected": fold.faults_injected,
        "overhead_rounds": overhead.overhead_rounds,
        "overhead_ratio": overhead.overhead_ratio,
        "switches": overhead.switches,
        "trials": overhead.trials,
    }


def manifest_metrics(
    path: Union[str, Path], trace_name: Optional[str] = None
) -> Dict[str, Any]:
    """The diffable metrics of one manifest of a manifest stream.

    The manifest is found by the lookup certify uses
    (:func:`repro.obs.manifests.lookup`): the last line naming
    ``trace_name`` as its trace, or the stream's last line without one.
    """
    from repro.obs.ledger import RunManifest, read_manifest

    manifest = read_manifest(path, trace_name)
    metrics: Dict[str, Any] = {
        "wall_time_s": manifest.wall_time_s,
        "max_rounds": manifest.max_rounds,
    }
    if isinstance(manifest, RunManifest):
        metrics.update(
            rounds=manifest.rounds,
            achieved=manifest.achieved,
            halted=manifest.halted,
            cpu_time_s=manifest.cpu_time_s,
        )
    return metrics


def metrics_for(path: Union[str, Path]) -> Dict[str, Any]:
    """Dispatch on the first line: a trace header or a manifest line.

    A trace's first line declares ``trace_schema``; every line of a
    manifest stream declares ``ledger_schema``.  The file name plays no
    part.  ``STREAM#TRACE`` (when no file has that literal name) selects
    the manifest of one trace in a stream; a bare stream stands for its
    last manifest.
    """
    resolved = Path(path)
    trace_name: Optional[str] = None
    if "#" in resolved.name and not resolved.exists():
        stream, _, trace_name = str(path).rpartition("#")
        resolved = Path(stream)
    header = first_record(resolved)
    if "trace_schema" in header:
        if trace_name is not None:
            raise ValueError(f"{path}: only a manifest stream takes #TRACE")
        return trace_metrics(resolved)
    if "ledger_schema" in header:
        return manifest_metrics(resolved, trace_name)
    raise ValueError(
        f"{resolved}: cannot classify input (expected a trace, whose first "
        f"line declares trace_schema, or a manifest stream, whose lines "
        f"declare ledger_schema)"
    )


def history_entries(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a bench-history JSONL file (one ``{manifest, metrics}`` per line)."""
    resolved = Path(path)
    entries: List[Dict[str, Any]] = []
    with resolved.open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            document = json.loads(line)
            if not isinstance(document, dict) or "metrics" not in document:
                raise ValueError(
                    f"{resolved}:{number}: history entries must be JSON "
                    f"objects with a 'metrics' key"
                )
            entries.append(document)
    return entries


def diff_history(
    path: Union[str, Path],
    *,
    fail_on: Sequence[str] = (),
    tolerance_pct: float = 0.0,
) -> DiffReport:
    """Diff the two newest entries of a bench-history file."""
    entries = history_entries(path)
    if len(entries) < 2:
        raise ValueError(
            f"{path}: need at least 2 history entries to diff, "
            f"found {len(entries)}"
        )
    old, new = entries[-2], entries[-1]
    return compute_diff(
        old["metrics"],
        new["metrics"],
        old_source=f"{path} entry {len(entries) - 1}",
        new_source=f"{path} entry {len(entries)}",
        fail_on=fail_on,
        tolerance_pct=tolerance_pct,
    )


__all__ = [
    "DiffEntry",
    "DiffReport",
    "TraceSummary",
    "compute_diff",
    "diff_history",
    "history_entries",
    "manifest_metrics",
    "metrics_for",
    "render_timeline",
    "summarize_events",
    "summarize_trace",
    "trace_metrics",
]
