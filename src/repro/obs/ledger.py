"""Run ledger: machine-readable provenance for executions and sweeps.

A trace (``JsonlSink``) records *what happened*; a manifest records *what
produced it*: the code version, the seeds, the cast (goal, user, server,
channel — the channel name embeds the fault-schedule identifiers), the
recording policy, and the run's headline figures (rounds, wall/CPU time).
Writing the manifest beside the trace makes a directory of runs
self-describing — every benchmark number stays attributable to the exact
configuration that produced it, which is what turns the paper's overhead
claims into replayable measurements instead of anecdotes.

Two manifest kinds share one schema version (``ledger_schema``):

* :class:`RunManifest` — one execution (``kind="run"``) or one sweep cell
  aggregated over its seeds (``kind="cell"``);
* :class:`SweepManifest` — the top-level index of a ledgered sweep,
  linking the per-cell manifest files.

Serialisation is deterministic: ``ledger_schema`` first, then dataclass
fields in declaration order, fixed separators — manifests of identical
configurations differ only in their timing fields.  :func:`read_manifest`
rejects schema majors it does not understand with a clear error.

:func:`record_run` is the one-call provenance wrapper around
:func:`~repro.core.execution.run_execution`: it traces the run to a JSONL
file, times it, and writes the manifest beside the trace.

This module is analysis-side: nothing in the engine (or any tracing-off
code path) imports it — see the lazy re-exports in ``repro/obs/__init__``.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.core.execution import (
    FULL_RECORDING,
    ExecutionResult,
    FaultyChannelLike,
    RecordingPolicy,
    run_execution,
)
from repro.core.goals import Goal, GoalOutcome
from repro.core.strategy import ServerStrategy, UserStrategy
from repro.obs.events import GoalVerdict
from repro.obs.sinks import JsonlSink
from repro.obs.tracer import Tracer
from repro.version import __version__

#: The manifest schema major this build writes and understands.
LEDGER_SCHEMA = 1


class LedgerSchemaError(ValueError):
    """A manifest declares a schema this build cannot interpret."""


def git_sha() -> Optional[str]:
    """The repository's HEAD commit, best effort (``None`` off a checkout).

    Provenance only — never used in any computation — so every failure
    mode (no git binary, not a repository, timeout) degrades to ``None``.
    """
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = completed.stdout.strip()
    if completed.returncode != 0 or not sha:
        return None
    return sha


def _serialise(manifest: Any) -> Dict[str, Any]:
    """``ledger_schema`` first, then dataclass fields in declared order."""
    data: Dict[str, Any] = {"ledger_schema": LEDGER_SCHEMA}
    for f in fields(manifest):
        value = getattr(manifest, f.name)
        data[f.name] = list(value) if isinstance(value, tuple) else value
    return data


def _check_schema(data: Mapping[str, Any], source: str) -> None:
    declared = data.get("ledger_schema")
    if not isinstance(declared, int) or declared <= 0:
        raise LedgerSchemaError(
            f"{source}: malformed ledger_schema value {declared!r}"
        )
    if declared > LEDGER_SCHEMA:
        raise LedgerSchemaError(
            f"{source}: ledger_schema {declared} is newer than the supported "
            f"major {LEDGER_SCHEMA}; read it with a matching repro build"
        )


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one execution (``kind="run"``) or sweep cell (``"cell"``).

    Identity fields — ``goal``, ``user``, ``server``, ``channel`` (the
    fault-channel name, which embeds its fault-schedule identifiers;
    ``None`` = perfect link), ``seeds``, ``max_rounds``, ``recording`` —
    pin down exactly which configuration ran; :meth:`run_id` hashes them
    into a stable short identifier.  ``rounds`` / ``achieved`` / ``halted``
    are totals over the seeds; ``wall_time_s`` / ``cpu_time_s`` are the
    only machine-dependent values.  ``trace_path`` names the JSONL trace
    this manifest describes (relative to the manifest's directory), when
    one was written.
    """

    kind: str
    goal: str
    user: str
    server: str
    channel: Optional[str]
    recording: str
    seeds: Tuple[int, ...]
    max_rounds: int
    rounds: int
    achieved: int
    halted: int
    wall_time_s: float
    cpu_time_s: float
    trace_path: Optional[str] = None
    trace_sha256: Optional[str] = None
    repro_version: str = __version__
    git_sha: Optional[str] = None

    def run_id(self) -> str:
        """A stable 12-hex-digit digest of the identity fields."""
        identity = json.dumps(
            [
                self.kind, self.goal, self.user, self.server, self.channel,
                self.recording, list(self.seeds), self.max_rounds,
            ],
            separators=(",", ":"),
        )
        return hashlib.sha256(identity.encode("utf-8")).hexdigest()[:12]

    def to_json(self) -> str:
        """Deterministic single-document JSON (trailing newline included)."""
        return json.dumps(_serialise(self), indent=2) + "\n"

    @staticmethod
    def from_dict(data: Mapping[str, Any], source: str = "manifest") -> "RunManifest":
        _check_schema(data, source)
        payload = {f.name: data[f.name] for f in fields(RunManifest) if f.name in data}
        payload["seeds"] = tuple(payload.get("seeds", ()))
        return RunManifest(**payload)


@dataclass(frozen=True)
class SweepManifest:
    """Top-level index of a ledgered sweep: one entry per cell manifest.

    ``backend`` names the executor that dispatched the cells (``serial``,
    ``process``, ``batch``, ``batch-process``) and ``batch_width`` records
    the lockstep width for batched backends (``None`` otherwise) — results
    are backend-independent by contract, so these are provenance, not
    identity.
    """

    goal: str
    user: str
    cells: Tuple[str, ...]
    seeds: Tuple[int, ...]
    max_rounds: int
    wall_time_s: float
    cells_sha256: Optional[str] = None
    repro_version: str = __version__
    git_sha: Optional[str] = None
    kind: str = "sweep"
    backend: str = "serial"
    batch_width: Optional[int] = None

    def to_json(self) -> str:
        """Deterministic single-document JSON (trailing newline included)."""
        return json.dumps(_serialise(self), indent=2) + "\n"

    @staticmethod
    def from_dict(data: Mapping[str, Any], source: str = "manifest") -> "SweepManifest":
        _check_schema(data, source)
        payload = {f.name: data[f.name] for f in fields(SweepManifest) if f.name in data}
        payload["cells"] = tuple(payload.get("cells", ()))
        payload["seeds"] = tuple(payload.get("seeds", ()))
        return SweepManifest(**payload)


Manifest = Union[RunManifest, SweepManifest]


def write_manifest(manifest: Manifest, path: Union[str, Path]) -> Path:
    """Write one manifest as a JSON document; returns the resolved path."""
    resolved = Path(path)
    resolved.parent.mkdir(parents=True, exist_ok=True)
    resolved.write_text(manifest.to_json(), encoding="utf-8")
    return resolved


def read_manifest(path: Union[str, Path]) -> Manifest:
    """Parse a manifest file back into its typed form (by ``kind``).

    Raises :class:`LedgerSchemaError` on unknown schema majors and
    ``ValueError`` on a missing/unknown ``kind`` — a ledger directory
    either round-trips exactly or fails loudly.
    """
    resolved = Path(path)
    data = json.loads(resolved.read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"{resolved}: manifest is not a JSON object")
    kind = data.get("kind")
    if kind == "sweep":
        return SweepManifest.from_dict(data, source=str(resolved))
    if kind in ("run", "cell"):
        return RunManifest.from_dict(data, source=str(resolved))
    raise ValueError(f"{resolved}: unknown manifest kind {kind!r}")


@dataclass(frozen=True)
class RecordedRun:
    """What :func:`record_run` hands back: the run plus its paper trail."""

    execution: ExecutionResult
    manifest: RunManifest
    manifest_path: Path
    trace_path: Path


def file_sha256(path: Union[str, Path]) -> str:
    """SHA-256 of a file's bytes — the certificate digest of a trace."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def channel_spec(channel: Optional[FaultyChannelLike]) -> Optional[Dict[str, Any]]:
    """The channel's self-description for the trace header, if it has one.

    Custom channels without a ``spec()`` (or whose schedules cannot
    describe themselves) simply record no spec: the run stays certifiable
    except for fault replay.  Shared by :func:`record_run` and the session
    service (:mod:`repro.serve`), which write the same trace headers.
    """
    spec = getattr(channel, "spec", None)
    if not callable(spec):
        return None
    try:
        described = spec()
    except NotImplementedError:
        return None
    return described if isinstance(described, dict) else None


def emit_goal_verdict(tracer: Tracer, goal: Goal, outcome: GoalOutcome) -> None:
    """Record ``outcome`` as a :class:`~repro.obs.events.GoalVerdict` event.

    The verdict goes *into* the trace so the claim being certified is part
    of the evidence stream, not only manifest metadata.  Every writer of a
    certifiable trace (:func:`record_run`, :mod:`repro.serve` sessions)
    emits its verdict through this helper so the event shape cannot drift.
    """
    verdict = outcome.compact_verdict
    tracer.emit(
        GoalVerdict(
            goal=goal.name,
            compact=goal.is_compact,
            achieved=outcome.achieved,
            halted=outcome.halted,
            rounds=outcome.rounds,
            settle_fraction=(
                goal.settle_fraction if goal.is_compact else None
            ),
            total_prefixes=None if verdict is None else verdict.total_prefixes,
            bad_prefixes=None if verdict is None else verdict.bad_prefixes,
            last_bad_round=None if verdict is None else verdict.last_bad_round,
            note=outcome.note,
        )
    )


def record_run(
    user: UserStrategy,
    server: ServerStrategy,
    goal: Goal,
    *,
    max_rounds: int,
    seed: int = 0,
    out_dir: Union[str, Path],
    name: str = "run",
    recording: RecordingPolicy = FULL_RECORDING,
    channel: Optional[FaultyChannelLike] = None,
    certify: bool = False,
) -> RecordedRun:
    """Run one traced execution and write ``<name>.jsonl`` + ``<name>.json``.

    The provenance-first entry point: the trace captures the event stream,
    the manifest captures what produced it, and the pair lands in
    ``out_dir`` so the directory is self-describing.  Universal users
    (anything exposing a reassignable ``tracer`` attribute) contribute
    their sensing/switch/trial events to the same trace; the attribute is
    restored afterwards.

    The trace doubles as a certificate: the header carries the channel's
    fault spec (when it can describe itself), the goal's verdict is
    recorded as a :class:`~repro.obs.events.GoalVerdict` event with its
    evidence, and the manifest stamps the trace's SHA-256.  With
    ``certify=True`` the freshly written pair is immediately re-checked by
    :func:`repro.obs.certify.certify_trace`;
    :class:`~repro.obs.certify.CertificationError` means the recording
    pipeline itself is broken.
    """
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    trace_path = directory / f"{name}.jsonl"
    manifest_path = directory / f"{name}.json"

    header: Dict[str, Any] = {}
    spec = channel_spec(channel)
    if spec is not None:
        header["channel"] = spec
    tracer = Tracer(sink=JsonlSink(trace_path, header=header))
    user_traced = hasattr(user, "tracer")
    saved = user.tracer if user_traced else None
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    if user_traced:
        user.tracer = tracer
    try:
        execution = run_execution(
            user, server, goal.world,
            max_rounds=max_rounds, seed=seed,
            tracer=tracer, recording=recording, channel=channel,
            referee=goal.referee,
        )
        outcome = goal.evaluate(execution)
        emit_goal_verdict(tracer, goal, outcome)
    finally:
        if user_traced:
            user.tracer = saved
        tracer.close()
    wall = time.perf_counter() - wall_start
    cpu = time.process_time() - cpu_start

    manifest = RunManifest(
        kind="run",
        goal=goal.name,
        user=user.name,
        server=server.name,
        channel=None if channel is None else getattr(channel, "name", "channel"),
        recording=recording.label,
        seeds=(seed,),
        max_rounds=max_rounds,
        rounds=execution.rounds_executed,
        achieved=int(outcome.achieved),
        halted=int(execution.halted),
        wall_time_s=round(wall, 6),
        cpu_time_s=round(cpu, 6),
        trace_path=trace_path.name,
        trace_sha256=file_sha256(trace_path),
        git_sha=git_sha(),
    )
    write_manifest(manifest, manifest_path)
    if certify:
        from repro.obs.certify import certify_run

        certify_run(trace_path, manifest_path)
    return RecordedRun(
        execution=execution,
        manifest=manifest,
        manifest_path=manifest_path,
        trace_path=trace_path,
    )


__all__ = [
    "LEDGER_SCHEMA",
    "LedgerSchemaError",
    "Manifest",
    "RecordedRun",
    "RunManifest",
    "SweepManifest",
    "channel_spec",
    "emit_goal_verdict",
    "file_sha256",
    "git_sha",
    "read_manifest",
    "record_run",
    "write_manifest",
]
