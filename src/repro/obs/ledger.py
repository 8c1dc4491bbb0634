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
* :class:`SweepManifest` — the index of a ledgered sweep, written as the
  line after its cells.

A ledger directory keeps every manifest as one line of its
``manifests.ndjson`` stream (see :mod:`repro.obs.manifests` for the
format and the lookup rules); :func:`write_manifest` appends a line and
returns where it landed.  Serialisation is deterministic:
``ledger_schema`` first, then dataclass fields in declaration order,
compact separators — manifests of identical configurations differ only
in their timing fields.  :func:`read_manifest` rejects schema majors it
does not understand with a clear error, the per-file documents of
schema 1 included.

:func:`record_run` is the one-call provenance wrapper: a traced
:class:`~repro.serve.session.Session` stepped to its horizon and closed,
which traces the run to a JSONL file, times it, and appends its manifest
to the trace directory's stream.

This module is analysis-side: nothing in the engine (or any tracing-off
code path) imports it — see the lazy re-exports in ``repro/obs/__init__``.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple, Union

from repro.core.execution import (
    FULL_RECORDING,
    ExecutionResult,
    FaultyChannelLike,
    RecordingPolicy,
)
from repro.core.goals import Goal, GoalOutcome
from repro.core.strategy import ServerStrategy, UserStrategy
from repro.obs.events import ABANDON_FAILURE, GoalVerdict
from repro.obs.manifests import (
    LEDGER_SCHEMA,
    MANIFEST_STREAM,
    LedgerSchemaError,
    ManifestLocation,
    ManifestScan,
    append_line,
    check_schema,
    compute_run_id,
    lookup,
)
from repro.obs.tracer import Tracer
from repro.version import __version__


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


class _ManifestLine:
    """One manifest as one stream line, and back: shared by both kinds."""

    #: The tuple-valued fields (JSON arrays on the line).
    _TUPLES: ClassVar[Tuple[str, ...]] = ("seeds",)

    def to_json(self) -> str:
        """Deterministic one-line JSON (trailing newline included):
        ``ledger_schema`` first, then the fields in declared order."""
        data: Dict[str, Any] = {"ledger_schema": LEDGER_SCHEMA}
        for f in fields(self):  # type: ignore[arg-type]
            value = getattr(self, f.name)
            data[f.name] = list(value) if isinstance(value, tuple) else value
        return json.dumps(data, separators=(",", ":")) + "\n"

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], source: str = "manifest") -> Any:
        check_schema(data, source)
        names = [f.name for f in fields(cls)]  # type: ignore[arg-type]
        payload = {name: data[name] for name in names if name in data}
        for name in cls._TUPLES:
            payload[name] = tuple(payload.get(name, ()))
        return cls(**payload)


@dataclass(frozen=True)
class RunManifest(_ManifestLine):
    """Provenance of one execution (``kind="run"``) or sweep cell (``"cell"``).

    Identity fields — ``goal``, ``user``, ``server``, ``channel`` (the
    fault-channel name, which embeds its fault-schedule identifiers;
    ``None`` = perfect link), ``seeds``, ``max_rounds``, ``recording`` —
    pin down exactly which configuration ran; :meth:`run_id` hashes them
    into a stable short identifier.  ``rounds`` / ``achieved`` / ``halted``
    are totals over the seeds; ``wall_time_s`` / ``cpu_time_s`` are the
    only machine-dependent values.  ``trace_path`` names the JSONL trace
    this manifest describes (relative to the manifest stream's
    directory), when one was written; it is the key certify looks the
    manifest up by.
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
        return compute_run_id(vars(self))


@dataclass(frozen=True)
class SweepManifest(_ManifestLine):
    """Index of a ledgered sweep: the run ids of its cells, in order.

    The index is the stream line right after its cells, and
    ``cells_sha256`` covers exactly those cell lines' bytes (see
    :func:`repro.obs.certify.sweep_cells_digest`).

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

    _TUPLES: ClassVar[Tuple[str, ...]] = ("cells", "seeds")


Manifest = Union[RunManifest, SweepManifest]


def write_manifest(
    manifest: Manifest, path: Union[str, Path]
) -> ManifestLocation:
    """Append ``manifest`` as one line to the stream at ``path``.

    Returns where the line landed, which :func:`read_manifest` and
    :func:`repro.obs.certify.certify_run` read back with one positioned
    read.
    """
    return append_line(path, manifest.to_json().encode("utf-8"))


def _typed(data: Mapping[str, Any], source: str) -> Manifest:
    kind = data.get("kind")
    if kind == "sweep":
        return SweepManifest.from_dict(data, source=source)
    if kind in ("run", "cell"):
        return RunManifest.from_dict(data, source=source)
    raise ValueError(f"{source}: unknown manifest kind {kind!r}")


def read_manifest(
    source: Union[str, Path, ManifestLocation], trace_name: Optional[str] = None
) -> Manifest:
    """One manifest in its typed form (by ``kind``).

    A :class:`~repro.obs.manifests.ManifestLocation` reads exactly its
    line.  A stream path yields the last line naming ``trace_name`` as
    its trace (:func:`~repro.obs.manifests.lookup`), or the stream's
    last manifest when no name is given.  Raises
    :class:`LedgerSchemaError` on unknown schema majors,
    :class:`~repro.obs.manifests.ManifestStreamError` on a torn or
    garbled line and ``ValueError`` on a missing/unknown ``kind`` — a
    ledger either round-trips exactly or fails loudly.
    """
    return _typed(*lookup(source, trace_name))


def read_manifests(path: Union[str, Path]) -> Tuple[Manifest, ...]:
    """Every manifest of the stream at ``path``, in the order written.

    Raises the first damaged line's error.
    """
    scan = ManifestScan(path)
    if scan.damage:
        raise scan.damage[min(scan.damage)]
    return tuple(
        _typed(data, f"{path}:{number}") for number, _, data in scan.lines
        if data is not None
    )


@dataclass(frozen=True)
class RecordedRun:
    """What :func:`record_run` hands back: the run plus its paper trail."""

    execution: ExecutionResult
    manifest: RunManifest
    manifest_location: ManifestLocation
    trace_path: Path


def file_sha256(path: Union[str, Path]) -> str:
    """SHA-256 of a file's bytes — the certificate digest of a trace."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def channel_spec(channel: Optional[FaultyChannelLike]) -> Optional[Dict[str, Any]]:
    """The channel's self-description for the trace header, if it has one.

    Custom channels without a ``spec()`` (or whose schedules cannot
    describe themselves) simply record no spec: the run stays certifiable
    except for fault replay.  Read by the session service
    (:mod:`repro.serve`), which writes every ledgered trace's header, and
    by :func:`repro.faults.verify.verify_robustness` when it certifies.
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
    of the evidence stream, not only manifest metadata.  The one writer of
    a certifiable trace, :meth:`repro.serve.session.Session.close` (which
    :func:`record_run` also goes through), emits its verdict here.
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
    """Run one traced execution: write ``<name>.jsonl``, append its manifest.

    The provenance-first entry point: the trace captures the event stream,
    the manifest captures what produced it, and both land in ``out_dir``
    (the manifest as a line of ``manifests.ndjson``) so the directory is
    self-describing.  Recording a name again appends a newer manifest,
    which the trace-name lookup then finds.  The run is a traced
    :class:`~repro.serve.session.Session` (session id ``name``) stepped to
    its horizon and closed, so a recorded and a served run are written by
    one producer; a user that emits events of its own (the universal
    users, the delegation and counting verifiers) contributes them to the
    same trace through the run, and the user object is never written.

    The trace doubles as a certificate: the header carries the channel's
    fault spec (when it can describe itself), the goal's verdict is
    recorded as a :class:`~repro.obs.events.GoalVerdict` event with its
    evidence, and the manifest stamps the trace's SHA-256 (taken by the
    sink as it wrote the file).  With
    ``certify=True`` the freshly written pair is immediately re-checked by
    :func:`repro.obs.certify.certify_run`;
    :class:`~repro.obs.certify.CertificationError` means the recording
    pipeline itself is broken.  A strategy that raises abandons the
    session (its trace ends in a ``session-abandoned`` event, and no
    manifest is written) and the error propagates.
    """
    # Lazy: ``repro.serve`` imports this module.
    from repro.serve.session import Session, SessionSpec

    session = Session(
        SessionSpec(
            user, server, goal, seed=seed, max_rounds=max_rounds,
            recording=recording, channel=channel,
        ),
        session_id=name, ledger_dir=out_dir, trace=True, certify=certify,
    )
    try:
        session.step(max_rounds)
    except BaseException:
        session.abandon(ABANDON_FAILURE)
        raise
    outcome = session.close()
    assert outcome.manifest is not None and outcome.manifest_location is not None
    assert outcome.trace_path is not None
    return RecordedRun(
        execution=outcome.execution,
        manifest=outcome.manifest,
        manifest_location=outcome.manifest_location,
        trace_path=outcome.trace_path,
    )


__all__ = [
    "LEDGER_SCHEMA",
    "MANIFEST_STREAM",
    "LedgerSchemaError",
    "Manifest",
    "ManifestLocation",
    "RecordedRun",
    "RunManifest",
    "SweepManifest",
    "channel_spec",
    "emit_goal_verdict",
    "file_sha256",
    "git_sha",
    "read_manifest",
    "read_manifests",
    "record_run",
    "write_manifest",
]
