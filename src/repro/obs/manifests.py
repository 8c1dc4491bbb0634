"""The manifest stream: one compact JSON line per manifest, appended.

A ledger directory keeps its manifests in one file, ``manifests.ndjson``
(named apart from the ``*.jsonl`` traces beside it).  Every line is a
complete manifest object, ``ledger_schema`` first, and every line goes
out as a single ``write`` on an ``O_APPEND`` handle, so a line never
interleaves with another writer's.  A short write is rolled back, and an
append after a line torn by a crash starts a fresh line, so the torn
piece stays a line of its own and the new manifest stays intact.  A
ledgered session therefore creates one file (its trace), not two.

Readers find a manifest one of two ways:

* by **location** — :func:`append_line` returns the byte offset and
  length its line landed at, and :func:`read_at` reads exactly that line
  back with one positioned read.  Close-time certification uses this, so
  its cost does not grow with the ledger;
* by **trace name** — :func:`find_manifest` scans the stream and returns
  the *last* line whose ``trace_path`` names the trace.  Later lines win,
  so a re-recorded name resolves to its newest manifest.  The key is the
  trace file, not the run id: two sessions of one spec share a run id.
  Only lines that hold the name's encoded ``"trace_path":`` key, and the
  lines after the last match, are parsed, so a lookup costs one JSON
  parse per line it could return or must check, not one per line of the
  ledger.

Every line that is read is checked: a torn or garbled line raises
:class:`ManifestStreamError` with its 1-based line number, and a line of
another schema major raises :class:`LedgerSchemaError`.  A lookup by
trace name reports a damaged line that comes after the last intact
match, since it may be a newer manifest of that trace; damage before the
match cannot outrank it and does not stop the lookup.

This module is engine-free: the certificate checker
(:mod:`repro.obs.certify`) reads manifests through it.  The typed
manifests and the writer live in :mod:`repro.obs.ledger`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.obs.sinks import check_major

#: The manifest schema major this build writes and understands.  Major 1
#: was one pretty-printed JSON document per manifest file.
LEDGER_SCHEMA = 2

#: The file name of a ledger directory's manifest stream.
MANIFEST_STREAM = "manifests.ndjson"


class LedgerSchemaError(ValueError):
    """A manifest declares a schema this build cannot interpret."""


class ManifestStreamError(ValueError):
    """A line of a manifest stream is torn or is not a manifest object."""


@dataclass(frozen=True)
class ManifestLocation:
    """Where one manifest line landed: its stream, byte offset and length."""

    path: Path
    offset: int
    length: int

    def __str__(self) -> str:
        return f"{self.path}@{self.offset}"


def check_schema(data: Mapping[str, Any], source: str) -> None:
    """Raise :class:`LedgerSchemaError` unless ``data`` is this schema major."""
    check_major(
        data,
        "ledger_schema",
        LEDGER_SCHEMA,
        LedgerSchemaError,
        source,
        newer="; read it with a matching repro build",
        older=f"the manifest stream (major {LEDGER_SCHEMA}); re-record the "
        f"run to certify it",
    )


def append_line(path: Union[str, Path], line: bytes) -> ManifestLocation:
    """Append one newline-terminated line in a single ``write``.

    The file (and its directory) is created on first use.  With
    ``O_APPEND`` the kernel places the write at the current end of file,
    so the handle's offset after the write marks where the line ends.
    When the stream does not end in a newline (a writer died mid-append),
    the write starts with one, so the torn piece stays its own line.  A
    short write is cut back off the file before the ``OSError`` is
    raised; a stream has one writer, so the bytes past the old end are
    this write's.
    """
    resolved = Path(path)
    flags = os.O_RDWR | os.O_APPEND | os.O_CREAT
    try:
        fd = os.open(resolved, flags, 0o644)
    except FileNotFoundError:
        resolved.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(resolved, flags, 0o644)
    try:
        size = os.lseek(fd, 0, os.SEEK_END)
        if size and os.pread(fd, 1, size - 1) != b"\n":
            payload = b"\n" + line
        else:
            payload = line
        written = os.write(fd, payload)
        end = os.lseek(fd, 0, os.SEEK_CUR)
        if written != len(payload):
            os.ftruncate(fd, end - written)
            raise OSError(
                f"{resolved}: short append ({written} of {len(payload)} "
                f"bytes, rolled back)"
            )
    finally:
        os.close(fd)
    return ManifestLocation(resolved, end - len(line), len(line))


def _parse(raw: bytes, where: str) -> Dict[str, Any]:
    """One manifest line; ``where`` names it in errors (``path:line``)."""
    if not raw.endswith(b"\n"):
        raise ManifestStreamError(
            f"{where}: torn final line (no newline; a writer stopped "
            f"mid-append)"
        )
    if raw == b"{\n":
        raise LedgerSchemaError(
            f"{where}: a pretty-printed manifest document (ledger_schema 1); "
            f"this build reads manifest streams (major {LEDGER_SCHEMA}), one "
            f"compact line per manifest"
        )
    try:
        data = json.loads(raw)
    except ValueError as exc:
        raise ManifestStreamError(f"{where}: not a JSON line ({exc})") from None
    if not isinstance(data, dict):
        raise ManifestStreamError(
            f"{where}: manifest line is not a JSON object"
        )
    check_schema(data, where)
    return data


def iter_manifest_lines(
    path: Union[str, Path],
) -> Iterator[Tuple[int, bytes, Dict[str, Any]]]:
    """Yield ``(line number, raw bytes, manifest)`` for every line, in order."""
    resolved = Path(path)
    with resolved.open("rb") as handle:
        for number, raw in enumerate(handle, start=1):
            yield number, raw, _parse(raw, f"{resolved}:{number}")


def read_at(location: ManifestLocation) -> Dict[str, Any]:
    """The manifest line at ``location``, read with one positioned read."""
    fd = os.open(location.path, os.O_RDONLY)
    try:
        raw = os.pread(fd, location.length, location.offset)
    finally:
        os.close(fd)
    if len(raw) != location.length:
        raise ManifestStreamError(
            f"{location}: stream ends {location.length - len(raw)} bytes "
            f"inside the manifest line"
        )
    return _parse(raw, str(location))


def find_manifest(
    path: Union[str, Path], trace_name: Optional[str] = None
) -> Optional[Tuple[int, Dict[str, Any]]]:
    """The last line naming ``trace_name`` as its trace, with its line number.

    ``trace_name=None`` matches every line, so it yields the stream's last
    manifest.  ``None`` when no line matches.  The first damaged line
    after the last match is raised: it may be a newer manifest of the
    trace.  Damage before the match is outranked by it and passed over.

    A line can name the trace only if it holds ``"trace_path":`` and the
    name as the writer encodes them (compact separators, ASCII escapes),
    so only such lines are parsed as they are read.  Every other line
    waits, unparsed, until a later match passes over it; the lines still
    waiting at the end are parsed in order for damage.
    """
    resolved = Path(path)
    needle = (
        None
        if trace_name is None
        else b'"trace_path":' + json.dumps(trace_name).encode("ascii")
    )
    found: Optional[Tuple[int, Dict[str, Any]]] = None
    after: List[Tuple[int, bytes]] = []
    with resolved.open("rb") as handle:
        for number, raw in enumerate(handle, start=1):
            if needle is not None and needle not in raw:
                after.append((number, raw))
                continue
            try:
                data = _parse(raw, f"{resolved}:{number}")
            except ValueError:
                after.append((number, raw))
                continue
            if trace_name is None or data.get("trace_path") == trace_name:
                found, after = (number, data), []
    for number, raw in after:
        _parse(raw, f"{resolved}:{number}")
    return found


__all__ = [
    "LEDGER_SCHEMA",
    "MANIFEST_STREAM",
    "LedgerSchemaError",
    "ManifestLocation",
    "ManifestStreamError",
    "append_line",
    "check_schema",
    "find_manifest",
    "iter_manifest_lines",
    "read_at",
]
