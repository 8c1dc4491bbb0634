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
* by **trace name** — :class:`ManifestScan` reads the stream once and
  maps each trace name to the *last* line naming it.  Later lines win,
  so a re-recorded name resolves to its newest manifest.  The key is the
  trace file, not the run id: two sessions of one spec share a run id.
  A whole-ledger check asks one scan for every name, so it parses each
  line once; :func:`find_manifest` asks it for one name, and then only
  lines that hold the name's encoded ``"trace_path":`` key, and the
  lines after the last match, are parsed.

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

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

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


#: The fields a run id hashes, in order: what pins a run's configuration.
_RUN_IDENTITY = (
    "kind", "goal", "user", "server", "channel", "recording", "seeds", "max_rounds",
)


def compute_run_id(manifest: Mapping[str, Any]) -> str:
    """A stable 12-hex-digit digest of a run manifest's identity fields."""
    identity = json.dumps(
        [manifest.get(key) for key in _RUN_IDENTITY], separators=(",", ":")
    )
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()[:12]


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


class ManifestScan:
    """A manifest stream read in one pass, each line parsed at most once.

    ``lines`` holds ``(line number, raw bytes, manifest)`` per parsed
    line (``None`` for a damaged one, whose error ``damage`` keeps by line
    number); ``named`` maps each trace name to its last intact line.
    With ``only``, a line is parsed as it is read only if it holds
    ``"trace_path":`` and that name as the writer encodes them (compact
    separators, ASCII escapes); the others wait, unparsed, until a later
    match passes over them, the rest are parsed for damage at the end,
    and :meth:`find` answers for that name alone.
    """

    def __init__(self, path: Union[str, Path], only: Optional[str] = None) -> None:
        self.path = Path(path)
        self.lines: List[Tuple[int, bytes, Optional[Dict[str, Any]]]] = []
        self.damage: Dict[int, ValueError] = {}
        self.named: Dict[str, Tuple[int, Dict[str, Any]]] = {}
        needle = (
            None
            if only is None
            else b'"trace_path":' + json.dumps(only).encode("ascii")
        )
        waiting: List[Tuple[int, bytes]] = []
        with self.path.open("rb") as handle:
            for number, raw in enumerate(handle, start=1):
                if needle is None:
                    self._take(number, raw)
                elif needle not in raw:
                    waiting.append((number, raw))
                elif self._take(number, raw) == only:
                    waiting = []
        for number, raw in waiting:
            self._take(number, raw)

    def _take(self, number: int, raw: bytes) -> Any:
        """Parse one line into the scan; the trace name it holds, if any."""
        try:
            data: Optional[Dict[str, Any]] = _parse(raw, f"{self.path}:{number}")
        except ValueError as exc:
            self.damage[number] = exc
            data = None
        self.lines.append((number, raw, data))
        if data is None:
            return None
        name = data.get("trace_path")
        if isinstance(name, str):
            self.named[name] = (number, data)
        return name

    def find(
        self, trace_name: Optional[str] = None
    ) -> Optional[Tuple[int, Dict[str, Any]]]:
        """``(line number, manifest)`` of the last intact line naming
        ``trace_name`` (``None``: of the last intact line), or ``None``.

        The first damaged line after it (or anywhere, without one) is
        raised: it may be a newer manifest of the trace.
        """
        if trace_name is None:
            found = next(
                ((n, data) for n, _, data in reversed(self.lines) if data), None
            )
        else:
            found = self.named.get(trace_name)
        after = 0 if found is None else found[0]
        later = [number for number in self.damage if number > after]
        if later:
            raise self.damage[min(later)]
        return found


def lookup(
    source: Union[str, Path, ManifestLocation, ManifestScan],
    trace_name: Optional[str] = None,
) -> Tuple[Dict[str, Any], str]:
    """A location's line, or the last line naming ``trace_name`` (``None``:
    the last line) in a stream or a scan, with its label; ``ValueError``
    when no line does."""
    if isinstance(source, ManifestLocation):
        return read_at(source), str(source)
    if not isinstance(source, ManifestScan):
        source = ManifestScan(source, only=trace_name)
    found = source.find(trace_name)
    if found is None:
        what = "manifest stream is empty" if trace_name is None else (
            f"no manifest names {trace_name}"
        )
        raise ValueError(f"{source.path}: {what}")
    return found[1], f"{source.path}:{found[0]}"


def find_manifest(
    path: Union[str, Path], trace_name: Optional[str] = None
) -> Optional[Tuple[int, Dict[str, Any]]]:
    """The last line naming ``trace_name`` (``None``: the last line), numbered.

    One :class:`ManifestScan` asked for one name.
    """
    return ManifestScan(path, only=trace_name).find(trace_name)


__all__ = [
    "LEDGER_SCHEMA",
    "MANIFEST_STREAM",
    "LedgerSchemaError",
    "ManifestLocation",
    "ManifestScan",
    "ManifestStreamError",
    "append_line",
    "check_schema",
    "compute_run_id",
    "find_manifest",
    "lookup",
    "read_at",
]
