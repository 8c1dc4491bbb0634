"""Event sinks: where a trace goes.

A sink consumes the typed event stream; the tracer does not care which.
Three implementations cover the reproduction's needs:

* :class:`NullSink` — drops everything (counters still accumulate);
* :class:`MemorySink` — a bounded ring buffer for tests, examples, and
  interactive inspection;
* :class:`JsonlSink` — one JSON object per line with deterministic field
  ordering (``kind`` first, then dataclass-field order), so traces of the
  same seeded run are byte-identical and diffable.

:func:`read_jsonl` inverts :class:`JsonlSink` back into typed events.

Trace files are schema-versioned: the first line a :class:`JsonlSink`
writes is a header object ``{"trace_schema": 2, "trace_schema_minor": 0,
...}`` (never an event), and the replay path refuses every schema major
but its own with a :class:`TraceSchemaError` anchored to the header line
rather than misparsing the stream: a major-1 trace (one line per message
besides the round's) must be re-recorded.  Headerless files (hand-built
fixtures) still read fine, but certify reports them as uncertifiable.

One reader, :func:`iter_trace_batches`, parses a trace a 64 KiB chunk at
a time into batches of ``(line_number, event)`` pairs, and can hash the
bytes it reads — the one read a certificate check needs.  The others
are views of it: :func:`read_trace` materialises the whole event list;
:func:`iter_trace` streams it (header eagerly, events lazily), and
:func:`iter_trace_numbered` additionally yields each event's 1-based file
line number so downstream diagnostics can anchor to the exact line.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from contextlib import closing
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Deque,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from repro.obs.events import _LINE_WRITERS, IN_PLACE, Event, event_from_dict

if TYPE_CHECKING:
    from hashlib import _Hash

E = TypeVar("E", bound=Event)

#: The trace-file schema major this build writes and understands.  Major
#: 2 writes one ``round-executed`` line per round, carrying the round's
#: messages; major 1 wrote one line per message besides.
TRACE_SCHEMA = 2

#: The additive minor revision within the major.
TRACE_SCHEMA_MINOR = 0


class TraceSchemaError(ValueError):
    """A trace file cannot be interpreted by this build.

    Raised both for schema declarations this build does not understand and
    for malformed lines; ``line`` carries the 1-based file line number when
    the error is anchored to one.
    """

    def __init__(self, message: str, *, line: Optional[int] = None) -> None:
        super().__init__(message)
        self.line = line


class Sink:
    """Consumer of a trace's event stream."""

    def emit(self, event: Event) -> None:
        """Accept one event."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (idempotent; no-op by default)."""

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class NullSink(Sink):
    """Discards every event."""

    def emit(self, event: Event) -> None:
        pass


class MemorySink(Sink):
    """Keeps the last ``capacity`` events in a ring buffer.

    ``capacity=None`` keeps everything — fine for bounded runs, the usual
    mode in tests; give long-lived processes a bound.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self._events: Deque[Event] = deque(maxlen=capacity)

    def emit(self, event: Event) -> None:
        self._events.append(event)

    @property
    def events(self) -> List[Event]:
        """The buffered events, oldest first."""
        return list(self._events)

    def of_kind(self, event_type: Type[E]) -> List[E]:
        """The buffered events that are instances of ``event_type``."""
        return [e for e in self._events if isinstance(e, event_type)]

    def clear(self) -> None:
        """Forget everything buffered so far."""
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)


class JsonlSink(Sink):
    """Writes one compact JSON object per event to a file.

    Field order is deterministic (insertion order of
    :meth:`~repro.obs.events.Event.to_dict`), separators are fixed, and
    nothing machine-dependent (timestamps, pids) is ever written — two
    traces of the same seeded run diff clean.  Every event line comes from
    the compiled line writer behind :func:`~repro.obs.events.event_line`,
    called straight from the writer table.

    The first line is the schema header (``{"trace_schema": 2, …}`` plus any
    ``header`` extras, which must themselves be deterministic values for
    the byte-identity guarantee to hold).

    The sink hashes the bytes as it writes them: :meth:`sha256` is the
    file's SHA-256 without reading the file back.
    """

    #: Lines buffered before one encode + hash + write: about as many
    #: bytes as the file's own buffer holds, so the writes (and the
    #: hashing) happen as the run goes and ``close`` flushes only a tail.
    CHUNK_LINES = 64

    def __init__(
        self,
        path: Union[str, Path],
        header: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.path = Path(path)
        self._file = self.path.open("wb")
        self._digest = hashlib.sha256()
        head: Dict[str, Any] = {
            "trace_schema": TRACE_SCHEMA,
            "trace_schema_minor": TRACE_SCHEMA_MINOR,
        }
        for key, value in (header or {}).items():
            if key not in head:
                head[key] = value
        self._pending: List[str] = [json.dumps(head, separators=(",", ":"))]

    def emit(self, event: Event) -> None:
        pending = self._pending
        pending.append(_LINE_WRITERS[type(event)](event))
        if len(pending) >= self.CHUNK_LINES:
            self._flush()

    def _flush(self) -> None:
        pending = self._pending
        if pending:
            data = "\n".join(pending).encode("utf-8") + b"\n"
            pending.clear()
            self._digest.update(data)
            self._file.write(data)

    def sha256(self) -> str:
        """Hex SHA-256 of every byte written so far (the file, once closed)."""
        if not self._file.closed:
            self._flush()
        return self._digest.hexdigest()

    def close(self) -> None:
        if not self._file.closed:
            try:
                self._flush()
            finally:
                self._file.close()


def _check_trace_header(header: Mapping[str, Any], path: Path, number: int) -> None:
    """Reject every schema major but this build's, anchored to the header line."""
    declared = header.get("trace_schema")
    if not isinstance(declared, int) or declared <= 0:
        raise TraceSchemaError(
            f"{path}:{number}: malformed trace_schema header value {declared!r}",
            line=number,
        )
    if declared > TRACE_SCHEMA:
        raise TraceSchemaError(
            f"{path}:{number}: trace_schema {declared} is newer than the "
            f"supported major {TRACE_SCHEMA}; re-read it with a matching "
            f"repro build",
            line=number,
        )
    if declared < TRACE_SCHEMA:
        raise TraceSchemaError(
            f"{path}:{number}: trace_schema {declared} predates the one-line-"
            f"per-round trace (major {TRACE_SCHEMA}); re-record the trace",
            line=number,
        )


_decoder = json.JSONDecoder()
_raw_decode = _decoder.raw_decode
#: The C scanner behind ``raw_decode``: ``(value, end)`` for the JSON value
#: at an index, ``StopIteration`` when there is none there.
_scan_once = _decoder.scan_once

#: Bytes per read when streaming a trace file.
_READ_CHUNK = 1 << 16

#: One read's worth of a trace: ``(line_number, event)`` pairs in order.
Batch = List[Tuple[int, Event]]


def _parse_record(text: str, path: Path, number: int) -> Any:
    """One stripped line of a trace file → parsed JSON, or a line-anchored error."""
    try:
        record, end = _raw_decode(text)
    except json.JSONDecodeError as exc:
        raise TraceSchemaError(
            f"{path}:{number}: not valid JSON: {exc.msg}", line=number
        ) from exc
    if end != len(text):
        raise TraceSchemaError(
            f"{path}:{number}: not valid JSON: Extra data", line=number
        )
    return record


def _parse_event(record: Any, path: Path, number: int) -> Event:
    """One parsed record → a typed event, or a line-anchored error."""
    if not isinstance(record, dict):
        raise TraceSchemaError(
            f"{path}:{number}: event line is not a JSON object", line=number
        )
    try:
        return event_from_dict(record)
    except KeyError as exc:
        raise TraceSchemaError(
            f"{path}:{number}: unknown or missing event kind "
            f"{exc.args[0]!r}",
            line=number,
        ) from exc
    except TypeError as exc:
        raise TraceSchemaError(
            f"{path}:{number}: malformed event payload: {exc}", line=number
        ) from exc


def _parse_line(
    text: str, path: Path, number: int, header: List[Dict[str, Any]]
) -> Optional[Event]:
    """One stripped, non-blank line → its event, or ``None`` for the header.

    The first such line of a file is the header when it is an object
    without a ``kind``; ``header`` receives it (or ``{}`` when that line is
    already an event), so an empty ``header`` means none was read yet.
    """
    record = _parse_record(text, path, number)
    if header:
        return _parse_event(record, path, number)
    if isinstance(record, dict) and "kind" not in record:
        _check_trace_header(record, path, number)
        header.append(record)
        return None
    event = _parse_event(record, path, number)
    header.append({})
    return event


def _parse_decoded(
    lines: List[str],
    number: int,
    path: Path,
    header: List[Dict[str, Any]],
    batch: Batch,
) -> int:
    """Parse the lines of a decoded, ``\\r``-free chunk into ``batch``.

    Each line goes through the C scanner; a record carrying exactly its
    class's wire keys becomes its event in place, as
    :func:`~repro.obs.events.event_from_dict` fills it.  Anything else —
    blank or padded lines, the header, other key sets, bad JSON — takes
    :func:`_parse_line`, which raises what is wrong.  Returns the number
    of the last line.
    """
    scan = _scan_once
    in_place = IN_PLACE
    append = batch.append
    for line in lines:
        number += 1
        if header:
            try:
                record, end = scan(line, 0)
                if end == len(line):
                    cls, keys = in_place[record["kind"]]
                    if record.keys() == keys:
                        event = cls.__new__(cls)
                        state = event.__dict__
                        state.update(record)
                        del state["kind"]
                        append((number, event))
                        continue
            except (StopIteration, ValueError, LookupError, TypeError):
                pass
        text = line.strip()
        if text:
            parsed = _parse_line(text, path, number, header)
            if parsed is not None:
                append((number, parsed))
    return number


def _parse_raw(
    data: bytes,
    number: int,
    path: Path,
    header: List[Dict[str, Any]],
    batch: Batch,
) -> int:
    """Parse newline-terminated ``data`` line by line into ``batch``.

    The path for chunks holding a ``\\r`` or bad UTF-8: a line ends at
    ``\\n``, ``\\r\\n`` or a lone ``\\r``, and each decodes on its
    own, so a decoding error names its line.  Returns the number of the
    last line.
    """
    for raw in data.split(b"\n")[:-1]:
        if b"\r" in raw:
            if raw.endswith(b"\r"):  # \r\n
                raw = raw[:-1]
            pieces = raw.split(b"\r")
        else:
            pieces = [raw]
        for piece in pieces:
            number += 1
            try:
                text = piece.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise TraceSchemaError(
                    f"{path}:{number}: not valid UTF-8: {exc.reason}",
                    line=number,
                ) from exc
            if text:
                parsed = _parse_line(text, path, number, header)
                if parsed is not None:
                    batch.append((number, parsed))
    return number


def _read_batches(
    path: Path, digest: "Optional[_Hash]", header: List[Dict[str, Any]]
) -> Iterator[Batch]:
    """The events of ``path``, one batch per chunk read, with line numbers.

    Lines split the way text mode's universal newlines does (``\\n``,
    ``\\r\\n`` and a lone ``\\r``), are numbered from 1, and blank ones
    are skipped.  A chunk's whole lines are decoded and split once when
    they hold no ``\\r`` and decode as UTF-8 (:func:`_parse_decoded`), and
    line by line otherwise (:func:`_parse_raw`).  A batch ends at a
    malformed line: it is yielded, and the error raises on the next
    resume.

    Every chunk read goes into ``digest``, and closing the iterator early
    reads and hashes the rest, so once the iterator is exhausted or closed
    the digest covers the whole file.
    """
    with path.open("rb") as handle:
        try:
            number = 0
            tail = b""
            while True:
                chunk = handle.read(_READ_CHUNK)
                if digest is not None:
                    digest.update(chunk)
                # Only whole lines are parsed; at the end of the file the
                # tail is the last, unterminated line.
                data = tail + chunk
                if chunk:
                    cut = data.rfind(b"\n") + 1
                    data, tail = data[:cut], data[cut:]
                elif data:
                    data += b"\n"
                lines: Optional[List[str]] = None
                if b"\r" not in data:
                    try:
                        lines = data.decode("utf-8").split("\n")
                    except UnicodeDecodeError:
                        pass
                batch: Batch = []
                error: Optional[TraceSchemaError] = None
                try:
                    if lines is None:
                        number = _parse_raw(data, number, path, header, batch)
                    else:
                        lines.pop()  # What follows the final newline.
                        number = _parse_decoded(lines, number, path, header, batch)
                except TraceSchemaError as exc:
                    error = exc
                yield batch
                if error is not None:
                    raise error
                if not chunk:
                    return
        finally:
            if digest is not None:
                for rest in iter(lambda: handle.read(_READ_CHUNK), b""):
                    digest.update(rest)


def iter_trace_batches(
    path: Union[str, Path],
    *,
    digest: "Optional[_Hash]" = None,
) -> Tuple[Dict[str, Any], Iterator[Batch]]:
    """Stream a trace as ``(header, iterator of batches)``.

    The one trace reader: a batch is one chunk read's ``(line_number,
    event)`` pairs, so a consumer that walks every event (the certificate
    checker) pays no Python frame per line.  The header line is consumed
    eagerly — schema errors raise before this returns — while the rest
    parses a chunk at a time as the iterator is drained.  Malformed lines
    raise :class:`TraceSchemaError` anchored to that line, after the batch
    of events before them; the file handle is closed when the iterator is
    exhausted or garbage-collected.

    With ``digest`` (a :mod:`hashlib` object), every byte of the file is
    fed to it as it is read; once the iterator has ended — exhausted,
    closed, or stopped by a malformed line — the digest covers the whole
    file.
    """
    found: List[Dict[str, Any]] = []
    batches = _read_batches(Path(path), digest, found)
    read: List[Batch] = []
    try:
        for batch in batches:
            read.append(batch)
            if found:
                break
    except BaseException:
        batches.close()
        raise

    def rest() -> Iterator[Batch]:
        with closing(batches):
            yield from read
            yield from batches

    return (found[0] if found else {}), rest()


def iter_trace_numbered(
    path: Union[str, Path],
    *,
    digest: "Optional[_Hash]" = None,
) -> Tuple[Dict[str, Any], Iterator[Tuple[int, Event]]]:
    """Stream a trace as ``(header, iterator of (line_number, event))``.

    :func:`iter_trace_batches`, one event at a time: each event paired
    with its 1-based file line number, the header consumed eagerly, the
    same errors at the same lines, and the same ``digest`` guarantee.
    """
    header, batches = iter_trace_batches(path, digest=digest)

    def events() -> Iterator[Tuple[int, Event]]:
        with closing(batches):
            for batch in batches:
                yield from batch

    return header, events()


def iter_trace(
    path: Union[str, Path],
) -> Tuple[Dict[str, Any], Iterator[Event]]:
    """Stream a trace as ``(header, event iterator)``.

    Like :func:`read_trace` but the events parse lazily — large traces are
    never materialised as a full list.  The header is ``{}`` for
    pre-versioning files whose first line is already an event.
    """
    header, numbered = iter_trace_numbered(path)
    return header, (event for _, event in numbered)


def read_trace(path: Union[str, Path]) -> Tuple[Dict[str, Any], List[Event]]:
    """Parse a :class:`JsonlSink` file into ``(header, events)``.

    The header is ``{}`` for pre-versioning files whose first line is
    already an event (anything carrying a ``kind`` tag).  Raises
    :class:`TraceSchemaError` on an unsupported or malformed schema
    declaration and on lines that are not valid events, anchored to the
    offending file line — a trace either round-trips exactly or fails
    loudly.
    """
    header, batches = iter_trace_batches(path)
    return header, [event for batch in batches for _, event in batch]


def read_jsonl(path: Union[str, Path]) -> List[Event]:
    """Parse a :class:`JsonlSink` file back into typed events, in order."""
    return read_trace(path)[1]
