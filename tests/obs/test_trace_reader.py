"""The chunked trace reader equals the per-line reader it replaced.

:func:`~repro.obs.sinks.iter_trace_batches` decodes and splits a 64 KiB
chunk at once and fills events in place; every line it cannot take that
way goes the per-line route.  The reference below is the per-line reader
and its header check as they stood before the chunked reader and the
shared schema-major check, copied verbatim.  Over generated files —
valid and padded event lines, blank lines, ``\\r\\n`` and lone ``\\r``
endings, invalid UTF-8, trailing data, non-objects, unknown kinds and
other key sets, a header or none — the batches, flattened, must yield the
same ``(line, event)`` pairs and leave the same digest, and every view
(:func:`~repro.obs.sinks.iter_trace`, :func:`~repro.obs.sinks.read_trace`)
the same events, each raising the same error type at the same line with
the same message (eagerly or lazily, as the reference does).
"""

from __future__ import annotations

import hashlib
from contextlib import closing
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import sinks
from repro.obs.events import (
    Event,
    ExecutionFinished,
    RoundExecuted,
    SensingIndication,
    TrialStarted,
    event_line,
)
from repro.obs.sinks import (
    TRACE_SCHEMA,
    TraceSchemaError,
    _parse_event,
    _parse_record,
    iter_trace,
    iter_trace_batches,
    read_trace,
)

CHUNK = 1 << 16


# --------------------------------------------------------------------------
# The reference: the per-line reader, verbatim.
# --------------------------------------------------------------------------


def _check_trace_header(header: Dict[str, Any], path: Path, number: int) -> None:
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


def _numbered_lines(path: Path, digest: Any) -> Iterator[Tuple[int, str]]:
    with path.open("rb") as handle:
        try:
            number = 0
            tail = b""
            while True:
                chunk = handle.read(sinks._READ_CHUNK)
                if digest is not None:
                    digest.update(chunk)
                # At the end of the file the tail is the last, unterminated line.
                pieces = (tail + chunk).split(b"\n")
                tail = pieces.pop() if chunk else b""
                for raw in pieces:
                    if b"\r" in raw:
                        if raw.endswith(b"\r"):  # \r\n
                            raw = raw[:-1]
                        split = raw.split(b"\r")
                    else:
                        split = [raw]
                    for piece in split:
                        number += 1
                        try:
                            text = piece.decode("utf-8").strip()
                        except UnicodeDecodeError as exc:
                            raise TraceSchemaError(
                                f"{path}:{number}: not valid UTF-8: {exc.reason}",
                                line=number,
                            ) from exc
                        if text:
                            yield number, text
                if not chunk:
                    return
        finally:
            if digest is not None:
                for rest in iter(lambda: handle.read(sinks._READ_CHUNK), b""):
                    digest.update(rest)


def reference_numbered(
    path: Path, *, digest: Any = None
) -> Tuple[Dict[str, Any], Iterator[Tuple[int, Event]]]:
    resolved = Path(path)
    lines = _numbered_lines(resolved, digest)
    header: Dict[str, Any] = {}
    first_event: Optional[Tuple[int, Event]] = None
    try:
        for number, text in lines:
            record = _parse_record(text, resolved, number)
            if isinstance(record, dict) and "kind" not in record:
                _check_trace_header(record, resolved, number)
                header = record
            else:
                first_event = (number, _parse_event(record, resolved, number))
            break
    except BaseException:
        lines.close()
        raise

    def events() -> Iterator[Tuple[int, Event]]:
        with closing(lines):
            if first_event is not None:
                yield first_event
            for number, text in lines:
                record = _parse_record(text, resolved, number)
                yield number, _parse_event(record, resolved, number)

    return header, events()


# --------------------------------------------------------------------------
# Views of the new reader, and one outcome shape to compare them by.
# --------------------------------------------------------------------------


def batches_numbered(
    path: Path, *, digest: Any = None
) -> Tuple[Dict[str, Any], Iterator[Tuple[int, Event]]]:
    header, batches = iter_trace_batches(path, digest=digest)
    return header, (pair for batch in batches for pair in batch)


Outcome = Tuple[Any, ...]


def outcome(reader: Any, path: Path) -> Outcome:
    """(header, pairs, error as (when, type, line, message), digest)."""
    digest = hashlib.sha256()
    pairs: List[Tuple[int, Event]] = []
    header: Optional[Dict[str, Any]] = None
    error = None
    try:
        header, numbered = reader(path, digest=digest)
    except TraceSchemaError as exc:
        error = ("eager", type(exc), exc.line, str(exc))
    else:
        try:
            for pair in numbered:
                pairs.append(pair)
        except TraceSchemaError as exc:
            error = ("lazy", type(exc), exc.line, str(exc))
    return header, pairs, error, digest.hexdigest()


def iter_trace_outcome(path: Path) -> Tuple[Any, ...]:
    """(header, events, error as (when, type, line, message))."""
    events: List[Event] = []
    try:
        header, stream = iter_trace(path)
    except TraceSchemaError as exc:
        return None, events, ("eager", type(exc), exc.line, str(exc))
    try:
        for event in stream:
            events.append(event)
    except TraceSchemaError as exc:
        return header, events, ("lazy", type(exc), exc.line, str(exc))
    return header, events, None


def read_trace_outcome(path: Path) -> Tuple[Any, ...]:
    try:
        header, events = read_trace(path)
    except TraceSchemaError as exc:
        return None, None, (type(exc), exc.line, str(exc))
    return header, events, None


def assert_same_reading(path: Path) -> None:
    expected = outcome(reference_numbered, path)
    assert outcome(batches_numbered, path) == expected
    header, pairs, error, _ = expected
    assert iter_trace_outcome(path) == (header, [e for _, e in pairs], error)
    if error is None:
        assert read_trace_outcome(path) == (header, [e for _, e in pairs], None)
    else:
        assert read_trace_outcome(path)[2] == error[1:]


# --------------------------------------------------------------------------
# Generated trace files.
# --------------------------------------------------------------------------

HEADER = b'{"trace_schema":2,"trace_schema_minor":0}'
EVENTS = [
    RoundExecuted(round_index=0, halted=False, u2s="ping"),
    # Non-ASCII, escapes and a lone surrogate in the payload fields.
    RoundExecuted(round_index=3, halted=False, s2u="é€𝄞\\\"", w2s="\udfff"),
    RoundExecuted(round_index=4, halted=False),
    SensingIndication(round_index=5, candidate_index=1, positive=True),
    TrialStarted(round_index=6, trial_number=2, candidate_index=1, budget=None),
    ExecutionFinished(rounds_executed=7, halted=True),
]
VALID = [event_line(event).encode() for event in EVENTS]
#: Lines that read cleanly, though some not by the in-place route.
GOOD = VALID + [
    b"",  # Blank.
    b"  \t ",  # Blank after strip.
    b" " + VALID[2] + b" ",  # Padded.
    b"\xc2\x85" + VALID[1],  # U+0085 strips as whitespace.
    # Other key sets that still build: a defaulted field left out, and
    # the fields reordered.
    b'{"kind":"trial-started","round_index":0,"trial_number":0,"candidate_index":1}',
    b'{"kind":"execution-finished","halted":false,"rounds_executed":1}',
]
#: Lines that stop the read.
BAD = [
    VALID[3] + b" {}",  # Trailing data.
    VALID[0][:-3],  # Truncated.
    b"[1, 2]",  # Not an object.
    b'"text"',
    b"17",
    b'{"kind": "martian"}',  # Unknown kind.
    b'{"kind": ["list"]}',  # Unhashable kind.
    b'{"round_index": 1}',  # No kind.
    b'{"kind":"round-executed","round_index":1}',  # A field missing.
    b'{"kind":"execution-finished","rounds_executed":1,"halted":false,"x":1}',
    b"{oops",
    b"\xff\xfe",  # Invalid UTF-8.
    b'{"kind":"round-executed","round_index":0,"halted":false,"u2s":"\xc3",'
    b'"u2w":null,"s2u":null,"s2w":null,"w2u":null,"w2s":null}',  # A cut character.
]
ENDING = st.sampled_from([b"\n"] * 6 + [b"\r\n", b"\r"])
HEAD = st.sampled_from(
    [HEADER] * 4
    + [b"", b'{"trace_schema": 99}', b'{"trace_schema": "one"}', b'{"trace_schema": 1}']
)


@st.composite
def body(draw: Any, max_lines: int = 10) -> bytes:
    """Good lines, maybe one bad line among them, maybe unterminated."""
    lines = draw(st.lists(st.sampled_from(GOOD), max_size=max_lines))
    if draw(st.booleans()):
        at = draw(st.integers(min_value=0, max_value=len(lines)))
        lines.insert(at, draw(st.sampled_from(BAD)))
    data = b"".join(line + draw(ENDING) for line in lines)
    if draw(st.booleans()):
        data += draw(st.sampled_from(GOOD + BAD))  # An unterminated last line.
    return data


#: What may sit across the 64 KiB boundary.
STRADDLE = st.sampled_from(
    [
        b"\r",
        b"\r\n",
        b"\n",
        b"\r\r\n",
        VALID[1] + b"\n",
        VALID[0] + b"\r",
        b"\xff\n",
        b"   \n",
    ]
)


def filler(size: int) -> bytes:
    """A valid event line of exactly ``size`` bytes, newline included."""
    bare = RoundExecuted(round_index=0, halted=False, u2w="")
    payload = "x" * (size - len(event_line(bare)) - 1)
    assert payload
    line = event_line(RoundExecuted(round_index=0, halted=False, u2w=payload))
    return line.encode() + b"\n"


@st.composite
def boundary_trace(draw: Any) -> bytes:
    """A file whose chosen piece sits on the first 64 KiB boundary."""
    before = draw(HEAD) + draw(ENDING) + draw(body(max_lines=4))
    if before and not before.endswith((b"\n", b"\r")):
        before += b"\n"
    straddle = draw(STRADDLE)
    # Where the boundary falls inside (or just around) the straddling piece.
    offset = draw(st.integers(min_value=-2, max_value=len(straddle) + 1))
    pad = CHUNK - offset - len(before)
    return before + filler(pad) + straddle + draw(body(max_lines=6))


@settings(max_examples=150, deadline=None)
@given(data=boundary_trace())
def test_chunked_reader_matches_per_line_reader_at_the_chunk_boundary(
    tmp_path_factory: Any, data: bytes
) -> None:
    path = tmp_path_factory.getbasetemp() / "boundary.jsonl"
    path.write_bytes(data)
    assert_same_reading(path)


@settings(max_examples=300, deadline=None)
@given(
    head=HEAD,
    ending=ENDING,
    rest=body(),
    chunk=st.sampled_from([1, 2, 3, 5, 8, 64, 4096]),
)
def test_chunked_reader_matches_per_line_reader_at_any_chunk_size(
    tmp_path_factory: Any, head: bytes, ending: bytes, rest: bytes, chunk: int
) -> None:
    """Small chunks put a boundary inside every kind of line."""
    path = tmp_path_factory.getbasetemp() / "chunked.jsonl"
    path.write_bytes(head + ending + rest)
    with mock.patch.object(sinks, "_READ_CHUNK", chunk):
        assert_same_reading(path)


def test_header_only_and_empty_files(tmp_path: Path) -> None:
    for name, data in [
        ("header.jsonl", HEADER + b"\n"),
        ("unterminated.jsonl", HEADER),
        ("empty.jsonl", b""),
        ("blank.jsonl", b"\n \r\n\r"),
    ]:
        path = tmp_path / name
        path.write_bytes(data)
        assert_same_reading(path)
        assert outcome(batches_numbered, path)[1] == []


def test_a_long_clean_trace_reads_in_place(tmp_path: Path) -> None:
    """Several chunks of valid lines: the fast path, end to end."""
    path = tmp_path / "long.jsonl"
    lines = [HEADER] + [VALID[i % len(VALID)] for i in range(9000)]
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert path.stat().st_size > 4 * CHUNK
    assert_same_reading(path)
    header, batches = iter_trace_batches(path)
    assert header == {"trace_schema": 2, "trace_schema_minor": 0}
    assert sum(len(batch) for batch in batches) == 9000
