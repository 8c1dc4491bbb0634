"""Sinks: ring-buffer semantics and deterministic JSONL round-trips."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    TRACE_SCHEMA,
    TRACE_SCHEMA_MINOR,
    JsonlSink,
    MemorySink,
    NullSink,
    RoundExecuted,
    SensingIndication,
    TraceSchemaError,
    iter_trace,
    iter_trace_batches,
    read_trace,
)

EVENTS = [
    RoundExecuted(round_index=i, halted=False, u2s="ping")
    for i in range(5)
]


class TestMemorySink:
    def test_keeps_events_in_order(self):
        sink = MemorySink()
        for e in EVENTS:
            sink.emit(e)
        assert sink.events == EVENTS

    def test_capacity_evicts_oldest(self):
        sink = MemorySink(capacity=3)
        for e in EVENTS:
            sink.emit(e)
        assert sink.events == EVENTS[-3:]

    def test_of_kind_filters(self):
        sink = MemorySink()
        sink.emit(EVENTS[0])
        sink.emit(SensingIndication(round_index=0, candidate_index=0, positive=True))
        assert sink.of_kind(SensingIndication) == [
            SensingIndication(round_index=0, candidate_index=0, positive=True)
        ]
        assert len(sink.of_kind(RoundExecuted)) == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            MemorySink(capacity=0)


class TestJsonlSink:
    def test_write_parse_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            for e in EVENTS:
                sink.emit(e)
        assert read_trace(path)[1] == EVENTS

    def test_field_order_is_deterministic(self, tmp_path):
        """Two traces of the same events are byte-identical."""
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            with JsonlSink(path) as sink:
                for e in EVENTS:
                    sink.emit(e)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_lines_are_compact_json_with_kind_first(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(EVENTS[0])
        header_line, event_line = path.read_text().strip().splitlines()
        assert json.loads(header_line) == {
            "trace_schema": TRACE_SCHEMA,
            "trace_schema_minor": TRACE_SCHEMA_MINOR,
        }
        assert event_line.startswith('{"kind":"round-executed"')
        assert json.loads(event_line)["round_index"] == 0

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "trace.jsonl")
        sink.close()
        sink.close()


class TestTraceSchema:
    def test_header_round_trips_with_extras(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path, header={"run_id": "abc123"}) as sink:
            sink.emit(EVENTS[0])
        header, events = read_trace(path)
        assert header == {
            "trace_schema": TRACE_SCHEMA,
            "trace_schema_minor": TRACE_SCHEMA_MINOR,
            "run_id": "abc123",
        }
        assert events == [EVENTS[0]]

    def test_header_extras_cannot_shadow_schema(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        JsonlSink(
            path, header={"trace_schema": 99, "trace_schema_minor": 99}
        ).close()
        header, _ = read_trace(path)
        assert header["trace_schema"] == TRACE_SCHEMA
        assert header["trace_schema_minor"] == TRACE_SCHEMA_MINOR

    def test_headerless_file_reads_as_legacy(self, tmp_path):
        """Pre-versioning traces (first line is an event) still parse."""
        path = tmp_path / "legacy.jsonl"
        path.write_text(
            json.dumps(EVENTS[0].to_dict(), separators=(",", ":")) + "\n"
        )
        header, events = read_trace(path)
        assert header == {}
        assert events == [EVENTS[0]]

    def test_newer_major_is_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"trace_schema": TRACE_SCHEMA + 1}) + "\n")
        with pytest.raises(TraceSchemaError, match="newer than the supported"):
            read_trace(path)

    def test_major_1_is_rejected_at_its_header_line(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(
            '\n{"trace_schema": 1, "trace_schema_minor": 1}\n'
            '{"kind": "message-sent", "round_index": 0, "sender": "user", '
            '"receiver": "server", "payload": "a"}\n'
        )
        with pytest.raises(
            TraceSchemaError, match=r"old\.jsonl:2: trace_schema 1 predates"
        ) as excinfo:
            read_trace(path)
        assert excinfo.value.line == 2
        assert "re-record the trace" in str(excinfo.value)

    def test_malformed_schema_is_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"trace_schema": "one"}\n')
        with pytest.raises(TraceSchemaError, match="malformed"):
            read_trace(path)


class TestIterTrace:
    def write_trace(self, path):
        with JsonlSink(path) as sink:
            for e in EVENTS:
                sink.emit(e)

    def test_streams_same_events_as_read_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self.write_trace(path)
        header, stream = iter_trace(path)
        assert header["trace_schema"] == TRACE_SCHEMA
        assert list(stream) == read_trace(path)[1]

    def test_events_parse_lazily(self, tmp_path):
        """A bad line deep in the file only raises when reached."""
        path = tmp_path / "trace.jsonl"
        self.write_trace(path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("not json\n")
        header, stream = iter_trace(path)
        for _ in range(len(EVENTS)):
            next(stream)  # the good prefix streams fine
        with pytest.raises(TraceSchemaError, match="not valid JSON"):
            next(stream)

    def test_numbered_yields_one_based_file_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self.write_trace(path)
        _, batches = iter_trace_batches(path)
        lines = [number for batch in batches for number, _ in batch]
        # Line 1 is the header, so events start at line 2.
        assert lines == list(range(2, 2 + len(EVENTS)))

    def test_headerless_file_numbers_from_one(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        path.write_text(
            json.dumps(EVENTS[0].to_dict(), separators=(",", ":")) + "\n"
        )
        header, batches = iter_trace_batches(path)
        assert header == {}
        assert [number for batch in batches for number, _ in batch] == [1]

    def test_header_errors_raise_eagerly(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"trace_schema": TRACE_SCHEMA + 1}) + "\n")
        with pytest.raises(TraceSchemaError, match="newer than the supported"):
            iter_trace(path)


class TestLineAnchoredErrors:
    def test_bad_json_carries_path_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"trace_schema": 2}\n\n{oops\n')
        with pytest.raises(TraceSchemaError, match=r"bad\.jsonl:3: not valid JSON"):
            read_trace(path)

    def test_unknown_kind_carries_path_and_line(self, tmp_path):
        path = tmp_path / "unknown.jsonl"
        path.write_text('{"trace_schema": 2}\n{"kind": "martian"}\n')
        with pytest.raises(
            TraceSchemaError, match=r"unknown\.jsonl:2: unknown or missing"
        ):
            read_trace(path)

    def test_bad_payload_carries_path_and_line(self, tmp_path):
        path = tmp_path / "payload.jsonl"
        path.write_text(
            '{"trace_schema": 2}\n{"kind": "round-executed", "bogus": 1}\n'
        )
        with pytest.raises(
            TraceSchemaError, match=r"payload\.jsonl:2: malformed event payload"
        ) as excinfo:
            read_trace(path)
        assert excinfo.value.line == 2

    def test_non_object_line_is_rejected(self, tmp_path):
        path = tmp_path / "scalar.jsonl"
        path.write_text('{"trace_schema": 2}\n42\n')
        with pytest.raises(TraceSchemaError, match="not a JSON object"):
            read_trace(path)


class TestNullSink:
    def test_swallows_everything(self):
        sink = NullSink()
        for e in EVENTS:
            sink.emit(e)
        sink.close()
