"""The trace line codec, the digest taken as a trace is written, and certify's one read.

* :func:`~repro.obs.events.event_line` must write exactly what the stock
  encoder writes for every event kind and every value a field can hold —
  including the values it hands back to the stock encoder.
* A :class:`~repro.obs.sinks.JsonlSink` hashes what it writes; the digest
  a manifest stamps must equal the file's SHA-256 for plain sessions,
  sessions that also keep a flight ring, and ``record_run``.
* ``certify_trace`` hashes and parses the same single read of the file,
  keeps its line anchors across read chunks and line-ending styles, and
  still flags an edited trace against a stale manifest digest.
"""

from __future__ import annotations

import enum
import hashlib
import json
import random
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.codecs import codec_family
from repro.faults.channel import drop_channel
from repro.obs.certify import certify_trace
from repro.obs.events import (
    RoundExecuted,
    event_from_dict,
    event_kinds,
    event_line,
)
from repro.obs.flight import dump_flight
from repro.obs.ledger import file_sha256, record_run
from repro.obs.sinks import JsonlSink, iter_trace_batches, read_trace
from repro.serve.session import Session, SessionSpec
from repro.servers.advisors import advisor_server_class
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.users.control_users import follower_user_class
from repro.worlds.control import control_goal, control_sensing, random_law


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


def stock(event):
    return json.dumps(event.to_dict(), separators=(",", ":"))


#: Every code point, surrogates included: quotes, backslashes, control
#: characters, non-ASCII and lone surrogates all reach the writer.
TEXT = st.text(
    alphabet=st.characters(
        min_codepoint=0, max_codepoint=0x10FFFF, blacklist_categories=()
    ),
    max_size=12,
) | st.sampled_from(
    ['"', "\\", "\n\t\x00", "\ud800", "\udfff", "é€𝄞", "{}", "%s"]
)
SCALARS = st.one_of(
    TEXT,
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(list(Level)),
)


@st.composite
def any_event(draw):
    cls = draw(st.sampled_from(sorted(event_kinds().values(), key=lambda c: c.kind)))
    return cls(**{f.name: draw(SCALARS) for f in fields(cls)})


class TestLineCodec:
    @settings(max_examples=400, deadline=None)
    @given(any_event())
    def test_line_equals_stock_encoder_for_every_kind_and_value(self, event):
        assert event_line(event) == stock(event)

    def test_every_kind_round_trips(self):
        for cls in event_kinds().values():
            values = {}
            for i, f in enumerate(fields(cls)):
                values[f.name] = i if "int" in str(f.type) else f"v{i}"
            event = cls(**values)
            line = event_line(event)
            assert line == stock(event)
            assert event_from_dict(json.loads(line)) == event

    def test_values_outside_the_fast_path_fall_back(self):
        event = RoundExecuted(
            round_index=Level.HIGH, halted=1, u2s=2.5, w2s=True
        )
        assert event_line(event) == stock(event)
        assert event_line(event).startswith(
            '{"kind":"round-executed","round_index":2,'
        )

    def test_round_line_stays_on_the_fast_path(self, monkeypatch):
        def stock_encoder(*args, **kwargs):
            raise AssertionError("the round line fell back to json.dumps")

        event = RoundExecuted(7, True, "a\"b", None, "é€𝄞\ud800", None, "\n", None)
        expected = stock(event)
        monkeypatch.setattr(json, "dumps", stock_encoder)
        assert event_line(event) == expected

    def test_unregistered_subclass_gets_its_own_writer(self):
        class Quoted(RoundExecuted):
            kind = 'quoted"{kind}'

        event = Quoted(round_index=1, halted=False, u2s="p")
        assert event_line(event) == stock(event)
        plain = RoundExecuted(round_index=1, halted=False, u2s="p")
        assert event_line(plain) == stock(plain)

    def test_decoder_builds_through_the_constructor_for_partial_records(self):
        # A legacy record without the optional field still gets its default.
        record = {
            "kind": "trial-started",
            "round_index": 0,
            "trial_number": 1,
            "candidate_index": 2,
        }
        assert event_from_dict(record).budget is None


LAW = random_law(random.Random(7))
GOAL = control_goal(LAW)
CODECS = codec_family(4)
SERVERS = advisor_server_class(LAW, CODECS)


def make_user():
    return CompactUniversalUser(
        ListEnumeration(follower_user_class(CODECS)), control_sensing()
    )


def spec(seed=5, max_rounds=400):
    return SessionSpec(
        user=make_user(), server=SERVERS[2], goal=GOAL, seed=seed,
        max_rounds=max_rounds, channel=drop_channel(0.1),
    )


class TestRunningDigest:
    def test_sink_digest_equals_file_digest(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path, header={"note": "é"})
        for i in range(JsonlSink.CHUNK_LINES * 2 + 3):
            # U+2028 is a line break to str.splitlines, never to the trace.
            event = RoundExecuted(round_index=i, halted=False, u2s="x\u2028")
            sink.emit(event)
        sink.close()
        assert sink.sha256() == file_sha256(path)
        assert len(read_trace(path)[1]) == JsonlSink.CHUNK_LINES * 2 + 3

    def test_session_stamps_the_written_bytes(self, tmp_path):
        session = Session(spec(), ledger_dir=tmp_path, trace=True, certify=True)
        session.step(1000)
        outcome = session.close()
        assert outcome.manifest.trace_sha256 == file_sha256(outcome.trace_path)

    def test_session_with_flight_ring_stamps_the_written_bytes(self, tmp_path):
        session = Session(
            spec(seed=9), session_id="f", ledger_dir=tmp_path,
            trace=True, certify=True, flight=16,
        )
        session.step(1000)
        outcome = session.close()
        assert outcome.manifest.trace_sha256 == file_sha256(outcome.trace_path)

    def test_record_run_stamps_the_written_bytes(self, tmp_path):
        recorded = record_run(
            make_user(), SERVERS[1], GOAL, max_rounds=300, seed=3,
            out_dir=tmp_path, channel=drop_channel(0.05), certify=True,
        )
        assert recorded.manifest.trace_sha256 == file_sha256(recorded.trace_path)

    def test_flight_dump_lines_match_the_full_trace(self, tmp_path):
        session = Session(
            spec(seed=11), session_id="g", ledger_dir=tmp_path,
            trace=True, flight=10_000,
        )
        session.step(150)
        session.abandon()
        traced = session.trace_path.read_text().splitlines()
        dumped = session.flight_path.read_text().splitlines()
        assert len(traced) > 100
        assert dumped[1:] == traced[1:]

    def test_dump_flight_of_a_plain_iterable(self, tmp_path):
        events = [
            RoundExecuted(round_index=i, halted=False, u2w="é")
            for i in range(3)
        ]
        dump = dump_flight(
            events, tmp_path / "dump.jsonl", header={"flight": False, "who": "x"}
        )
        lines = dump.read_text().splitlines()
        assert json.loads(lines[0]) == {
            "trace_schema": 2, "trace_schema_minor": 0, "flight": True, "who": "x",
        }
        assert lines[1:] == [stock(e) for e in events]


def numbered(path):
    """Every ``(line number, event)`` pair of a trace, in order."""
    _, batches = iter_trace_batches(path)
    return [pair for batch in batches for pair in batch]


class TestOneRead:
    def recorded(self, tmp_path):
        # 1300 rounds: the one-line-per-round trace still spans more than
        # three read chunks.
        return record_run(
            make_user(), SERVERS[1], GOAL, max_rounds=1300, seed=3,
            out_dir=tmp_path, name="run", channel=drop_channel(0.05),
        )

    def test_trace_spans_several_read_chunks(self, tmp_path):
        # The anchors below must survive chunk boundaries.
        assert self.recorded(tmp_path).trace_path.stat().st_size > 3 * (1 << 16)

    def test_corrupted_mid_file_line_is_anchored(self, tmp_path):
        recorded = self.recorded(tmp_path)
        lines = recorded.trace_path.read_text().splitlines()
        target = len(lines) * 2 // 3
        lines[target] = lines[target][:-5]
        recorded.trace_path.write_text("\n".join(lines) + "\n")
        report = certify_trace(recorded.trace_path)
        assert not report.ok
        assert report.issues[0].check == "stream"
        assert report.issues[0].line == target + 1
        assert "not valid JSON" in report.issues[0].message
        # The digest still covers the whole file, past the bad line.
        assert report.trace_sha256 == file_sha256(recorded.trace_path)

    def test_trailing_garbage_on_a_line_is_rejected(self, tmp_path):
        recorded = self.recorded(tmp_path)
        lines = recorded.trace_path.read_text().splitlines()
        lines[7] += " {}"
        recorded.trace_path.write_text("\n".join(lines) + "\n")
        report = certify_trace(recorded.trace_path)
        assert report.issues[0].line == 8
        assert "Extra data" in report.issues[0].message

    def test_invalid_utf8_is_a_line_anchored_finding(self, tmp_path):
        recorded = self.recorded(tmp_path)
        data = recorded.trace_path.read_bytes().split(b"\n")
        target = next(i for i in range(40, len(data)) if b'"s2u":"' in data[i])
        data[target] = data[target].replace(b'"s2u":"', b'"s2u":"\xff', 1)
        recorded.trace_path.write_bytes(b"\n".join(data))
        report = certify_trace(recorded.trace_path)
        assert not report.ok
        assert report.issues[0].line == target + 1
        assert "UTF-8" in report.issues[0].message

    def test_edited_trace_against_stale_manifest_digest(self, tmp_path):
        recorded = self.recorded(tmp_path)
        lines = recorded.trace_path.read_text().splitlines()
        # A byte-level edit that every semantic check accepts: the digest
        # cross-check is the only defence, and it must fire.
        lines[1] = lines[1].replace(':', ': ', 1)
        recorded.trace_path.write_text("\n".join(lines) + "\n")
        report = certify_trace(recorded.trace_path, recorded.manifest_location)
        assert not report.ok
        assert [issue.check for issue in report.issues] == ["manifest"]
        assert "digest mismatch" in report.issues[0].message
        assert report.trace_sha256 == file_sha256(recorded.trace_path)

    def test_crlf_and_lone_cr_line_endings_keep_anchors(self, tmp_path):
        recorded = self.recorded(tmp_path)
        plain = recorded.trace_path.read_text().splitlines()
        expected = numbered(recorded.trace_path)
        for ending in ("\r\n", "\r"):
            copy = tmp_path / f"copy{len(ending)}.jsonl"
            copy.write_bytes(ending.join(plain).encode() + ending.encode())
            assert numbered(copy) == expected
            assert certify_trace(copy).ok

    def test_digest_of_an_iterator_stopped_early_covers_the_file(self, tmp_path):
        recorded = self.recorded(tmp_path)
        digest = hashlib.sha256()
        _, batches = iter_trace_batches(recorded.trace_path, digest=digest)
        next(batches)
        batches.close()
        assert digest.hexdigest() == file_sha256(recorded.trace_path)
