"""The major-1 → major-2 converter reproduces the engine's output exactly.

``data/certify_demo_v1.jsonl.gz`` is ``benchmarks/data/certify_demo.jsonl``
as the last major-1 engine wrote it: a faulted 600-round control run with
a ``message-sent`` line per message.  Converted, it must equal the
committed major-2 demo byte for byte — and ``test_certify``'s golden test
pins that file to what the engine writes today — so the one-line-per-round
trace carries exactly what the two-line form did.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

import pytest

from repro.obs.sinks import TRACE_SCHEMA, TraceSchemaError, read_trace
from tests.obs.trace_v1 import convert_v1

HERE = Path(__file__).parent
V1_DEMO = HERE / "data" / "certify_demo_v1.jsonl.gz"
DEMO = HERE.parents[1] / "benchmarks" / "data" / "certify_demo.jsonl"


@pytest.fixture(scope="module")
def v1_demo() -> bytes:
    return gzip.decompress(V1_DEMO.read_bytes())


def test_converted_demo_equals_the_committed_major_2_demo(v1_demo):
    assert convert_v1(v1_demo) == DEMO.read_bytes()


def test_conversion_keeps_every_payload_and_drops_only_message_lines(v1_demo):
    old = [json.loads(line) for line in v1_demo.splitlines()]
    new = [json.loads(line) for line in DEMO.read_bytes().splitlines()]
    sent = [e for e in old if e.get("kind") == "message-sent"]
    assert sent  # Not vacuous.
    assert len(new) == len(old) - len(sent)
    carried = [
        (e["round_index"], value)
        for e in new
        if e.get("kind") == "round-executed"
        for key, value in e.items()
        if key not in ("kind", "round_index", "halted") and value is not None
    ]
    assert carried == [(e["round_index"], e["payload"]) for e in sent]


def test_the_reader_rejects_the_major_1_trace(v1_demo, tmp_path):
    path = tmp_path / "v1.jsonl"
    path.write_bytes(v1_demo)
    with pytest.raises(TraceSchemaError, match="re-record the trace") as info:
        read_trace(path)
    assert info.value.line == 1
    assert f"{path}:1:" in str(info.value)
    header, _ = read_trace(DEMO)
    assert header["trace_schema"] == TRACE_SCHEMA == 2
