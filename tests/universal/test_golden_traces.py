"""Golden traces: the universal users' event streams are pinned byte for byte.

The casts live in :mod:`tests.universal.golden`; each is re-run here with
its user tracing to a fresh JSONL file, and the file must equal the
committed one.  The final-state counters must equal ``final_stats.json``.
"""

from __future__ import annotations

import json

import pytest

from tests.universal.golden import CASTS, DATA, STATS_FILE, record

GOLDEN_STATS = json.loads(STATS_FILE.read_text())


@pytest.mark.parametrize("name", sorted(CASTS))
def test_trace_and_final_stats_match_golden(name, tmp_path):
    path = tmp_path / f"{name}.jsonl"
    stats = record(name, path)
    assert path.read_bytes() == (DATA / f"{name}.jsonl").read_bytes()
    assert stats == GOLDEN_STATS[name]


def test_every_golden_file_has_a_cast():
    traces = {path.stem for path in DATA.glob("*.jsonl")}
    assert traces == set(CASTS) == set(GOLDEN_STATS)
