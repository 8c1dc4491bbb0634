"""The serve bench gate in ``benchmarks/check_bench_regression.py``.

Throughput gates from below; tail latency and peak memory gate from
above, each only when both payloads carry the figure.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "check_bench_regression.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_bench_regression", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


BASELINE = {
    "sessions_per_s": 1000.0,
    "latency_p95_ms": 1000.0,
    "peak_rss_mb": 60.0,
    "cores": 2,
}


def run_gate(gate, tmp_path, **candidate_changes):
    baseline = tmp_path / "baseline.json"
    candidate = tmp_path / "candidate.json"
    baseline.write_text(json.dumps(BASELINE))
    payload = {**BASELINE, **candidate_changes}
    candidate.write_text(json.dumps({k: v for k, v in payload.items() if v != "absent"}))
    return gate([str(baseline), str(candidate), "--metric", "sessions_per_s"])


class TestServeGate:
    def test_equal_payloads_pass(self, gate, tmp_path):
        assert run_gate(gate, tmp_path) == 0

    def test_peak_rss_growth_beyond_tolerance_fails(self, gate, tmp_path, capsys):
        assert run_gate(gate, tmp_path, peak_rss_mb=76.0) == 1
        assert "peak RSS grew" in capsys.readouterr().out

    def test_peak_rss_within_tolerance_passes(self, gate, tmp_path):
        assert run_gate(gate, tmp_path, peak_rss_mb=74.0) == 0
        assert run_gate(gate, tmp_path, peak_rss_mb=30.0) == 0

    def test_peak_rss_gates_only_when_both_carry_it(self, gate, tmp_path):
        assert run_gate(gate, tmp_path, peak_rss_mb="absent") == 0
        assert run_gate(gate, tmp_path, peak_rss_mb=None) == 0

    def test_p95_growth_still_fails(self, gate, tmp_path, capsys):
        assert run_gate(gate, tmp_path, latency_p95_ms=1300.0) == 1
        assert "p95 grew" in capsys.readouterr().out

    def test_throughput_drop_fails(self, gate, tmp_path):
        assert run_gate(gate, tmp_path, sessions_per_s=700.0) == 1
