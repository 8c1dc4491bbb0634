"""The serve bench gate in ``benchmarks/check_bench_regression.py``.

Throughput gates from below; tail latency and peak memory gate from
above, each only when both payloads carry the figure.  Several candidate
runs gate on their per-figure median.
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


def run_gate_many(gate, tmp_path, *candidates):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(BASELINE))
    paths = []
    for i, changes in enumerate(candidates):
        path = tmp_path / f"candidate{i}.json"
        payload = {**BASELINE, **changes}
        present = {k: v for k, v in payload.items() if v != "absent"}
        path.write_text(json.dumps(present))
        paths.append(str(path))
    return gate([str(baseline), *paths, "--metric", "sessions_per_s"])


class TestMedianOfRuns:
    def test_one_slow_run_among_three_passes(self, gate, tmp_path, capsys):
        runs = ({"sessions_per_s": 1010.0}, {"sessions_per_s": 600.0}, {})
        assert run_gate_many(gate, tmp_path, *runs) == 0
        assert "median of 3 runs" in capsys.readouterr().out

    def test_two_slow_runs_among_three_fail(self, gate, tmp_path):
        runs = ({"sessions_per_s": 700.0}, {"sessions_per_s": 650.0}, {})
        assert run_gate_many(gate, tmp_path, *runs) == 1

    def test_one_fast_run_cannot_hide_a_regression(self, gate, tmp_path):
        runs = (
            {"sessions_per_s": 2000.0},
            {"sessions_per_s": 700.0},
            {"sessions_per_s": 700.0},
        )
        assert run_gate_many(gate, tmp_path, *runs) == 1

    def test_ceilings_gate_on_the_median_too(self, gate, tmp_path, capsys):
        spike = ({"latency_p95_ms": 5000.0}, {}, {})
        assert run_gate_many(gate, tmp_path, *spike) == 0
        grown = ({"peak_rss_mb": 80.0}, {"peak_rss_mb": 80.0}, {})
        assert run_gate_many(gate, tmp_path, *grown) == 1
        assert "peak RSS grew" in capsys.readouterr().out

    def test_median_skips_runs_without_the_figure(self, gate, tmp_path):
        runs = ({"peak_rss_mb": None}, {"peak_rss_mb": "absent"}, {"peak_rss_mb": 80.0})
        assert run_gate_many(gate, tmp_path, *runs) == 1
        runs = ({"peak_rss_mb": None}, {"peak_rss_mb": "absent"})
        assert run_gate_many(gate, tmp_path, *runs) == 0
