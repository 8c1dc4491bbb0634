"""Tests for the benchmark's own helpers.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads as w  # noqa: E402
from layers import PER_LAYER, Probe, layer_metrics  # noqa: E402
from spans import GcPauses, SpanRecorder, percentile  # noqa: E402


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 20.0) == 1.0
    assert percentile(values, 21.0) == 2.0
    assert percentile(values, 50.0) == 3.0
    assert percentile(values, 100.0) == 5.0
    # p99 of 1000 samples is the 990th: ten samples lie beyond it.
    assert percentile(list(range(1, 1001)), 99.0) == 990
    assert math.isnan(percentile([], 50.0))
    with pytest.raises(ValueError):
        percentile(values, 101.0)


def test_self_time_subtracts_child_spans(monkeypatch):
    now = [0]
    monkeypatch.setattr(spans, "clock", lambda: now[0])
    recorder = SpanRecorder()

    def work(ns):
        now[0] += ns

    inner = recorder.timed("inner", work)

    def outer_body():
        work(10)
        inner(100)
        work(5)
        inner(40)

    outer = recorder.timed("outer", outer_body)
    outer()
    assert recorder.total_ns("outer") == 155
    assert recorder.self_ns("outer") == 15
    assert recorder.total_ns("inner") == recorder.self_ns("inner") == 140
    assert recorder.calls("inner") == 2
    assert recorder.per_call_ns("inner") == 70
    assert recorder.sum_self_ns() == 155  # = the outermost span
    assert recorder.depth == 0


def test_span_closes_when_the_call_raises(monkeypatch):
    recorder = SpanRecorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        recorder.timed("layer", boom)()
    assert recorder.depth == 0
    assert recorder.calls("layer") == 1


def test_cpu_clock_between_stamps():
    stamps = [(0.0, 10.0), (1.0, 10.2), (2.0, 11.2)]
    assert w._cpu_at(stamps, 0.5) == pytest.approx(10.2)  # only 0.2 s ran
    assert w._cpu_at(stamps, 1.5) == pytest.approx(10.7)  # busy from 1.0
    assert w._cpu_at(stamps, 3.0) == pytest.approx(12.2)  # past the last
    assert w._cpu_at(stamps, -1.0) == pytest.approx(10.0)


def test_fleet_is_demo_specs_fleet():
    from repro.serve.loadgen import demo_specs

    ours = w.mixed_fleet(5, 30, w.Plain(), max_rounds=200)
    theirs = demo_specs("mixed", 30, seed=5, max_rounds=200)
    assert [s.label for s in ours] == [s.label for s in theirs]
    assert [s.seed for s in ours] == [s.seed for s in theirs]


def test_proxies_keep_sweep_verdicts():
    plain = w.sweep_grid(3, w.Plain())
    traced = w.sweep_grid(3, Probe())
    reference = w.sweep_pass(plain, plain.servers[:2])
    result = w.sweep_pass(traced, traced.servers[:2])
    assert result.universal_success
    assert w.verdict_digest(w.sweep_verdicts(result)) == w.verdict_digest(
        w.sweep_verdicts(reference)
    )


def test_proxies_keep_traces_and_certificates(tmp_path, monkeypatch):
    # Keep the ledgers: compare the trace files themselves.
    monkeypatch.setattr(w.shutil, "rmtree", lambda *args, **kwargs: None)
    probe = Probe()
    traces = []
    for name, wrap, patches in (
        ("plain", w.Plain(), contextlib.nullcontext),
        ("traced", probe, probe.patched),
    ):
        directory = tmp_path / name
        directory.mkdir()
        with patches():
            run = w.serve_open(
                w.mixed_fleet(4, 9, wrap, max_rounds=60, drop=w.OPEN_DROP),
                400.0, directory,
            )
        assert run.failed == 0  # every session certified
        (ledger,) = directory.iterdir()
        traces.append({p.name: p.read_bytes() for p in ledger.glob("*.jsonl")})
    assert len(traces[0]) == 9
    assert traces[0] == traces[1]
    assert probe.recorder.calls("obs.certify") == 9
    assert probe.recorder.calls("faults") > 0
    assert probe.recorder.calls("universal") > 0
    assert probe.recorder.depth == 0


def test_patches_are_restored():
    import repro.analysis.runner as runner
    from repro.obs.tracer import Tracer
    from repro.serve.session import Session

    before = (runner.sweep, runner.run_execution, Tracer.emit, Session.step)
    with Probe().patched():
        assert runner.sweep is not before[0]
    assert (runner.sweep, runner.run_execution, Tracer.emit, Session.step) == before


def test_layer_metrics_cover_every_declared_metric():
    probe = Probe()
    with GcPauses() as pauses:
        pass
    metrics = layer_metrics(
        probe, cells=0, sessions=0, traced_wall_s=1.0, traced_cpu_s=1.0,
        untraced_cpu_s=1.0, gc_pauses=pauses,
    )
    assert set(metrics) == {name for name, _ in PER_LAYER}
