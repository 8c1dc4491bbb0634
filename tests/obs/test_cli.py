"""The ``python -m repro.obs`` CLI: exit codes, formats, malformed inputs."""

from __future__ import annotations

import json

import pytest

from repro.obs import JsonlSink
from repro.obs.__main__ import main
from repro.obs.events import (
    ExecutionFinished,
    ExecutionStarted,
    RoundExecuted,
    SensingIndication,
    StrategySwitch,
    TrialFinished,
    TrialStarted,
)

EVENTS = [
    ExecutionStarted(user="u", server="s", world="w", max_rounds=10, seed=0),
    TrialStarted(round_index=0, trial_number=0, candidate_index=0),
    RoundExecuted(round_index=0, halted=False, u2s="ping", w2u="data"),
    SensingIndication(round_index=0, candidate_index=0, positive=False),
    TrialFinished(round_index=0, trial_number=0, candidate_index=0,
                  rounds_used=1, reason="evicted"),
    StrategySwitch(round_index=0, from_index=0, to_index=1, wrapped=False),
    TrialStarted(round_index=1, trial_number=1, candidate_index=1),
    RoundExecuted(round_index=1, halted=False, u2s="ping", w2u="data"),
    RoundExecuted(round_index=2, halted=False, u2s="ping", w2u="data"),
    ExecutionFinished(rounds_executed=3, halted=False),
]


@pytest.fixture
def trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    with JsonlSink(path) as sink:
        for event in EVENTS:
            sink.emit(event)
    return path


def write_history(path, *metric_dicts):
    with path.open("w", encoding="utf-8") as handle:
        for metrics in metric_dicts:
            handle.write(json.dumps({"manifest": {}, "metrics": metrics}) + "\n")


class TestSummarize:
    def test_text_output(self, trace, capsys):
        assert main(["summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "u vs s" in out
        assert "rounds     : 3" in out
        assert "round-executed" in out

    def test_json_output(self, trace, capsys):
        assert main(["summarize", str(trace), "--format", "json"]) == 0
        documents = json.loads(capsys.readouterr().out)
        assert documents[0]["rounds"] == 3
        assert documents[0]["counts"]["round-executed"] == 3
        assert documents[0]["trace_schema"] == 2
        assert documents[0]["messages"] == 6
        assert documents[0]["message_bytes"] == 24

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["summarize", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_trace_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        assert main(["summarize", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_event_kind_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "unknown.jsonl"
        bad.write_text('{"trace_schema": 2}\n{"kind": "martian"}\n')
        assert main(["summarize", str(bad)]) == 2

    def test_major_1_trace_exits_2(self, tmp_path, capsys):
        old = tmp_path / "old.jsonl"
        old.write_text('{"trace_schema": 1, "trace_schema_minor": 1}\n')
        assert main(["summarize", str(old)]) == 2
        assert f"{old}:1: trace_schema 1 predates" in capsys.readouterr().err

    def test_future_schema_exits_2(self, tmp_path, capsys):
        future = tmp_path / "future.jsonl"
        future.write_text('{"trace_schema": 99}\n')
        assert main(["summarize", str(future)]) == 2
        assert "newer than the supported" in capsys.readouterr().err


class TestOverhead:
    def test_text_output(self, trace, capsys):
        assert main(["overhead", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "total rounds      : 3" in out
        assert "settled index     : 1" in out

    def test_json_output_matches_library(self, trace, capsys):
        from repro.obs.overhead import compute_overhead
        from repro.obs.sinks import read_trace

        assert main(["overhead", str(trace), "--format", "json"]) == 0
        documents = json.loads(capsys.readouterr().out)
        expected = compute_overhead(read_trace(trace)[1]).to_dict()
        assert documents[0] == {"path": str(trace), **expected}


class TestTimeline:
    def test_renders_one_line_per_event(self, trace, capsys):
        assert main(["timeline", str(trace)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(EVENTS)
        assert "execution-started" in lines[0]
        assert "0 -> 1" in lines[5]

    def test_limit_truncates(self, trace, capsys):
        assert main(["timeline", str(trace), "--limit", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert "truncated" in lines[-1]


class TestDiff:
    def test_identical_traces_diff_clean(self, trace, capsys):
        code = main(["diff", str(trace), str(trace), "--fail-on", "rounds"])
        assert code == 0
        assert "verdict: ok" in capsys.readouterr().out

    def test_regression_exits_1(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        write_history(history, {"rounds": 10}, {"rounds": 15})
        code = main(["diff", "--history", str(history), "--fail-on", "rounds"])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_tolerance_allows_small_increase(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        write_history(history, {"rounds": 100}, {"rounds": 104})
        assert main([
            "diff", "--history", str(history),
            "--fail-on", "rounds", "--tolerance", "5",
        ]) == 0

    def test_unwatched_increase_is_reported_not_failed(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        write_history(history, {"rounds": 10, "other": 1}, {"rounds": 15, "other": 1})
        assert main(["diff", "--history", str(history)]) == 0
        assert "10 -> 15" in capsys.readouterr().out

    def test_history_diff_uses_two_newest(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        write_history(history, {"x": 1}, {"x": 2}, {"x": 3})
        assert main(["diff", "--history", str(history), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["metrics"][0]["old"] == 2
        assert data["metrics"][0]["new"] == 3

    def test_single_entry_history_exits_2(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        write_history(history, {"x": 1})
        assert main(["diff", "--history", str(history)]) == 2
        assert "at least 2" in capsys.readouterr().err

    def test_unknown_fail_on_metric_exits_2(self, trace, capsys):
        assert main([
            "diff", str(trace), str(trace), "--fail-on", "nope"
        ]) == 2
        assert "absent from both inputs" in capsys.readouterr().err

    def test_manifest_diff(self, tmp_path, capsys):
        from repro.obs.ledger import RunManifest, write_manifest

        manifest = RunManifest(
            kind="run", goal="g", user="u", server="s", channel=None,
            recording="full", seeds=(0,), max_rounds=10, rounds=5,
            achieved=1, halted=1, wall_time_s=0.1, cpu_time_s=0.1,
        )
        a = write_manifest(manifest, tmp_path / "a" / "manifests.ndjson").path
        b = write_manifest(manifest, tmp_path / "b" / "manifests.ndjson").path
        assert main(["diff", str(a), str(b), "--fail-on", "rounds"]) == 0

    def test_inputs_are_classified_by_first_line_not_name(
        self, trace, tmp_path, capsys
    ):
        from repro.obs.ledger import RunManifest, write_manifest

        def manifest(rounds):
            return RunManifest(
                kind="run", goal="g", user="u", server="s", channel=None,
                recording="full", seeds=(0,), max_rounds=10, rounds=rounds,
                achieved=1, halted=1, wall_time_s=0.1, cpu_time_s=0.1,
            )

        renamed = tmp_path / "trace.json"
        renamed.write_bytes(trace.read_bytes())
        assert main(["diff", str(trace), str(renamed), "--fail-on", "rounds"]) == 0
        # A stream diffs as its newest manifest: the last line wins.
        old = write_manifest(manifest(5), tmp_path / "old" / "manifests.ndjson").path
        new = tmp_path / "new" / "manifests.ndjson"
        write_manifest(manifest(9), new)
        write_manifest(manifest(5), new)
        capsys.readouterr()
        assert main([
            "diff", str(old), str(new), "--fail-on", "rounds", "--format", "json",
        ]) == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert {"metric": "rounds", "old": 5, "new": 5, "delta": 0} in metrics

    def test_stream_hash_trace_diffs_that_trace_manifest(self, tmp_path, capsys):
        from repro.obs.ledger import RunManifest, write_manifest

        def manifest(name, rounds):
            return RunManifest(
                kind="run", goal="g", user="u", server="s", channel=None,
                recording="full", seeds=(0,), max_rounds=10, rounds=rounds,
                achieved=1, halted=1, wall_time_s=0.1, cpu_time_s=0.1,
                trace_path=name,
            )

        stream = tmp_path / "manifests.ndjson"
        for name, rounds in (("a.jsonl", 3), ("b.jsonl", 7), ("a.jsonl", 4)):
            write_manifest(manifest(name, rounds), stream)
        capsys.readouterr()
        assert main([
            "diff", f"{stream}#a.jsonl", f"{stream}#b.jsonl", "--format", "json",
        ]) == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert {"metric": "rounds", "old": 4, "new": 7, "delta": 3} in metrics
        assert main(["diff", f"{stream}#a.jsonl", f"{stream}#c.jsonl"]) == 2
        assert "no manifest names c.jsonl" in capsys.readouterr().err

    def test_wrong_arity_exits_2(self, trace):
        with pytest.raises(SystemExit) as excinfo:
            main(["diff", str(trace)])
        assert excinfo.value.code == 2

    def test_unclassifiable_input_exits_2(self, tmp_path, capsys):
        odd = tmp_path / "data.txt"
        odd.write_text("hello")
        assert main(["diff", str(odd), str(odd)]) == 2
        assert "cannot classify" in capsys.readouterr().err
