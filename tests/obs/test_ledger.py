"""Run ledger: the manifest stream, round-trips, provenance, sweep ledgers."""

from __future__ import annotations

import json
import math

import pytest

from repro.analysis.runner import sweep
from repro.comm.codecs import codec_family
from repro.core.execution import METRICS_RECORDING
from repro.obs.certify import certify_trace
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    MANIFEST_STREAM,
    LedgerSchemaError,
    RunManifest,
    SweepManifest,
    git_sha,
    read_manifest,
    read_manifests,
    record_run,
    write_manifest,
)
from repro.obs.manifests import ManifestStreamError, find_manifest
from repro.obs.sinks import read_trace
from repro.servers.advisors import advisor_server_class
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.users.control_users import follower_user_class
from repro.worlds.control import control_goal, control_sensing, random_law

import random

LAW = random_law(random.Random(7))
GOAL = control_goal(LAW)
CODECS = codec_family(4)
SERVERS = advisor_server_class(LAW, CODECS)


def make_user():
    return CompactUniversalUser(
        ListEnumeration(follower_user_class(CODECS)), control_sensing()
    )


def sample_manifest(**overrides):
    payload = dict(
        kind="run",
        goal="g",
        user="u",
        server="s",
        channel=None,
        recording="full",
        seeds=(0, 1),
        max_rounds=100,
        rounds=42,
        achieved=1,
        halted=0,
        wall_time_s=0.5,
        cpu_time_s=0.4,
    )
    payload.update(overrides)
    return RunManifest(**payload)


class TestRunManifest:
    def test_json_round_trip_is_identity(self, tmp_path):
        manifest = sample_manifest(trace_path="run.jsonl", git_sha="abc")
        location = write_manifest(manifest, tmp_path / MANIFEST_STREAM)
        assert read_manifest(location) == manifest
        assert read_manifest(location.path) == manifest

    def test_serialisation_is_deterministic_and_schema_first(self):
        manifest = sample_manifest()
        data = json.loads(manifest.to_json())
        assert next(iter(data)) == "ledger_schema"
        assert data["ledger_schema"] == LEDGER_SCHEMA
        assert manifest.to_json() == sample_manifest().to_json()
        assert manifest.to_json().count("\n") == 1

    def test_run_id_depends_on_identity_not_timing(self):
        a = sample_manifest(wall_time_s=0.1, cpu_time_s=0.1)
        b = sample_manifest(wall_time_s=9.9, cpu_time_s=8.8)
        assert a.run_id() == b.run_id()
        assert len(a.run_id()) == 12

    @pytest.mark.parametrize(
        "field,value",
        [
            ("seeds", (5,)),
            ("goal", "other-goal"),
            ("server", "other-server"),
            ("channel", "drop(0.1)"),
            ("recording", "metrics"),
            ("max_rounds", 999),
        ],
    )
    def test_run_id_separates_identity_fields(self, field, value):
        assert sample_manifest().run_id() != sample_manifest(
            **{field: value}
        ).run_id()

    def test_newer_schema_major_is_rejected(self, tmp_path):
        data = json.loads(sample_manifest().to_json())
        data["ledger_schema"] = LEDGER_SCHEMA + 1
        path = tmp_path / MANIFEST_STREAM
        path.write_text(json.dumps(data) + "\n")
        with pytest.raises(LedgerSchemaError, match="newer than the supported"):
            read_manifest(path)

    def test_malformed_schema_is_rejected(self, tmp_path):
        data = json.loads(sample_manifest().to_json())
        data["ledger_schema"] = "one"
        path = tmp_path / MANIFEST_STREAM
        path.write_text(json.dumps(data) + "\n")
        with pytest.raises(LedgerSchemaError, match="malformed"):
            read_manifest(path)

    def test_unknown_kind_is_rejected(self, tmp_path):
        data = json.loads(sample_manifest().to_json())
        data["kind"] = "mystery"
        path = tmp_path / MANIFEST_STREAM
        path.write_text(json.dumps(data) + "\n")
        with pytest.raises(ValueError, match="unknown manifest kind"):
            read_manifest(path)


class TestSweepManifestDocument:
    def test_json_round_trip_is_identity(self, tmp_path):
        manifest = SweepManifest(
            goal="g", user="u", cells=("a1", "b2"), seeds=(0,),
            max_rounds=50, wall_time_s=1.0, git_sha=None,
        )
        location = write_manifest(manifest, tmp_path / MANIFEST_STREAM)
        assert read_manifest(location) == manifest


class TestManifestStream:
    def test_each_manifest_is_one_line_at_its_location(self, tmp_path):
        stream = tmp_path / "nested" / MANIFEST_STREAM
        manifests = [sample_manifest(seeds=(seed,)) for seed in range(3)]
        locations = [write_manifest(m, stream) for m in manifests]
        raw = stream.read_bytes()
        assert raw.count(b"\n") == 3
        assert [loc.offset for loc in locations] == [
            0, locations[0].length, locations[0].length + locations[1].length,
        ]
        for manifest, location in zip(manifests, locations):
            line = raw[location.offset:location.offset + location.length]
            assert line == manifest.to_json().encode("utf-8")
            assert read_manifest(location) == manifest
        assert read_manifests(stream) == tuple(manifests)

    def test_torn_final_line_is_reported_with_its_line_number(self, tmp_path):
        stream = tmp_path / MANIFEST_STREAM
        write_manifest(sample_manifest(), stream)
        write_manifest(sample_manifest(seeds=(9,)), stream)
        stream.write_bytes(stream.read_bytes()[:-20])
        with pytest.raises(ManifestStreamError, match=r":2: torn final line"):
            read_manifests(stream)
        with pytest.raises(ManifestStreamError, match=":2: torn"):
            find_manifest(stream, "anything.jsonl")

    def test_append_after_a_torn_line_starts_a_fresh_line(self, tmp_path):
        stream = tmp_path / MANIFEST_STREAM
        write_manifest(sample_manifest(trace_path="a.jsonl"), stream)
        write_manifest(sample_manifest(trace_path="b.jsonl"), stream)
        stream.write_bytes(stream.read_bytes()[:-20])
        fresh = sample_manifest(seeds=(9,), trace_path="c.jsonl")
        location = write_manifest(fresh, stream)
        assert read_manifest(location) == fresh
        number, data = find_manifest(stream, "c.jsonl")
        assert number == 3
        assert RunManifest.from_dict(data) == fresh
        # The torn piece stays a line of its own and is still reported
        # wherever it could be the answer.
        with pytest.raises(ManifestStreamError, match=":2: not a JSON line"):
            read_manifests(stream)
        with pytest.raises(ManifestStreamError, match=":2: not a JSON line"):
            find_manifest(stream, "b.jsonl")

    def test_short_write_is_rolled_back(self, tmp_path, monkeypatch):
        import os

        stream = tmp_path / MANIFEST_STREAM
        write_manifest(sample_manifest(), stream)
        before = stream.read_bytes()
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:10]))
        with pytest.raises(OSError, match="short append"):
            write_manifest(sample_manifest(seeds=(9,)), stream)
        monkeypatch.undo()
        assert stream.read_bytes() == before
        location = write_manifest(sample_manifest(seeds=(9,)), stream)
        assert location.offset == len(before)
        assert read_manifests(stream) == (
            sample_manifest(), sample_manifest(seeds=(9,)),
        )

    def test_garbled_line_is_reported_not_skipped(self, tmp_path):
        stream = tmp_path / MANIFEST_STREAM
        write_manifest(sample_manifest(), stream)
        with stream.open("ab") as handle:
            handle.write(b"not json\n")
        write_manifest(sample_manifest(), stream)
        with pytest.raises(ManifestStreamError, match=":2: not a JSON line"):
            read_manifests(stream)

    def test_schema_1_document_is_rejected(self, tmp_path):
        data = json.loads(sample_manifest().to_json())
        data["ledger_schema"] = 1
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data, indent=2) + "\n")
        with pytest.raises(LedgerSchemaError, match="ledger_schema 1"):
            read_manifest(path)
        path.write_text(json.dumps(data) + "\n")
        with pytest.raises(LedgerSchemaError, match="predates the manifest stream"):
            read_manifest(path)

    def test_re_recorded_name_resolves_to_its_last_line(self, tmp_path):
        first = record_run(
            make_user(), SERVERS[1], GOAL,
            max_rounds=600, seed=3, out_dir=tmp_path, name="demo",
        )
        second = record_run(
            make_user(), SERVERS[2], GOAL,
            max_rounds=600, seed=4, out_dir=tmp_path, name="demo",
        )
        assert first.manifest.trace_sha256 != second.manifest.trace_sha256
        number, data = find_manifest(tmp_path / MANIFEST_STREAM, "demo.jsonl")
        assert number == 2
        assert data["seeds"] == [4]
        report = certify_trace(second.trace_path)
        assert report.ok
        assert report.manifest == f"{tmp_path / MANIFEST_STREAM}:2"


class TestGitSha:
    def test_returns_hex_or_none(self):
        sha = git_sha()
        assert sha is None or (
            len(sha) == 40 and all(c in "0123456789abcdef" for c in sha)
        )


class TestRecordRun:
    def test_writes_trace_and_matching_manifest(self, tmp_path):
        recorded = record_run(
            make_user(), SERVERS[1], GOAL,
            max_rounds=600, seed=3, out_dir=tmp_path, name="demo",
        )
        assert recorded.trace_path == tmp_path / "demo.jsonl"
        assert recorded.manifest_location.path == tmp_path / MANIFEST_STREAM
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "demo.jsonl", MANIFEST_STREAM,
        ]

        manifest = read_manifest(recorded.manifest_location)
        assert manifest == recorded.manifest
        assert manifest.kind == "run"
        assert manifest.seeds == (3,)
        assert manifest.max_rounds == 600
        assert manifest.rounds == recorded.execution.rounds_executed
        assert manifest.achieved == 1
        assert manifest.trace_path == "demo.jsonl"
        assert manifest.wall_time_s >= 0
        assert manifest.cpu_time_s >= 0

        header, events = read_trace(recorded.trace_path)
        assert header["trace_schema"] >= 1
        # Both the engine's and the universal user's events are present.
        kinds = {event.kind for event in events}
        assert "round-executed" in kinds
        assert "sensing-indication" in kinds

    def test_respects_recording_policy(self, tmp_path):
        recorded = record_run(
            make_user(), SERVERS[0], GOAL,
            max_rounds=600, out_dir=tmp_path, recording=METRICS_RECORDING,
        )
        assert recorded.manifest.recording == METRICS_RECORDING.label


class TestSweepLedger:
    def test_sweep_writes_cell_manifests_and_index(self, tmp_path):
        ledger = tmp_path / "ledger"
        result = sweep(
            make_user(), SERVERS, GOAL,
            seeds=(0, 1), max_rounds=600, ledger_dir=ledger,
        )
        assert [p.name for p in ledger.iterdir()] == [MANIFEST_STREAM]
        *cells, index = read_manifests(ledger / MANIFEST_STREAM)
        assert isinstance(index, SweepManifest)
        assert read_manifest(ledger / MANIFEST_STREAM) == index
        assert index.seeds == (0, 1)
        assert len(index.cells) == len(SERVERS)

        seen_ids = set()
        for cell_id, manifest, cell_result in zip(index.cells, cells, result.cells):
            assert manifest.run_id() == cell_id
            assert manifest.kind == "cell"
            assert manifest.server == cell_result.server_name
            assert manifest.seeds == (0, 1)
            # Sweep cells always run under metrics-only recording.
            assert manifest.recording == "metrics"
            assert manifest.rounds == sum(
                run.rounds for run in cell_result.runs
            )
            assert manifest.achieved == sum(
                run.achieved for run in cell_result.runs
            )
            # The manifest uniquely identifies its configuration.
            seen_ids.add(manifest.run_id())
        assert len(seen_ids) == len(SERVERS)

    def test_cell_timing_fields_do_not_break_parity(self):
        """compare=False timing keeps the parallel == serial contract."""
        serial = sweep(make_user(), SERVERS[:2], GOAL, seeds=(0,), max_rounds=600)
        again = sweep(make_user(), SERVERS[:2], GOAL, seeds=(0,), max_rounds=600)
        assert serial.cells == again.cells
        assert all(cell.wall_time_s >= 0 for cell in serial.cells)

    def test_no_ledger_dir_writes_nothing(self, tmp_path):
        sweep(make_user(), SERVERS[:1], GOAL, seeds=(0,), max_rounds=600)
        assert list(tmp_path.iterdir()) == []

    def test_mean_rounds_nan_guard(self):
        # Manifest totals stay integers even when nothing achieves.
        assert not math.isnan(float(sample_manifest(achieved=0).achieved))


class TestLazyAnalysisImports:
    def test_engine_import_does_not_load_analysis_modules(self):
        """The tracing-off path never pays for ledger/overhead/analyze.

        Module state is process-global, so this has to run in a fresh
        interpreter: import the engine, then assert the analysis-side obs
        modules stayed unloaded (they are PEP 562 lazy re-exports).
        """
        import subprocess
        import sys

        code = (
            "import sys\n"
            "import repro.core.execution\n"
            "banned = ['repro.obs.ledger', 'repro.obs.overhead',"
            " 'repro.obs.analyze']\n"
            "loaded = [m for m in banned if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert completed.returncode == 0, completed.stderr
