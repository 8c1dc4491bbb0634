"""Session semantics: parity with the batch engine, provenance, lifecycle.

The load-bearing contract is bitwise parity — a :class:`Session` stepped
to completion in slices of any size produces an
:class:`~repro.core.execution.ExecutionResult` *equal* to
``run_execution`` on the same cast/seed, and a traced session stepped in
slices writes the JSONL trace :func:`repro.obs.ledger.record_run` (a
session stepped to its horizon in one slice) writes.  The
rest pins the service surface: create/step/close lifecycle, idempotent
close, early close, abandon, and the per-session seed fan-out.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.execution import FULL_RECORDING, METRICS_RECORDING, run_execution
from repro.errors import ServeError
from repro.obs.certify import CertificationError, certify_run, certify_trace
from repro.obs.ledger import MANIFEST_STREAM, read_manifest, read_manifests, record_run
from repro.serve.loadgen import demo_specs
from repro.serve.session import Session, SessionSpec, derive_session_seeds


def batch_reference(spec):
    """The serial engine's result + verdict for ``spec``."""
    execution = run_execution(
        spec.user, spec.server, spec.goal.world,
        max_rounds=spec.max_rounds, seed=spec.seed,
        recording=spec.recording, channel=spec.channel,
        referee=spec.goal.referee,
    )
    return execution, spec.goal.evaluate(execution)


class TestStepParity:
    @pytest.mark.parametrize("family", ["relay", "control", "universal"])
    @pytest.mark.parametrize("drop", [0.0, 0.1])
    def test_bitwise_equality_per_family(self, family, drop):
        specs = demo_specs(
            family, 4, seed=11, max_rounds=90, drop=drop,
            recording=FULL_RECORDING,
        )
        for spec in specs:
            session = Session(spec)
            while session.live:
                session.step(7)
            outcome = session.close()
            execution, verdict = batch_reference(spec)
            assert outcome.execution == execution, spec.label
            assert outcome.outcome == verdict, spec.label

    @pytest.mark.parametrize("slice_rounds", [1, 3, 64, 10_000])
    def test_slice_size_never_matters(self, slice_rounds):
        spec = demo_specs("universal", 1, seed=2, max_rounds=120, drop=0.1)[0]
        session = Session(spec)
        while session.live:
            session.step(slice_rounds)
        execution, _ = batch_reference(spec)
        assert session.close().execution == execution

    def test_metrics_recording_parity(self):
        spec = demo_specs(
            "control", 1, seed=7, max_rounds=80, recording=METRICS_RECORDING
        )[0]
        session = Session(spec)
        while session.live:
            session.step(5)
        execution, _ = batch_reference(spec)
        assert session.close().execution == execution

    def test_interleaved_sessions_are_isolated(self):
        """Scrambled interleaving of sessions sharing one universal user
        changes nothing: per-session seeds, per-session results."""
        specs = demo_specs("universal", 6, seed=9, max_rounds=90, drop=0.1)
        assert len({spec.seed for spec in specs}) == len(specs)
        assert len({id(spec.user) for spec in specs}) == 1
        sessions = [Session(s, session_id=f"i{n}") for n, s in enumerate(specs)]
        order = random.Random(4)
        live = list(sessions)
        while live:
            session = order.choice(live)
            session.step(order.randrange(1, 9))
            live = [s for s in sessions if s.live]
        for spec, session in zip(specs, sessions):
            execution, verdict = batch_reference(spec)
            assert session.close().execution == execution
            assert session.close().outcome == verdict


class TestLifecycle:
    def test_close_is_idempotent(self):
        spec = demo_specs("relay", 1, seed=1, max_rounds=30)[0]
        session = Session(spec)
        while session.live:
            session.step(50)
        first = session.close()
        assert session.close() is first
        assert session.closed

    def test_step_after_close_raises(self):
        spec = demo_specs("relay", 1, seed=1, max_rounds=30)[0]
        session = Session(spec)
        session.close()
        with pytest.raises(ServeError, match="closed"):
            session.step()

    def test_early_close_keeps_partial_state(self):
        spec = demo_specs("control", 1, seed=1, max_rounds=500)[0]
        session = Session(spec)
        session.step(10)
        outcome = session.close()
        assert outcome.execution.rounds_completed == 10
        assert not outcome.execution.halted

    def test_step_returns_rounds_executed(self):
        spec = demo_specs("relay", 1, seed=1, max_rounds=25)[0]
        session = Session(spec)
        assert session.step(10) == 10
        assert session.step(1000) == 15  # stops at the horizon
        assert not session.live
        assert session.step(5) == 0  # settled: a no-op, not an error

    def test_times_accumulate(self):
        spec = demo_specs("relay", 1, seed=1, max_rounds=40)[0]
        session = Session(spec)
        while session.live:
            session.step(4)
        outcome = session.close()
        assert outcome.wall_time_s > 0.0
        assert outcome.cpu_time_s >= 0.0

    def test_trace_requires_ledger_dir(self):
        spec = demo_specs("relay", 1, seed=1, max_rounds=10)[0]
        with pytest.raises(ServeError, match="ledger_dir"):
            Session(spec, trace=True)
        with pytest.raises(ServeError, match="trace"):
            Session(spec, ledger_dir="x", certify=True)


class TestLedgerIntegration:
    def test_trace_matches_record_run_byte_for_byte(self, tmp_path):
        """A served session and record_run write the *same* trace."""
        spec = demo_specs(
            "universal", 1, seed=13, max_rounds=90, drop=0.1,
            recording=FULL_RECORDING,
        )[0]
        session = Session(
            spec, session_id="served", ledger_dir=tmp_path / "serve", trace=True
        )
        while session.live:
            session.step(9)
        outcome = session.close()
        recorded = record_run(
            spec.user, spec.server, spec.goal,
            max_rounds=spec.max_rounds, seed=spec.seed,
            out_dir=tmp_path / "batch", name="batch",
            recording=spec.recording, channel=spec.channel,
        )
        assert outcome.trace_path.read_bytes() == recorded.trace_path.read_bytes()
        assert outcome.manifest.trace_sha256 == recorded.manifest.trace_sha256
        assert outcome.execution == recorded.execution

    def test_certifiable_and_manifest_round_trips(self, tmp_path):
        spec = demo_specs("control", 1, seed=3, max_rounds=60, drop=0.1)[0]
        session = Session(
            spec, session_id="c0", ledger_dir=tmp_path, trace=True, certify=True
        )
        while session.live:
            session.step(8)
        outcome = session.close()
        # certify=True already re-checked; check the engine-free path too.
        certify_run(outcome.trace_path, outcome.manifest_location)
        certify_run(outcome.trace_path)
        manifest = read_manifest(outcome.manifest_location)
        assert manifest == outcome.manifest
        assert manifest.kind == "run"
        assert manifest.seeds == (spec.seed,)
        assert manifest.user == spec.user.name
        assert manifest.server == spec.server.name
        assert manifest.channel == spec.channel.name
        assert manifest.rounds == outcome.execution.rounds_executed

    def test_manifest_without_trace(self, tmp_path):
        spec = demo_specs("relay", 1, seed=3, max_rounds=30)[0]
        session = Session(spec, session_id="m0", ledger_dir=tmp_path)
        session.step(1000)
        outcome = session.close()
        assert outcome.trace_path is None
        assert outcome.manifest.trace_sha256 is None
        assert read_manifests(outcome.manifest_location.path) == (outcome.manifest,)

    def test_abandon_flushes_without_verdict(self, tmp_path):
        spec = demo_specs("relay", 1, seed=3, max_rounds=60)[0]
        session = Session(spec, session_id="a0", ledger_dir=tmp_path, trace=True)
        session.step(5)
        session.abandon()
        lines = (tmp_path / "a0.jsonl").read_text().splitlines()
        kinds = [json.loads(line).get("kind") for line in lines[1:]]
        assert "execution-started" in kinds
        assert "goal-verdict" not in kinds
        assert not (tmp_path / MANIFEST_STREAM).exists()


def closed(spec, session_id, ledger, *, certify=False):
    session = Session(
        spec, session_id=session_id, ledger_dir=ledger, trace=True,
        certify=certify,
    )
    while session.live:
        session.step(16)
    return session.close()


def rewrite_line(stream, number, mutate):
    """Apply ``mutate`` to the parsed 1-based line ``number``, same length."""
    lines = stream.read_bytes().splitlines(keepends=True)
    old = lines[number - 1]
    new = (json.dumps(mutate(json.loads(old)), separators=(",", ":")) + "\n").encode()
    assert len(new) == len(old)
    lines[number - 1] = new
    stream.write_bytes(b"".join(lines))


class TestManifestStream:
    def test_one_file_per_session_plus_one_stream(self, tmp_path):
        specs = demo_specs("control", 3, seed=5, max_rounds=40, drop=0.1)
        for i, spec in enumerate(specs):
            closed(spec, f"s{i}", tmp_path, certify=True)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            MANIFEST_STREAM, "s0.jsonl", "s1.jsonl", "s2.jsonl",
        ]
        assert [m.trace_path for m in read_manifests(tmp_path / MANIFEST_STREAM)] == [
            "s0.jsonl", "s1.jsonl", "s2.jsonl",
        ]

    def test_damage_to_an_earlier_line_spares_a_later_close(self, tmp_path):
        first, second = demo_specs("control", 2, seed=5, max_rounds=40, drop=0.1)
        early = closed(first, "early", tmp_path)
        stream = tmp_path / MANIFEST_STREAM
        rewrite_line(stream, 1, lambda data: {**data, "achieved": 1 - data["achieved"]})
        with pytest.raises(CertificationError, match="achieved"):
            certify_run(early.trace_path, early.manifest_location)
        # The later session's close-time certify reads only its own line.
        late = closed(second, "late", tmp_path, certify=True)
        assert certify_run(late.trace_path, late.manifest_location).ok
        rewrite_line(stream, 2, lambda data: {**data, "halted": 1 - data["halted"]})
        with pytest.raises(CertificationError, match="halted"):
            certify_run(late.trace_path, late.manifest_location)

    def test_two_sessions_of_one_spec_certify_against_their_own_lines(
        self, tmp_path
    ):
        spec = demo_specs("universal", 1, seed=4, max_rounds=60, drop=0.1)[0]
        a = closed(spec, "a", tmp_path, certify=True)
        b = closed(spec, "b", tmp_path, certify=True)
        assert a.manifest.run_id() == b.manifest.run_id()
        assert a.manifest_location.offset != b.manifest_location.offset
        reports = [certify_trace(a.trace_path), certify_trace(b.trace_path)]
        assert all(report.ok for report in reports)
        assert [report.manifest for report in reports] == [
            f"{tmp_path / MANIFEST_STREAM}:1", f"{tmp_path / MANIFEST_STREAM}:2",
        ]


class TestSeedDerivation:
    def test_deterministic_and_prefix_stable(self):
        assert derive_session_seeds(5, 4) == derive_session_seeds(5, 4)
        assert derive_session_seeds(5, 4) == derive_session_seeds(5, 10)[:4]
        assert derive_session_seeds(5, 4) != derive_session_seeds(6, 4)

    def test_no_collisions_at_fleet_scale(self):
        seeds = derive_session_seeds(0, 10_000)
        assert len(set(seeds)) == len(seeds)

    def test_negative_count_rejected(self):
        with pytest.raises(ServeError, match="non-negative"):
            derive_session_seeds(0, -1)


def test_spec_defaults_are_service_shaped():
    """Metrics-only recording by default: thousands of open sessions must
    not each hold a full round history."""
    spec = SessionSpec(
        user=demo_specs("relay", 1, seed=0, max_rounds=10)[0].user,
        server=demo_specs("relay", 1, seed=0, max_rounds=10)[0].server,
        goal=demo_specs("relay", 1, seed=0, max_rounds=10)[0].goal,
    )
    assert spec.recording is METRICS_RECORDING
    assert spec.channel is None
