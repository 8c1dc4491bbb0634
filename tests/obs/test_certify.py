"""Run certificates: the engine-free checker and its tampering defences.

The recorded trace + manifest pair is a *certificate*: every claim the
ledger makes should be re-derivable from the trace alone by a checker
that never loads the engine.  These tests certify clean runs (control
class, faulted channel, QBF delegation), then attack the trace one
tampering class at a time — a flipped verdict, a dropped switch event,
reordered rounds, an edited seed, a truncated file — and require
``certify`` to fail each attack with a pointed, line-anchored diagnostic.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.runner import sweep
from repro.comm.codecs import IdentityCodec, codec_family
from repro.faults.channel import drop_channel
from repro.faults.verify import verify_robustness
from repro.mathx.modular import Field
from repro.obs.__main__ import main
from repro.obs.certify import (
    CHECKS,
    CertificationError,
    certify_events,
    certify_run,
    certify_sweep,
    certify_trace,
)
from repro.obs.ledger import record_run
from repro.obs.sinks import read_trace
from repro.qbf.generators import random_qbf
from repro.servers.advisors import advisor_server_class
from repro.servers.provers import HonestProverServer
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.users.control_users import follower_user_class
from repro.users.delegation_users import DelegationUser
from repro.worlds.computation import delegation_goal
from repro.worlds.control import control_goal, control_sensing, random_law

#: The committed demo certificate; ``recorded`` below reproduces its run.
DEMO_DATA = Path(__file__).resolve().parents[2] / "benchmarks" / "data"

LAW = random_law(random.Random(7))
GOAL = control_goal(LAW)
CODECS = codec_family(4)
SERVERS = advisor_server_class(LAW, CODECS)


def make_user():
    return CompactUniversalUser(
        ListEnumeration(follower_user_class(CODECS)), control_sensing()
    )


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One faulted control-class run, recorded and ledgered once."""
    out = tmp_path_factory.mktemp("certify-run")
    return record_run(
        make_user(), SERVERS[1], GOAL,
        max_rounds=600, seed=3, out_dir=out, name="run",
        channel=drop_channel(0.05), certify=True,
    )


@pytest.fixture(scope="module")
def qbf_recorded(tmp_path_factory):
    """One QBF delegation run with an in-trace proof transcript."""
    out = tmp_path_factory.mktemp("certify-qbf")
    field = Field()
    instances = [random_qbf(random.Random(s), 2) for s in (1, 4)]
    return record_run(
        DelegationUser(IdentityCodec(), field),
        HonestProverServer(field),
        delegation_goal(instances),
        max_rounds=300, seed=0, out_dir=out, name="qbf",
        certify=True,
    )


def tampered_copy(recorded, tmp_path, mutate):
    """Copy the trace (without its manifest) and apply one mutation.

    ``mutate`` maps the list of trace lines to a new list.  The manifest
    is deliberately left behind: the tampering tests target the trace's
    *internal* consistency, not the digest cross-check.
    """
    copy = tmp_path / "tampered.jsonl"
    lines = recorded.trace_path.read_text().splitlines()
    copy.write_text("\n".join(mutate(lines)) + "\n")
    return copy


def edit_event(lines, kind, field, value, *, occurrence=0):
    """Rewrite one field of the n-th event of ``kind``, in place."""
    seen = 0
    for i, line in enumerate(lines):
        data = json.loads(line)
        if data.get("kind") != kind:
            continue
        if seen == occurrence:
            data[field] = value
            lines[i] = json.dumps(data)
            return lines
        seen += 1
    raise AssertionError(f"no event of kind {kind!r} (occurrence {occurrence})")


def certify_cli(path, *extra, capsys):
    code = main(["certify", str(path), *extra])
    return code, capsys.readouterr().out


class TestGoldenTrace:
    def test_record_run_reproduces_certify_demo(self, recorded):
        """Same cast, seed and channel → the committed trace, byte for byte.

        Pins everything the engine emits: seed chain, round loop, fault
        replay and the universal user's events.
        """
        golden = json.loads((DEMO_DATA / "certify_demo.json").read_text())
        assert recorded.manifest.trace_sha256 == golden["trace_sha256"]
        assert (
            recorded.trace_path.read_bytes()
            == (DEMO_DATA / "certify_demo.jsonl").read_bytes()
        )
        assert (recorded.manifest.rounds, recorded.manifest.achieved) == (
            golden["rounds"], golden["achieved"],
        )


class TestCleanCertification:
    def test_recorded_run_certifies(self, recorded):
        report = certify_trace(recorded.trace_path)
        assert report.ok
        assert report.certifiable
        assert report.issues == ()
        assert report.checks == CHECKS
        assert report.trace_sha256 == recorded.manifest.trace_sha256

    def test_cli_exit_zero_and_status_line(self, recorded, capsys):
        code, out = certify_cli(recorded.trace_path, capsys=capsys)
        assert code == 0
        assert "CERTIFIED" in out

    def test_cli_json_document(self, recorded, capsys):
        code, out = certify_cli(
            recorded.trace_path,
            "--manifest", str(recorded.manifest_path),
            "--format", "json",
            capsys=capsys,
        )
        assert code == 0
        document = json.loads(out)
        assert document["certified"] is True
        assert document["trace_sha256"] == recorded.manifest.trace_sha256
        assert document["issues"] == []

    def test_certify_run_accepts_the_pair(self, recorded):
        report = certify_run(recorded.trace_path, recorded.manifest_path)
        assert report.ok

    def test_certify_events_on_in_memory_stream(self, recorded):
        header, events = read_trace(recorded.trace_path)
        report = certify_events(events, header=header)
        assert report.ok
        assert report.events == len(events)

    def test_missing_trace_is_a_usage_error(self, tmp_path, capsys):
        assert main(["certify", str(tmp_path / "absent.jsonl")]) == 2


class TestTampering:
    """Each ISSUE tampering class must fail with a line-anchored message."""

    def assert_rejected(self, path, check, fragment, capsys):
        code, out = certify_cli(path, capsys=capsys)
        assert code == 1
        assert "FAILED" in out
        # Line-anchored: at least one issue cites the file (with a line).
        assert f"{path}:" in out
        assert f"[{check}]" in out
        assert fragment in out

    def test_flipped_verdict(self, recorded, tmp_path, capsys):
        path = tampered_copy(
            recorded, tmp_path,
            lambda lines: edit_event(lines, "goal-verdict", "achieved", False),
        )
        self.assert_rejected(
            path, "goal-verdict", "settle arithmetic derives True", capsys
        )

    def test_dropped_switch_event(self, recorded, tmp_path, capsys):
        path = tampered_copy(
            recorded, tmp_path,
            lambda lines: [
                line for line in lines
                if json.loads(line).get("kind") != "strategy-switch"
            ],
        )
        self.assert_rejected(
            path, "switch-legality", "without a justifying strategy-switch",
            capsys,
        )

    def test_reordered_rounds(self, recorded, tmp_path, capsys):
        def swap_rounds(lines):
            rounds = [
                i for i, line in enumerate(lines)
                if json.loads(line).get("kind") == "round-executed"
            ]
            a, b = rounds[10], rounds[11]
            lines[a], lines[b] = lines[b], lines[a]
            return lines

        path = tampered_copy(recorded, tmp_path, swap_rounds)
        self.assert_rejected(path, "stream", "out of order", capsys)

    def test_edited_seed(self, recorded, tmp_path, capsys):
        path = tampered_copy(
            recorded, tmp_path,
            lambda lines: edit_event(lines, "execution-started", "seed", 4),
        )
        self.assert_rejected(path, "seed-chain", "rng digest mismatch", capsys)

    def test_truncated_file(self, recorded, tmp_path, capsys):
        copy = tmp_path / "truncated.jsonl"
        text = recorded.trace_path.read_text()
        copy.write_text(text[: int(len(text) * 0.7)])
        self.assert_rejected(
            copy, "stream", "trace unreadable past this point", capsys
        )
        _, out = certify_cli(copy, capsys=capsys)
        assert "no execution-finished event" in out

    def test_digest_mismatch_against_manifest(self, recorded, tmp_path, capsys):
        # Tamper the trace but keep the genuine manifest: even if a future
        # attack fooled every semantic check, the digest cross-check trips.
        trace = tampered_copy(
            recorded, tmp_path,
            lambda lines: edit_event(lines, "goal-verdict", "achieved", False),
        )
        code, out = certify_cli(
            trace, "--manifest", str(recorded.manifest_path), capsys=capsys
        )
        assert code == 1
        assert "[manifest]" in out
        assert "sha256" in out

    def test_certify_run_raises_on_tampered_trace(self, recorded, tmp_path):
        trace = tampered_copy(
            recorded, tmp_path,
            lambda lines: edit_event(lines, "execution-started", "seed", 4),
        )
        with pytest.raises(CertificationError, match="seed-chain"):
            certify_run(trace)


class TestLegacyTraces:
    def test_schema_minor_zero_is_uncertifiable_not_an_error(
        self, tmp_path, capsys
    ):
        path = tmp_path / "legacy.jsonl"
        path.write_text(json.dumps({"trace_schema": 1}) + "\n")
        code, out = certify_cli(path, capsys=capsys)
        assert code == 1
        assert "UNCERTIFIABLE" in out
        assert "predates the certificate evidence" in out

    def test_headerless_trace_is_uncertifiable(self, tmp_path):
        path = tmp_path / "bare.jsonl"
        path.write_text("")
        report = certify_trace(path)
        assert not report.certifiable
        assert "no schema header" in report.reason


class TestProofCertification:
    def test_qbf_delegation_run_certifies(self, qbf_recorded):
        report = certify_trace(qbf_recorded.trace_path)
        assert report.ok
        _, events = read_trace(qbf_recorded.trace_path)
        assert any(e.kind == "proof-round" for e in events)

    def test_tampered_proof_coefficients_are_rejected(
        self, qbf_recorded, tmp_path, capsys
    ):
        def corrupt(lines):
            for i, line in enumerate(lines):
                data = json.loads(line)
                if data.get("kind") != "proof-round":
                    continue
                # Bump the constant coefficient ("" is the zero poly).
                coeffs = [int(c) for c in data["poly"].split(",") if c]
                coeffs = [coeffs[0] + 1, *coeffs[1:]] if coeffs else [1]
                data["poly"] = ",".join(str(c) for c in coeffs)
                lines[i] = json.dumps(data)
                return lines
            raise AssertionError("no proof-round event")

        path = tampered_copy(qbf_recorded, tmp_path, corrupt)
        code, out = certify_cli(path, capsys=capsys)
        assert code == 1
        assert "[proof]" in out


class TestEngineFreedom:
    def test_certify_subprocess_never_imports_the_engine(self, recorded):
        """The checker is trusted *because* it cannot run the engine.

        Certify a real faulted trace in a fresh interpreter and assert no
        ``repro.core`` module (nor the universal users) was ever loaded —
        the replay re-derives verdicts from the event stream alone.
        """
        code = (
            "import sys\n"
            "from repro.obs.certify import certify_trace\n"
            f"report = certify_trace({str(recorded.trace_path)!r})\n"
            "assert report.ok, report.format()\n"
            "banned = [m for m in sys.modules\n"
            "          if m.startswith('repro.core') or\n"
            "             m.startswith('repro.universal')]\n"
            "assert not banned, banned\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
        )
        assert completed.returncode == 0, completed.stderr


class TestLedgerIntegration:
    def test_record_run_certify_flag_rejects_nothing_on_clean_runs(
        self, recorded
    ):
        # The module fixtures already ran record_run(certify=True); this
        # documents that the flag is what certified them.
        assert recorded.manifest.trace_sha256 is not None

    def test_sweep_certify_requires_ledger_dir(self):
        with pytest.raises(ValueError, match="requires ledger_dir"):
            sweep(
                make_user(), SERVERS[:1], GOAL,
                seeds=(3,), max_rounds=600, certify=True,
            )

    def test_sweep_certify_passes_and_tampering_trips_the_digest(
        self, tmp_path
    ):
        ledger = tmp_path / "ledger"
        sweep(
            make_user(), SERVERS[:2], GOAL,
            seeds=(3,), max_rounds=600, ledger_dir=ledger, certify=True,
        )
        index = json.loads((ledger / "sweep.json").read_text())
        assert index["cells_sha256"]
        # certify_sweep on the untouched ledger is clean...
        certify_sweep(ledger)
        # ...and any byte change to a cell manifest breaks the digest.
        cell = sorted(ledger.glob("cell-*.json"))[0]
        cell.write_text(cell.read_text() + "\n")
        with pytest.raises(CertificationError, match="digest mismatch"):
            certify_sweep(ledger)

    def test_sweep_certify_detects_missing_cell(self, tmp_path):
        ledger = tmp_path / "ledger"
        sweep(
            make_user(), SERVERS[:1], GOAL,
            seeds=(3,), max_rounds=600, ledger_dir=ledger, certify=True,
        )
        cell = sorted(ledger.glob("cell-*.json"))[0]
        cell.unlink()
        with pytest.raises(CertificationError):
            certify_sweep(ledger)

    def test_verify_robustness_certify_flag(self):
        report = verify_robustness(
            make_user(), SERVERS[:1], GOAL, control_sensing(),
            grid=[None, drop_channel(0.05)], seeds=(3,), max_rounds=200,
            certify=True,
        )
        assert report.safe
