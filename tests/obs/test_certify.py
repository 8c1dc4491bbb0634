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

import hashlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.runner import sweep
from repro.comm.codecs import IdentityCodec, codec_family
from repro.core.strategy import UserStrategy
from repro.faults.channel import drop_channel
from repro.faults.verify import verify_robustness
from repro.mathx.modular import Field
from repro.obs.__main__ import main
from repro.obs.certify import (
    CHECKS,
    CertificationError,
    certify_events,
    certify_run,
    certify_trace,
)
from repro.obs.events import (
    ExecutionFinished,
    ExecutionStarted,
    RoundExecuted,
    SensingIndication,
    TrialFinished,
    TrialStarted,
)
import repro.obs.ledger as ledger_module
from repro.obs.ledger import MANIFEST_STREAM, record_run
from repro.obs.sinks import TraceSchemaError, read_trace
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


def swap_rounds(lines):
    rounds = [
        i for i, line in enumerate(lines)
        if json.loads(line).get("kind") == "round-executed"
    ]
    a, b = rounds[10], rounds[11]
    lines[a], lines[b] = lines[b], lines[a]
    return lines


def silence_a_recovered_delivery(lines):
    # The replay reads each round's server->user payload off its round
    # line: silencing the delivery a recovery was recorded on leaves the
    # replayed channel nothing to recover with.
    recovered = next(
        data["round_index"]
        for data in map(json.loads, lines)
        if data.get("kind") == "fault-recovered"
        and data["site"] == "server->user"
    )
    return edit_event(lines, "round-executed", "s2u", None, occurrence=recovered)


#: The tampering classes, each an edit of a trace's lines.
TAMPERS = {
    "flipped-verdict": lambda lines: edit_event(
        lines, "goal-verdict", "achieved", False
    ),
    "dropped-switch": lambda lines: [
        line for line in lines
        if json.loads(line).get("kind") != "strategy-switch"
    ],
    "reordered-rounds": swap_rounds,
    "empty-payload": lambda lines: edit_event(
        lines, "round-executed", "u2s", "", occurrence=3
    ),
    "silenced-payload": silence_a_recovered_delivery,
    "edited-seed": lambda lines: edit_event(lines, "execution-started", "seed", 4),
}


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
            "--manifest", str(recorded.manifest_location.path),
            "--format", "json",
            capsys=capsys,
        )
        assert code == 0
        document = json.loads(out)
        assert document["certified"] is True
        assert document["trace_sha256"] == recorded.manifest.trace_sha256
        assert document["issues"] == []

    def test_certify_run_accepts_the_pair(self, recorded):
        report = certify_run(recorded.trace_path, recorded.manifest_location)
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
        path = tampered_copy(recorded, tmp_path, TAMPERS["flipped-verdict"])
        self.assert_rejected(
            path, "goal-verdict", "settle arithmetic derives True", capsys
        )

    def test_dropped_switch_event(self, recorded, tmp_path, capsys):
        path = tampered_copy(recorded, tmp_path, TAMPERS["dropped-switch"])
        self.assert_rejected(
            path, "switch-legality", "without a justifying strategy-switch",
            capsys,
        )

    def test_reordered_rounds(self, recorded, tmp_path, capsys):
        path = tampered_copy(recorded, tmp_path, TAMPERS["reordered-rounds"])
        self.assert_rejected(path, "stream", "out of order", capsys)

    def test_empty_payload_on_a_round_line(self, recorded, tmp_path, capsys):
        path = tampered_copy(recorded, tmp_path, TAMPERS["empty-payload"])
        self.assert_rejected(path, "stream", "carries an empty payload", capsys)

    def test_silenced_payload_breaks_the_fault_replay(
        self, recorded, tmp_path, capsys
    ):
        path = tampered_copy(recorded, tmp_path, TAMPERS["silenced-payload"])
        self.assert_rejected(
            path, "fault-replay", "diverge from the replayed schedule", capsys
        )

    def test_edited_seed(self, recorded, tmp_path, capsys):
        path = tampered_copy(recorded, tmp_path, TAMPERS["edited-seed"])
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
        # The manifest is found by trace name, so the tampered copy takes
        # the genuine trace's name beside a copy of the genuine stream.
        trace = tampered_copy(
            recorded, tmp_path, TAMPERS["flipped-verdict"]
        ).rename(tmp_path / recorded.trace_path.name)
        stream = tmp_path / MANIFEST_STREAM
        stream.write_bytes(recorded.manifest_location.path.read_bytes())
        code, out = certify_cli(trace, "--manifest", str(stream), capsys=capsys)
        assert code == 1
        assert "[manifest]" in out
        assert "sha256" in out
        with pytest.raises(CertificationError, match="sha256"):
            certify_run(trace, recorded.manifest_location)

    def test_named_stream_without_the_trace_is_a_usage_error(
        self, recorded, tmp_path, capsys
    ):
        trace = tampered_copy(recorded, tmp_path, lambda lines: lines)
        code = main([
            "certify", str(trace),
            "--manifest", str(recorded.manifest_location.path),
        ])
        assert code == 2
        assert "no manifest names tampered.jsonl" in capsys.readouterr().err

    def test_certify_run_raises_on_tampered_trace(self, recorded, tmp_path):
        trace = tampered_copy(recorded, tmp_path, TAMPERS["edited-seed"])
        with pytest.raises(CertificationError, match="seed-chain"):
            certify_run(trace)


class BrokenUser(UserStrategy):
    """Steps once, then raises: its session is abandoned."""

    name = "broken"

    def initial_state(self, rng):
        return 0

    def step(self, state, inbox, rng):
        raise RuntimeError("tenant bug")


class TestLedgerParity:
    """``certify DIR`` gives every trace the per-file CLI's answer.

    The per-file CLI is ``certify DIR/T --manifest DIR/manifests.ndjson``.
    Each case builds a ledger directory and compares the two forms: the
    ``--format json`` certificate (or the exit-2 error), the verdict line,
    and the exit status, which for ``DIR`` is the worst of its traces'.
    """

    def ledger_copy(self, recorded, tmp_path):
        ledger = tmp_path / "ledger"
        ledger.mkdir()
        shutil.copy(recorded.trace_path, ledger)
        shutil.copy(recorded.manifest_location.path, ledger)
        return ledger

    def assert_parity(self, ledger, capsys):
        """Check both forms agree; the ``DIR`` form's JSON document."""
        code = main(["certify", str(ledger), "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert main(["certify", str(ledger)]) == code
        text = capsys.readouterr().out.splitlines()
        stream = str(ledger / MANIFEST_STREAM)
        codes = []
        for entry in document["traces"]:
            trace = entry["trace"]
            codes.append(
                main(["certify", trace, "--manifest", stream, "--format", "json"])
            )
            captured = capsys.readouterr()
            if "error" in entry:
                assert captured.err == f"error: {entry['error']}\n"
                assert f"{trace}: error: {entry['error']}" in text
                continue
            assert json.loads(captured.out) == entry
            main(["certify", trace, "--manifest", stream])
            status = next(
                line for line in capsys.readouterr().out.splitlines()
                if line.startswith("status   : ")
            )
            assert f"{trace}: {status[len('status   : '):]}" in text
        assert code == document["status"] == max(codes, default=0)
        assert document["count"] == len(codes)
        assert text[-1].startswith(f"{len(codes)} trace(s): ")
        return document

    def test_a_re_recorded_name_is_certified_against_its_last_line(
        self, tmp_path, capsys
    ):
        ledger = tmp_path / "ledger"
        for name, seed in (("again", 1), ("again", 2), ("other", 3)):
            record_run(
                make_user(), SERVERS[0], GOAL,
                max_rounds=200, seed=seed, out_dir=ledger, name=name,
            )
        document = self.assert_parity(ledger, capsys)
        stream = ledger / MANIFEST_STREAM
        assert [
            (entry["trace"], entry["certified"], entry["manifest"])
            for entry in document["traces"]
        ] == [
            (str(ledger / "again.jsonl"), True, f"{stream}:2"),
            (str(ledger / "other.jsonl"), True, f"{stream}:3"),
        ]

    def test_damage_fails_the_lookups_it_follows(self, recorded, tmp_path, capsys):
        ledger = self.ledger_copy(recorded, tmp_path)
        record_run(
            make_user(), SERVERS[0], GOAL,
            max_rounds=200, seed=1, out_dir=ledger, name="later",
        )
        stream = ledger / MANIFEST_STREAM
        first, second = stream.read_bytes().splitlines(keepends=True)
        stream.write_bytes(first + b"not json\n" + second)
        run, later = self.assert_parity(ledger, capsys)["traces"]
        assert ":2: not a JSON line" in run["error"]
        assert later["certified"]
        # A torn final line may be a newer manifest of every trace.
        with stream.open("ab") as handle:
            handle.write(b'{"ledger_schema":2')
        document = self.assert_parity(ledger, capsys)
        assert ":4: torn final line" in document["damage"]
        assert all(
            ":2: not a JSON line" in entry["error"]
            or ":4: torn final line" in entry["error"]
            for entry in document["traces"]
        )

    def test_unnamed_and_abandoned_traces_are_errors(
        self, recorded, tmp_path, capsys
    ):
        ledger = self.ledger_copy(recorded, tmp_path)
        shutil.copy(recorded.trace_path, ledger / "copy.jsonl")
        with pytest.raises(RuntimeError, match="tenant bug"):
            record_run(
                BrokenUser(), SERVERS[0], GOAL,
                max_rounds=50, out_dir=ledger, name="abandoned",
            )
        assert '"session-abandoned"' in (ledger / "abandoned.jsonl").read_text()
        document = self.assert_parity(ledger, capsys)
        stream = ledger / MANIFEST_STREAM
        assert [
            (entry["trace"], entry.get("error")) for entry in document["traces"]
        ] == [
            (str(ledger / "run.jsonl"), None),
            (
                str(ledger / "abandoned.jsonl"),
                f"{stream}: no manifest names abandoned.jsonl",
            ),
            (str(ledger / "copy.jsonl"), f"{stream}: no manifest names copy.jsonl"),
        ]

    def test_other_streams_and_subdirectories_are_skipped(
        self, recorded, tmp_path, capsys
    ):
        ledger = self.ledger_copy(recorded, tmp_path)
        (ledger / "metrics.jsonl").write_text('{"metrics_schema":1}\n')
        (ledger / "flight").mkdir()
        shutil.copy(recorded.trace_path, ledger / "flight" / "dump.jsonl")
        document = self.assert_parity(ledger, capsys)
        assert [entry["trace"] for entry in document["traces"]] == [
            str(ledger / "run.jsonl")
        ]
        assert document["status"] == 0

    @pytest.mark.parametrize("tamper", [*TAMPERS, "truncated"])
    def test_each_tampering_class(self, recorded, tmp_path, capsys, tamper):
        ledger = self.ledger_copy(recorded, tmp_path)
        trace = ledger / recorded.trace_path.name
        if tamper == "truncated":
            text = trace.read_text()
            trace.write_text(text[: int(len(text) * 0.7)])
        else:
            lines = trace.read_text().splitlines()
            trace.write_text("\n".join(TAMPERS[tamper](lines)) + "\n")
        (entry,) = self.assert_parity(ledger, capsys)["traces"]
        assert not entry["certified"]
        assert "trace digest mismatch" in json.dumps(entry["issues"])


class TestOverheadCheck:
    """Each finding the overhead check can reach, one tampering each."""

    def overhead_issues(self, report):
        return [i.message for i in report.issues if i.check == "overhead"]

    def test_endorsed_trial_longer_than_the_run(self):
        events = [
            ExecutionStarted(
                user="u", server="s", world="w", max_rounds=2, seed=0
            ),
            TrialStarted(
                round_index=0, trial_number=0, candidate_index=0, budget=None
            ),
            SensingIndication(round_index=0, candidate_index=0, positive=True),
            RoundExecuted(round_index=0, halted=False),
            RoundExecuted(round_index=1, halted=True),
            TrialFinished(
                round_index=1, trial_number=0, candidate_index=0,
                reason="endorsed", rounds_used=50,
            ),
            ExecutionFinished(rounds_executed=2, halted=True),
        ]
        report = certify_events(events)
        assert self.overhead_issues(report) == [
            "overhead decomposition does not add up: 50 + 0 != 2"
        ]

    def test_trial_numbers_that_skip(self, recorded, tmp_path, capsys):
        def skip(lines):
            started = sum(
                json.loads(line).get("kind") == "trial-started" for line in lines
            )
            return edit_event(
                lines, "trial-started", "trial_number", started,
                occurrence=started - 1,
            )

        path = tampered_copy(recorded, tmp_path, skip)
        trials = sum(
            json.loads(line).get("kind") == "trial-started"
            for line in path.read_text().splitlines()
        )
        report = certify_trace(path)
        assert self.overhead_issues(report) == [
            f"overhead counts {trials} trial(s) but the stream shows "
            f"{trials + 1}"
        ]
        code, out = certify_cli(path, capsys=capsys)
        assert code == 1 and "[overhead]" in out

    def test_second_execution_finished_claims_more_rounds(
        self, recorded, tmp_path
    ):
        path = tampered_copy(
            recorded, tmp_path,
            lambda lines: lines + [
                '{"kind":"execution-finished","rounds_executed":601,'
                '"halted":false}'
            ],
        )
        report = certify_trace(path)
        assert self.overhead_issues(report) == [
            "overhead accounts 601 round(s) but the execution ran 600"
        ]
        assert any(
            i.message == "duplicate execution-finished event"
            for i in report.issues
        )

    def test_fragments_skip_the_overhead_check(self, recorded, tmp_path):
        path = tampered_copy(
            recorded, tmp_path,
            lambda lines: lines + [
                '{"kind":"execution-finished","rounds_executed":601,'
                '"halted":false}'
            ],
        )
        report = certify_trace(path, fragment=True)
        assert "overhead" not in report.checks
        assert self.overhead_issues(report) == []


class TestDemoPair:
    def test_committed_demo_certifies_against_its_manifest(self, capsys):
        code, out = certify_cli(
            DEMO_DATA / "certify_demo.jsonl",
            "--manifest", str(DEMO_DATA / "certify_demo.json"),
            "--format", "json",
            capsys=capsys,
        )
        assert code == 0
        document = json.loads(out)
        assert document["certified"] is True
        assert document["manifest"].endswith("certify_demo.json:1")
        assert document["checks"] == list(CHECKS)


class TestLegacyTraces:
    def test_major_1_trace_is_rejected_and_must_be_re_recorded(
        self, tmp_path, capsys
    ):
        path = tmp_path / "legacy.jsonl"
        path.write_text(
            json.dumps({"trace_schema": 1, "trace_schema_minor": 1}) + "\n"
        )
        with pytest.raises(TraceSchemaError, match="re-record the trace") as info:
            certify_trace(path)
        assert info.value.line == 1
        assert main(["certify", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:1: trace_schema 1 predates" in err

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

        Certify a real faulted trace in a fresh interpreter, alone and as
        its ledger directory (``certify DIR``), and assert no
        ``repro.core`` module (nor the universal users) was ever loaded —
        the replay re-derives verdicts from the event stream alone.
        """
        for target in (recorded.trace_path, recorded.trace_path.parent):
            code = (
                "import sys\n"
                "from repro.obs.__main__ import main\n"
                f"assert main(['certify', {str(target)!r}]) == 0\n"
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

    def resweep(self, ledger):
        """Sweep once more into ``ledger``: certify checks every index."""
        sweep(
            make_user(), SERVERS[:1], GOAL,
            seeds=(3,), max_rounds=600, ledger_dir=ledger, certify=True,
        )

    def certify_dir(self, ledger, capsys):
        code = main(["certify", str(ledger)])
        captured = capsys.readouterr()
        return code, captured.out + captured.err

    def test_sweep_certify_passes_and_tampering_trips_the_digest(
        self, tmp_path, capsys
    ):
        ledger = tmp_path / "ledger"
        sweep(
            make_user(), SERVERS[:2], GOAL,
            seeds=(3,), max_rounds=600, ledger_dir=ledger, certify=True,
        )
        stream = ledger / MANIFEST_STREAM
        lines = stream.read_text().splitlines(keepends=True)
        index = json.loads(lines[-1])
        assert index["kind"] == "sweep" and index["cells_sha256"]
        # certify DIR on the untouched ledger is clean...
        code, out = self.certify_dir(ledger, capsys)
        assert code == 0
        assert f"{stream}:3: sweep index OK" in out
        # ...and any edit to a cell line breaks the digest.
        cell = json.loads(lines[0])
        cell["rounds"] += 1
        stream.write_text(
            json.dumps(cell, separators=(",", ":")) + "\n" + "".join(lines[1:])
        )
        code, out = self.certify_dir(ledger, capsys)
        assert code == 1
        assert "digest mismatch" in out
        with pytest.raises(CertificationError, match="digest mismatch"):
            self.resweep(ledger)

    def test_sweep_certify_detects_a_wrong_cells_digest(self, tmp_path, capsys):
        ledger = tmp_path / "ledger"
        sweep(
            make_user(), SERVERS[:2], GOAL,
            seeds=(3,), max_rounds=600, ledger_dir=ledger,
        )
        stream = ledger / MANIFEST_STREAM
        lines = stream.read_text().splitlines(keepends=True)
        index = json.loads(lines[-1])
        index["cells_sha256"] = "0" * 64
        stream.write_text(
            "".join(lines[:-1]) + json.dumps(index, separators=(",", ":")) + "\n"
        )
        code, out = self.certify_dir(ledger, capsys)
        assert code == 1
        assert "digest mismatch" in out
        with pytest.raises(CertificationError, match="digest mismatch"):
            self.resweep(ledger)

    def test_sweep_certify_checks_each_cells_run_id(self, tmp_path, capsys):
        # A cell line edited and the digest restamped to match: only the
        # index's run ids still tell the edited cell from the one it lists.
        ledger = tmp_path / "ledger"
        sweep(
            make_user(), SERVERS[:2], GOAL,
            seeds=(3,), max_rounds=600, ledger_dir=ledger,
        )
        stream = ledger / MANIFEST_STREAM
        lines = stream.read_bytes().splitlines(keepends=True)
        cell = json.loads(lines[0])
        cell["goal"] = "other-goal"
        lines[0] = (json.dumps(cell, separators=(",", ":")) + "\n").encode()
        index = json.loads(lines[-1])
        index["cells_sha256"] = hashlib.sha256(
            "\n".join(hashlib.sha256(line).hexdigest() for line in lines[:-1])
            .encode("ascii")
        ).hexdigest()
        lines[-1] = (json.dumps(index, separators=(",", ":")) + "\n").encode()
        stream.write_bytes(b"".join(lines))
        code, out = self.certify_dir(ledger, capsys)
        assert code == 1
        assert "run id mismatch" in out
        assert f"lists {index['cells'][0]} for cell 0" in out
        with pytest.raises(CertificationError, match="run id mismatch"):
            self.resweep(ledger)

    def test_sweep_certify_detects_missing_cell(self, tmp_path, capsys):
        ledger = tmp_path / "ledger"
        sweep(
            make_user(), SERVERS[:1], GOAL,
            seeds=(3,), max_rounds=600, ledger_dir=ledger, certify=True,
        )
        stream = ledger / MANIFEST_STREAM
        lines = stream.read_text().splitlines(keepends=True)
        stream.write_text("".join(lines[1:]))
        code, out = self.certify_dir(ledger, capsys)
        assert code == 1
        assert "missing cell line" in out
        with pytest.raises(CertificationError, match="missing cell line"):
            self.resweep(ledger)

    def test_sweep_certify_reads_the_last_sweep_of_a_reused_ledger(
        self, tmp_path, capsys
    ):
        ledger = tmp_path / "ledger"
        for servers in (SERVERS[:2], SERVERS[:1]):
            sweep(
                make_user(), servers, GOAL,
                seeds=(3,), max_rounds=600, ledger_dir=ledger, certify=True,
            )
        stream = ledger / MANIFEST_STREAM
        lines = stream.read_text().splitlines(keepends=True)
        assert len(lines) == 5
        # Drop the second sweep's one cell: its index now sits right after
        # the first sweep's index, which is not a cell line.
        stream.write_text("".join(lines[:3] + lines[4:]))
        code, out = self.certify_dir(ledger, capsys)
        assert code == 1
        assert f"{stream}:3: sweep index OK" in out
        assert f"{stream}:4: missing cell line" in out
        with pytest.raises(CertificationError, match="missing cell line"):
            self.resweep(ledger)

    def test_sweep_certify_reports_a_torn_index(
        self, tmp_path, monkeypatch, capsys
    ):
        # A writer that stops mid-append of the index: the torn line is the
        # stream's last, so it is reported with its line number.
        ledger = tmp_path / "ledger"
        write = ledger_module.write_manifest

        def tearing(manifest, path):
            location = write(manifest, path)
            if manifest.kind == "sweep":
                Path(path).write_bytes(Path(path).read_bytes()[:-5])
            return location

        monkeypatch.setattr(ledger_module, "write_manifest", tearing)
        with pytest.raises(CertificationError, match=":2: torn final line"):
            self.resweep(ledger)
        code, out = self.certify_dir(ledger, capsys)
        assert code == 2
        assert ":2: torn final line" in out

    def test_verify_robustness_certify_flag(self):
        report = verify_robustness(
            make_user(), SERVERS[:1], GOAL, control_sensing(),
            grid=[None, drop_channel(0.05)], seeds=(3,), max_rounds=200,
            certify=True,
        )
        assert report.safe
