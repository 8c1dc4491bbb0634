"""Integration: the obs toolkit end to end on a password-server run.

The acceptance loop for the run ledger + trace CLI: record a
compact-universal run against the paper's password class (E3/E4 setting)
with :func:`repro.obs.ledger.record_run`, then check that what
``python -m repro.obs overhead`` reports off the trace file agrees with
the in-memory accounting *and* with the user's own terminal state — the
same consistency bench_e4 asserts.
"""

from __future__ import annotations

import json

from repro.comm.codecs import IdentityCodec
from repro.obs.__main__ import main
from repro.obs.ledger import read_manifest, record_run
from repro.obs.overhead import compute_overhead
from repro.obs.sinks import read_trace
from repro.servers.password import all_passwords, password_server_class
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.users.control_users import AdvisorFollowingUser, password_user_class
from repro.worlds.control import control_goal, control_sensing

LAW = {"red": "blue", "blue": "red"}
GOAL = control_goal(LAW)
BITS = 2
POSITION = 2  # The planted password's enumeration index.


def universal():
    users = password_user_class(
        all_passwords(BITS), lambda: AdvisorFollowingUser(IdentityCodec())
    )
    return CompactUniversalUser(
        ListEnumeration(users, label=f"pw{BITS}"), control_sensing()
    )


class TestObsToolkit:
    def test_cli_overhead_agrees_with_library_and_user_state(
        self, tmp_path, capsys
    ):
        servers = password_server_class(BITS, LAW)
        recorded = record_run(
            universal(), servers[POSITION], GOAL,
            max_rounds=6000, seed=0, out_dir=tmp_path, name="pw",
        )
        assert recorded.manifest.achieved == 1

        # Library accounting off the replayed trace file.
        replayed = compute_overhead(read_trace(recorded.trace_path)[1])

        # CLI accounting off the same file.
        assert main(
            ["overhead", str(recorded.trace_path), "--format", "json"]
        ) == 0
        cli = json.loads(capsys.readouterr().out)[0]

        # CLI == library == the run's own figures (bench_e4's invariants).
        assert cli["total_rounds"] == replayed.total_rounds
        assert cli["overhead_rounds"] == replayed.overhead_rounds
        assert cli["settled_index"] == replayed.settled_index
        assert replayed.total_rounds == recorded.execution.rounds_executed
        assert replayed.switches == POSITION
        assert replayed.settled_index == POSITION
        state = recorded.execution.rounds[-1].user_state_after
        assert replayed.switches == state.switches

    def test_manifest_identifies_the_run(self, tmp_path):
        servers = password_server_class(BITS, LAW)
        recorded = record_run(
            universal(), servers[POSITION], GOAL,
            max_rounds=6000, seed=0, out_dir=tmp_path, name="pw",
        )
        manifest = read_manifest(recorded.manifest_location)
        assert manifest == recorded.manifest
        assert manifest.seeds == (0,)
        assert manifest.server == servers[POSITION].name
        assert manifest.trace_path == "pw.jsonl"

    def test_cli_summarize_reads_the_recorded_trace(self, tmp_path, capsys):
        servers = password_server_class(BITS, LAW)
        recorded = record_run(
            universal(), servers[0], GOAL,
            max_rounds=6000, seed=0, out_dir=tmp_path, name="pw0",
        )
        assert main(
            ["summarize", str(recorded.trace_path), "--format", "json"]
        ) == 0
        summary = json.loads(capsys.readouterr().out)[0]
        assert summary["rounds"] == recorded.execution.rounds_executed
        assert summary["trace_schema"] == 2
