"""Reproducibility of faulted runs: recording policies, backends, seeds.

The acceptance bar for the fault layer: a fault trace is a pure function
of the execution seed, so the *same* seed gives the *same* execution —
under FULL and METRICS recording, serially and across process workers —
and ``channel=None`` stays bitwise identical to the pre-fault engine.
"""

from __future__ import annotations

from repro.analysis.parallel import ProcessExecutor
from repro.analysis.runner import sweep
from repro.comm.codecs import IdentityCodec, codec_family
from repro.core.execution import (
    FULL_RECORDING,
    METRICS_RECORDING,
    run_execution,
)
from repro.faults.channel import drop_channel
from repro.servers.advisors import advisor_server_class
from repro.users.control_users import AdvisorFollowingUser
from repro.worlds.control import control_goal

LAW = {"red": "blue", "blue": "red"}
GOAL = control_goal(LAW)
SERVERS = advisor_server_class(LAW, codec_family(2))
FAULTS = [None, drop_channel(0.05), drop_channel(0.15, salt=1)]


def faulted_sweep(**kwargs):
    return sweep(
        AdvisorFollowingUser(IdentityCodec()),
        SERVERS,
        GOAL,
        seeds=(0, 1),
        max_rounds=300,
        faults=FAULTS,
        **kwargs,
    )


class TestFaultsAxis:
    def test_grid_is_servers_cross_channels(self):
        result = faulted_sweep()
        assert len(result.cells) == len(SERVERS) * len(FAULTS)
        names = [cell.channel_name for cell in result.cells]
        per_server = [None, "drop(0.05)", "drop(0.15)"]
        assert names == per_server * len(SERVERS)

    def test_omitting_faults_keeps_the_classical_sweep(self):
        result = sweep(
            AdvisorFollowingUser(IdentityCodec()),
            SERVERS,
            GOAL,
            seeds=(0,),
            max_rounds=200,
        )
        assert len(result.cells) == len(SERVERS)
        assert all(cell.channel_name is None for cell in result.cells)

    def test_perfect_cells_match_a_channel_free_sweep(self):
        """The faults axis must not perturb its own baseline column."""
        clean = sweep(
            AdvisorFollowingUser(IdentityCodec()),
            SERVERS,
            GOAL,
            seeds=(0, 1),
            max_rounds=300,
        )
        faulted = faulted_sweep()
        perfect_runs = [
            cell.runs for cell in faulted.cells if cell.channel_name is None
        ]
        assert perfect_runs == [cell.runs for cell in clean.cells]


class TestBackendParityUnderFaults:
    def test_process_pool_matches_serial(self):
        serial = faulted_sweep(telemetry=True)
        parallel = faulted_sweep(
            telemetry=True, executor=ProcessExecutor(max_workers=2)
        )
        assert parallel == serial

    def test_metrics_recording_parity_across_backends(self, full_recording_cell):
        """A faulted sweep cell records metrics only, yet equals full runs."""

        def run(executor=None):
            return sweep(
                AdvisorFollowingUser(IdentityCodec()), SERVERS[:1], GOAL,
                seeds=(0, 1, 2), max_rounds=300, faults=[drop_channel(0.1)],
                telemetry=True, executor=executor,
            )

        serial = run()
        with ProcessExecutor(max_workers=2) as executor:
            assert run(executor=executor) == serial
        reference = full_recording_cell(
            AdvisorFollowingUser(IdentityCodec()), SERVERS[0], GOAL, (0, 1, 2),
            300, channel=drop_channel(0.1),
        )
        assert list(serial.cells) == [reference]
        assert reference.channel_name == "drop(0.1)"


class TestExecutionReproducibility:
    def run_once(self, recording, seed=3):
        return run_execution(
            AdvisorFollowingUser(IdentityCodec()),
            SERVERS[0],
            GOAL.world,
            max_rounds=300,
            seed=seed,
            recording=recording,
            channel=drop_channel(0.1),
            referee=GOAL.referee,
        )

    def test_same_seed_same_execution(self):
        first = self.run_once(FULL_RECORDING)
        again = self.run_once(FULL_RECORDING)
        assert first.world_states == again.world_states
        assert first.halted == again.halted
        assert [r.server_inbox for r in first.rounds] == [
            r.server_inbox for r in again.rounds
        ]

    def test_full_and_metrics_recording_agree(self):
        full = self.run_once(FULL_RECORDING)
        metrics = self.run_once(METRICS_RECORDING)
        assert metrics.world_states == full.world_states[-1:]
        assert metrics.halted == full.halted
        assert metrics.rounds_executed == full.rounds_executed
        assert metrics.channel_name == full.channel_name
        assert GOAL.evaluate(metrics).achieved == GOAL.evaluate(full).achieved

    def test_different_seeds_differ(self):
        assert (
            self.run_once(FULL_RECORDING, seed=3).world_states
            != self.run_once(FULL_RECORDING, seed=4).world_states
        )
