"""Tests for the synchronous execution engine."""

from __future__ import annotations


import pytest

from repro.comm.messages import ServerOutbox, UserOutbox
from repro.core.execution import ExecutionStepper, run_execution
from repro.core.strategy import (
    ServerStrategy,
    SilentServer,
    SilentUser,
    UserStrategy,
)
from repro.errors import ExecutionError
from repro.users.scripted import ScriptedUser

from tests.core.helpers import CountingWorld, EchoServer, IncrementingUser, RandomCoinUser


class TestBasics:
    def test_runs_exact_round_count(self):
        result = run_execution(
            SilentUser(), SilentServer(), CountingWorld(), max_rounds=7, seed=0
        )
        assert result.rounds_executed == 7
        assert not result.halted

    def test_world_states_include_initial(self):
        result = run_execution(
            SilentUser(), SilentServer(), CountingWorld(), max_rounds=3, seed=0
        )
        assert len(result.world_states) == 4
        assert result.world_states[0] == 0

    def test_max_rounds_validated(self):
        with pytest.raises(ExecutionError):
            run_execution(
                SilentUser(), SilentServer(), CountingWorld(), max_rounds=0
            )

    def test_halt_stops_execution(self):
        result = run_execution(
            IncrementingUser(limit=3), SilentServer(), CountingWorld(),
            max_rounds=100, seed=0,
        )
        assert result.halted
        assert result.user_output == "sent:3"
        assert result.rounds_executed == 4  # 3 INC rounds + the halting round.

    def test_final_world_state(self):
        result = run_execution(
            IncrementingUser(limit=3), SilentServer(), CountingWorld(),
            max_rounds=100, seed=0,
        )
        assert result.final_world_state() == 3


class TestMessageLatency:
    def test_one_round_delivery_delay(self):
        """A message sent in round t is read in round t+1."""
        user = ScriptedUser([UserOutbox(to_world="INC")])
        result = run_execution(
            user, SilentServer(), CountingWorld(), max_rounds=3, seed=0
        )
        # World state after round 0 is still 0; the INC lands in round 1.
        assert result.world_states[1] == 0
        assert result.world_states[2] == 1

    def test_round_trip_takes_two_rounds(self):
        user = ScriptedUser([UserOutbox(to_server="ping")])
        result = run_execution(
            user, EchoServer(), CountingWorld(), max_rounds=4, seed=0
        )
        echoes = [r.inbox.from_server for r in result.user_view]
        assert echoes[2] == "ping"  # Sent at 0, echoed at 1, read at 2.


class TestDeterminism:
    def test_same_seed_same_execution(self):
        a = run_execution(
            RandomCoinUser(), EchoServer(), CountingWorld(), max_rounds=20, seed=5
        )
        b = run_execution(
            RandomCoinUser(), EchoServer(), CountingWorld(), max_rounds=20, seed=5
        )
        msgs_a = [r.outbox.to_server for r in a.user_view]
        msgs_b = [r.outbox.to_server for r in b.user_view]
        assert msgs_a == msgs_b

    def test_different_seed_different_coins(self):
        a = run_execution(
            RandomCoinUser(), EchoServer(), CountingWorld(), max_rounds=40, seed=1
        )
        b = run_execution(
            RandomCoinUser(), EchoServer(), CountingWorld(), max_rounds=40, seed=2
        )
        msgs_a = [r.outbox.to_server for r in a.user_view]
        msgs_b = [r.outbox.to_server for r in b.user_view]
        assert msgs_a != msgs_b

    def test_party_rngs_are_isolated(self):
        """A user consuming extra randomness must not shift the world's RNG."""

        class HungryUser(RandomCoinUser):
            def step(self, state, inbox, rng):
                for _ in range(100):
                    rng.random()
                return super().step(state, inbox, rng)

        class DrawingWorld(CountingWorld):
            def step(self, state, inbox, rng):
                return state + rng.randrange(1000), type(self)._out(state)

            @staticmethod
            def _out(state):
                from repro.comm.messages import WorldOutbox

                return WorldOutbox()

        a = run_execution(
            RandomCoinUser(), SilentServer(), DrawingWorld(), max_rounds=10, seed=3
        )
        b = run_execution(
            HungryUser(), SilentServer(), DrawingWorld(), max_rounds=10, seed=3
        )
        assert a.world_states == b.world_states


class TestTypeChecking:
    def test_wrong_user_outbox_type_rejected(self):
        class BadUser(UserStrategy):
            def initial_state(self, rng):
                return 0

            def step(self, state, inbox, rng):
                return state, ServerOutbox()  # Wrong type.

        with pytest.raises(ExecutionError):
            run_execution(
                BadUser(), SilentServer(), CountingWorld(), max_rounds=1
            )

    def test_wrong_server_outbox_type_rejected(self):
        class BadServer(ServerStrategy):
            def initial_state(self, rng):
                return 0

            def step(self, state, inbox, rng):
                return state, UserOutbox()

        with pytest.raises(ExecutionError):
            run_execution(
                SilentUser(), BadServer(), CountingWorld(), max_rounds=1
            )


class TestRecording:
    def test_transcript_optional(self):
        result = run_execution(
            SilentUser(), SilentServer(), CountingWorld(), max_rounds=2, seed=0
        )
        assert result.transcript is None

    def test_transcript_captures_traffic(self):
        user = ScriptedUser([UserOutbox(to_server="hello")])
        result = run_execution(
            user, EchoServer(), CountingWorld(), max_rounds=3, seed=0,
            record_transcript=True,
        )
        assert result.transcript is not None
        assert "hello" in result.transcript.messages("user", "server")

    def test_round_records_complete(self):
        result = run_execution(
            IncrementingUser(limit=2), SilentServer(), CountingWorld(),
            max_rounds=10, seed=0,
        )
        assert [r.index for r in result.rounds] == list(range(3))
        assert len(result.user_view) == 3


class FailingUser(UserStrategy):
    """Counts rounds in its state and raises in round ``fail_at``."""

    def __init__(self, fail_at: int) -> None:
        self._fail_at = fail_at

    def initial_state(self, rng):
        return 0

    def step(self, state, inbox, rng):
        if state == self._fail_at:
            raise RuntimeError(f"boom in round {state}")
        return state + 1, UserOutbox(to_world="INC")


class TestStepperWriteBack:
    @pytest.mark.parametrize("fail_at", [0, 5, 31])
    def test_raise_mid_slice_keeps_completed_rounds(self, fail_at):
        """A strategy raising in round k of a slice leaves the stepper at k."""
        stepper = ExecutionStepper(
            FailingUser(fail_at), SilentServer(), CountingWorld(),
            max_rounds=100, seed=0,
        )
        with pytest.raises(RuntimeError, match="boom"):
            stepper.step_many(32)
        assert stepper.rounds_completed == fail_at
        assert stepper.live
        result = stepper.finish()
        assert result.rounds_completed == fail_at
        assert len(result.world_states) == fail_at + 1
        assert len(result.rounds) == fail_at
        assert result.final_user_state == fail_at
        # The world counts INCs one round late (message latency).
        assert result.world_states[-1] == max(fail_at - 1, 0)

    def test_slices_compose_to_one_run(self):
        expected = run_execution(
            RandomCoinUser(), EchoServer(), CountingWorld(),
            max_rounds=50, seed=9, record_transcript=True,
        )
        stepper = ExecutionStepper(
            RandomCoinUser(), EchoServer(), CountingWorld(),
            max_rounds=50, seed=9, record_transcript=True,
        )
        slices = []
        while stepper.live:
            slices.append(stepper.step_many(7))
        assert slices == [7] * 7 + [1]
        assert stepper.step_many(7) == 0
        got = stepper.finish()
        assert got.rounds == expected.rounds
        assert list(got.transcript) == list(expected.transcript)
        assert got.final_user_state == expected.final_user_state

    def test_step_after_settle_raises(self):
        stepper = ExecutionStepper(
            SilentUser(), SilentServer(), CountingWorld(), max_rounds=2
        )
        assert stepper.step()
        assert not stepper.step()
        with pytest.raises(ExecutionError, match="settled"):
            stepper.step()
        with pytest.raises(ExecutionError, match="non-negative"):
            stepper.step_many(-1)
