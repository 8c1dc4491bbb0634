"""The stepper's round loop: slices, write-back on a raise, outbox checks.

The stepper keeps the six in-flight messages, the party states and the
round count in locals for the length of a slice and writes them back at
its end.  These tests pin that a slice boundary is invisible (any slicing
gives the run :func:`run_execution` gives) and that a raise mid-slice
leaves the stepper at the last completed round.
"""

from __future__ import annotations

import pytest

from repro.comm.messages import ServerOutbox, UserOutbox, WorldOutbox
from repro.core.execution import (
    FULL_RECORDING,
    METRICS_RECORDING,
    ExecutionStepper,
    run_execution,
)
from repro.core.strategy import (
    ServerStrategy,
    SilentServer,
    SilentUser,
    UserStrategy,
    WorldStrategy,
)
from repro.errors import ExecutionError
from repro.machines.tabular import coded_server_class, relay_decoder_class, relay_goal
from repro.worlds.control import control_goal

from tests.core.helpers import CountingWorld, EchoServer
from tests.universal.golden import (
    STAT_FIELDS,
    compact_drop_patience,
    compact_e1,
    finite_levin,
)

SYMBOLS = tuple("abcd")
#: The control referee does not depend on the law.
CONTROL_REFEREE = control_goal({"red": "red"}).referee


def _relay():
    goal = relay_goal(SYMBOLS)
    user = relay_decoder_class(SYMBOLS)[1]
    server = coded_server_class(SYMBOLS)[1]
    return user, server, goal.world, 120, 5, None, goal.referee


def _golden(factory, referee):
    def build():
        cast = factory()
        return (
            cast.user, cast.server, cast.world, cast.max_rounds, cast.seed,
            cast.channel, referee,
        )

    return build


CASTS = {
    "control-universal": _golden(compact_e1, CONTROL_REFEREE),
    "relay-tabular": _relay,
    "drop-channel": _golden(compact_drop_patience, CONTROL_REFEREE),
    "finite-halting": _golden(finite_levin, None),
}


def _user(state):
    """A universal user's state by its counters (it holds generators)."""
    if hasattr(state, "trials_run"):
        return tuple(getattr(state, name, None) for name in STAT_FIELDS)
    return state


def _summary(result):
    """Everything a result holds, in comparable form."""
    monitor = result.referee_monitor
    return (
        [
            (r.index, r.user_inbox, r.user_outbox, r.server_inbox, r.server_outbox,
             r.world_inbox, r.world_outbox, r.server_state_after, r.world_state_after)
            for r in result.rounds
        ],
        result.world_states,
        len(result.user_view),
        [(v.round_index, v.inbox, v.outbox) for v in result.user_view],
        result.halted,
        result.user_output,
        _user(result.final_user_state),
        result.rounds_completed,
        result.channel_name,
        None if monitor is None else monitor.verdict(),
    )


@pytest.mark.parametrize("recording", [FULL_RECORDING, METRICS_RECORDING], ids=["full", "metrics"])
@pytest.mark.parametrize("cast", sorted(CASTS))
class TestSliceParity:
    @pytest.mark.parametrize("slice_rounds", [1, 7, None])
    def test_any_slicing_gives_run_execution(self, cast, recording, slice_rounds):
        user, server, world, max_rounds, seed, channel, referee = CASTS[cast]()
        kwargs = dict(
            max_rounds=max_rounds, seed=seed, recording=recording,
            channel=channel, referee=referee,
        )
        expected = run_execution(user, server, world, **kwargs)
        stepper = ExecutionStepper(user, server, world, **kwargs)
        step = max_rounds if slice_rounds is None else slice_rounds
        while stepper.live:
            stepper.step_many(step)
        assert _summary(stepper.finish()) == _summary(expected)


@pytest.mark.parametrize("recording", [FULL_RECORDING, METRICS_RECORDING], ids=["full", "metrics"])
def test_finite_cast_halts_before_the_horizon(recording):
    user, server, world, max_rounds, seed, channel, referee = CASTS["finite-halting"]()
    result = run_execution(
        user, server, world, max_rounds=max_rounds, seed=seed,
        recording=recording, channel=channel, referee=referee,
    )
    assert result.halted
    assert result.rounds_completed < max_rounds


class _Raising:
    """Emits ``m<t>`` each round and raises in round ``fail_at``."""

    def __init__(self, fail_at: int) -> None:
        self._fail_at = fail_at

    def initial_state(self, rng):
        return 0

    def _check(self, state):
        if state == self._fail_at:
            raise RuntimeError(f"boom in round {state}")


class RaisingUser(_Raising, UserStrategy):
    def step(self, state, inbox, rng):
        self._check(state)
        return state + 1, UserOutbox(to_server=f"m{state}", to_world="INC")


class RaisingServer(_Raising, ServerStrategy):
    def step(self, state, inbox, rng):
        self._check(state)
        return state + 1, ServerOutbox(to_user=f"s{state}")


class CountingUser(UserStrategy):
    def initial_state(self, rng):
        return 0

    def step(self, state, inbox, rng):
        return state + 1, UserOutbox(to_server=f"m{state}")


class TestRaiseMidSlice:
    @pytest.mark.parametrize("recording", [FULL_RECORDING, METRICS_RECORDING], ids=["full", "metrics"])
    @pytest.mark.parametrize("fail_at", [0, 1, 6, 13])
    def test_user_raise_leaves_last_completed_round(self, recording, fail_at):
        stepper = ExecutionStepper(
            RaisingUser(fail_at), EchoServer(), CountingWorld(),
            max_rounds=100, recording=recording,
        )
        if fail_at > 6:
            assert stepper.step_many(6) == 6
        with pytest.raises(RuntimeError, match="boom"):
            stepper.step_many(32)
        assert stepper.rounds_completed == fail_at
        assert stepper.live
        expected = "" if fail_at == 0 else f"m{fail_at - 1}"
        assert stepper.user_to_server == expected
        assert stepper.user_to_world == ("" if fail_at == 0 else "INC")
        # The echo server returns what it read one round earlier.
        assert stepper.server_to_user == ("" if fail_at < 2 else f"m{fail_at - 2}")
        result = stepper.finish()
        assert len(result.user_view) == fail_at
        assert result.rounds_completed == fail_at
        assert result.final_user_state == fail_at
        assert result.world_states[-1] == max(fail_at - 1, 0)

    def test_server_raise_keeps_other_parties_states(self):
        """A party raising after another stepped commits neither state."""
        stepper = ExecutionStepper(
            CountingUser(), RaisingServer(4), CountingWorld(), max_rounds=20
        )
        with pytest.raises(RuntimeError, match="boom"):
            stepper.step_many(10)
        assert stepper.rounds_completed == 4
        assert stepper.user_state == 4
        assert stepper.server_state == 4
        assert stepper.user_to_server == "m3"
        assert stepper.server_to_user == "s3"
        assert len(stepper.finish().rounds) == 4

    def test_partial_run_equals_the_clean_prefix(self):
        stepper = ExecutionStepper(
            RaisingUser(9), EchoServer(), CountingWorld(), max_rounds=30
        )
        with pytest.raises(RuntimeError):
            stepper.step_many(30)
        partial = stepper.finish()
        clean = run_execution(
            RaisingUser(-1), EchoServer(), CountingWorld(), max_rounds=9
        )
        assert partial.rounds == clean.rounds


class _WrongWorld(WorldStrategy):
    @property
    def name(self):
        return "wrong-world"

    def initial_state(self, rng):
        return 0

    def step(self, state, inbox, rng):
        return state, UserOutbox()


class _BadUser(UserStrategy):
    @property
    def name(self):
        return "bad-user"

    def initial_state(self, rng):
        return 0

    def step(self, state, inbox, rng):
        return state, ("not", "an", "outbox", False)


class LoudOutbox(UserOutbox):
    """A subclass: still a user outbox."""


class _SubclassUser(UserStrategy):
    def initial_state(self, rng):
        return 0

    def step(self, state, inbox, rng):
        return state + 1, LoudOutbox(to_world="INC")


class TestOutboxChecks:
    def test_wrong_world_outbox_names_the_strategy(self):
        with pytest.raises(ExecutionError, match="world strategy wrong-world returned UserOutbox"):
            run_execution(SilentUser(), SilentServer(), _WrongWorld(), max_rounds=3)

    def test_bare_tuple_rejected(self):
        with pytest.raises(ExecutionError, match="user strategy bad-user returned tuple"):
            run_execution(_BadUser(), SilentServer(), CountingWorld(), max_rounds=3)

    def test_wrong_type_is_not_a_completed_round(self):
        stepper = ExecutionStepper(
            SilentUser(), SilentServer(), _WrongWorld(), max_rounds=3
        )
        with pytest.raises(ExecutionError):
            stepper.step_many(3)
        assert stepper.rounds_completed == 0
        assert stepper.finish().world_states == [0]

    def test_outbox_subclass_accepted(self):
        result = run_execution(
            _SubclassUser(), SilentServer(), CountingWorld(), max_rounds=4
        )
        assert result.rounds_completed == 4
        assert result.world_states[-1] == 3
        assert all(type(r.user_outbox) is LoudOutbox for r in result.rounds)

    def test_world_outbox_subclass_accepted(self):
        class Wide(WorldOutbox):
            pass

        class W(WorldStrategy):
            def initial_state(self, rng):
                return 0

            def step(self, state, inbox, rng):
                return state + 1, Wide(to_user="hi")

        result = run_execution(SilentUser(), SilentServer(), W(), max_rounds=3)
        assert [r.user_inbox.from_world for r in result.rounds] == ["", "hi", "hi"]
