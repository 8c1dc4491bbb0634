"""Tests for scripted and composite user strategies."""

from __future__ import annotations

import random

import pytest

from repro.comm.codecs import IdentityCodec
from repro.comm.messages import UserInbox, UserOutbox
from repro.core.execution import run_execution
from repro.core.strategy import UserStrategy
from repro.servers.advisors import AdvisorServer
from repro.users.control_users import AdvisorFollowingUser
from repro.users.scripted import BabblingUser, JunkThenUser, ScriptedUser
from repro.worlds.control import control_goal


class CoinStateUser(UserStrategy):
    """A silent user whose initial state is one draw of its RNG."""

    def initial_state(self, rng):
        return rng.random()

    def step(self, state, inbox, rng):
        return state, UserOutbox()


def drive(user, rounds, seed=0):
    rng = random.Random(seed)
    state = user.initial_state(rng)
    outs = []
    for _ in range(rounds):
        state, out = user.step(state, UserInbox(), rng)
        outs.append(out)
    return outs


class TestScriptedUser:
    def test_plays_script_then_silence(self):
        user = ScriptedUser([UserOutbox(to_server="a"), UserOutbox(to_server="b")])
        outs = drive(user, 4)
        assert [o.to_server for o in outs] == ["a", "b", "", ""]
        assert not any(o.halt for o in outs)

    def test_halt_after_script(self):
        user = ScriptedUser([UserOutbox(to_server="a")], halt_after="fin")
        outs = drive(user, 3)
        assert outs[1].halt and outs[1].output == "fin"
        assert not outs[2].halt  # Engine would have stopped; strategy is total anyway.


class TestBabblingUser:
    def test_babbles_on_both_channels(self):
        outs = drive(BabblingUser(message_length=5), 3)
        assert all(len(o.to_server) == 5 and len(o.to_world) == 5 for o in outs)

    def test_deterministic_under_seed(self):
        a = [o.to_server for o in drive(BabblingUser(), 5, seed=1)]
        b = [o.to_server for o in drive(BabblingUser(), 5, seed=1)]
        assert a == b

    def test_length_validated(self):
        with pytest.raises(ValueError):
            BabblingUser(message_length=0)


class TestJunkThenUser:
    def test_switches_after_junk_rounds(self):
        junk = ScriptedUser([UserOutbox(to_server="junk")] * 10)
        real = ScriptedUser([UserOutbox(to_server="real")])
        user = JunkThenUser(junk=junk, then=real, junk_rounds=2)
        outs = drive(user, 4)
        assert [o.to_server for o in outs] == ["junk", "junk", "real", ""]

    def test_zero_junk_rounds_is_transparent(self):
        real = ScriptedUser([UserOutbox(to_server="real")])
        user = JunkThenUser(junk=BabblingUser(), then=real, junk_rounds=0)
        outs = drive(user, 1)
        assert outs[0].to_server == "real"

    def test_junk_phase_halt_suppressed(self):
        eager = ScriptedUser([], halt_after="bail")
        real = ScriptedUser([UserOutbox(to_server="real")])
        user = JunkThenUser(junk=eager, then=real, junk_rounds=2)
        outs = drive(user, 3)
        assert not outs[0].halt and not outs[1].halt
        assert outs[2].to_server == "real"

    def test_full_recording_keeps_each_rounds_state(self):
        """The composite state is a value: no round's record aliases another's."""
        law = {"red": "blue", "blue": "red"}
        user = JunkThenUser(
            junk=BabblingUser(), then=AdvisorFollowingUser(IdentityCodec()),
            junk_rounds=3,
        )
        result = run_execution(
            user, AdvisorServer(law), control_goal(law).world,
            max_rounds=8, seed=0,
        )
        views = result.user_view
        assert len(views) == 8
        states = [v.state_before for v in views] + [views[-1].state_after]
        assert len({id(state) for state in states}) == len(states)
        assert views[0].state_after.rounds == 1
        assert [v.state_after.rounds for v in views] == list(range(1, 9))
        assert [v.state_after.then_started for v in views] == [False] * 3 + [True] * 5

    def test_then_starts_from_the_first_post_junk_rounds_rng(self):
        """``then``'s initial state is drawn on its first round, not before."""
        user = JunkThenUser(junk=ScriptedUser([]), then=CoinStateUser(), junk_rounds=1)
        rng = random.Random(5)
        state = user.initial_state(rng)
        state, _ = user.step(state, UserInbox(), rng)  # the junk round
        assert not state.then_started and state.then_state is None
        state, _ = user.step(state, UserInbox(), rng)
        assert state.then_started
        assert state.then_state == random.Random(5).random()

    def test_negative_junk_rounds_rejected(self):
        with pytest.raises(ValueError):
            JunkThenUser(junk=BabblingUser(), then=BabblingUser(), junk_rounds=-1)
