"""Tests for control followers and authenticating users."""

from __future__ import annotations

import copy
import random

import pytest

from repro.comm.codecs import IdentityCodec, ReverseCodec, codec_family
from repro.comm.messages import UserInbox, UserOutbox
from repro.core.execution import ExecutionStepper, run_execution
from repro.core.strategy import UserStrategy
from repro.servers.advisors import AdvisorServer
from repro.servers.password import PasswordServer
from repro.servers.wrappers import EncodedServer
from repro.users.control_users import (
    AdvisorFollowingUser,
    AuthenticatingUser,
    follower_user_class,
    password_user_class,
)
from repro.worlds.control import control_goal

LAW = {"red": "blue", "blue": "red"}
GOAL = control_goal(LAW)


class CoinStateUser(UserStrategy):
    """A silent user whose initial state is one draw of its RNG."""

    def initial_state(self, rng):
        return rng.random()

    def step(self, state, inbox, rng):
        return state, UserOutbox()


class TestAdvisorFollowingUser:
    def test_acts_on_decoded_advice(self):
        user = AdvisorFollowingUser(IdentityCodec())
        rng = random.Random(0)
        state = user.initial_state(rng)
        _, out = user.step(state, UserInbox(from_server="ADV:red=blue"), rng)
        assert out.to_world == "ACT:red=blue"

    def test_silent_on_undecodable_advice(self):
        user = AdvisorFollowingUser(ReverseCodec())
        rng = random.Random(0)
        state = user.initial_state(rng)
        # Identity-encoded advice misread through reverse codec -> garbage.
        _, out = user.step(state, UserInbox(from_server="ADV:red=blue"), rng)
        assert out.to_world == ""

    def test_silent_on_malformed_advice(self):
        user = AdvisorFollowingUser(IdentityCodec())
        rng = random.Random(0)
        state = user.initial_state(rng)
        for bad in ("ADV:redblue", "ADV:=blue", "ADV:red=", "NOT-ADVICE"):
            _, out = user.step(state, UserInbox(from_server=bad), rng)
            assert out.to_world == "", bad

    def test_end_to_end_through_codec(self):
        codec = ReverseCodec()
        user = AdvisorFollowingUser(codec)
        server = EncodedServer(AdvisorServer(LAW), codec)
        result = run_execution(user, server, GOAL.world, max_rounds=300, seed=3)
        assert GOAL.evaluate(result).achieved

    def test_full_recording_keeps_each_rounds_state(self):
        """Per-round records hold the state of their round, not a later one."""
        stepper = ExecutionStepper(
            AdvisorFollowingUser(IdentityCodec()), AdvisorServer(LAW),
            GOAL.world, max_rounds=5, seed=0,
        )
        snapshots = [copy.deepcopy(stepper.user_state)]
        while stepper.live:
            stepper.step_many(1)
            snapshots.append(copy.deepcopy(stepper.user_state))
        result = stepper.finish()
        assert [r.user_state_after for r in result.rounds] == snapshots[1:]
        assert [v.state_before for v in result.user_view] == snapshots[:-1]
        assert [v.state_after for v in result.user_view] == snapshots[1:]

    def test_class_builder_order(self):
        codecs = codec_family(3)
        users = follower_user_class(codecs)
        assert [u.name for u in users] == [f"follow@{c.name}" for c in codecs]


class TestAuthenticatingUser:
    def test_sends_auth_first(self):
        inner = AdvisorFollowingUser(IdentityCodec())
        user = AuthenticatingUser("101", inner)
        rng = random.Random(0)
        state = user.initial_state(rng)
        _, out = user.step(state, UserInbox(), rng)
        assert out.to_server == "AUTH:101"

    def test_unlocks_and_follows(self):
        user = AuthenticatingUser("101", AdvisorFollowingUser(IdentityCodec()))
        server = PasswordServer("101", AdvisorServer(LAW))
        result = run_execution(user, server, GOAL.world, max_rounds=400, seed=1)
        assert GOAL.evaluate(result).achieved

    def test_wrong_password_fails(self):
        user = AuthenticatingUser("100", AdvisorFollowingUser(IdentityCodec()))
        server = PasswordServer("101", AdvisorServer(LAW))
        result = run_execution(user, server, GOAL.world, max_rounds=400, seed=1)
        assert not GOAL.evaluate(result).achieved

    def test_empty_password_rejected(self):
        with pytest.raises(ValueError):
            AuthenticatingUser("", AdvisorFollowingUser(IdentityCodec()))

    def test_full_recording_keeps_each_rounds_state(self):
        """The auth state is a value: no round's record aliases a later one."""
        stepper = ExecutionStepper(
            AuthenticatingUser("101", AdvisorFollowingUser(IdentityCodec())),
            PasswordServer("101", AdvisorServer(LAW)),
            GOAL.world, max_rounds=3, seed=0,
        )
        snapshots = [copy.deepcopy(stepper.user_state)]
        while stepper.live:
            stepper.step_many(1)
            snapshots.append(copy.deepcopy(stepper.user_state))
        result = stepper.finish()
        assert not result.user_view[0].state_before.sent_auth
        assert all(v.state_before is not v.state_after for v in result.user_view)
        assert [r.user_state_after for r in result.rounds] == snapshots[1:]
        assert [v.state_before for v in result.user_view] == snapshots[:-1]
        assert [v.state_after for v in result.user_view] == snapshots[1:]

    def test_inner_user_starts_on_the_round_after_auth(self):
        """The inner initial state is drawn then, from that round's RNG."""
        user = AuthenticatingUser("1", CoinStateUser())
        rng = random.Random(5)
        state = user.initial_state(rng)
        state, _ = user.step(state, UserInbox(), rng)  # the auth round
        assert not state.inner_started
        state, _ = user.step(state, UserInbox(), rng)
        assert state.inner_started
        assert state.inner_state == random.Random(5).random()

    def test_class_builder_makes_fresh_inners(self):
        users = password_user_class(
            ["00", "01"], lambda: AdvisorFollowingUser(IdentityCodec())
        )
        assert len(users) == 2
        assert users[0]._inner is not users[1]._inner
