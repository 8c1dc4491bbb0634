"""Tests for the control world's scoring mechanics and goal semantics."""

from __future__ import annotations

import random

import pytest

from repro.comm.messages import WorldInbox
from repro.core.execution import run_execution
from repro.core.strategy import SilentServer, SilentUser
from repro.servers.advisors import AdvisorServer
from repro.users.control_users import AdvisorFollowingUser
from repro.comm.codecs import IdentityCodec, ReverseCodec
from repro.worlds.control import (
    ControlState,
    ControlWorld,
    all_permutation_laws,
    control_goal,
    control_sensing,
    random_law,
)

LAW = {"red": "blue", "blue": "red"}


def step_world(world, state, from_user="", seed=0):
    return world.step(state, WorldInbox(from_user=from_user), random.Random(seed))


class TestScoring:
    def test_correct_act_scores_ok(self):
        world = ControlWorld(LAW, obs_period=100, deadline=50)
        state = ControlState(round_index=1, pending=(("red", 0),))
        state, out = step_world(world, state, from_user="ACT:red=blue")
        assert state.last_event == "ok"
        assert state.mistakes == 0
        assert ";FB:ok" in out.to_user

    def test_wrong_act_scores_bad(self):
        world = ControlWorld(LAW, obs_period=100, deadline=50)
        state = ControlState(round_index=1, pending=(("red", 0),))
        state, _ = step_world(world, state, from_user="ACT:red=red")
        assert state.last_event == "bad"
        assert state.mistakes == 1

    def test_act_for_non_pending_obs_ignored(self):
        world = ControlWorld(LAW, obs_period=100, deadline=50)
        state = ControlState(round_index=1, pending=(("red", 0),))
        state, _ = step_world(world, state, from_user="ACT:blue=red")
        assert state.last_event == "none"
        assert state.pending == (("red", 0),)

    def test_act_matches_named_observation_not_fifo_head(self):
        world = ControlWorld(LAW, obs_period=100, deadline=50)
        state = ControlState(round_index=1, pending=(("red", 0), ("blue", 1)))
        state, _ = step_world(world, state, from_user="ACT:blue=red")
        assert state.last_event == "ok"
        assert state.pending == (("red", 0),)

    def test_overdue_observation_scores_bad(self):
        world = ControlWorld(LAW, obs_period=100, deadline=5)
        state = ControlState(round_index=6, pending=(("red", 0),))
        state, _ = step_world(world, state)
        assert state.last_event == "bad"
        assert state.mistakes == 1
        assert state.pending == ()

    def test_malformed_act_ignored(self):
        world = ControlWorld(LAW, obs_period=100, deadline=50)
        state = ControlState(round_index=1, pending=(("red", 0),))
        state, _ = step_world(world, state, from_user="ACT:redblue")
        assert state.last_event == "none"

    def test_observation_issued_on_period(self):
        world = ControlWorld(LAW, obs_period=3, deadline=50)
        state = ControlState(round_index=0)
        state, out = step_world(world, state)
        assert len(state.pending) == 1
        first_obs = state.pending[0][0]
        assert out.to_user.startswith(f"OBS:{first_obs}")
        # Off-period rounds re-announce the pending observation.
        state, out = step_world(world, state)
        assert len(state.pending) == 1
        assert out.to_user.startswith(f"OBS:{first_obs}")

    def test_no_pending_announces_dash(self):
        world = ControlWorld(LAW, obs_period=3, deadline=50)
        state = ControlState(round_index=1)  # Off-period, nothing pending.
        _, out = step_world(world, state)
        assert out.to_user.startswith("OBS:-")

    def test_observation_broadcast_to_server(self):
        world = ControlWorld(LAW, obs_period=1, deadline=50)
        state = ControlState(round_index=0)
        _, out = step_world(world, state)
        assert out.to_server.startswith("OBS:")


class TestValidation:
    def test_empty_law_rejected(self):
        with pytest.raises(ValueError):
            ControlWorld({})

    def test_tight_deadline_rejected(self):
        with pytest.raises(ValueError):
            ControlWorld(LAW, deadline=3)

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            ControlWorld(LAW, obs_period=0)


class TestGoal:
    def test_matched_follower_achieves(self):
        goal = control_goal(LAW)
        user = AdvisorFollowingUser(IdentityCodec())
        server = AdvisorServer(LAW)
        result = run_execution(user, server, goal.world, max_rounds=300, seed=1)
        outcome = goal.evaluate(result)
        assert outcome.achieved
        assert result.final_world_state().mistakes == 0

    def test_silent_user_fails_by_deadline(self):
        goal = control_goal(LAW)
        result = run_execution(
            SilentUser(), SilentServer(), goal.world, max_rounds=300, seed=1
        )
        assert not goal.evaluate(result).achieved
        assert result.final_world_state().mistakes > 0


class TestLawHelpers:
    def test_random_law_is_permutation(self):
        law = random_law(random.Random(0))
        assert sorted(law.keys()) == sorted(law.values())

    def test_all_permutation_laws_count(self):
        laws = all_permutation_laws(("a", "b", "c"))
        assert len(laws) == 6
        assert len({tuple(sorted(law.items())) for law in laws}) == 6


class TestSensing:
    def test_grace_then_feedback(self):
        from repro.comm.messages import UserInbox, UserOutbox
        from repro.core.views import UserView, ViewRecord

        sensing = control_sensing(grace_rounds=2)
        view = UserView()
        for i, fb in enumerate(["bad", "bad", "bad"]):
            view.append(
                ViewRecord(
                    i, i, UserInbox(from_world=f"OBS:-;FB:{fb}"), UserOutbox(), i
                )
            )
        assert not sensing.indicate(view)  # Past grace, last is bad.
        short = UserView(view.records[:2])
        assert sensing.indicate(short)  # Within grace.


class TestAnnouncementTable:
    def test_outboxes_equal_the_formatted_announcement(self):
        """Every outbox equals the f-string form of the state it came with."""
        law = {"red": "blue", "blue": "green", "green": "red"}
        world = ControlWorld(law, obs_period=2, deadline=5)
        events = set()
        # A wrong codec makes mistakes, the right one scores ok: every event.
        for codec in (IdentityCodec(), ReverseCodec()):
            result = run_execution(
                AdvisorFollowingUser(codec), AdvisorServer(law), world,
                max_rounds=120, seed=4,
            )
            for record in result.rounds:
                state = record.world_state_after
                obs = state.pending[0][0] if state.pending else "-"
                assert record.world_outbox.to_user == f"OBS:{obs};FB:{state.last_event}"
                assert record.world_outbox.to_server == f"OBS:{obs}"
                events.add(state.last_event)
        assert events == {"ok", "bad", "none"}
