"""Unit tests for the multi-session delegation wrapper's parsing and races."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.comm.codecs import IdentityCodec
from repro.comm.messages import UserInbox
from repro.mathx.modular import Field
from repro.qbf.generators import random_qbf
from repro.users.delegation_users import RepeatedDelegationUser

F = Field()
QBF_WIRE = random_qbf(random.Random(1), 2).serialize()


class TestParseWorld:
    def test_well_formed(self):
        session, instance = RepeatedDelegationUser._parse_world(
            f"INSTANCE:7:{QBF_WIRE};FB:ok"
        )
        assert session == "7"
        assert instance == QBF_WIRE

    def test_instance_colons_preserved(self):
        _, instance = RepeatedDelegationUser._parse_world(
            f"INSTANCE:0:{QBF_WIRE};FB:none"
        )
        assert ":" in instance  # The QBF wire form itself contains colons.

    @pytest.mark.parametrize(
        "bad",
        ["", "garbage", "INSTANCE:", "INSTANCE:5", "OTHER:1:x;FB:ok", "INSTANCE::x"],
    )
    def test_malformed_rejected(self, bad):
        assert RepeatedDelegationUser._parse_world(bad) == (None, None)


class TestSessionDiscipline:
    def _user(self):
        return RepeatedDelegationUser(IdentityCodec(), F)

    def test_new_session_restarts_inner(self):
        user = self._user()
        rng = random.Random(0)
        state = user.initial_state(rng)
        state, out = user.step(
            state, UserInbox(from_world=f"INSTANCE:0:{QBF_WIRE};FB:none"), rng
        )
        assert out.to_server.startswith("PROVE:")
        first_inner = state.inner
        state, out = user.step(
            state, UserInbox(from_world=f"INSTANCE:1:{QBF_WIRE};FB:none"), rng
        )
        assert state.inner is not first_inner
        assert out.to_server.startswith("PROVE:")

    def test_same_session_does_not_restart(self):
        user = self._user()
        rng = random.Random(0)
        state = user.initial_state(rng)
        state, _ = user.step(
            state, UserInbox(from_world=f"INSTANCE:0:{QBF_WIRE};FB:none"), rng
        )
        inner = state.inner
        state, out = user.step(
            state, UserInbox(from_world=f"INSTANCE:0:{QBF_WIRE};FB:none"), rng
        )
        # The same proof, one idle round on (states are values, so compare).
        assert state.inner == dataclasses.replace(inner, rounds_waiting=1)
        assert not out.to_server.startswith("PROVE:")  # No re-open mid-proof.

    def test_done_flag_suppresses_stale_reverification(self):
        """After answering, announcements of the same session are ignored."""
        user = self._user()
        rng = random.Random(0)
        state = user.initial_state(rng)
        state, _ = user.step(
            state, UserInbox(from_world=f"INSTANCE:0:{QBF_WIRE};FB:none"), rng
        )
        state = dataclasses.replace(state, done_with_session=True)  # As a completed proof sets it.
        state, out = user.step(
            state, UserInbox(from_world=f"INSTANCE:0:{QBF_WIRE};FB:none"), rng
        )
        assert out.to_server == ""
        assert out.to_world == ""
