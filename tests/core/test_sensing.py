"""Tests for sensing combinators."""

from __future__ import annotations

import pytest

from repro.comm.messages import UserInbox, UserOutbox
from repro.core.sensing import (
    AllOfSensing,
    AnyOfSensing,
    ConstantSensing,
    GraceSensing,
    LastWorldMessageSensing,
    NoRecentProgressSensing,
)
from repro.core.views import UserView, ViewRecord


def view_from_world_messages(messages):
    view = UserView()
    for i, message in enumerate(messages):
        view.append(
            ViewRecord(
                round_index=i,
                state_before=i,
                inbox=UserInbox(from_world=message),
                outbox=UserOutbox(),
                state_after=i + 1,
            )
        )
    return view


class TestConstant:
    def test_values(self):
        view = view_from_world_messages([])
        assert ConstantSensing(True).indicate(view)
        assert not ConstantSensing(False).indicate(view)

    def test_names(self):
        assert ConstantSensing(True).name == "always-positive"
        assert ConstantSensing(False).name == "always-negative"


class TestNegation:
    def test_negate(self):
        view = view_from_world_messages([])
        assert not ConstantSensing(True).negate().indicate(view)
        assert "not(" in ConstantSensing(True).negate().name


class TestLastWorldMessage:
    def test_judges_latest_nonsilent(self):
        sensing = LastWorldMessageSensing(predicate=lambda m: m == "good")
        assert sensing.indicate(view_from_world_messages(["bad", "good"]))
        assert not sensing.indicate(view_from_world_messages(["good", "bad"]))

    def test_silence_skipped(self):
        sensing = LastWorldMessageSensing(predicate=lambda m: m == "good")
        assert sensing.indicate(view_from_world_messages(["good", "", ""]))

    def test_default_before_any_message(self):
        positive = LastWorldMessageSensing(predicate=lambda m: False, default=True)
        negative = LastWorldMessageSensing(predicate=lambda m: True, default=False)
        empty = view_from_world_messages(["", ""])
        assert positive.indicate(empty)
        assert not negative.indicate(empty)


class TestGrace:
    def test_positive_during_grace(self):
        sensing = GraceSensing(ConstantSensing(False), grace_rounds=3)
        assert sensing.indicate(view_from_world_messages(["x"]))
        assert sensing.indicate(view_from_world_messages(["x"] * 3))

    def test_inner_applies_after_grace(self):
        sensing = GraceSensing(ConstantSensing(False), grace_rounds=3)
        assert not sensing.indicate(view_from_world_messages(["x"] * 4))

    def test_negative_grace_rejected(self):
        with pytest.raises(ValueError):
            GraceSensing(ConstantSensing(True), grace_rounds=-1)


class TestBooleanCombinators:
    def test_all_of(self):
        view = view_from_world_messages(["m"])
        assert AllOfSensing((ConstantSensing(True), ConstantSensing(True))).indicate(view)
        assert not AllOfSensing((ConstantSensing(True), ConstantSensing(False))).indicate(view)

    def test_any_of(self):
        view = view_from_world_messages(["m"])
        assert AnyOfSensing((ConstantSensing(False), ConstantSensing(True))).indicate(view)
        assert not AnyOfSensing((ConstantSensing(False),)).indicate(view)


class TestNoRecentProgress:
    def test_positive_while_young(self):
        sensing = NoRecentProgressSensing(stall_rounds=4)
        assert sensing.indicate(view_from_world_messages(["", ""]))

    def test_negative_after_long_silence(self):
        sensing = NoRecentProgressSensing(stall_rounds=4)
        assert not sensing.indicate(view_from_world_messages([""] * 6))

    def test_positive_with_recent_chatter(self):
        sensing = NoRecentProgressSensing(stall_rounds=4)
        assert sensing.indicate(view_from_world_messages([""] * 5 + ["news"]))

    @pytest.mark.parametrize("stall_rounds", [0, -1])
    def test_nonpositive_stall_rejected(self, stall_rounds):
        with pytest.raises(ValueError):
            NoRecentProgressSensing(stall_rounds=stall_rounds)
