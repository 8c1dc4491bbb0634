"""Tests for message profiles and the TAG:payload convention."""

from __future__ import annotations

import pickle

import pytest

from repro.comm.messages import (
    SILENCE,
    ServerInbox,
    ServerOutbox,
    UserInbox,
    UserOutbox,
    WorldInbox,
    WorldOutbox,
    parse_tagged,
    tagged,
)


class TestSilence:
    def test_silence_is_empty_string(self):
        assert SILENCE == ""

    def test_user_inbox_silent_by_default(self):
        assert UserInbox().is_silent()

    def test_user_inbox_not_silent_with_server_message(self):
        assert not UserInbox(from_server="hi").is_silent()

    def test_user_inbox_not_silent_with_world_message(self):
        assert not UserInbox(from_world="hi").is_silent()

    def test_server_inbox_silent_flags(self):
        assert ServerInbox().is_silent()
        assert not ServerInbox(from_user="x").is_silent()

    def test_world_inbox_silent_flags(self):
        assert WorldInbox().is_silent()
        assert not WorldInbox(from_server="x").is_silent()


class TestUserOutbox:
    def test_defaults(self):
        out = UserOutbox()
        assert out.to_server == SILENCE
        assert out.to_world == SILENCE
        assert not out.halt
        assert out.output is None

    def test_halt_with_output(self):
        out = UserOutbox(halt=True, output="done")
        assert out.halt
        assert out.output == "done"

    def test_outbox_is_immutable(self):
        out = UserOutbox()
        with pytest.raises(AttributeError):
            out.halt = True  # type: ignore[misc]


class TestTagged:
    def test_round_trip(self):
        assert parse_tagged(tagged("PRINT", "hello")) == ("PRINT", "hello")

    def test_empty_payload(self):
        assert tagged("ACK") == "ACK:"
        assert parse_tagged("ACK:") == ("ACK", "")

    def test_payload_may_contain_colons(self):
        tag, payload = parse_tagged("POLY:0:1,2,3")
        assert tag == "POLY"
        assert payload == "0:1,2,3"

    def test_tag_with_colon_rejected(self):
        with pytest.raises(ValueError):
            tagged("A:B", "x")

    def test_parse_untagged_returns_none(self):
        assert parse_tagged("no colon here") is None

    def test_parse_empty_returns_none(self):
        assert parse_tagged("") is None


# -- Value-type contract ---------------------------------------------------
#
# Profiles are NamedTuples for speed; they must still behave like the
# frozen dataclasses they replaced.

PROFILES = [
    (UserInbox("a", "b"), "UserInbox(from_server='a', from_world='b')"),
    (
        UserOutbox("a", "b", True, "done"),
        "UserOutbox(to_server='a', to_world='b', halt=True, output='done')",
    ),
    (ServerInbox("a", "b"), "ServerInbox(from_user='a', from_world='b')"),
    (ServerOutbox("a", "b"), "ServerOutbox(to_user='a', to_world='b')"),
    (WorldInbox("a", "b"), "WorldInbox(from_user='a', from_server='b')"),
    (WorldOutbox("a", "b"), "WorldOutbox(to_user='a', to_server='b')"),
]


@pytest.mark.parametrize(
    "profile, text", PROFILES, ids=[type(p).__name__ for p, _ in PROFILES]
)
class TestProfileContract:
    def test_assignment_raises(self, profile, text):
        field = type(profile)._fields[0]
        with pytest.raises(AttributeError):
            setattr(profile, field, "x")
        with pytest.raises(AttributeError):
            profile.extra = "x"  # type: ignore[attr-defined]

    def test_equal_values_equal_and_hash_equal(self, profile, text):
        twin = type(profile)(*profile)
        assert twin == profile
        assert not twin != profile
        assert hash(twin) == hash(profile)
        assert len({twin, profile}) == 1

    def test_never_equals_bare_tuple(self, profile, text):
        bare = tuple(profile)
        assert profile != bare
        assert bare != profile
        assert not profile == bare
        assert not bare == profile

    def test_never_equals_other_profile_type(self, profile, text):
        for other, _ in PROFILES:
            if type(other) is not type(profile):
                assert profile != other
                assert not profile == other

    def test_pickle_round_trip(self, profile, text):
        clone = pickle.loads(pickle.dumps(profile))
        assert type(clone) is type(profile)
        assert clone == profile

    def test_repr_matches_dataclass_form(self, profile, text):
        assert repr(profile) == text


def test_repr_shows_default_fields():
    assert repr(UserInbox(from_server="a")) == "UserInbox(from_server='a', from_world='')"


def test_differing_fields_unequal():
    assert UserOutbox(to_world="x") != UserOutbox(to_world="y")
    assert UserOutbox(halt=True) != UserOutbox()
