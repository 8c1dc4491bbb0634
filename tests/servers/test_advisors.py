"""Tests for advisor servers."""

from __future__ import annotations

import random

import pytest

from repro.comm.codecs import ReverseCodec, codec_family
from repro.comm.messages import SILENCE, ServerInbox, parse_tagged
from repro.faults.channel import garble
from repro.servers.advisors import (
    AdvisorServer,
    MisleadingAdvisorServer,
    advisor_server_class,
)

LAW = {"red": "blue", "blue": "green", "green": "red"}


def advise(server, from_world, seed=0):
    rng = random.Random(seed)
    state = server.initial_state(rng)
    _, out = server.step(state, ServerInbox(from_world=from_world), rng)
    return out.to_user


class TestAdvisorServer:
    def test_advises_law_action_with_attribution(self):
        assert advise(AdvisorServer(LAW), "OBS:red") == "ADV:red=blue"

    def test_silent_without_observation(self):
        assert advise(AdvisorServer(LAW), "") == ""
        assert advise(AdvisorServer(LAW), "OBS:-") == ""

    def test_silent_on_foreign_symbol(self):
        assert advise(AdvisorServer(LAW), "OBS:purple") == ""

    def test_ignores_non_obs_world_messages(self):
        assert advise(AdvisorServer(LAW), "WEATHER:rainy") == ""

    def test_empty_law_rejected(self):
        with pytest.raises(ValueError):
            AdvisorServer({})


class TestMisleadingAdvisor:
    def test_always_advises_wrong_action(self):
        for observation, correct in LAW.items():
            advice = advise(MisleadingAdvisorServer(LAW), f"OBS:{observation}")
            _, _, payload = advice.partition(":")
            obs, _, action = payload.partition("=")
            assert obs == observation
            assert action != correct

    def test_needs_multiple_actions(self):
        with pytest.raises(ValueError):
            MisleadingAdvisorServer({"a": "x", "b": "x"})


class TestAdvisorClass:
    def test_one_server_per_codec(self):
        codecs = codec_family(5)
        servers = advisor_server_class(LAW, codecs)
        assert len(servers) == 5
        assert [s.codec.name for s in servers] == [c.name for c in codecs]

    def test_members_speak_their_codec(self):
        codecs = codec_family(3)
        servers = advisor_server_class(LAW, codecs)
        for server, codec in zip(servers, codecs):
            wire = advise(server, "OBS:red")
            assert codec.decode(wire) == "ADV:red=blue"


def _parse_tagged_advice(law, message):
    """The advisor's reply as the tag parser derives it, step by step."""
    parsed = parse_tagged(message)
    if parsed is None or parsed[0] != "OBS":
        return SILENCE
    action = law.get(parsed[1])
    if action is None:
        return SILENCE
    return f"ADV:{parsed[1]}={action}"


class TestAdviceTable:
    def test_table_matches_the_tag_parser(self):
        corpus = [f"OBS:{symbol}" for symbol in LAW]
        corpus += ["OBS:-", "OBS:", "OBS:red=x", "XOBS:red", "", "OBS:purple"]
        corpus += [garble("OBS:red", salt=3), ReverseCodec().encode("OBS:blue")]
        server = AdvisorServer(LAW)
        for message in corpus:
            assert advise(server, message) == _parse_tagged_advice(LAW, message), message

    def test_state_counts_rounds_and_no_advice_is_silent(self):
        server = AdvisorServer(LAW)
        rng = random.Random(0)
        state, out = server.step(5, ServerInbox(from_world="OBS:-"), rng)
        assert state == 6 and out.to_user == "" and out.to_world == ""
