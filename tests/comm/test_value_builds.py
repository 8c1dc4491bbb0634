"""Arity guard for the positional value builds on the hot per-round paths.

The party steps of the sweep cast build their NamedTuple values with
``tuple.__new__(Cls, (...))`` (see :mod:`repro.comm.messages`), which
checks neither the field count nor the order.  Each value a rewritten step
returns must be of exactly its class, hold one item per declared field, and
equal the same value built by keyword — so a field added, dropped or
reordered in a value type fails here rather than shifting every field.
"""

from __future__ import annotations

import random
from typing import Any, List, Tuple

import pytest

from repro.comm.codecs import IdentityCodec, PrefixCodec, ReverseCodec
from repro.comm.messages import (
    ServerInbox,
    ServerOutbox,
    UserInbox,
    UserOutbox,
    WorldInbox,
)
from repro.core.sensing import IncrementalSensing
from repro.core.strategy import ServerStrategy
from repro.core.views import ViewRecord
from repro.servers.advisors import AdvisorServer
from repro.servers.wrappers import EncodedServer
from repro.universal.trial import Trial
from repro.users.control_users import AdvisorFollowingUser
from repro.worlds.control import (
    EVENT_BAD,
    EVENT_NONE,
    EVENT_OK,
    ControlState,
    ControlWorld,
)

LAW = {"red": "blue", "blue": "red"}


def assert_built(value: Any, expected: Any) -> None:
    """``value`` is exactly ``expected``'s class, full arity, and equal."""
    cls = type(expected)
    assert type(value) is cls
    assert len(value) == len(cls._fields)
    assert value == expected


# -- ControlWorld.step -------------------------------------------------------

WORLD_CASES = [
    # (message from the user, scored, mistakes, event)
    ("ACT:red=blue", 1, 0, EVENT_OK),
    ("ACT:red=red", 1, 1, EVENT_BAD),
    ("", 0, 0, EVENT_NONE),
    ("ACT", 0, 0, EVENT_NONE),
    ("ACT:", 0, 0, EVENT_NONE),
    ("ACT:red", 0, 0, EVENT_NONE),
    ("ACT:blue=red", 0, 0, EVENT_NONE),  # no such observation pending
    ("XACT:red=blue", 0, 0, EVENT_NONE),
    ("garbage", 0, 0, EVENT_NONE),
]


@pytest.mark.parametrize("message, scored, mistakes, event", WORLD_CASES)
def test_control_world_state(message, scored, mistakes, event):
    # A long observation period: round 5 draws no new observation.
    world = ControlWorld(LAW, obs_period=1000, deadline=8)
    state = ControlState(round_index=5, pending=(("red", 3),))
    new_state, _ = world.step(
        state, WorldInbox(from_user=message), random.Random(0)
    )
    pending = () if scored else (("red", 3),)
    assert_built(
        new_state,
        ControlState(
            round_index=6, pending=pending, scored=scored,
            mistakes=mistakes, last_event=event,
        ),
    )


def test_control_world_state_on_a_draw_and_a_deadline():
    world = ControlWorld(LAW, obs_period=4, deadline=8)
    state = ControlState(round_index=8, pending=(("blue", 0),))
    rng = random.Random(3)
    expected_symbol = ("blue", "red")[random.Random(3).randrange(2)]
    new_state, _ = world.step(state, WorldInbox(), rng)
    assert_built(
        new_state,
        ControlState(
            round_index=9, pending=((expected_symbol, 8),), scored=1,
            mistakes=1, last_event=EVENT_BAD,
        ),
    )


# -- EncodedServer.step ------------------------------------------------------


class SpyServer(ServerStrategy):
    """Answers with a fixed outbox; its state is the last inbox it read."""

    def __init__(self, outbox: ServerOutbox) -> None:
        self._outbox = outbox

    @property
    def name(self) -> str:
        return "spy"

    def initial_state(self, rng: random.Random) -> None:
        return None

    def step(
        self, state: object, inbox: ServerInbox, rng: random.Random
    ) -> Tuple[ServerInbox, ServerOutbox]:
        return inbox, self._outbox


def test_encoded_server_inbox_and_outbox():
    codec = ReverseCodec()
    server = EncodedServer(
        SpyServer(ServerOutbox(to_user="ADV:red=blue", to_world="w")), codec
    )
    inbox = ServerInbox(from_user=codec.encode("hello"), from_world="OBS:red")
    seen, outbox = server.step(None, inbox, random.Random(0))
    assert_built(seen, ServerInbox(from_user="hello", from_world="OBS:red"))
    assert_built(
        outbox, ServerOutbox(to_user=codec.encode("ADV:red=blue"), to_world="w")
    )


def test_encoded_advisor_outbox():
    codec = ReverseCodec()
    server = EncodedServer(AdvisorServer(LAW), codec)
    _, outbox = server.step(
        0, ServerInbox(from_world="OBS:red"), random.Random(0)
    )
    assert_built(outbox, ServerOutbox(to_user=codec.encode("ADV:red=blue")))


# -- AdvisorFollowingUser.step -----------------------------------------------

FOLLOWER_CASES = [
    # (advice as the user decodes it, or None for silence; the outbox)
    (None, UserOutbox()),
    ("ADV:red=blue", UserOutbox(to_world="ACT:red=blue")),
    ("OBS:red", UserOutbox()),
    ("garbage", UserOutbox()),
    ("ADV", UserOutbox()),
    ("ADV:", UserOutbox()),
    ("ADV:red", UserOutbox()),
    ("ADV:=blue", UserOutbox()),
    ("ADV:red=", UserOutbox()),
    ("XADV:red=blue", UserOutbox()),
]


@pytest.mark.parametrize("advice, expected", FOLLOWER_CASES)
def test_follower_outbox(advice, expected):
    codec = ReverseCodec()
    user = AdvisorFollowingUser(codec)
    message = "" if advice is None else codec.encode(advice)
    state, outbox = user.step(
        None, UserInbox(from_server=message), random.Random(0)
    )
    assert state is None
    assert_built(outbox, expected)


def test_follower_ignores_undecodable_advice():
    user = AdvisorFollowingUser(PrefixCodec("k:"))
    _, outbox = user.step(
        None, UserInbox(from_server="no prefix ADV:red=blue"), random.Random(0)
    )
    assert_built(outbox, UserOutbox())


# -- Trial.play --------------------------------------------------------------


class SpyMonitor(IncrementalSensing):
    """Records every view record it is fed."""

    empty = True

    def __init__(self) -> None:
        self.records: List[ViewRecord] = []

    def observe(self, record: ViewRecord) -> bool:
        self.records.append(record)
        return True


def test_trial_view_record():
    monitor = SpyMonitor()
    trial = Trial(AdvisorFollowingUser(IdentityCodec()), 0, 0, None, None, monitor)
    inbox = UserInbox(from_server="ADV:red=blue")
    outbox = trial.play(inbox, random.Random(0))
    trial.play(UserInbox(), random.Random(0))
    assert_built(
        monitor.records[0],
        ViewRecord(
            round_index=0, state_before=None, inbox=inbox,
            outbox=outbox, state_after=None,
        ),
    )
    assert_built(
        monitor.records[1],
        ViewRecord(
            round_index=1, state_before=None, inbox=UserInbox(),
            outbox=UserOutbox(), state_after=None,
        ),
    )
