"""Tests for channel delivery semantics.

The six directed channels are the stepper's in-flight messages: what a
party sends in round *t* is read by its counterpart in round *t+1*, and
each round's outboxes replace every in-flight message wholesale.
"""

from __future__ import annotations

import random
from typing import Sequence, Tuple

from repro.comm.channels import Roles
from repro.comm.messages import (
    SILENCE,
    ServerInbox,
    ServerOutbox,
    UserInbox,
    UserOutbox,
    WorldInbox,
    WorldOutbox,
)
from repro.core.execution import ExecutionStepper, run_execution
from repro.core.strategy import ServerStrategy, UserStrategy, WorldStrategy

_IN_FLIGHT = (
    "user_to_server", "user_to_world", "server_to_user",
    "server_to_world", "world_to_user", "world_to_server",
)


class _ScriptedUser(UserStrategy):
    def __init__(self, script: Sequence[UserOutbox]) -> None:
        self._script = tuple(script)

    def initial_state(self, rng: random.Random) -> int:
        return 0

    def step(
        self, state: int, inbox: UserInbox, rng: random.Random
    ) -> Tuple[int, UserOutbox]:
        out = self._script[state] if state < len(self._script) else UserOutbox()
        return state + 1, out


class _ScriptedServer(ServerStrategy):
    def __init__(self, script: Sequence[ServerOutbox]) -> None:
        self._script = tuple(script)

    def initial_state(self, rng: random.Random) -> int:
        return 0

    def step(
        self, state: int, inbox: ServerInbox, rng: random.Random
    ) -> Tuple[int, ServerOutbox]:
        out = self._script[state] if state < len(self._script) else ServerOutbox()
        return state + 1, out


class _ScriptedWorld(WorldStrategy):
    def __init__(self, script: Sequence[WorldOutbox]) -> None:
        self._script = tuple(script)

    def initial_state(self, rng: random.Random) -> int:
        return 0

    def step(
        self, state: int, inbox: WorldInbox, rng: random.Random
    ) -> Tuple[int, WorldOutbox]:
        out = self._script[state] if state < len(self._script) else WorldOutbox()
        return state + 1, out


def _run(user_script, server_script=(), world_script=(), rounds=3):
    return run_execution(
        _ScriptedUser(user_script), _ScriptedServer(server_script),
        _ScriptedWorld(world_script), max_rounds=rounds, seed=0,
    )


class TestDelivery:
    def test_starts_silent(self):
        stepper = ExecutionStepper(
            _ScriptedUser([]), _ScriptedServer([]), _ScriptedWorld([]),
            max_rounds=1,
        )
        assert [getattr(stepper, name) for name in _IN_FLIGHT] == [SILENCE] * 6
        first = _run([UserOutbox(to_server="x")], rounds=1).rounds[0]
        assert first.user_inbox.is_silent()
        assert first.server_inbox.is_silent()
        assert first.world_inbox == WorldInbox()

    def test_deliver_routes_all_six_channels(self):
        result = _run(
            [UserOutbox(to_server="u2s", to_world="u2w")],
            [ServerOutbox(to_user="s2u", to_world="s2w")],
            [WorldOutbox(to_user="w2u", to_server="w2s")],
            rounds=2,
        )
        sent, read = result.rounds
        # Sent at round 0, nothing read yet; read at round 1.
        assert sent.server_inbox.is_silent() and sent.user_inbox.is_silent()
        assert read.server_inbox == ServerInbox(from_user="u2s", from_world="w2s")
        assert read.world_inbox == WorldInbox(from_user="u2w", from_server="s2w")
        assert read.user_inbox == UserInbox(from_server="s2u", from_world="w2u")

    def test_deliver_overwrites_not_buffers(self):
        result = _run([UserOutbox(to_server="first"), UserOutbox()], rounds=3)
        assert [r.server_inbox.from_user for r in result.rounds] == [
            SILENCE, "first", SILENCE,
        ]

    def test_in_flight_messages_persist_between_slices(self):
        script = [UserOutbox(to_server=f"m{t}", to_world=f"w{t}") for t in range(4)]
        stepper = ExecutionStepper(
            _ScriptedUser(script), _ScriptedServer([]), _ScriptedWorld([]),
            max_rounds=4,
        )
        for t in range(4):
            stepper.step_many(1)
            assert stepper.user_to_server == f"m{t}"
            assert stepper.user_to_world == f"w{t}"
        reads = [r.server_inbox.from_user for r in stepper.finish().rounds]
        assert reads == [SILENCE, "m0", "m1", "m2"]


class TestRoles:
    def test_roles_constants(self):
        assert set(Roles.ALL) == {Roles.USER, Roles.SERVER, Roles.WORLD}
