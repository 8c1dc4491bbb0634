"""Scripted and composite user strategies (test and harness utilities).

:class:`ScriptedUser` replays a fixed message script — the workhorse of
engine tests.  :class:`JunkThenUser` runs a junk strategy for a fixed
number of rounds and then hands over to a real one: it realises the
*forgivingness* check ("any finite partial history extends to success") and
the "server started from any initial state" clause of helpfulness, by
materialising an arbitrary prefix before the strategy under test begins.
:class:`BabblingUser` emits pseudo-random noise — the canonical junk.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

from repro.comm.messages import UserInbox, UserOutbox
from repro.core.strategy import UserStrategy


class ScriptedUser(UserStrategy):
    """Plays a fixed sequence of outboxes, then stays silent (or halts).

    ``script`` entries are :class:`UserOutbox` instances; after the script
    runs out the user sends nothing, unless ``halt_after`` is set, in which
    case it halts with the given output right after the script.
    """

    def __init__(
        self,
        script: Sequence[UserOutbox],
        *,
        halt_after: Optional[str] = None,
        label: str = "scripted",
    ) -> None:
        self._script = list(script)
        self._halt_after = halt_after
        self._label = label

    @property
    def name(self) -> str:
        return f"{self._label}[{len(self._script)}]"

    def initial_state(self, rng: random.Random) -> int:
        return 0

    def step(
        self, state: int, inbox: UserInbox, rng: random.Random
    ) -> Tuple[int, UserOutbox]:
        if state < len(self._script):
            return state + 1, self._script[state]
        if state == len(self._script) and self._halt_after is not None:
            return state + 1, UserOutbox(halt=True, output=self._halt_after)
        return state + 1, UserOutbox()


class BabblingUser(UserStrategy):
    """Sends pseudo-random printable junk to both counterparts every round.

    Used as the junk phase of forgivingness checks, and as a stress peer
    for servers (nothing a babbler says may crash anyone).
    """

    _ALPHABET = string.ascii_letters + string.digits + " !?#"

    def __init__(self, message_length: int = 8) -> None:
        if message_length < 1:
            raise ValueError(f"message_length must be >= 1: {message_length}")
        self._length = message_length

    @property
    def name(self) -> str:
        return f"babbler({self._length})"

    def initial_state(self, rng: random.Random) -> int:
        return 0

    def step(
        self, state: int, inbox: UserInbox, rng: random.Random
    ) -> Tuple[int, UserOutbox]:
        def babble() -> str:
            return "".join(rng.choice(self._ALPHABET) for _ in range(self._length))

        return state + 1, UserOutbox(to_server=babble(), to_world=babble())


@dataclass(frozen=True)
class _CompositeState:
    """An immutable value: each round returns a new one, so the engine's
    per-round records never alias a state changed by a later round."""

    rounds: int
    junk_state: Any
    then_state: Any
    then_started: bool


class JunkThenUser(UserStrategy):
    """Runs ``junk`` for ``junk_rounds`` rounds, then switches to ``then``.

    The handover never carries state across: ``then`` starts fresh, exactly
    like a universal user starting a new trial after abandoned ones.  Any
    halt signal emitted by the junk phase is suppressed (junk must not end
    the execution).
    """

    def __init__(
        self, junk: UserStrategy, then: UserStrategy, junk_rounds: int
    ) -> None:
        if junk_rounds < 0:
            raise ValueError(f"junk_rounds must be >= 0: {junk_rounds}")
        self._junk = junk
        self._then = then
        self._junk_rounds = junk_rounds

    @property
    def name(self) -> str:
        return f"junk({self._junk_rounds})+{self._then.name}"

    def initial_state(self, rng: random.Random) -> _CompositeState:
        return _CompositeState(
            rounds=0,
            junk_state=self._junk.initial_state(rng),
            then_state=None,
            then_started=False,
        )

    def step(
        self, state: _CompositeState, inbox: UserInbox, rng: random.Random
    ) -> Tuple[_CompositeState, UserOutbox]:
        rounds = state.rounds + 1
        if rounds <= self._junk_rounds:
            junk_state, outbox = self._junk.step(state.junk_state, inbox, rng)
            if outbox.halt:
                outbox = UserOutbox(to_server=outbox.to_server, to_world=outbox.to_world)
            return _CompositeState(rounds, junk_state, None, False), outbox
        # ``then`` starts on the first round past the junk phase, and draws
        # its initial state from that round's RNG.
        then_state = (
            state.then_state
            if state.then_started
            else self._then.initial_state(rng)
        )
        then_state, outbox = self._then.step(then_state, inbox, rng)
        return _CompositeState(rounds, state.junk_state, then_state, True), outbox
