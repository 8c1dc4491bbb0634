"""Control users: follow the advisor through a codec guess.

:class:`AdvisorFollowingUser` decodes the server's advice with one fixed
codec and relays the named action to the world.  With the right codec its
actions are always correct; with a wrong one the decoded "advice" is
garbage (or a wrong-but-well-formed action), it acts wrongly or not at all,
the world scores mistakes, and the compact universal user's sensing evicts
it — the enumerate-and-switch dynamics of Theorem 1's compact case in its
simplest incarnation.

:class:`AuthenticatingUser` prepends a password guess (for the
password-locked server class of the lower-bound experiment E3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.comm.codecs import Codec
from repro.comm.messages import SILENCE, UserInbox, UserOutbox, parse_tagged
from repro.core.strategy import UserStrategy
from repro.errors import CodecError


#: The outbox of a round without action, shared rather than rebuilt.
_NO_ACTION = UserOutbox()


@dataclass
class _FollowerState:
    rounds: int = 0


class AdvisorFollowingUser(UserStrategy):
    """Acts on each piece of advice, decoded via one codec guess.

    Advice that does not decode to ``ADV:<action>`` is ignored — acting on
    garbage would only add mistakes, and silence is already penalised by
    the world's deadline, so "don't understand, don't act" is the right
    policy for a candidate that is going to be evicted anyway.
    """

    def __init__(self, codec: Codec) -> None:
        self._codec = codec

    @property
    def name(self) -> str:
        return f"follow@{self._codec.name}"

    def initial_state(self, rng: random.Random) -> _FollowerState:
        return _FollowerState()

    def step(
        self, state: _FollowerState, inbox: UserInbox, rng: random.Random
    ) -> Tuple[_FollowerState, UserOutbox]:
        state.rounds += 1
        advice = self._decode_advice(inbox.from_server)
        if advice is None:
            return state, _NO_ACTION
        observation, action = advice
        return state, UserOutbox(to_world=f"ACT:{observation}={action}")

    def _decode_advice(self, message: str) -> Optional[Tuple[str, str]]:
        if message == SILENCE:
            return None
        try:
            decoded = self._codec.decode(message)
        except CodecError:
            return None
        parsed = parse_tagged(decoded)
        if parsed is None or parsed[0] != "ADV":
            return None
        observation, sep, action = parsed[1].partition("=")
        if not sep or not observation or not action:
            return None
        return observation, action


def follower_user_class(codecs: Sequence[Codec]) -> List[AdvisorFollowingUser]:
    """One follower per codec guess, in enumeration order (E1/E4's class)."""
    return [AdvisorFollowingUser(codec) for codec in codecs]


@dataclass
class _AuthState:
    sent_auth: bool = False
    inner_state: Any = None
    inner_started: bool = False


class AuthenticatingUser(UserStrategy):
    """Sends ``AUTH:<password>`` once, then behaves as the inner user.

    The candidate class ``{AuthenticatingUser(pw, follower)}`` over all
    k-bit passwords is the user side of the lower-bound experiment: exactly
    one member unlocks a given :class:`~repro.servers.password.PasswordServer`,
    and nothing observable distinguishes the others' failures from each
    other — which is *why* enumeration cost is unavoidable there.
    """

    def __init__(self, password: str, inner: UserStrategy) -> None:
        if not password:
            raise ValueError("password must be non-empty")
        self._password = password
        self._inner = inner

    @property
    def name(self) -> str:
        return f"auth[{self._password}]+{self._inner.name}"

    def initial_state(self, rng: random.Random) -> _AuthState:
        return _AuthState()

    def step(
        self, state: _AuthState, inbox: UserInbox, rng: random.Random
    ) -> Tuple[_AuthState, UserOutbox]:
        if not state.sent_auth:
            state.sent_auth = True
            return state, UserOutbox(to_server=f"AUTH:{self._password}")
        if not state.inner_started:
            state.inner_state = self._inner.initial_state(rng)
            state.inner_started = True
        state.inner_state, outbox = self._inner.step(state.inner_state, inbox, rng)
        return state, outbox


def password_user_class(
    passwords: Sequence[str], inner_factory
) -> List[AuthenticatingUser]:
    """One authenticating candidate per password, in the given order.

    ``inner_factory`` builds a fresh inner user per candidate (candidates
    must not share mutable strategy objects).
    """
    return [AuthenticatingUser(pw, inner_factory()) for pw in passwords]
