"""Server wrappers: the mechanism that *creates* language mismatch.

:class:`EncodedServer` wraps any base server in a codec: what the user says
is decoded before the base server sees it, and what the base server says is
encoded before the user sees it.  A class of servers

    ``{ EncodedServer(base, c) : c in codec_family(N) }``

is then a family of equally capable services that merely "speak different
languages" — the paper's incompatibility problem in its purest form.  Only
the user↔server channel is wrapped: the server's interface to the *world*
(printing paper, observing the environment) is physical reality and has no
language to mismatch.

:class:`ResettableServer` documents/enforces the re-entrancy the paper's
helpfulness definition requires ("started from any initial state"): it
restores the base server to a fresh state whenever the user has been silent
for a while, modelling a service that times out stale sessions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Tuple

from repro.comm.codecs import Codec
from repro.comm.messages import SILENCE, ServerInbox, ServerOutbox
from repro.core.strategy import ServerStrategy
from repro.errors import CodecError

# Profiles are built by ``tuple.__new__``: they are NamedTuples, and this
# skips their generated ``__new__``.
_new = tuple.__new__


class EncodedServer(ServerStrategy):
    """A base server heard and speaking through a codec.

    Undecodable user messages (possible only for codecs with a proper
    image, e.g. :class:`~repro.comm.codecs.PrefixCodec`) are delivered to
    the base server as silence — a real service ignores line noise.
    Silence needs no translation, so a silent inbox reaches the base server
    as is, and an outbox with nothing for the user leaves unwrapped.
    """

    def __init__(self, inner: ServerStrategy, codec: Codec) -> None:
        self._inner = inner
        self._codec = codec

    @property
    def name(self) -> str:
        return f"{self._inner.name}@{self._codec.name}"

    @property
    def codec(self) -> Codec:
        return self._codec

    @property
    def inner(self) -> ServerStrategy:
        return self._inner

    def initial_state(self, rng: random.Random) -> Any:
        return self._inner.initial_state(rng)

    def step(
        self, state: Any, inbox: ServerInbox, rng: random.Random
    ) -> Tuple[Any, ServerOutbox]:
        incoming = inbox.from_user
        if incoming != SILENCE:
            try:
                incoming = self._codec.decode(incoming)
            except CodecError:
                incoming = SILENCE
            inbox = _new(ServerInbox, (incoming, inbox.from_world))
        state, outbox = self._inner.step(state, inbox, rng)
        to_user, to_world = outbox
        if to_user == SILENCE:
            return state, outbox
        return state, _new(ServerOutbox, (self._codec.encode(to_user), to_world))


@dataclass
class _ResettableState:
    inner_state: Any
    silent_rounds: int


class ResettableServer(ServerStrategy):
    """Resets its base server after prolonged user silence.

    This makes helpfulness-from-any-state literal for stateful base servers:
    whatever half-finished session a previous (abandoned) user strategy left
    behind, ``idle_reset`` rounds of silence return the server to a clean
    slate, so a fresh candidate faces a fresh server.
    """

    def __init__(self, inner: ServerStrategy, *, idle_reset: int = 16) -> None:
        if idle_reset < 1:
            raise ValueError(f"idle_reset must be >= 1: {idle_reset}")
        self._inner = inner
        self._idle_reset = idle_reset

    @property
    def name(self) -> str:
        return f"resettable({self._inner.name})"

    def initial_state(self, rng: random.Random) -> _ResettableState:
        return _ResettableState(
            inner_state=self._inner.initial_state(rng), silent_rounds=0
        )

    def step(
        self, state: _ResettableState, inbox: ServerInbox, rng: random.Random
    ) -> Tuple[_ResettableState, ServerOutbox]:
        # Never mutate the incoming state: under FULL recording the engine
        # keeps it as the round's ``state_before``, so in-place updates
        # would corrupt the recorded history (before == after aliasing).
        inner_state = state.inner_state
        silent_rounds = state.silent_rounds
        if inbox.from_user == SILENCE:
            silent_rounds += 1
            if silent_rounds >= self._idle_reset:
                # The reset fires on exactly the ``idle_reset``-th
                # consecutive silent round, never one round early.
                inner_state = self._inner.initial_state(rng)
                silent_rounds = 0
        else:
            # Any non-silent user message ends the idle countdown — the
            # session is live again, however far the counter had run.
            silent_rounds = 0
        inner_state, outbox = self._inner.step(inner_state, inbox, rng)
        return (
            _ResettableState(inner_state=inner_state, silent_rounds=silent_rounds),
            outbox,
        )
