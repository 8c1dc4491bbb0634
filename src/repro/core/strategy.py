"""Strategies: the paper's model of communicating entities.

Section 2 of the paper describes each party by a *strategy* that maps an
internal state and an incoming message profile to (a distribution over) a
new state and an outgoing message profile.  :class:`Strategy` is the direct
transliteration: ``step(state, inbox, rng) -> (state, outbox)``, where the
``rng`` argument carries the randomness (a strategy that ignores it is
deterministic).

Role-specific subclasses (:class:`UserStrategy`, :class:`ServerStrategy`,
:class:`WorldStrategy`) fix the inbox/outbox types; the synchronous engine
in :mod:`repro.core.execution` drives one of each.

Design notes
------------
* States are opaque to the engine.  Strategies may use any hashable or
  non-hashable value; the engine only threads them through.  Immutable
  states (tuples, frozen dataclasses) are strongly encouraged — the
  universal users *simulate* inner strategies and rely on states not being
  mutated behind their back.
* ``initial_state(rng)`` performs the probabilistic part of initialisation.
  A traced run calls the user's ``initial_traced_state(rng, tracer)``
  instead, so a tracer reaches a user through its state, never its object.
  The paper's *non-deterministic* choice (footnote 2: "the world makes a
  single non-deterministic choice of a standard probabilistic strategy") is
  modelled one level up: experiments quantify over a *class* of world
  strategies (see :class:`repro.core.goals.Goal`), and likewise the
  adversarial choice of server is a quantification over a server class.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Tuple

from repro.comm.messages import (
    ServerInbox,
    ServerOutbox,
    UserInbox,
    UserOutbox,
    WorldInbox,
    WorldOutbox,
)

if TYPE_CHECKING:
    from repro.obs.tracer import TracerLike

State = Any


class Strategy:
    """Abstract strategy: ``(state, inbox, rng) -> (state, outbox)``."""

    def initial_state(self, rng: random.Random) -> State:
        """Draw the strategy's initial internal state."""
        raise NotImplementedError

    def step(self, state: State, inbox: Any, rng: random.Random) -> Tuple[State, Any]:
        """Consume one inbox; return the new state and this round's outbox."""
        raise NotImplementedError

    @property
    def name(self) -> str:
        """Identifier used in experiment tables; defaults to the class name."""
        return type(self).__name__

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class UserStrategy(Strategy):
    """A strategy playing the *user* role.

    ``step`` receives a :class:`~repro.comm.messages.UserInbox` and must
    return a :class:`~repro.comm.messages.UserOutbox`.  Setting
    ``outbox.halt`` ends the execution (finite goals); ``outbox.output``
    carries the final result the referee will inspect.
    """

    def initial_traced_state(self, rng: random.Random, tracer: "TracerLike") -> State:
        """The initial state of a run traced by ``tracer``, which the engine
        asks for instead of :meth:`initial_state` only when tracing.

        A user that emits events overrides it to keep ``tracer`` in its
        state, out of equality and ``repr`` (``None``: untraced, equal to
        :meth:`initial_state`'s).  The default drops the tracer.
        """
        return self.initial_state(rng)

    def step(
        self, state: State, inbox: UserInbox, rng: random.Random
    ) -> Tuple[State, UserOutbox]:
        raise NotImplementedError


class ServerStrategy(Strategy):
    """A strategy playing the *server* role."""

    def step(
        self, state: State, inbox: ServerInbox, rng: random.Random
    ) -> Tuple[State, ServerOutbox]:
        raise NotImplementedError


class WorldStrategy(Strategy):
    """A strategy playing the *world* role.

    The world is the third entity of the model — "a hypothetical referee,
    the rest of the system, or the environment" — whose state sequence
    *defines* goal achievement.  The engine therefore records every world
    state; world strategies should keep states cheap to copy and compare.
    """

    def step(
        self, state: State, inbox: WorldInbox, rng: random.Random
    ) -> Tuple[State, WorldOutbox]:
        raise NotImplementedError


class StatelessUser(UserStrategy):
    """Helper base for users whose behaviour depends only on the inbox.

    Subclasses override :meth:`react`; the state is a round counter, which
    is enough for simple scripted behaviours and keeps tests terse.
    """

    def initial_state(self, rng: random.Random) -> int:
        return 0

    def step(
        self, state: int, inbox: UserInbox, rng: random.Random
    ) -> Tuple[int, UserOutbox]:
        return state + 1, self.react(state, inbox, rng)

    def react(self, round_index: int, inbox: UserInbox, rng: random.Random) -> UserOutbox:
        """Produce this round's outbox from the round number and inbox."""
        raise NotImplementedError


class SilentUser(StatelessUser):
    """A user that never says anything and never halts (a useful null case)."""

    def react(self, round_index: int, inbox: UserInbox, rng: random.Random) -> UserOutbox:
        return UserOutbox()


class SilentServer(ServerStrategy):
    """A server that never says anything (the unhelpful extreme)."""

    def initial_state(self, rng: random.Random) -> int:
        return 0

    def step(
        self, state: int, inbox: ServerInbox, rng: random.Random
    ) -> Tuple[int, ServerOutbox]:
        return state + 1, ServerOutbox()
