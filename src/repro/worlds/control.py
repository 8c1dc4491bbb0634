"""The control world — a compact goal with an advisor server.

An infinite-horizon environment in which the user must repeatedly respond
to observations with the *correct* action under a hidden observation→action
law π.  The user cannot know π — but the server does (it is an *advisor*),
and helpful advisors tell the user what to do... each in its own vocabulary
(:mod:`repro.servers.advisors`).  Achieving the goal therefore means
finding how to interpret the advisor: the language-mismatch problem in its
compact-goal form.

Mechanics (all latencies follow from the engine's one-round delivery):

* every ``obs_period`` rounds the world draws an observation, announces it
  to both user (``OBS:<o>;FB:<event>``) and server (``OBS:<o>``), and
  queues it;
* an ``ACT:<a>`` message from the user scores the oldest queued observation
  — correct iff ``a == π(o)``;
* an observation unanswered for ``deadline`` rounds scores as a mistake
  (so silence is not a winning strategy);
* the feedback field reports this round's scoring event: ``ok``, ``bad``
  or ``none``.

The referee is local: a prefix is unacceptable iff its last round scored a
mistake.  "Finitely many unacceptable prefixes" is then exactly "the user
eventually stops making mistakes" — the compact-goal semantics in its most
interpretable form, and the quantity experiment E7 plots.
"""

from __future__ import annotations

import random
from typing import Dict, Mapping, NamedTuple, Sequence, Tuple

from repro.comm.messages import WorldInbox, WorldOutbox, value_type
from repro.core.goals import CompactGoal
from repro.core.referees import LastStateCompactReferee
from repro.core.sensing import GraceSensing, LastWorldMessageSensing, Sensing
from repro.core.strategy import WorldStrategy

#: The default observation/action vocabulary.
DEFAULT_SYMBOLS: Tuple[str, ...] = ("red", "green", "blue", "yellow")

#: Scoring events.
EVENT_OK = "ok"
EVENT_BAD = "bad"
EVENT_NONE = "none"

# States are built by ``tuple.__new__``: ``ControlState`` is a NamedTuple,
# and this skips its generated ``__new__``.
_new = tuple.__new__


@value_type
class ControlState(NamedTuple):
    """World state: queue of unscored observations plus score counters.

    A new state is built every round, so it is a NamedTuple value type like
    the message profiles (see :mod:`repro.comm.messages`).
    """

    round_index: int = 0
    pending: Tuple[Tuple[str, int], ...] = ()  # (observation, issue round)
    scored: int = 0
    mistakes: int = 0
    last_event: str = EVENT_NONE


class ControlWorld(WorldStrategy):
    """The environment enforcing the hidden law π.

    ``law`` maps each observation symbol to its required action.  The world
    draws observations uniformly from ``law``'s keys; the draw order is the
    world's probabilistic component, while the choice of π itself is the
    non-deterministic choice quantified over by experiments (one goal per
    law).
    """

    def __init__(
        self,
        law: Mapping[str, str],
        *,
        obs_period: int = 4,
        deadline: int = 8,
    ) -> None:
        if not law:
            raise ValueError("control law must be non-empty")
        if obs_period < 1:
            raise ValueError(f"obs_period must be >= 1: {obs_period}")
        if deadline <= 3:
            # Three rounds is the minimum user->advisor->user->world latency;
            # a tighter deadline makes the goal unachievable by anyone.
            raise ValueError(f"deadline must exceed the channel latency: {deadline}")
        self._law = dict(law)
        self._symbols = tuple(sorted(law))
        self._obs_period = obs_period
        self._deadline = deadline
        # Every announcement, by (oldest pending symbol or "-", event):
        # the world's outbox is a pure function of that pair.
        self._announce: Dict[str, Dict[str, WorldOutbox]] = {
            obs_text: {
                event: WorldOutbox(
                    to_user=f"OBS:{obs_text};FB:{event}",
                    to_server=f"OBS:{obs_text}",
                )
                for event in (EVENT_OK, EVENT_BAD, EVENT_NONE)
            }
            for obs_text in (*self._symbols, "-")
        }

    @property
    def name(self) -> str:
        return f"control-world[{len(self._law)}]"

    @property
    def law(self) -> Dict[str, str]:
        """The hidden observation→action law (for building matching advisors)."""
        return dict(self._law)

    def initial_state(self, rng: random.Random) -> ControlState:
        return ControlState()

    def step(
        self, state: ControlState, inbox: WorldInbox, rng: random.Random
    ) -> Tuple[ControlState, WorldOutbox]:
        pending = list(state.pending)
        scored = state.scored
        mistakes = state.mistakes
        event = EVENT_NONE

        # An empty or colon-less message has no tag, and a bare ``ACT``
        # leaves an empty payload with no ``=``: neither scores.
        tag, _, payload = inbox.from_user.partition(":")
        acted = False
        if tag == "ACT":
            # Acts name the observation they answer (``ACT:<obs>=<action>``)
            # so that stale in-flight actions from an abandoned strategy can
            # never be mis-scored against a newer observation.  An act for
            # an observation no longer pending is silently ignored.
            obs_text, sep, action = payload.partition("=")
            if sep:
                for position, (observation, _issued) in enumerate(pending):
                    if observation == obs_text:
                        pending.pop(position)
                        scored += 1
                        acted = True
                        if self._law[observation] == action:
                            event = EVENT_OK
                        else:
                            mistakes += 1
                            event = EVENT_BAD
                        break
        if not acted and pending and state.round_index - pending[0][1] >= self._deadline:
            pending.pop(0)
            scored += 1
            mistakes += 1
            event = EVENT_BAD

        if state.round_index % self._obs_period == 0:
            new_obs = self._symbols[rng.randrange(len(self._symbols))]
            pending.append((new_obs, state.round_index))

        new_state = _new(
            ControlState,
            (state.round_index + 1, tuple(pending), scored, mistakes, event),
        )
        # Announce the oldest unanswered observation (not just fresh ones):
        # a persistent environment keeps being observable, which is what
        # lets advice lost to a flaky server be re-derived instead of
        # turning into an unavoidable deadline mistake.
        obs_text = pending[0][0] if pending else "-"
        return new_state, self._announce[obs_text][event]


def _state_not_bad(state: object) -> bool:
    """Referee predicate: the round did not score a mistake.

    Module-level (not a lambda) so control goals pickle — parallel sweep
    workers receive their cells by pickling the whole (user, server,
    goal) triple.
    """
    return not (isinstance(state, ControlState) and state.last_event == EVENT_BAD)


def control_goal(
    law: Mapping[str, str],
    *,
    obs_period: int = 4,
    deadline: int = 8,
    settle_fraction: float = 0.5,
) -> CompactGoal:
    """The compact goal "eventually always act correctly under π"."""
    return CompactGoal(
        name="control",
        world=ControlWorld(law, obs_period=obs_period, deadline=deadline),
        referee=LastStateCompactReferee(
            state_acceptable=_state_not_bad,
            label="no-mistake",
        ),
        forgiving=True,
        settle_fraction=settle_fraction,
    )


def _feedback_not_bad(message: str) -> bool:
    _, _, fb = message.partition(";FB:")
    return fb != EVENT_BAD


def control_sensing(grace_rounds: int = 14) -> Sensing:
    """The control goal's sensing: last feedback was not a mistake.

    Wrapped in a trial-local grace period long enough (observation period +
    deadline + channel latency) that mistakes caused by a *previous*
    candidate's stale actions or overdue observations are never blamed on
    the incumbent.  Without it, viability fails mechanically: every fresh
    candidate — including the adequate one — inherits one stale mistake and
    is evicted, and the universal user cycles forever (a miniature of why
    the paper's viability definition quantifies over executions, not single
    rounds).
    """
    return GraceSensing(
        LastWorldMessageSensing(
            predicate=_feedback_not_bad, default=True, label="control-fb"
        ),
        grace_rounds=grace_rounds,
    )


def random_law(
    rng: random.Random, symbols: Sequence[str] = DEFAULT_SYMBOLS
) -> Dict[str, str]:
    """A uniformly random permutation law over ``symbols``."""
    actions = list(symbols)
    rng.shuffle(actions)
    return dict(zip(symbols, actions))


def all_permutation_laws(symbols: Sequence[str]) -> Tuple[Dict[str, str], ...]:
    """Every permutation law over ``symbols`` (for exhaustive world classes)."""
    import itertools

    return tuple(
        dict(zip(symbols, perm)) for perm in itertools.permutations(symbols)
    )
