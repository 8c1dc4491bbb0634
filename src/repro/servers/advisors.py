"""Advisor servers for the control world.

An advisor observes the control world's observations (the world announces
``OBS:<o>`` to the server as well as to the user) and tells the user the
correct action — in *its* vocabulary.  Wrapped in codecs these form the
compact-goal server class of experiments E1/E4/E7: every member is helpful
(decode its advice and you act perfectly), and finding *how* to decode it
is the whole game.
"""

from __future__ import annotations

import random
from typing import List, Mapping, Sequence, Tuple

from repro.comm.codecs import Codec
from repro.comm.messages import ServerInbox, ServerOutbox, parse_tagged
from repro.core.strategy import ServerStrategy
from repro.servers.wrappers import EncodedServer

#: The outbox of a round without advice, shared rather than rebuilt.
_NO_ADVICE = ServerOutbox()


class AdvisorServer(ServerStrategy):
    """Knows the control law; advises the correct action for each observation.

    Stateless from round to round — the advice for an observation does not
    depend on history — which makes it trivially helpful from any state.
    """

    def __init__(self, law: Mapping[str, str]) -> None:
        if not law:
            raise ValueError("advisor law must be non-empty")
        self._law = dict(law)

    @property
    def name(self) -> str:
        return "advisor"

    def initial_state(self, rng: random.Random) -> int:
        return 0

    def step(
        self, state: int, inbox: ServerInbox, rng: random.Random
    ) -> Tuple[int, ServerOutbox]:
        parsed = parse_tagged(inbox.from_world)
        if parsed is None or parsed[0] != "OBS":
            return state + 1, _NO_ADVICE
        observation = parsed[1]
        action = self._law.get(observation)
        if action is None:  # "-" (no new observation) or foreign symbol.
            return state + 1, _NO_ADVICE
        # Advice names the observation it answers, mirroring the world's
        # ``ACT:<obs>=<action>`` scoring format.
        return state + 1, ServerOutbox(to_user=f"ADV:{observation}={action}")


class MisleadingAdvisorServer(ServerStrategy):
    """Always advises a *wrong* action — the unhelpful control extreme.

    No user strategy that follows (any decoding of) its advice can act
    correctly, and since the law is hidden, nothing else in the class helps
    either; this member exists so tests can confirm the universal user's
    guarantee is exactly "every *helpful* server", not "every server".
    """

    def __init__(self, law: Mapping[str, str]) -> None:
        if len(set(law.values())) < 2:
            raise ValueError("need >= 2 actions to be able to advise wrongly")
        self._law = dict(law)
        self._actions = sorted(set(law.values()))

    @property
    def name(self) -> str:
        return "advisor-misleading"

    def initial_state(self, rng: random.Random) -> int:
        return 0

    def step(
        self, state: int, inbox: ServerInbox, rng: random.Random
    ) -> Tuple[int, ServerOutbox]:
        parsed = parse_tagged(inbox.from_world)
        if parsed is None or parsed[0] != "OBS":
            return state + 1, _NO_ADVICE
        correct = self._law.get(parsed[1])
        if correct is None:
            return state + 1, _NO_ADVICE
        wrong = next(a for a in self._actions if a != correct)
        return state + 1, ServerOutbox(to_user=f"ADV:{parsed[1]}={wrong}")


def advisor_server_class(
    law: Mapping[str, str], codecs: Sequence[Codec]
) -> List[EncodedServer]:
    """Helpful advisors in every language of ``codecs`` (enumeration order)."""
    return [EncodedServer(AdvisorServer(law), codec) for codec in codecs]
