"""A minimal controlled scenario for universal-user tests.

:class:`KeywordServer` replies ``YES`` to its secret keyword and ``NO`` to
everything else; :class:`KeywordUser` sends one fixed keyword every round
(halting variants available).  Sensing reads the server's replies straight
from the view.  This gives the tests complete control over which candidate
index is "correct" with no world machinery in the way.
"""

from __future__ import annotations

import random
from typing import Set, Tuple

from repro.comm.messages import ServerInbox, ServerOutbox, UserInbox, UserOutbox, WorldOutbox
from repro.core.sensing import GraceSensing, IncrementalSensing, Sensing
from repro.core.strategy import ServerStrategy, UserStrategy, WorldStrategy
from repro.core.views import ViewRecord


class NullWorld(WorldStrategy):
    """A world with a constant state (the goal here is synthetic)."""

    def initial_state(self, rng: random.Random) -> int:
        return 0

    def step(self, state, inbox, rng):
        return state, WorldOutbox()


class KeywordServer(ServerStrategy):
    """Replies ``YES:<word>`` to the secret keyword, ``NO:<word>`` otherwise.

    Replies echo the word they answer — the attribution discipline all the
    real worlds use (``ACT:<obs>=..``, ``POLY:<i>:..``): without it, a YES
    earned by an abandoned trial's last message would arrive during the
    *next* trial and be credited to an innocent candidate.
    """

    def __init__(self, keyword: str) -> None:
        self._keyword = keyword

    @property
    def name(self) -> str:
        return f"keyword[{self._keyword}]"

    def initial_state(self, rng: random.Random) -> int:
        return 0

    def step(
        self, state: int, inbox: ServerInbox, rng: random.Random
    ) -> Tuple[int, ServerOutbox]:
        if not inbox.from_user:
            return state + 1, ServerOutbox()
        verdict = "YES" if inbox.from_user == self._keyword else "NO"
        return state + 1, ServerOutbox(to_user=f"{verdict}:{inbox.from_user}")


class KeywordUser(UserStrategy):
    """Sends one fixed keyword every round; optionally halts on its own YES."""

    def __init__(self, keyword: str, halt_on_yes: bool = False) -> None:
        self._keyword = keyword
        self._halt_on_yes = halt_on_yes

    @property
    def name(self) -> str:
        return f"say[{self._keyword}]"

    def initial_state(self, rng: random.Random) -> int:
        return 0

    def step(
        self, state: int, inbox: UserInbox, rng: random.Random
    ) -> Tuple[int, UserOutbox]:
        if self._halt_on_yes and inbox.from_server == f"YES:{self._keyword}":
            return state + 1, UserOutbox(halt=True, output=self._keyword)
        return state + 1, UserOutbox(to_server=self._keyword)


class EagerHaltUser(UserStrategy):
    """Halts immediately claiming success (the unsafe candidate)."""

    def __init__(self, output: str = "eager") -> None:
        self._output = output

    @property
    def name(self) -> str:
        return "eager-halt"

    def initial_state(self, rng: random.Random) -> int:
        return 0

    def step(self, state, inbox, rng):
        return state + 1, UserOutbox(halt=True, output=self._output)


class YesSensing(Sensing):
    """Positive iff the latest reply is a YES for a word *this trial* sent.

    The trial-locality check (the echoed word must appear in the view's own
    outgoing messages) is what makes the sensing *safe*: YES verdicts
    triggered by an abandoned trial's traffic are not credited.
    """

    def __init__(self, default: bool = True) -> None:
        self._default = default

    @property
    def name(self) -> str:
        return "yes"

    def incremental(self) -> IncrementalSensing:
        return _YesIncremental(self._default)


class _YesIncremental(IncrementalSensing):
    """Remembers the latest reply and every word this trial has sent."""

    __slots__ = ("empty", "_reply", "_sent")

    def __init__(self, default: bool) -> None:
        self.empty = default
        self._reply = ""
        self._sent: Set[str] = set()

    def observe(self, record: ViewRecord) -> bool:
        if record.outbox.to_server:
            self._sent.add(record.outbox.to_server)
        if record.inbox.from_server:
            self._reply = record.inbox.from_server
        if not self._reply:
            return self.empty
        verdict, _, word = self._reply.partition(":")
        return verdict == "YES" and word in self._sent


def keyword_sensing(grace: int = 2) -> Sensing:
    """YES-sensing with the 2-round channel-latency grace.

    The post-grace default is *negative*: a candidate with no server reply
    has produced no evidence, and endorsing silence would let mute
    candidates (e.g. GVM programs that never WRITE) squat forever.
    """
    return GraceSensing(YesSensing(default=False), grace_rounds=grace)
