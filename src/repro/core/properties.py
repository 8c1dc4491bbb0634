"""Empirical checkers for the paper's definitional properties.

The paper's Theorem 1 hypothesises sensing that is *safe* and *viable* for a
goal and server class.  Those properties quantify over executions; this
module checks them by exhaustive/randomised simulation over the finite
classes used in experiments, returning structured reports rather than bare
booleans so tests and benchmarks can show *which* pairing violated what.

Definitions implemented (paraphrasing Section 3):

* **Finite safety** — positive indications are only obtained on acceptable
  histories: whenever a user halts and sensing reads positive, the referee
  must accept.
* **Finite viability** — with every helpful server, *some* user strategy in
  the class halts with a positive indication (and thereby succeeds).
* **Compact safety** — when a pairing is *not* achieving the goal (bad
  prefixes keep occurring), negative indications keep occurring: a failing
  strategy cannot look good forever.
* **Compact viability** — with every helpful server, some user strategy
  eventually receives only positive indications while achieving the goal.

Every run is judged as it goes by :func:`judge_run`, which feeds the
goal's referee monitor and the sensing's monitor each round and keeps no
history.  Its :class:`Judgement` derives the safety violation
(``false_positive``) and the viability witness (``settled``) that these
checkers, :func:`repro.faults.verify.verify_robustness` and E6 all read.

Also here: the *forgivingness* check (every finite partial history can be
extended to success), implemented as "after any junk prefix, a rescuer user
still achieves the goal".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

from repro.comm.messages import UserInbox, UserOutbox
from repro.core.execution import METRICS_RECORDING, FaultyChannelLike, run_execution
from repro.core.goals import CompactGoal, FiniteGoal, Goal, GoalOutcome
from repro.core.sensing import IncrementalSensing, Sensing
from repro.core.strategy import ServerStrategy, UserStrategy
from repro.core.views import ViewRecord
from repro.obs.tracer import TracerLike


@dataclass(frozen=True)
class Violation:
    """One counterexample found by a property checker."""

    user_name: str
    server_name: str
    seed: int
    detail: str


@dataclass(frozen=True)
class PropertyReport:
    """Verdict of a property check, with counterexamples if any."""

    property_name: str
    holds: bool
    violations: Tuple[Violation, ...] = ()
    checked_runs: int = 0

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class Judgement:
    """One run judged against its goal and a sensing, as it went.

    ``indication`` is the sensing's verdict on the whole view and
    ``last_negative`` the last round whose indication was negative (−1 if
    none), so ``last_negative < rounds // 2`` means every indication in
    the second half of the run was positive.
    """

    outcome: GoalOutcome
    halted: bool
    rounds: int
    indication: bool
    last_negative: int

    @property
    def false_positive(self) -> bool:
        """Sensing endorsed a failure: the safety violation.

        Compact: a bad prefix ended in the second half of the run while
        every indication there was positive.  Finite: the user halted on a
        positive indication and the referee rejected the history.
        """
        verdict = self.outcome.compact_verdict
        if verdict is not None:
            half = self.rounds // 2
            last_bad = verdict.last_bad_round
            return last_bad is not None and last_bad > half and self.last_negative < half
        return self.halted and self.indication and not self.outcome.achieved

    @property
    def settled(self) -> bool:
        """The run witnesses viability: achieved with all-positive
        indications over the second half (compact), or halted on a
        positive indication (finite)."""
        if self.outcome.compact_verdict is not None:
            return self.outcome.achieved and self.last_negative < self.rounds // 2
        return self.halted and self.indication


class _JudgedState(NamedTuple):
    """The judged user's state: the inner state plus the sensing fold."""

    inner: Any
    monitor: IncrementalSensing
    rounds: int
    indication: bool
    last_negative: int


class _JudgedUser(UserStrategy):
    """The user, with each round's view record fed to a sensing monitor.

    The record is the one the engine's full recording builds; the inner
    user gets the same RNG and its outbox is returned unchanged, so the
    run is the bare user's.  A traced run's tracer goes on to the inner
    user, whose events then join the run's stream.
    """

    def __init__(self, user: UserStrategy, sensing: Sensing) -> None:
        self._user = user
        self._sensing = sensing

    @property
    def name(self) -> str:
        return self._user.name

    def initial_state(self, rng: random.Random) -> _JudgedState:
        return self.initial_traced_state(rng, None)

    def initial_traced_state(
        self, rng: random.Random, tracer: TracerLike
    ) -> _JudgedState:
        monitor = self._sensing.incremental()
        inner = self._user.initial_traced_state(rng, tracer)
        return _JudgedState(inner, monitor, 0, monitor.empty, -1)

    def step(
        self, state: _JudgedState, inbox: UserInbox, rng: random.Random
    ) -> Tuple[_JudgedState, UserOutbox]:
        inner, monitor, round_index, _, last_negative = state
        after, outbox = self._user.step(inner, inbox, rng)
        indication = monitor.observe(ViewRecord(round_index, inner, inbox, outbox, after))
        if not indication:
            last_negative = round_index
        return _JudgedState(after, monitor, round_index + 1, indication, last_negative), outbox


def judge_run(
    user: UserStrategy,
    server: ServerStrategy,
    goal: Goal,
    sensing: Sensing,
    *,
    seed: int,
    max_rounds: int,
    channel: Optional[FaultyChannelLike] = None,
    tracer: TracerLike = None,
) -> Judgement:
    """Run ``user`` with ``server`` on ``goal``, judged as it goes in
    bounded memory (metrics-only recording); ``tracer`` receives the
    events ``run_execution(..., tracer=)`` emits for the bare user."""
    execution = run_execution(
        _JudgedUser(user, sensing), server, goal.world,
        max_rounds=max_rounds, seed=seed, recording=METRICS_RECORDING,
        referee=goal.referee, channel=channel, tracer=tracer,
    )
    outcome = goal.evaluate(execution)
    fold = execution.final_user_state
    return Judgement(
        outcome, outcome.halted, outcome.rounds, fold.indication, fold.last_negative
    )


def _report(name: str, violations: List[Violation], runs: int) -> PropertyReport:
    return PropertyReport(
        property_name=name,
        holds=not violations,
        violations=tuple(violations),
        checked_runs=runs,
    )


def _safety(
    name: str,
    detail: str,
    goal: Goal,
    sensing: Sensing,
    users: Sequence[UserStrategy],
    servers: Sequence[ServerStrategy],
    seeds: Sequence[int],
    max_rounds: int,
) -> PropertyReport:
    """One violation per (user, server, seed) run that is a false positive."""
    violations = [
        Violation(user.name, server.name, seed, detail)
        for user in users
        for server in servers
        for seed in seeds
        if judge_run(
            user, server, goal, sensing, seed=seed, max_rounds=max_rounds
        ).false_positive
    ]
    return _report(name, violations, len(users) * len(servers) * len(seeds))


def _viability(
    name: str,
    detail: str,
    goal: Goal,
    sensing: Sensing,
    user_class: Sequence[UserStrategy],
    servers: Sequence[ServerStrategy],
    seeds: Sequence[int],
    max_rounds: int,
) -> PropertyReport:
    """One violation per server no user settles with on every seed; a
    user stops at its first unsettled seed, a server at its first witness."""
    runs = 0

    def witness(user: UserStrategy, server: ServerStrategy) -> bool:
        nonlocal runs
        for seed in seeds:
            runs += 1
            if not judge_run(
                user, server, goal, sensing, seed=seed, max_rounds=max_rounds
            ).settled:
                return False
        return True

    violations = [
        Violation("<class>", server.name, -1, detail)
        for server in servers
        if not any(witness(user, server) for user in user_class)
    ]
    return _report(name, violations, runs)


def check_finite_safety(
    goal: FiniteGoal,
    sensing: Sensing,
    users: Sequence[UserStrategy],
    servers: Sequence[ServerStrategy],
    *,
    seeds: Sequence[int] = (0, 1, 2),
    max_rounds: int = 256,
) -> PropertyReport:
    """Check finite safety over all (user, server, seed) pairings.

    Violation: the user halted, sensing read positive on its final view, but
    the referee rejected the history.
    """
    return _safety(
        "finite-safety", "positive indication at halt on an unacceptable history",
        goal, sensing, users, servers, seeds, max_rounds,
    )


def check_finite_viability(
    goal: FiniteGoal,
    sensing: Sensing,
    user_class: Sequence[UserStrategy],
    helpful_servers: Sequence[ServerStrategy],
    *,
    seeds: Sequence[int] = (0, 1, 2),
    max_rounds: int = 256,
) -> PropertyReport:
    """Check finite viability against every (assumed helpful) server.

    Violation: some server admits no user in the class that halts with a
    positive indication on every seed.
    """
    return _viability(
        "finite-viability", "no user in the class obtains a positive indication",
        goal, sensing, user_class, helpful_servers, seeds, max_rounds,
    )


def check_compact_safety(
    goal: CompactGoal,
    sensing: Sensing,
    users: Sequence[UserStrategy],
    servers: Sequence[ServerStrategy],
    *,
    seeds: Sequence[int] = (0, 1),
    horizon: int = 400,
) -> PropertyReport:
    """Check compact safety: failure must keep producing negative indications.

    Violation: the goal was not being achieved (a bad prefix occurred in the
    second half of the run) yet every indication in the second half was
    positive — the sensing would let a universal user stay on a failing
    strategy forever.
    """
    return _safety(
        "compact-safety", "goal failing late but sensing stayed positive",
        goal, sensing, users, servers, seeds, horizon,
    )


def check_compact_viability(
    goal: CompactGoal,
    sensing: Sensing,
    user_class: Sequence[UserStrategy],
    helpful_servers: Sequence[ServerStrategy],
    *,
    seeds: Sequence[int] = (0, 1),
    horizon: int = 400,
) -> PropertyReport:
    """Check compact viability against every (assumed helpful) server.

    Violation: some server admits no user whose indications are eventually
    all positive (over the second half of the run) while achieving the goal.
    """
    return _viability(
        "compact-viability", "no user settles into all-positive indications",
        goal, sensing, user_class, helpful_servers, seeds, horizon,
    )


def check_forgiving(
    goal: Goal,
    rescuer: UserStrategy,
    junk_users: Sequence[UserStrategy],
    server: ServerStrategy,
    *,
    junk_rounds: Sequence[int] = (0, 3, 10),
    seeds: Sequence[int] = (0, 1),
    max_rounds: int = 512,
) -> PropertyReport:
    """Check forgivingness: success is reachable after any tested junk prefix.

    For each junk user and junk duration, runs the junk user for that many
    rounds and then hands control to ``rescuer`` (via
    :class:`repro.users.scripted.JunkThenUser` composition, imported lazily
    to avoid a package cycle); the goal must still be achieved.
    """
    from repro.users.scripted import JunkThenUser

    composites = [
        (JunkThenUser(junk=junk, then=rescuer, junk_rounds=duration), duration)
        for junk in junk_users
        for duration in junk_rounds
    ]
    violations = [
        Violation(
            composite.name, server.name, seed,
            f"not recoverable after {duration} junk rounds",
        )
        for composite, duration in composites
        for seed in seeds
        if not goal.evaluate(
            run_execution(
                composite, server, goal.world, max_rounds=max_rounds, seed=seed,
                recording=METRICS_RECORDING, referee=goal.referee,
            )
        ).achieved
    ]
    return _report("forgiving", violations, len(composites) * len(seeds))
