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

Also here: the *forgivingness* check (every finite partial history can be
extended to success), implemented as "after any junk prefix, a rescuer user
still achieves the goal".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.execution import run_execution
from repro.core.goals import CompactGoal, FiniteGoal, Goal
from repro.core.sensing import Sensing
from repro.core.strategy import ServerStrategy, UserStrategy
from repro.core.views import UserView


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


def _indications_per_round(sensing: Sensing, view: UserView) -> List[bool]:
    """Sensing verdict on every prefix of the view (1-based lengths).

    This is what the sensing's monitor computes by definition: one fresh
    monitor fed the records in order, O(T) in total for a T-round view.
    """
    monitor = sensing.incremental()
    return [monitor.observe(record) for record in view]


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
    violations: List[Violation] = []
    runs = 0
    for user in users:
        for server in servers:
            for seed in seeds:
                runs += 1
                execution = run_execution(
                    user, server, goal.world, max_rounds=max_rounds, seed=seed
                )
                if not execution.halted:
                    continue
                if not sensing.indicate(execution.user_view):
                    continue
                if not goal.evaluate(execution).achieved:
                    violations.append(
                        Violation(
                            user.name,
                            server.name,
                            seed,
                            "positive indication at halt on an unacceptable history",
                        )
                    )
    return PropertyReport(
        property_name="finite-safety",
        holds=not violations,
        violations=tuple(violations),
        checked_runs=runs,
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
    violations: List[Violation] = []
    runs = 0
    for server in helpful_servers:
        witness_found = False
        for user in user_class:
            ok_all_seeds = True
            for seed in seeds:
                runs += 1
                execution = run_execution(
                    user, server, goal.world, max_rounds=max_rounds, seed=seed
                )
                if not (execution.halted and sensing.indicate(execution.user_view)):
                    ok_all_seeds = False
                    break
            if ok_all_seeds:
                witness_found = True
                break
        if not witness_found:
            violations.append(
                Violation(
                    "<class>",
                    server.name,
                    -1,
                    "no user in the class obtains a positive indication",
                )
            )
    return PropertyReport(
        property_name="finite-viability",
        holds=not violations,
        violations=tuple(violations),
        checked_runs=runs,
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
    violations: List[Violation] = []
    runs = 0
    for user in users:
        for server in servers:
            for seed in seeds:
                runs += 1
                execution = run_execution(
                    user, server, goal.world, max_rounds=horizon, seed=seed
                )
                verdict = goal.referee.judge(execution)
                half = execution.rounds_executed // 2
                failing_late = (
                    verdict.last_bad_round is not None and verdict.last_bad_round > half
                )
                if not failing_late:
                    continue
                indications = _indications_per_round(sensing, execution.user_view)
                if all(indications[half:]):
                    violations.append(
                        Violation(
                            user.name,
                            server.name,
                            seed,
                            "goal failing late but sensing stayed positive",
                        )
                    )
    return PropertyReport(
        property_name="compact-safety",
        holds=not violations,
        violations=tuple(violations),
        checked_runs=runs,
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
    violations: List[Violation] = []
    runs = 0
    for server in helpful_servers:
        witness_found = False
        for user in user_class:
            ok_all_seeds = True
            for seed in seeds:
                runs += 1
                execution = run_execution(
                    user, server, goal.world, max_rounds=horizon, seed=seed
                )
                if not goal.evaluate(execution).achieved:
                    ok_all_seeds = False
                    break
                indications = _indications_per_round(sensing, execution.user_view)
                half = execution.rounds_executed // 2
                if not all(indications[half:]):
                    ok_all_seeds = False
                    break
            if ok_all_seeds:
                witness_found = True
                break
        if not witness_found:
            violations.append(
                Violation(
                    "<class>",
                    server.name,
                    -1,
                    "no user settles into all-positive indications",
                )
            )
    return PropertyReport(
        property_name="compact-viability",
        holds=not violations,
        violations=tuple(violations),
        checked_runs=runs,
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

    violations: List[Violation] = []
    runs = 0
    for junk in junk_users:
        for duration in junk_rounds:
            composite = JunkThenUser(junk=junk, then=rescuer, junk_rounds=duration)
            for seed in seeds:
                runs += 1
                execution = run_execution(
                    composite, server, goal.world, max_rounds=max_rounds, seed=seed
                )
                if not goal.evaluate(execution).achieved:
                    violations.append(
                        Violation(
                            composite.name,
                            server.name,
                            seed,
                            f"not recoverable after {duration} junk rounds",
                        )
                    )
    return PropertyReport(
        property_name="forgiving",
        holds=not violations,
        violations=tuple(violations),
        checked_runs=runs,
    )
