"""Helpfulness of servers: can *somebody* in the user class succeed?

The paper: "a server strategy is *helpful* for the goal and a class of user
strategies if there is some user strategy U such that when U is paired with
the server, and the server and world are started from any initial state, the
goal is achieved."  A *universal* user must then succeed with every helpful
server.

Helpfulness quantifies over an infinite set of initial states and all user
strategies in a class; with the bounded classes used here we check it
exhaustively over the class and approximate "any initial state" by running
under several seeds (randomising the probabilistic parts of server and
world) and, optionally, by prefixing the interaction with junk traffic that
drives the server into an arbitrary reachable state (see
:class:`repro.users.scripted.JunkThenUser`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.execution import METRICS_RECORDING, run_execution
from repro.core.goals import Goal
from repro.core.strategy import ServerStrategy, UserStrategy


@dataclass(frozen=True)
class HelpfulnessReport:
    """Outcome of a helpfulness check for one server.

    ``witness`` is the first user strategy in the class that achieved the
    goal under every tested seed (``None`` when the server is unhelpful).
    ``per_user`` maps each tried user's name to the number of seeds it
    succeeded on, for diagnostics.
    """

    helpful: bool
    witness: Optional[UserStrategy]
    per_user: Dict[str, int] = field(default_factory=dict)
    seeds_tested: int = 0

    def __bool__(self) -> bool:
        return self.helpful


def is_helpful(
    server: ServerStrategy,
    goal: Goal,
    user_class: Sequence[UserStrategy],
    *,
    seeds: Sequence[int] = (0, 1, 2),
    max_rounds: int = 256,
) -> HelpfulnessReport:
    """Decide (empirically) whether ``server`` is helpful for ``goal``.

    A user strategy *witnesses* helpfulness when it achieves the goal under
    every seed in ``seeds``.  The check runs users in class order and stops
    at the first witness, so for honest classes it is cheap; for unhelpful
    servers it costs ``len(user_class) * len(seeds)`` executions.
    """
    per_user: Dict[str, int] = {}
    for user in user_class:
        successes = 0
        for seed in seeds:
            execution = run_execution(
                user, server, goal.world, max_rounds=max_rounds, seed=seed,
                recording=METRICS_RECORDING, referee=goal.referee,
            )
            if goal.evaluate(execution).achieved:
                successes += 1
            else:
                break
        per_user[user.name] = successes
        if successes == len(seeds):
            return HelpfulnessReport(
                helpful=True, witness=user, per_user=per_user, seeds_tested=len(seeds)
            )
    return HelpfulnessReport(
        helpful=False, witness=None, per_user=per_user, seeds_tested=len(seeds)
    )


def helpful_subclass(
    servers: Sequence[ServerStrategy],
    goal: Goal,
    user_class: Sequence[UserStrategy],
    *,
    seeds: Sequence[int] = (0, 1, 2),
    max_rounds: int = 256,
) -> List[Tuple[ServerStrategy, HelpfulnessReport]]:
    """Filter a server class down to its helpful members (with reports).

    Experiments use this to state their claims exactly as the paper does:
    "the universal user achieves the goal with every *helpful* server in the
    class" — unhelpful members (e.g. dishonest provers) are excluded from
    the success requirement but still matter for safety.
    """
    results: List[Tuple[ServerStrategy, HelpfulnessReport]] = []
    for server in servers:
        report = is_helpful(
            server, goal, user_class, seeds=seeds, max_rounds=max_rounds
        )
        if report.helpful:
            results.append((server, report))
    return results
