"""Measurement harness for the learning ↔ communication equivalence.

Functions that run the *same* task in both frameworks and report mistakes,
used by experiment E8 and its tests:

* :func:`mistakes_in_world` — run any lookup-world user strategy in the
  full three-party engine and read the world's mistake counter.
* :func:`mistakes_in_game` — run any online learner in the pure game on a
  matched query sequence.
* :func:`enumeration_user` / :func:`halving_user` — the two protagonists:
  the Theorem 1-style enumerate-and-switch user and the halving-learner
  user, whose mistake scalings (linear vs. logarithmic in class size) E8
  contrasts.
"""

from __future__ import annotations

import random

from repro.core.execution import METRICS_RECORDING, run_execution
from repro.core.strategy import SilentServer, UserStrategy
from repro.online.adapter import LearnerUser, threshold_user_class
from repro.online.learners import (
    HalvingLearner,
    OnlineLearner,
    WeightedMajorityLearner,
    threshold_class,
)
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.worlds.lookup import LookupState, lookup_goal, lookup_sensing


def enumeration_user(domain: int, *, grace_rounds: int = 10) -> CompactUniversalUser:
    """The Theorem 1 user for the lookup goal: enumerate rigid thresholds.

    Its mistakes scale with the index of the true threshold — the
    enumeration overhead the paper proves necessary in general, and which
    E8 shows is beaten by structure-aware learners on this special class.
    """
    return CompactUniversalUser(
        ListEnumeration(threshold_user_class(domain), label="thresholds"),
        lookup_sensing(grace_rounds=grace_rounds),
    )


def halving_user(domain: int) -> LearnerUser:
    """The halving learner as a lookup-world user (mistakes ≤ log₂(D+1))."""
    return LearnerUser(
        lambda: HalvingLearner(threshold_class(domain)), label=f"halving[{domain}]"
    )


def weighted_majority_user(domain: int, beta: float = 0.5) -> LearnerUser:
    """The weighted-majority learner as a lookup-world user."""
    return LearnerUser(
        lambda: WeightedMajorityLearner(threshold_class(domain), beta=beta),
        label=f"wm[{domain}]",
    )


def mistakes_in_world(
    user: UserStrategy,
    threshold: int,
    domain: int,
    *,
    horizon: int = 600,
    seed: int = 0,
) -> int:
    """Total mistakes the lookup world charged the user over one execution."""
    goal = lookup_goal(threshold, domain)
    execution = run_execution(
        user, SilentServer(), goal.world, max_rounds=horizon, seed=seed,
        recording=METRICS_RECORDING,
    )
    state = execution.final_world_state()
    assert isinstance(state, LookupState)
    return state.mistakes


def mistakes_in_game(
    learner: OnlineLearner,
    threshold: int,
    domain: int,
    *,
    n_queries: int = 200,
    seed: int = 0,
) -> int:
    """Mistakes of a pure online learner on a random query sequence."""
    from repro.online.learners import simulate_mistakes
    from repro.worlds.lookup import threshold_label

    rng = random.Random(seed)
    queries = [rng.randrange(domain) for _ in range(n_queries)]
    return simulate_mistakes(
        learner, lambda x: threshold_label(threshold, x), queries
    )
