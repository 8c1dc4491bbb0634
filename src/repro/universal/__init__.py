"""Universal user strategies — the constructive content of Theorem 1.

Strategy enumerations (:mod:`.enumeration`), trial schedules including
Levin's (:mod:`.schedules`), the trial kernel the universal users share
(:mod:`.trial`), and its three selection policies: the compact-goal
enumerate-and-switch user (:mod:`.compact`), the finite-goal
Levin-scheduled user (:mod:`.finite`), and the belief-weighted extension
(:mod:`.bayesian`).
"""

from repro.universal.enumeration import (
    StrategyEnumeration,
    ListEnumeration,
    GeneratorEnumeration,
    EnumerationCursor,
    materialize,
)
from repro.universal.schedules import (
    Trial,
    levin_trials,
    sequential_trials,
    doubling_sweep_trials,
)
from repro.universal.compact import CompactUniversalUser, CompactUniversalState
from repro.universal.finite import FiniteUniversalUser, FiniteUniversalState
from repro.universal.bayesian import BeliefWeightedUniversalUser, BeliefState

__all__ = [
    "StrategyEnumeration",
    "ListEnumeration",
    "GeneratorEnumeration",
    "EnumerationCursor",
    "materialize",
    "Trial",
    "levin_trials",
    "sequential_trials",
    "doubling_sweep_trials",
    "CompactUniversalUser",
    "CompactUniversalState",
    "FiniteUniversalUser",
    "FiniteUniversalState",
    "BeliefWeightedUniversalUser",
    "BeliefState",
]
