"""Concrete worlds (environments) and their goals and sensing functions.

One module per goal family: the printer goal (:mod:`.printer`, finite,
side-effect-shaped), the delegation goal (:mod:`.computation`, finite,
knowledge-shaped), the control goal (:mod:`.control`, compact, advisor-
dependent) and the lookup goal (:mod:`.lookup`, compact, learning-shaped).
"""

from repro.worlds.printer import (
    PrinterWorld,
    PrinterState,
    PrintedReferee,
    PrintedTailSensing,
    printing_goal,
    printing_sensing,
)
from repro.worlds.computation import (
    ComputationWorld,
    ComputationState,
    CorrectAnswerReferee,
    VerifiedProofSensing,
    delegation_goal,
    delegation_sensing,
)
from repro.worlds.control import (
    ControlWorld,
    ControlState,
    control_goal,
    control_sensing,
    random_law,
    all_permutation_laws,
    DEFAULT_SYMBOLS,
)
from repro.worlds.counting import (
    CountingWorld,
    CountingState,
    CorrectCountReferee,
    counting_goal,
    counting_sensing,
    canonical_order,
)
from repro.worlds.repeated import (
    RepeatedComputationWorld,
    RepeatedComputationState,
    repeated_delegation_goal,
    repeated_delegation_sensing,
)
from repro.worlds.navigation import (
    Grid,
    NavigationWorld,
    NavigationState,
    ArrivedReferee,
    navigation_goal,
    navigation_sensing,
    random_grid,
    corridor_grid,
    DIRECTIONS,
)
from repro.worlds.lookup import (
    LookupWorld,
    LookupState,
    lookup_goal,
    lookup_sensing,
    threshold_label,
)

__all__ = [
    "PrinterWorld",
    "PrinterState",
    "PrintedReferee",
    "PrintedTailSensing",
    "printing_goal",
    "printing_sensing",
    "ComputationWorld",
    "ComputationState",
    "CorrectAnswerReferee",
    "VerifiedProofSensing",
    "delegation_goal",
    "delegation_sensing",
    "ControlWorld",
    "ControlState",
    "control_goal",
    "control_sensing",
    "random_law",
    "all_permutation_laws",
    "DEFAULT_SYMBOLS",
    "CountingWorld",
    "CountingState",
    "CorrectCountReferee",
    "counting_goal",
    "counting_sensing",
    "canonical_order",
    "RepeatedComputationWorld",
    "RepeatedComputationState",
    "repeated_delegation_goal",
    "repeated_delegation_sensing",
    "Grid",
    "NavigationWorld",
    "NavigationState",
    "ArrivedReferee",
    "navigation_goal",
    "navigation_sensing",
    "random_grid",
    "corridor_grid",
    "DIRECTIONS",
    "LookupWorld",
    "LookupState",
    "lookup_goal",
    "lookup_sensing",
    "threshold_label",
]
