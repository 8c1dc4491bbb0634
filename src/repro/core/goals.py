"""Goals of communication: a world strategy plus a referee.

"To fix a goal of communication, we take the world's strategy as fixed, and
fix a set of acceptable sequences of world states" (Section 2).  A
:class:`FiniteGoal` or :class:`CompactGoal` bundles exactly those two
ingredients, plus an :meth:`evaluate` method that runs the referee over an
execution and returns a uniform :class:`GoalOutcome`.

Non-determinism of the world (footnote 2 of the paper) is handled one level
up: an experiment quantifies over a *family* of goals sharing a referee but
differing in the world's drawn configuration; the probabilistic part of the
world lives in ``world.initial_state(rng)``.

Forgiving goals
---------------
The paper restricts attention to *forgiving* goals: every finite partial
history can be extended to a successful one.  Forgivingness is a semantic
property of the world+referee pair and cannot be decided generically, so
each concrete world in :mod:`repro.worlds` documents why its goals are
forgiving and ships a ``recovery`` test; the flag here is declarative
metadata that the universal users may sanity-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.execution import ExecutionResult
from repro.core.referees import (
    CompactReferee,
    CompactVerdict,
    FiniteReferee,
    RefereeMonitor,
)
from repro.core.strategy import WorldStrategy
from repro.errors import ExecutionError


@dataclass(frozen=True)
class GoalOutcome:
    """Uniform verdict for one execution against one goal.

    ``achieved`` is the headline answer.  For compact goals it is the
    *empirical* reading ("the bad prefixes stopped early enough"); the raw
    prefix accounting is kept in ``compact_verdict`` so analyses can apply
    stricter or looser settle criteria after the fact.
    """

    achieved: bool
    halted: bool
    rounds: int
    user_output: Optional[str] = None
    compact_verdict: Optional[CompactVerdict] = None
    note: str = ""


@dataclass(frozen=True)
class FiniteGoal:
    """A finite goal: the user must halt and the referee judges the history."""

    name: str
    world: WorldStrategy
    referee: FiniteReferee
    forgiving: bool = True

    @property
    def is_compact(self) -> bool:
        return False

    def evaluate(self, execution: ExecutionResult) -> GoalOutcome:
        """Judge one finished execution."""
        achieved = execution.halted and self.referee.accepts(execution)
        note = "" if execution.halted else "user never halted"
        return GoalOutcome(
            achieved=achieved,
            halted=execution.halted,
            rounds=execution.rounds_executed,
            user_output=execution.user_output,
            note=note,
        )


@dataclass(frozen=True)
class CompactGoal:
    """A compact goal: infinite execution, finitely many bad prefixes.

    ``settle_fraction`` defines the empirical horizon criterion used by
    :meth:`evaluate`: the goal counts as achieved when no prefix in the
    final ``settle_fraction`` of the run was unacceptable.  The default of
    0.5 demands a long clean tail, which makes false positives (a user that
    merely got lucky late) unlikely at the horizons the experiments use.
    """

    name: str
    world: WorldStrategy
    referee: CompactReferee
    forgiving: bool = True
    settle_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.settle_fraction < 1.0:
            raise ValueError(f"settle_fraction must be in (0, 1): {self.settle_fraction}")

    @property
    def is_compact(self) -> bool:
        return True

    def evaluate(self, execution: ExecutionResult) -> GoalOutcome:
        """Judge one finite run as a stand-in for the infinite execution.

        Reads the verdict of the referee monitor the engine fed as the run
        went (``run_execution(..., referee=goal.referee)``); without one,
        folds the referee over the recorded history.  A metrics-only result
        keeps only its latest world state, so judging it without the
        monitor would judge a one-state history: that raises
        :class:`~repro.errors.ExecutionError` instead.
        """
        monitor = execution.referee_monitor
        if isinstance(monitor, RefereeMonitor) and monitor.referee == self.referee:
            verdict = monitor.verdict()
        elif execution.recording.full:
            verdict = self.referee.judge(execution)
        else:
            raise ExecutionError(
                f"goal {self.name!r}: a {execution.recording.label}-recorded "
                "run keeps only its latest world state; run it with "
                "referee=goal.referee to judge it as it goes"
            )
        horizon = verdict.total_prefixes
        settle_round = int(horizon * (1.0 - self.settle_fraction))
        achieved = verdict.settled_since(settle_round)
        note = ""
        if not achieved and verdict.last_bad_round is not None:
            note = f"bad prefix at round {verdict.last_bad_round} of {horizon}"
        return GoalOutcome(
            achieved=achieved,
            halted=execution.halted,
            rounds=execution.rounds_executed,
            user_output=execution.user_output,
            compact_verdict=verdict,
            note=note,
        )


#: Either flavour of goal; most engine-side helpers accept both.
Goal = Union[FiniteGoal, CompactGoal]
