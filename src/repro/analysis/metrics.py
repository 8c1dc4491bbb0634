"""Run metrics: what the experiments measure.

A :class:`RunMetrics` is the per-execution record the benchmarks aggregate;
:func:`collect_metrics` extracts one from an execution + goal pair, pulling
universal-user statistics (enumeration index, switch count) out of the
final user state when present.  :class:`Summary` holds the usual
order statistics over a batch.

Empty-batch contract
--------------------
The two aggregators are deliberately asymmetric on empty input:

* :func:`success_rate` returns **0.0** — it answers "what fraction of runs
  succeeded?", and claiming any success for zero runs would let an empty
  sweep pass a universality check vacuously;
* :meth:`Summary.of` returns ``count=0`` with **NaN** statistics — the
  mean/median/min/max of nothing is undefined, and NaN (unlike a sentinel
  like 0) poisons any arithmetic that forgets to check ``count`` first.

Both are exercised in ``tests/analysis/test_metrics.py``; check ``count``
(or the batch's truthiness) before consuming ``Summary`` statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.execution import ExecutionResult
from repro.core.goals import Goal, GoalOutcome
from repro.universal.bayesian import BeliefState
from repro.universal.compact import CompactUniversalState
from repro.universal.finite import FiniteUniversalState


@dataclass(frozen=True)
class RunMetrics:
    """One execution's worth of measurements."""

    achieved: bool
    halted: bool
    rounds: int
    switches: Optional[int] = None     # Compact/belief universal: switches.
    final_index: Optional[int] = None  # Compact/belief universal: settled index.
    trials: Optional[int] = None       # Finite universal: trials started.
    bad_prefixes: Optional[int] = None # Compact goals: referee's count.
    last_bad_round: Optional[int] = None
    user_output: Optional[str] = None


def collect_metrics(execution: ExecutionResult, goal: Goal) -> RunMetrics:
    """Evaluate the goal and extract universal-user stats if available."""
    outcome: GoalOutcome = goal.evaluate(execution)
    switches = final_index = trials = None
    # The engine fills ``final_user_state`` under every recording policy;
    # the round-list fallback covers hand-built ExecutionResults in tests.
    state = execution.final_user_state
    if state is None and execution.rounds:
        state = execution.rounds[-1].user_state_after
    if state is not None:
        if isinstance(state, (CompactUniversalState, BeliefState)):
            switches = state.switches
            final_index = state.index
        elif isinstance(state, FiniteUniversalState):
            trials = state.trials_run
    verdict = outcome.compact_verdict
    return RunMetrics(
        achieved=outcome.achieved,
        halted=outcome.halted,
        rounds=outcome.rounds,
        switches=switches,
        final_index=final_index,
        trials=trials,
        bad_prefixes=None if verdict is None else verdict.bad_prefixes,
        last_bad_round=None if verdict is None else verdict.last_bad_round,
        user_output=outcome.user_output,
    )


@dataclass(frozen=True)
class Summary:
    """Order statistics over a batch of scalar observations."""

    count: int
    mean: float
    median: float
    minimum: float
    maximum: float

    @property
    def is_empty(self) -> bool:
        """True when no observations were summarised (statistics are NaN)."""
        return self.count == 0

    @staticmethod
    def of(values: Sequence[float]) -> "Summary":
        """Summarise ``values``; an empty batch yields ``count=0`` and NaNs.

        See the module docstring for why this differs from
        :func:`success_rate`'s empty-batch 0.0.
        """
        if not values:
            return Summary(count=0, mean=math.nan, median=math.nan,
                           minimum=math.nan, maximum=math.nan)
        ordered = sorted(values)
        n = len(ordered)
        if n % 2:
            median = float(ordered[n // 2])
        else:
            median = (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0
        return Summary(
            count=n,
            mean=sum(ordered) / n,
            median=median,
            minimum=float(ordered[0]),
            maximum=float(ordered[-1]),
        )

    def format(self, precision: int = 1) -> str:
        return (
            f"n={self.count} mean={self.mean:.{precision}f} "
            f"median={self.median:.{precision}f} "
            f"min={self.minimum:.{precision}f} max={self.maximum:.{precision}f}"
        )


def success_rate(batch: Sequence[RunMetrics]) -> float:
    """Fraction of achieved runs in a batch.

    An empty batch reads **0.0**, not NaN: a sweep with no runs has
    demonstrated no success, and universality claims must not pass
    vacuously (module docstring has the full contract).
    """
    if not batch:
        return 0.0
    return sum(1 for m in batch if m.achieved) / len(batch)


def rounds_summary(batch: Sequence[RunMetrics], achieved_only: bool = True) -> Summary:
    """Summary of rounds-to-completion (by default over successful runs)."""
    values: List[float] = [
        float(m.rounds) for m in batch if m.achieved or not achieved_only
    ]
    return Summary.of(values)
