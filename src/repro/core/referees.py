"""Referees: the judges of goal achievement.

The paper fixes a goal by fixing the world's strategy and "a set of
acceptable sequences of world states (or equivalently, ... a referee
predicate on the set of all possible histories of world states)".  Two
families are studied:

* **Finite goals** — the user must halt; the referee is a predicate on the
  finite world-state history (:class:`FiniteReferee`).  Every finite
  referee shipped here reads only the final world state, which every
  recording policy keeps.
* **Compact goals** — the system runs forever; the referee marks each finite
  *prefix* acceptable or not, and the goal is achieved iff only finitely
  many prefixes are unacceptable (:class:`CompactReferee`).

One form: the per-prefix monitor
--------------------------------
A compact referee's verdict on prefix *t* is a function of the first *t*
world states, so it is computed online: :meth:`CompactReferee.monitor`
returns a fresh :class:`RefereeMonitor` whose ``observe(state)`` consumes
the next world state and updates the running accounting — prefixes seen,
bad prefixes, last bad prefix.  The execution engine feeds the goal's
monitor each round as it runs (``run_execution(..., referee=)``), so a
run judges itself in O(1) memory whatever its horizon.
:meth:`CompactReferee.judge` is derived, once, as a fold of a fresh
monitor over a recorded world-state history (full recordings, hand-built
results, N-party runs), so the online and post-hoc verdicts cannot drift
apart.

At a finite horizon, "finitely many bad prefixes" is witnessed by the bad
prefixes *stopping*: a :class:`CompactVerdict` reports the count and the
last bad index, and :class:`repro.core.goals.CompactGoal` converts that into
an empirical achievement verdict with an explicit settle window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.execution import ExecutionResult


class FiniteReferee:
    """Judges a halted execution by its world-state history and user output."""

    def accepts(self, execution: ExecutionResult) -> bool:
        """Return True iff the finite history is acceptable.

        Implementations should return False (not raise) for executions that
        never halted: a user that talks forever has not achieved a finite
        goal.
        """
        raise NotImplementedError

    def monitor(self) -> None:
        """No per-round monitor: the verdict is read off the final state."""
        return None


@dataclass(frozen=True)
class FunctionFiniteReferee(FiniteReferee):
    """Adapts a plain predicate into a :class:`FiniteReferee`."""

    predicate: Callable[[ExecutionResult], bool]
    label: str = "finite-referee"

    def accepts(self, execution: ExecutionResult) -> bool:
        if not execution.halted:
            return False
        return bool(self.predicate(execution))


@dataclass(frozen=True)
class CompactVerdict:
    """Prefix-level accounting for a compact referee over one execution.

    ``total_prefixes`` counts the judged prefixes (one per recorded world
    state), ``bad_prefixes`` the unacceptable ones, and ``last_bad_round``
    is the 1-based length of the longest unacceptable prefix (``None``
    when all prefixes were acceptable).
    """

    bad_prefixes: int
    last_bad_round: Optional[int]
    total_prefixes: int

    def settled_since(self, round_index: int) -> bool:
        """True iff no prefix of length > ``round_index`` was unacceptable."""
        if self.last_bad_round is None:
            return True
        return self.last_bad_round <= round_index


class RefereeMonitor:
    """The running verdict of one compact referee over one execution.

    ``observe`` must be fed the world-state history in order, starting
    with the initial state; after *t* observations the monitor holds the
    accounting of prefixes 1..t.  ``acceptable(state)`` judges the prefix
    that ``state`` ends — a history-dependent referee passes a bound method
    of its own per-run state.  Monitors are single-run: start a fresh one
    (via :meth:`CompactReferee.monitor`) per execution.
    """

    __slots__ = ("referee", "acceptable", "total", "bad", "last_bad")

    def __init__(self, referee: "CompactReferee", acceptable: Callable[[Any], bool]) -> None:
        self.referee = referee
        self.acceptable = acceptable
        self.total = 0
        self.bad = 0
        self.last_bad: Optional[int] = None

    def observe(self, state: Any) -> None:
        """Judge the prefix that ``state`` extends the history to."""
        self.total += 1
        if not self.acceptable(state):
            self.bad += 1
            self.last_bad = self.total

    def verdict(self) -> CompactVerdict:
        """The accounting of every prefix observed so far."""
        return CompactVerdict(
            bad_prefixes=self.bad,
            last_bad_round=self.last_bad,
            total_prefixes=self.total,
        )

    def __eq__(self, other: object) -> bool:
        """Same referee, same progress: executions of one cast/seed compare
        equal across the batch, lockstep and serve engines."""
        if type(other) is not type(self):
            return NotImplemented
        return (self.referee, self.total, self.bad, self.last_bad) == (
            other.referee, other.total, other.bad, other.last_bad
        )

    __hash__ = None  # type: ignore[assignment]  # mutable monitor

    def __repr__(self) -> str:
        return (
            f"<RefereeMonitor total={self.total} bad={self.bad} "
            f"last_bad={self.last_bad}>"
        )


class CompactReferee:
    """Judges each finite prefix of the world-state history."""

    def monitor(self) -> RefereeMonitor:
        """A fresh per-run monitor — the one method a compact referee implements."""
        raise NotImplementedError

    def judge(self, execution: Any) -> CompactVerdict:
        """Fold a fresh monitor over the execution's recorded world states.

        Prefix *t* (for t = 1..T) consists of the first *t* world states
        (the initial state plus the states after each of the first t−1
        rounds), matching the paper's "history of world states".  Needs the
        whole history: a metrics-only result keeps just the latest state,
        and is judged by the monitor the engine fed as it ran.
        """
        monitor = self.monitor()
        for state in execution.world_states:
            monitor.observe(state)
        return monitor.verdict()


@dataclass(frozen=True)
class LastStateCompactReferee(CompactReferee):
    """A compact referee that only inspects the most recent world state.

    Every compact goal shipped here is *local* in this sense — e.g. "the
    controller's last action was correct" — so its monitor needs no
    memory beyond the running counts.
    """

    state_acceptable: Callable[[Any], bool]
    label: str = "last-state-referee"

    def monitor(self) -> RefereeMonitor:
        return RefereeMonitor(self, self.state_acceptable)
