"""The finite-goal universal user (Theorem 1, finite case).

"In the finite case, strategies are enumerated 'in parallel' as in Levin's
approach, and sensing is used to decide when to stop."  The single
conversation cannot literally run candidates in parallel, so — as in
Levin's universal search — parallelism becomes a *trial schedule*: candidate
*i* is retried with geometrically growing budgets (see
:mod:`repro.universal.schedules`), and the user halts the first time a
candidate halts while the sensing function endorses its trial view.

This construction leans on the goal being *forgiving* (every finite partial
history extends to a successful one): abandoned trials may leave arbitrary
junk in the world's history, and forgivingness is what guarantees the next
trial can still succeed.  It equally leans on helpful servers being helpful
*from any initial state* — the paper builds that into the definition of
helpfulness, and our server classes honour it by being re-entrant (they
re-parse commands regardless of past traffic).

Safety of sensing makes the *halting* decision sound: the user only ever
halts on a positive indication, so an unsafe candidate (or a cheating
server) cannot trick a safely-sensed universal user into halting on an
unacceptable history.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Tuple

from repro.comm.messages import UserInbox, UserOutbox
from repro.core.sensing import Sensing
from repro.errors import EnumerationExhaustedError
from repro.obs.events import TRIAL_BUDGET, TRIAL_ENDORSED, TRIAL_HALT_REJECTED
from repro.obs.tracer import TracerLike
from repro.universal import schedules
from repro.universal.enumeration import EnumerationCursor, StrategyEnumeration
from repro.universal.trial import Trial, TrialUser, without_halt


@dataclass
class FiniteUniversalState:
    """Mutable state of the finite universal user (one per execution).

    ``current`` is the schedule slot ``(index, budget)`` being worked on;
    ``trial`` its running :class:`~repro.universal.trial.Trial` (``None``
    between a slot's retries and before its first round).  ``tracer`` is
    the run's (``None`` when untraced), kept out of equality and ``repr``.
    """

    cursor: EnumerationCursor
    schedule: Iterator[schedules.Trial]
    current: Optional[schedules.Trial] = None
    trial: Optional[Trial] = None
    retries_left: int = 0
    trials_run: int = 0
    total_rounds: int = 0
    index_cap: Optional[int] = None
    tracer: TracerLike = field(default=None, compare=False, repr=False)


class FiniteUniversalUser(TrialUser):
    """Levin-scheduled universal user for finite goals.

    Parameters
    ----------
    enumeration:
        The candidate class, in enumeration order.
    sensing:
        Consulted when a candidate halts; the universal user only forwards
        the halt (and the candidate's output) on a positive indication.
        Its monitor is fed every round and read at halt.
    schedule_factory:
        Builds the trial schedule; defaults to
        :func:`~repro.universal.schedules.levin_trials` capped at the
        enumeration's size hint.  Swappable for the ablations in E2.
    patience:
        How many immediate same-candidate retries a trial gets after a
        *halt-rejected* verdict (default 0 = abandon at once, the paper's
        noiseless behaviour).  On an unreliable channel the rejection may
        be the fault's doing — a dropped reply starved the sensing — and
        an immediate retry faces fresh noise, so a small budget recovers
        the candidate without waiting for the schedule to come back
        around.  Each scheduled trial starts with a full budget.

    A traced run's tracer receives ``TrialStarted`` / ``TrialFinished``
    for every scheduled trial and a ``SensingIndication`` whenever a
    halting candidate is judged.
    """

    def __init__(
        self,
        enumeration: StrategyEnumeration,
        sensing: Sensing,
        *,
        schedule_factory: Optional[
            Callable[[Optional[int]], Iterator[schedules.Trial]]
        ] = None,
        patience: int = 0,
    ) -> None:
        super().__init__(sensing, patience=patience)
        self._enumeration = enumeration
        self._schedule_factory = schedule_factory or (
            lambda cap: schedules.levin_trials(
                max_index=None if cap is None else cap - 1
            )
        )

    @property
    def name(self) -> str:
        return f"universal-finite({self._enumeration.name},{self._sensing.name})"

    def initial_traced_state(
        self, rng: random.Random, tracer: TracerLike
    ) -> FiniteUniversalState:
        cursor = EnumerationCursor(self._enumeration)
        cap = cursor.known_size()
        return FiniteUniversalState(
            cursor=cursor,
            schedule=self._schedule_factory(cap),
            index_cap=cap,
            tracer=tracer,
        )

    def step(
        self, state: FiniteUniversalState, inbox: UserInbox, rng: random.Random
    ) -> Tuple[FiniteUniversalState, UserOutbox]:
        state.total_rounds += 1
        trial = state.trial or self._next_trial(state, rng)
        if trial is None:
            # Schedule exhausted (only possible with a finite schedule):
            # nothing left to try, stay silent and never halt — the engine's
            # horizon will end the run, correctly scored as failure.
            return state, UserOutbox()

        outbox = trial.play(inbox, rng)
        round_index = state.total_rounds - 1
        if outbox.halt:
            if self._judge(state.tracer, trial, round_index):
                self._finish(state.tracer, trial, round_index, TRIAL_ENDORSED)
                return state, outbox  # Endorsed: halt with the candidate's output.
            self._finish(state.tracer, trial, round_index, TRIAL_HALT_REJECTED)
            state.trial = None
            if state.retries_left > 0:
                # Patience budget: the rejection may be channel noise, not
                # the candidate — rerun it now against fresh noise.
                state.retries_left -= 1
            else:
                state.current = None
            return state, without_halt(outbox)

        if trial.rounds >= trial.budget:  # type: ignore[operator]
            self._finish(state.tracer, trial, round_index, TRIAL_BUDGET)
            state.trial = state.current = None
        return state, outbox

    #: Bound on consecutive skipped schedule entries per engine round.  A
    #: schedule that emits only out-of-range candidate indices (possible
    #: with a user-supplied factory and a smaller-than-expected class)
    #: would otherwise spin this loop forever inside a single step.
    _MAX_SKIPS_PER_STEP = 10_000

    def _next_trial(
        self, state: FiniteUniversalState, rng: random.Random
    ) -> Optional[Trial]:
        """Start the current slot's next trial, drawing slots as needed."""
        for _ in range(self._MAX_SKIPS_PER_STEP + 1):
            if state.current is None:
                try:
                    slot = next(state.schedule)
                except StopIteration:
                    return None
                if state.index_cap is not None and slot[0] >= state.index_cap:
                    continue
                state.current = slot
                state.retries_left = self._patience
            index, budget = state.current
            try:
                candidate = state.cursor.get(index)
            except EnumerationExhaustedError:
                # Past the end of the class: learn its size, drop the slot.
                state.index_cap = state.cursor.known_size()
                state.current = None
                continue
            state.trial = self._start(
                state.tracer, candidate, index, state.trials_run,
                state.total_rounds - 1, rng, budget,
            )
            state.trials_run += 1
            return state.trial
        return None  # Degenerate schedule: go quiet, never halt.
