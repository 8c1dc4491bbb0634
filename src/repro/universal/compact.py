"""The compact-goal universal user (Theorem 1, compact case).

"In the compact case, Theorem 1 is proved by enumerating all relevant user
strategies and switching from the current strategy to the next one when a
negative indication is obtained from the sensing function."  This module is
that proof turned into a strategy: :class:`CompactUniversalUser` runs the
current candidate as a trial (:mod:`repro.universal.trial`), judged every
round on its trial-local view, and advances the enumeration when the trial
strikes out.

Correctness invariants (property-tested in ``tests/universal/``):

* candidates are visited in enumeration order;
* the user never switches while sensing reads positive;
* with safe+viable sensing and a helpful server, the index eventually
  stabilises and the goal is achieved (this *is* Theorem 1's compact case).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.core.sensing import Sensing
from repro.core.strategy import UserStrategy
from repro.errors import EnumerationExhaustedError
from repro.obs.events import SWITCH_SENSING_NEGATIVE, TRIAL_EVICTED
from repro.obs.tracer import TracerLike
from repro.universal.enumeration import EnumerationCursor, StrategyEnumeration
from repro.universal.trial import Trial, TrialUser


@dataclass
class CompactUniversalState:
    """Mutable state of the compact universal user.

    The engine threads this through :meth:`CompactUniversalUser.step`; it is
    never shared between executions (each ``initial_state`` call builds a
    fresh cursor).  ``trial`` is the running candidate's
    :class:`~repro.universal.trial.Trial`, dropped on every switch.  The
    state keeps no per-round history of its own, so a settled trial runs in
    constant memory under O(1) sensing monitors.  ``tracer`` is the run's
    (``None`` when untraced), kept out of equality and ``repr``.
    """

    cursor: EnumerationCursor
    index: int = 0
    trial: Optional[Trial] = None
    switches: int = 0
    wraps: int = 0
    total_rounds: int = 0
    tracer: TracerLike = field(default=None, compare=False, repr=False)

    @property
    def rounds_in_trial(self) -> int:
        """Rounds the current candidate has run (0 before its first)."""
        return 0 if self.trial is None else self.trial.rounds


class CompactUniversalUser(TrialUser):
    """Enumerate-and-switch universal user for compact goals.

    Parameters
    ----------
    enumeration:
        The class of candidate user strategies, in enumeration order.
    sensing:
        The feedback function; consulted every round on the trial-local
        view.  Wrap it in :class:`~repro.core.sensing.GraceSensing` when the
        goal's feedback is delayed.
    min_trial_rounds:
        A floor on how long each candidate runs before sensing may evict it.
        This is the engine-level grace period; 0 defers entirely to the
        sensing function.
    patience:
        Per-trial budget of tolerated negative indications: the candidate
        is evicted on the ``patience + 1``-th negative of its trial
        (default 0 = evict on the first negative, the paper's noiseless
        behaviour).  On an unreliable channel a dropped reply can turn a
        round's indication negative even though the candidate is
        adequate; a small budget absorbs those spurious negatives instead
        of triggering an enumeration switch, while a genuinely failing
        candidate still burns through the budget and is evicted after a
        bounded delay.  The budget refills on every switch.
    wrap_around:
        What to do when a *finite* enumeration is exhausted: restart from
        index 0 (default, making the user robust to transient negative
        indications) or raise :class:`EnumerationExhaustedError`.

    A traced run's tracer receives a per-round ``SensingIndication`` plus
    ``TrialStarted`` / ``TrialFinished`` / ``StrategySwitch`` events.
    """

    def __init__(
        self,
        enumeration: StrategyEnumeration,
        sensing: Sensing,
        *,
        min_trial_rounds: int = 0,
        patience: int = 0,
        wrap_around: bool = True,
    ) -> None:
        super().__init__(
            sensing, min_trial_rounds=min_trial_rounds, patience=patience
        )
        self._enumeration = enumeration
        self._wrap_around = wrap_around

    @property
    def name(self) -> str:
        return f"universal-compact({self._enumeration.name},{self._sensing.name})"

    def initial_traced_state(
        self, rng: random.Random, tracer: TracerLike
    ) -> CompactUniversalState:
        return CompactUniversalState(
            cursor=EnumerationCursor(self._enumeration), tracer=tracer
        )

    def _candidate(self, state: CompactUniversalState, index: int) -> UserStrategy:
        return state.cursor.get(index)

    def _evict(self, state: CompactUniversalState) -> None:
        """Move to the next candidate (wrapping or raising at the end)."""
        next_index = state.index + 1
        wrapped = False
        try:
            state.cursor.get(next_index)
        except EnumerationExhaustedError:
            if not self._wrap_around:
                raise
            next_index = 0
            wrapped = True
            state.wraps += 1
        self._switch(
            state, next_index, TRIAL_EVICTED, SWITCH_SENSING_NEGATIVE, wrapped
        )
