"""Belief-weighted universal user (extension; cf. Juba–Sudan, ICS 2011).

The paper closes by motivating "the search for algorithms that are
compatible with broad classes" at lower overhead, citing the follow-up
*Efficient Semantic Communication via Compatible Beliefs*.  The idea there:
if user and server hold compatible prior beliefs about each other, the
overhead of universality drops from the enumeration index to (roughly) the
log of the prior mass on the adequate strategy.

:class:`BeliefWeightedUniversalUser` realises the user side: candidates
carry prior weights; the user always plays a highest-weight candidate and
multiplies the weight by ``decay`` on a negative indication.  With a uniform
prior this degenerates to round-robin over the class; with a concentrated,
*correct* prior it reaches the adequate candidate after few switches — the
ablation in experiment E8b quantifies the gap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.sensing import Sensing
from repro.core.strategy import UserStrategy
from repro.obs.events import SWITCH_BELIEF_DECAY, TRIAL_DECAYED
from repro.obs.tracer import TracerLike
from repro.universal.trial import Trial, TrialUser


@dataclass
class BeliefState:
    """Mutable state of the belief-weighted universal user; ``tracer`` is
    the run's (``None`` when untraced), out of equality and ``repr``."""

    weights: List[float]
    index: int
    trial: Optional[Trial] = None
    switches: int = 0
    total_rounds: int = 0
    tracer: TracerLike = field(default=None, compare=False, repr=False)


class BeliefWeightedUniversalUser(TrialUser):
    """Prior-guided enumerate-and-switch user over a finite class.

    Parameters
    ----------
    candidates:
        The (finite) candidate class.
    sensing:
        Feedback function over the trial-local view, as for
        :class:`~repro.universal.compact.CompactUniversalUser`.
    prior:
        Per-candidate prior weights (uniform when omitted); need not be
        normalised, must be positive.
    decay:
        Multiplier applied to the current candidate's weight on a negative
        indication; in (0, 1).
    min_trial_rounds:
        Grace floor before sensing may decay a candidate's weight.
    patience:
        Per-trial budget of tolerated negative indications before the
        weight decay applies — the noisy-channel retry budget.  Grace,
        strikes and halt stripping follow the same rule as
        :class:`~repro.universal.compact.CompactUniversalUser`.  The
        budget refills when the user switches candidates.

    A traced run's tracer receives the compact user's events, with
    ``StrategySwitch.reason`` = ``"belief-decay"``.
    """

    def __init__(
        self,
        candidates: Sequence[UserStrategy],
        sensing: Sensing,
        *,
        prior: Optional[Sequence[float]] = None,
        decay: float = 0.5,
        min_trial_rounds: int = 0,
        patience: int = 0,
    ) -> None:
        super().__init__(
            sensing, min_trial_rounds=min_trial_rounds, patience=patience
        )
        if not candidates:
            raise ValueError("candidate class must be non-empty")
        if prior is None:
            prior = [1.0] * len(candidates)
        if len(prior) != len(candidates):
            raise ValueError(
                f"prior length {len(prior)} != class size {len(candidates)}"
            )
        if any(w <= 0 for w in prior):
            raise ValueError("prior weights must be positive")
        if not 0.0 < decay < 1.0:
            raise ValueError(f"decay must be in (0, 1): {decay}")
        self._candidates = list(candidates)
        self._prior = list(prior)
        self._decay = decay

    @property
    def name(self) -> str:
        return f"universal-beliefs[{len(self._candidates)}]"

    def initial_traced_state(
        self, rng: random.Random, tracer: TracerLike
    ) -> BeliefState:
        weights = list(self._prior)
        return BeliefState(weights=weights, index=_argmax(weights), tracer=tracer)

    def _candidate(self, state: BeliefState, index: int) -> UserStrategy:
        return self._candidates[index]

    def _evict(self, state: BeliefState) -> None:
        """Decay the current weight; switch if another candidate now leads.

        An argmax that returns the current candidate is not a new trial:
        the candidate keeps running, and its next negative decays it again.
        """
        state.weights[state.index] *= self._decay
        best = _argmax(state.weights)
        if best != state.index:
            self._switch(state, best, TRIAL_DECAYED, SWITCH_BELIEF_DECAY)


def _argmax(weights: Sequence[float]) -> int:
    """Index of the largest weight (first one on ties, for determinism)."""
    best_index = 0
    best = weights[0]
    for i, w in enumerate(weights):
        if w > best:
            best = w
            best_index = i
    return best_index
