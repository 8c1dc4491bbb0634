"""The trial kernel shared by the universal users.

Theorem 1's universal users differ in one decision only: which candidate
runs next.  The compact user moves to the next enumerated candidate on a
negative indication, the finite user follows a Levin-style schedule and
lets sensing decide when to stop, and the belief-weighted user plays the
belief argmax.  Everything else is one lifecycle, kept here:

* **start** — the candidate's ``initial_state`` plus a fresh sensing
  monitor (:class:`Trial`, built lazily on the trial's first round);
* **step** — play the candidate one round and feed its *trial-local*
  :class:`~repro.core.views.ViewRecord` to the monitor (:meth:`Trial.play`);
* **verdict** — the monitor's indication on the trial so far, read when
  the policy asks (:meth:`TrialUser._judge`): every round for the compact
  and belief-weighted users, at halt for the finite user.  The sensing is
  reached only through ``incremental()`` and the monitor's ``observe``, so
  a trial keeps no view and runs in constant memory;
* **strikes** — a trial ends on its ``patience + 1``-th negative
  indication, but never inside its first ``min_trial_rounds`` rounds, and
  a halt under a negative indication is stripped (:meth:`TrialUser.step`);
* **events** — every ``TrialStarted`` / ``SensingIndication`` /
  ``TrialFinished`` / ``StrategySwitch`` a universal user emits is built
  here, to the run's tracer the state carries (``None`` when untraced);
* **reset** — dropping the state's :class:`Trial` ends it; the next round
  starts a fresh one.

Why trial-local views: sensing is meant to judge the *current* strategy.
Judging it on the whole execution would blame it for its predecessors'
mistakes, breaking viability.  The full version of the paper resets the
sensing scope on each switch; so does every trial here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.comm.messages import UserInbox, UserOutbox
from repro.core.sensing import IncrementalSensing, Sensing
from repro.core.strategy import UserStrategy
from repro.core.views import ViewRecord
from repro.obs.events import (
    SensingIndication,
    StrategySwitch,
    TrialFinished,
    TrialStarted,
)
from repro.obs.tracer import TracerLike, is_tracing

# Records are built by ``tuple.__new__``: ``ViewRecord`` is a NamedTuple,
# and this skips its generated ``__new__``.
_new = tuple.__new__


@dataclass
class Trial:
    """One candidate's run: its inner state, sensing monitor and counters.

    ``strategy`` is the candidate itself; it stays out of equality because
    ``index`` already names it (the parity suites compare states
    structurally).  ``verdict`` is the monitor's indication on the trial's
    rounds so far.
    """

    strategy: UserStrategy = field(compare=False, repr=False)
    index: int
    number: int
    budget: Optional[int]
    inner_state: Any
    monitor: IncrementalSensing
    verdict: bool = False
    rounds: int = 0
    strikes: int = 0

    def play(self, inbox: UserInbox, rng: random.Random) -> UserOutbox:
        """Step the candidate one round and feed the record to the sensing."""
        before = self.inner_state
        self.inner_state, outbox = self.strategy.step(before, inbox, rng)
        record = _new(
            ViewRecord, (self.rounds, before, inbox, outbox, self.inner_state)
        )
        self.rounds += 1
        self.verdict = self.monitor.observe(record)
        return outbox


def without_halt(outbox: UserOutbox) -> UserOutbox:
    """``outbox`` with its halt (and output) stripped."""
    return UserOutbox(to_server=outbox.to_server, to_world=outbox.to_world)


class TrialUser(UserStrategy):
    """Shared base of the universal users: the trial lifecycle, once.

    :meth:`step` is the judge-every-round loop of the compact and
    belief-weighted users; a subclass supplies its selection policy through
    :meth:`_candidate` and :meth:`_evict`.  Their states carry ``index``,
    ``switches``, ``total_rounds`` and the current ``trial``.  The finite
    user overrides :meth:`step` with its schedule and judges at halt, using
    the same :meth:`_start`, :meth:`_judge` and :meth:`_finish`.

    Every state also carries the run's ``tracer``: a subclass builds it in
    :meth:`initial_traced_state`, and :meth:`initial_state` is that state
    untraced, so one user object serves interleaved traced runs.
    """

    def __init__(
        self,
        sensing: Sensing,
        *,
        min_trial_rounds: int = 0,
        patience: int = 0,
    ) -> None:
        if min_trial_rounds < 0:
            raise ValueError(f"min_trial_rounds must be >= 0: {min_trial_rounds}")
        if patience < 0:
            raise ValueError(f"patience must be >= 0: {patience}")
        self._sensing = sensing
        self._grace = max(1, min_trial_rounds)
        self._patience = patience

    def initial_state(self, rng: random.Random) -> Any:
        return self.initial_traced_state(rng, None)

    def initial_traced_state(self, rng: random.Random, tracer: TracerLike) -> Any:
        """A fresh state carrying ``tracer`` (each subclass builds its own)."""
        raise NotImplementedError

    # -- selection policy (compact and belief-weighted users) -------------
    def _candidate(self, state: Any, index: int) -> UserStrategy:
        """The strategy at ``index``."""
        raise NotImplementedError

    def _evict(self, state: Any) -> None:
        """The current trial struck out: pick what runs next."""
        raise NotImplementedError

    # -- lifecycle -----------------------------------------------------------
    def step(
        self, state: Any, inbox: UserInbox, rng: random.Random
    ) -> Tuple[Any, UserOutbox]:
        trial = state.trial
        if trial is None:
            trial = state.trial = self._start(
                state.tracer,
                self._candidate(state, state.index),
                state.index,
                state.switches,
                state.total_rounds,
                rng,
            )
        outbox = trial.play(inbox, rng)
        state.total_rounds += 1
        if not self._judge(state.tracer, trial, state.total_rounds - 1):
            trial.strikes += 1
            if trial.strikes > self._patience and trial.rounds >= self._grace:
                self._evict(state)
            # A candidate being evicted (or surviving on patience) must not
            # get the last word on halting: these goals run forever, and a
            # halt under a negative indication would end the execution on
            # a failure.
            if outbox.halt:
                outbox = without_halt(outbox)
        return state, outbox

    def _start(
        self,
        tracer: TracerLike,
        strategy: UserStrategy,
        index: int,
        number: int,
        round_index: int,
        rng: random.Random,
        budget: Optional[int] = None,
    ) -> Trial:
        """Begin trial ``number`` of candidate ``index`` at ``round_index``."""
        trial = Trial(
            strategy,
            index,
            number,
            budget,
            strategy.initial_state(rng),
            self._sensing.incremental(),
        )
        if is_tracing(tracer):
            tracer.emit(
                TrialStarted(
                    round_index=round_index,
                    trial_number=number,
                    candidate_index=index,
                    budget=budget,
                )
            )
        return trial

    def _judge(self, tracer: TracerLike, trial: Trial, round_index: int) -> bool:
        """The sensing verdict on the trial so far (emitted when tracing)."""
        positive = trial.verdict
        if tracer is not None and tracer.enabled:
            tracer.emit(
                SensingIndication(
                    round_index=round_index,
                    candidate_index=trial.index,
                    positive=positive,
                )
            )
        return positive

    def _finish(
        self, tracer: TracerLike, trial: Trial, round_index: int, reason: str
    ) -> None:
        """Emit the trial's closing event."""
        if is_tracing(tracer):
            tracer.emit(
                TrialFinished(
                    round_index=round_index,
                    trial_number=trial.number,
                    candidate_index=trial.index,
                    rounds_used=trial.rounds,
                    reason=reason,
                )
            )

    def _switch(
        self,
        state: Any,
        to_index: int,
        trial_reason: str,
        switch_reason: str,
        wrapped: bool = False,
    ) -> None:
        """End the current trial and make ``to_index`` the next candidate."""
        trial = state.trial
        round_index = state.total_rounds - 1
        tracer = state.tracer
        self._finish(tracer, trial, round_index, trial_reason)
        if is_tracing(tracer):
            tracer.emit(
                StrategySwitch(
                    round_index=round_index,
                    from_index=trial.index,
                    to_index=to_index,
                    wrapped=wrapped,
                    reason=switch_reason,
                )
            )
        state.index = to_index
        state.trial = None
        state.switches += 1
