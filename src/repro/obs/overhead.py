"""Overhead accounting: where a universal user's rounds went.

Theorem 1's universal user pays an *enumeration overhead* — rounds spent
on candidate strategies that sensing later evicts — and the paper's
lower bound (the password server class, E3) shows this overhead is
necessary in general.  This module turns that story into a measured
quantity: :class:`OverheadFold` consumes a trace one event at a time,
and :func:`compute_overhead` folds a whole one (a live
:class:`~repro.obs.sinks.MemorySink` buffer or a JSONL file parsed by
:func:`~repro.obs.sinks.read_jsonl`) and attributes every round to the
enumerated strategy that consumed it.

Definitions (over one execution's event stream):

* a round belongs to the trial that was live when it ran; trials belong
  to their ``candidate_index``;
* the **settled** trial is the one still live when the trace ends, or
  the one that ended ``"endorsed"`` (the finite user's successful halt);
  a trace whose last trial was evicted/abandoned settled nowhere;
* **productive rounds** are the settled trial's rounds — the paper's
  "cost of the adequate strategy";
* **overhead rounds** are everything else: the enumeration's wasted
  work, ``overhead_ratio`` = overhead / total.

The accounting consumes only event fields the universal users emit
(``TrialStarted`` / ``TrialFinished`` / ``SensingIndication`` /
``StrategySwitch``), so it works identically on compact, finite, and
belief-weighted traces, live or replayed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.obs.events import (
    TRIAL_ENDORSED,
    Event,
    ExecutionFinished,
    RoundExecuted,
    SensingIndication,
    StrategySwitch,
    TrialFinished,
    TrialStarted,
    TypeCache,
    dispatch_table,
)
from repro.obs.sinks import Sink

#: ``TrialFinished.reason`` values that mean the candidate *succeeded*.
_SUCCESS_REASONS = frozenset({TRIAL_ENDORSED})


@dataclass(frozen=True)
class StrategyAttribution:
    """One enumerated strategy's share of the run.

    ``rounds`` counts every round the strategy's trials consumed,
    ``indications`` / ``negative_indications`` the sensing verdicts it
    was judged on, ``switched_away`` whether any of its trials ended by
    eviction/abandonment (as opposed to settling or being endorsed).
    """

    index: int
    trials: int
    rounds: int
    indications: int
    negative_indications: int
    switched_away: bool


@dataclass(frozen=True)
class OverheadReport:
    """The enumeration-overhead decomposition of one traced execution."""

    total_rounds: int
    productive_rounds: int
    overhead_rounds: int
    overhead_ratio: float
    settled_index: Optional[int]
    switches: int
    wraps: int
    trials: int
    per_strategy: Tuple[StrategyAttribution, ...]

    def strategy(self, index: int) -> StrategyAttribution:
        """Look up one strategy's attribution by enumeration index."""
        for attribution in self.per_strategy:
            if attribution.index == index:
                return attribution
        raise KeyError(f"no attribution for strategy index {index}")

    def format(self) -> str:
        """A fixed-width text rendering (the CLI's ``overhead`` output)."""
        lines = [
            f"total rounds      : {self.total_rounds}",
            f"productive rounds : {self.productive_rounds}",
            f"overhead rounds   : {self.overhead_rounds}",
            f"overhead ratio    : {self.overhead_ratio:.3f}",
            f"settled index     : "
            f"{'-' if self.settled_index is None else self.settled_index}",
            f"switches          : {self.switches} (wraps: {self.wraps})",
            f"trials            : {self.trials}",
        ]
        if self.per_strategy:
            lines.append("per-strategy attribution:")
            lines.append("  index  trials  rounds  neg/indications  switched-away")
            for a in self.per_strategy:
                lines.append(
                    f"  {a.index:>5}  {a.trials:>6}  {a.rounds:>6}  "
                    f"{a.negative_indications:>3}/{a.indications:<11}  "
                    f"{'yes' if a.switched_away else 'no'}"
                )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form (the CLI's ``--format json`` output)."""
        return {
            "total_rounds": self.total_rounds,
            "productive_rounds": self.productive_rounds,
            "overhead_rounds": self.overhead_rounds,
            "overhead_ratio": self.overhead_ratio,
            "settled_index": self.settled_index,
            "switches": self.switches,
            "wraps": self.wraps,
            "trials": self.trials,
            "per_strategy": [
                {
                    "index": a.index,
                    "trials": a.trials,
                    "rounds": a.rounds,
                    "indications": a.indications,
                    "negative_indications": a.negative_indications,
                    "switched_away": a.switched_away,
                }
                for a in self.per_strategy
            ],
        }


@dataclass
class _TrialTally:
    """Mutable per-strategy accumulator used while scanning the stream."""

    index: int
    trials: int = 0
    rounds: int = 0
    indications: int = 0
    negative_indications: int = 0
    switched_away: bool = False


class OverheadFold(Sink):
    """The overhead accounting as a one-event-at-a-time fold.

    :meth:`feed` each event of one execution in stream order, then read
    :meth:`report`.  Memory stays one tally per enumerated strategy, so a
    consumer that already walks the stream (the certificate checker) gets
    the decomposition without buffering it.  The fold is also a sink:
    ``Tracer(sink=fold)`` accounts a live run's events as they are
    emitted, and keeps none of them.
    """

    def __init__(self) -> None:
        self._tallies: Dict[int, _TrialTally] = {}
        self._engine_rounds: Optional[int] = None
        self._rounds_executed = 0
        self._switches = 0
        self._wraps = 0
        self._trials = 0
        self._closed_trial_rounds = 0
        self._open_index: Optional[int] = None
        self._open_rounds = 0  # Sensing consultations seen in the open trial.
        self._endorsed_index: Optional[int] = None
        self._endorsed_rounds = 0

    def _tally(self, index: int) -> _TrialTally:
        found = self._tallies.get(index)
        if found is None:
            found = self._tallies[index] = _TrialTally(index=index)
        return found

    def feed(self, event: Event) -> None:
        """Account one event (events the accounting ignores cost one probe)."""
        handler = _FEEDERS[type(event)]
        if handler is not None:
            handler(self, event)

    #: As a sink, every emitted event is fed.
    emit = feed

    def _feed_round(self, event: RoundExecuted) -> None:
        self._rounds_executed += 1

    def _feed_finished(self, event: ExecutionFinished) -> None:
        self._engine_rounds = event.rounds_executed

    def _feed_trial_started(self, event: TrialStarted) -> None:
        self._open_index = event.candidate_index
        self._open_rounds = 0
        self._endorsed_index = None  # A new trial supersedes any endorsement.
        self._trials += 1
        self._tally(event.candidate_index).trials += 1

    def _feed_indication(self, event: SensingIndication) -> None:
        t = self._tally(event.candidate_index)
        t.indications += 1
        if not event.positive:
            t.negative_indications += 1
        if event.candidate_index == self._open_index:
            self._open_rounds += 1

    def _feed_trial_finished(self, event: TrialFinished) -> None:
        t = self._tally(event.candidate_index)
        t.rounds += event.rounds_used
        self._closed_trial_rounds += event.rounds_used
        if event.reason in _SUCCESS_REASONS:
            self._endorsed_index = event.candidate_index
            self._endorsed_rounds = event.rounds_used
        else:
            t.switched_away = True
        if event.candidate_index == self._open_index:
            self._open_index = None
            self._open_rounds = 0

    def _feed_switch(self, event: StrategySwitch) -> None:
        self._switches += 1
        if event.wrapped:
            self._wraps += 1

    def report(self) -> OverheadReport:
        """The decomposition of everything fed so far (the fold is unchanged)."""
        closed_trial_rounds = self._closed_trial_rounds
        open_index = self._open_index
        engine_rounds = self._engine_rounds
        total_rounds = (
            engine_rounds if engine_rounds is not None else self._rounds_executed
        )
        if total_rounds == 0:
            # User-only trace (tracer attached to the user but not the
            # engine): every user round produced one sensing consultation.
            total_rounds = closed_trial_rounds + self._open_rounds

        # The open trial's rounds: whatever the closed trials did not
        # consume.  (More robust than counting its indications — a
        # patience budget or a grace wrapper can consult sensing on a
        # subset of rounds.)
        open_trial_rounds = max(0, total_rounds - closed_trial_rounds)
        settled_index: Optional[int]
        if open_index is not None:
            settled_index = open_index
            productive_rounds = open_trial_rounds
        elif self._endorsed_index is not None:
            # The finite user's successful halt: exactly the endorsed
            # trial's own rounds were productive; earlier trials of the
            # same candidate (budget re-runs) still count as overhead.
            settled_index = self._endorsed_index
            productive_rounds = self._endorsed_rounds
        else:
            settled_index = None
            productive_rounds = 0

        overhead_rounds = max(0, total_rounds - productive_rounds)
        ratio = overhead_rounds / total_rounds if total_rounds else 0.0
        per_strategy = tuple(
            StrategyAttribution(
                index=t.index,
                trials=t.trials,
                rounds=t.rounds + (
                    open_trial_rounds if t.index == open_index else 0
                ),
                indications=t.indications,
                negative_indications=t.negative_indications,
                switched_away=t.switched_away,
            )
            for t in sorted(self._tallies.values(), key=lambda t: t.index)
        )
        return OverheadReport(
            total_rounds=total_rounds,
            productive_rounds=productive_rounds,
            overhead_rounds=overhead_rounds,
            overhead_ratio=ratio,
            settled_index=settled_index,
            switches=self._switches,
            wraps=self._wraps,
            trials=self._trials,
            per_strategy=per_strategy,
        )


_FEEDERS: "TypeCache[Optional[Callable[[OverheadFold, Any], None]]]" = dispatch_table(
    {
        RoundExecuted: OverheadFold._feed_round,
        ExecutionFinished: OverheadFold._feed_finished,
        TrialStarted: OverheadFold._feed_trial_started,
        SensingIndication: OverheadFold._feed_indication,
        TrialFinished: OverheadFold._feed_trial_finished,
        StrategySwitch: OverheadFold._feed_switch,
    }
)


def fold_step(
    event_type: type,
) -> Optional[Callable[[OverheadFold, Any], None]]:
    """The fold's step for events of exactly ``event_type``.

    ``None`` for the types the accounting ignores, so a consumer that
    already dispatches on the event type (the certificate checker) hands
    the fold only the events it counts, without a :meth:`~OverheadFold.feed`
    call per event.
    """
    return _FEEDERS[event_type]


def compute_overhead(events: Iterable[Event]) -> OverheadReport:
    """Attribute a traced execution's rounds to its enumerated strategies.

    Accepts any ordered event stream — ``MemorySink.events``, the list
    from :func:`~repro.obs.sinks.read_jsonl`, or a generator — and makes
    one pass of :class:`OverheadFold` over it.  Traces without
    universal-user events (no trials) yield an all-zero report with
    ``settled_index=None`` and an overhead ratio of 0.0: a non-enumerating
    user has no enumeration overhead by definition.
    """
    fold = OverheadFold()
    for event in events:
        fold.feed(event)
    return fold.report()


__all__ = [
    "OverheadFold",
    "fold_step",
    "OverheadReport",
    "StrategyAttribution",
    "compute_overhead",
]
