"""The one fold over a trace's events: its summary and its overhead.

Theorem 1's universal user pays an *enumeration overhead* — rounds spent
on candidate strategies that sensing later evicts — and the paper's
lower bound (the password server class, E3) shows this overhead is
necessary in general.  This module turns that story into a measured
quantity, together with the figures of the run it sits in:
:class:`TraceFold` consumes a trace one event at a time and keeps every
count its readers take from the stream.  It answers
:meth:`~TraceFold.summary` (``python -m repro.obs summarize``) and
:meth:`~TraceFold.report` (``overhead``); ``diff`` reads both, and the
certificate checker drives the same steps and checks the report.

What the fold counts:

* events, by class (the summary's ``events`` and ``counts``);
* rounds seen, and the finish — rounds executed and whether the user
  halted; a run's rounds are the finish's figure when there is one;
* messages and payload length, read off each round line's six payload
  fields;
* channel and server faults injected, and the cast (user and server);
* trials, switches, wraps and a tally per enumerated strategy.

Overhead definitions (over one execution's event stream):

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

from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Any, Callable, DefaultDict, Dict, Iterable, Mapping, Optional, Tuple

from repro.obs.events import (
    TRIAL_ENDORSED,
    Event,
    ExecutionFinished,
    ExecutionStarted,
    FaultInjected,
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
class TraceSummary:
    """Per-kind counts and headline figures for one trace file."""

    path: str
    trace_schema: Optional[int]
    events: int
    counts: Tuple[Tuple[str, int], ...]
    rounds: int
    halted: bool
    messages: int
    message_bytes: int
    faults_injected: int
    user: Optional[str]
    server: Optional[str]

    def format(self) -> str:
        """Fixed-width text rendering (the CLI's ``summarize`` output)."""
        cast = (
            f"{self.user} vs {self.server}"
            if self.user is not None
            else "(no execution-started event)"
        )
        lines = [
            f"trace      : {self.path}",
            f"schema     : "
            f"{'-' if self.trace_schema is None else self.trace_schema}",
            f"cast       : {cast}",
            f"events     : {self.events}",
            f"rounds     : {self.rounds}{' (halted)' if self.halted else ''}",
            f"messages   : {self.messages} ({self.message_bytes} bytes)",
            f"faults     : {self.faults_injected}",
        ]
        if self.counts:
            lines.append("events by kind:")
            width = max(len(kind) for kind, _ in self.counts)
            lines.extend(
                f"  {kind:<{width}}  {count}" for kind, count in self.counts
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (the CLI's ``--format json`` output)."""
        return {**asdict(self), "counts": dict(self.counts)}


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
            **asdict(self),
            "per_strategy": [asdict(a) for a in self.per_strategy],
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


class TraceFold(Sink):
    """The one fold over a trace's events, one event at a time.

    :meth:`feed` each event of one execution in stream order, then read
    :meth:`summary` and :meth:`report`.  Memory stays one tally per
    enumerated strategy, so no reader buffers the stream.  The fold is
    also a sink: ``Tracer(sink=fold)`` accounts a live run's events as
    they are emitted, and keeps none of them.

    The certificate checker, which already dispatches on the event type,
    counts each event in :attr:`counts` and calls the
    :data:`REPORT_STEPS` from its own table: the fold costs it no frame
    of its own, and the summary-only steps cost it nothing.
    """

    def __init__(self) -> None:
        #: Events seen, by exact class.
        self.counts: DefaultDict[type, int] = defaultdict(int)
        self.rounds_seen = 0
        self.messages = 0
        self.message_bytes = 0
        #: The last ``execution-finished``'s figures.
        self.finished_rounds: Optional[int] = None
        self.halted = False
        self.faults_injected = 0
        self.user: Optional[str] = None
        self.server: Optional[str] = None
        self.trials = 0
        self.switches = 0
        self.wraps = 0
        self._tallies: Dict[int, _TrialTally] = {}
        self._closed_trial_rounds = 0
        self._open_index: Optional[int] = None
        self._open_rounds = 0  # Sensing consultations seen in the open trial.
        self._endorsed_index: Optional[int] = None
        self._endorsed_rounds = 0

    @property
    def events(self) -> int:
        """How many events were fed."""
        return sum(self.counts.values())

    @property
    def rounds(self) -> int:
        """The run's rounds: the finish's figure, else the rounds seen."""
        finished = self.finished_rounds
        return self.rounds_seen if finished is None else finished

    def _tally(self, index: int) -> _TrialTally:
        found = self._tallies.get(index)
        if found is None:
            found = self._tallies[index] = _TrialTally(index=index)
        return found

    def feed(self, event: Event) -> None:
        """Count one event and take its step, if the fold reads its type."""
        cls = type(event)
        self.counts[cls] += 1
        step = _STEPS[cls]
        if step is not None:
            step(self, event)

    #: As a sink, every emitted event is fed.
    emit = feed

    def _started(self, event: ExecutionStarted) -> None:
        self.user = event.user
        self.server = event.server

    def _round(self, event: RoundExecuted) -> None:
        self.rounds_seen += 1

    def _round_traffic(self, event: RoundExecuted) -> None:
        self.rounds_seen += 1
        payloads = (
            event.u2s, event.u2w, event.s2u, event.s2w, event.w2u, event.w2s
        )
        self.messages += 6 - payloads.count(None)
        self.message_bytes += sum(map(len, filter(None, payloads)))

    def _finished(self, event: ExecutionFinished) -> None:
        self.finished_rounds = event.rounds_executed
        self.halted = event.halted

    def _fault(self, event: FaultInjected) -> None:
        self.faults_injected += 1

    def _trial_started(self, event: TrialStarted) -> None:
        self._open_index = event.candidate_index
        self._open_rounds = 0
        self._endorsed_index = None  # A new trial supersedes any endorsement.
        self.trials += 1
        self._tally(event.candidate_index).trials += 1

    def _indication(self, event: SensingIndication) -> None:
        t = self._tally(event.candidate_index)
        t.indications += 1
        if not event.positive:
            t.negative_indications += 1
        if event.candidate_index == self._open_index:
            self._open_rounds += 1

    def _trial_finished(self, event: TrialFinished) -> None:
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

    def _switch(self, event: StrategySwitch) -> None:
        self.switches += 1
        if event.wrapped:
            self.wraps += 1

    def summary(
        self, path: str = "<memory>", header: Optional[Mapping[str, Any]] = None
    ) -> TraceSummary:
        """The summary of everything fed so far, for the trace at ``path``."""
        kinds: Dict[str, int] = {}
        for cls, count in self.counts.items():
            kind: str = getattr(cls, "kind")
            kinds[kind] = kinds.get(kind, 0) + count
        schema = None
        if header is not None:
            declared = header.get("trace_schema")
            schema = declared if isinstance(declared, int) else None
        return TraceSummary(
            path=path,
            trace_schema=schema,
            events=self.events,
            counts=tuple(sorted(kinds.items())),
            rounds=self.rounds,
            halted=self.halted,
            messages=self.messages,
            message_bytes=self.message_bytes,
            faults_injected=self.faults_injected,
            user=self.user,
            server=self.server,
        )

    def report(self) -> OverheadReport:
        """The decomposition of everything fed so far (the fold is unchanged)."""
        closed_trial_rounds = self._closed_trial_rounds
        open_index = self._open_index
        total_rounds = self.rounds
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
            switches=self.switches,
            wraps=self.wraps,
            trials=self.trials,
            per_strategy=per_strategy,
        )


_Step = Callable[[TraceFold, Any], None]

#: Event class -> the fold's step for it, for the classes
#: :meth:`TraceFold.report` reads (subclasses take their base's step).
REPORT_STEPS: Mapping[type, _Step] = {
    RoundExecuted: TraceFold._round,
    ExecutionFinished: TraceFold._finished,
    TrialStarted: TraceFold._trial_started,
    SensingIndication: TraceFold._indication,
    TrialFinished: TraceFold._trial_finished,
    StrategySwitch: TraceFold._switch,
}

#: Every step of the fold: the report's, and what only the summary reads
#: (the cast, the faults, and each round's messages and their length).
_STEPS: "TypeCache[Optional[_Step]]" = dispatch_table(
    {
        **REPORT_STEPS,
        RoundExecuted: TraceFold._round_traffic,
        ExecutionStarted: TraceFold._started,
        FaultInjected: TraceFold._fault,
    }
)


def fold_events(events: Iterable[Event]) -> TraceFold:
    """One pass of a fresh :class:`TraceFold` over an ordered event stream."""
    fold = TraceFold()
    feed = fold.feed
    for event in events:
        feed(event)
    return fold


def compute_overhead(events: Iterable[Event]) -> OverheadReport:
    """Attribute a traced execution's rounds to its enumerated strategies.

    Accepts any ordered event stream — ``MemorySink.events``, the stream
    from :func:`~repro.obs.sinks.iter_trace`, or a generator — and makes
    one pass of :class:`TraceFold` over it.  Traces without
    universal-user events (no trials) yield an all-zero report with
    ``settled_index=None`` and an overhead ratio of 0.0: a non-enumerating
    user has no enumeration overhead by definition.
    """
    return fold_events(events).report()


__all__ = [
    "REPORT_STEPS",
    "OverheadReport",
    "StrategyAttribution",
    "TraceFold",
    "TraceSummary",
    "compute_overhead",
    "fold_events",
]
