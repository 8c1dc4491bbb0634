"""The one trace fold equals the summary and the overhead fold it replaced.

:class:`~repro.obs.overhead.TraceFold` keeps every count that
``summarize``, ``overhead``, ``diff`` and ``certify`` read.  The two
references below are the separate passes it replaced — the summary's
``isinstance`` chain and the overhead fold's dispatch table — copied with
their logic unchanged.  On every input (the certify demo, the user-only goldens, a
served mixed ledger on a lossy channel, a recorded run and its QBF
companion, a flight dump, and a hand-built stream of non-ASCII payloads)
the one fold's summary and report must equal theirs, field for field.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

import pytest

from repro.comm.codecs import IdentityCodec, codec_family
from repro.faults.channel import drop_channel
from repro.mathx.modular import Field
from repro.obs.analyze import summarize_events, summarize_trace, trace_metrics
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
from repro.obs.ledger import record_run
from repro.obs.overhead import (
    OverheadReport,
    StrategyAttribution,
    TraceSummary,
    compute_overhead,
    fold_events,
)
from repro.obs.sinks import JsonlSink, Sink, iter_trace, read_trace
from repro.qbf.generators import random_qbf
from repro.serve.loadgen import demo_specs
from repro.serve.session import Session
from repro.servers.advisors import advisor_server_class
from repro.servers.provers import HonestProverServer
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.users.control_users import follower_user_class
from repro.users.delegation_users import DelegationUser
from repro.worlds.computation import delegation_goal
from repro.worlds.control import control_goal, control_sensing, random_law

ROOT = Path(__file__).resolve().parents[2]
DEMO = ROOT / "benchmarks" / "data" / "certify_demo.jsonl"
GOLDENS = sorted((ROOT / "tests" / "universal" / "data").glob("*.jsonl"))


# --------------------------------------------------------------------------
# The references: the summary pass and the overhead fold, as they were.
# --------------------------------------------------------------------------


def reference_summarize_events(
    events: Iterable[Event],
    *,
    path: str = "<memory>",
    header: Optional[Mapping[str, Any]] = None,
) -> TraceSummary:
    kinds: "Counter[str]" = Counter()
    total = 0
    rounds = 0
    halted = False
    messages = 0
    message_bytes = 0
    faults = 0
    user: Optional[str] = None
    server: Optional[str] = None
    for event in events:
        kinds[event.kind] += 1
        total += 1
        if isinstance(event, RoundExecuted):
            rounds += 1
            messages += event.messages
            message_bytes += event.message_bytes
        elif isinstance(event, ExecutionFinished):
            rounds = event.rounds_executed
            halted = event.halted
        elif isinstance(event, ExecutionStarted):
            user = event.user
            server = event.server
        elif isinstance(event, FaultInjected):
            faults += 1
    schema = None
    if header is not None:
        declared = header.get("trace_schema")
        schema = declared if isinstance(declared, int) else None
    return TraceSummary(
        path=path,
        trace_schema=schema,
        events=total,
        counts=tuple(sorted(kinds.items())),
        rounds=rounds,
        halted=halted,
        messages=messages,
        message_bytes=message_bytes,
        faults_injected=faults,
        user=user,
        server=server,
    )


_SUCCESS_REASONS = frozenset({TRIAL_ENDORSED})


class _TrialTally:
    def __init__(self, index: int) -> None:
        self.index = index
        self.trials = 0
        self.rounds = 0
        self.indications = 0
        self.negative_indications = 0
        self.switched_away = False


class ReferenceOverheadFold(Sink):
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
        handler = _FEEDERS[type(event)]
        if handler is not None:
            handler(self, event)

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
        closed_trial_rounds = self._closed_trial_rounds
        open_index = self._open_index
        engine_rounds = self._engine_rounds
        total_rounds = (
            engine_rounds if engine_rounds is not None else self._rounds_executed
        )
        if total_rounds == 0:
            total_rounds = closed_trial_rounds + self._open_rounds
        open_trial_rounds = max(0, total_rounds - closed_trial_rounds)
        settled_index: Optional[int]
        if open_index is not None:
            settled_index = open_index
            productive_rounds = open_trial_rounds
        elif self._endorsed_index is not None:
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


_FEEDERS: "TypeCache[Optional[Callable[[ReferenceOverheadFold, Any], None]]]" = (
    dispatch_table(
        {
            RoundExecuted: ReferenceOverheadFold._feed_round,
            ExecutionFinished: ReferenceOverheadFold._feed_finished,
            TrialStarted: ReferenceOverheadFold._feed_trial_started,
            SensingIndication: ReferenceOverheadFold._feed_indication,
            TrialFinished: ReferenceOverheadFold._feed_trial_finished,
            StrategySwitch: ReferenceOverheadFold._feed_switch,
        }
    )
)


def reference_overhead(events: Iterable[Event]) -> OverheadReport:
    fold = ReferenceOverheadFold()
    for event in events:
        fold.feed(event)
    return fold.report()


# --------------------------------------------------------------------------
# Inputs.
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def served(tmp_path_factory) -> List[Path]:
    """A served mixed ledger on a 10%-drop channel (the serve smoke's shape)."""
    out = tmp_path_factory.mktemp("served")
    specs = demo_specs("mixed", 30, seed=17, max_rounds=150, drop=0.1)
    for index, spec in enumerate(specs):
        session = Session(
            spec, session_id=f"s{index:06d}", ledger_dir=out, trace=True
        )
        session.step(spec.max_rounds)
        session.close()
    return sorted(out.glob("*.jsonl"))


@pytest.fixture(scope="module")
def recorded(tmp_path_factory) -> List[Path]:
    """The ledger-smoke runs: a faulted universal run, then a QBF run."""
    out = tmp_path_factory.mktemp("recorded")
    law = random_law(random.Random(11))
    codecs = codec_family(4)
    run = record_run(
        CompactUniversalUser(
            ListEnumeration(follower_user_class(codecs)), control_sensing()
        ),
        advisor_server_class(law, codecs)[2],
        control_goal(law),
        max_rounds=1200, seed=0, out_dir=out, name="run",
        channel=drop_channel(0.05),
    )
    field = Field()
    qbf = record_run(
        DelegationUser(IdentityCodec(), field),
        HonestProverServer(field),
        delegation_goal([random_qbf(random.Random(s), 2) for s in (1, 4)]),
        max_rounds=300, seed=0, out_dir=out, name="qbf",
    )
    return [run.trace_path, qbf.trace_path]


@pytest.fixture(scope="module")
def flight(tmp_path_factory) -> Path:
    """The flight dump of a universal session abandoned mid-run."""
    out = tmp_path_factory.mktemp("flight")
    spec = demo_specs("universal", 1, seed=5, max_rounds=200, drop=0.1)[0]
    session = Session(spec, session_id="f0", ledger_dir=out, flight=32)
    session.step(120)
    session.abandon()
    assert session.flight_path is not None
    return session.flight_path


@pytest.fixture(scope="module")
def non_ascii(tmp_path_factory) -> Path:
    """Non-ASCII payloads, a wrapped switch, a fault and a halt."""
    path = tmp_path_factory.mktemp("non-ascii") / "non_ascii.jsonl"
    events = [
        ExecutionStarted(user="ü", server="ß", world="w", max_rounds=9, seed=1),
        TrialStarted(round_index=0, trial_number=0, candidate_index=1, budget=3),
        RoundExecuted(round_index=0, halted=False, u2s="é€𝄞", s2u="\\\""),
        FaultInjected(round_index=1, site="user->server", fault="drop"),
        SensingIndication(round_index=1, candidate_index=1, positive=False),
        RoundExecuted(round_index=1, halted=False, w2u="ω", w2s="\udfff"),
        TrialFinished(
            round_index=1, trial_number=0, candidate_index=1,
            reason="evicted", rounds_used=2,
        ),
        StrategySwitch(
            round_index=1, from_index=1, to_index=0,
            reason="sensing-negative", wrapped=True,
        ),
        TrialStarted(round_index=2, trial_number=1, candidate_index=0, budget=None),
        SensingIndication(round_index=2, candidate_index=0, positive=True),
        RoundExecuted(round_index=2, halted=True, u2w="Ж"),
        ExecutionFinished(rounds_executed=3, halted=True),
    ]
    with JsonlSink(path) as sink:
        for event in events:
            sink.emit(event)
    return path


def inputs(request: Any) -> List[Path]:
    return [
        DEMO,
        *GOLDENS,
        *request.getfixturevalue("served"),
        *request.getfixturevalue("recorded"),
        request.getfixturevalue("flight"),
        request.getfixturevalue("non_ascii"),
    ]


# --------------------------------------------------------------------------
# The one fold against the references.
# --------------------------------------------------------------------------


def test_inputs_cover_what_the_fold_counts(request):
    """Not vacuous: wraps, halts, faults and multi-byte payloads occur."""
    assert len(GOLDENS) == 11
    seen: "Counter[str]" = Counter()
    for path in inputs(request):
        for event in read_trace(path)[1]:
            if isinstance(event, StrategySwitch) and event.wrapped:
                seen["wrap"] += 1
            elif isinstance(event, ExecutionFinished) and event.halted:
                seen["halt"] += 1
            elif isinstance(event, FaultInjected):
                seen["fault"] += 1
            elif isinstance(event, RoundExecuted) and any(
                len(p) != len(p.encode("utf-8", "surrogatepass"))
                for p in event.payloads if p
            ):
                seen["non-ascii"] += 1
    assert min(seen[key] for key in ("wrap", "halt", "fault", "non-ascii")) > 0


def test_one_fold_equals_the_summary_and_overhead_passes(request):
    for path in inputs(request):
        header, events = read_trace(path)
        expected_summary = reference_summarize_events(
            events, path=str(path), header=header or None
        ).to_dict()
        expected_report = reference_overhead(events).to_dict()
        fold = fold_events(events)
        assert fold.summary(str(path), header or None).to_dict() == (
            expected_summary
        ), path
        assert fold.report().to_dict() == expected_report, path
        # The readers of the fold, each one streaming pass.
        assert summarize_trace(path).to_dict() == expected_summary, path
        assert summarize_events(
            events, path=str(path), header=header or None
        ).to_dict() == expected_summary, path
        assert compute_overhead(iter_trace(path)[1]).to_dict() == (
            expected_report
        ), path
        metrics = trace_metrics(path)
        assert metrics == {
            "events": expected_summary["events"],
            "rounds": expected_summary["rounds"],
            "messages": expected_summary["messages"],
            "message_bytes": expected_summary["message_bytes"],
            "faults_injected": expected_summary["faults_injected"],
            "overhead_rounds": expected_report["overhead_rounds"],
            "overhead_ratio": expected_report["overhead_ratio"],
            "switches": expected_report["switches"],
            "trials": expected_report["trials"],
        }, path


def test_fold_as_a_sink_equals_the_fold_of_the_stream(request):
    for path in inputs(request):
        _, events = read_trace(path)
        sink = fold_events(())
        for event in events:
            sink.emit(event)
        assert sink.report() == reference_overhead(events), path
        assert sink.summary() == reference_summarize_events(events), path
