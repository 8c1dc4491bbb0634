"""Tracing wired through the engine, the universal users, and the sweeps.

The contracts under test:

* the traced event stream is a faithful account of the execution — round
  events match :class:`RoundRecord` order, counters agree with
  ``ExecutionResult.rounds_executed`` and ``RunMetrics.switches``;
* tracing is invisible — a traced run and an untraced run of the same
  seed produce identical results, and ``tracer=None`` stays deterministic;
* the JSONL trace of a universal run replays to the same statistics.
"""

from __future__ import annotations

import random

from repro.analysis.metrics import collect_metrics
from repro.analysis.runner import sweep
from repro.comm.codecs import codec_family
from repro.comm.messages import UserInbox, UserOutbox
from repro.core.execution import run_execution
from repro.core.sensing import ConstantSensing, GraceSensing
from repro.core.views import UserView, ViewRecord
from repro.obs import (
    CounterSet,
    ExecutionFinished,
    ExecutionStarted,
    GraceSuppressed,
    JsonlSink,
    MemorySink,
    NoopTracer,
    RoundExecuted,
    SensingIndication,
    StrategySwitch,
    Tracer,
    TrialFinished,
    TrialStarted,
    read_jsonl,
)
from repro.servers.advisors import advisor_server_class
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.universal.finite import FiniteUniversalUser
from repro.users.control_users import follower_user_class
from repro.worlds.control import control_goal, control_sensing, random_law

CODECS = codec_family(4)
LAW = random_law(random.Random(1))
GOAL = control_goal(LAW)
SERVERS = advisor_server_class(LAW, CODECS)
HORIZON = 600


def compact_universal():
    return CompactUniversalUser(
        ListEnumeration(follower_user_class(CODECS)), control_sensing()
    )


def traced_run(server_index=-1, *, seed=0, sink=None):
    tracer = Tracer(
        sink=sink if sink is not None else MemorySink(), counters=CounterSet()
    )
    user = compact_universal()
    result = run_execution(
        user, SERVERS[server_index], GOAL.world,
        max_rounds=HORIZON, seed=seed, tracer=tracer,
    )
    return result, tracer


class TestEngineEventStream:
    def test_bracketed_by_start_and_finish(self):
        result, tracer = traced_run()
        events = tracer.sink.events
        assert isinstance(events[0], ExecutionStarted)
        assert isinstance(events[-1], ExecutionFinished)
        assert events[-1].rounds_executed == result.rounds_executed

    def test_round_events_match_round_record_order(self):
        result, tracer = traced_run()
        round_events = tracer.sink.of_kind(RoundExecuted)
        assert [e.round_index for e in round_events] == [
            r.index for r in result.rounds
        ]

    def test_message_events_match_round_traffic(self):
        """Each round event's payloads are the record's outboxes, silence None."""
        result, tracer = traced_run()
        round_events = tracer.sink.of_kind(RoundExecuted)
        assert len(round_events) == len(result.rounds)
        for event, record in zip(round_events, result.rounds):
            expected = tuple(
                p or None
                for p in (
                    record.user_outbox.to_server,
                    record.user_outbox.to_world,
                    record.server_outbox.to_user,
                    record.server_outbox.to_world,
                    record.world_outbox.to_user,
                    record.world_outbox.to_server,
                )
            )
            assert event.payloads == expected
        assert any(event.messages for event in round_events)  # Not vacuous.

    def test_round_counter_agrees_with_execution(self):
        result, tracer = traced_run()
        assert tracer.counters.get("rounds") == result.rounds_executed

    def test_message_counters_agree_with_events(self):
        _, tracer = traced_run()
        sent = [
            payload
            for event in tracer.sink.of_kind(RoundExecuted)
            for payload in event.payloads
            if payload is not None
        ]
        assert tracer.counters.get("messages") == len(sent) > 0
        assert tracer.counters.get("message_bytes") == sum(map(len, sent))


class TestUniversalUserEvents:
    def test_switch_counter_agrees_with_run_metrics(self):
        result, tracer = traced_run()
        metrics = collect_metrics(result, GOAL)
        assert metrics.switches == len(SERVERS) - 1  # settles on the last codec
        assert tracer.counters.get("switches") == metrics.switches
        assert len(tracer.sink.of_kind(StrategySwitch)) == metrics.switches

    def test_switches_walk_the_enumeration_in_order(self):
        _, tracer = traced_run()
        switches = tracer.sink.of_kind(StrategySwitch)
        assert [(s.from_index, s.to_index) for s in switches] == [
            (i, i + 1) for i in range(len(SERVERS) - 1)
        ]
        assert not any(s.wrapped for s in switches)

    def test_sensing_indication_every_user_round(self):
        result, tracer = traced_run()
        indications = tracer.sink.of_kind(SensingIndication)
        assert len(indications) == result.rounds_executed
        assert [e.round_index for e in indications] == list(
            range(result.rounds_executed)
        )
        positives = tracer.counters.get("sensing_positive")
        negatives = tracer.counters.get("sensing_negative")
        assert positives + negatives == len(indications)
        assert negatives == tracer.counters.get("switches")

    def test_trials_bracket_switches(self):
        _, tracer = traced_run()
        started = tracer.sink.of_kind(TrialStarted)
        finished = tracer.sink.of_kind(TrialFinished)
        assert [t.candidate_index for t in started] == list(range(len(SERVERS)))
        assert [t.candidate_index for t in finished] == list(range(len(SERVERS) - 1))
        assert all(t.reason == "evicted" for t in finished)

    def test_wrap_around_is_flagged(self):
        tracer = Tracer(sink=MemorySink(), counters=CounterSet())
        user = CompactUniversalUser(
            ListEnumeration(follower_user_class(CODECS)),
            ConstantSensing(False),  # Condemns everything: forces wrapping.
        )
        run_execution(
            user, SERVERS[0], GOAL.world, max_rounds=12, seed=0, tracer=tracer
        )
        wrapped = [s for s in tracer.sink.of_kind(StrategySwitch) if s.wrapped]
        assert wrapped
        assert all(s.to_index == 0 for s in wrapped)
        assert tracer.counters.get("wraps") == len(wrapped)


class TestFiniteUniversalEvents:
    @staticmethod
    def _printer_setup():
        from repro.servers.printer_servers import DIALECTS, printer_server_class
        from repro.universal.schedules import doubling_sweep_trials
        from repro.users.printer_users import printer_user_class
        from repro.worlds.printer import printing_goal, printing_sensing

        codecs = codec_family(2)
        goal = printing_goal(["report"])
        servers = printer_server_class(DIALECTS, codecs)
        user = FiniteUniversalUser(
            ListEnumeration(printer_user_class(DIALECTS, codecs)),
            printing_sensing(),
            schedule_factory=lambda cap: doubling_sweep_trials(
                None if cap is None else cap - 1
            ),
        )
        return user, servers, goal

    def test_trial_events_agree_with_trials_run(self):
        tracer = Tracer(sink=MemorySink(), counters=CounterSet())
        user, servers, goal = self._printer_setup()
        result = run_execution(
            user, servers[-1], goal.world, max_rounds=3000, seed=0, tracer=tracer
        )
        assert goal.evaluate(result).achieved
        metrics = collect_metrics(result, goal)
        started = tracer.sink.of_kind(TrialStarted)
        assert metrics.trials == len(started)
        assert tracer.counters.get("trials") == metrics.trials
        assert all(t.budget is not None for t in started)

    def test_last_trial_is_endorsed(self):
        tracer = Tracer(sink=MemorySink())
        user, servers, goal = self._printer_setup()
        run_execution(
            user, servers[-1], goal.world, max_rounds=3000, seed=0, tracer=tracer
        )
        finished = tracer.sink.of_kind(TrialFinished)
        assert finished[-1].reason == "endorsed"
        assert all(f.reason in {"budget", "halt-rejected"} for f in finished[:-1])
        # Every finished trial was started, with matching numbering.
        started_numbers = [t.trial_number for t in tracer.sink.of_kind(TrialStarted)]
        assert [f.trial_number for f in finished] == sorted(
            f.trial_number for f in finished
        )
        assert set(f.trial_number for f in finished) <= set(started_numbers)


class TestGraceSuppression:
    def test_grace_masking_negative_inner_is_reported(self):
        tracer = Tracer(sink=MemorySink(), counters=CounterSet())
        sensing = GraceSensing(ConstantSensing(False), grace_rounds=3).with_tracer(tracer)
        user = CompactUniversalUser(
            ListEnumeration(follower_user_class(CODECS)), sensing
        )
        run_execution(
            user, SERVERS[0], GOAL.world, max_rounds=8, seed=0, tracer=tracer
        )
        suppressed = tracer.sink.of_kind(GraceSuppressed)
        # Every trial's first 3 rounds are suppressed negatives.
        assert suppressed
        assert all(e.grace_rounds == 3 for e in suppressed)
        assert tracer.counters.get("grace_suppressed") == len(suppressed)

    def test_grace_without_tracer_stays_silent_and_identical(self):
        plain = GraceSensing(ConstantSensing(False), grace_rounds=3)
        tracer = Tracer(sink=MemorySink())
        traced = plain.with_tracer(tracer)
        view = UserView(
            [ViewRecord(i, i, UserInbox(), UserOutbox(), i + 1) for i in range(2)]
        )
        assert plain.indicate(view) is traced.indicate(view) is True
        assert plain.tracer is None
        suppressed = tracer.sink.of_kind(GraceSuppressed)
        assert [e.round_index for e in suppressed] == [0, 1]


class TestTracingIsInvisible:
    def _outcome_fingerprint(self, result):
        return (
            result.rounds_executed,
            result.halted,
            result.user_output,
            [str(s) for s in result.world_states],
            [(r.user_outbox, r.server_outbox, r.world_outbox) for r in result.rounds],
        )

    def test_untraced_run_is_deterministic(self):
        a = run_execution(
            compact_universal(), SERVERS[-1], GOAL.world,
            max_rounds=HORIZON, seed=0, tracer=None,
        )
        b = run_execution(
            compact_universal(), SERVERS[-1], GOAL.world,
            max_rounds=HORIZON, seed=0, tracer=None,
        )
        assert self._outcome_fingerprint(a) == self._outcome_fingerprint(b)

    def test_traced_equals_untraced(self):
        untraced = run_execution(
            compact_universal(), SERVERS[-1], GOAL.world,
            max_rounds=HORIZON, seed=0,
        )
        traced, _ = traced_run(-1, seed=0)
        assert self._outcome_fingerprint(untraced) == self._outcome_fingerprint(traced)

    def test_noop_tracer_equals_untraced(self):
        untraced = run_execution(
            compact_universal(), SERVERS[-1], GOAL.world,
            max_rounds=HORIZON, seed=0,
        )
        noop = NoopTracer()
        nooped = run_execution(
            compact_universal(), SERVERS[-1], GOAL.world,
            max_rounds=HORIZON, seed=0, tracer=noop,
        )
        assert self._outcome_fingerprint(untraced) == self._outcome_fingerprint(nooped)

    def test_jsonl_traces_are_byte_identical_across_runs(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            sink = JsonlSink(path)
            _, tracer = traced_run(-1, seed=0, sink=sink)
            tracer.close()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_jsonl_replay_matches_live_counters(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        result, tracer = traced_run(-1, seed=0, sink=sink)
        tracer.close()
        replayed = read_jsonl(path)
        replay_tracer = Tracer()
        for event in replayed:
            replay_tracer.emit(event)
        assert replay_tracer.counters.snapshot() == tracer.counters.snapshot()
        metrics = collect_metrics(result, GOAL)
        assert replay_tracer.counters.get("switches") == metrics.switches


class TestSweepTelemetry:
    def test_cells_carry_aggregated_counters(self):
        result = sweep(
            compact_universal(), SERVERS, GOAL,
            seeds=(0, 1), max_rounds=HORIZON, telemetry=True,
        )
        assert result.universal_success
        for index, cell in enumerate(result.cells):
            telemetry = cell.telemetry
            assert telemetry is not None
            assert telemetry.get("rounds") == sum(m.rounds for m in cell.runs)
            assert telemetry.get("switches") == sum(m.switches for m in cell.runs)
            assert telemetry.get("messages") > 0
            assert telemetry.get("message_bytes") > 0

    def test_telemetry_off_leaves_cells_bare(self):
        result = sweep(
            compact_universal(), SERVERS[:1], GOAL, seeds=(0,), max_rounds=HORIZON
        )
        assert result.cells[0].telemetry is None

    def test_telemetry_does_not_change_outcomes(self):
        plain = sweep(
            compact_universal(), SERVERS, GOAL, seeds=(0,), max_rounds=HORIZON
        )
        traced = sweep(
            compact_universal(), SERVERS, GOAL,
            seeds=(0,), max_rounds=HORIZON, telemetry=True,
        )
        assert [c.runs for c in plain.cells] == [c.runs for c in traced.cells]
