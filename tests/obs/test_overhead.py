"""Overhead accounting: hand-built traces with known answers, live users."""

from __future__ import annotations

import pytest

from repro.comm.codecs import codec_family
from repro.core.execution import run_execution
from repro.obs import MemorySink, Tracer
from repro.obs.events import (
    ExecutionFinished,
    RoundExecuted,
    SensingIndication,
    StrategySwitch,
    TrialFinished,
    TrialStarted,
)
from repro.obs.overhead import compute_overhead
from repro.servers.advisors import advisor_server_class
from repro.universal.bayesian import BeliefWeightedUniversalUser
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.users.control_users import follower_user_class
from repro.worlds.control import control_goal, control_sensing, random_law

import random

LAW = random_law(random.Random(5))
GOAL = control_goal(LAW)
CODECS = codec_family(6)
SERVERS = advisor_server_class(LAW, CODECS)


def rounds(n, start=0):
    return [
        RoundExecuted(round_index=start + i, halted=False, u2s="ab")
        for i in range(n)
    ]


class TestHandBuiltTraces:
    def test_empty_trace_is_all_zero(self):
        report = compute_overhead([])
        assert report.total_rounds == 0
        assert report.overhead_rounds == 0
        assert report.overhead_ratio == 0.0
        assert report.settled_index is None
        assert report.per_strategy == ()

    def test_no_trial_events_means_no_overhead(self):
        """A non-enumerating user's trace: rounds, but zero overhead."""
        report = compute_overhead(
            rounds(7) + [ExecutionFinished(rounds_executed=7, halted=True)]
        )
        assert report.total_rounds == 7
        assert report.productive_rounds == 0
        assert report.overhead_rounds == 7
        assert report.trials == 0

    def test_known_two_trial_split(self):
        """Candidate 0 burns 3 rounds, candidate 1 settles for 5: ratio 3/8."""
        events = [
            TrialStarted(round_index=0, trial_number=0, candidate_index=0),
            *rounds(3),
            SensingIndication(round_index=2, candidate_index=0, positive=False),
            TrialFinished(round_index=2, trial_number=0, candidate_index=0,
                          rounds_used=3, reason="evicted"),
            StrategySwitch(round_index=2, from_index=0, to_index=1,
                           wrapped=False),
            TrialStarted(round_index=3, trial_number=1, candidate_index=1),
            *rounds(5, start=3),
            ExecutionFinished(rounds_executed=8, halted=False),
        ]
        report = compute_overhead(events)
        assert report.total_rounds == 8
        assert report.productive_rounds == 5
        assert report.overhead_rounds == 3
        assert report.overhead_ratio == pytest.approx(3 / 8)
        assert report.settled_index == 1
        assert report.switches == 1
        assert report.wraps == 0
        assert report.trials == 2
        assert report.strategy(0).rounds == 3
        assert report.strategy(0).switched_away
        assert report.strategy(1).rounds == 5
        assert not report.strategy(1).switched_away

    def test_endorsed_trial_is_productive_rest_is_overhead(self):
        """Finite user's halt: the endorsed trial's rounds are productive."""
        events = [
            TrialStarted(round_index=0, trial_number=0, candidate_index=0,
                         budget=4),
            TrialFinished(round_index=3, trial_number=0, candidate_index=0,
                          rounds_used=4, reason="budget"),
            TrialStarted(round_index=4, trial_number=1, candidate_index=1,
                         budget=4),
            TrialFinished(round_index=6, trial_number=1, candidate_index=1,
                          rounds_used=3, reason="endorsed"),
            ExecutionFinished(rounds_executed=7, halted=True),
        ]
        report = compute_overhead(rounds(7) + events)
        assert report.total_rounds == 7
        assert report.productive_rounds == 3
        assert report.overhead_rounds == 4
        assert report.settled_index == 1

    def test_abandoned_last_trial_settles_nowhere(self):
        events = [
            TrialStarted(round_index=0, trial_number=0, candidate_index=0,
                         budget=4),
            TrialFinished(round_index=3, trial_number=0, candidate_index=0,
                          rounds_used=4, reason="budget"),
            ExecutionFinished(rounds_executed=4, halted=False),
        ]
        report = compute_overhead(rounds(4) + events)
        assert report.settled_index is None
        assert report.productive_rounds == 0
        assert report.overhead_rounds == 4

    def test_user_only_trace_counts_sensing_consultations(self):
        """No engine events at all: totals come from the user's own stream."""
        events = [
            TrialStarted(round_index=0, trial_number=0, candidate_index=0),
            SensingIndication(round_index=0, candidate_index=0, positive=True),
            SensingIndication(round_index=1, candidate_index=0, positive=False),
            TrialFinished(round_index=1, trial_number=0, candidate_index=0,
                          rounds_used=2, reason="evicted"),
            StrategySwitch(round_index=1, from_index=0, to_index=1,
                           wrapped=False),
            TrialStarted(round_index=2, trial_number=1, candidate_index=1),
            SensingIndication(round_index=2, candidate_index=1, positive=True),
        ]
        report = compute_overhead(events)
        assert report.total_rounds == 3
        assert report.productive_rounds == 1
        assert report.overhead_rounds == 2
        assert report.settled_index == 1

    def test_wraps_are_counted(self):
        events = [
            StrategySwitch(round_index=5, from_index=2, to_index=0,
                           wrapped=True),
            StrategySwitch(round_index=9, from_index=0, to_index=1,
                           wrapped=False),
        ]
        report = compute_overhead(events)
        assert report.switches == 2
        assert report.wraps == 1

    def test_report_renders_text_and_json(self):
        events = [
            TrialStarted(round_index=0, trial_number=0, candidate_index=0),
            *rounds(2),
            ExecutionFinished(rounds_executed=2, halted=False),
        ]
        report = compute_overhead(events)
        text = report.format()
        assert "total rounds" in text and "per-strategy" in text
        data = report.to_dict()
        assert data["total_rounds"] == 2
        assert data["per_strategy"][0]["index"] == 0


def traced_run(user, server, max_rounds=1200, seed=0):
    sink = MemorySink()
    result = run_execution(
        user, server, GOAL.world, max_rounds=max_rounds, seed=seed,
        tracer=Tracer(sink=sink),
    )
    return result, compute_overhead(sink.events)


class TestLiveUsers:
    def test_compact_user_accounting_matches_state(self):
        position = 3
        user = CompactUniversalUser(
            ListEnumeration(follower_user_class(CODECS)), control_sensing()
        )
        result, report = traced_run(user, SERVERS[position])
        assert GOAL.evaluate(result).achieved
        assert report.total_rounds == result.rounds_executed
        assert report.switches == position
        assert report.settled_index == position
        state = result.rounds[-1].user_state_after
        assert report.switches == state.switches

    def test_compact_position_zero_has_zero_overhead(self):
        user = CompactUniversalUser(
            ListEnumeration(follower_user_class(CODECS)), control_sensing()
        )
        _, report = traced_run(user, SERVERS[0])
        assert report.overhead_rounds == 0
        assert report.overhead_ratio == 0.0

    def test_belief_weighted_user_emits_accountable_trace(self):
        user = BeliefWeightedUniversalUser(
            ListEnumeration(follower_user_class(CODECS)), control_sensing()
        )
        result, report = traced_run(user, SERVERS[2], max_rounds=2400)
        assert report.total_rounds == result.rounds_executed
        assert report.trials >= 1
        assert report.settled_index is not None
        assert report.productive_rounds + report.overhead_rounds == (
            report.total_rounds
        )

    def test_finite_user_endorsed_halt_is_accounted(self):
        from repro.comm.codecs import IdentityCodec
        from repro.servers.password import all_passwords, password_server_class
        from repro.users.control_users import (
            AdvisorFollowingUser,
            password_user_class,
        )

        law = {"red": "blue", "blue": "red"}
        goal = control_goal(law)
        users = password_user_class(
            all_passwords(2), lambda: AdvisorFollowingUser(IdentityCodec())
        )
        user = CompactUniversalUser(
            ListEnumeration(users, label="pw2"), control_sensing()
        )
        servers = password_server_class(2, law)
        sink = MemorySink()
        result = run_execution(
            user, servers[1], goal.world, max_rounds=6000, seed=0,
            tracer=Tracer(sink=sink),
        )
        report = compute_overhead(sink.events)
        assert goal.evaluate(result).achieved
        assert report.settled_index == 1
        assert report.switches == 1
