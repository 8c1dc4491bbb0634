"""Event taxonomy: registry completeness and dict round-trips."""

from __future__ import annotations

import pytest

from repro.obs import (
    Event,
    ExecutionFinished,
    ExecutionStarted,
    FaultInjected,
    FaultRecovered,
    GoalVerdict,
    GraceSuppressed,
    ProofFinished,
    ProofRoundChecked,
    ProofStarted,
    RoundExecuted,
    SensingIndication,
    SessionAbandoned,
    StrategySwitch,
    TrialFinished,
    TrialStarted,
    event_from_dict,
    event_kinds,
)

ALL_EVENT_TYPES = [
    ExecutionStarted,
    RoundExecuted,
    ExecutionFinished,
    SensingIndication,
    StrategySwitch,
    TrialStarted,
    TrialFinished,
    GraceSuppressed,
    FaultInjected,
    FaultRecovered,
    GoalVerdict,
    ProofStarted,
    ProofRoundChecked,
    ProofFinished,
    SessionAbandoned,
]

SAMPLES = [
    ExecutionStarted(user="u", server="s", world="w", max_rounds=10, seed=3,
                     rng_digest="abc123"),
    RoundExecuted(round_index=2, halted=False, u2s="hi", s2u="é€", w2u="OBS:1"),
    ExecutionFinished(rounds_executed=9, halted=True),
    SensingIndication(round_index=4, candidate_index=1, positive=False),
    StrategySwitch(round_index=4, from_index=1, to_index=2, wrapped=False,
                   reason="belief-decay"),
    TrialStarted(round_index=5, trial_number=2, candidate_index=2, budget=16),
    TrialFinished(round_index=8, trial_number=2, candidate_index=2,
                  rounds_used=4, reason="evicted"),
    GraceSuppressed(round_index=1, grace_rounds=4),
    FaultInjected(round_index=6, site="user->server", fault="drop"),
    FaultRecovered(round_index=7, site="user->server"),
    GoalVerdict(goal="g", compact=True, achieved=True, halted=False, rounds=9,
                settle_fraction=0.1, total_prefixes=10, bad_prefixes=2,
                last_bad_round=3),
    ProofStarted(protocol="qbf", modulus=97, claimed_value=1),
    ProofRoundChecked(index=0, op_kind="exists", var="x", degree_bound=2,
                      poly="1,0,96", challenge=11, claim_before=1,
                      claim_after=42),
    ProofFinished(accepted=True),
    SessionAbandoned(session_id="s-1", rounds_completed=7, reason="failure"),
]


class TestRegistry:
    def test_every_event_type_is_registered(self):
        registry = event_kinds()
        for cls in ALL_EVENT_TYPES:
            assert registry[cls.kind] is cls

    def test_kinds_are_unique(self):
        kinds = [cls.kind for cls in ALL_EVENT_TYPES]
        assert len(kinds) == len(set(kinds))

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            event_from_dict({"kind": "no-such-event"})

    def test_mismatched_payload_raises(self):
        with pytest.raises(TypeError):
            event_from_dict({"kind": "round-executed", "bogus": 1})


class TestRoundTrip:
    @pytest.mark.parametrize("event", SAMPLES, ids=lambda e: e.kind)
    def test_dict_round_trip_is_identity(self, event: Event):
        assert event_from_dict(event.to_dict()) == event

    @pytest.mark.parametrize("event", SAMPLES, ids=lambda e: e.kind)
    def test_kind_is_first_key(self, event: Event):
        assert next(iter(event.to_dict())) == "kind"

    def test_field_order_is_declaration_order(self):
        keys = list(SAMPLES[1].to_dict())
        assert keys == [
            "kind", "round_index", "halted",
            "u2s", "u2w", "s2u", "s2w", "w2u", "w2s",
        ]

    def test_round_counts_and_bytes_derive_from_its_payloads(self):
        event = SAMPLES[1]
        assert event.payloads == ("hi", None, "é€", None, "OBS:1", None)
        assert (event.messages, event.message_bytes) == (3, 9)
        silent = RoundExecuted(round_index=0, halted=True)
        assert (silent.messages, silent.message_bytes) == (0, 0)

    def test_samples_cover_every_registered_kind(self):
        """A new event type must gain a sample here (and thus a round-trip)."""
        assert {e.kind for e in SAMPLES} == set(event_kinds())

    def test_every_kind_round_trips_through_a_trace_file(self, tmp_path):
        """JsonlSink → read_trace is the identity for every event type."""
        from repro.obs import (
            TRACE_SCHEMA,
            TRACE_SCHEMA_MINOR,
            JsonlSink,
            read_trace,
        )

        path = tmp_path / "all-kinds.jsonl"
        with JsonlSink(path) as sink:
            for event in SAMPLES:
                sink.emit(event)
        header, events = read_trace(path)
        assert header == {
            "trace_schema": TRACE_SCHEMA,
            "trace_schema_minor": TRACE_SCHEMA_MINOR,
        }
        assert events == SAMPLES
