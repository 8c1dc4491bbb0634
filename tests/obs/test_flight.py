"""Flight recorder: the bounded ring, tee fan-out, and fragment certificates.

The flight buffer is the black box for long-running serving: it must
evict deterministically, compose with full tracing through a tee, dump
to an ordinary schema-versioned trace fragment, and that fragment must
certify under ``--fragment`` — accepting the invariants a missing prefix
cannot break while still rejecting the tampering it *can* detect.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.certify import FRAGMENT_CHECKS, certify_events, certify_trace
from repro.obs.events import (
    ABANDON_FAILURE,
    RoundExecuted,
    SensingIndication,
    SessionAbandoned,
    StrategySwitch,
    TrialFinished,
    TrialStarted,
    event_from_dict,
)
from repro.obs.flight import FlightBuffer, TeeSink, dump_flight
from repro.obs.sinks import MemorySink, iter_trace


def _round(index, **payloads):
    return RoundExecuted(round_index=index, halted=False, **payloads)


class TestFlightBuffer:
    def test_keeps_only_the_most_recent_events(self):
        buf = FlightBuffer(capacity=3)
        for i in range(7):
            buf.emit(_round(i))
        assert len(buf) == 3
        assert buf.evicted == 4
        assert [e.round_index for e in buf.events] == [4, 5, 6]

    def test_under_capacity_evicts_nothing(self):
        buf = FlightBuffer(capacity=10)
        buf.emit(_round(0))
        assert buf.evicted == 0
        assert len(buf) == 1

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            FlightBuffer(capacity=0)

    def test_clear_resets_ring_and_eviction_count(self):
        buf = FlightBuffer(capacity=1)
        buf.emit(_round(0))
        buf.emit(_round(1))
        buf.clear()
        assert len(buf) == 0
        assert buf.evicted == 0


class TestTeeSink:
    def test_fans_out_to_every_child_in_order(self):
        a, b = MemorySink(), MemorySink()
        tee = TeeSink(a, b)
        tee.emit(_round(0))
        assert a.events == b.events
        assert len(a.events) == 1

    def test_close_closes_all_children_despite_errors(self):
        closed = []

        class Recording(MemorySink):
            def __init__(self, label, explode=False):
                super().__init__()
                self.label = label
                self.explode = explode

            def close(self):
                closed.append(self.label)
                if self.explode:
                    raise RuntimeError("flush failed")

        tee = TeeSink(Recording("first", explode=True), Recording("last"))
        with pytest.raises(RuntimeError, match="flush failed"):
            tee.close()
        assert closed == ["first", "last"]

    def test_requires_at_least_one_child(self):
        with pytest.raises(ValueError):
            TeeSink()


class TestDumpFlight:
    def test_dump_is_readable_by_iter_trace(self, tmp_path):
        buf = FlightBuffer(capacity=2)
        for i in range(5):
            buf.emit(_round(i))
        path = dump_flight(buf, tmp_path / "flight" / "s-9.jsonl")
        header, events = iter_trace(path)
        assert header["flight"] is True
        assert header["evicted"] == 3
        assert [e.round_index for e in events] == [3, 4]

    def test_header_extras_merge_without_clobbering(self, tmp_path):
        buf = FlightBuffer(capacity=4)
        buf.emit(_round(0))
        path = dump_flight(
            buf, tmp_path / "f.jsonl", header={"session_id": "s-1", "flight": False}
        )
        header, _ = iter_trace(path)
        # Reserved keys win over caller extras; new keys pass through.
        assert header["flight"] is True
        assert header["session_id"] == "s-1"

    def test_plain_iterable_dumps_without_eviction_count(self, tmp_path):
        path = dump_flight([_round(0)], tmp_path / "f.jsonl")
        header, events = iter_trace(path)
        assert "evicted" not in header
        assert len(list(events)) == 1


def _fragment_events():
    """A plausible mid-stream window: trial machinery from round 5 on."""
    return [
        _round(5, u2s="a"),
        SensingIndication(round_index=6, candidate_index=2, positive=False),
        TrialFinished(
            round_index=6,
            trial_number=3,
            candidate_index=2,
            reason="evicted",
            rounds_used=4,
        ),
        StrategySwitch(
            round_index=6,
            from_index=2,
            to_index=3,
            reason="sensing-negative",
            wrapped=False,
        ),
        TrialStarted(round_index=6, trial_number=4, candidate_index=3, budget=None),
        _round(6),
        SessionAbandoned(
            session_id="s-1", rounds_completed=7, reason=ABANDON_FAILURE
        ),
    ]


class TestFragmentCertification:
    def test_midstream_window_certifies_as_fragment(self):
        report = certify_events(_fragment_events(), fragment=True)
        assert report.ok, report.format()
        assert report.fragment
        assert report.checks == FRAGMENT_CHECKS
        assert "overhead" not in report.checks
        assert "[fragment]" in report.format()
        assert report.to_dict()["fragment"] is True

    def test_same_window_fails_without_fragment_mode(self):
        report = certify_events(_fragment_events())
        assert not report.ok
        assert not report.fragment

    def test_unjustified_switch_still_rejected_in_fragment_mode(self):
        # Once the window shows a full trial close, a switch after an
        # *endorsed* trial is tampering a fragment cannot excuse.
        events = [
            _round(5),
            TrialFinished(
                round_index=6,
                trial_number=3,
                candidate_index=2,
                reason="endorsed",
                rounds_used=4,
            ),
            StrategySwitch(
                round_index=6,
                from_index=2,
                to_index=3,
                reason="sensing-negative",
                wrapped=False,
            ),
        ]
        report = certify_events(events, fragment=True)
        assert not report.ok
        assert any("switch" in issue.check for issue in report.issues)

    def test_events_after_abandon_are_rejected(self):
        events = [
            _round(5),
            SessionAbandoned(
                session_id="s-1", rounds_completed=6, reason=ABANDON_FAILURE
            ),
            _round(6),
        ]
        report = certify_events(events, fragment=True)
        assert not report.ok

    def test_abandon_with_understated_rounds_is_rejected(self):
        events = [
            _round(5),
            _round(6),
            SessionAbandoned(
                session_id="s-1", rounds_completed=1, reason=ABANDON_FAILURE
            ),
        ]
        report = certify_events(events, fragment=True)
        assert not report.ok

    def test_unknown_abandon_reason_is_rejected(self):
        events = [
            SessionAbandoned(session_id="s-1", rounds_completed=0, reason="gremlins")
        ]
        report = certify_events(events, fragment=True)
        assert not report.ok

    def test_dumped_fragment_certifies_from_disk(self, tmp_path):
        buf = FlightBuffer(capacity=32)
        for event in _fragment_events():
            buf.emit(event)
        path = dump_flight(buf, tmp_path / "flight" / "s-1.jsonl")
        report = certify_trace(path, fragment=True)
        assert report.ok, report.format()
        assert report.fragment

    def test_round_trip_through_event_from_dict(self):
        original = SessionAbandoned(
            session_id="s-7", rounds_completed=12, reason=ABANDON_FAILURE
        )
        payload = json.loads(json.dumps(original.to_dict()))
        assert event_from_dict(payload) == original
