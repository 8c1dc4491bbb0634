"""Tests for the compact-goal universal user (Theorem 1, compact case)."""

from __future__ import annotations

import tracemalloc
from pathlib import Path

import pytest

import repro.universal
from repro.core.execution import METRICS_RECORDING, ExecutionStepper, run_execution
from repro.core.sensing import ConstantSensing
from repro.errors import EnumerationExhaustedError
from repro.universal.bayesian import BeliefWeightedUniversalUser
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration

from tests.universal.helpers import (
    KeywordServer,
    KeywordUser,
    NullWorld,
    keyword_sensing,
)

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon"]


def candidate_class():
    return ListEnumeration([KeywordUser(w) for w in WORDS], label="words")


def run_universal(target_word, max_rounds=200, **kwargs):
    user = CompactUniversalUser(candidate_class(), keyword_sensing(), **kwargs)
    result = run_execution(
        user, KeywordServer(target_word), NullWorld(), max_rounds=max_rounds, seed=0
    )
    return result, result.rounds[-1].user_state_after


class TestConvergence:
    @pytest.mark.parametrize("index,word", list(enumerate(WORDS)))
    def test_settles_on_correct_index(self, index, word):
        _, state = run_universal(word)
        assert state.index == index

    def test_switch_count_equals_index(self, ):
        """Candidates are visited strictly in enumeration order."""
        _, state = run_universal(WORDS[3])
        assert state.switches == 3
        assert state.wraps == 0

    def test_stays_settled_forever(self):
        result, state = run_universal(WORDS[1], max_rounds=500)
        assert state.index == 1
        # After settling, the correct keyword is sent every round.
        sent = [r.outbox.to_server for r in result.user_view][-100:]
        assert all(m == WORDS[1] for m in sent)


class TestSwitchingDiscipline:
    def test_never_switches_on_positive_indication(self):
        """With always-positive sensing the first candidate is never evicted."""
        user = CompactUniversalUser(candidate_class(), ConstantSensing(True))
        result = run_execution(
            user, KeywordServer(WORDS[4]), NullWorld(), max_rounds=100, seed=0
        )
        state = result.rounds[-1].user_state_after
        assert state.index == 0 and state.switches == 0

    def test_always_negative_sensing_cycles_forever(self):
        user = CompactUniversalUser(candidate_class(), ConstantSensing(False))
        result = run_execution(
            user, KeywordServer(WORDS[0]), NullWorld(), max_rounds=100, seed=0
        )
        state = result.rounds[-1].user_state_after
        assert state.switches == 100  # One eviction per round.
        assert state.wraps > 0

    def test_min_trial_rounds_floors_trial_length(self):
        user = CompactUniversalUser(
            candidate_class(), ConstantSensing(False), min_trial_rounds=10
        )
        result = run_execution(
            user, KeywordServer(WORDS[0]), NullWorld(), max_rounds=100, seed=0
        )
        state = result.rounds[-1].user_state_after
        assert state.switches == 10

    def test_wrap_around_disabled_raises(self):
        user = CompactUniversalUser(
            candidate_class(), ConstantSensing(False), wrap_around=False
        )
        with pytest.raises(EnumerationExhaustedError):
            run_execution(
                user, KeywordServer(WORDS[0]), NullWorld(), max_rounds=100, seed=0
            )


class TestHaltSuppression:
    def test_halt_under_negative_indication_is_stripped(self):
        """An evicted candidate cannot end the (infinite) execution."""
        from tests.universal.helpers import EagerHaltUser

        enum = ListEnumeration([EagerHaltUser(), KeywordUser(WORDS[0])])
        user = CompactUniversalUser(enum, ConstantSensing(False))
        result = run_execution(
            user, KeywordServer(WORDS[0]), NullWorld(), max_rounds=50, seed=0
        )
        assert not result.halted


class TestValidationAndStats:
    def test_negative_min_trial_rounds_rejected(self):
        with pytest.raises(ValueError):
            CompactUniversalUser(
                candidate_class(), ConstantSensing(True), min_trial_rounds=-1
            )

    def test_stats_extraction(self):
        result, state = run_universal(WORDS[2])
        assert state.index == 2
        assert state.switches == 2
        assert state.wraps == 0
        assert state.total_rounds == result.rounds_executed

    def test_name_mentions_enumeration_and_sensing(self):
        user = CompactUniversalUser(candidate_class(), keyword_sensing())
        assert "words" in user.name


#: Every module of the universal package: the users and their trial kernel.
UNIVERSAL_MODULES = str(Path(repro.universal.__file__).parent / "*")


def settled_live_bytes(user):
    """Live bytes ``repro.universal`` holds after 10^5 settled rounds.

    Settle on the first candidate, then trace 10^5 more rounds: a settled
    trial never ends, so what the universal package allocates must stay
    under a small constant instead of growing by one record per round.
    """
    stepper = ExecutionStepper(
        user, KeywordServer(WORDS[0]), NullWorld(), max_rounds=101_000,
        seed=0, recording=METRICS_RECORDING,
    )
    stepper.step_many(1_000)
    tracemalloc.start()
    try:
        stepper.step_many(100_000)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    state = stepper.finish().final_user_state
    assert state.switches == 0 and state.trial.rounds == 101_000
    traced = snapshot.filter_traces([tracemalloc.Filter(True, UNIVERSAL_MODULES)])
    return sum(stat.size for stat in traced.statistics("filename"))


class TestBoundedMemory:
    def test_settled_trial_allocates_nothing_per_round(self):
        user = CompactUniversalUser(candidate_class(), ConstantSensing(True))
        assert settled_live_bytes(user) < 4096

    def test_settled_belief_trial_allocates_nothing_per_round(self):
        user = BeliefWeightedUniversalUser(
            [KeywordUser(w) for w in WORDS], ConstantSensing(True)
        )
        assert settled_live_bytes(user) < 4096
