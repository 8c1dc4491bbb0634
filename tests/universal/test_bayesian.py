"""Tests for the belief-weighted universal user."""

from __future__ import annotations

import pytest

from repro.core.execution import run_execution
from repro.core.sensing import ConstantSensing
from repro.universal.bayesian import BeliefWeightedUniversalUser
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration

from tests.universal.helpers import (
    KeywordServer,
    KeywordUser,
    NullWorld,
    keyword_sensing,
)

WORDS = ["alpha", "beta", "gamma", "delta"]


def candidates():
    return [KeywordUser(w) for w in WORDS]


class TestConvergence:
    def test_uniform_prior_finds_target(self):
        user = BeliefWeightedUniversalUser(candidates(), keyword_sensing())
        result = run_execution(
            user, KeywordServer(WORDS[2]), NullWorld(), max_rounds=300, seed=0
        )
        state = result.rounds[-1].user_state_after
        assert state.index == 2

    def test_concentrated_correct_prior_switches_less(self):
        def switches_with(prior):
            user = BeliefWeightedUniversalUser(
                candidates(), keyword_sensing(), prior=prior
            )
            result = run_execution(
                user, KeywordServer(WORDS[3]), NullWorld(), max_rounds=300, seed=0
            )
            return result.rounds[-1].user_state_after.switches

        uniform = switches_with([1.0, 1.0, 1.0, 1.0])
        informed = switches_with([0.1, 0.1, 0.1, 10.0])
        assert informed < uniform
        assert informed <= 1

    def test_weight_decay_eventually_leaves_wrong_favourite(self):
        user = BeliefWeightedUniversalUser(
            candidates(), keyword_sensing(), prior=[100.0, 1.0, 1.0, 1.0]
        )
        result = run_execution(
            user, KeywordServer(WORDS[1]), NullWorld(), max_rounds=500, seed=0
        )
        state = result.rounds[-1].user_state_after
        assert state.index == 1


class TestValidation:
    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            BeliefWeightedUniversalUser([], keyword_sensing())

    def test_prior_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BeliefWeightedUniversalUser(candidates(), keyword_sensing(), prior=[1.0])

    def test_nonpositive_prior_rejected(self):
        with pytest.raises(ValueError):
            BeliefWeightedUniversalUser(
                candidates(), keyword_sensing(), prior=[1.0, 0.0, 1.0, 1.0]
            )

    @pytest.mark.parametrize("decay", [0.0, 1.0, 1.5])
    def test_decay_range_validated(self, decay):
        with pytest.raises(ValueError):
            BeliefWeightedUniversalUser(candidates(), keyword_sensing(), decay=decay)


class TestHaltSuppression:
    def test_halt_under_negative_indication_is_stripped(self):
        from tests.universal.helpers import EagerHaltUser

        user = BeliefWeightedUniversalUser(
            [EagerHaltUser(), KeywordUser(WORDS[0])], ConstantSensing(False)
        )
        result = run_execution(
            user, KeywordServer(WORDS[0]), NullWorld(), max_rounds=50, seed=0
        )
        assert not result.halted

    def test_grace_follows_the_compact_strike_rule(self):
        """A negative inside the ``min_trial_rounds`` grace still counts as
        a strike and still strips the halt, exactly as for the compact user:
        neither user lets the eager candidate end the run."""
        from tests.universal.helpers import EagerHaltUser

        def rounds_run(user):
            result = run_execution(
                user, KeywordServer(WORDS[0]), NullWorld(), max_rounds=50, seed=0
            )
            assert not result.halted
            return result.rounds_executed, result.final_user_state.switches

        candidates = [EagerHaltUser(), KeywordUser(WORDS[0])]
        belief = BeliefWeightedUniversalUser(
            candidates, ConstantSensing(False), min_trial_rounds=5
        )
        compact = CompactUniversalUser(
            ListEnumeration(candidates), ConstantSensing(False), min_trial_rounds=5
        )
        # Two candidates with equal weight: every decay flips the argmax,
        # so both users switch once per 5-round trial.
        assert rounds_run(belief) == rounds_run(compact) == (50, 10)
