"""Tests for the finite-goal universal user (Levin-style parallel enumeration)."""

from __future__ import annotations

import pytest

from repro.core.execution import run_execution
from repro.core.sensing import ConstantSensing
from repro.universal.enumeration import GeneratorEnumeration, ListEnumeration
from repro.universal.finite import FiniteUniversalUser
from repro.universal.schedules import sequential_trials

from tests.universal.helpers import (
    EagerHaltUser,
    KeywordServer,
    KeywordUser,
    NullWorld,
    YesSensing,
    keyword_sensing,
)

WORDS = ["alpha", "beta", "gamma", "delta"]


def halting_class():
    return ListEnumeration(
        [KeywordUser(w, halt_on_yes=True) for w in WORDS], label="halting-words"
    )


class TestSuccess:
    @pytest.mark.parametrize("word", WORDS)
    def test_halts_with_correct_candidate_output(self, word):
        user = FiniteUniversalUser(halting_class(), keyword_sensing())
        result = run_execution(
            user, KeywordServer(word), NullWorld(), max_rounds=2000, seed=0
        )
        assert result.halted
        assert result.user_output == word

    def test_later_candidates_cost_more_rounds(self):
        def rounds_for(word):
            user = FiniteUniversalUser(halting_class(), keyword_sensing())
            result = run_execution(
                user, KeywordServer(word), NullWorld(), max_rounds=4000, seed=0
            )
            assert result.halted
            return result.rounds_executed

        assert rounds_for(WORDS[0]) < rounds_for(WORDS[3])


class TestSensingGatesHalting:
    def test_halt_without_positive_indication_is_suppressed(self):
        """An eager-halting candidate must not end the run unendorsed."""
        enum = ListEnumeration(
            [EagerHaltUser(), KeywordUser(WORDS[0], halt_on_yes=True)]
        )
        user = FiniteUniversalUser(enum, YesSensing(default=False))
        result = run_execution(
            user, KeywordServer(WORDS[0]), NullWorld(), max_rounds=500, seed=0
        )
        assert result.halted
        assert result.user_output == WORDS[0]  # Not "eager".

    def test_never_halts_with_always_negative_sensing(self):
        user = FiniteUniversalUser(halting_class(), ConstantSensing(False))
        result = run_execution(
            user, KeywordServer(WORDS[0]), NullWorld(), max_rounds=300, seed=0
        )
        assert not result.halted

    def test_never_halts_when_no_candidate_works(self):
        user = FiniteUniversalUser(halting_class(), keyword_sensing())
        result = run_execution(
            user, KeywordServer("unknown-word"), NullWorld(), max_rounds=500, seed=0
        )
        assert not result.halted


class TestSchedules:
    def test_custom_schedule_factory(self):
        user = FiniteUniversalUser(
            halting_class(),
            keyword_sensing(),
            schedule_factory=lambda cap: sequential_trials(
                20, max_index=None if cap is None else cap - 1
            ),
        )
        result = run_execution(
            user, KeywordServer(WORDS[2]), NullWorld(), max_rounds=500, seed=0
        )
        assert result.halted and result.user_output == WORDS[2]

    def test_finite_schedule_exhaustion_goes_quiet(self):
        user = FiniteUniversalUser(
            halting_class(),
            keyword_sensing(),
            schedule_factory=lambda cap: sequential_trials(
                1, max_index=0, repeat=False
            ),
        )
        result = run_execution(
            user, KeywordServer(WORDS[3]), NullWorld(), max_rounds=50, seed=0
        )
        assert not result.halted

    def test_unknown_size_enumeration_learns_cap(self):
        enum = GeneratorEnumeration(
            lambda: iter([KeywordUser(w, halt_on_yes=True) for w in WORDS]),
            label="lazy",
        )
        user = FiniteUniversalUser(enum, keyword_sensing())
        result = run_execution(
            user, KeywordServer(WORDS[3]), NullWorld(), max_rounds=4000, seed=0
        )
        assert result.halted and result.user_output == WORDS[3]


class TestStats:
    def test_trials_counted(self):
        user = FiniteUniversalUser(halting_class(), keyword_sensing())
        result = run_execution(
            user, KeywordServer(WORDS[2]), NullWorld(), max_rounds=2000, seed=0
        )
        state = result.final_user_state
        assert state.trials_run >= 3
        assert state.total_rounds == result.rounds_executed


class TestDegenerateSchedules:
    def test_schedule_with_only_out_of_range_indices_goes_quiet(self):
        """A schedule that never names an in-range candidate must not hang
        the engine — the user goes silent and the horizon ends the run."""

        def bad_factory(cap):
            def gen():
                while True:
                    yield (10_000_000, 1)  # Far past any class size.

            return gen()

        user = FiniteUniversalUser(
            halting_class(), keyword_sensing(), schedule_factory=bad_factory
        )
        result = run_execution(
            user, KeywordServer(WORDS[0]), NullWorld(), max_rounds=20, seed=0
        )
        assert not result.halted
        assert result.rounds_executed == 20
