"""Tests for goal evaluation semantics."""

from __future__ import annotations

import pytest

from repro.core.execution import ExecutionResult
from repro.core.goals import CompactGoal, FiniteGoal
from repro.core.referees import FunctionFiniteReferee, LastStateCompactReferee
from repro.core.strategy import WorldStrategy


class DummyWorld(WorldStrategy):
    def initial_state(self, rng):
        return 0

    def step(self, state, inbox, rng):
        from repro.comm.messages import WorldOutbox

        return state, WorldOutbox()


def execution(states, halted, output=None):
    result = ExecutionResult(halted=halted, user_output=output)
    result.world_states = list(states)
    result.rounds = [None] * (len(states) - 1)  # Only the count is used.
    return result


def finite_goal(predicate):
    return FiniteGoal(
        name="g", world=DummyWorld(), referee=FunctionFiniteReferee(predicate)
    )


def compact_goal(predicate, settle=0.5):
    """A compact goal judging each state; the runs below use states
    ``0, 1, 2, ...``, so state ``s`` ends the prefix of length ``s + 1``."""
    return CompactGoal(
        name="g",
        world=DummyWorld(),
        referee=LastStateCompactReferee(predicate),
        settle_fraction=settle,
    )


class TestFiniteGoal:
    def test_achieved_requires_halt_and_acceptance(self):
        goal = finite_goal(lambda e: True)
        assert goal.evaluate(execution([0, 1], halted=True)).achieved
        assert not goal.evaluate(execution([0, 1], halted=False)).achieved

    def test_outcome_carries_output(self):
        goal = finite_goal(lambda e: True)
        outcome = goal.evaluate(execution([0], halted=True, output="ANSWER:1"))
        assert outcome.user_output == "ANSWER:1"

    def test_note_explains_non_halt(self):
        goal = finite_goal(lambda e: True)
        assert "halt" in goal.evaluate(execution([0, 1], halted=False)).note

    def test_is_compact_flag(self):
        assert not finite_goal(lambda e: True).is_compact


class TestCompactGoal:
    def test_achieved_when_bad_prefixes_stop_early(self):
        # Bad only at prefix 1 of 10; settle window is the last half.
        goal = compact_goal(lambda state: state != 0)
        outcome = goal.evaluate(execution(list(range(10)), halted=False))
        assert outcome.achieved
        assert outcome.compact_verdict.bad_prefixes == 1

    def test_not_achieved_when_bad_prefix_late(self):
        goal = compact_goal(lambda state: state != 8)
        outcome = goal.evaluate(execution(list(range(10)), halted=False))
        assert not outcome.achieved
        assert "round 9" in outcome.note

    def test_settle_fraction_bounds_validated(self):
        with pytest.raises(ValueError):
            compact_goal(lambda s: True, settle=0.0)
        with pytest.raises(ValueError):
            compact_goal(lambda s: True, settle=1.0)

    def test_stricter_settle_fraction_is_harder(self):
        # Bad prefix at 60% of the horizon: passes settle=0.3, fails 0.5.
        def predicate(state):
            return state != 5

        lenient = compact_goal(predicate, settle=0.3)
        strict = compact_goal(predicate, settle=0.5)
        run = execution(list(range(10)), halted=False)
        assert lenient.evaluate(run).achieved
        assert not strict.evaluate(run).achieved

    def test_is_compact_flag(self):
        assert compact_goal(lambda s: True).is_compact
