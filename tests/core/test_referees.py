"""Tests for finite and compact referees."""

from __future__ import annotations

from repro.core.execution import ExecutionResult
from repro.core.referees import (
    CompactReferee,
    CompactVerdict,
    FunctionFiniteReferee,
    LastStateCompactReferee,
    RefereeMonitor,
)


def execution_with_states(states, halted=True, output=None):
    result = ExecutionResult(halted=halted, user_output=output)
    result.world_states = list(states)
    return result


class PrefixLengthReferee(CompactReferee):
    """A history-dependent referee: each monitor keeps the prefix it has
    seen, and the prefix is acceptable iff ``predicate(prefix)`` holds."""

    def __init__(self, predicate):
        self.predicate = predicate

    def monitor(self):
        prefix = []

        def acceptable(state):
            prefix.append(state)
            return self.predicate(tuple(prefix))

        return RefereeMonitor(self, acceptable)


class TestFiniteReferee:
    def test_accepts_via_predicate(self):
        referee = FunctionFiniteReferee(lambda e: e.final_world_state() == 3)
        assert referee.accepts(execution_with_states([1, 2, 3]))
        assert not referee.accepts(execution_with_states([1, 2]))

    def test_never_accepts_unhalted(self):
        referee = FunctionFiniteReferee(lambda e: True)
        assert not referee.accepts(execution_with_states([1], halted=False))


class TestCompactVerdict:
    def test_counts_bad_prefixes(self):
        referee = LastStateCompactReferee(lambda state: state >= 0)
        verdict = referee.judge(execution_with_states([-1, -2, 3, 4]))
        assert verdict.bad_prefixes == 2
        assert verdict.last_bad_round == 2
        assert verdict.total_prefixes == 4

    def test_all_good(self):
        referee = LastStateCompactReferee(lambda state: True)
        verdict = referee.judge(execution_with_states([0, 1]))
        assert verdict.bad_prefixes == 0
        assert verdict.last_bad_round is None

    def test_settled_since(self):
        verdict = CompactVerdict(bad_prefixes=2, last_bad_round=5, total_prefixes=10)
        assert verdict.settled_since(5)
        assert verdict.settled_since(7)
        assert not verdict.settled_since(4)

    def test_settled_since_with_no_bad(self):
        verdict = CompactVerdict(bad_prefixes=0, last_bad_round=None, total_prefixes=0)
        assert verdict.settled_since(0)

    def test_prefix_semantics_sees_growing_histories(self):
        seen = []
        referee = PrefixLengthReferee(lambda prefix: bool(seen.append(len(prefix))) or True)
        referee.judge(execution_with_states([0, 1, 2]))
        assert seen == [1, 2, 3]


class TestLastStateReferee:
    def test_only_inspects_last_state(self):
        referee = LastStateCompactReferee(state_acceptable=lambda s: s % 2 == 0)
        verdict = referee.judge(execution_with_states([0, 1, 2, 3]))
        assert verdict == CompactVerdict(
            bad_prefixes=2, last_bad_round=4, total_prefixes=4
        )

    def test_linear_judge_matches_generic_judge(self):
        local = LastStateCompactReferee(state_acceptable=lambda s: s != 2)
        generic = PrefixLengthReferee(lambda prefix: prefix[-1] != 2)
        execution = execution_with_states([0, 2, 1, 2, 5])
        assert local.judge(execution) == generic.judge(execution)


class TestRefereeMonitor:
    def test_observe_folds_to_judge(self):
        referee = LastStateCompactReferee(lambda s: s != 2)
        states = [0, 2, 1, 2, 5, 2, 7]
        monitor = referee.monitor()
        for t, state in enumerate(states, start=1):
            monitor.observe(state)
            assert monitor.verdict() == referee.judge(
                execution_with_states(states[:t])
            )

    def test_empty_monitor_has_no_prefixes(self):
        verdict = LastStateCompactReferee(lambda s: False).monitor().verdict()
        assert verdict == CompactVerdict(
            bad_prefixes=0, last_bad_round=None, total_prefixes=0
        )

    def test_equality_is_referee_and_progress(self):
        referee = LastStateCompactReferee(lambda s: s > 0)
        first, second = referee.monitor(), referee.monitor()
        assert first == second
        first.observe(0)
        assert first != second
        second.observe(0)
        assert first == second
        other = LastStateCompactReferee(lambda s: s > 0).monitor()
        other.observe(0)
        assert other != first  # same counts, different referee

    def test_finite_referee_has_no_monitor(self):
        assert FunctionFiniteReferee(lambda e: True).monitor() is None
