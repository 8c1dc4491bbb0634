"""Tests for run metrics and summaries."""

from __future__ import annotations

import math

from repro.analysis.metrics import (
    RunMetrics,
    Summary,
    collect_metrics,
    rounds_summary,
    success_rate,
)
from repro.comm.codecs import IdentityCodec
from repro.core.execution import run_execution
from repro.servers.advisors import AdvisorServer
from repro.universal.bayesian import BeliefWeightedUniversalUser
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.users.control_users import AdvisorFollowingUser, follower_user_class
from repro.worlds.control import control_goal, control_sensing

LAW = {"red": "blue", "blue": "red"}
GOAL = control_goal(LAW)


class TestCollectMetrics:
    def test_plain_user_has_no_universal_stats(self):
        result = run_execution(
            AdvisorFollowingUser(IdentityCodec()), AdvisorServer(LAW),
            GOAL.world, max_rounds=200, seed=0,
        )
        metrics = collect_metrics(result, GOAL)
        assert metrics.achieved
        assert metrics.switches is None and metrics.trials is None
        assert metrics.bad_prefixes is not None

    def test_compact_universal_stats_extracted(self):
        from repro.comm.codecs import codec_family

        user = CompactUniversalUser(
            ListEnumeration(follower_user_class(codec_family(2))),
            control_sensing(),
        )
        result = run_execution(
            user, AdvisorServer(LAW), GOAL.world, max_rounds=300, seed=0
        )
        metrics = collect_metrics(result, GOAL)
        assert metrics.switches is not None
        assert metrics.final_index == 0  # Identity codec is index 0.

    def test_belief_weighted_universal_stats_extracted(self):
        from repro.comm.codecs import codec_family

        user = BeliefWeightedUniversalUser(
            follower_user_class(codec_family(2)), control_sensing()
        )
        result = run_execution(
            user, AdvisorServer(LAW), GOAL.world, max_rounds=300, seed=0
        )
        metrics = collect_metrics(result, GOAL)
        assert metrics.switches == result.final_user_state.switches
        assert metrics.final_index == 0  # Identity codec is index 0.
        assert metrics.trials is None


class TestSummary:
    def test_order_statistics(self):
        s = Summary.of([4.0, 1.0, 3.0, 2.0])
        assert s.count == 4 and s.mean == 2.5 and s.median == 2.5
        assert s.minimum == 1.0 and s.maximum == 4.0

    def test_odd_median(self):
        assert Summary.of([3, 1, 2]).median == 2.0

    def test_empty_is_nan(self):
        s = Summary.of([])
        assert s.count == 0 and math.isnan(s.mean)

    def test_format(self):
        text = Summary.of([1.0, 2.0]).format()
        assert "n=2" in text and "mean=1.5" in text


class TestEmptyBatchContract:
    """The documented asymmetry: rate → 0.0, statistics → NaN.

    ``success_rate([])`` answers a yes/no-per-run question, so zero runs
    means zero demonstrated successes; ``Summary.of([])`` answers "what
    were the values?", which has no answer — NaN propagates instead of
    silently reading as a real observation.
    """

    def test_success_rate_of_empty_batch_is_zero(self):
        assert success_rate([]) == 0.0

    def test_empty_summary_is_all_nan_with_zero_count(self):
        s = Summary.of([])
        assert s.count == 0
        assert s.is_empty
        for stat in (s.mean, s.median, s.minimum, s.maximum):
            assert math.isnan(stat)

    def test_nonempty_summary_is_not_empty(self):
        assert not Summary.of([1.0]).is_empty

    def test_empty_rounds_summary_inherits_the_nan_contract(self):
        """An all-failure batch summarised over successes only is empty."""
        batch = [RunMetrics(achieved=False, halted=True, rounds=7)]
        s = rounds_summary(batch)
        assert s.is_empty and math.isnan(s.mean)
        # ...while the same batch's success rate reads a definite 0.0.
        assert success_rate(batch) == 0.0

    def test_nan_poisons_downstream_arithmetic(self):
        """The point of NaN over 0: forgetting to check count is loud."""
        assert math.isnan(Summary.of([]).mean + 1.0)


class TestBatchHelpers:
    def _metrics(self, achieved, rounds):
        return RunMetrics(achieved=achieved, halted=True, rounds=rounds)

    def test_success_rate(self):
        batch = [self._metrics(True, 1), self._metrics(False, 2)]
        assert success_rate(batch) == 0.5
        assert success_rate([]) == 0.0

    def test_rounds_summary_filters_failures(self):
        batch = [self._metrics(True, 10), self._metrics(False, 999)]
        assert rounds_summary(batch).maximum == 10.0
        assert rounds_summary(batch, achieved_only=False).maximum == 999.0
