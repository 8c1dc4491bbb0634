"""Counters and histograms."""

from __future__ import annotations

import math

import pytest

from repro.obs import CounterSet
from repro.obs.counters import (
    BUCKET_GAMMA,
    BUCKET_MAX_INDEX,
    BUCKET_MIN_INDEX,
    Counter,
    Histogram,
    bucket_index,
    bucket_upper,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("rounds")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            Counter("rounds").inc(-1)


class TestHistogram:
    def test_streaming_summary(self):
        h = Histogram("trial_rounds")
        for v in (4, 1, 9):
            h.observe(v)
        assert h.count == 3
        assert h.total == 14
        assert h.minimum == 1
        assert h.maximum == 9
        assert h.mean == pytest.approx(14 / 3)

    def test_empty_histogram_mean_is_nan(self):
        assert math.isnan(Histogram("x").mean)


class TestBucketGeometry:
    def test_bucket_covers_half_open_interval(self):
        # Bucket i covers (gamma**(i-1), gamma**i]: exact powers land in
        # their own bucket, a nudge above lands in the next one.
        for i in (-8, -1, 0, 1, 5, 40):
            edge = bucket_upper(i)
            assert bucket_index(edge) == i
            assert bucket_index(edge * 1.0001) == i + 1

    def test_extreme_values_clamp_to_edge_buckets(self):
        assert bucket_index(1e-300) == BUCKET_MIN_INDEX
        assert bucket_index(1e300) == BUCKET_MAX_INDEX

    def test_upper_bound_matches_indexing(self):
        for value in (0.003, 0.7, 1.0, 17.3, 994.896, 123456.0):
            i = bucket_index(value)
            assert value <= bucket_upper(i)
            if i > BUCKET_MIN_INDEX:
                assert value > bucket_upper(i - 1)


class TestHistogramQuantiles:
    def test_quantile_within_one_bucket_of_exact(self):
        h = Histogram("latency_ms")
        values = [float(v) for v in range(1, 1001)]
        for v in values:
            h.observe(v)
        for q in (0.5, 0.95, 0.99):
            exact = values[max(0, math.ceil(q * len(values)) - 1)]
            got = h.quantile(q)
            assert exact <= got <= exact * BUCKET_GAMMA

    def test_quantile_exact_at_maximum(self):
        h = Histogram("x")
        for v in (3.0, 5.0, 11.0):
            h.observe(v)
        # The top bucket's upper bound clamps to the tracked maximum.
        assert h.quantile(1.0) == 11.0
        # The bottom of the range still overshoots by at most one bucket.
        assert 3.0 <= h.quantile(0.0) <= 3.0 * BUCKET_GAMMA

    def test_constant_data_is_exact(self):
        h = Histogram("x")
        for _ in range(100):
            h.observe(42.0)
        assert h.quantile(0.5) == 42.0
        assert h.quantile(0.99) == 42.0

    def test_golden_bucket_quantiles(self):
        # Pinned values: the deterministic geometry means these numbers
        # are identical on every platform and every run.
        h = Histogram("x")
        for v in (1.0, 2.0, 4.0, 8.0, 16.0):
            h.observe(v)
        assert h.quantile(0.5) == pytest.approx(4.0)
        assert h.quantile(0.8) == pytest.approx(8.0)
        assert h.quantile(1.0) == 16.0

    def test_zero_and_negative_fall_in_low_bucket(self):
        h = Histogram("x")
        h.observe(0.0)
        h.observe(-2.0)
        h.observe(10.0)
        assert h.low == 2
        # The low bucket's representative is its upper bound, 0.0.
        assert h.quantile(0.5) == 0.0
        assert h.quantile(0.1) == 0.0

    def test_empty_quantile_is_nan(self):
        assert math.isnan(Histogram("x").quantile(0.5))

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram("x").quantile(1.5)

    def test_snapshot_round_trips_through_json_keys(self):
        h = Histogram("x")
        for v in (0.25, 1.0, 700.0):
            h.observe(v)
        snap = h.snapshot()
        assert all(isinstance(k, str) for k in snap["buckets"])
        back = Histogram.from_snapshot("x", snap)
        assert back.snapshot() == snap
        assert back.quantile(0.95) == h.quantile(0.95)


class TestHistogramMerge:
    def test_merge_is_associative_across_workers(self):
        # Three "workers" each observe a disjoint share of the samples;
        # any merge grouping must equal the single-process histogram.
        import random

        rng = random.Random(7)
        samples = [rng.uniform(0.01, 5000.0) for _ in range(600)]
        whole = Histogram("x")
        for v in samples:
            whole.observe(v)
        shares = [samples[0::3], samples[1::3], samples[2::3]]
        snaps = []
        for share in shares:
            h = Histogram("x")
            for v in share:
                h.observe(v)
            snaps.append(h.snapshot())

        left = Histogram.from_snapshot("x", snaps[0])
        left.merge_snapshot(snaps[1])
        left.merge_snapshot(snaps[2])

        right_tail = Histogram.from_snapshot("x", snaps[1])
        right_tail.merge_snapshot(snaps[2])
        right = Histogram("x")
        right.merge_snapshot(snaps[0])
        right.merge_snapshot(right_tail.snapshot())

        # Everything discrete (counts, buckets, extremes) is bitwise
        # identical under any merge grouping; float totals agree up to
        # summation order.
        for merged in (left, right):
            assert merged.count == whole.count
            assert merged.low == whole.low
            assert merged.buckets == whole.buckets
            assert merged.minimum == whole.minimum
            assert merged.maximum == whole.maximum
            assert merged.total == pytest.approx(whole.total)
            for q in (0.5, 0.95, 0.99):
                assert merged.quantile(q) == whole.quantile(q)

    def test_counter_set_merge_folds_buckets(self):
        a, b = CounterSet(), CounterSet()
        for v in (1.0, 2.0):
            a.observe("h", v)
        for v in (4.0, 8.0):
            b.observe("h", v)
        a.merge(b.snapshot())
        merged = Histogram.from_snapshot("h", a.snapshot()["h"])
        assert merged.count == 4
        assert merged.quantile(1.0) == 8.0

    def test_merge_tolerates_bucketless_legacy_snapshot(self):
        # Snapshots written before buckets existed still merge their
        # scalar summary; quantiles then degrade gracefully.
        cs = CounterSet()
        cs.merge({"h": {"count": 2, "total": 6.0, "min": 2.0, "max": 4.0, "mean": 3.0}})
        h = cs.histogram("h")
        assert h.count == 2
        assert h.quantile(1.0) == 4.0


class TestCounterSet:
    def test_create_on_first_touch(self):
        cs = CounterSet()
        cs.inc("rounds", 3)
        cs.observe("trial_rounds", 7.0)
        assert cs.get("rounds") == 3
        assert cs.get("never_touched") == 0

    def test_snapshot_preserves_creation_order(self):
        cs = CounterSet()
        for name in ("b", "a", "c"):
            cs.inc(name)
        assert list(cs.snapshot()) == ["b", "a", "c"]

    def test_snapshot_flattens_histograms(self):
        cs = CounterSet()
        cs.observe("h", 2.0)
        cs.observe("h", 4.0)
        snap = cs.snapshot()["h"]
        # 2.0 and 4.0 are exact powers of the bucket base (gamma**4 and
        # gamma**8), so their bucket keys are pinned too.
        assert snap == {
            "count": 2,
            "total": 6.0,
            "min": 2.0,
            "max": 4.0,
            "mean": 3.0,
            "low": 0,
            "buckets": {"4": 1, "8": 1},
        }

    def test_snapshot_is_a_copy(self):
        cs = CounterSet()
        cs.inc("rounds")
        snap = cs.snapshot()
        cs.inc("rounds")
        assert snap["rounds"] == 1

