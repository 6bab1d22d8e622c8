"""Unit tests for ServingMetrics counters and latency histograms."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import LatencyHistogram, ServingMetrics, SessionManager


class TestLatencyHistogram:
    def test_empty_percentiles_are_zero(self):
        histogram = LatencyHistogram()
        assert histogram.percentile(0.5) == 0.0
        assert histogram.summary()["p99_seconds"] == 0.0
        assert histogram.summary()["count"] == 0

    def test_percentiles_bounded_relative_error(self):
        histogram = LatencyHistogram()
        rng = np.random.default_rng(0)
        samples = rng.uniform(1e-4, 2.0, size=5000)
        for s in samples:
            histogram.record(float(s))
        for q in (0.50, 0.95, 0.99):
            exact = float(np.quantile(samples, q))
            approx = histogram.percentile(q)
            # Bucketed answer is an upper bound within the bucket
            # growth factor (~12% with the defaults).
            assert exact <= approx <= exact * 1.15

    def test_max_clamps_top_percentile(self):
        histogram = LatencyHistogram()
        for s in (0.001, 0.002, 0.5):
            histogram.record(s)
        assert histogram.percentile(1.0) == pytest.approx(0.5)
        assert histogram.summary()["max_seconds"] == pytest.approx(0.5)

    def test_bounded_memory(self):
        histogram = LatencyHistogram()
        n_buckets = len(histogram._counts)
        for i in range(10_000):
            histogram.record(i * 1e-4)
        assert len(histogram._counts) == n_buckets
        assert histogram.count == 10_000

    def test_overflow_and_negative_observations(self):
        histogram = LatencyHistogram(lower=1e-3, upper=1.0)
        histogram.record(50.0)  # above upper: overflow bucket
        histogram.record(-1.0)  # clamps to zero
        assert histogram.count == 2
        assert histogram.percentile(1.0) == pytest.approx(50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram(lower=1.0, upper=0.5)
        with pytest.raises(ValueError):
            LatencyHistogram(buckets_per_decade=0)
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(1.5)

    @settings(max_examples=60, deadline=None)
    @given(
        samples=st.lists(
            st.one_of(
                st.sampled_from(LatencyHistogram()._bounds),
                st.just(0.0),
                st.floats(-1.0, 0.0),
                st.floats(0.0, 200.0),  # past the last bound: overflow
            ),
            max_size=300,
        )
    )
    def test_batched_recording_equals_per_sample(self, samples):
        # Bucket bounds, zero and negatives are where an off-by-one in
        # the bucket search or the clamp would show.
        per_sample = LatencyHistogram()
        for seconds in samples:
            per_sample.record(seconds)
        metrics = ServingMetrics()
        metrics.observe_latencies("ingest", samples)
        got = metrics.snapshot()["ingest_latency"]
        want = per_sample.summary()
        for key in (
            "count", "max_seconds", "p50_seconds", "p95_seconds",
            "p99_seconds", "buckets",
        ):
            assert got[key] == want[key]
        # Each sample sits in the first bucket whose upper bound
        # reaches it (the overflow bucket past the last bound).
        bounds = per_sample._bounds
        want_counts = [0] * (len(bounds) + 1)
        for seconds in samples:
            seconds = max(seconds, 0.0)
            index = next(
                (i for i, bound in enumerate(bounds) if seconds <= bound),
                len(bounds),
            )
            want_counts[index] += 1
        assert per_sample._counts == want_counts

    def test_observe_latencies_takes_the_lock_once(self):
        metrics = ServingMetrics()
        acquisitions = []
        real = metrics._lock

        class CountingLock:
            def __enter__(self):
                acquisitions.append(1)
                return real.__enter__()

            def __exit__(self, *exc_info):
                return real.__exit__(*exc_info)

        metrics._lock = CountingLock()
        metrics.observe_latencies("ingest", [0.001, 0.002, 0.003])
        assert len(acquisitions) == 1
        metrics._lock = real
        assert metrics.snapshot()["ingest_latency"]["count"] == 3

    def test_thread_safety_under_metrics_lock(self):
        metrics = ServingMetrics()

        def pound():
            for i in range(2000):
                metrics.observe_latency("ingest", i * 1e-5)

        threads = [threading.Thread(target=pound) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.snapshot()["ingest_latency"]["count"] == 8000


class TestServingMetrics:
    def test_unknown_counter_raises(self):
        with pytest.raises(KeyError):
            ServingMetrics().increment("nope")

    def test_unknown_histogram_raises(self):
        with pytest.raises(KeyError):
            ServingMetrics().observe_latency("nope", 0.1)

    def test_snapshot_includes_latency_summaries(self):
        metrics = ServingMetrics()
        metrics.observe_latency("ingest", 0.010)
        metrics.observe_latency("ingest", 0.020)
        snap = metrics.snapshot()
        for name in ("ingest_latency", "flush_latency"):
            summary = snap[name]
            for key in (
                "count",
                "mean_seconds",
                "max_seconds",
                "p50_seconds",
                "p95_seconds",
                "p99_seconds",
            ):
                assert key in summary
        assert snap["ingest_latency"]["count"] == 2
        assert snap["ingest_latency"]["mean_seconds"] == pytest.approx(
            0.015
        )

    def test_observe_flush_feeds_flush_histogram(self):
        metrics = ServingMetrics()
        metrics.observe_flush(4, 0.02)
        # Warmup absorption (0.0 seconds) counts slices but is not a
        # real execution — it stays out of the latency histogram.
        metrics.observe_flush(4, 0.0)
        snap = metrics.snapshot()
        assert snap["batches_flushed"] == 2
        assert snap["slices_flushed"] == 8
        assert snap["flush_latency"]["count"] == 1


class TestManagerIngestLatency:
    def test_ingest_latency_recorded_per_slice(self):
        rng = np.random.default_rng(0)
        with SessionManager(max_batch=4, max_latency_s=3600.0) as manager:
            manager.create_session(
                "s",
                {
                    "rank": 2,
                    "period": 3,
                    "init_seasons": 2,
                    "max_outer_iters": 5,
                    "tol": 1e-2,
                },
            )
            n_slices = 14  # 6 warmup + 8 streamed
            for _ in range(n_slices):
                manager.ingest("s", rng.normal(size=(4, 3)))
            manager.drain()
            snap = manager.metrics.snapshot()
        summary = snap["ingest_latency"]
        # Every committed slice got a latency sample; warmup slices
        # absorbed into the startup buffer never commit, so the count
        # is positive but may trail the ingest count.
        assert 0 < summary["count"] <= n_slices
        assert snap["slices_ingested"] == n_slices
        assert summary["p50_seconds"] > 0.0
        assert summary["p99_seconds"] >= summary["p50_seconds"]
        assert snap["flush_latency"]["count"] >= 1
