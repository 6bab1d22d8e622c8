"""Thread-safe counters and latency histograms for the serving runtime.

One :class:`ServingMetrics` instance is shared by the session manager,
the micro-batching scheduler, and the checkpoint store; the gateway
exposes :meth:`ServingMetrics.snapshot` at ``GET /metrics``.  Besides
monotonic counters it keeps bounded log-bucketed
:class:`LatencyHistogram` instances (ingest-to-commit per slice, flush
execution time), so a snapshot reports p50/p95/p99 latency — the
numbers the scenario replay harness gates in CI — not just counts and
averages.  All updates take the instance lock, so worker threads can
bump counters concurrently and a snapshot is always internally
consistent.
"""

from __future__ import annotations

import bisect
import math
import threading

__all__ = ["COUNTER_NAMES", "LatencyHistogram", "ServingMetrics"]

#: Counter names a ServingMetrics instance tracks.  ``increment`` with
#: any other name raises — a typo'd metric would otherwise count into
#: the void forever.
_COUNTERS = (
    "sessions_created",
    "sessions_closed",
    "slices_ingested",
    "slices_flushed",
    "batches_flushed",
    "flush_failures",
    "evictions",
    "rehydrations",
    "imputations",
    "forecasts",
    # One per executed flush (one session's batch run through
    # step_batch).  Warmup slices absorbed without running the model
    # count into batches_flushed but not here.
    "dispatches",
    # Live-migration handoffs: one export per drained state shipped
    # off this runtime, one import per state adopted from elsewhere.
    "session_exports",
    "session_imports",
    # Durable mode: one per post-commit checkpoint written so a dead
    # process's sessions can be failed over from disk.
    "checkpoint_persists",
    # Sessions adopted with a non-zero degraded count (slices that were
    # acked upstream but missing from the checkpoint they were rebuilt
    # from — the failover data-loss window, reported, never silent).
    "degraded_imports",
    # HTTP surface: every response the gateway (or router) sends, plus
    # the 4xx/5xx splits — so client errors and proxy failures show up
    # in the fleet view instead of vanishing into access logs.
    "http_requests",
    "http_errors_4xx",
    "http_errors_5xx",
)

#: The counter names, exported for the Prometheus renderer (counters
#: become ``_total`` families; every other numeric snapshot entry is a
#: gauge).
COUNTER_NAMES = frozenset(_COUNTERS)

#: Histogram names a ServingMetrics instance tracks.
#: ``ingest`` is the end-to-end slice latency (ingest accepted ->
#: result committed, the number a serving SLO is written against);
#: ``flush`` is one worker flush's execution wall-clock.
_HISTOGRAMS = ("ingest", "flush")


class LatencyHistogram:
    """Bounded log-bucketed histogram of seconds, percentile-queryable.

    Buckets are geometric between ``lower`` and ``upper`` (fixed count,
    so memory never grows with observations); a percentile is answered
    as the upper bound of the bucket holding that rank, clamped to the
    true observed maximum.  The relative error is bounded by the
    bucket growth factor (~12% with the defaults) — plenty for SLO
    gating, where regressions of interest are 1.5x and up.
    """

    def __init__(
        self,
        *,
        lower: float = 1e-5,
        upper: float = 120.0,
        buckets_per_decade: int = 20,
    ) -> None:
        if not 0 < lower < upper:
            raise ValueError(
                f"need 0 < lower < upper, got {lower}, {upper}"
            )
        if buckets_per_decade < 1:
            raise ValueError("buckets_per_decade must be >= 1")
        decades = math.log10(upper / lower)
        n = max(int(math.ceil(decades * buckets_per_decade)), 1)
        #: Upper bounds of the finite buckets; one overflow bucket
        #: past the end catches anything above ``upper``.
        self._bounds = [
            lower * (upper / lower) ** ((i + 1) / n) for i in range(n)
        ]
        self._counts = [0] * (n + 1)
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def record(self, seconds: float) -> None:
        """Fold one observation in (negative values clamp to zero)."""
        seconds = max(float(seconds), 0.0)
        # The first bucket whose upper bound is >= seconds.
        self._counts[bisect.bisect_left(self._bounds, seconds)] += 1
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def percentile(self, q: float) -> float:
        """The ``q``-quantile in seconds (``q`` in [0, 1]); 0 if empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = max(int(math.ceil(q * self.count)), 1)
        seen = 0
        for index, bucket_count in enumerate(self._counts):
            seen += bucket_count
            if seen >= target:
                if index >= len(self._bounds):
                    return self.max_seconds
                return min(self._bounds[index], self.max_seconds)
        return self.max_seconds  # pragma: no cover - counts sum to count

    def summary(self) -> dict:
        """Count, mean/max, the p50/p95/p99 the SLO gates read, and the
        raw buckets (finite upper ``bounds`` plus per-bucket ``counts``
        with one trailing overflow entry) — what the Prometheus
        ``_bucket`` lines and the fleet-level histogram merge are
        derived from."""
        mean = self.total_seconds / self.count if self.count else 0.0
        return {
            "count": self.count,
            "mean_seconds": mean,
            "max_seconds": self.max_seconds,
            "total_seconds": self.total_seconds,
            "p50_seconds": self.percentile(0.50),
            "p95_seconds": self.percentile(0.95),
            "p99_seconds": self.percentile(0.99),
            "buckets": {
                "bounds": list(self._bounds),
                "counts": list(self._counts),
            },
        }


class ServingMetrics:
    """Monotonic counters plus latency histograms, one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = {name: 0 for name in _COUNTERS}
        self._flush_seconds = 0.0
        self._histograms = {
            name: LatencyHistogram() for name in _HISTOGRAMS
        }
        self._gauges: dict[str, object] = {}

    def register_gauge(self, name: str, fn) -> None:
        """Register callable ``fn`` as gauge ``name``.

        Gauges are *evaluated at snapshot time* (resident session
        count, pending slices, ...) rather than incremented — the
        owning component registers a cheap zero-argument callable and
        the snapshot reports its current value.  Names must not
        collide with counters.
        """
        if name in self._counts:
            raise KeyError(f"gauge {name!r} collides with a counter")
        with self._lock:
            self._gauges[name] = fn

    def observe_http(self, status: int) -> None:
        """Count one HTTP response (and its 4xx/5xx split)."""
        with self._lock:
            self._counts["http_requests"] += 1
            if 400 <= status < 500:
                self._counts["http_errors_4xx"] += 1
            elif status >= 500:
                self._counts["http_errors_5xx"] += 1

    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (must be a known name)."""
        if name not in self._counts:
            raise KeyError(
                f"unknown serving metric {name!r}; known: {_COUNTERS}"
            )
        with self._lock:
            self._counts[name] += amount

    def observe_latency(self, name: str, seconds: float) -> None:
        """Record one latency sample into histogram ``name``."""
        self.observe_latencies(name, (seconds,))

    def observe_latencies(self, name: str, samples) -> None:
        """Record every latency sample in ``samples`` into histogram
        ``name`` under one lock acquisition (a flush's per-slice
        ingest latencies)."""
        if name not in self._histograms:
            raise KeyError(
                f"unknown latency histogram {name!r}; "
                f"known: {_HISTOGRAMS}"
            )
        histogram = self._histograms[name]
        with self._lock:
            for seconds in samples:
                histogram.record(seconds)

    def observe_flush(self, n_slices: int, seconds: float) -> None:
        """Record one scheduler flush of ``n_slices`` slices.

        ``seconds == 0.0`` marks a bookkeeping-only flush (warmup
        absorption); it counts into the totals but not the flush
        latency histogram, which tracks real executions.
        """
        with self._lock:
            self._counts["batches_flushed"] += 1
            self._counts["slices_flushed"] += n_slices
            self._flush_seconds += seconds
            if seconds > 0.0:
                self._histograms["flush"].record(seconds)

    def snapshot(self) -> dict:
        """A consistent point-in-time copy of every counter.

        Includes two derived values — ``mean_batch_size`` (flushed
        slices per flush) and ``flush_seconds_total`` — plus one
        ``<name>_latency`` dict per histogram carrying
        ``count``/``mean_seconds``/``max_seconds`` and the
        ``p50/p95/p99_seconds`` percentiles.
        """
        with self._lock:
            counts = dict(self._counts)
            flush_seconds = self._flush_seconds
            summaries = {
                name: histogram.summary()
                for name, histogram in self._histograms.items()
            }
            gauges = dict(self._gauges)
        # Gauges run outside the metrics lock: they read other
        # components' state (store residency, scheduler queue depth)
        # which takes those components' locks — nesting them under the
        # metrics lock would invite ordering deadlocks.
        for name, fn in gauges.items():
            counts[name] = fn()
        batches = counts["batches_flushed"]
        counts["flush_seconds_total"] = flush_seconds
        counts["mean_batch_size"] = (
            counts["slices_flushed"] / batches if batches else 0.0
        )
        for name, summary in summaries.items():
            counts[f"{name}_latency"] = summary
        return counts
