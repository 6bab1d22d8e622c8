"""End-to-end observability: slice tracing, Prometheus, quality stats.

Three concerns live here, all fed from state the serving runtime
already computes — nothing in this module touches the numerical hot
path:

* **Slice-lifecycle tracing.**  A trace id is minted (or accepted via
  the ``X-Repro-Trace-Id`` header) when a slice is ingested and rides
  the slice through every stage: gateway accept, scheduler enqueue,
  flush dispatch (inside the session's ``FlushRequest``), execution,
  and manager commit.  Completed :class:`SliceSpan` records land in a
  bounded ring (:class:`TraceBuffer`) queryable at ``GET /v1/traces``,
  so a p99 slice can be decomposed into queue wait vs kernel time.
  Sampling is off by default: with ``sample_rate == 0`` and no
  explicit trace id, :meth:`TraceBuffer.sample` is a single float
  compare and no per-span state is allocated anywhere.

* **Prometheus text exposition.**  :func:`render_prometheus` turns a
  :meth:`ServingMetrics.snapshot` dict (single gateway or the router's
  fleet-merged view) into the Prometheus text format — ``_total``
  counters, gauges, and cumulative ``_bucket`` histogram lines derived
  from :class:`LatencyHistogram`'s existing bounds.

* **Per-session quality telemetry.**  :class:`SessionQuality`
  accumulates the cheap per-slice aggregates each flush computes from
  values SOFIA's dynamic phase already produced (one-step-ahead
  forecast residuals, outlier indicators, the running error scale
  Sigma-hat) into a sliding window, snapshotted at
  ``GET /v1/sessions/<id>/stats``.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from dataclasses import dataclass

__all__ = [
    "TRACE_HEADER",
    "TRACE_STAGES",
    "SliceSpan",
    "TraceBuffer",
    "SessionQuality",
    "SliceQuality",
    "mint_trace_id",
    "percentile_from_buckets",
    "render_prometheus",
]

#: HTTP header that carries a caller-supplied trace id through the
#: router and gateway.  An explicit id is always traced, regardless of
#: the sample rate.
TRACE_HEADER = "X-Repro-Trace-Id"

#: Lifecycle stages of one traced slice, in order.  A complete span
#: has a monotone non-decreasing timestamp for each.
TRACE_STAGES = (
    "accepted",
    "enqueued",
    "dispatched",
    "executed",
    "committed",
)


def mint_trace_id() -> str:
    """A fresh 16-hex-char trace id (no external dependencies)."""
    return os.urandom(8).hex()


@dataclass
class SliceSpan:
    """Stage timings of one traced slice, all on one monotonic clock.

    Timestamps are seconds on the owning manager's scheduler clock
    (``time.monotonic`` in production), so they are comparable *within*
    a span but not across processes.  ``execute_seconds`` is the
    flush's own measurement of this session's batch; the gap
    ``(executed - dispatched) - execute_seconds`` is the dispatch
    overhead around it, so a span splits into queue wait, overhead
    and kernel time.
    """

    trace_id: str
    session_id: str
    seq: int
    accepted: float
    enqueued: float
    dispatched: float
    executed: float
    committed: float
    execute_seconds: float = 0.0
    error: str | None = None

    def timestamps(self) -> list[float]:
        """Stage timestamps in :data:`TRACE_STAGES` order."""
        return [
            self.accepted,
            self.enqueued,
            self.dispatched,
            self.executed,
            self.committed,
        ]

    def is_monotone(self) -> bool:
        """True when every stage timestamp is >= its predecessor."""
        stamps = self.timestamps()
        return all(a <= b for a, b in zip(stamps, stamps[1:]))

    def as_dict(self) -> dict:
        """JSON-ready form (the ``/v1/traces`` and JSONL shape)."""
        return {
            "trace_id": self.trace_id,
            "session_id": self.session_id,
            "seq": self.seq,
            "stages": {
                stage: stamp
                for stage, stamp in zip(TRACE_STAGES, self.timestamps())
            },
            "queue_seconds": max(self.dispatched - self.enqueued, 0.0),
            "execute_seconds": self.execute_seconds,
            "overhead_seconds": max(
                (self.executed - self.dispatched) - self.execute_seconds,
                0.0,
            ),
            "total_seconds": max(self.committed - self.accepted, 0.0),
            "error": self.error,
        }


class TraceBuffer:
    """Bounded ring of completed spans plus the sampling decision.

    ``sample`` is the only call on the ingest hot path.  With sampling
    off and no explicit id it touches no lock and allocates nothing —
    tracing disabled costs one attribute read and one compare per
    slice.
    """

    def __init__(
        self,
        *,
        sample_rate: float = 0.0,
        capacity: int = 4096,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sample_rate = float(sample_rate)
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._spans: deque[SliceSpan] = deque(maxlen=self.capacity)
        self._dropped = 0
        # Cheap deterministic-free sampler state: a counter compared
        # against the rate, so rate 1.0 traces everything and rate 0.25
        # traces one slice in four without importing ``random`` on the
        # hot path.
        self._accumulator = 0.0

    def sample(self, explicit: str | None = None) -> str | None:
        """The trace id for a new slice, or None (slice untraced).

        An ``explicit`` caller-supplied id always wins.  Otherwise the
        sample-rate accumulator decides; at rate 0.0 this is the
        no-listener fast path: one compare, no allocation.
        """
        if explicit:
            return explicit
        if self.sample_rate <= 0.0:
            return None
        with self._lock:
            self._accumulator += self.sample_rate
            if self._accumulator >= 1.0:
                self._accumulator -= 1.0
                return mint_trace_id()
        return None

    def record(self, span: SliceSpan) -> None:
        """Fold one completed span into the ring (oldest evicted)."""
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self._dropped += 1
            self._spans.append(span)

    def spans(
        self,
        *,
        session_id: str | None = None,
        trace_id: str | None = None,
        limit: int | None = None,
    ) -> list[dict]:
        """Matching spans, oldest first, as ``/v1/traces`` dicts."""
        with self._lock:
            spans = list(self._spans)
        if session_id is not None:
            spans = [s for s in spans if s.session_id == session_id]
        if trace_id is not None:
            spans = [s for s in spans if s.trace_id == trace_id]
        if limit is not None and limit >= 0:
            spans = spans[-limit:]
        return [span.as_dict() for span in spans]

    def stats(self) -> dict:
        """Ring occupancy and config (reported next to the spans)."""
        with self._lock:
            return {
                "sample_rate": self.sample_rate,
                "capacity": self.capacity,
                "recorded": len(self._spans),
                "dropped": self._dropped,
            }

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._dropped = 0


# ---------------------------------------------------------------------------
# Per-session quality telemetry
# ---------------------------------------------------------------------------

#: One slice's quality aggregates, computed at flush time from arrays
#: the dynamic phase already produced: ``observed`` mask cardinality, the
#: sum of squared one-step-ahead forecast residuals over observed
#: entries, the matching sum of squared observed values (the NRE
#: denominator), and how many entries the robust step flagged as
#: outliers.  A plain tuple of scalars, carried on ``FlushResult``.
SliceQuality = tuple  # (seq, observed, residual_ss, signal_ss, outliers)


class SessionQuality:
    """Sliding-window quality accumulator for one session.

    Fed at commit time with the :data:`SliceQuality` tuples the flush
    computed; answers the ``SessionStats`` fields — running NRE of the
    one-step-ahead forecast, outlier fraction, latest error scale, and
    last-flush staleness.  Bounded by ``window`` slices, O(window)
    memory, O(window) snapshot — no linear algebra anywhere.
    """

    def __init__(self, window: int = 64) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = int(window)
        self._recent: deque[tuple] = deque(maxlen=self.window)
        self.slices_applied = 0
        self.error_scale: float | None = None
        self.last_commit_at: float | None = None

    def observe_batch(
        self,
        quality: list[SliceQuality],
        error_scale: float | None,
        committed_at: float,
        *,
        applied: int | None = None,
    ) -> None:
        """Fold one committed flush in (called under the session lock)."""
        self.slices_applied += (
            applied if applied is not None else len(quality)
        )
        self.last_commit_at = committed_at
        if error_scale is not None:
            self.error_scale = float(error_scale)
        for entry in quality:
            self._recent.append(tuple(entry))

    def snapshot(self, now: float) -> dict:
        """The quality half of a ``SessionStats`` dict."""
        observed = sum(e[1] for e in self._recent)
        residual_ss = sum(e[2] for e in self._recent)
        signal_ss = sum(e[3] for e in self._recent)
        outliers = sum(e[4] for e in self._recent)
        nre = (
            math.sqrt(residual_ss / signal_ss) if signal_ss > 0 else None
        )
        return {
            "slices_applied": self.slices_applied,
            "window_slices": len(self._recent),
            "running_nre": nre,
            "outlier_fraction": (
                outliers / observed if observed else 0.0
            ),
            "error_scale": self.error_scale,
            "last_flush_age_seconds": (
                max(now - self.last_commit_at, 0.0)
                if self.last_commit_at is not None
                else None
            ),
        }


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

#: Snapshot keys that are monotonic counters (rendered as
#: ``<prefix>_<name>_total`` with TYPE counter).  Everything else
#: numeric is a gauge.  Kept in sync with ``metrics._COUNTERS`` by the
#: test suite rather than an import so this module stays usable on
#: merged router snapshots that carry extra keys.
_COUNTER_SUFFIXES = ("_total",)

#: Monotonic keys of the router's ``router_metrics()`` block (its
#: remaining keys — ``shards``, ``placement_overrides``,
#: ``lost_sessions`` — describe current state and stay gauges).
_ROUTER_COUNTER_KEYS = frozenset(
    {
        "migrations",
        "proxied_requests",
        "retried_requests",
        "http_requests",
        "http_errors_4xx",
        "http_errors_5xx",
        "load_placements",
        "rebalances",
        "failovers",
        "failed_over_sessions",
        "degraded_sessions",
    }
)


def _is_counter(name: str, counter_names: frozenset[str]) -> bool:
    return name in counter_names or name.endswith(_COUNTER_SUFFIXES)


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_le(bound: float) -> str:
    return "+Inf" if bound == math.inf else format(bound, ".9g")


def percentile_from_buckets(
    bounds: list[float],
    counts: list[int],
    q: float,
    max_seconds: float,
) -> float:
    """The ``q``-quantile of a bucketed histogram, in seconds.

    Mirrors :meth:`LatencyHistogram.percentile` exactly — answer the
    upper bound of the bucket holding rank ``ceil(q * count)``, clamped
    to the observed maximum — so fleet-merged bucket counts reproduce
    the percentile a single histogram over the union of samples would
    report.  ``counts`` has one more entry than ``bounds`` (the
    overflow bucket).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if len(counts) != len(bounds) + 1:
        raise ValueError(
            f"need len(counts) == len(bounds) + 1, got "
            f"{len(counts)} and {len(bounds)}"
        )
    total = sum(counts)
    if total == 0:
        return 0.0
    target = max(int(math.ceil(q * total)), 1)
    seen = 0
    for index, bucket_count in enumerate(counts):
        seen += bucket_count
        if seen >= target:
            if index >= len(bounds):
                return max_seconds
            return min(bounds[index], max_seconds)
    return max_seconds  # pragma: no cover - counts sum to total


def _render_histogram(lines: list[str], name: str, summary: dict) -> None:
    """Emit one snapshot latency summary as Prometheus samples.

    With bucket data, a real ``histogram`` family (cumulative
    ``_bucket`` lines derived from the LatencyHistogram bounds, plus
    ``_sum``/``_count``); without (a fleet merge that fell back to
    conservative percentiles), a ``summary`` family with quantile
    labels so the fleet view never silently loses its latency signal.
    """
    buckets = summary.get("buckets")
    count = int(summary.get("count", 0))
    total = float(
        summary.get(
            "total_seconds",
            summary.get("mean_seconds", 0.0) * count,
        )
    )
    if buckets:
        lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        for bound, bucket_count in zip(
            buckets["bounds"], buckets["counts"]
        ):
            cumulative += int(bucket_count)
            lines.append(
                f'{name}_bucket{{le="{_format_le(bound)}"}} {cumulative}'
            )
        cumulative += int(buckets["counts"][-1])
        lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{name}_sum {_format_value(total)}")
        lines.append(f"{name}_count {cumulative}")
    else:
        lines.append(f"# TYPE {name} summary")
        for label, key in (
            ("0.5", "p50_seconds"),
            ("0.95", "p95_seconds"),
            ("0.99", "p99_seconds"),
        ):
            value = _format_value(float(summary.get(key, 0.0)))
            lines.append(f'{name}{{quantile="{label}"}} {value}')
        lines.append(f"{name}_sum {_format_value(total)}")
        lines.append(f"{name}_count {count}")
    lines.append(f"# TYPE {name}_max gauge")
    lines.append(
        f"{name}_max {_format_value(float(summary.get('max_seconds', 0.0)))}"
    )


def render_prometheus(
    snapshot: dict,
    *,
    prefix: str = "repro",
    counter_names: frozenset[str] | None = None,
) -> str:
    """A metrics snapshot in Prometheus text exposition format.

    Works on a single gateway's :meth:`ServingMetrics.snapshot` and on
    the router's fleet-merged dict (``aggregate_snapshots`` output plus
    its ``router`` sub-dict): plain ints become counters or gauges,
    ``*_latency`` dicts become histogram (or summary-fallback)
    families, the ``shards`` map is skipped (per-shard views live on
    the shards), and ``unreachable_shards`` / ``dead_shards`` lists are
    exposed as size gauges.
    """
    if counter_names is None:
        from repro.serving.metrics import COUNTER_NAMES

        counter_names = COUNTER_NAMES
    lines: list[str] = []

    def emit_scalar(scope: str, key: str, value, counters) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return
        if _is_counter(key, counters):
            name = f"{prefix}_{scope}{key}"
            if not name.endswith("_total"):
                name += "_total"
            lines.append(f"# TYPE {name} counter")
        else:
            name = f"{prefix}_{scope}{key}"
            lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(value)}")

    def emit_block(scope: str, block: dict, counters) -> None:
        for key in sorted(block):
            value = block[key]
            # The fleet snapshot's "shards" is the per-shard raw-view
            # map (lives on the shards); the router block's "shards"
            # is a plain count and renders as a gauge below.
            if key == "shards" and isinstance(value, dict):
                continue
            if key in ("unreachable_shards", "dead_shards"):
                size = len(value) if isinstance(value, (list, tuple)) else 0
                name = f"{prefix}_{scope}{key}"
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {size}")
                continue
            if key == "router" and isinstance(value, dict):
                emit_block("router_", value, _ROUTER_COUNTER_KEYS)
                continue
            if key.endswith("_latency") and isinstance(value, dict):
                _render_histogram(
                    lines,
                    f"{prefix}_{scope}{key}_seconds",
                    value,
                )
                continue
            emit_scalar(scope, key, value, counters)

    emit_block("", snapshot, counter_names)
    return "\n".join(lines) + "\n"
