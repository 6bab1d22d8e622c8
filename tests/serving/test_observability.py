"""Observability: lifecycle tracing, Prometheus, quality telemetry.

Trace propagation is pinned over every transport the runtime has —
in-process client, HTTP gateway, and the router hop of a 2-shard
cluster — plus the rendering properties the scrape gate relies on:
bucket lines sum to the histogram count and fleet-merged percentiles
reproduce a single combined histogram's.
"""

import threading

import numpy as np
import pytest

from repro.exceptions import SessionError, SessionNotFoundError
from repro.serving import (
    TRACE_STAGES,
    HTTPServingClient,
    InProcessServingClient,
    LatencyHistogram,
    ServingMetrics,
    SessionManager,
    SessionQuality,
    SliceSpan,
    TraceBuffer,
    render_prometheus,
    start_local_cluster,
)
from repro.serving import pool
from repro.serving.gateway import serve
from repro.serving.pool import FlushResult
from repro.serving.shard import aggregate_snapshots
from tests.serving.conftest import CONFIG_KWARGS, make_session_stream
from tools.check_prom import check_exposition

INIT_STEPS = CONFIG_KWARGS["init_seasons"] * CONFIG_KWARGS["period"]


def _span(**overrides) -> SliceSpan:
    base = dict(
        trace_id="t1",
        session_id="s",
        seq=0,
        accepted=1.0,
        enqueued=2.0,
        dispatched=3.0,
        executed=4.0,
        committed=5.0,
    )
    base.update(overrides)
    return SliceSpan(**base)


class TestTraceBuffer:
    def test_rate_zero_never_samples(self):
        tracer = TraceBuffer(sample_rate=0.0)
        assert all(tracer.sample() is None for _ in range(100))

    def test_rate_one_always_samples(self):
        tracer = TraceBuffer(sample_rate=1.0)
        ids = [tracer.sample() for _ in range(50)]
        assert all(ids)
        assert len(set(ids)) == 50

    def test_fractional_rate_samples_proportionally(self):
        tracer = TraceBuffer(sample_rate=0.25)
        hits = sum(tracer.sample() is not None for _ in range(100))
        assert hits == 25  # accumulator sampler is deterministic

    def test_explicit_id_always_wins(self):
        tracer = TraceBuffer(sample_rate=0.0)
        assert tracer.sample("given") == "given"

    def test_capacity_evicts_and_counts_drops(self):
        tracer = TraceBuffer(sample_rate=1.0, capacity=2)
        for seq in range(5):
            tracer.record(_span(seq=seq, trace_id=f"t{seq}"))
        stats = tracer.stats()
        assert stats["recorded"] == 2
        assert stats["dropped"] == 3
        assert [s["seq"] for s in tracer.spans()] == [3, 4]

    def test_span_filters(self):
        tracer = TraceBuffer(sample_rate=1.0)
        tracer.record(_span(session_id="a", trace_id="x"))
        tracer.record(_span(session_id="b", trace_id="y"))
        assert [
            s["trace_id"] for s in tracer.spans(session_id="b")
        ] == ["y"]
        assert [
            s["session_id"] for s in tracer.spans(trace_id="x")
        ] == ["a"]
        assert len(tracer.spans(limit=1)) == 1

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            TraceBuffer(sample_rate=1.5)
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)


class TestSliceSpan:
    def test_monotone_chain(self):
        assert _span().is_monotone()
        assert not _span(dispatched=1.5).is_monotone()

    def test_as_dict_stage_decomposition(self):
        span = _span(execute_seconds=0.4).as_dict()
        assert list(span["stages"]) == list(TRACE_STAGES)
        assert span["queue_seconds"] == pytest.approx(1.0)
        assert span["total_seconds"] == pytest.approx(4.0)
        # (executed - dispatched) - execute_seconds is the IPC share.
        assert span["overhead_seconds"] == pytest.approx(0.6)


class TestSessionQuality:
    def test_snapshot_fields_are_sane(self):
        quality = SessionQuality(window=4)
        quality.observe_batch(
            [(0, 10, 1.0, 100.0, 2), (1, 10, 4.0, 100.0, 0)],
            0.5,
            committed_at=10.0,
        )
        snap = quality.snapshot(now=12.5)
        assert snap["slices_applied"] == 2
        assert snap["window_slices"] == 2
        assert snap["running_nre"] == pytest.approx((5.0 / 200.0) ** 0.5)
        assert 0.0 <= snap["outlier_fraction"] <= 1.0
        assert snap["error_scale"] == 0.5
        assert snap["last_flush_age_seconds"] == pytest.approx(2.5)

    def test_window_is_bounded(self):
        quality = SessionQuality(window=3)
        quality.observe_batch(
            [(seq, 1, 1.0, 1.0, 1) for seq in range(10)],
            None,
            committed_at=1.0,
        )
        snap = quality.snapshot(now=1.0)
        assert snap["window_slices"] == 3
        assert snap["slices_applied"] == 10

    def test_empty_window_has_no_nre(self):
        snap = SessionQuality().snapshot(now=0.0)
        assert snap["running_nre"] is None
        assert snap["outlier_fraction"] == 0.0
        assert snap["last_flush_age_seconds"] is None


class TestPrometheusRender:
    def test_bucket_lines_sum_to_count(self):
        metrics = ServingMetrics()
        rng = np.random.default_rng(7)
        for value in rng.exponential(0.01, size=200):
            metrics.observe_latency("ingest", float(value))
        text = render_prometheus(metrics.snapshot())
        lines = [
            line
            for line in text.splitlines()
            if line.startswith("repro_ingest_latency_seconds_bucket")
        ]
        # Cumulative buckets: the +Inf (last) line carries the count.
        assert lines[-1].startswith(
            'repro_ingest_latency_seconds_bucket{le="+Inf"}'
        )
        assert int(lines[-1].split()[-1]) == 200
        counts = [int(line.split()[-1]) for line in lines]
        assert counts == sorted(counts)
        assert "repro_ingest_latency_seconds_count 200" in text

    def test_render_passes_scrape_checker(self):
        metrics = ServingMetrics()
        metrics.observe_latency("ingest", 0.01)
        metrics.observe_http(200)
        metrics.observe_http(404)
        assert check_exposition(render_prometheus(metrics.snapshot())) == []

    def test_counters_and_gauges_are_typed(self):
        metrics = ServingMetrics()
        metrics.register_gauge("resident_sessions", lambda: 3)
        metrics.observe_http(500)
        text = render_prometheus(metrics.snapshot())
        assert "# TYPE repro_http_requests_total counter" in text
        assert "repro_http_errors_5xx_total 1" in text
        assert "# TYPE repro_resident_sessions gauge" in text
        assert "repro_resident_sessions 3" in text

    def test_summary_fallback_without_buckets(self):
        snapshot = {
            "ingest_latency": {
                "count": 4,
                "mean_seconds": 0.2,
                "p50_seconds": 0.1,
                "p95_seconds": 0.3,
                "p99_seconds": 0.4,
                "max_seconds": 0.4,
            }
        }
        text = render_prometheus(snapshot)
        assert 'quantile="0.95"' in text
        assert check_exposition(text) == []


class TestHistogramMerge:
    def test_merged_percentiles_match_combined_histogram(self):
        rng = np.random.default_rng(3)
        samples_a = rng.exponential(0.005, size=300)
        samples_b = rng.exponential(0.05, size=150)
        shard_a, shard_b, combined = (
            LatencyHistogram(),
            LatencyHistogram(),
            LatencyHistogram(),
        )
        for value in samples_a:
            shard_a.record(float(value))
            combined.record(float(value))
        for value in samples_b:
            shard_b.record(float(value))
            combined.record(float(value))
        merged = aggregate_snapshots(
            {
                "a": {"ingest_latency": shard_a.summary()},
                "b": {"ingest_latency": shard_b.summary()},
            }
        )["ingest_latency"]
        reference = combined.summary()
        for key in ("p50_seconds", "p95_seconds", "p99_seconds"):
            assert merged[key] == reference[key]
        assert merged["count"] == reference["count"]
        assert merged["buckets"]["counts"] == reference["buckets"]["counts"]

    def test_merge_falls_back_without_buckets(self):
        # Old shards (pre-bucket summaries) still merge conservatively.
        summary = {
            "count": 10,
            "mean_seconds": 0.1,
            "p50_seconds": 0.1,
            "p95_seconds": 0.2,
            "p99_seconds": 0.3,
            "max_seconds": 0.3,
        }
        other = dict(summary, p95_seconds=0.5, count=5)
        merged = aggregate_snapshots(
            {
                "a": {"ingest_latency": summary},
                "b": {"ingest_latency": other},
            }
        )["ingest_latency"]
        assert merged["p95_seconds"] == 0.5  # conservative max
        assert merged["count"] == 15
        assert "buckets" not in merged


@pytest.fixture
def traced_manager():
    with SessionManager(
        max_batch=4,
        max_latency_s=0.01,
        workers=2,
        trace_sample_rate=1.0,
    ) as manager:
        yield manager


def _feed_session(client, session_id: str, n_steps: int = 12):
    """Create + fully ingest one session; returns the acks."""
    slices, masks = make_session_stream(seed=11, n_steps=n_steps)
    client.create_session(session_id, dict(CONFIG_KWARGS))
    return [
        client.ingest(session_id, slices[t], masks[t])
        for t in range(n_steps)
    ]


def _assert_complete_chains(spans, acks):
    by_seq = {span["seq"]: span for span in spans}
    for ack in acks:
        span = by_seq[ack.seq]
        assert span["trace_id"] == ack.trace_id
        assert span["error"] is None
        stamps = [span["stages"][stage] for stage in TRACE_STAGES]
        assert all(a <= b for a, b in zip(stamps, stamps[1:]))


class TestInProcessTracing:
    def test_every_ack_gets_a_complete_span(self, traced_manager):
        client = InProcessServingClient(traced_manager)
        acks = _feed_session(client, "traced")
        assert all(ack.trace_id for ack in acks)
        traced_manager.drain("traced")
        spans = client.traces(session_id="traced")["traces"]
        _assert_complete_chains(spans, acks)

    def test_explicit_trace_id_round_trips(self, traced_manager):
        client = InProcessServingClient(traced_manager)
        _feed_session(client, "explicit", n_steps=INIT_STEPS)
        slices, masks = make_session_stream(seed=12, n_steps=1)
        ack = client.ingest(
            "explicit", slices[0], masks[0], trace_id="my-trace"
        )
        assert ack.trace_id == "my-trace"
        traced_manager.drain("explicit")
        spans = client.traces(trace_id="my-trace")["traces"]
        assert [s["seq"] for s in spans] == [ack.seq]

    def test_untraced_manager_allocates_no_spans(self):
        with SessionManager(
            max_batch=4, max_latency_s=0.01, workers=2
        ) as manager:
            client = InProcessServingClient(manager)
            _feed_session(client, "dark", n_steps=INIT_STEPS)
            manager.drain("dark")
            assert client.traces() == {
                "traces": [],
                "tracing": {
                    "sample_rate": 0.0,
                    "capacity": 4096,
                    "recorded": 0,
                    "dropped": 0,
                },
            }

    def test_session_stats(self, traced_manager):
        client = InProcessServingClient(traced_manager)
        _feed_session(client, "stats")
        traced_manager.drain("stats")
        stats = client.session_stats("stats")
        assert stats["slices_applied"] == 12
        assert stats["running_nre"] is not None
        assert stats["running_nre"] >= 0.0
        assert 0.0 <= stats["outlier_fraction"] <= 1.0
        assert stats["error_scale"] > 0.0
        assert stats["last_flush_age_seconds"] >= 0.0
        with pytest.raises(SessionNotFoundError):
            client.session_stats("nope")

    def test_prometheus_metrics_text(self, traced_manager):
        client = InProcessServingClient(traced_manager)
        _feed_session(client, "prom", n_steps=INIT_STEPS)
        traced_manager.drain("prom")
        assert check_exposition(client.prometheus_metrics()) == []

    def test_span_schema(self, traced_manager):
        client = InProcessServingClient(traced_manager)
        _feed_session(client, "schema")
        traced_manager.drain("schema")
        spans = client.traces(session_id="schema")["traces"]
        assert spans
        for span in spans:
            assert set(span) == {
                "trace_id",
                "session_id",
                "seq",
                "stages",
                "queue_seconds",
                "execute_seconds",
                "overhead_seconds",
                "total_seconds",
                "error",
            }
            assert list(span["stages"]) == list(TRACE_STAGES)

    def test_concurrent_sessions_get_complete_chains(self, traced_manager):
        # Two sessions flush on the two dispatch threads; each slice's
        # trace id still lands on its own session's span.
        client = InProcessServingClient(traced_manager)
        acks = {sid: _feed_session(client, sid) for sid in ("p", "q")}
        traced_manager.drain()
        for sid, session_acks in acks.items():
            spans = client.traces(session_id=sid)["traces"]
            assert {span["session_id"] for span in spans} == {sid}
            _assert_complete_chains(spans, session_acks)

    def test_failed_flush_completes_spans_with_error(
        self, traced_manager, monkeypatch
    ):
        client = InProcessServingClient(traced_manager)
        _feed_session(client, "doomed", n_steps=INIT_STEPS)
        traced_manager.drain("doomed")

        def failing(requests):
            return [
                FlushResult(
                    session_id=r.session_id,
                    error="injected crash",
                    trace_ids=dict(r.trace_ids),
                )
                for r in requests
            ]

        monkeypatch.setattr(pool, "execute_requests", failing)
        slices, masks = make_session_stream(seed=13, n_steps=4)
        acks = [
            client.ingest("doomed", slices[t], masks[t]) for t in range(4)
        ]
        traced_manager.drain("doomed")
        by_seq = {
            span["seq"]: span
            for span in client.traces(session_id="doomed")["traces"]
        }
        for ack in acks:
            span = by_seq[ack.seq]
            assert span["trace_id"] == ack.trace_id
            assert "injected crash" in span["error"]
        with pytest.raises(SessionError, match="injected crash"):
            client.results("doomed")


class TestGatewayObservability:
    @pytest.fixture
    def live(self):
        manager = SessionManager(
            max_batch=4,
            max_latency_s=0.01,
            workers=2,
            trace_sample_rate=1.0,
        )
        server = serve(manager, port=0)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        client = HTTPServingClient(f"http://127.0.0.1:{server.port}")
        try:
            yield client, manager
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            manager.close()

    def test_trace_header_propagates_over_http(self, live):
        client, manager = live
        acks = _feed_session(client, "http-traced")
        assert all(ack.trace_id for ack in acks)
        manager.drain("http-traced")
        spans = client.traces(session_id="http-traced")["traces"]
        _assert_complete_chains(spans, acks)
        ack = client.ingest(
            "http-traced",
            np.zeros((5, 4)),
            np.ones((5, 4), dtype=bool),
            trace_id="curl-abc",
        )
        assert ack.trace_id == "curl-abc"

    def test_stats_endpoint_and_listing(self, live):
        client, manager = live
        _feed_session(client, "http-stats")
        manager.drain("http-stats")
        stats = client.session_stats("http-stats")
        assert stats["slices_applied"] == 12
        assert stats["status"] == "ready"
        with pytest.raises(SessionNotFoundError):
            client.session_stats("missing")
        listing = client._request("GET", "/sessions")
        assert "http-stats" in listing["stats"]

    def test_prometheus_endpoint(self, live):
        client, manager = live
        _feed_session(client, "http-prom", n_steps=INIT_STEPS)
        manager.drain("http-prom")
        text = client.prometheus_metrics()
        assert check_exposition(text) == []
        assert "repro_http_requests_total" in text

    def test_http_counters_track_errors(self, live):
        client, manager = live
        with pytest.raises(SessionNotFoundError):
            client.session_info("ghost")
        snapshot = manager.metrics.snapshot()
        assert snapshot["http_requests"] >= 1
        assert snapshot["http_errors_4xx"] >= 1

    def test_operational_gauges_in_snapshot(self, live):
        client, manager = live
        _feed_session(client, "gauges", n_steps=INIT_STEPS)
        manager.drain("gauges")
        snapshot = client.metrics()
        assert snapshot["resident_sessions"] == 1
        assert snapshot["evicted_sessions"] == 0
        assert snapshot["pending_slices"] == 0


class TestRouterObservability:
    @pytest.fixture
    def cluster(self):
        with start_local_cluster(
            2,
            max_batch=4,
            max_latency_s=0.01,
            workers=2,
            trace_sample_rate=1.0,
        ) as cluster:
            yield cluster

    def test_trace_survives_router_hop(self, cluster):
        client = HTTPServingClient(cluster.url)
        acks = _feed_session(client, "routed")
        assert all(ack.trace_id for ack in acks)
        for manager in cluster.managers:
            manager.drain()
        merged = client.traces(session_id="routed")
        spans = merged["traces"]
        _assert_complete_chains(spans, acks)
        # The merged view names the shard that recorded each span.
        assert all(s["shard"] in cluster.shard_urls for s in spans)

    def test_explicit_id_through_router(self, cluster):
        client = HTTPServingClient(cluster.url)
        _feed_session(client, "hop", n_steps=INIT_STEPS)
        slices, masks = make_session_stream(seed=13, n_steps=1)
        ack = client.ingest(
            "hop", slices[0], masks[0], trace_id="router-hop-1"
        )
        assert ack.trace_id == "router-hop-1"
        for manager in cluster.managers:
            manager.drain()
        spans = client.traces(trace_id="router-hop-1")["traces"]
        assert [s["seq"] for s in spans] == [ack.seq]

    def test_fleet_prometheus_endpoint(self, cluster):
        client = HTTPServingClient(cluster.url)
        _feed_session(client, "fleet-prom", n_steps=INIT_STEPS)
        for manager in cluster.managers:
            manager.drain()
        text = client.prometheus_metrics()
        assert check_exposition(text) == []
        assert "repro_ingest_latency_seconds_bucket" in text
        assert "repro_router_http_requests_total" in text

    def test_merged_session_stats(self, cluster):
        client = HTTPServingClient(cluster.url)
        _feed_session(client, "fleet-stats")
        for manager in cluster.managers:
            manager.drain()
        listing = client._request("GET", "/sessions")
        entry = listing["stats"]["fleet-stats"]
        assert entry["slices_applied"] == 12
        assert entry["shard"] in cluster.shard_urls
