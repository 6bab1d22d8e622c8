"""Tests for the self-healing shard fleet: probing, rebalance, failover.

The unit tier covers the weighted ring, tolerant metric aggregation,
and the router's GET-only retry policy (driven through the chaos
proxy, so the failures happen on the wire).  The integration tier
kills real shard HTTP servers and asserts the recovery invariants:
failover rehydrates sessions bit-identically up to the last flush,
acked-but-unflushed slices surface as an honest ``degraded`` count, a
shard dying mid-migration leaves the source authoritative, and a
prober flap below the failure threshold triggers nothing.  The final
test is the chaos gate CI runs: a two-shard replay with one shard
killed mid-run must finish with zero lost sessions and zero send
errors.
"""

import threading
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from repro.exceptions import ConfigError, SessionError
from repro.scenarios.replay import run_replay
from repro.serving import HTTPServingClient, SessionManager
from repro.serving.gateway import serve
from repro.serving.shard import (
    HashRing,
    ShardRouterServer,
    aggregate_snapshots,
    start_local_cluster,
)
from tests.serving.conftest import CONFIG_KWARGS, make_session_stream
from tests.serving.faults import start_chaos_proxy


@contextmanager
def _gateway(**manager_kwargs):
    manager = SessionManager(**manager_kwargs)
    server = serve(manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://{server.server_address[0]}:{server.port}"
    finally:
        server.shutdown()
        server.server_close()
        manager.close()
        thread.join(timeout=5)


@contextmanager
def _router(urls, **kwargs):
    router = ShardRouterServer(("127.0.0.1", 0), urls, **kwargs)
    thread = threading.Thread(target=router.serve_forever, daemon=True)
    thread.start()
    try:
        yield router
    finally:
        router.shutdown()
        router.server_close()
        thread.join(timeout=5)


def _wait_until(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _placement(cluster, session_id):
    for shard in cluster.shard_urls:
        if session_id in HTTPServingClient(shard).list_sessions():
            return shard
    raise AssertionError(f"{session_id} not found on any shard")


def _ingest_all(client, session_id, slices, masks):
    for values, mask in zip(slices, masks):
        client.ingest(session_id, values, mask)


def _flushed(url):
    return HTTPServingClient(url).metrics()["slices_flushed"]


class TestWeightedRing:
    def test_unit_weights_reproduce_the_unweighted_ring(self):
        shards = ["http://a:1", "http://b:2", "http://c:3"]
        plain = HashRing(shards)
        weighted = HashRing(shards, weights={url: 1.0 for url in shards})
        for i in range(400):
            sid = f"session-{i}"
            assert plain.shard_for(sid) == weighted.shard_for(sid)

    def test_heavier_shard_attracts_more_sessions(self):
        shards = ["http://a:1", "http://b:2", "http://c:3"]
        ring = HashRing(shards, weights={"http://a:1": 3.0})
        counts = Counter(
            ring.shard_for(f"session-{i}") for i in range(1200)
        )
        assert counts["http://a:1"] > counts["http://b:2"]
        assert counts["http://a:1"] > counts["http://c:3"]
        # Capacity 3 of 5 total: well over a third of the keyspace.
        assert counts["http://a:1"] > 1200 // 3

    def test_weights_surface_in_topology(self):
        ring = HashRing(
            ["http://a:1", "http://b:2"], weights={"http://b:2": 2.5}
        )
        assert ring.weights == {"http://a:1": 1.0, "http://b:2": 2.5}

    def test_weight_validation(self):
        with pytest.raises(ConfigError):
            HashRing(["http://a:1"], weights={"http://a:1": 0.0})
        with pytest.raises(ConfigError):
            HashRing(["http://a:1"], weights={"http://a:1": -2.0})
        with pytest.raises(ConfigError):
            HashRing(["http://a:1"], weights={"http://nope:9": 1.0})


class TestAggregateTolerance:
    def test_unreachable_shard_skipped_not_fatal(self):
        merged = aggregate_snapshots(
            {
                "http://a:1": {
                    "slices_ingested": 10,
                    "slices_flushed": 10,
                },
                "http://b:2": None,
            }
        )
        assert merged["slices_ingested"] == 10
        assert merged["unreachable_shards"] == ["http://b:2"]
        assert set(merged["shards"]) == {"http://a:1", "http://b:2"}

    def test_all_reachable_lists_nothing(self):
        merged = aggregate_snapshots(
            {"http://a:1": {"slices_ingested": 1}}
        )
        assert merged["unreachable_shards"] == []


class TestRouterRetries:
    def test_get_retry_rides_out_a_dropped_connection(self):
        with _gateway(max_batch=1, max_latency_s=10.0) as upstream:
            proxy = start_chaos_proxy(upstream)
            try:
                with _router([proxy.url], retries=2) as router:
                    client = HTTPServingClient(router.url)
                    client.create_session("retry-s", dict(CONFIG_KWARGS))
                    rule = proxy.blackhole(
                        r"/sessions/retry-s$", times=1, method="GET"
                    )
                    info = client.session_info("retry-s")
                    assert info["session_id"] == "retry-s"
                    assert rule.hits == 1
                    assert (
                        router.router_metrics()["retried_requests"] >= 1
                    )
            finally:
                proxy.close()

    def test_non_get_is_never_retried(self):
        # An ingest that died mid-flight may still have been applied:
        # the router must fail it upward instead of re-sending.
        slices, masks = make_session_stream(seed=51, n_steps=2)
        with _gateway(max_batch=1, max_latency_s=10.0) as upstream:
            proxy = start_chaos_proxy(upstream)
            try:
                with _router([proxy.url], retries=2) as router:
                    client = HTTPServingClient(router.url)
                    client.create_session("no-retry", dict(CONFIG_KWARGS))
                    rule = proxy.blackhole(
                        r"/sessions/no-retry/slices$",
                        times=1,
                        method="POST",
                    )
                    with pytest.raises(SessionError) as excinfo:
                        client.ingest("no-retry", slices[0], masks[0])
                    assert excinfo.value.http_status == 502
                    assert rule.hits == 1  # one attempt, no retry
                    retried = router.router_metrics()["retried_requests"]
                    # The failed POST contributed no retries.
                    client.ingest("no-retry", slices[1], masks[1])
                    assert (
                        router.router_metrics()["retried_requests"]
                        == retried
                    )
            finally:
                proxy.close()


class TestProberAndPlacement:
    def test_probe_once_populates_health(self):
        with start_local_cluster(
            2, max_batch=1, max_latency_s=10.0
        ) as cluster:
            sweep = cluster.router.probe_once()
            assert sorted(sweep["alive"]) == sorted(cluster.shard_urls)
            assert sweep["dead"] == []
            assert sweep["failover"] == {}
            health = cluster.router.describe()["health"]
            for url in cluster.shard_urls:
                assert health[url]["alive"] is True
                assert health[url]["probes"] == 1
                assert health[url]["consecutive_failures"] == 0

    def test_flap_below_threshold_triggers_nothing(self):
        # Two failed sweeps against a threshold of three, then the
        # shard answers again: no failover, no overrides, no storm.
        with _gateway(max_batch=1, max_latency_s=10.0) as up_a:
            with _gateway(max_batch=1, max_latency_s=10.0) as up_b:
                proxy_a = start_chaos_proxy(up_a)
                proxy_b = start_chaos_proxy(up_b)
                try:
                    with _router(
                        [proxy_a.url, proxy_b.url], probe_failures=3
                    ) as router:
                        proxy_a.blackhole(r"/metrics$", times=2)
                        for expected_failures in (1, 2):
                            sweep = router.probe_once()
                            assert sweep["dead"] == []
                            assert sweep["failover"] == {}
                            health = router.describe()["health"]
                            assert (
                                health[proxy_a.url][
                                    "consecutive_failures"
                                ]
                                == expected_failures
                            )
                        # The flap ends; the streak resets to zero.
                        sweep = router.probe_once()
                        assert sweep["dead"] == []
                        health = router.describe()["health"]
                        assert (
                            health[proxy_a.url]["consecutive_failures"]
                            == 0
                        )
                        metrics = router.router_metrics()
                        assert metrics["failovers"] == 0
                        assert metrics["migrations"] == 0
                        assert metrics["placement_overrides"] == 0
                finally:
                    proxy_a.close()
                    proxy_b.close()

    def test_new_sessions_land_on_least_loaded_shard(self):
        with start_local_cluster(
            2, max_batch=1, max_latency_s=10.0
        ) as cluster:
            router = cluster.router
            # Before any probe the ring decides, load-unaware.
            assert router.place_new("pre-probe") == router.ring.shard_for(
                "pre-probe"
            )
            router.probe_once()
            loaded, spare = cluster.shard_urls
            with router._state_lock:
                router._health[loaded].resident_sessions = 5
            sid = next(
                f"lb-{i}"
                for i in range(200)
                if router.ring.shard_for(f"lb-{i}") == loaded
            )
            assert router.place_new(sid) == spare
            assert router.router_metrics()["load_placements"] == 1
            # With the spare marked dead, only live shards are
            # eligible — even for sessions the ring owes to the spare.
            with router._state_lock:
                router._health[spare].alive = False
            spare_owned = next(
                f"ld-{i}"
                for i in range(200)
                if router.ring.shard_for(f"ld-{i}") == spare
            )
            assert router.place_new(spare_owned) == loaded


class TestJoinDrain:
    def test_join_rebalances_and_drain_empties(self):
        slices, masks = make_session_stream(seed=52, n_steps=10)
        with start_local_cluster(
            2, max_batch=1, max_latency_s=10.0
        ) as cluster:
            client = HTTPServingClient(cluster.url)
            session_ids = [f"jd-{i}" for i in range(5)]
            for sid in session_ids:
                client.create_session(sid, dict(CONFIG_KWARGS))
                _ingest_all(client, sid, slices, masks)
            assert _wait_until(
                lambda: sum(
                    _flushed(url) for url in cluster.shard_urls
                )
                == 50
            )
            with _gateway(max_batch=1, max_latency_s=10.0) as extra:
                old_ring = HashRing(list(cluster.shard_urls))
                new_ring = HashRing([*cluster.shard_urls, extra])
                expected_moves = sorted(
                    sid
                    for sid in session_ids
                    if old_ring.shard_for(sid) != new_ring.shard_for(sid)
                )
                outcome = client.join_shard(extra)
                assert outcome["joined"] is True
                assert outcome["failed"] == {}
                assert sorted(outcome["moved"]) == expected_moves
                assert set(outcome["shards"]) == {
                    *cluster.shard_urls,
                    extra,
                }
                listing = HTTPServingClient(extra).list_sessions()
                assert sorted(listing) == expected_moves
                assert sorted(client.list_sessions()) == session_ids
                for sid in session_ids:
                    assert client.forecast(sid, 2).forecast.shape[0] == 2
                assert client.shards()["rebalances"] == 1

                # Drain it back out: the extra shard ends empty and
                # every session is reachable through the router again.
                outcome = client.drain_shard(extra)
                assert outcome["drained"] is True
                assert sorted(outcome["moved"]) == expected_moves
                assert HTTPServingClient(extra).list_sessions() == []
                assert tuple(client.shards()["shards"]) == (
                    cluster.shard_urls
                )
                assert sorted(client.list_sessions()) == session_ids
            for sid in session_ids:
                client.close_session(sid)

    def test_join_existing_shard_is_a_noop(self):
        with start_local_cluster(
            2, max_batch=1, max_latency_s=10.0
        ) as cluster:
            client = HTTPServingClient(cluster.url)
            outcome = client.join_shard(cluster.shard_urls[0])
            assert outcome["joined"] is False

    def test_join_and_drain_validation(self):
        with start_local_cluster(
            1, max_batch=1, max_latency_s=10.0
        ) as cluster:
            client = HTTPServingClient(cluster.url)
            with pytest.raises(ConfigError):
                client.join_shard("ftp://not-http")
            with pytest.raises(ConfigError):
                client.join_shard("http://x:1", weight=-1.0)
            with pytest.raises(ConfigError):
                client.drain_shard("http://never-joined:9")
            # Draining the last shard would leave nowhere to serve.
            with pytest.raises(ConfigError):
                client.drain_shard(cluster.shard_urls[0])

    def test_durable_cluster_refuses_manager_checkpoint_dir(self):
        # checkpoint_dir= would send every shard's checkpoints to one
        # flat dir the router's failover never searches — sessions
        # would silently become unrecoverable on shard death.
        with pytest.raises(ConfigError, match="checkpoint_root"):
            start_local_cluster(2, durable=True, checkpoint_dir="/tmp/x")


class TestFailover:
    def test_dead_shard_sessions_rehome_bit_identical(self):
        slices, masks = make_session_stream(seed=53, n_steps=12)
        with start_local_cluster(
            2,
            durable=True,
            probe_failures=2,
            max_batch=1,
            max_latency_s=10.0,
        ) as cluster:
            client = HTTPServingClient(cluster.url)
            session_ids = [f"fo-{i}" for i in range(4)]
            for sid in session_ids:
                client.create_session(sid, dict(CONFIG_KWARGS))
                _ingest_all(client, sid, slices, masks)
            root = cluster.checkpoint_root
            assert _wait_until(
                lambda: sum(
                    _flushed(url) for url in cluster.shard_urls
                )
                == 48
                and all(
                    list(root.glob(f"*/{sid}.npz"))
                    for sid in session_ids
                )
            )
            before = {
                sid: client.forecast(sid, 3).forecast
                for sid in session_ids
            }
            homes = {sid: _placement(cluster, sid) for sid in session_ids}
            victim = next(iter(sorted(set(homes.values()))))
            victims = sorted(
                sid for sid, home in homes.items() if home == victim
            )
            cluster.kill_shard(cluster.shard_urls.index(victim))

            cluster.router.probe_once()
            sweep = cluster.router.probe_once()
            assert sweep["dead"] == [victim]
            outcome = sweep["failover"][victim]
            assert outcome["rehomed"] == victims
            assert outcome["lost"] == {}

            # Nothing lost, nothing degraded: every session is still
            # served and forecasts match the pre-kill state bit-for-bit
            # (the checkpoint held the last flush, which was
            # everything).
            assert sorted(client.list_sessions()) == session_ids
            for sid in session_ids:
                info = client.session_info(sid)
                assert info["status"] == "ready"
                assert info["degraded"] == 0
                np.testing.assert_array_equal(
                    client.forecast(sid, 3).forecast, before[sid]
                )
            metrics = cluster.router.router_metrics()
            assert metrics["failovers"] == 1
            assert metrics["failed_over_sessions"] == len(victims)
            assert metrics["lost_sessions"] == 0
            assert metrics["dead_shards"] == [victim]

            # The stream continues through the router transparently.
            more, more_masks = make_session_stream(seed=54, n_steps=2)
            for sid in victims:
                _ingest_all(client, sid, more, more_masks)

    def test_degraded_accounting_matches_unflushed_slices(self):
        slices, masks = make_session_stream(seed=55, n_steps=18)
        with start_local_cluster(
            2,
            durable=True,
            probe_failures=1,
            max_batch=4,
            max_latency_s=30.0,
        ) as cluster:
            client = HTTPServingClient(cluster.url)
            client.create_session("deg-0", dict(CONFIG_KWARGS))
            # Sixteen slices = four full batches: all flushed and
            # checkpointed.  max_latency_s is far past the test's
            # horizon, so the two extra slices stay buffered — acked
            # by the shard, never applied.
            _ingest_all(client, "deg-0", slices[:16], masks[:16])
            home = _placement(cluster, "deg-0")
            root = cluster.checkpoint_root
            assert _wait_until(
                lambda: _flushed(home) == 16
                and bool(list(root.glob("*/deg-0.npz")))
            )
            _ingest_all(client, "deg-0", slices[16:], masks[16:])
            cluster.kill_shard(cluster.shard_urls.index(home))

            sweep = cluster.router.probe_once()
            assert sweep["dead"] == [home]
            assert sweep["failover"][home]["rehomed"] == ["deg-0"]

            info = client.session_info("deg-0")
            assert info["status"] == "degraded"
            assert info["degraded"] == 2  # exactly the unflushed tail
            assert cluster.router.router_metrics()[
                "degraded_sessions"
            ] == 1
            snapshot = client.metrics()
            assert snapshot["degraded_imports"] == 1
            # The mark is permanent: it survives an export of the
            # re-homed session (and therefore any later migration).
            exported = client.export_session("deg-0")
            assert exported["degraded"] == 2

    def test_shard_death_mid_migration_leaves_source_authoritative(self):
        slices, masks = make_session_stream(seed=56, n_steps=10)
        with start_local_cluster(
            2, max_batch=1, max_latency_s=10.0
        ) as cluster:
            client = HTTPServingClient(cluster.url)
            client.create_session("mid-mig", dict(CONFIG_KWARGS))
            _ingest_all(client, "mid-mig", slices, masks)
            source = _placement(cluster, "mid-mig")
            target = next(
                url for url in cluster.shard_urls if url != source
            )
            assert _wait_until(lambda: _flushed(source) == 10)
            cluster.kill_shard(cluster.shard_urls.index(target))

            with pytest.raises(SessionError, match="unreachable"):
                client.migrate_session("mid-mig", target)

            # The move never happened: no override, no migration
            # counted, and the source still serves the session.
            topology = client.shards()
            assert topology["overrides"] == {}
            assert topology["migrations"] == 0
            assert (
                "mid-mig"
                in HTTPServingClient(source).list_sessions()
            )
            more, more_masks = make_session_stream(seed=57, n_steps=2)
            _ingest_all(client, "mid-mig", more, more_masks)
            assert client.forecast("mid-mig", 2).forecast.shape[0] == 2

    def test_failover_without_checkpoints_reports_lost(self):
        # No durable tier: the dead shard's sessions cannot be
        # rebuilt, and the router must say so instead of pretending.
        slices, masks = make_session_stream(seed=58, n_steps=10)
        with start_local_cluster(
            2, probe_failures=1, max_batch=1, max_latency_s=10.0
        ) as cluster:
            client = HTTPServingClient(cluster.url)
            client.create_session("doomed", dict(CONFIG_KWARGS))
            _ingest_all(client, "doomed", slices, masks)
            home = _placement(cluster, "doomed")
            cluster.kill_shard(cluster.shard_urls.index(home))

            sweep = cluster.router.probe_once()
            outcome = sweep["failover"][home]
            assert outcome["rehomed"] == []
            assert "doomed" in outcome["lost"]
            metrics = cluster.router.router_metrics()
            assert metrics["lost_sessions"] == 1
            assert (
                "doomed" in cluster.router.describe()["lost_sessions"]
            )


class TestChaosReplayGate:
    """The CI chaos gate: kill one of two shards mid-replay.

    The replay drives the ``session_churn`` scenario through a durable
    two-shard cluster with the prober live.  A watcher thread waits
    until every session has a durable checkpoint, then hard-kills a
    shard that owns sessions.  The run must finish with zero send
    errors (the senders' retry window rides out the failover), every
    killed session re-homed, and none lost.
    """

    def test_shard_death_mid_replay_loses_no_sessions(self):
        with start_local_cluster(
            2,
            durable=True,
            probe_interval=0.2,
            probe_timeout=0.5,
            probe_failures=2,
            max_batch=1,
            max_latency_s=10.0,
        ) as cluster:
            root = cluster.checkpoint_root
            n_sessions = 6
            killed: dict = {}

            def killer():
                ok = _wait_until(
                    lambda: len(
                        {p.stem for p in root.glob("*/*.npz")}
                    )
                    >= n_sessions,
                    timeout=60.0,
                )
                if not ok:  # pragma: no cover - surfaced by asserts
                    killed["error"] = "checkpoints never appeared"
                    return
                per_shard = {
                    url: HTTPServingClient(url).list_sessions()
                    for url in cluster.shard_urls
                }
                victim = max(per_shard, key=lambda u: len(per_shard[u]))
                killed["victim"] = victim
                killed["sessions"] = sorted(per_shard[victim])
                cluster.kill_shard(cluster.shard_urls.index(victim))

            thread = threading.Thread(target=killer, daemon=True)
            thread.start()
            report = run_replay(
                "session_churn",
                url=cluster.url,
                rate=80.0,
                # Sessions first checkpoint when they initialize, 20
                # slices in (plus the init flush); 60 slices leave the
                # kill well inside the sends, so senders on the victim
                # must retry.
                slices=60,
                tiny=True,
                connect_retry_s=30.0,
            )
            thread.join(timeout=60)
            assert "error" not in killed
            assert killed["sessions"], "victim shard owned no sessions"

            assert report.n_sessions == n_sessions
            assert report.send_errors == 0
            assert report.session_errors == {}
            assert report.stalled_sessions == ()
            assert report.drained
            # The outage was absorbed by in-place retries, visibly.
            assert report.retried_sends > 0

            router_stats = report.server_metrics["router"]
            assert router_stats["failovers"] == 1
            assert router_stats["lost_sessions"] == 0
            assert router_stats["failed_over_sessions"] == len(
                killed["sessions"]
            )
            assert router_stats["dead_shards"] == [killed["victim"]]
            assert (
                report.server_metrics["unreachable_shards"]
                == [killed["victim"]]
            )
