"""Tests for the consistent-hash shard router and live migration.

The ring tests are pure-unit; the router tests drive a self-hosted
two-shard cluster over real HTTP.  The migration tests pin the
headline guarantee: moving a live session between shards mid-stream
does not perturb its trajectory at all (bit-identical results versus
the unmigrated run).
"""

import json
import threading
import time
import urllib.error
import urllib.request
from collections import Counter

import numpy as np
import pytest

from repro.exceptions import (
    ConfigError,
    SessionError,
    SessionExistsError,
    SessionNotFoundError,
)
from repro.serving import HTTPServingClient, SessionManager, shard
from repro.serving.gateway import serve
from repro.serving.shard import (
    HashRing,
    ShardRouterServer,
    aggregate_snapshots,
    start_local_cluster,
)
from repro.serving.transport import round_trip
from tests.serving.conftest import CONFIG_KWARGS, make_session_stream


class TestHashRing:
    def test_placement_is_deterministic_across_instances(self):
        shards = ["http://a:1", "http://b:2", "http://c:3"]
        first = HashRing(shards)
        # A different instance, shard list shuffled: same placements
        # (the ring must be a pure function of the shard set, or two
        # router processes would disagree about who owns a session).
        second = HashRing(list(reversed(shards)))
        for i in range(300):
            sid = f"session-{i}"
            assert first.shard_for(sid) == second.shard_for(sid)

    def test_virtual_nodes_spread_load(self):
        ring = HashRing(["http://a:1", "http://b:2", "http://c:3"])
        counts = Counter(
            ring.shard_for(f"session-{i}") for i in range(900)
        )
        assert set(counts) == set(ring.shards)
        # 64 virtual nodes per shard keeps the split far from
        # degenerate; exact balance is not expected.
        assert min(counts.values()) > 900 // 10

    def test_adding_a_shard_moves_only_a_fraction(self):
        before = HashRing(["http://a:1", "http://b:2"])
        after = HashRing(["http://a:1", "http://b:2", "http://c:3"])
        ids = [f"session-{i}" for i in range(600)]
        moved = sum(
            before.shard_for(sid) != after.shard_for(sid) for sid in ids
        )
        # Consistent hashing moves ~1/3 of keys to the new shard; a
        # modulo scheme would reshuffle ~2/3.  Split the difference.
        assert moved < len(ids) // 2
        # And everything that moved went *to* the new shard.
        for sid in ids:
            if before.shard_for(sid) != after.shard_for(sid):
                assert after.shard_for(sid) == "http://c:3"

    def test_trailing_slash_and_duplicates_normalize(self):
        ring = HashRing(
            ["http://a:1/", "http://a:1", "http://b:2"]
        )
        assert ring.shards == ("http://a:1", "http://b:2")

    def test_rejects_bad_input(self):
        with pytest.raises(ConfigError):
            HashRing([])
        with pytest.raises(ConfigError):
            HashRing(["ftp://nope"])
        with pytest.raises(ConfigError):
            HashRing(["http://a:1"], replicas=0)


class TestAggregateSnapshots:
    def test_counters_sum_and_means_recompute(self):
        merged = aggregate_snapshots(
            {
                "http://a:1": {
                    "slices_ingested": 10,
                    "slices_flushed": 10,
                    "batches_flushed": 5,
                    "mean_batch_size": 2.0,
                },
                "http://b:2": {
                    "slices_ingested": 30,
                    "slices_flushed": 30,
                    "batches_flushed": 5,
                    "mean_batch_size": 6.0,
                },
            }
        )
        assert merged["slices_ingested"] == 40
        assert merged["slices_flushed"] == 40
        # Recomputed from the sums (40/10), not averaged (4.0 != mean
        # of the per-shard means).
        assert merged["mean_batch_size"] == pytest.approx(4.0)
        assert set(merged["shards"]) == {"http://a:1", "http://b:2"}

    def test_latency_merge_is_weighted_and_conservative(self):
        merged = aggregate_snapshots(
            {
                "http://a:1": {
                    "ingest_latency": {
                        "count": 10,
                        "mean_seconds": 0.1,
                        "max_seconds": 0.5,
                        "p50_seconds": 0.1,
                        "p95_seconds": 0.2,
                        "p99_seconds": 0.3,
                    }
                },
                "http://b:2": {
                    "ingest_latency": {
                        "count": 30,
                        "mean_seconds": 0.3,
                        "max_seconds": 0.4,
                        "p50_seconds": 0.2,
                        "p95_seconds": 0.6,
                        "p99_seconds": 0.7,
                    }
                },
            }
        )
        latency = merged["ingest_latency"]
        assert latency["count"] == 40
        assert latency["mean_seconds"] == pytest.approx(0.25)
        assert latency["max_seconds"] == pytest.approx(0.5)
        # Percentiles merge as the max across shards: an upper bound,
        # which is the safe direction for latency SLO gates.
        assert latency["p95_seconds"] == pytest.approx(0.6)
        assert latency["p99_seconds"] == pytest.approx(0.7)


@pytest.fixture
def cluster():
    """A live two-shard router fleet, per-step flushing.

    ``max_batch=1`` makes flush boundaries a pure function of the
    ingest sequence, so migrated and unmigrated runs of the same
    stream are comparable bit-for-bit.
    """
    with start_local_cluster(2, max_batch=1, max_latency_s=10.0) as fleet:
        yield fleet


@pytest.fixture
def router_client(cluster):
    return HTTPServingClient(cluster.url)


def _drained_results(client, session_id):
    """Every ingested slice's result.

    ``results`` returns what has completed so far and does not wait for
    pending flushes; ``forecast`` drains the session first and leaves
    the model as it is.
    """
    client.forecast(session_id, 1)
    return client.results(session_id)


def _ingest_and_collect(client, session_id, slices, masks):
    for values, mask in zip(slices, masks):
        client.ingest(session_id, values, mask)
    return _drained_results(client, session_id)


class TestRouterProxy:
    def test_full_surface_through_the_router(self, cluster, router_client):
        slices, masks = make_session_stream(seed=31, n_steps=12)
        info = router_client.create_session(
            "proxy-s1", dict(CONFIG_KWARGS)
        )
        assert info["session_id"] == "proxy-s1"
        results = _ingest_and_collect(
            router_client, "proxy-s1", slices, masks
        )
        assert [r.seq for r in results] == list(range(12))
        imputed = router_client.impute("proxy-s1", slices[0], masks[0])
        assert imputed.completed.shape == slices[0].shape
        forecast = router_client.forecast("proxy-s1", 3)
        assert forecast.forecast.shape == (3, *slices[0].shape)
        # 12 ingested slices plus the imputed one (impute consumes).
        assert router_client.session_info("proxy-s1")["consumed"] == 13
        router_client.close_session("proxy-s1")
        assert "proxy-s1" not in router_client.list_sessions()

    def test_sessions_spread_across_shards(self, cluster, router_client):
        for i in range(8):
            router_client.create_session(
                f"spread-{i}", dict(CONFIG_KWARGS)
            )
        per_shard = {
            shard: HTTPServingClient(shard).list_sessions()
            for shard in cluster.shard_urls
        }
        assert all(per_shard.values())  # both shards own someone
        merged = sorted(
            sid for listing in per_shard.values() for sid in listing
        )
        assert merged == sorted(router_client.list_sessions())
        for i in range(8):
            router_client.close_session(f"spread-{i}")

    def test_metrics_aggregate_across_shards(self, cluster, router_client):
        slices, masks = make_session_stream(seed=32, n_steps=4)
        for i in range(4):
            router_client.create_session(
                f"metrics-{i}", dict(CONFIG_KWARGS)
            )
            for values, mask in zip(slices, masks):
                router_client.ingest(f"metrics-{i}", values, mask)
            router_client.results(f"metrics-{i}")
        snapshot = router_client.metrics()
        assert snapshot["slices_ingested"] == 16
        assert snapshot["router"]["shards"] == 2
        assert set(snapshot["shards"]) == set(cluster.shard_urls)
        assert sum(
            s["slices_ingested"] for s in snapshot["shards"].values()
        ) == 16
        for i in range(4):
            router_client.close_session(f"metrics-{i}")

    def test_health_and_topology(self, cluster, router_client):
        health = router_client.healthz()
        assert health["status"] == "ok"
        assert set(health["shards"]) == set(cluster.shard_urls)
        topology = router_client.shards()
        assert tuple(topology["shards"]) == cluster.shard_urls
        assert topology["replicas"] == 64
        assert topology["migrations"] == 0

    def test_error_envelopes_survive_the_hop(self, cluster, router_client):
        with pytest.raises(SessionNotFoundError):
            router_client.session_info("never-created")
        router_client.create_session("dup-s", dict(CONFIG_KWARGS))
        with pytest.raises(SessionExistsError):
            router_client.create_session("dup-s", dict(CONFIG_KWARGS))
        with pytest.raises(ConfigError):
            router_client.create_session(
                "bad-config", {"not_a_real_option": 1}
            )
        router_client.close_session("dup-s")

    @pytest.mark.parametrize(
        ("method", "path", "message"),
        [
            ("GET", "/v1/sessions/nope", "no session 'nope'"),
            ("POST", "/v1/bogus", "no route POST /v1/bogus"),
        ],
    )
    def test_not_found_envelopes_agree(self, cluster, method, path, message):
        envelopes = []
        for base in (cluster.shard_urls[0], cluster.url):
            status, _, body = round_trip(
                base + path, method, b"{}", {}, timeout=10
            )
            assert status == 404
            envelopes.append(json.loads(body)["error"])
        gateway, router = envelopes
        assert gateway == router
        assert gateway["type"] == "SessionNotFoundError"
        assert gateway["message"] == message

    @pytest.mark.parametrize("method", ["GET", "POST"])
    def test_unversioned_path_is_404_envelope(self, cluster, method):
        body = json.dumps({"session_id": "old-path"}).encode("utf-8")
        request = urllib.request.Request(
            cluster.url + "/sessions",
            data=body if method == "POST" else None,
            method=method,
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=10)
        assert caught.value.code == 404
        assert json.loads(caught.value.read()) == {
            "error": {
                "type": "SessionNotFoundError",
                "message": f"no route {method} /sessions",
                "session": None,
            }
        }
        assert "old-path" not in HTTPServingClient(cluster.url).list_sessions()


class TestRouterCLI:
    def test_local_shards_bind_one_router(self, monkeypatch, capsys):
        created: list[ShardRouterServer] = []

        class Recording(ShardRouterServer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(shard, "ShardRouterServer", Recording)
        exit_codes: list[int] = []
        thread = threading.Thread(
            target=lambda: exit_codes.append(
                shard.main(["--local-shards", "2", "--port", "0"])
            ),
            daemon=True,
        )
        thread.start()
        out = ""
        try:
            deadline = time.monotonic() + 30.0
            while "listening on" not in out and time.monotonic() < deadline:
                time.sleep(0.05)
                out += capsys.readouterr().out
            assert "listening on" in out
            assert len(created) == 1
            (router,) = created
            assert f":{router.port}/v1 fronting 2 shard(s)" in out
            assert len(router.ring.shards) == 2
            assert len(HTTPServingClient(router.url).healthz()["shards"]) == 2
        finally:
            for router in created:
                router.shutdown()
            thread.join(timeout=30)
        assert exit_codes == [0]


class TestMigration:
    def _placement(self, cluster, session_id):
        for shard in cluster.shard_urls:
            if session_id in HTTPServingClient(shard).list_sessions():
                return shard
        raise AssertionError(f"{session_id} not found on any shard")

    def test_migrated_session_is_bit_identical(self, cluster, router_client):
        slices, masks = make_session_stream(seed=33, n_steps=20)

        # Reference: the same stream through one unmigrated session.
        router_client.create_session("mig-ref", dict(CONFIG_KWARGS))
        reference = _ingest_and_collect(
            router_client, "mig-ref", slices, masks
        )

        # Candidate: migrate to the other shard halfway through.  The
        # results buffer is delivery state, not model state — it does
        # not travel — so the first half is read out before the move.
        router_client.create_session("mig-live", dict(CONFIG_KWARGS))
        for values, mask in zip(slices[:10], masks[:10]):
            router_client.ingest("mig-live", values, mask)
        first_half = _drained_results(router_client, "mig-live")
        source = self._placement(cluster, "mig-live")
        target = next(
            shard for shard in cluster.shard_urls if shard != source
        )
        outcome = router_client.migrate_session("mig-live", target)
        assert outcome["migrated"] is True
        assert outcome["from"] == source
        assert outcome["to"] == target
        assert self._placement(cluster, "mig-live") == target
        assert "mig-live" not in HTTPServingClient(source).list_sessions()
        for values, mask in zip(slices[10:], masks[10:]):
            router_client.ingest("mig-live", values, mask)
        migrated = first_half + _drained_results(router_client, "mig-live")

        assert [r.seq for r in migrated] == [r.seq for r in reference]
        for got, expected in zip(migrated, reference):
            np.testing.assert_array_equal(got.completed, expected.completed)
        # Forecasts from the final state agree bit-for-bit too.
        np.testing.assert_array_equal(
            router_client.forecast("mig-live", 4).forecast,
            router_client.forecast("mig-ref", 4).forecast,
        )
        router_client.close_session("mig-live")
        router_client.close_session("mig-ref")

    def test_migrate_to_current_shard_is_a_noop(self, cluster, router_client):
        router_client.create_session("stay-put", dict(CONFIG_KWARGS))
        source = self._placement(cluster, "stay-put")
        outcome = router_client.migrate_session("stay-put", source)
        assert outcome["migrated"] is False
        assert self._placement(cluster, "stay-put") == source
        router_client.close_session("stay-put")

    def test_migrating_a_warming_up_session_rejected(
        self, cluster, router_client
    ):
        # Export needs an initialized model; a session still inside
        # its warmup window stays put and the error names the gap.
        slices, masks = make_session_stream(seed=36, n_steps=2)
        router_client.create_session("warming", dict(CONFIG_KWARGS))
        for values, mask in zip(slices, masks):
            router_client.ingest("warming", values, mask)
        source = self._placement(cluster, "warming")
        target = next(
            shard for shard in cluster.shard_urls if shard != source
        )
        with pytest.raises(SessionError, match="warming up"):
            router_client.migrate_session("warming", target)
        assert self._placement(cluster, "warming") == source
        router_client.close_session("warming")

    def test_migrate_to_unknown_shard_rejected(self, cluster, router_client):
        router_client.create_session("no-exit", dict(CONFIG_KWARGS))
        with pytest.raises(ConfigError, match="migration target"):
            router_client.migrate_session(
                "no-exit", "http://127.0.0.1:1"
            )
        router_client.close_session("no-exit")

    def test_migration_shows_in_topology_until_close(
        self, cluster, router_client
    ):
        slices, masks = make_session_stream(seed=34, n_steps=8)
        router_client.create_session("tracked", dict(CONFIG_KWARGS))
        for values, mask in zip(slices, masks):
            router_client.ingest("tracked", values, mask)
        router_client.results("tracked")
        source = self._placement(cluster, "tracked")
        target = next(
            shard for shard in cluster.shard_urls if shard != source
        )
        router_client.migrate_session("tracked", target)
        topology = router_client.shards()
        assert topology["overrides"] == {"tracked": target}
        assert topology["migrations"] == 1
        metrics = router_client.metrics()
        assert metrics["session_exports"] == 1
        assert metrics["session_imports"] == 1
        router_client.close_session("tracked")
        # Closing the session retires its placement override.
        assert router_client.shards()["overrides"] == {}

    def test_export_import_between_bare_gateways(self, tmp_path):
        """The migration primitives work gateway-to-gateway without a
        router in the middle (the operator's manual-migration path)."""
        managers = [
            SessionManager(max_batch=1, max_latency_s=10.0)
            for _ in range(2)
        ]
        servers = [serve(manager) for manager in managers]
        threads = []
        for server in servers:
            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            threads.append(thread)
        clients = [
            HTTPServingClient(f"http://127.0.0.1:{server.port}")
            for server in servers
        ]
        try:
            slices, masks = make_session_stream(seed=35, n_steps=10)
            clients[0].create_session("hand-off", dict(CONFIG_KWARGS))
            for values, mask in zip(slices, masks):
                clients[0].ingest("hand-off", values, mask)
            clients[0].results("hand-off")
            exported = clients[0].export_session("hand-off")
            assert isinstance(exported["state"], bytes)
            info = clients[1].import_session(
                "hand-off",
                exported["state"],
                next_seq=exported["next_seq"],
                consumed=exported["consumed"],
            )
            assert info["consumed"] == 10
            np.testing.assert_array_equal(
                clients[1].forecast("hand-off", 3).forecast,
                clients[0].forecast("hand-off", 3).forecast,
            )
        finally:
            for server in servers:
                server.shutdown()
                server.server_close()
            for thread in threads:
                thread.join(timeout=5)
            for manager in managers:
                manager.close()
