"""Shard router: consistent-hash session placement across gateways.

One ``repro-serve`` gateway scales with cores; a fleet of them scales
with machines.  This module puts a routing tier in front of N backend
gateways so clients keep one URL while sessions spread across the
fleet:

* :class:`HashRing` — consistent hashing with virtual nodes.  The
  ring is a pure function of the shard URL list (stable
  ``blake2b``-based hashing, never Python's salted ``hash``), so every
  router instance built from the same shard list places every session
  identically, and adding a shard moves only ~1/N of the keyspace.
* :class:`ShardRouterServer` — a
  :class:`~repro.serving.transport.PooledHTTPServer` that proxies the
  full ``/v1`` surface, one :func:`~repro.serving.transport.round_trip`
  per hop: session-scoped requests forward to the owning shard with
  status and body relayed verbatim (the
  structured error envelope survives the hop, so
  :class:`~repro.serving.client.HTTPServingClient` raises the same
  exception types through the router as against a bare gateway);
  ``/v1/sessions`` merges the fleet's listings (with per-session
  stats); ``/v1/metrics`` aggregates per-shard snapshots
  (:func:`aggregate_snapshots`, bucket-level histogram merging) and
  serves the Prometheus text format under ``?format=prometheus``;
  ``/v1/traces`` merges every shard's slice-lifecycle spans; a
  client-supplied ``X-Repro-Trace-Id`` header survives the proxy hop;
  ``/v1/shards`` exposes the topology.
* **Live migration** — ``POST /v1/sessions/<id>/migrate`` with
  ``{"target": <shard-url>}`` drains the session's pending slices and
  exports its state on the source shard (the gateway's ``export``
  endpoint, backed by
  :meth:`~repro.serving.store.CheckpointStore.export_state`), imports
  it on the target (``import`` /
  :meth:`~repro.serving.store.CheckpointStore.import_state`),
  atomically repoints the session's ring entry, and closes the source
  copy.  The handoff medium is the same versioned checkpoint bytes the
  eviction tier spills, so a migrated session's trajectory is
  bit-identical to an unmigrated one (pinned by
  ``tests/serving/test_shard.py``).  A per-session lock serializes
  proxied requests against the migration, so no request ever lands on
  the source mid-handoff.
* :func:`start_local_cluster` — self-host N backend gateways plus a
  router in one process (what the replay harness's ``--shards`` mode
  and the shard bench use).
* **Self-healing** — an optional background prober polls each shard's
  ``GET /v1/metrics``; per-shard liveness and load (resident sessions,
  p95 flush latency) feed load-aware placement of *new* sessions
  (existing placements stay sticky), ``POST /v1/shards/join|drain``
  rebalance the fleet through the migrate path with bounded
  concurrency, and a shard declared dead has its sessions re-homed
  onto survivors from their durable checkpoints (written by
  ``--durable`` managers), with any acked-but-unflushed slices
  surfaced as the session's ``degraded`` count instead of silently
  dropped.  Idempotent GET forwards retry with capped exponential
  backoff before declaring a shard unreachable.

``main`` is the ``repro-serve-router`` console entry point::

    repro-serve-router --shard http://10.0.0.1:8349 \\
        --shard http://10.0.0.2:8349 --port 8350

    repro-serve-router --local-shards 2 --port 8350   # demo/CI cluster
"""

from __future__ import annotations

import argparse
import base64
import bisect
import hashlib
import json
import re
import tempfile
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler
from pathlib import Path

from repro.exceptions import ConfigError, SessionNotFoundError
from repro.serving.gateway import (
    API_PREFIX,
    PROMETHEUS_CONTENT_TYPE,
    ServingHTTPServer,
    serve,
)
from repro.serving.manager import SessionManager
from repro.serving.observability import (
    TRACE_HEADER,
    percentile_from_buckets,
    render_prometheus,
)
from repro.serving.store import checkpoint_meta_path
from repro.serving.transport import PooledHTTPServer, round_trip

__all__ = [
    "HashRing",
    "LocalCluster",
    "ShardHealth",
    "ShardRouterServer",
    "aggregate_snapshots",
    "main",
    "start_local_cluster",
]

_SESSION_PATH = re.compile(r"^/sessions/(?P<sid>[^/]+)(?:/|$)")

_JSON = "application/json"

#: Derived metric keys recomputed from the summed counters instead of
#: being summed themselves (a sum of per-shard means is meaningless).
_DERIVED_METRICS = ("mean_batch_size",)


class HashRing:
    """Consistent-hash ring over shard URLs, with virtual nodes.

    Deterministic given the shard list: placement uses
    :func:`hashlib.blake2b` (Python's builtin ``hash`` is salted per
    process and would scatter sessions differently on every restart).
    Each shard contributes ``replicas`` virtual nodes, which evens out
    the keyspace split; shard list order does not matter.  A shard's
    capacity weight scales its virtual-node count — weight 2.0 owns
    ~2x the keyspace of weight 1.0 — while weight 1.0 for everyone
    reproduces the unweighted ring bit-for-bit.
    """

    def __init__(self, shards, *, replicas: int = 64, weights=None) -> None:
        cleaned = []
        for shard in shards:
            url = str(shard).rstrip("/")
            if not url.startswith(("http://", "https://")):
                raise ConfigError(
                    f"shard must be an http(s) base URL, got {shard!r}"
                )
            if url not in cleaned:
                cleaned.append(url)
        if not cleaned:
            raise ConfigError("a hash ring needs at least one shard")
        if replicas < 1:
            raise ConfigError(
                f"replicas must be >= 1, got {replicas}"
            )
        weight_map: dict[str, float] = {}
        for shard, weight in (weights or {}).items():
            url = str(shard).rstrip("/")
            value = float(weight)
            if value <= 0:
                raise ConfigError(
                    f"shard weight must be > 0, got {shard}={weight!r}"
                )
            weight_map[url] = value
        unknown = sorted(set(weight_map) - set(cleaned))
        if unknown:
            raise ConfigError(
                f"weights name shards not in the ring: {unknown}"
            )
        self._shards = tuple(cleaned)
        self._replicas = replicas
        self._weights = {
            url: weight_map.get(url, 1.0) for url in cleaned
        }
        points = sorted(
            (self._hash(f"{shard}#{replica}"), shard)
            for shard in self._shards
            for replica in range(
                max(1, round(replicas * self._weights[shard]))
            )
        )
        self._points = points
        self._keys = [key for key, _ in points]

    @staticmethod
    def _hash(key: str) -> int:
        digest = hashlib.blake2b(
            key.encode("utf-8"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big")

    @property
    def shards(self) -> tuple[str, ...]:
        return self._shards

    @property
    def replicas(self) -> int:
        return self._replicas

    @property
    def weights(self) -> dict[str, float]:
        return dict(self._weights)

    def shard_for(self, session_id: str) -> str:
        """The shard owning ``session_id`` (first point clockwise)."""
        index = bisect.bisect_right(
            self._keys, self._hash(str(session_id))
        ) % len(self._keys)
        return self._points[index][1]


def _merge_buckets(summaries: list[dict]) -> dict | None:
    """Elementwise-sum per-shard histogram buckets, if possible.

    Requires every summary to expose buckets on *identical* bounds
    (they do when all shards run the same build — the bounds are a
    pure function of the histogram constants).  Returns ``None`` when
    any shard lacks buckets or disagrees on bounds; the caller then
    falls back to the conservative percentile merge.
    """
    buckets = [s.get("buckets") for s in summaries]
    if not buckets or any(
        not isinstance(b, dict) or "bounds" not in b or "counts" not in b
        for b in buckets
    ):
        return None
    bounds = list(buckets[0]["bounds"])
    if any(list(b["bounds"]) != bounds for b in buckets[1:]):
        return None
    counts = [0] * (len(bounds) + 1)
    for b in buckets:
        if len(b["counts"]) != len(counts):
            return None
        for i, c in enumerate(b["counts"]):
            counts[i] += int(c)
    return {"bounds": bounds, "counts": counts}


def aggregate_snapshots(per_shard: dict[str, dict]) -> dict:
    """Fold per-shard ``/v1/metrics`` snapshots into one fleet view.

    Plain numeric counters sum; the derived means are recomputed from
    the summed counters; each ``*_latency`` summary merges with exact
    ``count``/``mean_seconds``/``max_seconds``.  When every shard
    exposes its raw histogram buckets (all on the same bounds — one
    code base, one formula), the per-bucket counts sum elementwise and
    the merged percentiles are *recomputed from the merged buckets* —
    exactly the values one histogram over the union of all shards'
    samples would report.  Shards without bucket data (pre-bucket
    builds) fall back to the old conservative merge: the max
    percentile across shards, an upper bound, which is the safe
    direction for SLO gating.  The raw per-shard snapshots ride along
    under ``"shards"``.

    A shard whose snapshot is missing (``None`` or any non-dict — an
    unreachable or mid-crash shard) is skipped rather than raising;
    its URL is reported under ``"unreachable_shards"`` so a fleet
    view during failover stays a fleet view instead of a 500.
    """
    merged: dict = {}
    snapshots = {
        shard: snapshot
        for shard, snapshot in per_shard.items()
        if isinstance(snapshot, dict)
    }
    latency_keys: set[str] = set()
    for snapshot in snapshots.values():
        for key, value in snapshot.items():
            if isinstance(value, dict):
                if key.endswith("_latency"):
                    latency_keys.add(key)
                continue
            if key in _DERIVED_METRICS:
                continue
            if isinstance(value, (int, float)):
                merged[key] = merged.get(key, 0) + value
    batches = merged.get("batches_flushed", 0)
    merged["mean_batch_size"] = (
        merged.get("slices_flushed", 0) / batches if batches else 0.0
    )
    for key in sorted(latency_keys):
        summaries = [
            snapshot[key]
            for snapshot in snapshots.values()
            if isinstance(snapshot.get(key), dict)
        ]
        count = sum(s.get("count", 0) for s in summaries)
        total = sum(
            s.get(
                "total_seconds",
                s.get("mean_seconds", 0.0) * s.get("count", 0),
            )
            for s in summaries
        )
        max_seconds = max(
            (s.get("max_seconds", 0.0) for s in summaries),
            default=0.0,
        )
        merged[key] = {
            "count": count,
            "mean_seconds": total / count if count else 0.0,
            "max_seconds": max_seconds,
            "total_seconds": total,
        }
        merged_buckets = _merge_buckets(summaries)
        if merged_buckets is not None:
            bounds = merged_buckets["bounds"]
            counts = merged_buckets["counts"]
            merged[key]["buckets"] = merged_buckets
            merged[key].update(
                {
                    quantile: percentile_from_buckets(
                        bounds, counts, q, max_seconds
                    )
                    for quantile, q in (
                        ("p50_seconds", 0.50),
                        ("p95_seconds", 0.95),
                        ("p99_seconds", 0.99),
                    )
                }
            )
        else:
            # Old shards without bucket data: conservative fallback,
            # the max percentile across shards.
            merged[key].update(
                {
                    quantile: max(
                        (s.get(quantile, 0.0) for s in summaries),
                        default=0.0,
                    )
                    for quantile in (
                        "p50_seconds",
                        "p95_seconds",
                        "p99_seconds",
                    )
                }
            )
    merged["unreachable_shards"] = sorted(
        set(per_shard) - set(snapshots)
    )
    merged["shards"] = dict(per_shard)
    return merged


class _ShardReply(Exception):
    """An upstream (or router-made) response to relay as-is."""

    def __init__(self, status: int, body: bytes) -> None:
        super().__init__(f"HTTP {status}")
        self.status = status
        self.body = body


def _error_body(
    error_type: str, message: str, session_id: str | None
) -> bytes:
    return json.dumps(
        {
            "error": {
                "type": error_type,
                "message": message,
                "session": session_id,
            }
        }
    ).encode("utf-8")


def _parse_json_body(body: bytes, session_id: str | None) -> dict:
    """Decode a request body as a JSON object or raise a 400 reply."""
    try:
        payload = json.loads(body.decode("utf-8")) if body else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _ShardReply(
            400,
            _error_body(
                "ValueError",
                f"request body is not valid JSON: {exc}",
                session_id,
            ),
        ) from None
    if not isinstance(payload, dict):
        raise _ShardReply(
            400,
            _error_body(
                "ValueError",
                "request body must be a JSON object",
                session_id,
            ),
        )
    return payload


@dataclass
class ShardHealth:
    """The prober's last-known view of one shard.

    ``probes == 0`` means the shard has never been probed — the
    router then has no load signal and placement falls back to the
    pure ring.  ``sessions`` is the shard's last successfully fetched
    session listing; on failover it seeds the set of sessions to
    re-home (unioned with the router's own ingest bookkeeping).
    ``placed_since_probe`` is an optimistic load boost: each new
    session placed on the shard counts until the next successful
    probe refreshes ``resident_sessions``, so a burst of creates
    between probes still spreads across the fleet.
    """

    url: str
    alive: bool = True
    probes: int = 0
    consecutive_failures: int = 0
    last_error: str | None = None
    resident_sessions: int = 0
    flush_p95_seconds: float = 0.0
    sessions: tuple[str, ...] = ()
    placed_since_probe: int = 0

    def load(self) -> int:
        """The placement load signal (known + optimistic sessions)."""
        return self.resident_sessions + self.placed_since_probe

    def as_dict(self) -> dict:
        return {
            "url": self.url,
            "alive": self.alive,
            "probes": self.probes,
            "consecutive_failures": self.consecutive_failures,
            "last_error": self.last_error,
            "resident_sessions": self.resident_sessions,
            "flush_p95_seconds": self.flush_p95_seconds,
            "sessions": list(self.sessions),
        }


class _RouterHandler(BaseHTTPRequestHandler):
    """Routes one request; placement state lives on the server."""

    server: "ShardRouterServer"
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
    ) -> None:
        self.server.observe_http(status)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload: dict, status: int = 200) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"))

    def _send_text(
        self, text: str, status: int = 200, content_type: str = "text/plain"
    ) -> None:
        self._send(status, text.encode("utf-8"), content_type)

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(length) if length else b""

    def _relayed_headers(self) -> dict[str, str]:
        """The caller's headers the owning shard must see.

        ``Content-Type`` and ``Accept`` carry the data-plane format
        negotiation (the router never parses those bodies); a
        client-supplied trace id survives the hop, so one id names
        the slice's whole lifecycle fleet-wide.
        """
        return {
            name: self.headers[name]
            for name in ("Content-Type", "Accept", TRACE_HEADER)
            if self.headers.get(name)
        }

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, method: str) -> None:
        path, _, query = self.path.partition("?")
        if path != API_PREFIX and not path.startswith(API_PREFIX + "/"):
            self._read_body()
            self._send_no_route(method, path)
            return
        path = path[len(API_PREFIX):]
        try:
            self._route(method, path, query)
        except _ShardReply as reply:
            self._send(reply.status, reply.body)
        except Exception as exc:  # noqa: BLE001 - HTTP boundary
            match = _SESSION_PATH.match(path)
            status = 400 if isinstance(exc, ConfigError) else 500
            self._send(
                status,
                _error_body(
                    type(exc).__name__,
                    str(exc),
                    match.group("sid") if match else None,
                ),
            )

    def _route(self, method: str, path: str, query: str) -> None:
        router = self.server
        body = self._read_body()
        if method == "GET" and path == "/healthz":
            self._send_json(router.fleet_health())
            return
        if method == "GET" and path == "/metrics":
            params = urllib.parse.parse_qs(query)
            if params.get("format", [""])[0] == "prometheus":
                self._send_text(
                    render_prometheus(router.fleet_metrics()),
                    content_type=PROMETHEUS_CONTENT_TYPE,
                )
            else:
                self._send_json(router.fleet_metrics())
            return
        if method == "GET" and path == "/traces":
            self._send_json(router.merged_traces(query))
            return
        if method == "GET" and path == "/shards":
            self._send_json(router.describe())
            return
        if method == "POST" and path in ("/shards/join", "/shards/drain"):
            payload = _parse_json_body(body, None)
            url = str(payload.get("url") or payload.get("shard") or "")
            if path.endswith("/join"):
                result = router.join_shard(
                    url, weight=float(payload.get("weight") or 1.0)
                )
            else:
                result = router.drain_shard(url)
            self._send_json(result)
            return
        if path == "/sessions":
            if method == "GET":
                self._send_json(router.merged_session_listing())
                return
            if method == "POST":
                session_id = router.session_id_of(body)
                with router.session_lock(session_id):
                    shard = router.place_new(session_id)
                    status, payload, content_type = router.forward(
                        shard,
                        method,
                        path,
                        body=body,
                        query=query,
                        headers=self._relayed_headers(),
                    )
                    if status < 400:
                        router.note_session_created(session_id, shard)
                self._send(status, payload, content_type)
                return
        match = _SESSION_PATH.match(path)
        if match:
            session_id = match.group("sid")
            if path.endswith("/migrate") and method == "POST":
                self._send_json(
                    router.migrate(session_id, body)
                )
                return
            with router.session_lock(session_id):
                shard = router.placement(session_id)
                status, payload, content_type = router.forward(
                    shard,
                    method,
                    path,
                    body=body,
                    query=query,
                    headers=self._relayed_headers(),
                )
                if method == "DELETE" and status < 400:
                    router.forget_placement(session_id)
                elif method == "POST" and status < 400:
                    if path.endswith("/import"):
                        router.note_session_created(session_id, shard)
                    if path.endswith(("/slices", "/import")):
                        router.note_ingest(session_id, payload)
            self._send(status, payload, content_type)
            return
        self._send_no_route(method, API_PREFIX + path)

    def _send_no_route(self, method: str, path: str) -> None:
        self._send(
            404,
            _error_body(
                "SessionNotFoundError", f"no route {method} {path}", None
            ),
        )

    # BaseHTTPRequestHandler hooks
    def do_GET(self):  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self):  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self):  # noqa: N802
        self._dispatch("DELETE")


class ShardRouterServer(PooledHTTPServer):
    """Consistent-hash routing front for N ``repro-serve`` gateways."""

    def __init__(
        self,
        address: tuple[str, int],
        shards,
        *,
        replicas: int = 64,
        weights=None,
        proxy_timeout: float = 30.0,
        probe_interval: float | None = None,
        probe_timeout: float = 1.0,
        probe_failures: int = 3,
        retries: int = 2,
        retry_backoff_s: float = 0.05,
        checkpoint_dir: str | Path | None = None,
        migrate_concurrency: int = 4,
        verbose: bool = False,
    ) -> None:
        if probe_interval is not None and probe_interval <= 0:
            raise ConfigError(
                f"probe_interval must be > 0, got {probe_interval}"
            )
        if probe_failures < 1:
            raise ConfigError(
                f"probe_failures must be >= 1, got {probe_failures}"
            )
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        if migrate_concurrency < 1:
            raise ConfigError(
                f"migrate_concurrency must be >= 1, got "
                f"{migrate_concurrency}"
            )
        super().__init__(address, _RouterHandler)
        self.ring = HashRing(shards, replicas=replicas, weights=weights)
        self.proxy_timeout = proxy_timeout
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.probe_failures = probe_failures
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.migrate_concurrency = migrate_concurrency
        self.verbose = verbose
        self._state_lock = threading.Lock()
        #: Migrated sessions: id -> the shard now owning them.  The
        #: ring is swapped only by join/drain; this overlay is what
        #: "repointing the ring entry" mutates, atomically under the
        #: state lock.
        self._overrides: dict[str, str] = {}
        self._session_locks: dict[str, threading.Lock] = {}
        #: Acked stream position per session as seen by the router
        #: (seq+1 of the last 202'd slice).  Failover compares this
        #: against the checkpoint meta's applied watermark to compute
        #: the degraded count even when the meta itself is stale.
        self._ingested: dict[str, int] = {}
        self._health: dict[str, ShardHealth] = {
            url: ShardHealth(url) for url in self.ring.shards
        }
        self._migrations = 0
        self._proxied = 0
        self._retried = 0
        self._http_requests = 0
        self._http_errors_4xx = 0
        self._http_errors_5xx = 0
        self._load_placements = 0
        self._rebalances = 0
        self._failovers = 0
        self._failed_over = 0
        self._degraded_rehomed = 0
        #: Sessions failover could not re-home: id -> reason.  Never
        #: silently dropped; surfaced in describe() and metrics.
        self._lost: dict[str, str] = {}
        self._probe_stop = threading.Event()
        self._probe_thread: threading.Thread | None = None
        if probe_interval is not None:
            self._probe_thread = threading.Thread(
                target=self._probe_loop,
                name="shard-prober",
                daemon=True,
            )
            self._probe_thread.start()

    def server_close(self) -> None:
        self._probe_stop.set()
        if self._probe_thread is not None:
            self._probe_thread.join(timeout=5)
            self._probe_thread = None
        super().server_close()

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    # ------------------------------------------------------------------
    # Health probing
    # ------------------------------------------------------------------
    def _probe_loop(self) -> None:
        while not self._probe_stop.wait(self.probe_interval):
            try:
                self.probe_once()
            except Exception:  # noqa: BLE001 - prober must survive
                pass

    def _probe_fetch(self, shard: str, path: str) -> dict:
        """One single-attempt GET with the probe timeout (no retries)."""
        status, _, body = round_trip(
            shard + API_PREFIX + path,
            "GET",
            None,
            {"Accept": _JSON},
            self.probe_timeout,
        )
        if status >= 300:
            raise _ShardReply(status, body)
        return json.loads(body.decode("utf-8"))

    def probe_once(self) -> dict:
        """One probe sweep over the ring (the loop's body, callable
        directly for deterministic tests).

        A shard that fails ``probe_failures`` consecutive sweeps is
        declared dead exactly once — the alive->dead transition
        triggers :meth:`_failover`; further failed probes on an
        already-dead shard only keep its counters current.  A shard
        answering again is marked alive immediately (its failure
        streak resets on any success, so a flap below the threshold
        never triggers anything), but recovery never pulls sessions
        back — re-homed placements stay where failover put them.
        Liveness is the ``/metrics`` fetch; the ``/sessions`` listing
        that feeds placement load and failover candidates is refreshed
        when it answers in time and kept from the last sweep otherwise.
        """
        newly_dead: list[str] = []
        for shard in self.ring.shards:
            try:
                snapshot = self._probe_fetch(shard, "/metrics")
            except Exception as exc:  # noqa: BLE001 - any failure counts
                with self._state_lock:
                    health = self._health.get(shard)
                    if health is None:
                        continue
                    health.probes += 1
                    health.consecutive_failures += 1
                    health.last_error = f"{type(exc).__name__}: {exc}"
                    if (
                        health.alive
                        and health.consecutive_failures
                        >= self.probe_failures
                    ):
                        health.alive = False
                        newly_dead.append(shard)
                continue
            try:
                listing = self._probe_fetch(shard, "/sessions")
            except Exception:  # noqa: BLE001 - liveness is /metrics
                # The listing reads each session's stats under its
                # lock, so a live shard mid-way through a long flush
                # (a session initializing) can miss the timeout: keep
                # its last listing rather than count it dead.
                listing = None
            flush = snapshot.get("flush_latency") or {}
            with self._state_lock:
                health = self._health.get(shard)
                if health is None:
                    continue
                health.probes += 1
                health.consecutive_failures = 0
                health.alive = True
                health.last_error = None
                health.flush_p95_seconds = float(
                    flush.get("p95_seconds") or 0.0
                )
                if listing is not None:
                    health.sessions = tuple(
                        str(sid) for sid in listing.get("sessions", ())
                    )
                    health.resident_sessions = len(health.sessions)
                    health.placed_since_probe = 0
        failover = {
            shard: self._failover(shard) for shard in newly_dead
        }
        with self._state_lock:
            alive = sorted(
                url for url, h in self._health.items() if h.alive
            )
            dead = sorted(
                url for url, h in self._health.items() if not h.alive
            )
        return {"alive": alive, "dead": dead, "failover": failover}

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def placement(self, session_id: str) -> str:
        """The shard serving ``session_id`` (override, else the ring)."""
        with self._state_lock:
            override = self._overrides.get(session_id)
        return override or self.ring.shard_for(session_id)

    def place_new(self, session_id: str) -> str:
        """Pick the shard for a ``POST /sessions`` create.

        Existing placements stay sticky (an override or an already
        ingested session routes to its current home — a duplicate
        create must land where the live session is so the gateway's
        conflict answer is authoritative).  When every ring shard has
        been probed at least once, a *new* session lands on the
        least-loaded live shard, preferring the ring owner on ties;
        otherwise (prober off or still warming) the pure ring
        placement of PR 8 applies unchanged.
        """
        owner = self.ring.shard_for(session_id)
        with self._state_lock:
            override = self._overrides.get(session_id)
            if override is not None:
                return override
            if session_id in self._ingested:
                return owner
            healths = [
                self._health.get(url) for url in self.ring.shards
            ]
            if any(h is None or h.probes == 0 for h in healths):
                return owner
            live = [h for h in healths if h.alive]
            if not live:
                return owner
            best = min(
                live,
                key=lambda h: (h.load(), h.url != owner, h.url),
            )
            best.placed_since_probe += 1
            if best.url != owner:
                self._load_placements += 1
            return best.url

    def note_session_created(self, session_id: str, shard: str) -> None:
        """Record a successful create/import landing on ``shard``."""
        with self._state_lock:
            self._ingested.setdefault(session_id, 0)
            if shard != self.ring.shard_for(session_id):
                self._overrides[session_id] = shard

    def note_ingest(self, session_id: str, payload: bytes) -> None:
        """Advance the acked stream position from a forwarded reply."""
        try:
            reply = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return
        if not isinstance(reply, dict):
            return
        acked = None
        if isinstance(reply.get("seq"), int):
            acked = reply["seq"] + 1
        elif isinstance(reply.get("next_seq"), int):
            acked = reply["next_seq"]
        if acked is None:
            return
        with self._state_lock:
            if acked > self._ingested.get(session_id, 0):
                self._ingested[session_id] = acked

    def forget_placement(self, session_id: str) -> None:
        """Drop a closed session's override, lock, and ingest count."""
        with self._state_lock:
            self._overrides.pop(session_id, None)
            self._session_locks.pop(session_id, None)
            self._ingested.pop(session_id, None)

    def session_lock(self, session_id: str) -> threading.Lock:
        """Per-session serialization (requests vs live migration)."""
        with self._state_lock:
            lock = self._session_locks.get(session_id)
            if lock is None:
                lock = self._session_locks[session_id] = threading.Lock()
            return lock

    @staticmethod
    def session_id_of(body: bytes) -> str:
        """The session id named by a ``POST /sessions`` body."""
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _ShardReply(
                400,
                _error_body(
                    "ValueError",
                    f"request body is not valid JSON: {exc}",
                    None,
                ),
            ) from None
        if not isinstance(payload, dict) or "session_id" not in payload:
            raise _ShardReply(
                400,
                _error_body(
                    "ValueError", "body needs a 'session_id'", None
                ),
            )
        return str(payload["session_id"])

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def forward(
        self,
        shard: str,
        method: str,
        path: str,
        *,
        body: bytes = b"",
        query: str = "",
        headers: dict | None = None,
    ) -> tuple[int, bytes, str]:
        """One request to one shard; (status, body, Content-Type).

        The three are relayed verbatim.  ``headers`` override the JSON
        ``Content-Type`` and ``Accept`` sent by default, which is how
        a caller's binary data-plane body and reply pass through.

        Upstream error envelopes pass through untouched — the typed
        client re-raises the same exception types it would against the
        shard directly.  An unreachable shard becomes a 502 with the
        standard envelope — but idempotent GETs first retry up to
        ``retries`` times with capped exponential backoff, riding out
        the sub-second window where a shard restarts or failover is
        repointing placements.  Non-GET methods never retry (an
        ingest that timed out may still have been applied).
        """
        url = shard + API_PREFIX + path + (f"?{query}" if query else "")
        with self._state_lock:
            self._proxied += 1
        attempts = 1 + (self.retries if method == "GET" else 0)
        last_exc: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(
                    min(self.retry_backoff_s * 2 ** (attempt - 1), 1.0)
                )
                with self._state_lock:
                    self._retried += 1
            request_headers = {
                "Accept": _JSON,
                "Content-Type": _JSON,
            }
            if headers:
                request_headers.update(headers)
            try:
                status, content_type, data = round_trip(
                    url,
                    method,
                    body or None,
                    request_headers,
                    self.proxy_timeout,
                )
            except OSError as exc:
                last_exc = exc
                continue
            return status, data, content_type or _JSON
        match = _SESSION_PATH.match(path)
        return (
            502,
            _error_body(
                "SessionError",
                f"shard {shard} unreachable: {last_exc}",
                match.group("sid") if match else None,
            ),
            _JSON,
        )

    def _forward_ok(
        self, shard: str, method: str, path: str, *, body: bytes = b""
    ) -> dict:
        """Forward and parse, raising :class:`_ShardReply` on >= 400."""
        status, payload, _ = self.forward(shard, method, path, body=body)
        if status >= 400:
            raise _ShardReply(status, payload)
        return json.loads(payload.decode("utf-8"))

    # ------------------------------------------------------------------
    # Fleet views
    # ------------------------------------------------------------------
    def fleet_health(self) -> dict:
        """Aggregate ``/healthz``: ok only when every shard answers."""
        per_shard: dict[str, dict] = {}
        healthy = True
        sessions = 0
        for shard in self.ring.shards:
            status, payload, _ = self.forward(shard, "GET", "/healthz")
            try:
                health = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                health = {"status": "error"}
            ok = status == 200 and health.get("status") == "ok"
            healthy = healthy and ok
            sessions += int(health.get("sessions") or 0)
            per_shard[shard] = health
        return {
            "status": "ok" if healthy else "degraded",
            "sessions": sessions,
            "shards": per_shard,
        }

    def fleet_metrics(self) -> dict:
        """Aggregate ``/metrics`` across the fleet (plus the raw views).

        An unreachable shard contributes ``None`` to the per-shard
        views and its URL to ``unreachable_shards`` instead of
        failing the whole aggregation — the fleet view must stay up
        precisely when a shard is down.
        """
        per_shard: dict[str, dict | None] = {}
        for shard in self.ring.shards:
            status, payload, _ = self.forward(shard, "GET", "/metrics")
            snapshot = None
            if status < 400:
                try:
                    snapshot = json.loads(payload.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    snapshot = None
            per_shard[shard] = snapshot
        merged = aggregate_snapshots(per_shard)
        merged["router"] = self.router_metrics()
        return merged

    def observe_http(self, status: int) -> None:
        """Count one router HTTP response (and its error class)."""
        with self._state_lock:
            self._http_requests += 1
            if 400 <= status < 500:
                self._http_errors_4xx += 1
            elif status >= 500:
                self._http_errors_5xx += 1

    def router_metrics(self) -> dict:
        """The router's own counters (the ``"router"`` metrics block)."""
        with self._state_lock:
            return {
                "shards": len(self.ring.shards),
                "migrations": self._migrations,
                "proxied_requests": self._proxied,
                "http_requests": self._http_requests,
                "http_errors_4xx": self._http_errors_4xx,
                "http_errors_5xx": self._http_errors_5xx,
                "placement_overrides": len(self._overrides),
                "retried_requests": self._retried,
                "load_placements": self._load_placements,
                "rebalances": self._rebalances,
                "failovers": self._failovers,
                "failed_over_sessions": self._failed_over,
                "degraded_sessions": self._degraded_rehomed,
                "lost_sessions": len(self._lost),
                "dead_shards": sorted(
                    url
                    for url, health in self._health.items()
                    if not health.alive
                ),
            }

    def merged_sessions(self) -> list[str]:
        """The union of every reachable shard's listing, sorted."""
        return self.merged_session_listing()["sessions"]

    def merged_session_listing(self) -> dict:
        """Fleet ``GET /v1/sessions``: merged ids plus per-session stats.

        Session ids are unique across the fleet (the router places each
        session on exactly one shard), so the per-shard ``stats`` maps
        union without collisions; a stale duplicate left by a mid-flight
        migration resolves last-shard-wins, which is harmless for a
        monitoring read.
        """
        ids: set[str] = set()
        stats: dict[str, dict] = {}
        for shard in self.ring.shards:
            status, payload, _ = self.forward(shard, "GET", "/sessions")
            if status >= 400:
                continue
            try:
                listing = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                continue
            ids.update(listing.get("sessions", ()))
            for sid, entry in (listing.get("stats") or {}).items():
                stats[sid] = dict(entry, shard=shard)
        return {"sessions": sorted(ids), "stats": stats}

    def merged_traces(self, query: str = "") -> dict:
        """Fleet ``GET /v1/traces``: every shard's spans, one list.

        The original query string (session/trace filters, limit) is
        forwarded verbatim so each shard filters locally; spans are
        annotated with their shard URL and ordered oldest-first across
        the fleet.  Tracing stats are summed.
        """
        spans: list[dict] = []
        tracing = {"recorded": 0, "dropped": 0}
        for shard in self.ring.shards:
            status, payload, _ = self.forward(
                shard, "GET", "/traces", query=query
            )
            if status >= 400:
                continue
            try:
                listing = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                continue
            for span in listing.get("traces", ()):
                spans.append(dict(span, shard=shard))
            for key in tracing:
                tracing[key] += int(
                    (listing.get("tracing") or {}).get(key) or 0
                )
        # Shard clocks are independent monotonic clocks, so cross-shard
        # ordering by timestamp is approximate — good enough for a
        # monitoring read, meaningless for causality across shards.
        spans.sort(
            key=lambda span: (span.get("stages") or {}).get("accepted")
            or 0.0
        )
        return {"traces": spans, "tracing": tracing}

    def describe(self) -> dict:
        """The ``GET /v1/shards`` topology + health snapshot."""
        with self._state_lock:
            overrides = dict(self._overrides)
            migrations = self._migrations
            health = {
                url: h.as_dict() for url, h in self._health.items()
            }
            lost = dict(self._lost)
            failovers = self._failovers
            rebalances = self._rebalances
        return {
            "shards": list(self.ring.shards),
            "replicas": self.ring.replicas,
            "weights": self.ring.weights,
            "overrides": overrides,
            "migrations": migrations,
            "health": health,
            "probe": {
                "interval_s": self.probe_interval,
                "timeout_s": self.probe_timeout,
                "failure_threshold": self.probe_failures,
            },
            "failovers": failovers,
            "rebalances": rebalances,
            "lost_sessions": lost,
        }

    # ------------------------------------------------------------------
    # Live migration
    # ------------------------------------------------------------------
    def migrate(self, session_id: str, body: bytes) -> dict:
        """Move a live session to the shard named in the request body.

        Under the session's lock (no request can land mid-handoff):
        export on the source (which drains pending slices), import on
        the target, atomically repoint the placement override, close
        the source copy.  A failed import leaves the session exactly
        where it was; the upstream error envelope is relayed.
        """
        payload = _parse_json_body(body, session_id)
        target = str(payload.get("target") or "").rstrip("/")
        if target not in self.ring.shards:
            raise _ShardReply(
                400,
                _error_body(
                    "ConfigError",
                    f"migration target must be one of {self.ring.shards},"
                    f" got {target!r}",
                    session_id,
                ),
            )
        return self._migrate_to(session_id, target)

    def _migrate_to(self, session_id: str, target: str) -> dict:
        """One export->import->repoint handoff (see :meth:`migrate`)."""
        with self.session_lock(session_id):
            source = self.placement(session_id)
            if source == target:
                return {
                    "session_id": session_id,
                    "from": source,
                    "to": target,
                    "migrated": False,
                }
            exported = self._forward_ok(
                source, "POST", f"/sessions/{session_id}/export"
            )
            handoff = {
                key: exported[key]
                for key in (
                    "state",
                    "next_seq",
                    "consumed",
                    "kernel_backend",
                    "degraded",
                )
                if exported.get(key) is not None
            }
            self._forward_ok(
                target,
                "POST",
                f"/sessions/{session_id}/import",
                body=json.dumps(handoff).encode("utf-8"),
            )
            with self._state_lock:
                # An override equal to the ring owner is redundant —
                # normalize it away so the overlay only holds true
                # deviations (keeps join/drain diffs minimal).
                if target == self.ring.shard_for(session_id):
                    self._overrides.pop(session_id, None)
                else:
                    self._overrides[session_id] = target
                self._migrations += 1
            # Best-effort close of the drained source copy; the
            # placement already points at the target, so a failure
            # here only leaks an idle model on the source.
            close_status, _, _ = self.forward(
                source, "DELETE", f"/sessions/{session_id}"
            )
        return {
            "session_id": session_id,
            "from": source,
            "to": target,
            "migrated": True,
            "source_closed": close_status < 400,
        }

    # ------------------------------------------------------------------
    # Rebalancing (join / drain)
    # ------------------------------------------------------------------
    def _migrate_many(
        self, moves: dict[str, str]
    ) -> tuple[list[str], dict[str, str]]:
        """Run ``sid -> target`` migrations with bounded concurrency.

        Each migration holds its session's lock; a failure leaves
        that session on its source (abort-safe) and is reported, not
        raised — the sweep always completes.
        """
        moved: list[str] = []
        failed: dict[str, str] = {}
        if not moves:
            return moved, failed
        workers = max(1, min(self.migrate_concurrency, len(moves)))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {
                sid: pool.submit(self._migrate_to, sid, target)
                for sid, target in sorted(moves.items())
            }
        for sid, future in futures.items():
            try:
                future.result()
                moved.append(sid)
            except _ShardReply as reply:
                failed[sid] = reply.body.decode("utf-8", "replace")
            except Exception as exc:  # noqa: BLE001 - keep sweeping
                failed[sid] = f"{type(exc).__name__}: {exc}"
        return moved, failed

    def _drop_redundant_overrides(self) -> None:
        with self._state_lock:
            for sid in list(self._overrides):
                if self._overrides[sid] == self.ring.shard_for(sid):
                    del self._overrides[sid]

    def join_shard(self, url: str, *, weight: float = 1.0) -> dict:
        """Add a shard to the ring and rebalance onto it.

        Every live session is first pinned at its current placement
        (an explicit override), then the ring is swapped to include
        the newcomer, then sessions whose new ring owner differs from
        their pin are migrated with bounded concurrency.  A failed
        migration leaves its session pinned on the source; overrides
        that end up equal to the new ring owner are dropped.
        """
        url = str(url).rstrip("/")
        if not url.startswith(("http://", "https://")):
            raise ConfigError(
                f"shard must be an http(s) base URL, got {url!r}"
            )
        weight = float(weight)
        if weight <= 0:
            raise ConfigError(
                f"shard weight must be > 0, got {weight}"
            )
        if url in self.ring.shards:
            return {
                "joined": False,
                "shard": url,
                "moved": [],
                "failed": {},
                "shards": list(self.ring.shards),
            }
        sessions = set(self.merged_sessions())
        with self._state_lock:
            old_ring = self.ring
            sessions.update(self._ingested)
            sessions.update(self._overrides)
            for sid in sessions:
                self._overrides.setdefault(
                    sid, old_ring.shard_for(sid)
                )
            weights = old_ring.weights
            weights[url] = weight
            self.ring = HashRing(
                (*old_ring.shards, url),
                replicas=old_ring.replicas,
                weights=weights,
            )
            self._health.setdefault(url, ShardHealth(url))
            self._rebalances += 1
            pinned = dict(self._overrides)
        moves = {
            sid: self.ring.shard_for(sid)
            for sid, source in pinned.items()
            if self.ring.shard_for(sid) != source
        }
        moved, failed = self._migrate_many(moves)
        self._drop_redundant_overrides()
        return {
            "joined": True,
            "shard": url,
            "weight": weight,
            "moved": moved,
            "failed": failed,
            "shards": list(self.ring.shards),
        }

    def drain_shard(self, url: str) -> dict:
        """Migrate everything off a shard, then remove it from the ring.

        The shard leaves the ring only after *every* resident session
        migrated cleanly; any failure aborts the removal, leaving the
        shard in the ring still serving the sessions that could not
        move (reported under ``"failed"``).
        """
        url = str(url).rstrip("/")
        if url not in self.ring.shards:
            raise ConfigError(
                f"cannot drain {url!r}: not in ring {self.ring.shards}"
            )
        if len(self.ring.shards) < 2:
            raise ConfigError("cannot drain the last shard in the ring")
        old_ring = self.ring
        new_ring = HashRing(
            tuple(u for u in old_ring.shards if u != url),
            replicas=old_ring.replicas,
            weights={
                u: w for u, w in old_ring.weights.items() if u != url
            },
        )
        victims: set[str] = set()
        status, payload, _ = self.forward(url, "GET", "/sessions")
        if status < 400:
            try:
                listing = json.loads(payload.decode("utf-8"))
                victims.update(listing.get("sessions", ()))
            except (UnicodeDecodeError, json.JSONDecodeError):
                pass
        with self._state_lock:
            victims.update(
                sid
                for sid, target in self._overrides.items()
                if target == url
            )
            victims.update(
                sid
                for sid in self._ingested
                if self._overrides.get(sid, old_ring.shard_for(sid))
                == url
            )
        moves = {sid: new_ring.shard_for(sid) for sid in sorted(victims)}
        moved, failed = self._migrate_many(moves)
        if failed:
            return {
                "drained": False,
                "shard": url,
                "moved": moved,
                "failed": failed,
                "shards": list(self.ring.shards),
            }
        with self._state_lock:
            self.ring = new_ring
            self._health.pop(url, None)
            self._rebalances += 1
        self._drop_redundant_overrides()
        return {
            "drained": True,
            "shard": url,
            "moved": moved,
            "failed": {},
            "shards": list(self.ring.shards),
        }

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def _failover(self, shard: str) -> dict:
        """Re-home a dead shard's sessions from durable checkpoints.

        The candidate set unions the shard's last probed listing with
        the router's own bookkeeping (overrides and acked sessions
        placed there).  Each session is re-homed under its lock, so
        in-flight requests serialize against the re-point; a session
        whose placement already moved (a racing migrate) is skipped.
        Failures are recorded per session in ``lost_sessions`` —
        reported, never silent — and leave the placement untouched.
        """
        with self._state_lock:
            health = self._health.get(shard)
            known = set(health.sessions) if health is not None else set()
            known.update(
                sid
                for sid, target in self._overrides.items()
                if target == shard
            )
            known.update(
                sid
                for sid in self._ingested
                if self._overrides.get(sid, self.ring.shard_for(sid))
                == shard
            )
        rehomed: list[str] = []
        lost: dict[str, str] = {}
        for sid in sorted(known):
            with self.session_lock(sid):
                if self.placement(sid) != shard:
                    continue
                try:
                    self._rehome_from_checkpoint(sid, shard)
                except Exception as exc:  # noqa: BLE001 - record all
                    reason = f"{type(exc).__name__}: {exc}"
                    with self._state_lock:
                        self._lost[sid] = reason
                    lost[sid] = reason
                    continue
            rehomed.append(sid)
        # Counted once every session is re-homed (or recorded lost), so
        # ``failovers`` tells a client that the fleet has settled.
        with self._state_lock:
            self._failovers += 1
        return {"shard": shard, "rehomed": rehomed, "lost": lost}

    def _find_checkpoint(self, session_id: str) -> Path | None:
        """Newest ``<sid>.npz`` in the checkpoint tree (1 level deep).

        A local cluster gives each shard's manager its own subdir
        under one root, so the dead shard's file is found without the
        router knowing which subdir belonged to whom; mtime breaks
        ties toward the most recently persisted copy.
        """
        root = self.checkpoint_dir
        if root is None:
            return None
        name = f"{session_id}.npz"
        candidates = [
            path
            for path in (root / name, *sorted(root.glob(f"*/{name}")))
            if path.is_file()
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda path: path.stat().st_mtime)

    def _least_loaded_survivor(self, dead_shard: str) -> str:
        with self._state_lock:
            candidates = [
                self._health[url]
                for url in self.ring.shards
                if url != dead_shard
                and url in self._health
                and self._health[url].alive
            ]
            if not candidates:
                raise ConfigError(
                    "no live shard left to fail sessions over onto"
                )
            best = min(
                candidates, key=lambda h: (h.load(), h.url)
            )
            best.placed_since_probe += 1
            return best.url

    def _rehome_from_checkpoint(
        self, session_id: str, dead_shard: str
    ) -> str:
        """Rebuild one session on a survivor from its checkpoint.

        The checkpoint holds the last *committed* state; the meta
        sidecar (written by ``--durable`` managers) carries the
        stream position it corresponds to.  The session resumes at
        ``max(router-acked, meta.next_seq)`` so upstream seq numbers
        stay monotonic, and every acked slice past the checkpoint's
        applied watermark counts into ``degraded`` — the data-loss
        window is surfaced in the session's status, never hidden.
        """
        if self.checkpoint_dir is None:
            raise ConfigError(
                "failover needs --checkpoint-dir pointing at the "
                "shards' durable checkpoint tree"
            )
        checkpoint = self._find_checkpoint(session_id)
        if checkpoint is None:
            raise SessionNotFoundError(
                f"no durable checkpoint for session {session_id!r} "
                f"under {self.checkpoint_dir}"
            )
        meta: dict = {}
        meta_path = checkpoint_meta_path(checkpoint)
        if meta_path.is_file():
            try:
                meta = json.loads(
                    meta_path.read_text(encoding="utf-8")
                )
            except (json.JSONDecodeError, OSError):
                meta = {}
        if not isinstance(meta, dict):
            meta = {}
        with self._state_lock:
            routed = int(self._ingested.get(session_id, 0))
        acked = max(routed, int(meta.get("next_seq") or 0))
        applied = int(meta.get("applied_seq") or 0)
        degraded = max(0, acked - applied) + int(
            meta.get("degraded") or 0
        )
        target = self._least_loaded_survivor(dead_shard)
        handoff: dict = {
            "state": base64.b64encode(
                checkpoint.read_bytes()
            ).decode("ascii"),
            "next_seq": acked,
            "degraded": degraded,
        }
        if meta.get("consumed") is not None:
            handoff["consumed"] = int(meta["consumed"])
        if meta.get("kernel_backend"):
            handoff["kernel_backend"] = meta["kernel_backend"]
        self._forward_ok(
            target,
            "POST",
            f"/sessions/{session_id}/import",
            body=json.dumps(handoff).encode("utf-8"),
        )
        with self._state_lock:
            if target == self.ring.shard_for(session_id):
                self._overrides.pop(session_id, None)
            else:
                self._overrides[session_id] = target
            self._ingested[session_id] = acked
            self._failed_over += 1
            if degraded:
                self._degraded_rehomed += 1
        return target


@dataclass
class LocalCluster:
    """A self-hosted router + N backend gateways, one ``close()``."""

    router: ShardRouterServer
    backends: tuple[ServingHTTPServer, ...]
    managers: tuple[SessionManager, ...]
    threads: tuple[threading.Thread, ...]
    #: Shared durable-checkpoint root, when the cluster runs durable
    #: (one ``shard-<i>`` subdir per backend; the router's failover
    #: scans the whole tree).
    checkpoint_root: Path | None = None
    _tmpdir: tempfile.TemporaryDirectory | None = None
    _killed: set = field(default_factory=set)

    @property
    def url(self) -> str:
        return self.router.url

    @property
    def shard_urls(self) -> tuple[str, ...]:
        return self.router.ring.shards

    def kill_shard(self, index: int) -> None:
        """Hard-stop one backend's HTTP server (fault injection).

        Every request to the shard fails with connection-refused from
        this moment — what a crashed process looks like from the
        router.  The backend's manager is left running (its durable
        checkpoints stay on disk for failover; ``close()`` still
        shuts it down cleanly) and is intentionally *not* closed
        here: closing would drain pending slices and hide the
        degraded window a real crash produces.
        """
        if index in self._killed:
            return
        self._killed.add(index)
        server = self.backends[index]
        server.shutdown()
        server.server_close()

    def close(self) -> None:
        """Stop the router, then every backend, then the managers."""
        live = (
            backend
            for index, backend in enumerate(self.backends)
            if index not in self._killed
        )
        for server in (self.router, *live):
            server.shutdown()
            server.server_close()
        for thread in self.threads:
            thread.join(timeout=10)
        for manager in self.managers:
            manager.close()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def start_local_cluster(
    n_shards: int,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    replicas: int = 64,
    shard_weights=None,
    proxy_timeout: float = 30.0,
    probe_interval: float | None = None,
    probe_timeout: float = 1.0,
    probe_failures: int = 3,
    retries: int = 2,
    durable: bool = False,
    checkpoint_root: str | Path | None = None,
    verbose: bool = False,
    **manager_kwargs,
) -> LocalCluster:
    """Spin up N in-process gateways behind one router, all started.

    ``manager_kwargs`` go to each backend's
    :class:`~repro.serving.manager.SessionManager` verbatim.  Callers
    own the result and must :meth:`LocalCluster.close` it (it is a
    context manager).

    ``durable=True`` gives every backend its own ``shard-<i>`` subdir
    under ``checkpoint_root`` (an owned temp dir when not given) with
    post-commit checkpointing on, and points the router's failover at
    the root — the full self-healing loop in one process when a
    ``probe_interval`` is set.  ``shard_weights`` is one capacity
    weight per shard index.  The router binds ``(host, port)``
    (``port=0`` picks a free port); the backends take free ports.
    """
    if n_shards < 1:
        raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
    if shard_weights is not None and len(shard_weights) != n_shards:
        raise ConfigError(
            f"shard_weights needs {n_shards} entries, "
            f"got {len(shard_weights)}"
        )
    if durable and "checkpoint_dir" in manager_kwargs:
        # A caller-supplied manager checkpoint_dir would make every
        # shard persist into one flat dir the router's failover never
        # searches — sessions silently become unrecoverable.
        raise ConfigError(
            "durable clusters take checkpoint_root=, not "
            "checkpoint_dir=: shards persist under "
            "<root>/shard-<i> and failover searches that root"
        )
    tmpdir: tempfile.TemporaryDirectory | None = None
    root = (
        Path(checkpoint_root) if checkpoint_root is not None else None
    )
    if durable and root is None:
        tmpdir = tempfile.TemporaryDirectory(prefix="repro-cluster-")
        root = Path(tmpdir.name)
    managers: list[SessionManager] = []
    backends: list[ServingHTTPServer] = []
    threads: list[threading.Thread] = []
    try:
        for index in range(n_shards):
            kwargs = dict(manager_kwargs)
            if root is not None:
                kwargs.setdefault(
                    "checkpoint_dir", root / f"shard-{index}"
                )
                kwargs.setdefault("durable", durable)
            manager = SessionManager(**kwargs)
            managers.append(manager)
            server = serve(manager, host, 0, verbose=verbose)
            backends.append(server)
        urls = [
            f"http://{server.server_address[0]}:{server.port}"
            for server in backends
        ]
        weights = None
        if shard_weights is not None:
            weights = {
                url: float(weight)
                for url, weight in zip(urls, shard_weights)
            }
        router = ShardRouterServer(
            (host, port),
            urls,
            replicas=replicas,
            weights=weights,
            proxy_timeout=proxy_timeout,
            probe_interval=probe_interval,
            probe_timeout=probe_timeout,
            probe_failures=probe_failures,
            retries=retries,
            checkpoint_dir=root,
            verbose=verbose,
        )
    except BaseException:
        for server in backends:
            server.server_close()
        for manager in managers:
            manager.close()
        if tmpdir is not None:
            tmpdir.cleanup()
        raise
    for server in (*backends, router):
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        threads.append(thread)
    return LocalCluster(
        router=router,
        backends=tuple(backends),
        managers=tuple(managers),
        threads=tuple(threads),
        checkpoint_root=root,
        _tmpdir=tmpdir,
    )


def main(argv: list[str] | None = None) -> int:
    """``repro-serve-router``: route sessions across a gateway fleet."""
    parser = argparse.ArgumentParser(
        prog="repro-serve-router",
        description="Consistent-hash shard router in front of N "
        "repro-serve gateways, with live session migration.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8350)
    parser.add_argument(
        "--shard",
        action="append",
        default=None,
        metavar="URL",
        help="backend gateway base URL (repeat per shard)",
    )
    parser.add_argument(
        "--local-shards",
        type=int,
        default=None,
        dest="local_shards",
        help="instead of --shard, self-host this many backend "
        "gateways in-process (demo/CI clusters)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=64,
        help="virtual nodes per shard on the hash ring (default 64)",
    )
    parser.add_argument(
        "--shard-weight",
        action="append",
        default=None,
        dest="shard_weight",
        metavar="KEY=W",
        help="capacity weight for one shard (repeat; URL=W with "
        "--shard, INDEX=W with --local-shards; default 1.0 each)",
    )
    parser.add_argument(
        "--proxy-timeout",
        type=float,
        default=30.0,
        dest="proxy_timeout",
        help="per-forwarded-request timeout in seconds (default 30)",
    )
    parser.add_argument(
        "--probe-interval",
        type=float,
        default=None,
        dest="probe_interval",
        help="seconds between health probes of each shard "
        "(default: prober off)",
    )
    parser.add_argument(
        "--probe-timeout",
        type=float,
        default=1.0,
        dest="probe_timeout",
        help="per-probe-request timeout in seconds (default 1)",
    )
    parser.add_argument(
        "--probe-failures",
        type=int,
        default=3,
        dest="probe_failures",
        help="consecutive failed probes before a shard is declared "
        "dead and its sessions failed over (default 3)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="extra attempts for idempotent GET forwards before "
        "declaring a shard unreachable (default 2)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        dest="checkpoint_dir",
        help="root of the shards' durable checkpoint tree; failover "
        "re-homes dead shards' sessions from here",
    )
    parser.add_argument(
        "--durable",
        action="store_true",
        help="run --local-shards backends with post-commit durable "
        "checkpointing (under --checkpoint-dir or a temp dir)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="micro-batch flush size of --local-shards backends",
    )
    parser.add_argument(
        "--max-latency-ms",
        type=float,
        default=50.0,
        help="flush deadline of --local-shards backends (default 50)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="flush dispatch threads per --local-shards backend",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    if (args.shard is None) == (args.local_shards is None):
        parser.error(
            "give exactly one of --shard (repeatable) or --local-shards"
        )
    raw_weights: list[tuple[str, float]] = []
    for entry in args.shard_weight or ():
        key, sep, value = entry.partition("=")
        try:
            if not sep:
                raise ValueError(entry)
            raw_weights.append((key.strip(), float(value)))
        except ValueError:
            parser.error(
                f"--shard-weight needs KEY=WEIGHT, got {entry!r}"
            )

    router_kwargs = dict(
        replicas=args.replicas,
        proxy_timeout=args.proxy_timeout,
        probe_interval=args.probe_interval,
        probe_timeout=args.probe_timeout,
        probe_failures=args.probe_failures,
        retries=args.retries,
        verbose=args.verbose,
    )
    cluster: LocalCluster | None = None
    if args.local_shards is not None:
        shard_weights = None
        if raw_weights:
            by_index = {}
            for key, weight in raw_weights:
                try:
                    by_index[int(key)] = weight
                except ValueError:
                    parser.error(
                        "--shard-weight keys must be shard indexes "
                        f"with --local-shards, got {key!r}"
                    )
            if by_index and max(by_index) >= args.local_shards:
                parser.error(
                    f"--shard-weight index {max(by_index)} out of "
                    f"range for --local-shards {args.local_shards}"
                )
            shard_weights = [
                by_index.get(index, 1.0)
                for index in range(args.local_shards)
            ]
        cluster = start_local_cluster(
            args.local_shards,
            host=args.host,
            port=args.port,
            shard_weights=shard_weights,
            durable=args.durable,
            checkpoint_root=args.checkpoint_dir,
            max_batch=args.max_batch,
            max_latency_s=args.max_latency_ms / 1000.0,
            workers=args.workers,
            **router_kwargs,
        )
        router = cluster.router
    else:
        router = ShardRouterServer(
            (args.host, args.port),
            args.shard,
            weights=dict(raw_weights) if raw_weights else None,
            checkpoint_dir=args.checkpoint_dir,
            **router_kwargs,
        )
    print(
        f"repro-serve-router listening on http://{args.host}:"
        f"{router.port}{API_PREFIX} fronting {len(router.ring.shards)} "
        f"shard(s): {', '.join(router.ring.shards)}"
    )
    try:
        if cluster is None:
            router.serve_forever()
        else:
            # The cluster serves its router on its own thread, started
            # last; block until that thread ends.
            cluster.threads[-1].join()
    except KeyboardInterrupt:
        pass
    finally:
        if cluster is None:
            router.shutdown()
            router.server_close()
        else:
            cluster.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
