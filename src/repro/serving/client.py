"""Clients for the serving runtime: in-process and HTTP.

Both implement the :class:`~repro.serving.api.ServingClient` protocol
with the same typed results, so a test scenario (or the example) can
run against a bare :class:`~repro.serving.manager.SessionManager` or a
live gateway without changing code:

* :class:`InProcessServingClient` wraps a manager directly — zero
  serialization, the right tool for tests and embedded use;
* :class:`HTTPServingClient` talks to a ``repro-serve`` gateway's
  ``/v1`` surface over :mod:`http.client` (stdlib only, one connection
  per request), sending and asking for data-plane arrays as binary NPY
  records (:mod:`repro.serving.wire`) and mapping the JSON error
  envelope back onto the same :mod:`repro.exceptions` types the server
  raised.

Arrays come back as :class:`numpy.ndarray` fields from both.
"""

from __future__ import annotations

import base64
import json
import urllib.parse

import numpy as np

from repro.exceptions import (
    CheckpointError,
    ConfigError,
    SessionError,
    SessionExistsError,
    SessionNotFoundError,
    ShapeError,
)
from repro.serving import wire
from repro.serving.api import (
    ForecastResult,
    ImputeResult,
    IngestAck,
    ServingClient,
    SliceResult,
)
from repro.serving.manager import SessionManager
from repro.serving.observability import TRACE_HEADER
from repro.serving.transport import round_trip

__all__ = [
    "HTTPServingClient",
    "InProcessServingClient",
    "ServingClient",
]


class InProcessServingClient:
    """The manager's surface behind the typed client protocol."""

    def __init__(self, manager: SessionManager) -> None:
        self._manager = manager

    def create_session(
        self,
        session_id: str,
        config: dict | None = None,
        *,
        checkpoint: str | None = None,
        kernel_backend: str | None = None,
    ) -> dict:
        return self._manager.create_session(
            session_id,
            config=config,
            checkpoint=checkpoint,
            kernel_backend=kernel_backend,
        )

    def ingest(
        self,
        session_id: str,
        values,
        mask=None,
        *,
        trace_id: str | None = None,
    ) -> IngestAck:
        seq, trace = self._manager.ingest_traced(
            session_id, values, mask, trace_id=trace_id
        )
        return IngestAck(
            session_id=session_id, seq=seq, trace_id=trace
        )

    def results(
        self, session_id: str, since: int = 0
    ) -> list[SliceResult]:
        return [
            SliceResult(
                session_id=session_id,
                seq=seq,
                completed=np.asarray(completed),
            )
            for seq, completed in self._manager.results(
                session_id, since_seq=since
            )
        ]

    def impute(self, session_id: str, values, mask=None) -> ImputeResult:
        completed = self._manager.impute(session_id, values, mask)
        return ImputeResult(session_id=session_id, completed=completed)

    def forecast(self, session_id: str, horizon: int) -> ForecastResult:
        forecast = self._manager.forecast(session_id, horizon)
        return ForecastResult(
            session_id=session_id, horizon=horizon, forecast=forecast
        )

    def session_info(self, session_id: str) -> dict:
        return self._manager.session_info(session_id)

    def session_stats(self, session_id: str) -> dict:
        return self._manager.session_stats(session_id)

    def list_sessions(self) -> list[str]:
        return self._manager.list_sessions()

    def metrics(self) -> dict:
        return self._manager.metrics.snapshot()

    def prometheus_metrics(self) -> str:
        from repro.serving.observability import render_prometheus

        return render_prometheus(self._manager.metrics.snapshot())

    def traces(
        self,
        *,
        session_id: str | None = None,
        trace_id: str | None = None,
        limit: int | None = None,
    ) -> dict:
        return self._manager.traces(
            session_id=session_id, trace_id=trace_id, limit=limit
        )

    def close_session(
        self, session_id: str, *, checkpoint_path: str | None = None
    ) -> str | None:
        return self._manager.close_session(
            session_id, checkpoint_path=checkpoint_path
        )

    def export_session(self, session_id: str) -> dict:
        return self._manager.export_session(session_id)

    def import_session(
        self,
        session_id: str,
        state: bytes,
        *,
        next_seq: int | None = None,
        consumed: int | None = None,
        kernel_backend: str | None = None,
        degraded: int = 0,
    ) -> dict:
        return self._manager.import_session(
            session_id,
            state,
            next_seq=next_seq,
            consumed=consumed,
            kernel_backend=kernel_backend,
            degraded=degraded,
        )


#: Server error types -> client-side exception classes.
_ERROR_TYPES = {
    "SessionNotFoundError": SessionNotFoundError,
    "SessionExistsError": SessionExistsError,
    "SessionError": SessionError,
    "ConfigError": ConfigError,
    "ShapeError": ShapeError,
    "CheckpointError": CheckpointError,
}


class HTTPServingClient:
    """Talk to a ``repro-serve`` gateway or a shard router over HTTP.

    Targets the versioned ``/v1`` surface; pass the bare base URL
    (``http://host:port``) without the version prefix.  The client is
    shard-aware: pointed at a ``repro-serve-router`` it drives the
    whole fleet through the one URL (the router proxies and the error
    envelope survives the extra hop unchanged).
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self._base = base_url.rstrip("/") + "/v1"
        self._timeout = timeout

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _call(
        self, method: str, path: str, body: bytes | None, headers: dict
    ) -> tuple[str, bytes]:
        """One round trip: (Content-Type, body).

        A reply that is not a 2xx raises as :meth:`_map_error` maps it;
        transport failures raise :class:`OSError` or
        :class:`http.client.HTTPException`.
        """
        status, content_type, data = round_trip(
            self._base + path, method, body, headers, self._timeout
        )
        if status >= 300:
            raise self._map_error(status, data)
        return content_type, data

    def _request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        *,
        extra_headers: dict[str, str] | None = None,
        raw: bool = False,
    ):
        """A control-plane call: JSON out, JSON (or text) back."""
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if extra_headers:
            headers.update(extra_headers)
        _, data = self._call(method, path, body, headers)
        text = data.decode("utf-8")
        return text if raw else json.loads(text)

    def _exchange(
        self,
        method: str,
        path: str,
        reply,
        values=None,
        mask=None,
        *,
        extra_headers: dict[str, str] | None = None,
    ) -> dict:
        """A data-plane call: arrays travel as binary NPY records.

        A slice (``values`` and optional ``mask``) goes out in the
        :data:`wire.SLICE` layout.  The reply is decoded by its
        ``Content-Type``: binary in the ``reply`` layout, or JSON for
        the ingest ack, which carries no array.
        """
        body = None
        headers = {"Accept": f"{wire.MEDIA_TYPE}, application/json"}
        if values is not None:
            body = wire.encode(wire.SLICE, values, mask)
            headers["Content-Type"] = wire.MEDIA_TYPE
        if extra_headers:
            headers.update(extra_headers)
        content_type, data = self._call(method, path, body, headers)
        if wire.names_binary(content_type):
            return wire.decode(data, reply)
        return json.loads(data.decode("utf-8"))

    @staticmethod
    def _map_error(status: int, body: bytes) -> Exception:
        """The ``/v1`` error envelope back into an exception."""
        detail = body.decode("utf-8", errors="replace")
        try:
            envelope = json.loads(detail).get("error")
        except json.JSONDecodeError:
            envelope = None
        if not isinstance(envelope, dict):
            envelope = {"type": "SessionError", "message": detail}
        error_cls = _ERROR_TYPES.get(envelope.get("type"), SessionError)
        error = error_cls(envelope.get("message") or f"HTTP {status}")
        # The status rides along so callers can tell a router's
        # upstream-unreachable 502 (a connection-class failure worth
        # retrying) from a true application rejection.
        error.http_status = status
        return error

    # ------------------------------------------------------------------
    # Surface (the ServingClient protocol)
    # ------------------------------------------------------------------
    def create_session(
        self,
        session_id: str,
        config: dict | None = None,
        *,
        checkpoint: str | None = None,
        kernel_backend: str | None = None,
    ) -> dict:
        payload: dict = {"session_id": session_id}
        if config is not None:
            payload["config"] = config
        if checkpoint is not None:
            payload["checkpoint"] = checkpoint
        if kernel_backend is not None:
            payload["kernel_backend"] = kernel_backend
        return self._request("POST", "/sessions", payload)

    def ingest(
        self,
        session_id: str,
        values,
        mask=None,
        *,
        trace_id: str | None = None,
    ) -> IngestAck:
        # A caller-supplied trace id travels as the trace header (the
        # router propagates it to the owning shard); the ack echoes
        # back whichever id the gateway ended up tracing under.
        extra = {TRACE_HEADER: trace_id} if trace_id else None
        response = self._exchange(
            "POST",
            f"/sessions/{session_id}/slices",
            (),
            values,
            mask,
            extra_headers=extra,
        )
        return IngestAck(
            session_id=session_id,
            seq=int(response["seq"]),
            trace_id=response.get("trace_id"),
        )

    def results(
        self, session_id: str, since: int = 0
    ) -> list[SliceResult]:
        response = self._exchange(
            "GET",
            f"/sessions/{session_id}/results?since={since}",
            wire.RESULTS,
        )
        return [
            SliceResult(
                session_id=session_id, seq=int(seq), completed=completed
            )
            for seq, completed in zip(
                response["seq"].tolist(), response["completed"]
            )
        ]

    def impute(self, session_id: str, values, mask=None) -> ImputeResult:
        response = self._exchange(
            "POST",
            f"/sessions/{session_id}/impute",
            wire.COMPLETED,
            values,
            mask,
        )
        return ImputeResult(
            session_id=session_id,
            completed=response["completed"],
        )

    def forecast(self, session_id: str, horizon: int) -> ForecastResult:
        response = self._exchange(
            "GET",
            f"/sessions/{session_id}/forecast?horizon={horizon}",
            wire.FORECAST,
        )
        forecast = response["forecast"]
        return ForecastResult(
            session_id=session_id, horizon=len(forecast), forecast=forecast
        )

    def session_info(self, session_id: str) -> dict:
        return self._request("GET", f"/sessions/{session_id}")

    def session_stats(self, session_id: str) -> dict:
        return self._request("GET", f"/sessions/{session_id}/stats")

    def list_sessions(self) -> list[str]:
        return self._request("GET", "/sessions")["sessions"]

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def prometheus_metrics(self) -> str:
        """The Prometheus text exposition (fleet-merged on a router)."""
        return self._request(
            "GET", "/metrics?format=prometheus", raw=True
        )

    def traces(
        self,
        *,
        session_id: str | None = None,
        trace_id: str | None = None,
        limit: int | None = None,
    ) -> dict:
        """Recorded slice-lifecycle spans (merged across a router)."""
        params = []
        if session_id is not None:
            params.append(
                "session=" + urllib.parse.quote(session_id, safe="")
            )
        if trace_id is not None:
            params.append(
                "trace=" + urllib.parse.quote(trace_id, safe="")
            )
        if limit is not None:
            params.append(f"limit={int(limit)}")
        path = "/traces"
        if params:
            path += "?" + "&".join(params)
        return self._request("GET", path)

    def close_session(
        self, session_id: str, *, checkpoint_path: str | None = None
    ) -> str | None:
        path = f"/sessions/{session_id}"
        if checkpoint_path is not None:
            quoted = urllib.parse.quote(str(checkpoint_path), safe="")
            path += f"?checkpoint={quoted}"
        return self._request("DELETE", path).get("checkpoint")

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    # ------------------------------------------------------------------
    # Migration and sharding
    # ------------------------------------------------------------------
    def export_session(self, session_id: str) -> dict:
        """Drain and export one session's portable state.

        Mirrors :meth:`SessionManager.export_session`: the ``state``
        field comes back as real bytes (decoded from the wire base64),
        ready to feed :meth:`import_session` on another gateway.
        """
        response = self._request(
            "POST", f"/sessions/{session_id}/export"
        )
        response["state"] = base64.b64decode(response["state"])
        return response

    def import_session(
        self,
        session_id: str,
        state: bytes,
        *,
        next_seq: int | None = None,
        consumed: int | None = None,
        kernel_backend: str | None = None,
        degraded: int = 0,
    ) -> dict:
        """Adopt an exported session on this gateway; returns its info."""
        payload: dict = {
            "state": base64.b64encode(state).decode("ascii")
        }
        if next_seq is not None:
            payload["next_seq"] = int(next_seq)
        if consumed is not None:
            payload["consumed"] = int(consumed)
        if kernel_backend is not None:
            payload["kernel_backend"] = kernel_backend
        if degraded:
            payload["degraded"] = int(degraded)
        return self._request(
            "POST", f"/sessions/{session_id}/import", payload
        )

    def migrate_session(self, session_id: str, target: str) -> dict:
        """Ask a shard router to move a live session to ``target``.

        Only meaningful against ``repro-serve-router``; a plain
        gateway answers with its usual no-route error envelope.
        """
        return self._request(
            "POST",
            f"/sessions/{session_id}/migrate",
            {"target": target},
        )

    def shards(self) -> dict:
        """The router's shard topology (``GET /v1/shards``)."""
        return self._request("GET", "/shards")

    def join_shard(self, url: str, *, weight: float = 1.0) -> dict:
        """Add a shard to a router's ring and rebalance onto it."""
        return self._request(
            "POST",
            "/shards/join",
            {"url": url, "weight": float(weight)},
        )

    def drain_shard(self, url: str) -> dict:
        """Migrate everything off a shard and drop it from the ring."""
        return self._request("POST", "/shards/drain", {"url": url})
