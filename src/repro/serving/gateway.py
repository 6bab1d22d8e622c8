"""Stdlib HTTP gateway in front of a :class:`SessionManager`.

A :class:`~repro.serving.transport.PooledHTTPServer` (each connection
on a reused handler thread, no third-party dependencies) exposing the
serving runtime under a versioned prefix:

=======  ==================================  =================================
Method   Path                                Body / query
=======  ==================================  =================================
GET      ``/v1/healthz``                     --
GET      ``/v1/metrics``                     ``?format=prometheus`` for
                                             text exposition
GET      ``/v1/traces``                      ``?session=&trace=&limit=``
GET      ``/v1/sessions``                    --
POST     ``/v1/sessions``                    ``{"session_id", "config"}`` or
                                             ``{"session_id", "checkpoint"}``;
                                             optional ``"kernel_backend"``
GET      ``/v1/sessions/<id>``               --
GET      ``/v1/sessions/<id>/stats``         -- (quality telemetry)
DELETE   ``/v1/sessions/<id>``               optional ``?checkpoint=<path>``
POST     ``/v1/sessions/<id>/slices``        ``{"values", "mask"?}`` -> ``seq``
                                             (``X-Repro-Trace-Id`` header
                                             forces lifecycle tracing)
GET      ``/v1/sessions/<id>/results``       ``?since=<seq>``
POST     ``/v1/sessions/<id>/impute``        ``{"values", "mask"?}``
GET      ``/v1/sessions/<id>/forecast``      ``?horizon=<h>``
POST     ``/v1/sessions/<id>/export``        -- (drains; returns the
                                             portable session state)
POST     ``/v1/sessions/<id>/import``        ``{"state": <base64>,
                                             "next_seq"?, "consumed"?,
                                             "kernel_backend"?,
                                             "degraded"?}``
=======  ==================================  =================================

``export``/``import`` are the live-migration handoff the shard router
(:mod:`repro.serving.shard`) drives: export drains the session and
returns its versioned checkpoint bytes (base64 in JSON) plus sequence
bookkeeping; import adopts that state on another gateway, ready to
step, with sequence numbering continuing where the source left off.

Data-plane arrays travel in one of two formats, chosen per request:
a body with ``Content-Type: application/octet-stream`` holds binary
NPY records (:mod:`repro.serving.wire` has the layouts), any other
body is JSON with nested float lists; a reply is binary when the
request's ``Accept`` names ``application/octet-stream``.  Everything
else — sessions, acks, stats, metrics, traces, errors, export/import —
is JSON only.  Ingested and imputed values must be finite in either
format.  Paths outside ``/v1`` (the pre-versioning ``/sessions`` etc.)
answer 404 with the error envelope below.

Every error is a uniform JSON envelope::

    {"error": {"type": "SessionNotFoundError",
               "message": "no session 'x'",
               "session": "x"}}

with ``session`` null when the failing request named none.  Types map
onto status codes: unknown session 404, duplicate session or
session-state conflicts (warming up, failed) 409, bad
configs/shapes/bodies 400, everything else 500.  A ``Content-Length``
that is not a number is a 400 that closes the connection.  What the
stdlib's parser refuses (a bad request line, an oversized header, an
unsupported method such as ``PUT``) keeps the stdlib's status, has
type ``HTTPError`` and closes the connection too.

:class:`EdgeHandler` is that edge: the body read, the envelope, the
status map and the reply counter.  The gateway's handler and the shard
router's (:mod:`repro.serving.shard`) both derive from it and add only
their route tables, so both servers answer bad input alike.

``main`` is the ``repro-serve`` console entry point::

    repro-serve --port 8349 --max-resident 64 --max-batch 16 \
        --max-latency-ms 50 --workers 4
"""

from __future__ import annotations

import argparse
import base64
import binascii
import json
import re
from http.server import BaseHTTPRequestHandler
from urllib.parse import parse_qs

import numpy as np

from repro.exceptions import (
    CheckpointError,
    ConfigError,
    SessionError,
    SessionNotFoundError,
    ShapeError,
)
from repro.serving import wire
from repro.serving.manager import SessionManager
from repro.serving.observability import TRACE_HEADER, render_prometheus
from repro.serving.transport import PooledHTTPServer

__all__ = ["ServingHTTPServer", "main", "serve"]

#: The one API version this gateway speaks.
API_PREFIX = "/v1"

#: Content type of every JSON reply, the error envelope included.
JSON_CONTENT_TYPE = "application/json"

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _reject_constant(name: str):
    """``parse_constant`` hook: refuse ``NaN``/``Infinity`` literals.

    Python's ``json`` accepts them by default, and a single non-finite
    observed cell would poison a session's model for good, so such a
    body is a 400 like any other malformed request.
    """
    raise ValueError(
        f"request body is not valid JSON: non-finite literal {name!r}"
    )


#: A version-stripped path under one session; the envelope's
#: ``session`` is its ``sid``.
SESSION_SCOPE = re.compile(r"^/sessions/(?P<sid>[^/]+)(?:/|$)")

_SESSION_PATH = re.compile(
    r"^/sessions/(?P<sid>[^/]+)"
    r"(?P<tail>/(?:slices|results|impute|forecast|export|import"
    r"|stats))?$"
)


def error_body(
    error_type: str, message: str, session_id: str | None
) -> bytes:
    """The encoded error envelope (see the module docstring)."""
    return json.dumps(
        {
            "error": {
                "type": error_type,
                "message": message,
                "session": session_id,
            }
        }
    ).encode("utf-8")


def _status_for(exc: Exception) -> int:
    if isinstance(exc, SessionNotFoundError):
        return 404
    if isinstance(exc, SessionError):
        return 409
    if isinstance(
        exc,
        (ConfigError, ShapeError, CheckpointError, ValueError, KeyError),
    ):
        return 400
    return 500


class EdgeHandler(BaseHTTPRequestHandler):
    """The HTTP edge the gateway and the shard router share.

    The body is read before routing, whatever the answer, so a
    kept-alive connection stays in step with the next request.  A
    subclass's ``_route`` gets the version-stripped path and the raw
    query string and returns whether it answered; an exception it
    raises becomes the error envelope with the status
    :func:`_status_for` picks, and an unanswered request a 404.  Every
    reply goes out through :meth:`_send`, which counts it with the
    server's ``observe_http``, the stdlib's own refusals included.
    """

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def send_error(self, code, message=None, explain=None):
        """A refusal from the stdlib's parser, sent as the envelope.

        That is a bad request line, an oversized header or an
        unsupported method; as with the stdlib's own page, the
        connection closes after it.
        """
        self.log_error("code %d, message %s", code, message)
        self._send(
            code,
            error_body(
                "HTTPError", message or self.responses[code][0], None
            ),
            close=True,
        )

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str = JSON_CONTENT_TYPE,
        *,
        close: bool = False,
    ) -> None:
        self.server.observe_http(status)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _send_json(self, payload: dict, status: int = 200) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"))

    def _send_text(self, text: str) -> None:
        """Prometheus text exposition."""
        self._send(200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE)

    def _send_error_json(
        self,
        exc: Exception,
        session_id: str | None,
        *,
        close: bool = False,
    ) -> None:
        self._send(
            _status_for(exc),
            error_body(type(exc).__name__, str(exc), session_id),
            close=close,
        )

    def _binary_body(self) -> bool:
        return wire.names_binary(self.headers.get("Content-Type"))

    def _read_json(self) -> dict:
        raw = self.body
        if self._binary_body():
            raise ValueError(
                f"this endpoint takes a JSON body, not {wire.MEDIA_TYPE}"
            )
        if not raw:
            return {}
        try:
            payload = json.loads(
                raw.decode("utf-8"), parse_constant=_reject_constant
            )
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"request body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _read_create(self) -> tuple[str, dict]:
        """``(session id, body)`` of a ``POST /v1/sessions``."""
        payload = self._read_json()
        if "session_id" not in payload:
            raise ValueError("body needs a 'session_id'")
        return str(payload["session_id"]), payload

    def _dispatch(self, method: str) -> None:
        path, _, query = self.path.partition("?")
        versioned = path == API_PREFIX or path.startswith(API_PREFIX + "/")
        route = path[len(API_PREFIX):]
        scope = SESSION_SCOPE.match(route) if versioned else None
        session_id = scope.group("sid") if scope else None
        length = self.headers.get("Content-Length") or "0"
        if not length.isdecimal():
            # The request's end is unknown, and so is where the next
            # one starts: this is the connection's last reply.
            self._send_error_json(
                ValueError(f"bad Content-Length {length!r}"),
                session_id,
                close=True,
            )
            return
        self.body = self.rfile.read(int(length))
        try:
            handled = versioned and self._route(method, route, query)
        except Exception as exc:  # noqa: BLE001 - HTTP boundary
            self._send_error_json(exc, session_id)
            return
        if not handled:
            self._send_error_json(
                SessionNotFoundError(f"no route {method} {path}"),
                session_id,
            )

    def _route(self, method: str, path: str, query: str) -> bool:
        raise NotImplementedError

    # BaseHTTPRequestHandler hooks
    def do_GET(self):  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self):  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self):  # noqa: N802
        self._dispatch("DELETE")


class _Handler(EdgeHandler):
    """The gateway's routes; the manager lives on the server object."""

    server: "ServingHTTPServer"

    def _wants_binary(self) -> bool:
        return wire.names_binary(self.headers.get("Accept"))

    def _read_slice(self) -> tuple[np.ndarray, object]:
        """``(values, mask)`` of an ingest or impute body, either format.

        One non-finite value (an overflowing literal such as ``1e999``,
        or NaN bits in a binary body) would poison the session's model
        for good, so it is a 400 before the manager sees the slice.
        """
        if self._binary_body():
            arrays = wire.decode(self.body, wire.SLICE)
            values, mask = arrays["values"], arrays.get("mask")
        else:
            payload = self._read_json()
            mask = payload.get("mask")
            try:
                values = np.asarray(payload["values"], dtype=np.float64)
            except (TypeError, OverflowError) as exc:
                # A non-number entry, or an integer beyond float64.
                raise ValueError(
                    f"'values' must be finite numbers: {exc}"
                ) from None
        if not np.isfinite(values).all():
            raise ValueError("'values' must be finite (no NaN or infinity)")
        return values, mask

    def _send_arrays(self, layout, *arrays) -> None:
        self._send(200, wire.encode(layout, *arrays), wire.MEDIA_TYPE)

    # ------------------------------------------------------------------
    # Routes (paths arrive with the version prefix stripped)
    # ------------------------------------------------------------------
    def _route(self, method, path, query) -> bool:
        manager = self.server.manager
        query = parse_qs(query)
        if method == "GET" and path == "/healthz":
            self._send_json(
                {"status": "ok", "sessions": len(manager.list_sessions())}
            )
            return True
        if method == "GET" and path == "/metrics":
            snapshot = manager.metrics.snapshot()
            if query.get("format", [""])[0] == "prometheus":
                self._send_text(render_prometheus(snapshot))
            else:
                self._send_json(snapshot)
            return True
        if method == "GET" and path == "/traces":
            limit = query.get("limit", [None])[0]
            self._send_json(
                manager.traces(
                    session_id=query.get("session", [None])[0],
                    trace_id=query.get("trace", [None])[0],
                    limit=None if limit is None else int(limit),
                )
            )
            return True
        if path == "/sessions":
            if method == "GET":
                self._send_json(
                    {
                        "sessions": manager.list_sessions(),
                        "stats": manager.session_stats_all(),
                    }
                )
                return True
            if method == "POST":
                session_id, payload = self._read_create()
                info = manager.create_session(
                    session_id,
                    config=payload.get("config"),
                    checkpoint=payload.get("checkpoint"),
                    kernel_backend=payload.get("kernel_backend"),
                )
                self._send_json(info, status=201)
                return True
            return False
        match = _SESSION_PATH.match(path)
        if not match:
            return False
        sid = match.group("sid")
        tail = match.group("tail") or ""
        if tail == "":
            if method == "GET":
                self._send_json(manager.session_info(sid))
                return True
            if method == "DELETE":
                checkpoint = query.get("checkpoint", [None])[0]
                saved = manager.close_session(
                    sid, checkpoint_path=checkpoint
                )
                self._send_json({"closed": sid, "checkpoint": saved})
                return True
            return False
        if tail == "/stats" and method == "GET":
            self._send_json(manager.session_stats(sid))
            return True
        if tail == "/slices" and method == "POST":
            values, mask = self._read_slice()
            seq, trace = manager.ingest_traced(
                sid,
                values,
                mask,
                # A caller-supplied id (propagated by the router from
                # its own ingress) always traces; otherwise the
                # manager's sample rate decides.
                trace_id=self.headers.get(TRACE_HEADER),
            )
            self._send_json(
                {"session_id": sid, "seq": seq, "trace_id": trace},
                status=202,
            )
            return True
        if tail == "/results" and method == "GET":
            since = int(query.get("since", ["0"])[0])
            results = manager.results(sid, since_seq=since)
            if self._wants_binary():
                self._send_arrays(
                    wire.RESULTS,
                    [seq for seq, _ in results],
                    np.stack([completed for _, completed in results])
                    if results
                    else np.empty(0),
                )
                return True
            self._send_json(
                {
                    "session_id": sid,
                    "results": [
                        {"seq": seq, "completed": completed.tolist()}
                        for seq, completed in results
                    ],
                }
            )
            return True
        if tail == "/impute" and method == "POST":
            values, mask = self._read_slice()
            completed = manager.impute(sid, values, mask)
            if self._wants_binary():
                self._send_arrays(wire.COMPLETED, completed)
            else:
                self._send_json(
                    {"session_id": sid, "completed": completed.tolist()}
                )
            return True
        if tail == "/export" and method == "POST":
            exported = manager.export_session(sid)
            self._send_json(
                {
                    "session_id": sid,
                    "state": base64.b64encode(
                        exported["state"]
                    ).decode("ascii"),
                    "next_seq": exported["next_seq"],
                    "consumed": exported["consumed"],
                    "kernel_backend": exported["kernel_backend"],
                    "degraded": exported["degraded"],
                }
            )
            return True
        if tail == "/import" and method == "POST":
            payload = self._read_json()
            if "state" not in payload:
                raise ValueError("body needs a base64 'state'")
            try:
                state = base64.b64decode(
                    str(payload["state"]), validate=True
                )
            except (binascii.Error, ValueError) as exc:
                raise ValueError(
                    f"'state' is not valid base64: {exc}"
                ) from None
            next_seq = payload.get("next_seq")
            consumed = payload.get("consumed")
            info = manager.import_session(
                sid,
                state,
                next_seq=None if next_seq is None else int(next_seq),
                consumed=None if consumed is None else int(consumed),
                kernel_backend=payload.get("kernel_backend"),
                degraded=int(payload.get("degraded") or 0),
            )
            self._send_json(info, status=201)
            return True
        if tail == "/forecast" and method == "GET":
            horizon = int(query.get("horizon", ["1"])[0])
            forecast = manager.forecast(sid, horizon)
            if self._wants_binary():
                self._send_arrays(wire.FORECAST, forecast)
            else:
                self._send_json(
                    {
                        "session_id": sid,
                        "horizon": horizon,
                        "forecast": np.asarray(forecast).tolist(),
                    }
                )
            return True
        return False


class ServingHTTPServer(PooledHTTPServer):
    """HTTP front of one :class:`SessionManager` (threaded, stdlib)."""

    def __init__(
        self,
        address: tuple[str, int],
        manager: SessionManager,
        *,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, _Handler)
        self.manager = manager
        self.verbose = verbose

    def observe_http(self, status: int) -> None:
        """Count one HTTP reply in the manager's metrics."""
        self.manager.metrics.observe_http(status)

    @property
    def port(self) -> int:
        return self.server_address[1]


def serve(
    manager: SessionManager,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    verbose: bool = False,
) -> ServingHTTPServer:
    """Bind a gateway (``port=0`` picks a free port); caller runs it."""
    return ServingHTTPServer((host, port), manager, verbose=verbose)


def main(argv: list[str] | None = None) -> int:
    """``repro-serve``: run the multi-session SOFIA serving gateway."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve concurrent SOFIA sessions over HTTP "
        "with micro-batched ingestion and checkpoint-backed eviction.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8349)
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="where evicted sessions spill (default: a temp directory)",
    )
    parser.add_argument(
        "--durable",
        action="store_true",
        help="rewrite each session's checkpoint (plus a bookkeeping "
        "sidecar) after every committed flush, so a shard router can "
        "fail this gateway's sessions over from --checkpoint-dir if "
        "the process dies",
    )
    parser.add_argument(
        "--max-resident",
        type=int,
        default=None,
        help="max sessions resident in memory; colder ones spill to "
        "disk (default: unbounded)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="micro-batch flush size (default 16)",
    )
    parser.add_argument(
        "--max-latency-ms",
        type=float,
        default=50.0,
        help="flush deadline for partial batches (default 50 ms)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="flush dispatch threads (default 2)",
    )
    parser.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.0,
        help="fraction of ingested slices to lifecycle-trace "
        "(0 disables sampling; explicitly supplied X-Repro-Trace-Id "
        "headers are always traced)",
    )
    parser.add_argument(
        "--trace-capacity",
        type=int,
        default=4096,
        help="bounded in-memory span ring size (default 4096)",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    manager = SessionManager(
        checkpoint_dir=args.checkpoint_dir,
        durable=args.durable,
        max_resident=args.max_resident,
        max_batch=args.max_batch,
        max_latency_s=args.max_latency_ms / 1000.0,
        workers=args.workers,
        trace_sample_rate=args.trace_sample_rate,
        trace_capacity=args.trace_capacity,
    )
    server = serve(
        manager, args.host, args.port, verbose=args.verbose
    )
    print(
        f"repro-serve listening on http://{args.host}:{server.port}"
        f"{API_PREFIX} (max_batch={args.max_batch}, "
        f"workers={args.workers}, "
        f"max_resident={args.max_resident or 'unbounded'})"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        manager.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
