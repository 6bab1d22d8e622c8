"""Fault-injection harness: a chaos HTTP proxy for serving tests.

:class:`ChaosProxy` sits between a test client and a real gateway or
shard router, forwarding requests byte-for-byte by default.  Tests
install :class:`Rule` entries to inject faults on matching routes:

- ``delay(path, seconds)`` — sleep before handling the request, for
  wedged-sender and timeout tests;
- ``error(path, status)`` — answer locally with a gateway-style error
  envelope without ever contacting the upstream;
- ``blackhole(path, times)`` — drop the TCP connection without sending
  a byte, so the client sees a connection-level failure;
- ``sever(path)`` — forward upstream, then cut the response off
  mid-body (full Content-Length advertised, half the bytes sent).

Rules match on HTTP method and a path regex, first match wins, and a
``times`` budget limits how many requests a rule eats.  ``kill()``
closes the listening socket so every subsequent connection is refused
— the same failure shape as a crashed shard.

This replaces the older per-test pattern of monkeypatching
``HTTPServingClient`` with hand-rolled flaky subclasses: faults now
happen on the wire, so the client, the replay harness's error
classification, and the router's retry loop are all exercised for
real.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler

from repro.serving.transport import PooledHTTPServer

__all__ = ["ChaosProxy", "Rule", "start_chaos_proxy"]

_HOP_HEADERS = frozenset(
    {"connection", "content-length", "transfer-encoding", "keep-alive"}
)


@dataclass
class Rule:
    """One fault, applied to requests matching ``method`` and ``path``.

    ``path`` is a regex searched against the request path.  ``method``
    of ``None`` matches every verb.  ``remaining`` is how many more
    matching requests the rule consumes (``None`` means no budget);
    ``hits`` counts how many it has consumed so far.
    """

    path: str = ".*"
    method: str | None = None
    delay_s: float = 0.0
    status: int | None = None
    error_type: str = "SessionError"
    message: str = "injected fault"
    blackhole: bool = False
    sever_body: bool = False
    remaining: int | None = None
    hits: int = 0

    def _matches(self, method: str, path: str) -> bool:
        if self.remaining is not None and self.remaining <= 0:
            return False
        if self.method is not None and self.method != method:
            return False
        return re.search(self.path, path) is not None


class _ChaosHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: ChaosProxy

    def log_message(self, *args: object) -> None:  # keep test output clean
        pass

    def do_GET(self) -> None:
        self._handle("GET")

    def do_POST(self) -> None:
        self._handle("POST")

    def do_DELETE(self) -> None:
        self._handle("DELETE")

    def _drop_connection(self) -> None:
        self.close_connection = True
        try:
            self.connection.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def _handle(self, method: str) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        rule = self.server.consume_rule(method, self.path)
        if rule is not None and rule.delay_s > 0:
            time.sleep(rule.delay_s)
        if rule is not None and rule.blackhole:
            self._drop_connection()
            return
        if rule is not None and rule.status is not None:
            payload = json.dumps(
                {
                    "error": {
                        "type": rule.error_type,
                        "message": rule.message,
                    }
                }
            ).encode()
            self._reply(rule.status, payload)
            return
        status, headers, payload = self.server.forward(
            method, self.path, body, self.headers
        )
        if rule is not None and rule.sever_body and len(payload) > 1:
            # Advertise the full body but send only half, then cut the
            # connection: the client sees a mid-body disconnect.
            self.send_response(status)
            self.send_header(
                "Content-Type", headers.get("Content-Type", "application/json")
            )
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload[: len(payload) // 2])
            self.wfile.flush()
            self._drop_connection()
            return
        self._reply(status, payload, headers)

    def _reply(
        self, status: int, payload: bytes, headers: dict[str, str] | None = None
    ) -> None:
        self.send_response(status)
        relayed = {k.lower(): v for k, v in (headers or {}).items()}
        self.send_header(
            "Content-Type", relayed.get("content-type", "application/json")
        )
        if "location" in relayed:
            self.send_header("Location", relayed["location"])
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        if payload:
            self.wfile.write(payload)


class ChaosProxy(PooledHTTPServer):
    """Programmable fault-injecting reverse proxy (see module docs)."""

    def __init__(
        self,
        address: tuple[str, int],
        upstream: str,
        *,
        timeout: float = 30.0,
    ) -> None:
        super().__init__(address, _ChaosHandler)
        self.upstream = upstream.rstrip("/")
        self.proxy_timeout = timeout
        self.proxied = 0
        self._rules: list[Rule] = []
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._killed = False

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    # -- plan management -------------------------------------------------

    def add_rule(self, rule: Rule) -> Rule:
        with self._lock:
            self._rules.append(rule)
        return rule

    def clear_rules(self) -> None:
        with self._lock:
            self._rules.clear()

    def delay(
        self,
        path: str,
        seconds: float,
        *,
        method: str | None = None,
        times: int | None = None,
    ) -> Rule:
        return self.add_rule(
            Rule(path=path, method=method, delay_s=seconds, remaining=times)
        )

    def error(
        self,
        path: str,
        status: int = 500,
        *,
        error_type: str = "SessionError",
        message: str = "injected fault",
        method: str | None = None,
        times: int | None = None,
    ) -> Rule:
        return self.add_rule(
            Rule(
                path=path,
                method=method,
                status=status,
                error_type=error_type,
                message=message,
                remaining=times,
            )
        )

    def blackhole(
        self, path: str, times: int, *, method: str | None = None
    ) -> Rule:
        return self.add_rule(
            Rule(path=path, method=method, blackhole=True, remaining=times)
        )

    def sever(
        self, path: str, *, method: str | None = None, times: int | None = None
    ) -> Rule:
        return self.add_rule(
            Rule(path=path, method=method, sever_body=True, remaining=times)
        )

    def consume_rule(self, method: str, path: str) -> Rule | None:
        """First matching rule, with its budget decremented — or None."""
        with self._lock:
            for rule in self._rules:
                if rule._matches(method, path):
                    rule.hits += 1
                    if rule.remaining is not None:
                        rule.remaining -= 1
                    return rule
        return None

    # -- forwarding ------------------------------------------------------

    def forward(
        self, method: str, path: str, body: bytes, headers=None
    ) -> tuple[int, dict[str, str], bytes]:
        """Relay one request; the caller's ``Content-Type`` and
        ``Accept`` go upstream, so binary data-plane bodies pass."""
        relayed = {"Content-Type": "application/json"}
        for name in ("Content-Type", "Accept"):
            if headers is not None and headers.get(name):
                relayed[name] = headers[name]
        request = urllib.request.Request(
            self.upstream + path,
            data=body or None,
            method=method,
            headers=relayed,
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.proxy_timeout
            ) as response:
                payload = response.read()
                headers = {
                    k: v
                    for k, v in response.headers.items()
                    if k.lower() not in _HOP_HEADERS
                }
                with self._lock:
                    self.proxied += 1
                return response.status, headers, payload
        except urllib.error.HTTPError as exc:
            payload = exc.read()
            headers = {
                k: v
                for k, v in exc.headers.items()
                if k.lower() not in _HOP_HEADERS
            }
            with self._lock:
                self.proxied += 1
            return exc.code, headers, payload
        except (urllib.error.URLError, OSError) as exc:
            payload = json.dumps(
                {
                    "error": {
                        "type": "SessionError",
                        "message": f"chaos proxy upstream unreachable: {exc}",
                    }
                }
            ).encode()
            return 502, {}, payload

    # -- lifecycle -------------------------------------------------------

    def start(self) -> ChaosProxy:
        thread = threading.Thread(
            target=self.serve_forever, name="chaos-proxy", daemon=True
        )
        thread.start()
        self._thread = thread
        return self

    def kill(self) -> None:
        """Close the listener: new connections are refused, like a crash."""
        if self._killed:
            return
        self._killed = True
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def close(self) -> None:
        self.kill()


def start_chaos_proxy(
    upstream: str, *, host: str = "127.0.0.1", timeout: float = 30.0
) -> ChaosProxy:
    """Start a ChaosProxy on an ephemeral port, serving in a thread."""
    return ChaosProxy((host, 0), upstream, timeout=timeout).start()
