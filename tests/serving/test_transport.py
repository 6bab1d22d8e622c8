"""The shared HTTP plumbing: the pooled handler threads and round_trip."""

import http.client
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler

import pytest

from repro.exceptions import SessionError
from repro.scenarios.replay import _is_connection_error
from repro.serving import HTTPServingClient
from repro.serving.shard import start_local_cluster
from repro.serving.transport import PooledHTTPServer, round_trip

#: Concurrent connections that must all be in their handlers at once.
CONCURRENT = 12


class _Handler(BaseHTTPRequestHandler):
    """Echoes the path and the ``Connection`` header as JSON.

    ``/status/<code>`` answers that status; ``/meet`` waits at the
    server's barrier until ``CONCURRENT`` connections are in handlers;
    ``/v1/healthz`` answers 500 with a JSON body that is not an object,
    as a proxy in front of a gateway might.
    """

    protocol_version = "HTTP/1.1"

    def log_message(self, *args) -> None:
        pass

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        status = 200
        if self.path.startswith("/status/"):
            status = int(self.path.rpartition("/")[2])
        elif self.path == "/meet":
            self.server.barrier.wait(timeout=30)
        body = json.dumps(
            {"path": self.path, "connection": self.headers["Connection"]}
        ).encode("utf-8")
        if self.path == "/v1/healthz":
            status, body = 500, b"[1, 2]"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def pooled():
    """A running pooled server whose connections are all recorded.

    The recorder is an instance attribute over
    ``process_request_thread``, the way a tracer wraps it.
    """
    server = PooledHTTPServer(("127.0.0.1", 0), _Handler)
    server.barrier = threading.Barrier(CONCURRENT)
    server.handler_threads = []
    served = server.process_request_thread

    def recording(request, client_address):
        server.handler_threads.append(threading.current_thread())
        served(request, client_address)

    server.process_request_thread = recording
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    server.url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def _get(url: str) -> tuple[int, str, bytes]:
    return round_trip(url, "GET", None, {}, timeout=30)


class TestPooledHTTPServer:
    def test_sequential_requests_reuse_handler_threads(self, pooled):
        for _ in range(50):
            assert _get(pooled.url + "/")[0] == 200
        assert len(pooled.handler_threads) == 50
        # Thread objects, not idents: the OS recycles the ident of an
        # exited thread, so a thread per connection could show few.
        # One connection at a time, and a thread that has just finished
        # one may not have parked yet when the next arrives.
        assert len(set(pooled.handler_threads)) <= 8

    def test_concurrent_connections_are_all_served_at_once(self, pooled):
        # Each handler waits until all CONCURRENT are inside handlers at
        # once; a capped pool would leave some queued and break the
        # barrier.
        statuses: list[int] = []

        def call() -> None:
            statuses.append(_get(pooled.url + "/meet")[0])

        callers = [threading.Thread(target=call) for _ in range(CONCURRENT)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
        assert statuses == [200] * CONCURRENT
        assert not pooled.barrier.broken
        assert len(set(pooled.handler_threads)) >= CONCURRENT

    def test_instance_wrapper_sees_every_connection(self, pooled):
        for _ in range(7):
            _get(pooled.url + "/")
        callers = [
            threading.Thread(target=_get, args=(pooled.url + "/",))
            for _ in range(5)
        ]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
        assert len(pooled.handler_threads) == 12

    def test_server_close_ends_the_parked_threads(self, pooled):
        for _ in range(10):
            _get(pooled.url + "/")
        pooled.shutdown()
        pooled.server_close()
        for thread in set(pooled.handler_threads):
            thread.join(timeout=5)
            assert not thread.is_alive()

    def test_handler_thread_names_are_not_flush_threads(self, pooled):
        _get(pooled.url + "/")
        for thread in pooled.handler_threads:
            assert not thread.name.startswith("repro-serve-flush-")


def _record_nodelay(server) -> list[int]:
    """``TCP_NODELAY`` of every socket ``server`` accepts from now on."""
    seen: list[int] = []
    finish = server.finish_request

    def recording(request, client_address):
        seen.append(
            request.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )
        finish(request, client_address)

    server.finish_request = recording
    return seen


class TestTcpNoDelay:
    @pytest.mark.parametrize("which", ["gateway", "router"])
    def test_accepted_sockets_have_nodelay(self, which):
        with start_local_cluster(1, max_batch=1) as cluster:
            server = (
                cluster.backends[0] if which == "gateway" else cluster.router
            )
            seen = _record_nodelay(server)
            host, port = server.server_address[:2]
            connection = http.client.HTTPConnection(host, port, timeout=30)
            try:
                # Two requests on one kept-alive connection.
                for _ in range(2):
                    connection.request("GET", "/v1/healthz")
                    response = connection.getresponse()
                    response.read()
                    assert response.status == 200
            finally:
                connection.close()
            assert seen
            assert all(seen)


class TestRoundTrip:
    @pytest.mark.parametrize("status", [400, 404, 409, 500, 502, 503])
    def test_error_statuses_come_back_as_values(self, pooled, status):
        got, content_type, body = _get(f"{pooled.url}/status/{status}")
        assert got == status
        assert content_type == "application/json"
        assert json.loads(body)["path"] == f"/status/{status}"

    def test_one_connection_per_call(self, pooled):
        for _ in range(3):
            status, _, body = _get(pooled.url + "/")
            assert status == 200
            assert json.loads(body)["connection"] == "close"
        assert len(pooled.handler_threads) == 3

    def test_refused_connection_is_a_retryable_os_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(OSError) as caught:
            _get(f"http://127.0.0.1:{port}/v1/healthz")
        assert _is_connection_error(caught.value)
        with pytest.raises(OSError) as caught:
            HTTPServingClient(f"http://127.0.0.1:{port}").healthz()
        assert _is_connection_error(caught.value)

    def test_rejects_non_http_urls(self):
        with pytest.raises(http.client.HTTPException):
            round_trip("ftp://127.0.0.1:1/x", "GET", None, {}, timeout=1)


class TestClientErrorReplies:
    def test_non_object_error_body_is_a_typed_error(self, pooled):
        with pytest.raises(SessionError) as caught:
            HTTPServingClient(pooled.url).healthz()
        assert caught.value.http_status == 500
        assert str(caught.value) == "[1, 2]"
        assert not _is_connection_error(caught.value)
