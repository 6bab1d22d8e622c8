"""The HTTP plumbing shared by the gateway, the router and the client.

* :class:`PooledHTTPServer` — the base of both servers.  Each accepted
  connection runs on a parked handler thread; a new thread starts only
  when none is idle, and there is no upper bound, so no connection
  ever waits for another one to finish.  A thread that finishes a
  connection parks for the next one instead of exiting, which takes
  the thread start off the accept loop's path.
* :func:`round_trip` — one request on one fresh
  :class:`http.client.HTTPConnection` (``HTTPSConnection`` for
  ``https://``), sent with ``Connection: close``.  Every status comes
  back as a value; only transport failures raise.

A reused handler thread carries no state from one connection to the
next: serving code keeps nothing in ``threading.local``, and every
kernel-backend scope (a ``ContextVar``) is reset when it exits.
"""

from __future__ import annotations

import http.client
import queue
import socket
import threading
from http.server import HTTPServer
from urllib.parse import urlsplit

__all__ = ["PooledHTTPServer", "round_trip"]

#: How often the accept loop checks for a shutdown request, in seconds.
#: ``shutdown()`` returns within about this long.
POLL_INTERVAL_S = 0.05


class PooledHTTPServer(HTTPServer):
    """An :class:`HTTPServer` whose connections run on reused threads.

    Each connection is served by ``self.process_request_thread``,
    looked up per connection as :class:`socketserver.ThreadingMixIn`
    does, so a wrapper set on the instance sees every connection.
    Accepted sockets have ``TCP_NODELAY`` set: a handler writes its
    headers and its body separately, and on a kept-alive connection
    Nagle's algorithm would hold the body back until the client's
    delayed ACK, about 40 ms per request.
    """

    def __init__(self, address, handler_class) -> None:
        super().__init__(address, handler_class)
        self._pool_lock = threading.Lock()
        #: Parked handler threads, each with the inbox it waits on.
        self._parked: list[tuple[threading.Thread, queue.SimpleQueue]] = []
        self._closed = False

    def serve_forever(self, poll_interval: float = POLL_INTERVAL_S) -> None:
        super().serve_forever(poll_interval)

    def get_request(self):
        request, client_address = super().get_request()
        request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return request, client_address

    def process_request(self, request, client_address) -> None:
        """Hand the connection to a parked thread, or start one."""
        connection = (request, client_address)
        with self._pool_lock:
            if self._parked:
                _, inbox = self._parked.pop()
                inbox.put(connection)
                return
        threading.Thread(
            target=self._handler_loop,
            args=(queue.SimpleQueue(), connection),
            name="repro-http-handler",
            daemon=True,
        ).start()

    def process_request_thread(self, request, client_address) -> None:
        """Serve one connection, then close it (on a handler thread)."""
        try:
            self.finish_request(request, client_address)
        except Exception:  # noqa: BLE001 - one connection's failure
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)

    def _handler_loop(self, inbox: queue.SimpleQueue, connection) -> None:
        me = threading.current_thread()
        while connection is not None:
            self.process_request_thread(*connection)
            with self._pool_lock:
                if self._closed:
                    return
                self._parked.append((me, inbox))
            connection = inbox.get()

    def server_close(self) -> None:
        """Close the socket and end every parked handler thread.

        A thread still serving a connection ends when that is done.
        """
        super().server_close()
        with self._pool_lock:
            self._closed = True
            parked, self._parked = self._parked, []
        for _, inbox in parked:
            inbox.put(None)
        for thread, _ in parked:
            thread.join(timeout=1.0)


def round_trip(
    url: str,
    method: str,
    body: bytes | None,
    headers: dict[str, str],
    timeout: float,
) -> tuple[int, str, bytes]:
    """One request on a new connection: ``(status, content type, body)``.

    A 4xx or 5xx reply is returned like any other, and a 3xx is not
    followed.  Transport failures (refused, reset, timed out, a
    malformed reply) raise :class:`OSError` or
    :class:`http.client.HTTPException`.
    """
    parts = urlsplit(url)
    if parts.scheme == "https":
        connection = http.client.HTTPSConnection(parts.netloc, timeout=timeout)
    elif parts.scheme == "http":
        connection = http.client.HTTPConnection(parts.netloc, timeout=timeout)
    else:
        raise http.client.InvalidURL(f"not an http(s) URL: {url!r}")
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    try:
        connection.request(
            method, target, body, {**headers, "Connection": "close"}
        )
        response = connection.getresponse()
        return (
            response.status,
            response.getheader("Content-Type", ""),
            response.read(),
        )
    finally:
        connection.close()
