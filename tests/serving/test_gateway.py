"""HTTP tests: a live gateway driven by HTTPServingClient."""

import http.client
import io
import json
import threading
import urllib.error
import urllib.parse
import urllib.request

import numpy as np
import pytest

from repro.exceptions import (
    ConfigError,
    SessionError,
    SessionExistsError,
    SessionNotFoundError,
)
from repro.serving import HTTPServingClient, SessionManager, wire
from repro.serving.gateway import main as serve_main
from repro.serving.gateway import serve
from repro.serving.shard import start_local_cluster

from tests.serving.conftest import CONFIG_KWARGS, make_session_stream


@pytest.fixture
def live_gateway(checkpoint):
    """(client, manager) against a gateway on an ephemeral port."""
    manager = SessionManager(max_batch=4, max_latency_s=0.01, workers=2)
    server = serve(manager, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = HTTPServingClient(f"http://127.0.0.1:{server.port}")
    try:
        yield client, manager
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        manager.close()


@pytest.fixture(params=["direct", "router"])
def hop_client(request):
    """An HTTP client at one gateway, or through a 2-shard router."""
    if request.param == "direct":
        yield request.getfixturevalue("live_gateway")[0]
        return
    with start_local_cluster(2, max_batch=1, max_latency_s=10.0) as fleet:
        yield HTTPServingClient(fleet.url)


class TestRoutes:
    def test_healthz_and_metrics(self, live_gateway):
        client, _ = live_gateway
        assert client.healthz()["status"] == "ok"
        metrics = client.metrics()
        assert metrics["sessions_created"] == 0

    def test_full_session_lifecycle_over_http(self, live_gateway, tmp_path):
        client, manager = live_gateway
        slices, masks = make_session_stream(seed=21, n_steps=16)

        info = client.create_session("taxi", dict(CONFIG_KWARGS))
        assert info["status"] == "warming"
        assert client.list_sessions() == ["taxi"]

        for t in range(16):
            ack = client.ingest("taxi", slices[t], masks[t])
            assert ack.session_id == "taxi"
            assert ack.seq == t
        manager.drain("taxi")

        info = client.session_info("taxi")
        assert info["status"] == "ready"
        assert info["consumed"] == 16

        results = client.results("taxi", since=12)
        assert [r.seq for r in results] == [12, 13, 14, 15]
        assert results[0].completed.shape == tuple(
            info["subtensor_shape"]
        )

        imputed = client.impute("taxi", slices[0], masks[0])
        np.testing.assert_allclose(
            imputed.completed[masks[0]], slices[0][masks[0]]
        )

        forecast = client.forecast("taxi", 3)
        assert forecast.horizon == 3
        assert forecast.forecast.shape == (
            3,
            *info["subtensor_shape"],
        )

        saved = client.close_session(
            "taxi", checkpoint_path=str(tmp_path / "taxi.npz")
        )
        assert saved is not None
        assert client.list_sessions() == []

    def test_checkpoint_session_over_http(self, live_gateway, checkpoint):
        client, manager = live_gateway
        info = client.create_session("warm", checkpoint=str(checkpoint))
        assert info["status"] == "ready"
        slices, masks = make_session_stream(seed=22, n_steps=4)
        for t in range(4):
            client.ingest("warm", slices[t], masks[t])
        manager.drain("warm")
        assert len(client.results("warm")) == 4


class TestVersioning:
    def _raw(self, client, path):
        """(status, body) of a raw GET."""
        url = client._base.removesuffix("/v1") + path
        try:
            with urllib.request.urlopen(url, timeout=10) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()

    @pytest.mark.parametrize(
        "path", ["/healthz", "/sessions/x/forecast?horizon=3", "/v1x"]
    )
    def test_unversioned_path_is_404_envelope(self, live_gateway, path):
        client, _ = live_gateway
        status, body = self._raw(client, path)
        assert status == 404
        error = json.loads(body)["error"]
        assert error["type"] == "SessionNotFoundError"
        assert f"no route GET {path.partition('?')[0]}" in error["message"]
        assert error["session"] is None

    def test_v1_path_serves_directly(self, live_gateway):
        client, _ = live_gateway
        status, body = self._raw(client, "/v1/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"


class TestHTTPErrors:
    def test_unknown_session_is_404(self, live_gateway):
        client, _ = live_gateway
        with pytest.raises(SessionNotFoundError):
            client.session_info("ghost")

    def test_duplicate_session_is_409(self, live_gateway):
        client, _ = live_gateway
        client.create_session("dup", dict(CONFIG_KWARGS))
        with pytest.raises(SessionExistsError):
            client.create_session("dup", dict(CONFIG_KWARGS))

    def test_bad_config_is_400(self, live_gateway):
        client, _ = live_gateway
        with pytest.raises(ConfigError, match="rank"):
            client.create_session("bad", {"rank": 0, "period": 4})

    def test_sync_op_on_warming_session_is_409(self, live_gateway):
        client, _ = live_gateway
        client.create_session("cold", dict(CONFIG_KWARGS))
        with pytest.raises(SessionError, match="warming"):
            client.forecast("cold", 2)

    def test_unknown_route_is_404(self, live_gateway):
        client, _ = live_gateway
        with pytest.raises(SessionNotFoundError, match="no route"):
            client._request("GET", "/definitely/not/a/route")

    def test_error_envelope_shape(self, live_gateway):
        client, _ = live_gateway
        url = f"{client._base}/sessions/ghost"
        try:
            urllib.request.urlopen(url, timeout=10)
            raise AssertionError("expected a 404")
        except urllib.error.HTTPError as exc:
            envelope = json.loads(exc.read())["error"]
        assert envelope["type"] == "SessionNotFoundError"
        assert "ghost" in envelope["message"]
        assert envelope["session"] == "ghost"

    def test_error_envelope_session_null_when_unnamed(self, live_gateway):
        client, _ = live_gateway
        url = f"{client._base}/sessions"
        request = urllib.request.Request(
            url,
            data=b'{"config": {}}',
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            urllib.request.urlopen(request, timeout=10)
            raise AssertionError("expected a 400")
        except urllib.error.HTTPError as exc:
            envelope = json.loads(exc.read())["error"]
        assert envelope["session"] is None

    def test_unsupported_method_is_a_counted_envelope(self, live_gateway):
        client, manager = live_gateway
        before = manager.metrics.snapshot()["http_errors_5xx"]
        request = urllib.request.Request(
            f"{client._base}/healthz", data=b"{}", method="PUT"
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=10)
        assert caught.value.code == 501
        assert caught.value.headers["Content-Type"] == "application/json"
        assert caught.value.headers["Connection"] == "close"
        assert json.loads(caught.value.read()) == {
            "error": {
                "type": "HTTPError",
                "message": "Unsupported method ('PUT')",
                "session": None,
            }
        }
        assert manager.metrics.snapshot()["http_errors_5xx"] == before + 1


def _post_raw(
    url: str, body: bytes, content_type: str = "application/json"
) -> tuple[int, dict]:
    """POST a raw body; returns (status, decoded JSON reply)."""
    request = urllib.request.Request(
        url,
        data=body,
        headers={"Content-Type": content_type},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _npy(*arrays, allow_pickle=False) -> bytes:
    """NPY records back to back, written without the wire's casts."""
    out = io.BytesIO()
    for array in arrays:
        np.save(out, array, allow_pickle=allow_pickle)
    return out.getvalue()


def _session_state(client, sid):
    """Everything a rejected request must leave untouched."""
    results = client.results(sid)
    return (
        client.session_stats(sid)["next_seq"],
        [(r.seq, r.completed.tobytes()) for r in results],
    )


def _assert_rejected(client, url, body, content_type, error, fragment):
    """POST ``body``: a 400 ``error`` envelope, the session unchanged."""
    sid = "finite"
    slices, masks = make_session_stream(seed=23, n_steps=3)
    for t in range(3):
        client.ingest(sid, slices[t], masks[t])
    client.forecast(sid, 1)  # synchronous: drains the session
    before = _session_state(client, sid)
    assert [seq for seq, _ in before[1]] == [0, 1, 2]
    status, reply = _post_raw(url, body, content_type)
    assert status == 400
    assert reply["error"]["type"] == error
    assert fragment in reply["error"]["message"]
    assert reply["error"]["session"] == sid
    assert _session_state(client, sid) == before
    assert np.isfinite(client.forecast(sid, 2).forecast).all()


def _slice_body(encoding: str, bad) -> bytes:
    """An ingest/impute body whose first value is ``bad``."""
    slices, _ = make_session_stream(seed=24, n_steps=1)
    values = slices[0].copy()
    if encoding == "binary":
        values[0, 0] = bad
        return wire.encode(wire.SLICE, values)
    text = json.dumps({"values": values.tolist()})
    first = repr(float(values[0, 0]))
    assert first in text
    return text.replace(first, bad, 1).encode("utf-8")


#: Values that must not reach a model: (case, encoding, bad value,
#: the fragment the 400 names). JSON's NaN/Infinity literals are refused by
#: the parser and named; an overflowing number, an integer beyond
#: float64 and NaN bits fail the finite check.
NON_FINITE = [
    ("json-NaN", "json", "NaN", "NaN"),
    ("json-Infinity", "json", "Infinity", "Infinity"),
    ("json-neg-Infinity", "json", "-Infinity", "-Infinity"),
    ("json-1e999", "json", "1e999", "finite"),
    ("json-neg-1e999", "json", "-1e999", "finite"),
    ("json-huge-int", "json", "1" + "0" * 400, "finite"),
    ("binary-NaN", "binary", np.nan, "finite"),
]


class TestNonFiniteLiterals:
    """Non-finite values are a 400, not a poisoned model."""

    @pytest.mark.parametrize("route", ["slices", "impute"])
    @pytest.mark.parametrize(
        "encoding, bad, fragment",
        [case[1:] for case in NON_FINITE],
        ids=[case[0] for case in NON_FINITE],
    )
    def test_values_must_be_finite(
        self, hop_client, checkpoint, encoding, bad, fragment, route
    ):
        client = hop_client
        client.create_session("finite", checkpoint=str(checkpoint))
        _assert_rejected(
            client,
            f"{client._base}/sessions/finite/{route}",
            _slice_body(encoding, bad),
            "application/json" if encoding == "json" else wire.MEDIA_TYPE,
            "ValueError",
            fragment,
        )


@pytest.fixture(scope="module")
def float32_checkpoint(tmp_path_factory):
    """A fitted float32 model checkpoint."""
    from repro.core import Sofia
    from repro.core.serialization import save_sofia

    from tests.serving.conftest import make_config

    config = make_config(dtype="float32")
    slices, masks = make_session_stream(seed=78, n_steps=config.init_steps)
    sofia = Sofia(config)
    sofia.initialize(slices, masks)
    path = tmp_path_factory.mktemp("ckpt32") / "fitted32.npz"
    save_sofia(sofia, path)
    return path


class TestFloat32Overflow:
    """A finite float64 beyond float32's range is an infinity after the
    cast to a float32 session's dtype: a 400, not a poisoned model."""

    @pytest.mark.parametrize("route", ["slices", "impute"])
    @pytest.mark.parametrize("encoding", ["json", "binary"])
    def test_1e300_into_float32_session(
        self, hop_client, float32_checkpoint, encoding, route
    ):
        client = hop_client
        client.create_session("finite", checkpoint=str(float32_checkpoint))
        assert client.session_info("finite")["config"]["dtype"] == "float32"
        _assert_rejected(
            client,
            f"{client._base}/sessions/finite/{route}",
            _slice_body(encoding, "1e300" if encoding == "json" else 1e300),
            "application/json" if encoding == "json" else wire.MEDIA_TYPE,
            "ValueError",
            "finite in float32",
        )


def _binary_slice():
    slices, masks = make_session_stream(seed=25, n_steps=1)
    return slices[0], masks[0]


#: Malformed binary slice bodies: (case, body, error type, fragment).
MALFORMED = [
    (
        "truncated",
        _npy(*_binary_slice())[:-7],
        "ValueError",
        "truncated",
    ),
    (
        "trailing_bytes",
        _npy(*_binary_slice()) + b"\x00",
        "ValueError",
        "trailing bytes",
    ),
    (
        "object_dtype",
        _npy(_binary_slice()[0].astype(object), allow_pickle=True),
        "ValueError",
        "'|O'",
    ),
    (
        "float32_dtype",
        _npy(_binary_slice()[0].astype(np.float32)),
        "ValueError",
        "'<f4'",
    ),
    (
        "mask_shape",
        _npy(_binary_slice()[0], _binary_slice()[1][:-1]),
        "ShapeError",
        "mask shape",
    ),
    ("missing_values", b"", "ValueError", "no 'values' record"),
    ("not_npy", b"[[1.0, 2.0]]", "ValueError", "'values' record"),
]


class TestMalformedBodies:
    """A bad slice body is a 400 envelope, never a 500."""

    @pytest.mark.parametrize("route", ["slices", "impute"])
    @pytest.mark.parametrize(
        "body, error, fragment",
        [case[1:] for case in MALFORMED],
        ids=[case[0] for case in MALFORMED],
    )
    def test_slice_routes(
        self, live_gateway, checkpoint, route, body, error, fragment
    ):
        client, _ = live_gateway
        client.create_session("finite", checkpoint=str(checkpoint))
        _assert_rejected(
            client,
            f"{client._base}/sessions/finite/{route}",
            body,
            wire.MEDIA_TYPE,
            error,
            fragment,
        )

    @pytest.mark.parametrize(
        "entry, fragment",
        # numpy reads null as NaN.
        [(b"null", "finite"), (b"{}", "finite numbers")],
    )
    def test_non_numeric_json_values(
        self, live_gateway, checkpoint, entry, fragment
    ):
        client, _ = live_gateway
        client.create_session("finite", checkpoint=str(checkpoint))
        _assert_rejected(
            client,
            f"{client._base}/sessions/finite/slices",
            b'{"values": [[' + entry + b", 1.0]]}",
            "application/json",
            "ValueError",
            fragment,
        )

    def test_json_only_endpoint(self, live_gateway):
        client, _ = live_gateway
        body = wire.encode(wire.SLICE, np.zeros((2, 2)))
        status, reply = _post_raw(
            f"{client._base}/sessions", body, wire.MEDIA_TYPE
        )
        assert status == 400
        assert reply["error"]["type"] == "ValueError"
        assert "JSON body" in reply["error"]["message"]
        assert reply["error"]["session"] is None
        assert client.list_sessions() == []

    def test_refused_body_is_drained_on_a_kept_alive_connection(
        self, live_gateway
    ):
        client, _ = live_gateway
        url = urllib.parse.urlsplit(client._base)
        body = wire.encode(wire.SLICE, np.zeros((2, 2)))
        connection = http.client.HTTPConnection(url.netloc, timeout=10)
        try:
            connection.request(
                "POST",
                url.path + "/sessions",
                body,
                {"Content-Type": wire.MEDIA_TYPE},
            )
            refused = connection.getresponse()
            refused.read()
            assert refused.status == 400
            # The same connection serves the next request (http.client
            # would silently reconnect, so the socket must be the same).
            sock = connection.sock
            connection.request("GET", url.path + "/healthz")
            health = connection.getresponse()
            assert health.status == 200
            assert json.loads(health.read())["status"] == "ok"
            assert connection.sock is sock
        finally:
            connection.close()

    def test_unrouted_body_is_drained_on_a_kept_alive_connection(
        self, live_gateway
    ):
        client, _ = live_gateway
        url = urllib.parse.urlsplit(client._base)
        connection = http.client.HTTPConnection(url.netloc, timeout=10)
        try:
            connection.request(
                "POST",
                url.path + "/bogus",
                json.dumps({"values": [[1.0, 2.0]]}),
                {"Content-Type": "application/json"},
            )
            unrouted = connection.getresponse()
            envelope = json.loads(unrouted.read())["error"]
            assert unrouted.status == 404
            assert envelope == {
                "type": "SessionNotFoundError",
                "message": "no route POST /v1/bogus",
                "session": None,
            }
            # The same connection serves the next request.
            sock = connection.sock
            connection.request("GET", url.path + "/healthz")
            health = connection.getresponse()
            assert health.status == 200
            assert json.loads(health.read())["status"] == "ok"
            assert connection.sock is sock
        finally:
            connection.close()


class TestCLI:
    def test_main_help_mentions_knobs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            serve_main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for flag in (
            "--max-resident",
            "--max-batch",
            "--max-latency-ms",
            "--workers",
            "--checkpoint-dir",
        ):
            assert flag in out
