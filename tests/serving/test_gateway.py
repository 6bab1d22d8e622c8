"""HTTP tests: a live ThreadingHTTPServer driven by HTTPServingClient."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.exceptions import (
    ConfigError,
    SessionError,
    SessionExistsError,
    SessionNotFoundError,
)
from repro.serving import HTTPServingClient, SessionManager
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
        assert imputed.lower is None and imputed.upper is None

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
        """(status, headers, body) of an unredirected raw GET."""
        url = client._base.removesuffix("/v1") + path

        class NoRedirect(urllib.request.HTTPRedirectHandler):
            def redirect_request(self, *args, **kwargs):
                return None

        opener = urllib.request.build_opener(NoRedirect)
        try:
            with opener.open(url, timeout=10) as response:
                return response.status, response.headers, response.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.headers, exc.read()

    def test_unversioned_path_redirects_308(self, live_gateway):
        client, _ = live_gateway
        status, headers, _ = self._raw(client, "/healthz")
        assert status == 308
        assert headers["Location"] == "/v1/healthz"

    def test_redirect_preserves_query(self, live_gateway):
        client, _ = live_gateway
        status, headers, _ = self._raw(
            client, "/sessions/x/forecast?horizon=3"
        )
        assert status == 308
        assert headers["Location"] == "/v1/sessions/x/forecast?horizon=3"

    def test_v1_path_serves_directly(self, live_gateway):
        client, _ = live_gateway
        status, _, body = self._raw(client, "/v1/healthz")
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


def _post_raw(url: str, body: bytes) -> tuple[int, dict]:
    """POST a raw body; returns (status, decoded JSON reply)."""
    request = urllib.request.Request(
        url,
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestNonFiniteLiterals:
    """``NaN``/``Infinity`` in a body are a 400, not a poisoned model."""

    def _assert_rejected(self, client, base_url, literal):
        sid = "finite"
        slices, masks = make_session_stream(seed=23, n_steps=3)
        for t in range(3):
            client.ingest(sid, slices[t], masks[t])
        client.forecast(sid, 1)  # synchronous: drains the session
        before = client.results(sid)
        assert [r.seq for r in before] == [0, 1, 2]
        next_seq = client.session_stats(sid)["next_seq"]
        values = slices[0].tolist()
        body = json.dumps({"values": values}).replace(
            repr(values[0][0]), literal, 1
        )
        assert literal in body
        status, reply = _post_raw(
            f"{base_url}/sessions/{sid}/slices", body.encode("utf-8")
        )
        assert status == 400
        assert reply["error"]["type"] == "ValueError"
        assert literal in reply["error"]["message"]
        assert client.session_stats(sid)["next_seq"] == next_seq
        after = client.results(sid)
        assert [r.seq for r in after] == [r.seq for r in before]
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a.completed, b.completed)
        assert np.isfinite(client.forecast(sid, 2).forecast).all()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_direct(self, live_gateway, checkpoint, literal):
        client, _ = live_gateway
        client.create_session("finite", checkpoint=str(checkpoint))
        self._assert_rejected(client, client._base, literal)

    def test_through_router(self, checkpoint):
        with start_local_cluster(
            2, max_batch=1, max_latency_s=10.0
        ) as fleet:
            client = HTTPServingClient(fleet.url)
            client.create_session("finite", checkpoint=str(checkpoint))
            self._assert_rejected(client, client._base, "NaN")


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
