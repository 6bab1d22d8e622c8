"""One conformance suite, four transports.

Every test here runs against each of:

- :class:`InProcessServingClient` on a bare manager;
- :class:`HTTPServingClient` on a live gateway (binary data plane);
- the same gateway driven with plain JSON bodies and replies, as curl
  or an older client would (:class:`JSONWireClient`);
- :class:`HTTPServingClient` through a 2-shard router;

and asserts the same behaviour from the same
:class:`~repro.serving.api.ServingClient` surface: typed results,
identical field values, identical exception types.  This is the
contract that lets callers switch transports without changing code;
``TestDataPlaneBits`` pins that the arrays themselves are
bit-identical over every one.
"""

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.exceptions import (
    SessionError,
    SessionExistsError,
    SessionNotFoundError,
)
from repro.serving import (
    ForecastResult,
    HTTPServingClient,
    ImputeResult,
    IngestAck,
    InProcessServingClient,
    ServingClient,
    SessionManager,
    SliceResult,
)
from repro.serving.gateway import serve
from repro.serving.shard import start_local_cluster

from tests.serving.conftest import CONFIG_KWARGS, make_session_stream

TRANSPORTS = ("inprocess", "http", "json", "router")

MANAGER_KWARGS = dict(max_batch=4, max_latency_s=0.01, workers=2)


def _json_slice(values, mask) -> dict:
    payload = {"values": np.asarray(values).tolist()}
    if mask is not None:
        payload["mask"] = np.asarray(mask, dtype=bool).tolist()
    return payload


class JSONWireClient(HTTPServingClient):
    """The data plane as JSON lists both ways, with no binary Accept."""

    def ingest(self, session_id, values, mask=None, *, trace_id=None):
        reply = self._request(
            "POST",
            f"/sessions/{session_id}/slices",
            _json_slice(values, mask),
        )
        return IngestAck(
            session_id=session_id,
            seq=reply["seq"],
            trace_id=reply["trace_id"],
        )

    def results(self, session_id, since=0):
        reply = self._request(
            "GET", f"/sessions/{session_id}/results?since={since}"
        )
        return [
            SliceResult(
                session_id=session_id,
                seq=entry["seq"],
                completed=np.asarray(entry["completed"]),
            )
            for entry in reply["results"]
        ]

    def impute(self, session_id, values, mask=None):
        reply = self._request(
            "POST",
            f"/sessions/{session_id}/impute",
            _json_slice(values, mask),
        )
        return ImputeResult(
            session_id=session_id, completed=np.asarray(reply["completed"])
        )

    def forecast(self, session_id, horizon):
        reply = self._request(
            "GET", f"/sessions/{session_id}/forecast?horizon={horizon}"
        )
        return ForecastResult(
            session_id=session_id,
            horizon=reply["horizon"],
            forecast=np.asarray(reply["forecast"]),
        )


@pytest.fixture(params=TRANSPORTS)
def client(request):
    """A ServingClient over one transport, same manager settings."""
    if request.param == "router":
        with start_local_cluster(2, **MANAGER_KWARGS) as fleet:
            yield HTTPServingClient(fleet.url)
        return
    manager = SessionManager(**MANAGER_KWARGS)
    if request.param == "inprocess":
        try:
            yield InProcessServingClient(manager)
        finally:
            manager.close()
        return
    server = serve(manager, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    wire_client = (
        JSONWireClient if request.param == "json" else HTTPServingClient
    )
    try:
        yield wire_client(f"http://127.0.0.1:{server.port}")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        manager.close()


def _warm_session(client, session_id="s", n_steps=12, seed=31):
    """Create a session and feed it past warmup; wait until applied.

    Only the public client surface is used (no manager handle — the
    HTTP transport has none), so settling relies on the 10 ms latency
    deadline plus a status poll.
    """
    slices, masks = make_session_stream(seed=seed, n_steps=n_steps)
    client.create_session(session_id, dict(CONFIG_KWARGS))
    for t in range(n_steps):
        client.ingest(session_id, slices[t], masks[t])
    for _ in range(500):
        info = client.session_info(session_id)
        if info["pending"] == 0 and info["status"] != "warming":
            break
        time.sleep(0.01)
    else:
        raise AssertionError("session never settled after ingest")
    return slices, masks


class TestProtocol:
    def test_both_clients_implement_serving_client(self, client):
        assert isinstance(client, ServingClient)


class TestTypedSurface:
    def test_ingest_returns_ack(self, client):
        slices, masks = make_session_stream(seed=40, n_steps=1)
        client.create_session("s", dict(CONFIG_KWARGS))
        ack = client.ingest("s", slices[0], masks[0])
        assert isinstance(ack, IngestAck)
        assert ack == IngestAck(session_id="s", seq=0)

    def test_results_are_slice_results(self, client):
        _warm_session(client, n_steps=12)
        results = client.results("s")
        assert results, "warmed session should have flushed results"
        assert all(isinstance(r, SliceResult) for r in results)
        assert [r.seq for r in results] == sorted(
            r.seq for r in results
        )
        assert all(r.session_id == "s" for r in results)

    def test_impute_result_fields(self, client):
        slices, masks = _warm_session(client, n_steps=12)
        result = client.impute("s", slices[0], masks[0])
        assert isinstance(result, ImputeResult)
        assert result.session_id == "s"
        np.testing.assert_allclose(
            result.completed[masks[0]], slices[0][masks[0]]
        )

    def test_forecast_result_fields(self, client):
        slices, _ = _warm_session(client, n_steps=12)
        result = client.forecast("s", 4)
        assert isinstance(result, ForecastResult)
        assert result.session_id == "s"
        assert result.horizon == 4
        assert result.forecast.shape == (4, *slices[0].shape)

    def test_info_surfaces_are_dicts(self, client):
        client.create_session("s", dict(CONFIG_KWARGS))
        assert isinstance(client.session_info("s"), dict)
        assert isinstance(client.metrics(), dict)
        assert client.list_sessions() == ["s"]


class TestSharedErrors:
    def test_unknown_session(self, client):
        with pytest.raises(SessionNotFoundError):
            client.session_info("ghost")

    def test_duplicate_session(self, client):
        client.create_session("dup", dict(CONFIG_KWARGS))
        with pytest.raises(SessionExistsError):
            client.create_session("dup", dict(CONFIG_KWARGS))

    def test_warming_session_rejects_forecast(self, client):
        client.create_session("cold", dict(CONFIG_KWARGS))
        with pytest.raises(SessionError, match="warming"):
            client.forecast("cold", 2)


class TestResultsArePlainRecords:
    """Results are dataclasses and nothing else: no int, tuple or dict."""

    def test_acks_differing_only_in_trace_id_compare_equal(self, client):
        slices, masks = make_session_stream(seed=41, n_steps=1)
        client.create_session("s", dict(CONFIG_KWARGS))
        ack = client.ingest("s", slices[0], masks[0], trace_id="t-1")
        assert ack == IngestAck(session_id="s", seq=0)
        assert ack == dataclasses.replace(ack, trace_id="t-2")
        assert ack != dataclasses.replace(ack, seq=1)

    def test_ack_is_not_an_int(self, client):
        slices, masks = make_session_stream(seed=41, n_steps=1)
        client.create_session("s", dict(CONFIG_KWARGS))
        ack = client.ingest("s", slices[0], masks[0])
        assert ack.seq == 0
        with pytest.raises(TypeError):
            int(ack)
        assert (ack == 0) is False

    def test_slice_result_does_not_unpack(self, client):
        _warm_session(client, n_steps=12)
        result = client.results("s")[0]
        with pytest.raises(TypeError):
            seq, completed = result

    def test_results_have_no_item_access(self, client):
        slices, masks = _warm_session(client, n_steps=12)
        results = [
            client.results("s")[0],
            client.impute("s", slices[0], masks[0]),
            client.forecast("s", 2),
        ]
        for result in results:
            with pytest.raises(TypeError):
                result["seq"]


def _drive(client, dtype):
    """One deterministic stream; every array the data plane returns.

    Warm-up slices go through ``ingest``; after a draining
    ``forecast`` every step is a synchronous ``impute`` (one B=1 flush
    each), so the trajectory does not depend on flush timing.
    """
    config = dict(CONFIG_KWARGS, dtype=dtype)
    n_warm = config["period"] * config["init_seasons"]
    slices, masks = make_session_stream(seed=52, n_steps=n_warm + 4)
    client.create_session("bits", config)
    for t in range(n_warm):
        client.ingest("bits", slices[t], masks[t])
    arrays = {"warm_forecast": client.forecast("bits", 3).forecast}
    for t in range(n_warm, n_warm + 4):
        arrays[f"impute{t}"] = client.impute(
            "bits", slices[t], masks[t]
        ).completed
    arrays["forecast"] = client.forecast("bits", 5).forecast
    for result in client.results("bits"):
        arrays[f"result{result.seq}"] = result.completed
    return arrays


class TestDataPlaneBits:
    """Every transport returns the in-process arrays, bit for bit."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_bit_identical_to_in_process(self, client, dtype):
        served = _drive(client, dtype)
        manager = SessionManager(**MANAGER_KWARGS)
        try:
            reference = _drive(InProcessServingClient(manager), dtype)
        finally:
            manager.close()
        assert served.keys() == reference.keys()
        assert len(served) == 2 + 4 + 12
        for name, expected in reference.items():
            got = served[name]
            if not isinstance(client, InProcessServingClient):
                # A float32 session's arrays widen exactly to <f8.
                assert got.dtype == np.float64, name
            assert got.shape == expected.shape, name
            assert (
                got.astype(np.float64).tobytes()
                == expected.astype(np.float64).tobytes()
            ), name
