"""Flush execution, failure isolation, and the scheduler's clock.

Pins the contracts of the single executor path:

* every flush is one session's batch, executed in-process on a
  dispatch thread; one session's failing flush never poisons a peer
  flushing concurrently;
* all scheduler timing runs on an injectable monotonic clock, pinned
  by a frozen-clock latency test (no wall clocks, no real sleeps).

Served-vs-offline ``step_batch`` identity lives in ``test_manager.py``.
"""

import copy
import threading
import time

import numpy as np
import pytest

from repro.core import Sofia
from repro.core.serialization import load_sofia
from repro.exceptions import SessionError
from repro.serving import SessionManager, pool
from repro.tensor import kernels
from repro.serving.pool import FlushRequest, FlushResult, execute_requests
from repro.serving.scheduler import MicroBatchScheduler, PendingSlice

from tests.serving.conftest import make_config, make_session_stream

#: Latency trigger disabled: flushes happen on full batches and drains
#: only, so batch boundaries (and with them trajectories) are a pure
#: function of the submission sequence.
DETERMINISTIC = dict(max_batch=4, max_latency_s=60.0)


class TestFlushFailureIsolation:
    def test_failing_session_leaves_concurrent_peer_unpoisoned(
        self, monkeypatch
    ):
        sids = ("bad", "ok")
        with SessionManager(**DETERMINISTIC, workers=2) as manager:
            streams = {
                sid: make_session_stream(seed=60 + i, n_steps=14)
                for i, sid in enumerate(sids)
            }
            for sid in sids:
                manager.create_session(sid, make_config())
            # Warm both sessions up cleanly (12 slices: warmup + 4).
            for t in range(12):
                for sid, (slices, masks) in streams.items():
                    manager.ingest(sid, slices[t], masks[t])
            manager.drain()

            # Now poison "bad" and buffer 2 slices per session — under
            # max_batch, so nothing is due until the drain makes both
            # due at once.  The barrier holds each flush until the
            # other one is in flight too: the two dispatch threads run
            # the sessions concurrently, one flush per session.
            real = pool.execute_requests
            both_in_flight = threading.Barrier(2, timeout=10.0)
            flushed: list[list[str]] = []

            def poisoning(requests):
                flushed.append([r.session_id for r in requests])
                both_in_flight.wait()
                results = real(requests)
                return [
                    FlushResult(session_id=r.session_id, error="injected crash")
                    if r.session_id == "bad"
                    else r
                    for r in results
                ]

            monkeypatch.setattr(pool, "execute_requests", poisoning)
            for t in range(12, 14):
                for sid, (slices, masks) in streams.items():
                    manager.ingest(sid, slices[t], masks[t])
            manager.drain()
            monkeypatch.undo()

            assert sorted(flushed) == [["bad"], ["ok"]]
            assert not both_in_flight.broken
            with pytest.raises(SessionError, match="injected crash"):
                manager.results("bad")
            results = manager.results("ok")
            assert [s for s, _ in results][-1] == 13
            assert np.isfinite(manager.forecast("ok", 2)).all()
            assert manager.metrics.snapshot()["flush_failures"] == 1


class FrozenClock:
    """A manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.t = 0.0

    def advance(self, seconds: float) -> None:
        self.t += seconds

    def __call__(self) -> float:
        return self.t


class TestMonotonicClock:
    def test_no_wall_clock_in_serving_sources(self):
        """Deadlines must survive NTP steps: time.time is banned."""
        import repro.serving
        from pathlib import Path

        serving_dir = Path(repro.serving.__file__).parent
        offenders = [
            path.name
            for path in serving_dir.glob("*.py")
            if "time.time(" in path.read_text()
        ]
        assert offenders == []

    def test_trickling_session_flushes_within_deadline(self):
        """One slice, frozen clock: due exactly at max_latency_s."""
        clock = FrozenClock()
        flushed = threading.Event()
        jobs: list = []

        def flush(session_id, items):
            jobs.append((session_id, [item.seq for item in items]))
            flushed.set()

        scheduler = MicroBatchScheduler(
            flush,
            max_batch=64,
            max_latency_s=0.5,
            workers=1,
            clock=clock,
        )
        try:
            scheduler.submit(
                "trickle",
                PendingSlice(
                    seq=0,
                    subtensor=np.zeros(1),
                    mask=np.ones(1, dtype=bool),
                    arrived_at=scheduler.now(),
                ),
            )
            # Under deadline: the worker must not flush, no matter how
            # much real time passes.
            clock.advance(0.49)
            scheduler.kick()
            assert not flushed.wait(0.2)
            # At the deadline: flushes promptly.
            clock.advance(0.01)
            scheduler.kick()
            assert flushed.wait(5.0)
            assert jobs == [("trickle", [0])]
        finally:
            scheduler.close()

    def test_arrival_stamps_use_scheduler_clock(self):
        """now() reads the injected clock, not the real one."""
        clock = FrozenClock()
        clock.t = 123.0
        scheduler = MicroBatchScheduler(
            lambda sid, items: None,
            max_batch=4,
            max_latency_s=60.0,
            workers=1,
            clock=clock,
        )
        try:
            assert scheduler.now() == 123.0
            before = time.monotonic()
            assert abs(scheduler.now() - before) > 1.0
        finally:
            scheduler.close()


class TestWorkerExecution:
    def test_execute_requests_isolates_failures(self):
        good = FlushRequest(
            session_id="ok",
            config=make_config(),
            model=None,
        )
        results = execute_requests([good])
        assert results[0].session_id == "ok"
        # No model, no warmup: stepping is impossible and
        # must come back as an error result, never a raise.
        bad = FlushRequest(
            session_id="broken",
            config=make_config(),
            step_seqs=[0],
            step_ys=np.zeros((1, 5, 4)),
            step_masks=np.ones((1, 5, 4), dtype=bool),
        )
        ok, err = execute_requests([good, bad])
        assert ok.error is None
        assert err.error is not None
        assert err.session_id == "broken"


def _step_request(model, slices, masks, seqs, **kwargs) -> FlushRequest:
    return FlushRequest(
        session_id="s",
        config=model.config,
        model=model,
        step_seqs=list(seqs),
        step_ys=np.stack(slices),
        step_masks=np.stack(masks),
        **kwargs,
    )


class TestExecuteRequest:
    def test_step_request_matches_offline_step_batch(self, checkpoint):
        slices, masks = make_session_stream(seed=31, n_steps=4)
        offline = load_sofia(checkpoint)
        want = offline.step_batch(np.stack(slices), np.stack(masks))

        model = load_sofia(checkpoint)
        (result,) = execute_requests(
            [_step_request(model, slices, masks, range(20, 24))]
        )
        assert result.error is None
        assert result.model is model
        assert result.consumed == 4
        assert [seq for seq, _ in result.results] == [20, 21, 22, 23]
        for (_, got), step in zip(result.results, want):
            np.testing.assert_array_equal(got, step.completed)
        np.testing.assert_array_equal(
            result.model.forecast(3), offline.forecast(3)
        )

    def test_warmup_request_initializes_then_steps(self):
        config = make_config()
        n_init = config.init_steps
        slices, masks = make_session_stream(seed=32, n_steps=n_init + 2)
        offline = Sofia(config)
        want = list(offline.initialize(slices[:n_init], masks[:n_init]))
        want += [
            step.completed
            for step in offline.step_batch(
                np.stack(slices[n_init:]), np.stack(masks[n_init:])
            )
        ]

        request = FlushRequest(
            session_id="s",
            config=config,
            warmup_seqs=list(range(n_init)),
            warmup_ys=np.stack(slices[:n_init]),
            warmup_masks=np.stack(masks[:n_init]),
            step_seqs=[n_init, n_init + 1],
            step_ys=np.stack(slices[n_init:]),
            step_masks=np.stack(masks[n_init:]),
        )
        (result,) = execute_requests([request])
        assert result.error is None
        assert result.consumed == n_init + 2
        assert [seq for seq, _ in result.results] == list(range(n_init + 2))
        for (_, got), expected in zip(result.results, want):
            np.testing.assert_array_equal(got, expected)
        # Only dynamic-phase slices carry quality aggregates.
        assert [q[0] for q in result.quality] == [n_init, n_init + 1]

    def test_quality_aggregates_one_tuple_per_step(self, checkpoint):
        slices, masks = make_session_stream(seed=33, n_steps=3)
        model = load_sofia(checkpoint)
        (result,) = execute_requests(
            [_step_request(model, slices, masks, (5, 6, 7))]
        )
        assert [q[0] for q in result.quality] == [5, 6, 7]
        for (_, observed, residual_ss, signal_ss, outliers), mask in zip(
            result.quality, masks
        ):
            assert observed == int(mask.sum())
            assert residual_ss >= 0.0
            assert signal_ss > 0.0
            assert 0 <= outliers <= mask.size
        assert np.isfinite(result.error_scale)
        assert result.error_scale > 0.0

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_quality_aggregates_match_per_slice_loop(self, dtype):
        # The per-slice reference loop the batch-wide reductions
        # replaced: counts must match exactly, sums to 1e-12 relative.
        config = make_config(dtype=dtype)
        n_init = config.init_steps
        slices, masks = make_session_stream(seed=34, n_steps=n_init + 6)
        model = Sofia(config)
        model.initialize(slices[:n_init], masks[:n_init])
        steps_y = np.stack(slices[n_init:])
        steps_m = np.stack(masks[n_init:])
        steps_y[:, 0, 0] += 40.0  # outliers to count
        steps_y[~steps_m] = np.nan  # missing cells may hold NaN
        offline = copy.deepcopy(model)
        steps = offline.step_batch(steps_y, steps_m)
        (result,) = execute_requests(
            [_step_request(model, list(steps_y), list(steps_m), range(6))]
        )
        assert result.error is None
        want = []
        for seq, step, y, m in zip(range(6), steps, steps_y, steps_m):
            mask = np.asarray(m, dtype=bool)
            y_arr = np.asarray(y, dtype=float)
            forecast = np.asarray(step.prediction, dtype=float)
            residual = np.where(mask, y_arr - forecast, 0.0)
            signal = np.where(mask, y_arr, 0.0)
            want.append(
                (
                    seq,
                    int(mask.sum()),
                    float(np.sum(residual * residual)),
                    float(np.sum(signal * signal)),
                    int(np.count_nonzero(np.asarray(step.outliers))),
                )
            )
        assert len(result.quality) == len(want)
        assert any(q[4] > 0 for q in want)
        for got, expected in zip(result.quality, want):
            assert got[0] == expected[0]
            assert got[1] == expected[1]
            assert got[4] == expected[4]
            assert got[2] == pytest.approx(expected[2], rel=1e-12)
            assert got[3] == pytest.approx(expected[3], rel=1e-12)

    @pytest.mark.parametrize(
        "poison",
        ["factor", "temporal_buffer", "sigma", "level", "seasonal"],
    )
    def test_non_finite_state_becomes_error_result(self, checkpoint, poison):
        slices, masks = make_session_stream(seed=35, n_steps=2)
        model = load_sofia(checkpoint)
        state = model.state
        target = {
            "factor": state.non_temporal[0],
            "temporal_buffer": state.temporal_buffer,
            "sigma": state.sigma,
            "level": state.hw.level,
            "seasonal": state.hw.seasonal,
        }[poison]
        target.flat[0] = np.nan
        (result,) = execute_requests(
            [_step_request(model, slices, masks, (0, 1))]
        )
        assert result.error is not None
        assert result.error.startswith("FloatingPointError: ")
        assert "non-finite" in result.error
        assert result.model is None
        assert result.results == []

    def test_failed_request_echoes_trace_ids_and_drops_state(self):
        request = FlushRequest(
            session_id="broken",
            config=make_config(),
            step_seqs=[3],
            step_ys=np.zeros((1, 5, 4)),
            step_masks=np.ones((1, 5, 4), dtype=bool),
            trace_ids={3: "trace-3"},
        )
        (result,) = execute_requests([request])
        assert result.error is not None
        assert result.model is None
        assert result.results == []
        assert result.consumed == 0
        assert result.quality == []
        assert result.trace_ids == {3: "trace-3"}
        assert result.trace_ids is not request.trace_ids
        assert result.seconds >= 0.0

    def test_kernel_backend_is_scoped_to_the_request(self, checkpoint):
        slices, masks = make_session_stream(seed=34, n_steps=2)
        model = load_sofia(checkpoint)
        before = kernels.active_backend().name
        pinned = next(
            name for name in kernels.available_backends() if name != before
        )
        seen: list[str] = []
        real_step_batch = model.step_batch

        def recording(*args, **kwargs):
            seen.append(kernels.active_backend().name)
            return real_step_batch(*args, **kwargs)

        model.step_batch = recording
        (result,) = execute_requests(
            [
                _step_request(
                    model, slices, masks, (0, 1), kernel_backend=pinned
                )
            ]
        )
        assert result.error is None
        assert seen == [pinned]
        assert kernels.active_backend().name == before

    def test_unknown_kernel_backend_becomes_error_result(self, checkpoint):
        slices, masks = make_session_stream(seed=35, n_steps=2)
        before = kernels.active_backend().name
        (result,) = execute_requests(
            [
                _step_request(
                    load_sofia(checkpoint),
                    slices,
                    masks,
                    (0, 1),
                    kernel_backend="no-such-backend",
                )
            ]
        )
        assert "no-such-backend" in result.error
        assert result.model is None
        assert kernels.active_backend().name == before


def _record_flushes(monkeypatch) -> list[tuple[str, list[str]]]:
    """Wrap ``pool.execute_requests``; log (thread name, session ids)."""
    real = pool.execute_requests
    lock = threading.Lock()
    calls: list[tuple[str, list[str]]] = []

    def recording(requests):
        with lock:
            calls.append(
                (
                    threading.current_thread().name,
                    [r.session_id for r in requests],
                )
            )
        return real(requests)

    monkeypatch.setattr(pool, "execute_requests", recording)
    return calls


def _ingest_fleet(manager, sids, n_steps, seed):
    streams = {
        sid: make_session_stream(seed=seed + i, n_steps=n_steps)
        for i, sid in enumerate(sids)
    }
    for sid in sids:
        manager.create_session(sid, make_config())
    for t in range(n_steps):
        for sid, (slices, masks) in streams.items():
            manager.ingest(sid, slices[t], masks[t])
    manager.drain()


class TestSingleSessionDispatch:
    def test_every_flush_carries_exactly_one_session(self, monkeypatch):
        sids = [f"s{i}" for i in range(4)]
        with SessionManager(**DETERMINISTIC, workers=3) as manager:
            calls = _record_flushes(monkeypatch)
            _ingest_fleet(manager, sids, n_steps=16, seed=40)
            snapshot = manager.metrics.snapshot()
        assert calls
        assert all(len(session_ids) == 1 for _, session_ids in calls)
        assert {sid for _, (sid,) in calls} == set(sids)
        # One dispatch per executed request, each a single session.
        assert snapshot["dispatches"] == len(calls)

    def test_flushes_run_on_named_dispatch_threads(self, monkeypatch):
        with SessionManager(**DETERMINISTIC, workers=2) as manager:
            calls = _record_flushes(monkeypatch)
            _ingest_fleet(manager, ["a", "b"], n_steps=12, seed=50)
        assert calls
        caller = threading.current_thread().name
        for thread_name, _ in calls:
            assert thread_name.startswith("repro-serve-flush-")
            assert thread_name != caller

    def test_durable_persist_runs_under_the_session_lock(self):
        with SessionManager(
            **DETERMINISTIC, workers=2, durable=True
        ) as manager:
            held: list[bool] = []
            real_persist = manager._persist_session_locked

            def checking(session):
                # RLock.acquire(blocking=False) from another thread
                # fails while the persisting thread holds the lock.
                probe: list[bool] = []
                thread = threading.Thread(
                    target=lambda: probe.append(
                        session.lock.acquire(blocking=False)
                    )
                )
                thread.start()
                thread.join()
                if probe[0]:
                    session.lock.release()
                held.append(not probe[0])
                real_persist(session)

            manager._persist_session_locked = checking
            _ingest_fleet(manager, ["d"], n_steps=12, seed=60)
        assert held
        assert all(held)
