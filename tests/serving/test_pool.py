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
from repro.exceptions import ConfigError, SessionError, ShapeError
from repro.serving import SessionManager, pool
from repro.tensor import kernels
from repro.serving.pool import execute_requests
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
            configs = {sid: make_config() for sid in sids}
            for sid in sids:
                manager.create_session(sid, configs[sid])
            # A flush names its session by the config object it holds.
            owner = {id(config): sid for sid, config in configs.items()}
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
            flushed: list[str] = []

            def poisoning(config, *args):
                sid = owner[id(config)]
                flushed.append(sid)
                both_in_flight.wait()
                outputs = real(config, *args)
                if sid == "bad":
                    raise RuntimeError("injected crash")
                return outputs

            monkeypatch.setattr(pool, "execute_requests", poisoning)
            for t in range(12, 14):
                for sid, (slices, masks) in streams.items():
                    manager.ingest(sid, slices[t], masks[t])
            manager.drain()
            monkeypatch.undo()

            assert sorted(flushed) == ["bad", "ok"]
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
    def test_execute_requests_raises_on_failure(self, checkpoint):
        slices, masks = make_session_stream(seed=30, n_steps=1)
        model = load_sofia(checkpoint)
        got, results, _, _ = execute_requests(
            model.config, None, model, [0], np.stack(slices), np.stack(masks)
        )
        assert got is model
        assert len(results) == 1
        # No model and one slice: too short to initialize from, so the
        # flush raises for the manager to fail the session with.
        with pytest.raises(ShapeError, match="initialization needs"):
            execute_requests(
                make_config(),
                None,
                None,
                [0],
                np.zeros((1, 5, 4)),
                np.ones((1, 5, 4), dtype=bool),
            )


def _step(model, slices, masks, seqs, kernel_backend=None):
    """One step flush of ``model`` through ``execute_requests``."""
    return execute_requests(
        model.config,
        kernel_backend,
        model,
        list(seqs),
        np.stack(slices),
        np.stack(masks),
    )


class TestExecuteRequest:
    def test_step_request_matches_offline_step_batch(self, checkpoint):
        slices, masks = make_session_stream(seed=31, n_steps=4)
        offline = load_sofia(checkpoint)
        want = offline.step_batch(np.stack(slices), np.stack(masks))

        model = load_sofia(checkpoint)
        got, results, _, _ = _step(model, slices, masks, range(20, 24))
        assert got is model
        assert len(results) == 4
        assert [seq for seq, _ in results] == [20, 21, 22, 23]
        for (_, completed), step in zip(results, want):
            np.testing.assert_array_equal(completed, step.completed)
        np.testing.assert_array_equal(got.forecast(3), offline.forecast(3))

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

        model, results, quality, _ = execute_requests(
            config,
            None,
            None,
            list(range(n_init + 2)),
            np.stack(slices),
            np.stack(masks),
        )
        assert isinstance(model, Sofia)
        assert len(results) == n_init + 2
        assert [seq for seq, _ in results] == list(range(n_init + 2))
        for (_, got), expected in zip(results, want):
            np.testing.assert_array_equal(got, expected)
        # Only dynamic-phase slices carry quality aggregates.
        assert [q[0] for q in quality] == [n_init, n_init + 1]

    def test_quality_aggregates_one_tuple_per_step(self, checkpoint):
        slices, masks = make_session_stream(seed=33, n_steps=3)
        model = load_sofia(checkpoint)
        _, _, quality, error_scale = _step(model, slices, masks, (5, 6, 7))
        assert [q[0] for q in quality] == [5, 6, 7]
        for (_, observed, residual_ss, signal_ss, outliers), mask in zip(
            quality, masks
        ):
            assert observed == int(mask.sum())
            assert residual_ss >= 0.0
            assert signal_ss > 0.0
            assert 0 <= outliers <= mask.size
        assert np.isfinite(error_scale)
        assert error_scale > 0.0

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
        _, _, quality, _ = _step(
            model, list(steps_y), list(steps_m), range(6)
        )
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
        assert len(quality) == len(want)
        assert any(q[4] > 0 for q in want)
        for got, expected in zip(quality, want):
            assert got[0] == expected[0]
            assert got[1] == expected[1]
            assert got[4] == expected[4]
            assert got[2] == pytest.approx(expected[2], rel=1e-12)
            assert got[3] == pytest.approx(expected[3], rel=1e-12)

    @pytest.mark.parametrize(
        "poison",
        ["factor", "temporal_buffer", "sigma", "level", "seasonal"],
    )
    def test_non_finite_state_raises(self, checkpoint, poison):
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
        with pytest.raises(FloatingPointError, match="non-finite"):
            _step(model, slices, masks, (0, 1))

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
        _step(model, slices, masks, (0, 1), kernel_backend=pinned)
        assert seen == [pinned]
        assert kernels.active_backend().name == before

    def test_unknown_kernel_backend_raises(self, checkpoint):
        slices, masks = make_session_stream(seed=35, n_steps=2)
        before = kernels.active_backend().name
        with pytest.raises(ConfigError, match="no-such-backend"):
            _step(
                load_sofia(checkpoint),
                slices,
                masks,
                (0, 1),
                kernel_backend="no-such-backend",
            )
        assert kernels.active_backend().name == before


def _record_flushes(monkeypatch) -> list[tuple[str, int]]:
    """Wrap ``pool.execute_requests``; log (thread name, config id)."""
    real = pool.execute_requests
    lock = threading.Lock()
    calls: list[tuple[str, int]] = []

    def recording(config, *args):
        with lock:
            calls.append((threading.current_thread().name, id(config)))
        return real(config, *args)

    monkeypatch.setattr(pool, "execute_requests", recording)
    return calls


def _ingest_fleet(manager, sids, n_steps, seed) -> dict[int, str]:
    """Feed ``sids``; returns each session's config id -> session id."""
    streams = {
        sid: make_session_stream(seed=seed + i, n_steps=n_steps)
        for i, sid in enumerate(sids)
    }
    owner = {}
    for sid in sids:
        config = make_config()
        owner[id(config)] = sid
        manager.create_session(sid, config)
    for t in range(n_steps):
        for sid, (slices, masks) in streams.items():
            manager.ingest(sid, slices[t], masks[t])
    manager.drain()
    return owner


class TestSingleSessionDispatch:
    def test_every_flush_carries_exactly_one_session(self, monkeypatch):
        sids = [f"s{i}" for i in range(4)]
        with SessionManager(**DETERMINISTIC, workers=3) as manager:
            calls = _record_flushes(monkeypatch)
            owner = _ingest_fleet(manager, sids, n_steps=16, seed=40)
            snapshot = manager.metrics.snapshot()
        assert calls
        assert {owner[config] for _, config in calls} == set(sids)
        # One dispatch per flush call, each a single session.
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
