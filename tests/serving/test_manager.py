"""End-to-end tests for the session manager.

The headline test pins the acceptance criterion of the serving PR: an
eviction-capped run (resident limit far below the session count)
produces **bit-identical** trajectories to an uncapped run, because the
checkpoint spill/rehydrate round-trip is exact.
"""

import numpy as np
import pytest

from repro.core import Sofia
from repro.core.serialization import load_sofia
from repro.exceptions import (
    ConfigError,
    SessionError,
    SessionExistsError,
    SessionNotFoundError,
    ShapeError,
)
from repro.serving import SessionManager

from tests.serving.conftest import make_config, make_session_stream

#: Deterministic scheduler settings: with the latency deadline pushed
#: out, batch boundaries are a pure function of the submission order.
DETERMINISTIC = dict(max_batch=4, max_latency_s=60.0, workers=2)


def run_fleet(n_sessions: int, n_steps: int, **manager_kwargs):
    """Ingest round-robin over a fleet; returns per-session outputs."""
    config = make_config()
    streams = {
        f"s{i}": make_session_stream(seed=10 + i, n_steps=n_steps)
        for i in range(n_sessions)
    }
    outputs = {}
    with SessionManager(**manager_kwargs) as manager:
        for sid in streams:
            manager.create_session(sid, config)
        for t in range(n_steps):
            for sid, (slices, masks) in streams.items():
                manager.ingest(sid, slices[t], masks[t])
        manager.drain()
        for sid in streams:
            outputs[sid] = {
                "results": manager.results(sid),
                "forecast": manager.forecast(sid, 4),
                "info": manager.session_info(sid),
            }
        metrics = manager.metrics.snapshot()
    return outputs, metrics


class TestEvictionDeterminism:
    def test_capped_run_is_bit_identical_to_uncapped(self):
        # 6 sessions, at most 2 resident: two thirds of the fleet lives
        # on disk at any time, forcing many spill/rehydrate cycles.
        uncapped, _ = run_fleet(6, 20, **DETERMINISTIC)
        capped, metrics = run_fleet(
            6, 20, max_resident=2, **DETERMINISTIC
        )
        assert metrics["evictions"] > 0
        assert metrics["rehydrations"] > 0
        for sid in uncapped:
            a, b = uncapped[sid], capped[sid]
            assert [seq for seq, _ in a["results"]] == [
                seq for seq, _ in b["results"]
            ]
            for (_, completed_a), (_, completed_b) in zip(
                a["results"], b["results"]
            ):
                np.testing.assert_array_equal(completed_a, completed_b)
            np.testing.assert_array_equal(a["forecast"], b["forecast"])


class TestWarmupAndStreaming:
    def test_session_warms_up_then_streams(self):
        config = make_config()
        slices, masks = make_session_stream(seed=3, n_steps=20)
        with SessionManager(**DETERMINISTIC) as manager:
            manager.create_session("s", config)
            assert manager.session_info("s")["status"] == "warming"
            for t in range(20):
                seq = manager.ingest("s", slices[t], masks[t])
                assert seq == t
            manager.drain("s")
            info = manager.session_info("s")
            assert info["status"] in ("ready", "evicted")
            assert info["consumed"] == 20
            results = manager.results("s")
            # Every slice has a result: warmup 0..7, dynamic 8..19.
            assert [seq for seq, _ in results] == list(range(20))

    def test_trajectory_matches_plain_sofia(self):
        # The serving path (warmup buffering + micro-batch flushes)
        # must reproduce exactly what a hand-driven Sofia computes with
        # the same batch boundaries.
        config = make_config()
        slices, masks = make_session_stream(seed=4, n_steps=16)
        with SessionManager(**DETERMINISTIC) as manager:
            manager.create_session("s", config)
            for t in range(16):
                manager.ingest("s", slices[t], masks[t])
            manager.drain("s")
            served = manager.results("s")
            served_forecast = manager.forecast("s", 3)

        sofia = Sofia(config)
        init_steps = config.init_steps  # 8
        completed = sofia.initialize(
            slices[:init_steps], masks[:init_steps]
        )
        expected = list(completed)
        # Ingestion fed the scheduler 16 slices; after the 8-slice
        # warmup the dynamic slices flush in max_batch=4 chunks aligned
        # the same way: [8..11], [12..15].
        for start in (8, 12):
            steps = sofia.step_batch(
                np.stack(slices[start:start + 4]),
                np.stack(masks[start:start + 4]),
            )
            expected.extend(step.completed for step in steps)
        assert len(served) == 16
        for (seq, got), want in zip(served, expected):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(served_forecast, sofia.forecast(3))

    def test_results_window_is_bounded(self):
        config = make_config()
        slices, masks = make_session_stream(seed=5, n_steps=24)
        with SessionManager(
            keep_results=5, **DETERMINISTIC
        ) as manager:
            manager.create_session("s", config)
            for t in range(24):
                manager.ingest("s", slices[t], masks[t])
            manager.drain("s")
            results = manager.results("s")
            assert [seq for seq, _ in results] == list(range(19, 24))
            # since_seq filters within the window.
            assert [
                seq for seq, _ in manager.results("s", since_seq=22)
            ] == [22, 23]

    def test_impute_keeps_observed_entries(self, checkpoint):
        slices, masks = make_session_stream(seed=6, n_steps=2)
        with SessionManager(**DETERMINISTIC) as manager:
            manager.create_session("s", checkpoint=checkpoint)
            imputed = manager.impute("s", slices[0], masks[0])
            np.testing.assert_array_equal(
                imputed[masks[0]], slices[0][masks[0]]
            )
            # Missing entries are filled with something finite.
            assert np.isfinite(imputed).all()

    def test_warm_start_from_checkpoint_is_ready(self, checkpoint):
        with SessionManager(**DETERMINISTIC) as manager:
            info = manager.create_session("s", checkpoint=checkpoint)
            assert info["status"] == "ready"
            assert info["warmup_needed"] == 0

    def test_close_session_checkpoint_continues_identically(
        self, checkpoint, tmp_path
    ):
        slices, masks = make_session_stream(seed=7, n_steps=12)
        with SessionManager(**DETERMINISTIC) as manager:
            manager.create_session("s", checkpoint=checkpoint)
            for t in range(8):
                manager.ingest("s", slices[t], masks[t])
            saved = manager.close_session(
                "s", checkpoint_path=tmp_path / "final.npz"
            )
            assert saved is not None
            assert "s" not in manager.list_sessions()

        # A model restored from the final checkpoint continues exactly
        # like an unserved model fed the same slices.
        reference = load_sofia(checkpoint)
        for start in (0, 4):
            reference.step_batch(
                np.stack(slices[start:start + 4]),
                np.stack(masks[start:start + 4]),
            )
        restored = load_sofia(saved)
        a = reference.step(slices[8], masks[8])
        b = restored.step(slices[8], masks[8])
        np.testing.assert_array_equal(a.completed, b.completed)


class TestPerSessionBackends:
    def test_sessions_pinned_to_different_backends_agree(self, checkpoint):
        slices, masks = make_session_stream(seed=8, n_steps=8)
        with SessionManager(**DETERMINISTIC) as manager:
            manager.create_session(
                "fast", checkpoint=checkpoint, kernel_backend="batched"
            )
            manager.create_session(
                "slow", checkpoint=checkpoint, kernel_backend="reference"
            )
            for t in range(8):
                manager.ingest("fast", slices[t], masks[t])
                manager.ingest("slow", slices[t], masks[t])
            manager.drain()
            fast = manager.results("fast")
            slow = manager.results("slow")
        for (_, a), (_, b) in zip(fast, slow):
            np.testing.assert_allclose(a, b, atol=1e-8, rtol=1e-8)

    def test_unknown_backend_rejected_at_create(self, checkpoint):
        with SessionManager(**DETERMINISTIC) as manager:
            with pytest.raises(ConfigError, match="unknown kernel backend"):
                manager.create_session(
                    "s", checkpoint=checkpoint, kernel_backend="nope"
                )


class TestFiniteValueGuard:
    """A non-finite observed value never reaches a model, and a flush
    that leaves non-finite state fails its session."""

    @pytest.mark.parametrize("operation", ["ingest", "impute"])
    def test_nan_at_observed_cell_rejected(self, checkpoint, operation):
        slices, masks = make_session_stream(seed=12, n_steps=2)
        with SessionManager(**DETERMINISTIC) as manager:
            manager.create_session("s", checkpoint=checkpoint)
            manager.ingest("s", slices[0], masks[0])
            before = manager.session_stats("s")["next_seq"]
            bad = slices[1].copy()
            mask = np.ones(bad.shape, dtype=bool)
            bad[2, 1] = np.nan
            with pytest.raises(ValueError, match="finite"):
                getattr(manager, operation)("s", bad, mask)
            assert manager.session_stats("s")["next_seq"] == before
            assert manager.session_info("s")["status"] == "ready"

    def test_nan_at_missing_cell_accepted(self, checkpoint):
        slices, masks = make_session_stream(seed=13, n_steps=1)
        values = slices[0].copy()
        mask = masks[0].copy()
        mask[0, 0] = False
        values[0, 0] = np.nan
        with SessionManager(**DETERMINISTIC) as manager:
            manager.create_session("s", checkpoint=checkpoint)
            completed = manager.impute("s", values, mask)
            assert np.isfinite(completed[0, 0])
            assert np.isfinite(manager.forecast("s", 2)).all()

    def test_float64_beyond_float32_range_rejected(self):
        config = make_config(dtype="float32")
        slices, masks = make_session_stream(seed=14, n_steps=1)
        values = slices[0].copy()
        values[1, 1] = 1e300
        with SessionManager(**DETERMINISTIC) as manager:
            manager.create_session("s", config)
            with pytest.raises(ValueError, match="finite in float32"):
                manager.ingest("s", values, masks[0] | True)
            assert manager.session_stats("s")["next_seq"] == 0

    def test_poisoned_flush_fails_session_and_keeps_checkpoint(
        self, checkpoint
    ):
        slices, masks = make_session_stream(seed=15, n_steps=8)
        with SessionManager(**DETERMINISTIC, durable=True) as manager:
            manager.create_session("s", checkpoint=checkpoint)
            for t in range(4):
                manager.ingest("s", slices[t], masks[t])
            manager.drain("s")
            durable = manager.store.checkpoint_path("s")
            saved = durable.read_bytes()
            model = manager.store.checkout("s")
            model.state.sigma[0, 0] = np.nan
            manager.store.checkin("s")
            for t in range(4, 8):
                manager.ingest("s", slices[t], masks[t])
            manager.drain("s")

            info = manager.session_info("s")
            assert info["status"] == "failed"
            assert "non-finite" in info["failure"]
            assert manager.session_stats("s")["status"] == "failed"
            assert manager.metrics.snapshot()["flush_failures"] == 1
            # Neither persisted nor spilled over the last good state.
            assert durable.read_bytes() == saved
            assert not manager.store.is_resident("s")
            with pytest.raises(SessionError, match="non-finite"):
                manager.close_session("s", checkpoint_path=durable)
            assert durable.read_bytes() == saved


class TestImputeReadsSliceOnce:
    """``impute`` casts and checks its slice once, then buffers that
    same slice; every rejection still comes before anything is
    buffered."""

    def test_one_read_per_impute(self, checkpoint, monkeypatch):
        slices, masks = make_session_stream(seed=16, n_steps=3)
        reads = []
        real = SessionManager._read_slice

        def spy(session, subtensor, mask):
            reads.append(session.session_id)
            return real(session, subtensor, mask)

        monkeypatch.setattr(SessionManager, "_read_slice", staticmethod(spy))
        with SessionManager(**DETERMINISTIC) as manager:
            manager.create_session("s", checkpoint=checkpoint)
            for t in range(3):
                before = len(reads)
                imputed = manager.impute("s", slices[t], masks[t])
                assert len(reads) == before + 1
                np.testing.assert_array_equal(
                    imputed[masks[t]], slices[t][masks[t]]
                )
            manager.ingest("s", slices[0], masks[0])
            assert len(reads) == 4
            assert manager.session_stats("s")["next_seq"] == 4

    @pytest.mark.parametrize("bad", ["values_shape", "mask_shape"])
    def test_shape_error_buffers_nothing(self, checkpoint, bad):
        slices, masks = make_session_stream(seed=17, n_steps=2)
        values, mask = slices[1], masks[1]
        if bad == "values_shape":
            values, mask = values[:-1], mask[:-1]
        else:
            mask = mask[:-1]
        with SessionManager(**DETERMINISTIC) as manager:
            manager.create_session("s", checkpoint=checkpoint)
            manager.impute("s", slices[0], masks[0])
            with pytest.raises(ShapeError):
                manager.impute("s", values, mask)
            stats = manager.session_stats("s")
            assert stats["next_seq"] == 1
            assert manager.session_info("s")["pending"] == 0
            assert manager.session_info("s")["status"] == "ready"


class TestValidationAndFailure:
    def test_duplicate_session_rejected(self):
        with SessionManager(**DETERMINISTIC) as manager:
            manager.create_session("s", make_config())
            with pytest.raises(SessionExistsError):
                manager.create_session("s", make_config())

    def test_unknown_session_rejected(self):
        with SessionManager(**DETERMINISTIC) as manager:
            with pytest.raises(SessionNotFoundError):
                manager.ingest("ghost", np.zeros((5, 4)))
            with pytest.raises(SessionNotFoundError):
                manager.forecast("ghost", 2)

    def test_config_and_checkpoint_are_exclusive(self, checkpoint):
        with SessionManager(**DETERMINISTIC) as manager:
            with pytest.raises(ConfigError, match="exactly one"):
                manager.create_session(
                    "s", make_config(), checkpoint=checkpoint
                )
            with pytest.raises(ConfigError, match="exactly one"):
                manager.create_session("s")

    def test_bad_config_dict_rejected(self):
        with SessionManager(**DETERMINISTIC) as manager:
            with pytest.raises(ConfigError):
                manager.create_session("s", {"rank": 0, "period": 4})
            with pytest.raises(ConfigError, match="invalid session config"):
                manager.create_session(
                    "s", {"rank": 2, "period": 4, "warp_drive": True}
                )

    def test_inconsistent_slice_shape_rejected_synchronously(self):
        with SessionManager(**DETERMINISTIC) as manager:
            manager.create_session("s", make_config())
            manager.ingest("s", np.zeros((5, 4)))
            with pytest.raises(ShapeError, match="expects slices of shape"):
                manager.ingest("s", np.zeros((3, 3)))

    def test_sync_ops_on_warming_session_raise(self):
        with SessionManager(**DETERMINISTIC) as manager:
            manager.create_session("s", make_config())
            with pytest.raises(SessionError, match="warming up"):
                manager.forecast("s", 2)

    def test_impute_on_warming_session_has_no_side_effect(self):
        # A rejected impute must not leave its slice in the warmup
        # buffer — otherwise a natural client retry after warmup would
        # have fed the slice into the initialization window twice.
        config = make_config()
        slices, masks = make_session_stream(seed=13, n_steps=4)
        with SessionManager(**DETERMINISTIC) as manager:
            manager.create_session("s", config)
            for t in range(3):
                manager.ingest("s", slices[t], masks[t])
            with pytest.raises(SessionError, match="warming up"):
                manager.impute("s", slices[3], masks[3])
            manager.drain("s")
            info = manager.session_info("s")
            assert info["warmup_ingested"] == 3
            # The next ingest gets the next sequence number: the
            # rejected impute never consumed one.
            assert manager.ingest("s", slices[3], masks[3]) == 3

    def test_flush_failure_marks_session_failed(self, checkpoint, monkeypatch):
        slices, masks = make_session_stream(seed=9, n_steps=4)
        with SessionManager(**DETERMINISTIC) as manager:
            manager.create_session("s", checkpoint=checkpoint)

            def explode(self, *args, **kwargs):
                raise RuntimeError("kaboom")

            monkeypatch.setattr(Sofia, "step_batch", explode)
            for t in range(4):
                manager.ingest("s", slices[t], masks[t])
            manager.drain("s")
            assert manager.metrics.snapshot()["flush_failures"] == 1
            info = manager.session_info("s")
            assert "kaboom" in info["failure"]
            with pytest.raises(SessionError, match="kaboom"):
                manager.ingest("s", slices[0], masks[0])
            with pytest.raises(SessionError, match="kaboom"):
                manager.forecast("s", 2)
