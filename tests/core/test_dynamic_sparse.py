"""Sparse-path routing of the dynamic phase (density_threshold).

The sparse execution path of :func:`dynamic_step_batch` (and so of
:meth:`Sofia.step`, a batch of one) must reproduce the dense path's trajectory
(the arithmetic at observed entries is identical — only the execution
strategy changes) and must engage exactly below the configured observed
fraction.
"""

import numpy as np
import pytest

from repro.core import Sofia, SofiaConfig
from repro.core.outliers import (
    robust_step,
    robust_step_batch,
    robust_step_batch_at,
)
from repro.tensor import kernels


def seasonal_stream(seed=0, shape=(12, 10), rank=3, period=6, n_steps=70):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(shape[0], rank))
    v = rng.normal(size=(shape[1], rank))
    phase = rng.normal(size=rank)
    t = np.arange(n_steps)[:, None]
    temporal = 1.0 + 0.3 * np.sin(2 * np.pi * t / period + phase)
    data = np.einsum("ir,jr,tr->ijt", u, v, temporal)
    data += 0.02 * rng.normal(size=data.shape)
    return data


def run_stream(density_threshold, *, observed, batch_size=1, backend=None,
               seed=0):
    period = 6
    data = seasonal_stream(seed=seed, period=period)
    rng = np.random.default_rng(seed + 1)
    mask = rng.random(data.shape) < observed
    config = SofiaConfig(
        rank=3,
        period=period,
        density_threshold=density_threshold,
        batch_size=batch_size,
        max_outer_iters=20,
    )
    model = Sofia(config)
    startup = config.init_steps
    context = (
        kernels.use_backend(backend)
        if backend is not None
        else kernels.use_backend(kernels.active_backend().name)
    )
    with context:
        model.initialize([data[..., t] for t in range(startup)])
        steps = model.run(
            (data[..., t], mask[..., t])
            for t in range(startup, data.shape[-1])
        )
    return steps, model.state


class TestSparseDensePathParity:
    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_trajectories_match(self, batch_size):
        # threshold 0.0 never takes the sparse path; 1.0 always does
        # (3%-observed stream).  Force the batched kernel backend for
        # the dense run so the comparison crosses execution strategies.
        dense_steps, dense_state = run_stream(
            0.0, observed=0.03, batch_size=batch_size, backend="batched"
        )
        sparse_steps, sparse_state = run_stream(
            1.0, observed=0.03, batch_size=batch_size, backend="sparse"
        )
        # Round-off from the different initialization/kernel orderings
        # amplifies slightly over the 52-step stream; the paths must
        # stay within strict float tolerance, far below model error.
        assert len(dense_steps) == len(sparse_steps)
        for d, s in zip(dense_steps, sparse_steps):
            np.testing.assert_allclose(
                s.completed, d.completed, atol=1e-5, rtol=1e-5
            )
            np.testing.assert_allclose(
                s.outliers, d.outliers, atol=1e-5, rtol=1e-5
            )
            np.testing.assert_allclose(
                s.prediction, d.prediction, atol=1e-5, rtol=1e-5
            )
            np.testing.assert_allclose(
                s.temporal_vector, d.temporal_vector, atol=1e-5, rtol=1e-5
            )
        np.testing.assert_allclose(
            sparse_state.sigma, dense_state.sigma, atol=1e-7
        )
        for f_sparse, f_dense in zip(
            sparse_state.non_temporal, dense_state.non_temporal
        ):
            np.testing.assert_allclose(f_sparse, f_dense, atol=1e-5, rtol=1e-5)

    def test_default_threshold_routes_low_density_streams(self):
        # At 3% observed the default 5% threshold takes the sparse path
        # (under the auto backend); the result must match an explicit
        # dense run.
        auto_steps, _ = run_stream(0.05, observed=0.03, backend="auto")
        dense_steps, _ = run_stream(0.0, observed=0.03, backend="batched")
        for a, d in zip(auto_steps, dense_steps):
            np.testing.assert_allclose(
                a.completed, d.completed, atol=1e-5, rtol=1e-5
            )

    @pytest.mark.parametrize(
        "backend,expect_sparse",
        [("batched", False), ("reference", False),
         ("auto", True), ("sparse", True)],
    )
    def test_routing_defers_to_active_backend(
        self, monkeypatch, backend, expect_sparse
    ):
        # The dense-only backends must run their own execution path end
        # to end (the CI backend matrix relies on this); auto/sparse
        # route by density.
        import repro.core.dynamic as dynamic_module

        calls = []
        original = dynamic_module.robust_step_batch_at

        def probe(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(dynamic_module, "robust_step_batch_at", probe)
        period = 6
        data = seasonal_stream(period=period)
        config = SofiaConfig(
            rank=3, period=period, density_threshold=1.0, max_outer_iters=20
        )
        model = Sofia(config)
        with kernels.use_backend(backend):
            model.initialize([data[..., t] for t in range(config.init_steps)])
            mask = np.zeros(data.shape[:-1], dtype=bool)
            mask[0, :3] = True
            model.step(np.where(mask, data[..., config.init_steps], 0.0), mask)
        assert bool(calls) is expect_sparse

    def test_sparse_outliers_zero_off_mask(self):
        steps, _ = run_stream(1.0, observed=0.03)
        period = 6
        data = seasonal_stream(period=period)
        rng = np.random.default_rng(1)
        mask = rng.random(data.shape) < 0.03
        startup = 3 * period
        for offset, step in enumerate(steps):
            off_mask = ~mask[..., startup + offset]
            assert not step.outliers[off_mask].any()

    def test_fully_missing_step_keeps_factors(self):
        period = 6
        data = seasonal_stream(period=period)
        config = SofiaConfig(
            rank=3, period=period, density_threshold=0.05, max_outer_iters=20
        )
        model = Sofia(config)
        model.initialize([data[..., t] for t in range(config.init_steps)])
        before = [f.copy() for f in model.state.non_temporal]
        sigma_before = model.state.sigma.copy()
        step = model.step(
            np.zeros(data.shape[:-1]), np.zeros(data.shape[:-1], dtype=bool)
        )
        for f_before, f_after in zip(before, model.state.non_temporal):
            np.testing.assert_array_equal(f_before, f_after)
        np.testing.assert_array_equal(sigma_before, model.state.sigma)
        assert not step.outliers.any()


class TestRobustStepAt:
    def test_batch_of_one_matches_dense_robust_step(self):
        rng = np.random.default_rng(0)
        shape = (15, 11)
        y = rng.normal(size=shape)
        yhat = rng.normal(size=shape)
        sigma = 0.5 + rng.random(shape)
        mask = rng.random(shape) < 0.2
        coords = np.nonzero(mask)
        outliers_dense, sigma_dense = robust_step(
            y, yhat, sigma, mask, k=2.0, phi=0.05, ck=2.52
        )
        outlier_values, sigma_sparse = robust_step_batch_at(
            np.nonzero(mask[None]),
            y[coords],
            yhat[coords],
            sigma,
            k=2.0,
            phi=0.05,
            ck=2.52,
        )
        np.testing.assert_allclose(
            outlier_values, outliers_dense[coords], atol=1e-12
        )
        np.testing.assert_allclose(sigma_sparse, sigma_dense, atol=1e-12)
        # missing entries keep their previous scale
        np.testing.assert_array_equal(sigma_sparse[~mask], sigma[~mask])

    def test_does_not_mutate_input_sigma(self):
        rng = np.random.default_rng(1)
        sigma = 0.5 + rng.random((6, 4))
        original = sigma.copy()
        coords = (np.array([0, 0]), np.array([0, 2]), np.array([1, 3]))
        robust_step_batch_at(
            coords, np.array([5.0, -3.0]), np.array([0.0, 0.0]), sigma
        )
        np.testing.assert_array_equal(sigma, original)

    def test_batch_matches_dense_robust_step_batch(self):
        rng = np.random.default_rng(2)
        shape = (9, 7)
        n_batch = 5
        ys = rng.normal(size=(n_batch,) + shape)
        yhats = rng.normal(size=(n_batch,) + shape)
        sigma = 0.5 + rng.random(shape)
        masks = rng.random((n_batch,) + shape) < 0.15
        coords = np.nonzero(masks)
        outliers_dense, sigma_dense = robust_step_batch(
            ys, yhats, sigma, masks, k=2.0, phi=0.05, ck=2.52
        )
        outlier_values, sigma_sparse = robust_step_batch_at(
            coords, ys[coords], yhats[coords], sigma,
            k=2.0, phi=0.05, ck=2.52,
        )
        np.testing.assert_allclose(
            outlier_values, outliers_dense[coords], atol=1e-12
        )
        np.testing.assert_allclose(sigma_sparse, sigma_dense, atol=1e-12)

    def test_batch_empty_coords(self):
        sigma = np.ones((4, 3))
        coords = tuple(np.zeros(0, dtype=int) for _ in range(3))
        outlier_values, new_sigma = robust_step_batch_at(
            coords, np.zeros(0), np.zeros(0), sigma
        )
        assert outlier_values.shape == (0,)
        np.testing.assert_array_equal(new_sigma, sigma)
