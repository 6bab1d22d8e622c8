"""Unit tests for the dynamic update (paper Alg. 3, Eq. 19-27).

Every test drives :func:`dynamic_step_batch` with a batch of one, the
form :meth:`Sofia.step` takes.
"""

import numpy as np
import pytest

from repro.core import SofiaConfig, local_cost
from repro.core.dynamic import dynamic_step_batch
from repro.core.model import SofiaModelState
from repro.forecast.vector_hw import VectorHoltWinters
from repro.tensor import kruskal_to_tensor, relative_error


def make_state(dims=(6, 5), rank=2, period=4, seed=0, sigma=0.1):
    rng = np.random.default_rng(seed)
    non_temporal = [rng.uniform(0.2, 1.0, size=(d, rank)) for d in dims]
    buffer = rng.uniform(0.5, 1.5, size=(period, rank))
    hw = VectorHoltWinters(
        level=buffer[-1].copy(),
        trend=np.zeros(rank),
        seasonal=np.zeros((period, rank)),
        alpha=np.full(rank, 0.3),
        beta=np.full(rank, 0.05),
        gamma=np.full(rank, 0.2),
    )
    return SofiaModelState(
        non_temporal=non_temporal,
        temporal_buffer=buffer,
        hw=hw,
        sigma=np.full(dims, sigma),
        t=12,
    )


def config(**kwargs):
    base = dict(rank=2, period=4, lambda1=1e-3, lambda2=1e-3)
    base.update(kwargs)
    return SofiaConfig(**base)


def step_of_one(state, subtensor, mask, cfg):
    """One subtensor through the mini-batch step, as a batch of one."""
    return dynamic_step_batch(state, subtensor[None], mask[None], cfg)[0]


#: An error scale no test residual comes near, so the Huber split flags
#: no outliers and the gradient steps see the raw residual ``Y - X̂``.
NO_OUTLIERS = 1e6


class TestGradientSteps:
    """The Eq. 24 / Eq. 25 updates a step of one applies."""

    def test_factor_step_zero_residual_is_identity(self):
        state = make_state()
        before = [f.copy() for f in state.non_temporal]
        y = kruskal_to_tensor(
            state.non_temporal, weights=state.hw.forecast(1)[0]
        )
        step = step_of_one(state, y, np.ones((6, 5), dtype=bool), config())
        np.testing.assert_array_equal(step.outliers, 0.0)
        for new, old in zip(state.non_temporal, before):
            np.testing.assert_array_equal(new, old)

    def test_factor_step_decreases_local_cost(self):
        rng = np.random.default_rng(1)
        state = make_state(sigma=NO_OUTLIERS)
        cfg = config()
        u_hat = state.hw.forecast(1)[0]
        y = kruskal_to_tensor(state.non_temporal, weights=u_hat) + rng.normal(
            0, 0.5, (6, 5)
        )
        mask = np.ones((6, 5), dtype=bool)
        o = np.zeros((6, 5))
        previous, season = state.previous_vector, state.season_vector

        def cost(factors):
            return local_cost(
                y, mask, factors, u_hat, previous, season, o, cfg
            )

        before = cost(state.non_temporal)
        step = step_of_one(state, y, mask, cfg)
        np.testing.assert_array_equal(step.outliers, 0.0)
        assert cost(state.non_temporal) < before

    def test_temporal_step_decreases_local_cost(self):
        rng = np.random.default_rng(2)
        state = make_state(sigma=NO_OUTLIERS)
        cfg = config()
        u_hat = state.hw.forecast(1)[0]
        y = kruskal_to_tensor(state.non_temporal, weights=u_hat) + rng.normal(
            0, 0.5, (6, 5)
        )
        mask = np.ones((6, 5), dtype=bool)
        factors = [f.copy() for f in state.non_temporal]
        previous, season = state.previous_vector, state.season_vector

        def cost(u):
            return local_cost(
                y, mask, factors, u, previous, season, np.zeros((6, 5)), cfg
            )

        step = step_of_one(state, y, mask, cfg)
        assert cost(step.temporal_vector) < cost(u_hat)

    def test_raw_step_matches_paper_formula(self):
        """With step_normalization='none', Eq. 25 is applied verbatim."""
        state = make_state(sigma=NO_OUTLIERS)
        cfg = config(step_normalization="none", mu=0.05)
        rng = np.random.default_rng(3)
        u_hat = state.hw.forecast(1)[0]
        prediction = kruskal_to_tensor(state.non_temporal, weights=u_hat)
        y = prediction + rng.normal(size=(6, 5))
        residual = y - prediction
        data_term = np.einsum(
            "ij,ir,jr->r", residual, *state.non_temporal
        )
        expected = u_hat + 2 * 0.05 * (
            data_term
            + cfg.lambda1 * state.previous_vector
            + cfg.lambda2 * state.season_vector
            - (cfg.lambda1 + cfg.lambda2) * u_hat
        )
        step = step_of_one(state, y, np.ones((6, 5), dtype=bool), cfg)
        np.testing.assert_allclose(step.temporal_vector, expected)

    def test_factor_raw_step_matches_paper_formula(self):
        state = make_state(sigma=NO_OUTLIERS)
        mu = 0.03
        cfg = config(step_normalization="none", mu=mu)
        rng = np.random.default_rng(4)
        u_hat = state.hw.forecast(1)[0]
        prediction = kruskal_to_tensor(state.non_temporal, weights=u_hat)
        y = prediction + rng.normal(size=(6, 5))
        residual = y - prediction
        u1, u2 = state.non_temporal
        step_of_one(state, y, np.ones((6, 5), dtype=bool), cfg)
        # Eq. 24, mode 0: R @ (U2 * u_hat); mode 1: Rᵀ @ (U1 * u_hat)
        expected0 = u1 + 2 * mu * residual @ (u2 * u_hat[None, :])
        np.testing.assert_allclose(state.non_temporal[0], expected0)
        expected1 = u2 + 2 * mu * residual.T @ (u1 * u_hat[None, :])
        np.testing.assert_allclose(state.non_temporal[1], expected1)


class TestDynamicStep:
    def test_updates_counters_and_buffer(self):
        state = make_state()
        y = kruskal_to_tensor(
            state.non_temporal, weights=state.hw.forecast(1)[0]
        )
        before_t = state.t
        step = step_of_one(state, y, np.ones((6, 5), dtype=bool), config())
        assert state.t == before_t + 1
        np.testing.assert_array_equal(
            state.temporal_buffer[-1], step.temporal_vector
        )

    def test_perfect_prediction_no_outliers(self):
        state = make_state()
        y = kruskal_to_tensor(
            state.non_temporal, weights=state.hw.forecast(1)[0]
        )
        step = step_of_one(state, y, np.ones((6, 5), dtype=bool), config())
        np.testing.assert_allclose(step.outliers, 0.0, atol=1e-12)

    def test_spike_lands_in_outliers_not_completion(self):
        state = make_state(sigma=0.1)
        u_hat = state.hw.forecast(1)[0]
        clean = kruskal_to_tensor(state.non_temporal, weights=u_hat)
        y = clean.copy()
        y[2, 3] += 100.0
        step = step_of_one(state, y, np.ones((6, 5), dtype=bool), config())
        # the spike is captured almost entirely by O_t
        assert step.outliers[2, 3] == pytest.approx(100.0, rel=0.01)
        # and the reconstruction stays near the clean value
        assert abs(step.completed[2, 3] - clean[2, 3]) < 1.0

    def test_missing_entries_ignored(self):
        state = make_state()
        u_hat = state.hw.forecast(1)[0]
        y = kruskal_to_tensor(state.non_temporal, weights=u_hat)
        y_corrupt = y.copy()
        y_corrupt[0, 0] = 1e6  # garbage hidden behind the mask
        mask = np.ones((6, 5), dtype=bool)
        mask[0, 0] = False
        sigma_before = state.sigma.copy()
        step = step_of_one(state, y_corrupt, mask, config())
        assert step.outliers[0, 0] == 0.0
        assert state.sigma[0, 0] == sigma_before[0, 0]

    def test_sigma_updates_only_observed(self):
        state = make_state()
        u_hat = state.hw.forecast(1)[0]
        y = kruskal_to_tensor(state.non_temporal, weights=u_hat) + 0.5
        mask = np.zeros((6, 5), dtype=bool)
        mask[0, :] = True
        sigma_before = state.sigma.copy()
        step_of_one(state, y, mask, config())
        assert not np.allclose(state.sigma[0, :], sigma_before[0, :])
        np.testing.assert_array_equal(state.sigma[1:, :], sigma_before[1:, :])

    def test_shape_mismatch_rejected(self):
        state = make_state()
        with pytest.raises(ValueError):
            step_of_one(
                state, np.ones((4, 4)), np.ones((4, 4), dtype=bool), config()
            )

    def test_tracks_drifting_stream(self):
        """Over many steps, the model follows a slowly drifting factor."""
        rng = np.random.default_rng(5)
        rank, period, dims = 2, 6, (8, 7)
        non_temporal = [rng.uniform(0.2, 1.0, size=(d, rank)) for d in dims]
        t_axis = np.arange(200)
        temporal = np.stack(
            [
                1.0 + 0.4 * np.sin(2 * np.pi * t_axis / period + r)
                + 0.001 * t_axis
                for r in range(rank)
            ],
            axis=1,
        )
        from repro.forecast import fit_holt_winters

        fits = [fit_holt_winters(temporal[:24, r], period) for r in range(rank)]
        hw = VectorHoltWinters.from_fits(fits)
        state = SofiaModelState(
            non_temporal=[f.copy() for f in non_temporal],
            temporal_buffer=temporal[24 - period:24].copy(),
            hw=hw,
            sigma=np.full(dims, 0.1),
            t=24,
        )
        cfg = config(period=period)
        errors = []
        for t in range(24, 200):
            y = kruskal_to_tensor(non_temporal, weights=temporal[t])
            y_noisy = y + rng.normal(0, 0.01, dims)
            step = step_of_one(state, y_noisy, np.ones(dims, dtype=bool), cfg)
            errors.append(relative_error(step.completed, y))
        assert np.mean(errors[-30:]) < 0.05

    def test_returns_prediction_before_update(self):
        state = make_state()
        u_hat_expected = state.hw.forecast(1)[0]
        pred_expected = kruskal_to_tensor(
            state.non_temporal, weights=u_hat_expected
        )
        y = pred_expected + 0.1
        step = step_of_one(state, y, np.ones((6, 5), dtype=bool), config())
        np.testing.assert_allclose(step.temporal_forecast, u_hat_expected)
        np.testing.assert_allclose(step.prediction, pred_expected)
