"""Unit tests for the vectorized HW state (paper Eq. 19, 26)."""

import numpy as np
import pytest

from repro.exceptions import ConfigError, ShapeError
from repro.forecast import (
    HoltWintersParams,
    HoltWintersState,
    VectorHoltWinters,
    fit_holt_winters,
    hw_forecast,
    hw_update,
)


def make_state(rank=2, period=3):
    return VectorHoltWinters(
        level=np.arange(1.0, rank + 1),
        trend=np.full(rank, 0.5),
        seasonal=np.zeros((period, rank)),
        alpha=np.full(rank, 0.5),
        beta=np.full(rank, 0.3),
        gamma=np.full(rank, 0.2),
    )


class TestConstruction:
    def test_rank_and_period(self):
        state = make_state(rank=3, period=4)
        assert state.rank == 3
        assert state.period == 4

    def test_bad_seasonal_shape(self):
        with pytest.raises(ShapeError):
            VectorHoltWinters(
                level=np.zeros(2),
                trend=np.zeros(2),
                seasonal=np.zeros((3, 5)),
                alpha=np.zeros(2),
                beta=np.zeros(2),
                gamma=np.zeros(2),
            )

    def test_bad_alpha_range(self):
        with pytest.raises(ConfigError):
            VectorHoltWinters(
                level=np.zeros(1),
                trend=np.zeros(1),
                seasonal=np.zeros((2, 1)),
                alpha=np.array([1.5]),
                beta=np.zeros(1),
                gamma=np.zeros(1),
            )

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            VectorHoltWinters(
                level=np.zeros(2),
                trend=np.zeros(3),
                seasonal=np.zeros((2, 2)),
                alpha=np.zeros(2),
                beta=np.zeros(2),
                gamma=np.zeros(2),
            )


class TestConsistencyWithScalar:
    """The vector recursion must agree component-wise with the scalar one."""

    def test_update_matches_scalar(self):
        rng = np.random.default_rng(0)
        period, rank = 4, 3
        scalar_states = [
            HoltWintersState(
                level=rng.normal(),
                trend=rng.normal(),
                seasonal=rng.normal(size=period),
            )
            for _ in range(rank)
        ]
        params = [HoltWintersParams(*rng.uniform(0, 1, 3)) for _ in range(rank)]
        vector = VectorHoltWinters(
            level=np.array([s.level for s in scalar_states]),
            trend=np.array([s.trend for s in scalar_states]),
            seasonal=np.stack([s.seasonal for s in scalar_states], axis=1),
            alpha=np.array([p.alpha for p in params]),
            beta=np.array([p.beta for p in params]),
            gamma=np.array([p.gamma for p in params]),
        )
        values = rng.normal(size=(6, rank))
        for v in values:
            vector.update(v)
            scalar_states = [
                hw_update(s, float(val), p)
                for s, val, p in zip(scalar_states, v, params)
            ]
        np.testing.assert_allclose(
            vector.level, [s.level for s in scalar_states]
        )
        np.testing.assert_allclose(
            vector.trend, [s.trend for s in scalar_states]
        )
        np.testing.assert_allclose(
            vector.seasonal, np.stack([s.seasonal for s in scalar_states], axis=1)
        )

    def test_forecast_matches_scalar(self):
        rng = np.random.default_rng(1)
        period, rank, horizon = 3, 2, 7
        scalar_states = [
            HoltWintersState(
                level=rng.normal(), trend=rng.normal(),
                seasonal=rng.normal(size=period),
            )
            for _ in range(rank)
        ]
        vector = VectorHoltWinters(
            level=np.array([s.level for s in scalar_states]),
            trend=np.array([s.trend for s in scalar_states]),
            seasonal=np.stack([s.seasonal for s in scalar_states], axis=1),
            alpha=np.zeros(rank),
            beta=np.zeros(rank),
            gamma=np.zeros(rank),
        )
        fc = vector.forecast(horizon)
        for r, s in enumerate(scalar_states):
            np.testing.assert_allclose(fc[:, r], hw_forecast(s, horizon))


class TestForecast:
    def test_bad_horizon(self):
        with pytest.raises(ConfigError):
            make_state().forecast(0)

    def test_update_requires_rank_vector(self):
        with pytest.raises(ShapeError):
            make_state(rank=2).update(np.zeros(3))


class TestFromFits:
    def test_stacks_columns(self):
        t = np.arange(48, dtype=float)
        y1 = 1.0 + 0.1 * t + np.sin(2 * np.pi * t / 6)
        y2 = 5.0 - 0.05 * t + np.cos(2 * np.pi * t / 6)
        fits = [fit_holt_winters(y, 6) for y in (y1, y2)]
        vector = VectorHoltWinters.from_fits(fits)
        assert vector.rank == 2
        assert vector.period == 6
        fc = vector.forecast(6)
        np.testing.assert_allclose(fc[:, 0], fits[0].forecast(6))
        np.testing.assert_allclose(fc[:, 1], fits[1].forecast(6))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            VectorHoltWinters.from_fits([])

    def test_mixed_periods_rejected(self):
        t = np.arange(48, dtype=float)
        y = 1.0 + np.sin(2 * np.pi * t / 6)
        fits = [fit_holt_winters(y, 6), fit_holt_winters(y, 8)]
        with pytest.raises(ShapeError):
            VectorHoltWinters.from_fits(fits)


def reference_updates(state, values):
    """Eq. 26a-26c row by row, re-stacking the seasonal buffer."""
    level, trend, seasonal = state.level, state.trend, state.seasonal
    for u in values:
        s_old = seasonal[0]
        new_level = state.alpha * (u - s_old) + (1.0 - state.alpha) * (
            level + trend
        )
        new_trend = state.beta * (new_level - level) + (
            1.0 - state.beta
        ) * trend
        s_new = state.gamma * (u - level - trend) + (
            1.0 - state.gamma
        ) * s_old
        level, trend = new_level, new_trend
        seasonal = np.vstack([seasonal[1:], s_new[None, :]])
    return level, trend, seasonal


class TestUpdateMany:
    @pytest.mark.parametrize("n_rows", [1, 3, 7])
    def test_matches_repeated_update(self, n_rows):
        # One row, exactly one period, and more rows than the period
        # (the seasonal buffer wraps within the call).
        rng = np.random.default_rng(2)
        values = rng.normal(size=(n_rows, 2))
        want = reference_updates(make_state(period=3), values)
        one_by_one = make_state(period=3)
        for row in values:
            one_by_one.update(row)
        batched = make_state(period=3)
        batched.update_many(values)
        for state in (one_by_one, batched):
            np.testing.assert_array_equal(state.level, want[0])
            np.testing.assert_array_equal(state.trend, want[1])
            np.testing.assert_array_equal(state.seasonal, want[2])

    def test_wrong_rank_rejected(self):
        state = make_state()
        with pytest.raises(ShapeError):
            state.update_many(np.zeros((3, 5)))

    def test_one_dim_rejected(self):
        state = make_state()
        with pytest.raises(ShapeError):
            state.update_many(np.zeros(2))


class TestCopy:
    def test_copy_is_independent(self):
        state = make_state()
        clone = state.copy()
        clone.update(np.array([1.0, 2.0]))
        np.testing.assert_allclose(state.level, [1.0, 2.0])
        assert not np.allclose(clone.level, state.level)
