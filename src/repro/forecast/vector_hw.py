"""Vectorized Holt-Winters state over ``R`` parallel series (paper Eq. 26).

SOFIA fits one scalar HW model per column of the temporal factor matrix
and then advances all ``R`` of them jointly during the dynamic phase.
:class:`VectorHoltWinters` holds the stacked level/trend vectors and an
``(m, R)`` seasonal buffer (rows oldest-first) and implements the
diagonal-matrix smoothing equations (26a)-(26c) plus the vector forecast
used in Eq. 19 / Eq. 28.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigError, ShapeError
from repro.forecast.fitting import FittedHoltWinters

__all__ = ["VectorHoltWinters"]


@dataclass
class VectorHoltWinters:
    """Joint Holt-Winters state for ``R`` series with per-series parameters.

    Attributes
    ----------
    level, trend:
        Arrays of shape ``(R,)`` — the paper's ``l_t`` and ``b_t``.
    seasonal:
        Array of shape ``(m, R)`` holding ``s_{t-m+1}, ..., s_t``
        oldest-first, so ``seasonal[0]`` is the ``s_{t-m}`` used by the
        one-step forecast after the buffer has rolled.
    alpha, beta, gamma:
        Arrays of shape ``(R,)`` — the diagonal entries of ``diag(α)`` etc.
    """

    level: np.ndarray
    trend: np.ndarray
    seasonal: np.ndarray = field(repr=False)
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self) -> None:
        self.level = np.asarray(self.level, dtype=np.float64).reshape(-1)
        self.trend = np.asarray(self.trend, dtype=np.float64).reshape(-1)
        self.seasonal = np.asarray(self.seasonal, dtype=np.float64)
        for name in ("alpha", "beta", "gamma"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).reshape(-1)
            if np.any(arr < 0.0) or np.any(arr > 1.0):
                raise ConfigError(f"{name} entries must be in [0, 1]")
            setattr(self, name, arr)
        rank = self.level.size
        if self.seasonal.ndim != 2 or self.seasonal.shape[1] != rank:
            raise ShapeError(
                f"seasonal buffer must be (m, {rank}), got {self.seasonal.shape}"
            )
        for name in ("trend", "alpha", "beta", "gamma"):
            if getattr(self, name).size != rank:
                raise ShapeError(f"{name} must have length {rank}")

    @property
    def rank(self) -> int:
        return int(self.level.size)

    @property
    def period(self) -> int:
        return int(self.seasonal.shape[0])

    @classmethod
    def from_fits(cls, fits: Sequence[FittedHoltWinters]) -> "VectorHoltWinters":
        """Stack ``R`` per-column scalar fits into one vector state."""
        if not fits:
            raise ShapeError("need at least one fitted HW model")
        periods = {f.state.period for f in fits}
        if len(periods) != 1:
            raise ShapeError(f"all fits must share a period, got {periods}")
        return cls(
            level=np.array([f.state.level for f in fits]),
            trend=np.array([f.state.trend for f in fits]),
            seasonal=np.stack([f.state.seasonal for f in fits], axis=1),
            alpha=np.array([f.params.alpha for f in fits]),
            beta=np.array([f.params.beta for f in fits]),
            gamma=np.array([f.params.gamma for f in fits]),
        )

    def forecast(self, horizon: int) -> np.ndarray:
        """Forecast ``horizon`` future temporal vectors (Eq. 6 per column).

        Returns an array of shape ``(horizon, R)``.
        """
        if horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {horizon}")
        forecast = np.arange(1.0, horizon + 1.0)[:, None] * self.trend
        forecast += self.level
        forecast += self.seasonal.take(
            np.arange(horizon) % self.period, axis=0
        )
        return forecast

    def update(self, value: np.ndarray) -> None:
        """Advance the state with the new temporal vector (Eq. 26a-26c)."""
        u = np.asarray(value, dtype=np.float64).reshape(-1)
        if u.size != self.rank:
            raise ShapeError(f"expected a length-{self.rank} vector, got {u.size}")
        self._advance(u[None, :])

    def update_many(self, values: np.ndarray) -> None:
        """Advance the state with ``B`` temporal vectors in one call.

        Bit-identical to calling :meth:`update` once per row of
        ``values`` (oldest first): the input is validated once, and the
        recurrence runs over one preallocated ``(m + B, R)`` seasonal
        buffer, so no row re-validates or re-stacks the buffer.
        """
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[1] != self.rank:
            raise ShapeError(
                f"expected a (batch, {self.rank}) array, got {vals.shape}"
            )
        self._advance(vals)

    def _advance(self, vals: np.ndarray) -> None:
        """Run Eq. 26a-26c over the validated ``(B, R)`` rows of ``vals``.

        Row ``b`` reads ``s_{t-m}`` from buffer row ``b`` and writes its
        new seasonal component to row ``m + b``; the last ``m`` rows are
        the new buffer.  The sequential recurrences cost ``O(R)`` per
        row, with ``1 - α``, ``1 - β`` and ``1 - γ`` formed once.
        """
        period = self.period
        seasonal = np.empty((period + vals.shape[0], self.rank))
        seasonal[:period] = self.seasonal
        alpha, beta, gamma = self.alpha, self.beta, self.gamma
        keep_alpha, keep_beta, keep_gamma = 1.0 - alpha, 1.0 - beta, 1.0 - gamma
        level, trend = self.level, self.trend
        for b, u in enumerate(vals):
            s_old = seasonal[b]  # s_{t-m}
            new_level = alpha * (u - s_old) + keep_alpha * (level + trend)
            np.add(
                gamma * (u - level - trend),
                keep_gamma * s_old,
                out=seasonal[period + b],
            )
            trend = beta * (new_level - level) + keep_beta * trend
            level = new_level
        self.level = level
        self.trend = trend
        self.seasonal = seasonal[-period:]

    def copy(self) -> "VectorHoltWinters":
        """Deep copy (used to forecast without disturbing live state)."""
        return VectorHoltWinters(
            level=self.level.copy(),
            trend=self.trend.copy(),
            seasonal=self.seasonal.copy(),
            alpha=self.alpha.copy(),
            beta=self.beta.copy(),
            gamma=self.gamma.copy(),
        )
