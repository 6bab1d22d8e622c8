"""Mutable state of a fitted SOFIA model and per-step result records."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ShapeError
from repro.forecast.vector_hw import VectorHoltWinters

__all__ = ["SofiaModelState", "SofiaStep"]


@dataclass(frozen=True)
class SofiaStep:
    """Everything SOFIA produces for one incoming subtensor (Alg. 3 body).

    Attributes
    ----------
    completed:
        The reconstruction ``X̂_t = [[{U_t}; u_t]]`` used for imputation.
    outliers:
        Estimated outlier subtensor ``O_t`` (zero where unobserved).
    prediction:
        One-step-ahead forecast ``Ŷ_{t|t-1}`` made before seeing the data.
    temporal_forecast:
        The HW forecast ``û_{t|t-1}`` of the temporal vector.
    temporal_vector:
        The updated temporal vector ``u_t``.
    """

    completed: np.ndarray
    outliers: np.ndarray
    prediction: np.ndarray
    temporal_forecast: np.ndarray
    temporal_vector: np.ndarray


@dataclass
class SofiaModelState:
    """Online state carried between dynamic-update steps.

    Attributes
    ----------
    non_temporal:
        Factor matrices ``{U^(n)_t}`` for the non-temporal modes.
    temporal_buffer:
        The last ``m`` temporal row vectors, oldest first, so
        ``temporal_buffer[0]`` is ``u_{t-m}`` and ``temporal_buffer[-1]``
        is ``u_{t-1}`` — exactly what Eq. 25's smoothness terms need.
    hw:
        Vectorized Holt-Winters state over the ``R`` components.
    sigma:
        Per-entry one-step forecast error scale ``Σ̂_t`` (Alg. 3 line 1).
    t:
        Number of subtensors consumed so far (``t_i`` right after
        initialization).
    """

    non_temporal: list[np.ndarray]
    temporal_buffer: np.ndarray = field(repr=False)
    hw: VectorHoltWinters
    sigma: np.ndarray = field(repr=False)
    t: int

    def __post_init__(self) -> None:
        if not self.non_temporal:
            raise ShapeError("need at least one non-temporal factor")
        rank = self.non_temporal[0].shape[1]
        # The buffer follows the factors' dtype so a float32 model stays
        # float32 end to end (non-float factors fall back to float64).
        buf = np.asarray(self.temporal_buffer, dtype=self.dtype)
        if buf.ndim != 2 or buf.shape[1] != rank:
            raise ShapeError(
                f"temporal buffer must be (m, {rank}), got {buf.shape}"
            )
        self.temporal_buffer = buf
        expected = tuple(f.shape[0] for f in self.non_temporal)
        if self.sigma.shape != expected:
            raise ShapeError(
                f"sigma shape {self.sigma.shape} does not match subtensor "
                f"shape {expected}"
            )

    @property
    def rank(self) -> int:
        return int(self.non_temporal[0].shape[1])

    @property
    def dtype(self) -> np.dtype:
        """Floating dtype of the model (taken from the factors)."""
        dtype = np.asarray(self.non_temporal[0]).dtype
        if dtype.kind != "f":
            return np.dtype(np.float64)
        return dtype

    @property
    def subtensor_shape(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.non_temporal)

    @property
    def previous_vector(self) -> np.ndarray:
        """``u_{t-1}``."""
        return self.temporal_buffer[-1]

    @property
    def season_vector(self) -> np.ndarray:
        """``u_{t-m}``."""
        return self.temporal_buffer[0]

