"""Unit tests for SofiaModelState bookkeeping."""

import numpy as np
import pytest

from repro.core.model import SofiaModelState
from repro.exceptions import ShapeError
from repro.forecast.vector_hw import VectorHoltWinters


def make_hw(rank=2, period=3):
    return VectorHoltWinters(
        level=np.zeros(rank),
        trend=np.zeros(rank),
        seasonal=np.zeros((period, rank)),
        alpha=np.full(rank, 0.5),
        beta=np.full(rank, 0.5),
        gamma=np.full(rank, 0.5),
    )


def make_state(rank=2, period=3, dims=(4, 5)):
    return SofiaModelState(
        non_temporal=[np.ones((d, rank)) for d in dims],
        temporal_buffer=np.arange(period * rank, dtype=float).reshape(
            period, rank
        ),
        hw=make_hw(rank, period),
        sigma=np.ones(dims),
        t=9,
    )


class TestConstruction:
    def test_properties(self):
        state = make_state()
        assert state.rank == 2
        assert state.subtensor_shape == (4, 5)

    def test_empty_factors_rejected(self):
        with pytest.raises(ShapeError):
            SofiaModelState(
                non_temporal=[],
                temporal_buffer=np.zeros((3, 2)),
                hw=make_hw(),
                sigma=np.ones((4, 5)),
                t=0,
            )

    def test_buffer_rank_mismatch(self):
        with pytest.raises(ShapeError):
            SofiaModelState(
                non_temporal=[np.ones((4, 2))],
                temporal_buffer=np.zeros((3, 3)),
                hw=make_hw(),
                sigma=np.ones((4,)),
                t=0,
            )

    def test_sigma_shape_mismatch(self):
        with pytest.raises(ShapeError):
            SofiaModelState(
                non_temporal=[np.ones((4, 2)), np.ones((5, 2))],
                temporal_buffer=np.zeros((3, 2)),
                hw=make_hw(),
                sigma=np.ones((4, 4)),
                t=0,
            )


class TestRingBuffer:
    def test_previous_and_season_vectors(self):
        state = make_state(period=3)
        np.testing.assert_array_equal(
            state.season_vector, state.temporal_buffer[0]
        )
        np.testing.assert_array_equal(
            state.previous_vector, state.temporal_buffer[-1]
        )
