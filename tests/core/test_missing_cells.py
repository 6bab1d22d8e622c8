"""Missing cells are never read on the dense mini-batch path.

The paper's Ω mask (Eq. 3) marks the cells a step may use; a missing
cell may hold anything, and sensor gaps often arrive as NaN.  At B > 1
on the dense path, in float32 and float64, a batch whose missing cells
hold NaN, ±inf or a finite value whose square overflows must produce
the same step fields, factors, error scale and Holt-Winters state as
the same batch with zeros there, bit for bit, and raise no
floating-point warning — and so must a served flush's quality tuples.
"""

import copy

import numpy as np
import pytest

from repro.core import Sofia, SofiaConfig
from repro.core.model import SofiaModelState
from repro.forecast.vector_hw import VectorHoltWinters
from repro.serving.pool import execute_requests

DIMS = (8, 7)
STEP_FIELDS = (
    "completed",
    "outliers",
    "prediction",
    "temporal_forecast",
    "temporal_vector",
)
#: A finite filler per dtype whose square overflows that dtype.
LARGE = {"float64": 1e300, "float32": 1e30}
FILLERS = {
    "nan": lambda rng, n, dtype: np.full(n, np.nan),
    "inf": lambda rng, n, dtype: np.full(n, np.inf),
    "-inf": lambda rng, n, dtype: np.full(n, -np.inf),
    "mixed": lambda rng, n, dtype: rng.choice(
        [np.nan, -np.nan, np.inf, -np.inf], n
    ),
    "large": lambda rng, n, dtype: np.full(n, LARGE[dtype]),
}

# An overflow, invalid value or division by zero anywhere in a step is
# a failure here, not a warning.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _config(dtype):
    # A zero density threshold keeps every batch on the dense path.
    return SofiaConfig(rank=3, period=4, dtype=dtype, density_threshold=0.0)


def _model(config, seed=5):
    rng = np.random.default_rng(seed)
    rank, period, dtype = config.rank, config.period, config.np_dtype
    buffer = rng.uniform(0.5, 1.5, size=(period, rank))
    state = SofiaModelState(
        non_temporal=[
            rng.uniform(0.2, 1.0, size=(d, rank)).astype(dtype) for d in DIMS
        ],
        temporal_buffer=buffer.astype(dtype),
        hw=VectorHoltWinters(
            level=buffer[-1],
            trend=rng.normal(0.0, 0.01, size=rank),
            seasonal=rng.normal(0.0, 0.1, size=(period, rank)),
            alpha=np.full(rank, 0.3),
            beta=np.full(rank, 0.05),
            gamma=np.full(rank, 0.2),
        ),
        sigma=np.full(DIMS, 0.1, dtype=dtype),
        t=3 * period,
    )
    return Sofia.from_state(config, state)


def _batch(rng, batch, dtype, filler):
    """One batch twice: zeros in its missing cells, and ``filler``."""
    ys = rng.normal(1.0, 0.5, size=(batch, *DIMS))
    ys[rng.random(ys.shape) < 0.05] += 30.0  # outliers for Eq. 21-22
    ms = rng.random(ys.shape) < 0.7
    zeros = np.where(ms, ys, 0.0).astype(dtype)
    filled = zeros.copy()
    filled[~ms] = FILLERS[filler](rng, int((~ms).sum()), dtype)
    return zeros, filled, ms


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_same_state(a, b):
    for f_a, f_b in zip(a.non_temporal, b.non_temporal):
        _assert_same_bits(f_a, f_b)
    _assert_same_bits(a.temporal_buffer, b.temporal_buffer)
    _assert_same_bits(a.sigma, b.sigma)
    for name in ("level", "trend", "seasonal"):
        _assert_same_bits(getattr(a.hw, name), getattr(b.hw, name))
    assert a.t == b.t


@pytest.mark.parametrize("filler", sorted(FILLERS))
@pytest.mark.parametrize("batch", [4, 16])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_step_batch_ignores_missing_cells(dtype, batch, filler):
    config = _config(dtype)
    with_zeros = _model(config)
    with_filler = Sofia.from_state(config, copy.deepcopy(with_zeros.state))
    rng = np.random.default_rng(batch)
    # Two batches: the second runs on the state the first left behind.
    for _ in range(2):
        zeros, filled, ms = _batch(rng, batch, dtype, filler)
        want = with_zeros.step_batch(zeros, ms)
        got = with_filler.step_batch(filled, ms)
        assert len(got) == len(want) == batch
        for step_got, step_want in zip(got, want):
            for name in STEP_FIELDS:
                value = getattr(step_got, name)
                _assert_same_bits(value, getattr(step_want, name))
                assert np.isfinite(value).all()
        assert np.count_nonzero([s.outliers for s in got]) > 0
    _assert_same_state(with_filler.state, with_zeros.state)


@pytest.mark.parametrize("filler", sorted(FILLERS))
@pytest.mark.parametrize("batch", [4, 16])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_flush_quality_ignores_missing_cells(dtype, batch, filler):
    config = _config(dtype)
    model = _model(config)
    zeros, filled, ms = _batch(
        np.random.default_rng(batch + 1), batch, dtype, filler
    )

    def flush(ys):
        return execute_requests(
            config, None, copy.deepcopy(model), list(range(batch)), ys, ms
        )

    (want_model, want_results, want_quality, want_scale) = flush(zeros)
    (got_model, got_results, got_quality, got_scale) = flush(filled)
    assert got_quality == want_quality
    assert all(np.isfinite(q[2]) and np.isfinite(q[3]) for q in got_quality)
    assert got_scale == want_scale
    for (seq_got, done_got), (seq_want, done_want) in zip(
        got_results, want_results
    ):
        assert seq_got == seq_want
        _assert_same_bits(done_got, done_want)
    _assert_same_state(got_model.state, want_model.state)
