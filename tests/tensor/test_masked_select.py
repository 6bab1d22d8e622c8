"""Property tests for the branch-free masked select of repro.tensor.masked.

``masked_fill(x, keep_mask(mask, x.dtype), fill)`` must return exactly
the bits of ``np.where(mask, x, fill)`` for float32 and float64, with
NaN payloads, ±inf, -0.0 and subnormals in kept and dropped cells,
for non-contiguous inputs, and without writing to any input other than
an explicit ``out`` buffer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.tensor.masked import keep_mask, masked_fill

BITS = {np.dtype(np.float32): np.int32, np.dtype(np.float64): np.int64}


def _special(dtype):
    """Values whose bits a numeric select could lose or change."""
    info = np.finfo(dtype)
    nan_bits = np.asarray(np.nan, dtype=dtype).view(BITS[np.dtype(dtype)])
    payload_nan = (nan_bits | 1).view(dtype)  # a NaN with a payload bit
    return np.array(
        [
            np.nan,
            -np.nan,
            payload_nan,
            np.inf,
            -np.inf,
            0.0,
            -0.0,
            info.smallest_subnormal,
            -info.smallest_subnormal,
            info.smallest_normal,
            info.max,
            1.0,
        ],
        dtype=dtype,
    )


def _bits(array):
    return np.ascontiguousarray(array).view(BITS[array.dtype])


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    np.testing.assert_array_equal(_bits(got), _bits(want))


@st.composite
def cases(draw):
    """(values, mask, fill) with specials scattered over both sides."""
    dtype = np.dtype(draw(st.sampled_from([np.float32, np.float64])))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=6))
    width = 8 * dtype.itemsize
    elements = st.one_of(
        st.floats(width=width, allow_nan=True, allow_subnormal=True),
        st.sampled_from(list(_special(dtype))),
    )
    values = draw(hnp.arrays(dtype, shape, elements=elements))
    mask = draw(hnp.arrays(np.bool_, shape))
    fill = draw(st.sampled_from([0.0, 1.0]))
    return values, mask, fill


class TestMaskedFill:
    @settings(max_examples=200, deadline=None)
    @given(case=cases())
    def test_bits_equal_np_where(self, case):
        values, mask, fill = case
        before = values.copy()
        got = masked_fill(values, keep_mask(mask, values.dtype), fill)
        _assert_same_bits(got, np.where(mask, values, fill))
        _assert_same_bits(values, before)

    @settings(max_examples=100, deadline=None)
    @given(case=cases(), transpose=st.booleans())
    def test_non_contiguous_inputs(self, case, transpose):
        values, mask, fill = case
        # Every other element along the first axis of a doubled array,
        # optionally transposed: strided views of values and mask.
        big = np.repeat(values, 2, axis=0)
        big_mask = np.repeat(mask, 2, axis=0)
        x, m = big[::2], big_mask[1::2]
        if transpose:
            x, m = x.T, m.T
        before = big.copy()
        got = masked_fill(x, keep_mask(m, x.dtype), fill)
        _assert_same_bits(got, np.where(m, x, fill))
        _assert_same_bits(big, before)

    @settings(max_examples=100, deadline=None)
    @given(case=cases())
    def test_out_is_the_only_buffer_written(self, case):
        values, mask, fill = case
        want = np.where(mask, values, fill)
        keep = keep_mask(mask, values.dtype)
        keep_before, mask_before = keep.copy(), mask.copy()
        got = masked_fill(values, keep, fill, out=values)
        assert got is values
        _assert_same_bits(values, want)
        np.testing.assert_array_equal(keep, keep_before)
        np.testing.assert_array_equal(mask, mask_before)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fill", [0.0, 1.0])
    def test_every_special_value_kept_and_dropped(self, dtype, fill):
        specials = _special(dtype)
        values = np.concatenate([specials, specials])
        mask = np.repeat([True, False], specials.size)
        got = masked_fill(values, keep_mask(mask, dtype), fill)
        _assert_same_bits(got, np.where(mask, values, fill))
        _assert_same_bits(got[: specials.size], specials)
        assert np.all(got[specials.size:] == fill)
        assert not np.signbit(got[specials.size:]).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keep_mask_is_all_ones_or_zeros(self, dtype):
        mask = np.array([[True, False], [False, True]])
        keep = keep_mask(mask, dtype)
        assert keep.dtype == BITS[np.dtype(dtype)]
        np.testing.assert_array_equal(keep, [[-1, 0], [0, -1]])

    def test_mismatched_dtype_rejected(self):
        keep = keep_mask(np.ones(3, dtype=bool), np.float32)
        with pytest.raises(TypeError):
            masked_fill(np.ones(3), keep)

    @pytest.mark.parametrize("fill", [2.0, -0.0, np.nan])
    def test_other_fills_rejected(self, fill):
        keep = keep_mask(np.ones(3, dtype=bool), np.float64)
        with pytest.raises(ValueError):
            masked_fill(np.ones(3), keep, fill)
