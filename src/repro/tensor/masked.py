"""Helpers for incomplete tensors: masked norms, errors, and imputation.

An observation mask is the paper's indicator tensor ``Ω`` (Eq. 3): truthy
entries are observed, falsy entries are missing.

The dynamic step applies ``Ω`` to every tensor-sized quantity of a
mini-batch — the Eq. 21 outlier split, the Eq. 22 scale advance, the
Eq. 24-25 residual — and the serving flush once more to its quality
aggregates.  Those selects go through :func:`keep_mask` and
:func:`masked_fill`: the mask becomes an all-ones/all-zeros integer
per cell once, and each select is a bitwise AND of the values' IEEE bit
pattern with it.  ``np.where`` branches on every cell, and on a
randomly ~70%-observed ``(16, 40, 30)`` batch its mispredicted branches
make it several times slower than the AND.  The bits are the same,
including NaN and ±inf in the dropped cells, which are never read as
numbers.
"""

from __future__ import annotations

import math

import numpy as np

from repro.tensor.validation import check_mask, check_same_shape

__all__ = [
    "apply_mask",
    "impute",
    "keep_mask",
    "masked_fill",
    "masked_frobenius_norm",
    "masked_relative_error",
    "observed_fraction",
]


def apply_mask(tensor: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Return ``Ω ⊛ X``: a copy of ``tensor`` with missing entries zeroed."""
    arr = np.asarray(tensor, dtype=np.float64)
    m = check_mask(mask, arr.shape)
    return np.where(m, arr, 0.0)


#: The same-width signed integer type of each float dtype a step runs in,
#: and back: a float array viewed as its bit type can be ANDed with a
#: keep mask.
_BITS = {
    np.dtype(np.float32): np.dtype(np.int32),
    np.dtype(np.float64): np.dtype(np.int64),
}
_FLOATS = {bits: dtype for dtype, bits in _BITS.items()}
#: The bit pattern of the fill 1.0 in each bit type (built once here, so
#: a one-slice batch pays no per-call constant set-up).
_ONE_BITS = {
    bits: np.asarray(1.0, dtype=dtype).view(bits)[()]
    for dtype, bits in _BITS.items()
}


def keep_mask(mask: np.ndarray, dtype) -> np.ndarray:
    """The integer keep mask :func:`masked_fill` applies to ``dtype`` values.

    ``mask`` is a boolean array (a checked ``Ω``); ``dtype`` is float32
    or float64.  Returns an array of ``mask``'s shape in the
    same-width signed integer type (int32 or int64) holding ``-1``
    (all bits set) where ``mask`` is true and ``0`` elsewhere.  Build it
    once per mask and dtype, and pass it to every select that uses
    that mask.
    """
    return np.negative(mask.view(np.int8)).astype(_BITS[np.dtype(dtype)])


def masked_fill(
    values: np.ndarray,
    keep: np.ndarray,
    fill: float = 0.0,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``np.where(mask, values, fill)`` bit for bit, without branches.

    ``keep`` is :func:`keep_mask` of ``mask`` for ``values.dtype``;
    ``fill`` is ``0.0`` or ``1.0``.  Kept cells keep their exact bits
    (NaN payloads, ±inf, -0.0 and subnormals included) and dropped
    cells become ``fill`` whatever they held.  The result is a new
    array unless ``out`` (of ``values``' dtype and the broadcast shape)
    is given; ``out`` may be ``values`` itself, which is then the only
    input written.
    """
    bits = keep.dtype
    if values.dtype != _FLOATS.get(bits):
        raise TypeError(
            f"keep mask of {bits} does not apply to {values.dtype} values"
        )
    x = values.view(bits)
    target = None if out is None else x if out is values else out.view(bits)
    if fill == 0.0 and math.copysign(1.0, fill) > 0.0:
        selected = np.bitwise_and(x, keep, out=target)
    elif fill == 1.0:
        # (x ^ c) & keep ^ c is x where keep is all ones and c where zero.
        one = _ONE_BITS[bits]
        selected = np.bitwise_xor(x, one, out=target)
        selected &= keep
        selected ^= one
    else:
        raise ValueError(f"fill must be 0.0 or 1.0, got {fill!r}")
    return selected.view(values.dtype) if out is None else out


def masked_frobenius_norm(tensor: np.ndarray, mask: np.ndarray) -> float:
    """Frobenius norm over the observed entries only."""
    arr = np.asarray(tensor, dtype=np.float64)
    m = check_mask(mask, arr.shape)
    return float(np.linalg.norm(arr[m]))


def masked_relative_error(
    estimate: np.ndarray, truth: np.ndarray, mask: np.ndarray
) -> float:
    """``||Ω ⊛ (estimate - truth)||_F / ||Ω ⊛ truth||_F``.

    Defined as the masked residual norm itself when the masked truth is
    identically zero.
    """
    est = np.asarray(estimate, dtype=np.float64)
    tru = np.asarray(truth, dtype=np.float64)
    check_same_shape(est, tru, names=("estimate", "truth"))
    m = check_mask(mask, est.shape)
    denom = float(np.linalg.norm(tru[m]))
    num = float(np.linalg.norm((est - tru)[m]))
    if denom == 0.0:
        return num
    return num / denom


def observed_fraction(mask: np.ndarray) -> float:
    """Fraction of observed entries in a mask."""
    m = check_mask(mask)
    return float(np.count_nonzero(m)) / m.size


def impute(observed: np.ndarray, mask: np.ndarray, estimate: np.ndarray) -> np.ndarray:
    """Fill the missing entries of ``observed`` with values from ``estimate``.

    Observed entries are kept verbatim; this is how a completed tensor is
    assembled from data plus a low-rank reconstruction.
    """
    obs = np.asarray(observed, dtype=np.float64)
    est = np.asarray(estimate, dtype=np.float64)
    check_same_shape(obs, est, names=("observed", "estimate"))
    m = check_mask(mask, obs.shape)
    return np.where(m, obs, est)
