"""Batched linear-algebra kernels shared by SOFIA's hot paths.

The seed implementation spent most of its time in Python-level loops:
one ``np.linalg.solve`` per factor row (Theorem 1), a sequential scalar
sweep over every temporal row (Theorem 2, Eq. 17-18), ``np.add.at``
scatter-adds for the normal-equation pieces (Eq. 14-15), and a
per-observed-entry recursive-least-squares loop in OLSTEC.  This module
replaces each of those with a batched formulation:

* :func:`solve_rows` stacks all ``(I_mode, R, R)`` ridge systems and
  calls a single batched ``np.linalg.solve`` (with a vectorized
  pseudo-inverse fallback for singular batches and an all-zero-row
  passthrough that keeps the caller's fallback rows).
* :func:`accumulate_normal_equations` accumulates ``B_i``/``c_i`` with
  dense BLAS contraction chains (batched) or per-column histogram
  reductions over the observed entries (sparse) instead of the
  buffered, element-at-a-time ``np.add.at``.
* :func:`temporal_sweep` runs the Theorem-2 row sweep in four batched
  color classes chosen so that no two rows of a class are lag-1 or
  lag-``m`` neighbors; updating a class jointly is therefore *exactly*
  a Gauss-Seidel sweep under the color ordering (see below).
* :func:`mttkrp` contracts a dense residual against all-but-one factor
  matrix with one ``einsum`` instead of materializing a Khatri-Rao
  product.
* :func:`rls_update_rows` replays OLSTEC's per-entry RLS recursions in
  batched rounds: entries of different factor rows are independent, so
  round ``j`` updates the ``j``-th observed entry of every row at once
  while preserving the per-row ordering bit for bit.
* :func:`kruskal_reconstruct_rows` evaluates ``B`` Kruskal
  reconstructions ``[[factors; w_b]]`` in one BLAS matmul against the
  shared Khatri-Rao matrix — the mini-batch streaming engine uses it to
  predict and complete a whole window of incoming subtensors per call.

Backend seam
------------
Every dispatched kernel is looked up on the *active backend*, a
:class:`KernelBackend` record registered in this module.  Five backends
ship today:

* ``"batched"`` — the dense-contraction path: BLAS tensordot chains,
  batched solves, dense scatter.  Work is ``O(prod(dims) R^2)`` per
  accumulation/reconstruction regardless of how many entries are
  actually observed.
* ``"sparse"`` — per-entry gather/segment work over observed
  coordinates only (``O(nnz R^2)``), with no dense intermediate of the
  subtensor shape.  The accumulation is the per-column ``np.bincount``
  histogram path, MTTKRP gathers factor rows at the tensor's nonzero
  coordinates, and reconstruction evaluates ``[[factors; w_b]]`` only
  at caller-supplied coordinates.  This is the right path for the
  <5%-observed real-world streams of the paper's Sec. VI.
* ``"auto"`` — the default: dispatches each call to ``"sparse"`` or
  ``"batched"`` by comparing the observed fraction against
  ``AUTO_DENSITY_THRESHOLD`` (5%, where the dense BLAS constants beat
  the scatter-gather constants on the benchmark sweep).
* ``"xp"`` — the dense contraction strategy written once against the
  Python Array API standard, so the identical kernel code runs on
  NumPy, torch (CPU or CUDA), or CuPy arrays.  The array library is
  selected by :mod:`repro.tensor.device` (``set_array_module``, the
  ``REPRO_ARRAY_MODULE`` environment variable); host NumPy inputs are
  converted at the kernel boundary and host outputs come back as NumPy
  arrays, while device-native inputs stay resident on the device (the
  dynamic phase uses this to keep factors on-device across a whole
  mini-batch).  Beyond the standard, this backend relies on
  integer-array gather *and* scatter-assignment indexing, which NumPy,
  torch, and CuPy all provide.
* ``"reference"`` — the seed's scalar semantics, used by the parity
  tests and the scalar-vs-batched benchmarks.

The active backend defaults to ``"auto"`` and can be overridden with
:func:`set_backend`, the :func:`use_backend` context manager, or the
``REPRO_KERNEL_BACKEND`` environment variable (read once at import, so
CI can run whole suites under one backend).

Dtype policy
------------
Kernels no longer hard-cast to ``float64``: every kernel computes in
:func:`result_dtype` of its floating inputs — float32 in, float32 out;
mixed or non-float inputs promote to float64 — so a float32 SOFIA run
(``SofiaConfig(dtype="float32")``) stays float32 through the whole
seam.  A backend can pin the policy instead via its
:attr:`KernelBackend.dtype` field (e.g. a GPU backend that always
computes in float32); ``None`` (every shipped backend) means "follow
the inputs".  The relative ridge of the row solves is dtype-aware
(:func:`_ridge_for`): ``1e-10`` in float64 and ``~1e-4`` in float32,
where ``1e-10`` would vanish against machine epsilon and leave
singular systems singular.

Authoring a new backend
-----------------------
A new execution path (GPU, distributed, ...) registers one
:class:`KernelBackend` record — nothing else in the code base has to
change::

    from repro.tensor import kernels

    kernels.register_backend(kernels.KernelBackend(
        name="my-backend",
        solve_rows=...,                   # (lhs, rhs, fallback) -> (n, R)
        accumulate_normal_equations=...,  # (coords, values, factors, mode)
                                          #   -> ((I_mode, R, R), (I_mode, R))
        temporal_sweep=...,               # (B, c, temporal, *, lambda1,
                                          #   lambda2, period) -> (I_N, R)
        mttkrp=...,                       # (tensor, factors, mode, weights)
        rls_update_rows=...,              # in-place RLS rounds
        kruskal_reconstruct_rows=...,     # (factors, weight_rows, coords)
    ))

Contract highlights: ``solve_rows`` must keep ``fallback`` rows where
both sides are zero; ``temporal_sweep`` must realize a valid
Gauss-Seidel ordering of Eq. 17-18 (any ordering — the conformance
suite checks the zero-coupling case exactly and the coupled case at the
shared fixed point); ``kruskal_reconstruct_rows`` must honor the
optional ``coords`` gather form; ``mttkrp`` must accept ``mode=None``
(contract everything) and a ``None`` placeholder in the skipped
``mode`` slot of ``factors``.  Partial backends can borrow the shipped
implementations for kernels they do not specialize (the sparse backend
reuses the batched ``solve_rows``/``temporal_sweep``/``rls_update_rows``,
which already run over per-row systems or observed entries only).  The
``keeps_dense_steps`` flag (default ``True``) guarantees the dynamic
phase never bypasses the backend's kernels with its own CPU per-entry
fast path — leave it set unless that path is your execution strategy.
Three more optional fields shape the seam-wide policies:

* ``dtype`` — pin every kernel of this backend to one computation
  dtype (``"float32"``/``"float64"``); ``None`` follows the inputs
  (see *Dtype policy* above).
* ``to_device`` / ``from_device`` — host↔device boundary converters.
  When set (the ``"xp"`` backend maps them to
  :func:`repro.tensor.device.to_device` / ``from_device``), the dynamic
  phase moves the factor matrices to the device once per
  step/mini-batch and back once at the end, so consecutive kernel
  calls reuse the resident copies instead of re-uploading per call.
  ``None`` (every CPU backend) keeps all arrays host-side with zero
  overhead.

Every registered backend is automatically exercised against
``"reference"`` by ``tests/tensor/backend_conformance.py`` — register
it before the suite runs and the parity checks (now swept over both
float64 and float32 with per-dtype tolerances) come for free.

Multicolor Gauss-Seidel ordering
--------------------------------
The temporal rows couple only at lags 1 and ``m`` (Eq. 17-18).  Color
row ``i`` with ``(i mod 2, floor(i / m) mod 2)``: lag-1 neighbors always
differ in the first bit and lag-``m`` neighbors always differ in the
second (``floor((i + m) / m) = floor(i / m) + 1``), so rows sharing a
color never couple.  Solving a whole color class in one batched call is
then identical to solving its rows one by one, i.e. the blocked sweep is
an exact Gauss-Seidel sweep in the ordering "color 0 rows, then color 1,
..." — same fixed point as the seed's sequential sweep, reached through
a different (but equally valid) row ordering.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.exceptions import ConfigError, ShapeError
from repro.tensor import device as _device
from repro.tensor.dense import unfold
from repro.tensor.products import khatri_rao, kruskal_to_tensor

__all__ = [
    "AUTO_DENSITY_THRESHOLD",
    "BACKEND_ENV_VAR",
    "KernelBackend",
    "accumulate_normal_equations",
    "active_backend",
    "available_backends",
    "from_device",
    "kruskal_column_sq_norms",
    "kruskal_reconstruct_rows",
    "lag_neighbor_counts",
    "lag_neighbor_sums",
    "masked_soft_threshold",
    "mttkrp",
    "mttkrp_observed",
    "observed_factor_products",
    "register_backend",
    "result_dtype",
    "rls_update_rows",
    "scatter_normal_equations",
    "segment_sum",
    "set_backend",
    "soft_threshold",
    "solve_rows",
    "temporal_sweep",
    "to_device",
    "use_backend",
]

#: Observed entries are processed in chunks of this many to bound the
#: size of the per-chunk outer-product workspace.
_CHUNK = 1 << 16
#: Relative ridge added to every row system before solving (Theorem 1-2
#: systems are positive semi-definite; the ridge makes them definite).
_RIDGE = 1e-10


def _ridge_for(dtype: Any) -> float:
    """Relative ridge coefficient for the row solves at ``dtype``.

    The float64 ridge (``1e-10``) is far below float32 machine epsilon
    (``~1.2e-7``): added to an O(1) system in float32 it would vanish
    and leave a singular system singular.  Lower-precision dtypes get
    ``1000 eps`` instead (``~1.2e-4`` in float32) — big enough to make
    rank-deficient systems solvable, small enough to stay inside the
    float32 conformance tolerances.
    """
    dt = np.dtype(dtype)
    if dt == np.dtype(np.float64):
        return _RIDGE
    return float(np.finfo(dt).eps) * 1e3


_FLOAT32 = np.dtype(np.float32)
_FLOAT64 = np.dtype(np.float64)


def _dtype_of(array: Any) -> np.dtype:
    """NumPy dtype of an array-like, device arrays included."""
    if isinstance(array, np.ndarray):
        return array.dtype
    dtype = getattr(array, "dtype", None)
    if dtype is None:
        return np.asarray(array).dtype
    try:
        return np.dtype(dtype)
    except TypeError:
        pass
    try:
        # torch dtypes stringify as "torch.float32".
        return np.dtype(str(dtype).rsplit(".", 1)[-1])
    except TypeError:
        # Device-only dtypes with no NumPy equivalent (e.g. torch's
        # bfloat16): the seam policy promotes them to float64 like any
        # other non-float32/float64 input.
        return np.dtype(np.float64)


def result_dtype(*arrays: Any) -> np.dtype:
    """The seam-wide computation dtype for one kernel call.

    When the active backend pins a dtype (:attr:`KernelBackend.dtype`),
    that wins.  Otherwise the kernels follow their inputs: the NumPy
    promotion of all floating inputs, clamped to float32/float64
    (anything else — integer, bool, or float16 inputs, or no floating
    input at all — computes in float64, preserving the seed semantics
    for non-float callers).  ``None`` entries are ignored so optional
    arguments can be passed straight through.
    """
    pinned = active_backend().dtype
    if pinned is not None:
        return np.dtype(pinned)
    floats = set()
    for array in arrays:
        if array is not None:
            dt = _dtype_of(array)
            if dt.kind == "f":
                floats.add(dt)
    if not floats or _FLOAT64 in floats:
        return _FLOAT64
    common = np.result_type(*floats)
    return common if common == _FLOAT32 else _FLOAT64


# ---------------------------------------------------------------------------
# Backend-independent building blocks
# ---------------------------------------------------------------------------


def segment_sum(
    segments: np.ndarray, data: np.ndarray, num_segments: int
) -> np.ndarray:
    """Sum rows of ``data`` into ``num_segments`` bins given by ``segments``.

    A drop-in replacement for ``np.add.at(out, segments, data)`` built on
    a stable argsort plus ``np.add.reduceat`` over the sorted segment
    boundaries, which runs in vectorized C instead of one buffered ufunc
    call per element.

    Parameters
    ----------
    segments:
        Integer bin index per row of ``data``, each in
        ``[0, num_segments)``.
    data:
        Array whose leading axis aligns with ``segments``.
    num_segments:
        Number of output bins.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(num_segments, *data.shape[1:])``.
    """
    segments = np.asarray(segments)
    data = np.asarray(data, dtype=result_dtype(data))
    if segments.shape[0] != data.shape[0]:
        raise ShapeError(
            f"segments length {segments.shape[0]} does not match data rows "
            f"{data.shape[0]}"
        )
    out = np.zeros((num_segments,) + data.shape[1:], dtype=data.dtype)
    if segments.size == 0:
        return out
    order = np.argsort(segments, kind="stable")
    sorted_segments = segments[order]
    flat = np.ascontiguousarray(data[order]).reshape(segments.size, -1)
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_segments[1:] != sorted_segments[:-1]))
    )
    sums = np.add.reduceat(flat, starts, axis=0)
    out.reshape(num_segments, -1)[sorted_segments[starts]] = sums
    return out


def scatter_normal_equations(
    rows: np.ndarray,
    design: np.ndarray,
    targets: np.ndarray,
    dim: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Scatter design rows into per-row normal equations (Eq. 14-15).

    For every observed entry with factor-row index ``rows[k]``, design
    row ``x_k`` and target ``y_k``, accumulates ``x_k x_kᵀ`` into
    ``B[rows[k]]`` and ``y_k x_k`` into ``c[rows[k]]`` using one segment
    reduction for both pieces.

    Returns
    -------
    (B, c):
        Arrays of shapes ``(dim, R, R)`` and ``(dim, R)``.
    """
    design = np.asarray(design, dtype=result_dtype(design, targets))
    n, rank = design.shape
    payload = np.empty((n, rank * rank + rank), dtype=design.dtype)
    payload[:, : rank * rank] = (
        design[:, :, None] * design[:, None, :]
    ).reshape(n, -1)
    payload[:, rank * rank:] = targets[:, None] * design
    summed = segment_sum(rows, payload, dim)
    return (
        summed[:, : rank * rank].reshape(dim, rank, rank),
        summed[:, rank * rank:],
    )


def observed_factor_products(
    coords: tuple[np.ndarray, ...],
    factors: Sequence[np.ndarray | None],
    *,
    skip_mode: int | None = None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Row-wise Hadamard product of factor rows at observed coordinates.

    The design row of an observed entry ``(i_1, ..., i_N)`` is
    ``⊛_{l ≠ skip_mode} U^(l)[i_l]`` (optionally times ``weights``) — the
    building block of both the Theorem-1 normal equations and the
    temporal-weight least squares every streaming baseline shares.  The
    ``skip_mode`` entry of ``factors`` is never read and may be ``None``.
    """
    rank = next(f.shape[1] for f in factors if f is not None)
    dtype = result_dtype(weights, *factors)
    nnz = coords[0].size
    prod = np.ones((nnz, rank), dtype=dtype)
    if weights is not None:
        prod *= np.asarray(weights, dtype=dtype)[None, :]
    for axis, factor in enumerate(factors):
        if axis == skip_mode:
            continue
        prod *= factor[coords[axis], :]
    return prod


def kruskal_column_sq_norms(
    factors: Sequence[np.ndarray],
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Per-column squared norms of ``khatri_rao(factors) * weights``.

    Khatri-Rao columns are Kronecker products, so
    ``||kr[:, r]||² = Π_l ||U^(l)[:, r]||²`` — which gives
    ``trace(KᵀK) = Σ_r Π_l ||U^(l)[:, r]||² w_r²`` without materializing
    ``K``.  Used for the Lipschitz step normalization of the dynamic
    updates (Eq. 24-25).
    """
    dtype = result_dtype(weights, *factors)
    if factors:
        col_sq = np.ones(factors[0].shape[1], dtype=dtype)
        for factor in factors:
            col_sq = col_sq * np.einsum("ir,ir->r", factor, factor)
    elif weights is not None:
        col_sq = np.ones(np.asarray(weights).shape[0], dtype=dtype)
    else:
        raise ShapeError("need at least one factor or a weight vector")
    if weights is not None:
        w = np.asarray(weights, dtype=dtype)
        col_sq = col_sq * w * w
    return col_sq.astype(dtype, copy=False)


def lag_neighbor_counts(length: int, lag: int) -> np.ndarray:
    """Number of in-range lag-``lag`` neighbors for every row at once.

    Vectorized form of :func:`repro.core.smoothness.neighbor_count`: the
    diagonal coefficient multiplicity of the temporal row update
    (Eq. 17-18).
    """
    if length < 1:
        raise ConfigError(f"length must be >= 1, got {length}")
    if lag < 1:
        raise ConfigError(f"lag must be >= 1, got {lag}")
    idx = np.arange(length)
    return (idx >= lag).astype(np.float64) + (idx < length - lag)


def lag_neighbor_sums(
    matrix: np.ndarray,
    lag: int,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Sum of the existing lag-``lag`` neighbor rows for ``rows`` at once.

    Vectorized form of :func:`repro.core.smoothness.neighbor_sum` (the
    right-hand-side smoothness term of Eq. 17).
    """
    u = np.asarray(matrix, dtype=result_dtype(matrix))
    length = u.shape[0]
    if rows is None:
        rows = np.arange(length)
    total = np.zeros((rows.shape[0], u.shape[1]), dtype=u.dtype)
    left = rows - lag
    has_left = left >= 0
    total[has_left] += u[left[has_left]]
    right = rows + lag
    has_right = right < length
    total[has_right] += u[right[has_right]]
    return total


def soft_threshold(values: np.ndarray, threshold: float) -> np.ndarray:
    """Element-wise soft-thresholding ``sign(x) max(|x| - λ, 0)`` (Eq. 12)."""
    arr = np.asarray(values, dtype=result_dtype(values))
    return np.sign(arr) * np.maximum(np.abs(arr) - threshold, 0.0)


def masked_soft_threshold(
    observed: np.ndarray,
    predicted: np.ndarray,
    mask: np.ndarray,
    threshold: float,
) -> np.ndarray:
    """Soft-threshold the masked residual ``Ω ⊛ (Y - X̂)`` in one pass.

    The initialization loop (Alg. 1 line 8) refreshes its outlier tensor
    with exactly this expression once per outer iteration over the full
    start-up tensor, so fusing the mask and the shrinkage avoids two
    full-size temporaries per call.
    """
    residual = np.subtract(observed, predicted)
    np.multiply(residual, mask, out=residual)
    return soft_threshold(residual, threshold)


# ---------------------------------------------------------------------------
# Batched kernels (the default backend)
# ---------------------------------------------------------------------------


def _batched_solve_rows(
    lhs: np.ndarray,
    rhs: np.ndarray,
    fallback: np.ndarray | None = None,
) -> np.ndarray:
    """Solve all row systems with one batched (ridged) ``np.linalg.solve``.

    Rows whose system is numerically singular even after the ridge are
    handled by a vectorized pseudo-inverse fallback; rows whose ``lhs``
    *and* ``rhs`` are entirely zero (no observations and no smoothness
    coupling) keep their ``fallback`` value.
    """
    dtype = result_dtype(lhs, rhs, fallback)
    lhs = np.asarray(lhs, dtype=dtype)
    rhs = np.asarray(rhs, dtype=dtype)
    n, rank = rhs.shape
    if n == 0:
        return rhs.copy()
    scale = np.einsum("nii->n", lhs) / rank
    ridged = lhs + (_ridge_for(dtype) * (1.0 + scale))[:, None, None] * np.eye(
        rank, dtype=dtype
    )
    try:
        solution = np.linalg.solve(ridged, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        # At least one matrix in the batch is exactly singular: fall back
        # to the batched minimum-norm least-squares solution for all rows.
        solution = np.matmul(np.linalg.pinv(ridged), rhs[:, :, None])[:, :, 0]
    if fallback is not None:
        inactive = ~(lhs.any(axis=(1, 2)) | rhs.any(axis=1))
        if inactive.any():
            solution[inactive] = np.asarray(fallback, dtype=dtype)[inactive]
    return solution


def _dense_mttkrp_chain(
    tensor: np.ndarray,
    mats: Sequence[np.ndarray | None],
    mode: int | None,
    dtype: np.dtype,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """MTTKRP as a chain of matmul / broadcast-multiply-sum contractions.

    Contracts every mode except ``mode`` against the matching matrix in
    ``mats`` (whose entry at ``mode`` is ignored), tying all contractions
    to one shared trailing column index.  Equivalent to
    ``unfold(tensor, mode) @ (khatri_rao(others) * weights)`` but without
    materializing the Khatri-Rao matrix and without per-call einsum-path
    overhead.  ``dtype`` is the caller's :func:`result_dtype`.

    The longest axis contracts first (ties: the higher axis first), as
    one BLAS matmul — the transpose-reshape-matmul that ``tensordot``
    runs, without its Python overhead — so every later
    broadcast-multiply-sum runs over the smallest remaining temporary: a
    length-1 batch axis then costs one small sum, not a full-size
    product.
    """
    order = sorted(
        (axis for axis in range(tensor.ndim) if axis != mode),
        key=lambda axis: (tensor.shape[axis], axis),
        reverse=True,
    )
    out = np.asarray(tensor, dtype=dtype)
    if not order:
        return out
    first = order[0]
    mat = np.asarray(mats[first], dtype=dtype)
    if weights is not None:
        mat = mat * np.asarray(weights, dtype=dtype)[None, :]
    live = [axis for axis in range(out.ndim) if axis != first]
    kept = [out.shape[axis] for axis in live]
    out = (
        out.transpose(live + [first]).reshape(math.prod(kept), len(mat)) @ mat
    ).reshape(kept + [mat.shape[1]])
    for axis in order[1:]:
        pos = live.index(axis)
        del live[pos]
        mat = np.asarray(mats[axis], dtype=dtype)
        broadcast = [1] * out.ndim
        broadcast[pos] = mat.shape[0]
        broadcast[-1] = mat.shape[1]
        out = (out * mat.reshape(broadcast)).sum(axis=pos)
    return out


#: Observed fraction above which the dense contraction paths beat the
#: per-entry sparse paths (dense work is O(prod(dims) R^2) at BLAS
#: speed; sparse work is O(nnz R^2) with scatter-gather constants).
#: The ``"auto"`` backend dispatches each call across this threshold.
AUTO_DENSITY_THRESHOLD = 0.05


def _batched_accumulate_normal_equations(
    coords: tuple[np.ndarray, ...],
    values: np.ndarray,
    factors: Sequence[np.ndarray],
    mode: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Dense-contraction accumulation of ``B_i``/``c_i`` (Eq. 14-15).

    Scatters the observed values and the indicator back to dense arrays,
    then computes ``c`` as one MTTKRP of the masked values and ``B`` as
    one MTTKRP of the indicator against the *pair* matrices
    ``U^(l) ⊙row U^(l)`` of shape ``(I_l, R²)`` — both run as BLAS-backed
    tensordot chains.  Work is ``O(prod(dims) R²)`` regardless of how
    many entries are observed; the sparse backend covers the low-density
    regime.
    """
    rank = factors[0].shape[1]
    dim = factors[mode].shape[0]
    dtype = result_dtype(values, *factors)
    if values.size == 0:
        return (
            np.zeros((dim, rank, rank), dtype=dtype),
            np.zeros((dim, rank), dtype=dtype),
        )
    shape = tuple(f.shape[0] for f in factors)
    dense_values = np.zeros(shape, dtype=dtype)
    dense_values[coords] = values
    indicator = np.zeros(shape, dtype=dtype)
    indicator[coords] = 1.0
    big_c = _dense_mttkrp_chain(dense_values, factors, mode, dtype)
    pairs = [
        (f[:, :, None] * f[:, None, :]).reshape(f.shape[0], rank * rank)
        for f in factors
    ]
    big_b = _dense_mttkrp_chain(indicator, pairs, mode, dtype).reshape(
        shape[mode], rank, rank
    )
    return big_b, big_c


def _batched_temporal_sweep(
    big_b: np.ndarray,
    big_c: np.ndarray,
    temporal: np.ndarray,
    *,
    lambda1: float,
    lambda2: float,
    period: int,
) -> np.ndarray:
    """Theorem-2 temporal sweep in four batched Gauss-Seidel color classes.

    Rows are colored ``(i mod 2, floor(i / m) mod 2)`` so no two rows of
    one class are lag-1 or lag-``m`` neighbors (module docstring); each
    class is then one batched ridge solve that reads the freshest values
    of the previously updated classes — preserving the within-sweep
    neighbor coupling of Eq. 17-18.
    """
    dtype = result_dtype(big_b, big_c, temporal)
    big_b = np.asarray(big_b, dtype=dtype)
    big_c = np.asarray(big_c, dtype=dtype)
    out = np.asarray(temporal, dtype=dtype).copy()
    length, rank = out.shape
    diag = np.asarray(
        lambda1 * lag_neighbor_counts(length, 1)
        + lambda2 * lag_neighbor_counts(length, period),
        dtype=dtype,
    )
    eye = np.eye(rank, dtype=dtype)
    idx = np.arange(length)
    colors = (idx & 1) + 2 * ((idx // period) & 1)
    for color in range(4):
        rows = np.flatnonzero(colors == color)
        if rows.size == 0:
            continue
        lhs = big_b[rows] + diag[rows, None, None] * eye
        rhs = (
            big_c[rows]
            + lambda1 * lag_neighbor_sums(out, 1, rows)
            + lambda2 * lag_neighbor_sums(out, period, rows)
        )
        out[rows] = _batched_solve_rows(lhs, rhs, fallback=out[rows])
    return out


def _batched_mttkrp(
    tensor: np.ndarray,
    factors: Sequence[np.ndarray],
    mode: int | None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Dense MTTKRP ``unfold(X, mode) · (⊙_{l≠mode} U^(l)) diag(w)``.

    Runs as a chain of pairwise contractions (the first one a BLAS
    ``tensordot``) instead of materializing the Khatri-Rao matrix.
    ``mode=None`` contracts *every* mode, leaving only the rank index —
    the ``(⊙_n U^(n))ᵀ vec(R)`` term of Eq. 25.
    """
    dtype = result_dtype(
        tensor, weights, *[f for f in factors if f is not None]
    )
    tensor = np.asarray(tensor, dtype=dtype)
    if tensor.ndim == 1 and mode is not None:
        # Single-mode tensor: the empty Khatri-Rao product is all-ones.
        rank = next(f.shape[1] for f in factors if f is not None)
        row = (
            np.asarray(weights, dtype=dtype)[None, :]
            if weights is not None
            else np.ones((1, rank), dtype=dtype)
        )
        return tensor[:, None] * row
    return _dense_mttkrp_chain(tensor, factors, mode, dtype, weights)


def _batched_rls_update_rows(
    factor: np.ndarray,
    cov: np.ndarray,
    rows: np.ndarray,
    regressors: np.ndarray,
    targets: np.ndarray,
    beta: float,
) -> None:
    """Replay per-row RLS recursions in batched rounds (OLSTEC hot loop).

    Entries hitting *different* factor rows are independent, so round
    ``j`` applies the rank-1 RLS update for the ``j``-th observed entry
    of every row simultaneously; a stable sort keeps the original
    within-row entry order, making the result identical to the scalar
    per-entry loop.  Mutates ``factor`` and ``cov`` in place.
    """
    rows = np.asarray(rows)
    if rows.size == 0:
        return
    dtype = result_dtype(factor, cov, regressors, targets)
    order = np.argsort(rows, kind="stable")
    rows_sorted = rows[order]
    x_sorted = np.asarray(regressors, dtype=dtype)[order]
    t_sorted = np.asarray(targets, dtype=dtype)[order]
    is_start = np.concatenate(([True], rows_sorted[1:] != rows_sorted[:-1]))
    starts = np.flatnonzero(is_start)
    group = np.cumsum(is_start) - 1
    position = np.arange(rows_sorted.size) - starts[group]
    for round_index in range(int(position.max()) + 1):
        sel = position == round_index
        r = rows_sorted[sel]
        x = x_sorted[sel]
        p = cov[r]
        px = np.einsum("kij,kj->ki", p, x)
        gain = px / (beta + np.einsum("kj,kj->k", x, px))[:, None]
        error = t_sorted[sel] - np.einsum("kj,kj->k", factor[r], x)
        factor[r] += gain * error[:, None]
        cov[r] = (p - gain[:, :, None] * px[:, None, :]) / beta


def _batched_kruskal_reconstruct_rows(
    factors: Sequence[np.ndarray],
    weight_rows: np.ndarray,
    coords: tuple[np.ndarray, ...] | None = None,
) -> np.ndarray:
    """All ``B`` reconstructions ``[[factors; w_b]]`` in one fused pass.

    Two equivalent strategies, picked by shape: when the batch is small
    relative to the last mode, a broadcast chain grows
    ``(B, I_1, ..., I_l, R)`` one mode at a time and finishes with a
    single BLAS matmul against the last factor (no ``prod(I) x R``
    Khatri-Rao temporary); otherwise the shared Khatri-Rao matrix is
    materialized once and the whole mini-batch is one
    ``W @ khatri_rao(factors)ᵀ`` matmul.  With ``coords``, the dense
    stack is still built and then gathered — this is the dense backend;
    the sparse backend evaluates only the requested entries.
    """
    dtype = result_dtype(weight_rows, *factors)
    weight_rows = np.asarray(weight_rows, dtype=dtype)
    if weight_rows.ndim != 2:
        raise ShapeError(
            f"weight rows must be 2-D (batch, rank), got {weight_rows.shape}"
        )
    mats = [np.asarray(f, dtype=dtype) for f in factors]
    shape = tuple(f.shape[0] for f in mats)
    n_batch = weight_rows.shape[0]
    if len(mats) == 1:
        dense = weight_rows @ mats[0].T
    elif n_batch < mats[-1].shape[0]:
        out = weight_rows
        for mat in mats[:-1]:
            out = out[..., None, :] * mat
        flat = out.reshape(-1, out.shape[-1])
        dense = (flat @ mats[-1].T).reshape((n_batch,) + shape)
    else:
        kr = khatri_rao(mats)
        dense = (weight_rows @ kr.T).reshape((n_batch,) + shape)
    if coords is None:
        return dense
    return dense[coords]


# ---------------------------------------------------------------------------
# Sparse kernels (per-entry gather/segment work over observed coordinates)
# ---------------------------------------------------------------------------


def mttkrp_observed(
    coords: tuple[np.ndarray, ...],
    values: np.ndarray,
    factors: Sequence[np.ndarray | None],
    mode: int | None,
    dim: int | None = None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """MTTKRP of a sparse tensor given directly by coordinates and values.

    The backend-independent building block of the sparse execution path:
    for observed entries ``(coords, values)`` it gathers the matching
    factor rows, multiplies them per entry, and segment-sums into the
    rows of ``mode`` — ``O(nnz N R)`` with no dense intermediate.  With
    ``mode=None`` every axis is contracted, leaving the length-``R``
    vector of Eq. 25.  The entry of ``factors`` at ``mode`` is never
    read (it may be ``None``); ``dim`` overrides the output row count
    when it cannot be taken from ``factors[mode]``.
    """
    values = np.asarray(
        values,
        dtype=result_dtype(
            values, weights, *[f for f in factors if f is not None]
        ),
    )
    if mode is None:
        prod = observed_factor_products(coords, factors, weights=weights)
        return values @ prod
    design = observed_factor_products(
        coords, factors, skip_mode=mode, weights=weights
    )
    if dim is None:
        dim = factors[mode].shape[0]
    return segment_sum(coords[mode], values[:, None] * design, dim)


def _sparse_accumulate_normal_equations(
    coords: tuple[np.ndarray, ...],
    values: np.ndarray,
    factors: Sequence[np.ndarray],
    mode: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-entry accumulation via symmetric per-column ``np.bincount``.

    ``O(nnz R²)`` work and ``O(nnz R)`` memory: only the upper triangle
    of each ``B_i`` is reduced (the outer products are symmetric), one
    histogram per ``(r, s)`` component; chunking bounds the per-column
    workspace.  Beats one shared argsort-plus-``reduceat`` payload
    reduction at streaming ranks (one histogram pass per component is
    cheaper than sorting and materializing the ``(nnz, R² + R)``
    payload).
    """
    rank = factors[0].shape[1]
    dim = factors[mode].shape[0]
    dtype = result_dtype(values, *factors)
    # np.bincount accumulates in float64 regardless of the weight dtype;
    # the extra precision is free, so only the outputs are cast.
    big_b = np.zeros((dim, rank, rank))
    big_c = np.zeros((dim, rank))
    nnz = values.size
    chunk_size = 1 << 20
    for start in range(0, nnz, chunk_size):
        stop = min(start + chunk_size, nnz)
        chunk = tuple(c[start:stop] for c in coords)
        design = observed_factor_products(chunk, factors, skip_mode=mode)
        rows = chunk[mode]
        chunk_values = values[start:stop]
        for r in range(rank):
            big_c[:, r] += np.bincount(
                rows, weights=chunk_values * design[:, r], minlength=dim
            )
            for s in range(r, rank):
                col = np.bincount(
                    rows, weights=design[:, r] * design[:, s], minlength=dim
                )
                big_b[:, r, s] += col
                if s != r:
                    big_b[:, s, r] += col
    return big_b.astype(dtype, copy=False), big_c.astype(dtype, copy=False)


def _sparse_mttkrp(
    tensor: np.ndarray,
    factors: Sequence[np.ndarray | None],
    mode: int | None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """MTTKRP that touches only the nonzero entries of ``tensor``.

    The dynamic-phase residuals are masked to zero off the observed
    entries, so gathering at ``np.nonzero(tensor)`` and segment-summing
    reproduces the dense contraction exactly while doing ``O(nnz N R)``
    work instead of ``O(prod(dims) R)``.
    """
    dtype = result_dtype(
        tensor, weights, *[f for f in factors if f is not None]
    )
    tensor = np.asarray(tensor, dtype=dtype)
    if tensor.ndim == 1 and mode is not None:
        # Single-mode tensor: the empty Khatri-Rao product is all-ones.
        rank = next(f.shape[1] for f in factors if f is not None)
        row = (
            np.asarray(weights, dtype=dtype)[None, :]
            if weights is not None
            else np.ones((1, rank), dtype=dtype)
        )
        return tensor[:, None] * row
    coords = np.nonzero(tensor)
    dim = None if mode is None else tensor.shape[mode]
    return mttkrp_observed(
        coords, tensor[coords], factors, mode, dim=dim, weights=weights
    )


def _sparse_kruskal_reconstruct_rows(
    factors: Sequence[np.ndarray],
    weight_rows: np.ndarray,
    coords: tuple[np.ndarray, ...] | None = None,
) -> np.ndarray:
    """Evaluate ``[[factors; w_b]]`` only at the requested coordinates.

    With ``coords = (batch_idx, i_1, ..., i_N)`` the result is the 1-D
    array of entry values — ``O(nnz N R)`` gather-multiply work with no
    ``(B, I_1, ..., I_N)`` intermediate.  Without ``coords`` a dense
    stack is requested, which has no sparsity to exploit, so the dense
    batched strategy is reused.
    """
    dtype = result_dtype(weight_rows, *factors)
    weight_rows = np.asarray(weight_rows, dtype=dtype)
    if weight_rows.ndim != 2:
        raise ShapeError(
            f"weight rows must be 2-D (batch, rank), got {weight_rows.shape}"
        )
    if coords is None:
        return _batched_kruskal_reconstruct_rows(factors, weight_rows)
    prod = weight_rows[coords[0]]
    for axis, factor in enumerate(factors):
        prod = prod * np.asarray(factor, dtype=dtype)[coords[axis + 1]]
    return prod.sum(axis=1)


# ---------------------------------------------------------------------------
# Auto kernels (density-aware dispatch between sparse and batched)
# ---------------------------------------------------------------------------


def _auto_accumulate_normal_equations(
    coords: tuple[np.ndarray, ...],
    values: np.ndarray,
    factors: Sequence[np.ndarray],
    mode: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Route accumulation by observed fraction (Eq. 14-15)."""
    total = 1.0
    for f in factors:
        total *= f.shape[0]
    if values.size < AUTO_DENSITY_THRESHOLD * total:
        return _sparse_accumulate_normal_equations(
            coords, values, factors, mode
        )
    return _batched_accumulate_normal_equations(coords, values, factors, mode)


def _auto_mttkrp(
    tensor: np.ndarray,
    factors: Sequence[np.ndarray | None],
    mode: int | None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Route MTTKRP by the tensor's nonzero fraction.

    The cheap ``count_nonzero`` probe runs first so the dense route
    never materializes coordinate arrays; the sparse route then
    extracts the coordinates once and contracts directly (no second
    scan inside :func:`_sparse_mttkrp`).
    """
    tensor = np.asarray(tensor)
    if tensor.ndim <= 1 or (
        np.count_nonzero(tensor) >= AUTO_DENSITY_THRESHOLD * tensor.size
    ):
        return _batched_mttkrp(tensor, factors, mode, weights)
    coords = np.nonzero(tensor)
    dim = None if mode is None else tensor.shape[mode]
    return mttkrp_observed(
        coords, tensor[coords], factors, mode, dim=dim, weights=weights
    )


def _auto_kruskal_reconstruct_rows(
    factors: Sequence[np.ndarray],
    weight_rows: np.ndarray,
    coords: tuple[np.ndarray, ...] | None = None,
) -> np.ndarray:
    """Gather-only when few entries are requested; dense stack otherwise."""
    if coords is None:
        return _batched_kruskal_reconstruct_rows(factors, weight_rows)
    total = np.asarray(weight_rows).shape[0] * 1.0
    for f in factors:
        total *= f.shape[0]
    if coords[0].size < AUTO_DENSITY_THRESHOLD * total:
        return _sparse_kruskal_reconstruct_rows(factors, weight_rows, coords)
    return _batched_kruskal_reconstruct_rows(factors, weight_rows, coords)


# ---------------------------------------------------------------------------
# Reference kernels (the seed's scalar semantics)
# ---------------------------------------------------------------------------


def _reference_solve_one(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    rank = rhs.shape[0]
    scale = float(np.trace(lhs)) / rank
    ridged = lhs + (_ridge_for(lhs.dtype) * (1.0 + scale)) * np.eye(
        rank, dtype=lhs.dtype
    )
    try:
        return np.linalg.solve(ridged, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(ridged, rhs, rcond=None)[0]


def _reference_solve_rows(
    lhs: np.ndarray,
    rhs: np.ndarray,
    fallback: np.ndarray | None = None,
) -> np.ndarray:
    """One Python-level ridge solve per row (the seed's ``_solve_rows``)."""
    dtype = result_dtype(lhs, rhs, fallback)
    lhs = np.asarray(lhs, dtype=dtype)
    rhs = np.asarray(rhs, dtype=dtype)
    out = (
        np.asarray(fallback, dtype=dtype).copy()
        if fallback is not None
        else np.zeros_like(rhs)
    )
    for i in range(rhs.shape[0]):
        if fallback is not None and not lhs[i].any() and not rhs[i].any():
            continue
        out[i] = _reference_solve_one(lhs[i], rhs[i])
    return out


def _reference_accumulate_normal_equations(
    coords: tuple[np.ndarray, ...],
    values: np.ndarray,
    factors: Sequence[np.ndarray],
    mode: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Chunked ``np.add.at`` accumulation (the seed's implementation)."""
    rank = factors[0].shape[1]
    dim = factors[mode].shape[0]
    dtype = result_dtype(values, *factors)
    big_b = np.zeros((dim, rank, rank), dtype=dtype)
    big_c = np.zeros((dim, rank), dtype=dtype)
    nnz = values.size
    for start in range(0, nnz, _CHUNK):
        stop = min(start + _CHUNK, nnz)
        chunk = tuple(c[start:stop] for c in coords)
        prod = observed_factor_products(chunk, factors, skip_mode=mode)
        np.add.at(big_b, chunk[mode], prod[:, :, None] * prod[:, None, :])
        np.add.at(big_c, chunk[mode], values[start:stop, None] * prod)
    return big_b, big_c


def _reference_temporal_sweep(
    big_b: np.ndarray,
    big_c: np.ndarray,
    temporal: np.ndarray,
    *,
    lambda1: float,
    lambda2: float,
    period: int,
) -> np.ndarray:
    """Sequential scalar Gauss-Seidel sweep (the seed's row ordering)."""
    dtype = result_dtype(big_b, big_c, temporal)
    big_b = np.asarray(big_b, dtype=dtype)
    big_c = np.asarray(big_c, dtype=dtype)
    out = np.asarray(temporal, dtype=dtype).copy()
    length, rank = out.shape
    eye = np.eye(rank, dtype=dtype)
    counts1 = lag_neighbor_counts(length, 1)
    counts2 = lag_neighbor_counts(length, period)
    for i in range(length):
        lhs = big_b[i] + (
            lambda1 * float(counts1[i]) + lambda2 * float(counts2[i])
        ) * eye
        rhs = (
            big_c[i]
            + lambda1 * lag_neighbor_sums(out, 1, np.array([i]))[0]
            + lambda2 * lag_neighbor_sums(out, period, np.array([i]))[0]
        )
        if not lhs.any() and not rhs.any():
            continue
        out[i] = _reference_solve_one(lhs, rhs)
    return out


def _reference_mttkrp(
    tensor: np.ndarray,
    factors: Sequence[np.ndarray],
    mode: int | None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Materialized Khatri-Rao MTTKRP (the seed's formulation)."""
    dtype = result_dtype(
        tensor, weights, *[f for f in factors if f is not None]
    )
    tensor = np.asarray(tensor, dtype=dtype)
    if mode is None:
        kr = khatri_rao(list(factors)) if len(factors) > 1 else np.asarray(
            factors[0], dtype=dtype
        )
        if weights is not None:
            kr = kr * np.asarray(weights, dtype=dtype)[None, :]
        return tensor.reshape(-1) @ np.asarray(kr, dtype=dtype)
    others = [factors[axis] for axis in range(tensor.ndim) if axis != mode]
    if not others:
        rank = next(f.shape[1] for f in factors if f is not None)
        row = (
            np.asarray(weights, dtype=dtype)[None, :]
            if weights is not None
            else np.ones((1, rank), dtype=dtype)
        )
        return tensor[:, None] * row
    kr = np.asarray(khatri_rao(others), dtype=dtype)
    if weights is not None:
        kr = kr * np.asarray(weights, dtype=dtype)[None, :]
    return unfold(tensor, mode) @ kr


def _reference_kruskal_reconstruct_rows(
    factors: Sequence[np.ndarray],
    weight_rows: np.ndarray,
    coords: tuple[np.ndarray, ...] | None = None,
) -> np.ndarray:
    """One Kruskal evaluation per weight row (the per-step semantics)."""
    dtype = result_dtype(weight_rows, *factors)
    weight_rows = np.asarray(weight_rows, dtype=dtype)
    if weight_rows.ndim != 2:
        raise ShapeError(
            f"weight rows must be 2-D (batch, rank), got {weight_rows.shape}"
        )
    shape = tuple(f.shape[0] for f in factors)
    out = np.empty((weight_rows.shape[0],) + shape, dtype=dtype)
    for b in range(weight_rows.shape[0]):
        out[b] = kruskal_to_tensor(factors, weights=weight_rows[b])
    if coords is None:
        return out
    return out[coords]


def _reference_rls_update_rows(
    factor: np.ndarray,
    cov: np.ndarray,
    rows: np.ndarray,
    regressors: np.ndarray,
    targets: np.ndarray,
    beta: float,
) -> None:
    """One scalar RLS update per observed entry (the seed's OLSTEC loop)."""
    for row, x, target in zip(rows, regressors, targets):
        p = cov[row]
        px = p @ x
        gain = px / (beta + float(x @ px))
        error = target - float(factor[row] @ x)
        factor[row] += gain * error
        cov[row] = (p - np.outer(gain, px)) / beta


# ---------------------------------------------------------------------------
# Array-API ("xp") kernels — one implementation for NumPy/torch/CuPy
# ---------------------------------------------------------------------------
#
# These six kernels are written once against the Python Array API
# standard plus integer-array gather/scatter indexing (which NumPy,
# torch, and CuPy all support) and execute on whatever array module
# repro.tensor.device selects.  Host (NumPy) inputs are moved to the
# device at the kernel boundary and the outputs come back as NumPy
# arrays; if any input is already device-native the outputs stay on the
# device, which is how the dynamic phase keeps factors resident across
# a whole mini-batch.


def _xp_is_host(array: Any) -> bool:
    """Whether an input lives on the host (outputs follow the inputs)."""
    if array is None or isinstance(
        array, (bool, int, float, np.ndarray, np.generic)
    ):
        return True
    if isinstance(array, (list, tuple)):
        return all(_xp_is_host(item) for item in array)
    return False


def _xp_maybe_host(result: Any, host_out: bool):
    """Convert a kernel result back to NumPy when the inputs were host."""
    return _device.from_device(result) if host_out else result


def _xp_solve_core(xp: Any, lhs: Any, rhs: Any, fallback: Any, dtype) -> Any:
    """Device-level ridged batched solve shared by the xp kernels.

    Mirrors :func:`_batched_solve_rows`: relative ridge, a pinv fallback
    when the batched solve reports a singular system, and pass-through
    of ``fallback`` rows whose ``lhs`` *and* ``rhs`` are entirely zero
    (kept functional via ``xp.where`` so immutable-array libraries are
    not ruled out).
    """
    n, rank = int(rhs.shape[0]), int(rhs.shape[1])
    idx = xp.arange(rank)
    scale = xp.sum(lhs[:, idx, idx], axis=-1) / rank
    eye = xp.eye(rank, dtype=lhs.dtype)
    ridged = lhs + (_ridge_for(dtype) * (1.0 + scale))[:, None, None] * eye
    try:
        solution = xp.linalg.solve(ridged, rhs[:, :, None])[:, :, 0]
    except Exception:
        # The library-specific "singular batch" exception types differ
        # (numpy LinAlgError, torch's RuntimeError subclass); all mean
        # the same thing here: use the minimum-norm pseudo-inverse.
        solution = xp.matmul(xp.linalg.pinv(ridged), rhs[:, :, None])[:, :, 0]
    if fallback is not None:
        flat = xp.reshape(lhs, (n, -1))
        inactive = ~(xp.any(flat != 0, axis=1) | xp.any(rhs != 0, axis=1))
        solution = xp.where(inactive[:, None], fallback, solution)
    return solution


def _xp_solve_rows(
    lhs: Any,
    rhs: Any,
    fallback: Any | None = None,
) -> Any:
    """Batched ridge solve on the active array module."""
    xp = _device.get_array_module()
    dtype = result_dtype(lhs, rhs, fallback)
    host_out = _xp_is_host(lhs) and _xp_is_host(rhs) and _xp_is_host(fallback)
    lhs_x = _device.to_device(lhs, dtype=dtype)
    rhs_x = _device.to_device(rhs, dtype=dtype)
    if int(rhs_x.shape[0]) == 0:
        return _xp_maybe_host(xp.asarray(rhs_x, copy=True), host_out)
    fb = None if fallback is None else _device.to_device(fallback, dtype=dtype)
    return _xp_maybe_host(
        _xp_solve_core(xp, lhs_x, rhs_x, fb, dtype), host_out
    )


def _xp_mttkrp_chain(
    xp: Any,
    tensor: Any,
    mats: Sequence[Any],
    mode: int | None,
    weights: Any | None = None,
) -> Any:
    """Device-level tensordot/broadcast MTTKRP chain (no Khatri-Rao)."""
    ndim = tensor.ndim
    others = [axis for axis in range(ndim) if axis != mode]
    out = tensor
    appended = False
    # Descending order keeps every remaining mode at its original axis.
    for axis in sorted(others, reverse=True):
        mat = mats[axis]
        if not appended:
            if weights is not None:
                mat = mat * weights[None, :]
            out = xp.tensordot(out, mat, axes=((axis,), (0,)))
            appended = True
        else:
            shape = [1] * out.ndim
            shape[axis] = int(mat.shape[0])
            shape[-1] = int(mat.shape[1])
            out = xp.sum(out * xp.reshape(mat, tuple(shape)), axis=axis)
    return out


def _xp_accumulate_normal_equations(
    coords: tuple[np.ndarray, ...],
    values: Any,
    factors: Sequence[Any],
    mode: int,
) -> tuple[Any, Any]:
    """Dense-contraction accumulation (Eq. 14-15) on the array module.

    The same strategy as :func:`_batched_accumulate_normal_equations`:
    scatter the values and the observation indicator to dense device
    arrays, then run both MTTKRP chains on the device.
    """
    xp = _device.get_array_module()
    dtype = result_dtype(values, *factors)
    host_out = _xp_is_host(values) and all(_xp_is_host(f) for f in factors)
    mats = [_device.to_device(f, dtype=dtype) for f in factors]
    rank = int(mats[0].shape[1])
    dim = int(mats[mode].shape[0])
    vals = _device.to_device(values, dtype=dtype)
    if int(vals.shape[0]) == 0:
        return (
            _xp_maybe_host(
                xp.zeros((dim, rank, rank), dtype=mats[0].dtype), host_out
            ),
            _xp_maybe_host(
                xp.zeros((dim, rank), dtype=mats[0].dtype), host_out
            ),
        )
    shape = tuple(int(m.shape[0]) for m in mats)
    idx = tuple(_device.to_device(c) for c in coords)
    dense_values = xp.zeros(shape, dtype=mats[0].dtype)
    dense_values[idx] = vals
    indicator = xp.zeros(shape, dtype=mats[0].dtype)
    indicator[idx] = 1.0
    big_c = _xp_mttkrp_chain(xp, dense_values, mats, mode)
    pairs = [
        xp.reshape(
            m[:, :, None] * m[:, None, :], (int(m.shape[0]), rank * rank)
        )
        for m in mats
    ]
    big_b = xp.reshape(
        _xp_mttkrp_chain(xp, indicator, pairs, mode), (dim, rank, rank)
    )
    return _xp_maybe_host(big_b, host_out), _xp_maybe_host(big_c, host_out)


def _xp_temporal_sweep(
    big_b: Any,
    big_c: Any,
    temporal: Any,
    *,
    lambda1: float,
    lambda2: float,
    period: int,
) -> Any:
    """Four-color batched Gauss-Seidel sweep on the array module.

    The same coloring (and therefore the same valid Gauss-Seidel
    ordering) as :func:`_batched_temporal_sweep`.
    """
    xp = _device.get_array_module()
    dtype = result_dtype(big_b, big_c, temporal)
    host_out = (
        _xp_is_host(big_b) and _xp_is_host(big_c) and _xp_is_host(temporal)
    )
    b_x = _device.to_device(big_b, dtype=dtype)
    c_x = _device.to_device(big_c, dtype=dtype)
    # to_device may be zero-copy; the sweep mutates, so copy explicitly.
    out = xp.asarray(_device.to_device(temporal, dtype=dtype), copy=True)
    length, rank = int(out.shape[0]), int(out.shape[1])
    idx = xp.arange(length)

    def counts(lag: int) -> Any:
        has_left = xp.astype(idx >= lag, b_x.dtype)
        has_right = xp.astype(idx < length - lag, b_x.dtype)
        return has_left + has_right

    diag = lambda1 * counts(1) + lambda2 * counts(period)
    eye = xp.eye(rank, dtype=b_x.dtype)
    zero_row = xp.zeros((1, rank), dtype=b_x.dtype)

    def neighbor_sums(lag: int, rows: Any) -> Any:
        left = rows - lag
        has_left = left >= 0
        li = xp.where(has_left, left, xp.zeros_like(left))
        total = xp.where(has_left[:, None], out[li, :], zero_row)
        right = rows + lag
        has_right = right < length
        ri = xp.where(has_right, right, xp.zeros_like(right))
        return total + xp.where(has_right[:, None], out[ri, :], zero_row)

    colors = (idx % 2) + 2 * ((idx // period) % 2)
    for color in range(4):
        rows = xp.nonzero(colors == color)[0]
        if int(rows.shape[0]) == 0:
            continue
        lhs = b_x[rows, ...] + diag[rows][:, None, None] * eye
        rhs = (
            c_x[rows, ...]
            + lambda1 * neighbor_sums(1, rows)
            + lambda2 * neighbor_sums(period, rows)
        )
        out[rows, ...] = _xp_solve_core(xp, lhs, rhs, out[rows, ...], dtype)
    return _xp_maybe_host(out, host_out)


def _xp_mttkrp(
    tensor: Any,
    factors: Sequence[Any],
    mode: int | None,
    weights: Any | None = None,
) -> Any:
    """Dense MTTKRP on the array module (``mode=None`` contracts all)."""
    xp = _device.get_array_module()
    dtype = result_dtype(
        tensor, weights, *[f for f in factors if f is not None]
    )
    host_out = (
        _xp_is_host(tensor)
        and _xp_is_host(weights)
        and all(_xp_is_host(f) for f in factors)
    )
    t_x = _device.to_device(tensor, dtype=dtype)
    w_x = None if weights is None else _device.to_device(weights, dtype=dtype)
    if t_x.ndim == 1 and mode is not None:
        # Single-mode tensor: the empty Khatri-Rao product is all-ones.
        rank = int(next(f.shape[1] for f in factors if f is not None))
        row = (
            w_x[None, :]
            if w_x is not None
            else xp.ones((1, rank), dtype=t_x.dtype)
        )
        return _xp_maybe_host(t_x[:, None] * row, host_out)
    mats = [
        None if f is None else _device.to_device(f, dtype=dtype)
        for f in factors
    ]
    return _xp_maybe_host(
        _xp_mttkrp_chain(xp, t_x, mats, mode, w_x), host_out
    )


def _xp_kruskal_reconstruct_rows(
    factors: Sequence[Any],
    weight_rows: Any,
    coords: tuple[np.ndarray, ...] | None = None,
) -> Any:
    """Batched Kruskal reconstruction on the array module.

    The same shape-dependent strategy switch as the batched backend
    (broadcast chain for small batches, shared Khatri-Rao matmul
    otherwise); ``coords`` gathers from the dense stack.
    """
    xp = _device.get_array_module()
    dtype = result_dtype(weight_rows, *factors)
    host_out = (
        _xp_is_host(weight_rows)
        and all(_xp_is_host(f) for f in factors)
        and (coords is None or _xp_is_host(coords))
    )
    w_x = _device.to_device(weight_rows, dtype=dtype)
    if w_x.ndim != 2:
        raise ShapeError(
            f"weight rows must be 2-D (batch, rank), got "
            f"{tuple(w_x.shape)}"
        )
    mats = [_device.to_device(f, dtype=dtype) for f in factors]
    shape = tuple(int(m.shape[0]) for m in mats)
    rank = int(w_x.shape[1])
    n_batch = int(w_x.shape[0])
    if len(mats) == 1:
        dense = xp.matmul(w_x, xp.matrix_transpose(mats[0]))
    elif n_batch < shape[-1]:
        out = w_x
        for mat in mats[:-1]:
            out = out[..., None, :] * mat
        flat = xp.reshape(out, (-1, rank))
        dense = xp.reshape(
            xp.matmul(flat, xp.matrix_transpose(mats[-1])),
            (n_batch,) + shape,
        )
    else:
        kr = mats[0]
        for mat in mats[1:]:
            kr = xp.reshape(kr[:, None, :] * mat[None, :, :], (-1, rank))
        dense = xp.reshape(
            xp.matmul(w_x, xp.matrix_transpose(kr)), (n_batch,) + shape
        )
    if coords is None:
        return _xp_maybe_host(dense, host_out)
    idx = tuple(_device.to_device(c) for c in coords)
    return _xp_maybe_host(dense[idx], host_out)


def _xp_rls_update_rows(
    factor: Any,
    cov: Any,
    rows: Any,
    regressors: Any,
    targets: Any,
    beta: float,
) -> None:
    """Round-batched RLS recursions on the array module.

    The round bookkeeping (tiny integer arrays) stays on the host; each
    round's rank-1 updates run on the device.  ``factor`` and ``cov``
    are updated in place at the end, whether they are NumPy arrays or
    device-native tensors.
    """
    xp = _device.get_array_module()
    rows_h = np.asarray(_device.from_device(rows))
    if rows_h.size == 0:
        return
    dtype = result_dtype(factor, cov, regressors, targets)
    f_x = xp.asarray(_device.to_device(factor, dtype=dtype), copy=True)
    p_x = xp.asarray(_device.to_device(cov, dtype=dtype), copy=True)
    order = np.argsort(rows_h, kind="stable")
    rows_sorted = rows_h[order]
    x_all = _device.to_device(
        np.asarray(_device.from_device(regressors))[order], dtype=dtype
    )
    t_all = _device.to_device(
        np.asarray(_device.from_device(targets))[order], dtype=dtype
    )
    is_start = np.concatenate(([True], rows_sorted[1:] != rows_sorted[:-1]))
    starts = np.flatnonzero(is_start)
    group = np.cumsum(is_start) - 1
    position = np.arange(rows_sorted.size) - starts[group]
    for round_index in range(int(position.max()) + 1):
        sel = np.flatnonzero(position == round_index)
        r = _device.to_device(rows_sorted[sel])
        sel_x = _device.to_device(sel)
        x = x_all[sel_x, :]
        p = p_x[r, ...]
        px = xp.matmul(p, x[:, :, None])[:, :, 0]
        gain = px / (beta + xp.sum(x * px, axis=-1))[:, None]
        error = t_all[sel_x] - xp.sum(f_x[r, ...] * x, axis=-1)
        f_x[r, ...] = f_x[r, ...] + gain * error[:, None]
        p_x[r, ...] = (p - gain[:, :, None] * px[:, None, :]) / beta
    if isinstance(factor, np.ndarray):
        factor[...] = _device.from_device(f_x)
        cov[...] = _device.from_device(p_x)
    else:
        factor[...] = f_x
        cov[...] = p_x


# ---------------------------------------------------------------------------
# Backend registry and dispatch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelBackend:
    """One pluggable set of hot-path kernels.

    New execution paths (GPU, distributed, ...) implement these six
    callables and register themselves; every consumer — core ALS,
    dynamic updates, the mini-batch streaming engine, and the streaming
    baselines — dispatches through the active backend.  See the module
    docstring's authoring guide for the per-kernel contracts.
    """

    name: str
    solve_rows: Callable[..., np.ndarray]
    accumulate_normal_equations: Callable[..., tuple[np.ndarray, np.ndarray]]
    temporal_sweep: Callable[..., np.ndarray]
    mttkrp: Callable[..., np.ndarray]
    rls_update_rows: Callable[..., None]
    kruskal_reconstruct_rows: Callable[..., np.ndarray]
    #: When True (the default), consumers with their own
    #: observed-coordinate fast paths (the dynamic phase's
    #: ``density_threshold`` routing) stay on this backend's dispatched
    #: kernels instead of bypassing them — the safe choice for any
    #: backend whose kernels should see all the work (dense, scalar,
    #: GPU).  The shipped ``sparse``/``auto`` backends opt out: the
    #: per-entry CPU path *is* their execution strategy.
    keeps_dense_steps: bool = True
    #: Pin every kernel of this backend to one computation dtype
    #: (``"float32"``/``"float64"``).  ``None`` (every shipped backend)
    #: follows the inputs — see :func:`result_dtype`.
    dtype: str | None = None
    #: Host↔device boundary converters.  ``None`` (every CPU backend)
    #: means all arrays are host-side and the dynamic phase adds zero
    #: overhead; the ``"xp"`` backend maps these to
    #: :func:`repro.tensor.device.to_device` / ``from_device`` so the
    #: dynamic phase can keep factors device-resident across a whole
    #: step or mini-batch.
    to_device: Callable[..., Any] | None = None
    from_device: Callable[..., Any] | None = None


#: Environment variable that selects the import-time active backend —
#: the hook the CI backend matrix uses to run whole suites under one
#: backend without code changes.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

_BACKENDS: dict[str, KernelBackend] = {}

# Thread-safety of the backend selection: the process-wide default
# (what :func:`set_backend` writes) is guarded by ``_REGISTRY_LOCK``,
# while :func:`use_backend` scopes live in a :class:`ContextVar` stack.
# A context variable is per-thread (and per-asyncio-task), so two
# worker threads — e.g. the serving scheduler flushing different
# sessions — can each run under their own ``use_backend`` without
# racing one another, and a thread spawned outside any scope still
# sees the process default.
_REGISTRY_LOCK = threading.Lock()
_DEFAULT_BACKEND = "auto"
_BACKEND_OVERRIDES: ContextVar[tuple[str, ...]] = ContextVar(
    "repro_kernel_backend_overrides", default=()
)


def register_backend(backend: KernelBackend) -> None:
    """Register (or replace) a kernel backend under ``backend.name``."""
    with _REGISTRY_LOCK:
        _BACKENDS[backend.name] = backend


def available_backends() -> list[str]:
    """Names of all registered backends."""
    return sorted(_BACKENDS)


def _check_registered(name: str) -> None:
    if name not in _BACKENDS:
        raise ConfigError(
            f"unknown kernel backend {name!r}; "
            f"available: {available_backends()}"
        )


def active_backend() -> KernelBackend:
    """The backend all dispatched kernels currently use.

    The innermost :func:`use_backend` scope of the *current thread*
    wins; outside any scope this is the process-wide default set by
    :func:`set_backend` (or the ``REPRO_KERNEL_BACKEND`` environment
    variable at import time).
    """
    overrides = _BACKEND_OVERRIDES.get()
    name = overrides[-1] if overrides else _DEFAULT_BACKEND
    return _BACKENDS[name]


def set_backend(name: str) -> None:
    """Make ``name`` the active backend for all subsequent kernel calls.

    Outside any :func:`use_backend` scope this sets the process-wide
    default seen by every thread (including threads spawned later).
    Inside a scope it rebinds that scope only — the change is local to
    the current thread and is discarded when the scope exits, so a
    worker thread switching backends can never leak its choice into
    another thread's computation.

    Unknown names raise :class:`~repro.exceptions.ConfigError` listing
    :func:`available_backends`, and leave the active backend unchanged.
    """
    global _DEFAULT_BACKEND
    _check_registered(name)
    overrides = _BACKEND_OVERRIDES.get()
    if overrides:
        _BACKEND_OVERRIDES.set(overrides[:-1] + (name,))
        return
    with _REGISTRY_LOCK:
        _DEFAULT_BACKEND = name


@contextmanager
def use_backend(name: str):
    """Context manager: run a block under a different kernel backend.

    The previously active backend is restored on exit even when the
    body raises (or itself switches backends); entering with an unknown
    name raises without changing the active backend.  The scope is
    *context-local* (a :class:`ContextVar`): concurrent threads can
    each hold their own ``use_backend`` without affecting one another
    or the process default — this is what lets the serving scheduler
    run sessions pinned to different backends on its dispatch threads.
    """
    _check_registered(name)
    token = _BACKEND_OVERRIDES.set(_BACKEND_OVERRIDES.get() + (name,))
    try:
        yield _BACKENDS[name]
    finally:
        _BACKEND_OVERRIDES.reset(token)


register_backend(
    KernelBackend(
        name="batched",
        solve_rows=_batched_solve_rows,
        accumulate_normal_equations=_batched_accumulate_normal_equations,
        temporal_sweep=_batched_temporal_sweep,
        mttkrp=_batched_mttkrp,
        rls_update_rows=_batched_rls_update_rows,
        kruskal_reconstruct_rows=_batched_kruskal_reconstruct_rows,
    )
)
# The sparse backend specializes the kernels whose cost scales with the
# subtensor volume; the remaining three already run over per-row systems
# or observed entries only, so the batched implementations are reused.
register_backend(
    KernelBackend(
        name="sparse",
        solve_rows=_batched_solve_rows,
        accumulate_normal_equations=_sparse_accumulate_normal_equations,
        temporal_sweep=_batched_temporal_sweep,
        mttkrp=_sparse_mttkrp,
        rls_update_rows=_batched_rls_update_rows,
        kruskal_reconstruct_rows=_sparse_kruskal_reconstruct_rows,
        keeps_dense_steps=False,
    )
)
register_backend(
    KernelBackend(
        name="auto",
        solve_rows=_batched_solve_rows,
        accumulate_normal_equations=_auto_accumulate_normal_equations,
        temporal_sweep=_batched_temporal_sweep,
        mttkrp=_auto_mttkrp,
        rls_update_rows=_batched_rls_update_rows,
        kruskal_reconstruct_rows=_auto_kruskal_reconstruct_rows,
        keeps_dense_steps=False,
    )
)
# The xp backend runs the dense strategy on the array module selected
# by repro.tensor.device; keeps_dense_steps stays True so its kernels
# see all the dynamic-phase work (the CPU per-entry fast path would
# bypass the device).
register_backend(
    KernelBackend(
        name="xp",
        solve_rows=_xp_solve_rows,
        accumulate_normal_equations=_xp_accumulate_normal_equations,
        temporal_sweep=_xp_temporal_sweep,
        mttkrp=_xp_mttkrp,
        rls_update_rows=_xp_rls_update_rows,
        kruskal_reconstruct_rows=_xp_kruskal_reconstruct_rows,
        to_device=_device.to_device,
        from_device=_device.from_device,
    )
)
register_backend(
    KernelBackend(
        name="reference",
        solve_rows=_reference_solve_rows,
        accumulate_normal_equations=_reference_accumulate_normal_equations,
        temporal_sweep=_reference_temporal_sweep,
        mttkrp=_reference_mttkrp,
        rls_update_rows=_reference_rls_update_rows,
        kruskal_reconstruct_rows=_reference_kruskal_reconstruct_rows,
    )
)

_env_backend = os.environ.get(BACKEND_ENV_VAR, "").strip()
if _env_backend:
    set_backend(_env_backend)


def to_device(array: Any) -> Any:
    """Move a host array onto the active backend's device.

    Identity for backends without device converters (all CPU backends);
    under ``"xp"`` this is :func:`repro.tensor.device.to_device`.  The
    dynamic phase calls this once per step/mini-batch so the factor
    matrices stay resident across consecutive kernel calls.
    """
    convert = active_backend().to_device
    return array if convert is None else convert(array)


def from_device(array: Any) -> Any:
    """Bring a kernel result back to the host (identity for CPU backends)."""
    convert = active_backend().from_device
    return array if convert is None else convert(array)


def solve_rows(
    lhs: np.ndarray,
    rhs: np.ndarray,
    fallback: np.ndarray | None = None,
) -> np.ndarray:
    """Solve the stacked row systems ``lhs[i] x_i = rhs[i]`` (Theorem 1).

    Each system gets a relative ridge before solving.  Rows whose system
    is all-zero keep the matching ``fallback`` row (when given); singular
    systems fall back to a minimum-norm least-squares solution.
    """
    return active_backend().solve_rows(lhs, rhs, fallback)


def accumulate_normal_equations(
    coords: tuple[np.ndarray, ...],
    values: np.ndarray,
    factors: Sequence[np.ndarray],
    mode: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate ``B_i`` and ``c_i`` (Eq. 14-15) for every row of ``mode``.

    Parameters
    ----------
    coords:
        Tuple of index arrays (one per mode) of the observed entries.
    values:
        Outlier-corrected observed values ``y*`` aligned with ``coords``.
    factors:
        Current factor matrices.
    mode:
        The mode being updated.

    Returns
    -------
    (B, c):
        ``B`` of shape ``(I_mode, R, R)`` and ``c`` of shape
        ``(I_mode, R)``.
    """
    return active_backend().accumulate_normal_equations(
        coords, values, factors, mode
    )


def temporal_sweep(
    big_b: np.ndarray,
    big_c: np.ndarray,
    temporal: np.ndarray,
    *,
    lambda1: float,
    lambda2: float,
    period: int,
) -> np.ndarray:
    """One Gauss-Seidel sweep of the temporal rows (Theorem 2, Eq. 17-18).

    Returns the updated temporal factor; rows with neither observations
    nor smoothness coupling keep their previous values.
    """
    return active_backend().temporal_sweep(
        big_b,
        big_c,
        temporal,
        lambda1=lambda1,
        lambda2=lambda2,
        period=period,
    )


def mttkrp(
    tensor: np.ndarray,
    factors: Sequence[np.ndarray],
    mode: int | None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Matricized-tensor-times-Khatri-Rao-product for a dense tensor.

    With an integer ``mode``, returns the ``(I_mode, R)`` contraction of
    ``tensor`` against all other factor matrices (optionally scaled by
    component ``weights``) — the gradient workhorse of Eq. 24.  With
    ``mode=None``, contracts every mode and returns the length-``R``
    vector of Eq. 25.
    """
    return active_backend().mttkrp(tensor, factors, mode, weights)


def kruskal_reconstruct_rows(
    factors: Sequence[np.ndarray],
    weight_rows: np.ndarray,
    coords: tuple[np.ndarray, ...] | None = None,
) -> np.ndarray:
    """Evaluate ``[[factors; w_b]]`` for every row ``w_b`` of a weight matrix.

    Without ``coords``, returns an array of shape ``(B, I_1, ..., I_N)``
    — the stacked reconstructions the mini-batch streaming engine uses
    for the Eq. 20 predictions and the per-step completions of a whole
    batch at once.  With ``coords`` — a tuple of index arrays
    ``(batch_idx, i_1, ..., i_N)`` into that stack — only the requested
    entries are returned as a 1-D array; the sparse backend computes
    them by per-entry gather (``O(nnz N R)``), dense backends
    reconstruct and gather.
    """
    if coords is not None and len(coords) != len(factors) + 1:
        raise ShapeError(
            f"coords must hold {len(factors) + 1} index arrays "
            f"(batch plus one per mode), got {len(coords)}"
        )
    return active_backend().kruskal_reconstruct_rows(
        factors, weight_rows, coords
    )


def rls_update_rows(
    factor: np.ndarray,
    cov: np.ndarray,
    rows: np.ndarray,
    regressors: np.ndarray,
    targets: np.ndarray,
    beta: float,
) -> None:
    """Apply one RLS update per observed entry, grouped by factor row.

    Mutates ``factor`` and the stacked inverse-covariance matrices
    ``cov`` in place, preserving the per-row entry ordering of the
    scalar recursion.
    """
    active_backend().rls_update_rows(
        factor, cov, rows, regressors, targets, beta
    )
