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
  matrix with a chain of one matmul and broadcast-multiply-sums instead
  of materializing a Khatri-Rao product.
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

* ``"batched"`` — the dense-contraction path: BLAS matmul chains,
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
* ``"xp"`` — the same dense kernels on the array library selected by
  :mod:`repro.tensor.device` (``set_array_module``, the
  ``REPRO_ARRAY_MODULE`` environment variable): NumPy, torch (CPU or
  CUDA), or CuPy.  Host NumPy inputs move to the device at the kernel
  boundary and host outputs come back as NumPy arrays, while
  device-native inputs stay resident on the device (the dynamic phase
  uses this to keep factors on-device across a whole mini-batch).
* ``"reference"`` — the seed's scalar semantics, used by the parity
  tests and the scalar-vs-batched benchmarks.

``"batched"`` and ``"xp"`` share one body per dense kernel.  Each body
takes the array namespace as its first argument and uses only Array
API functions, operators and indexing (plus integer-array gather and
scatter-assignment indexing, which NumPy, torch, and CuPy all provide).
``"batched"`` binds the bodies to NumPy once, at import (``_NUMPY``),
with no module lookup or conversion per call; ``"xp"`` runs them behind
one host↔device boundary (:func:`_on_array_module`).  On the NumPy
module the two are therefore bit for bit the same computation.

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
seam.  The relative ridge of the row solves is dtype-aware
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

Contract highlights: kernels compute in :func:`result_dtype` of their
inputs; ``solve_rows`` must keep ``fallback`` rows where both sides are
zero; ``temporal_sweep`` must realize a valid Gauss-Seidel ordering of
Eq. 17-18 (any ordering — the conformance suite checks the
zero-coupling case exactly and the coupled case at the shared fixed
point); ``kruskal_reconstruct_rows`` must honor the
optional ``coords`` gather form (the dispatcher has already checked
that ``weight_rows`` is 2-D); ``mttkrp`` must accept ``mode=None``
(contract everything) and a ``None`` placeholder in the skipped
``mode`` slot of ``factors``.  Partial backends can borrow the shipped
implementations for kernels they do not specialize (the sparse backend
reuses the batched ``solve_rows``/``temporal_sweep``/``rls_update_rows``,
which already run over per-row systems or observed entries only).  The
``keeps_dense_steps`` flag (default ``True``) guarantees the dynamic
phase never bypasses the backend's kernels with its own CPU per-entry
fast path — leave it set unless that path is your execution strategy.
Two more optional fields, ``to_device`` / ``from_device``, are
host↔device boundary converters.  When set (the ``"xp"`` backend maps
them to :func:`repro.tensor.device.to_device` / ``from_device``), the
dynamic phase moves the factor matrices to the device once per
step/mini-batch and back once at the end, so consecutive kernel calls
reuse the resident copies instead of re-uploading per call.  ``None``
(every CPU backend) keeps all arrays host-side with zero overhead.

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
import sys
import threading
import types
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import partial
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

    The kernels follow their inputs: the NumPy promotion of all floating
    inputs, clamped to float32/float64 (anything else — integer, bool,
    or float16 inputs, or no floating input at all — computes in
    float64, preserving the seed semantics for non-float callers).
    ``None`` entries are ignored so optional arguments can be passed
    straight through.
    """
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
# Dense kernels: one body each, bound to NumPy ("batched") and to the
# array module of repro.tensor.device ("xp")
# ---------------------------------------------------------------------------
#
# Every body takes the array namespace ``xp`` first and moves its inputs
# onto it with ``xp.asarray`` (a no-op for NumPy arrays of the right
# dtype).  Beyond the Array API standard the bodies rely only on
# integer-array gather and scatter-assignment indexing, plus host NumPy
# for the RLS round bookkeeping.


def _namespace_dtype(xp: Any, dtype: np.dtype) -> Any:
    """The :func:`result_dtype` ``dtype`` as the namespace ``xp`` spells it."""
    if xp is _NUMPY or xp is np:
        return dtype
    return _device._module_dtype(xp, dtype)


#: ``numpy`` as the ``"batched"`` bindings pass it to the dense bodies.
#: NumPy's module-level ``sum``/``reshape``/``permute_dims`` run Python
#: wrappers that cost ~0.5-1.5 µs a call at streaming sizes, about a
#: fifth of a 40x30 MTTKRP; here they are the equivalent ndarray
#: methods (the same computation, bit for bit), so the shared bodies
#: cost what hand-written NumPy costs.
_NUMPY = types.SimpleNamespace(
    **{
        **vars(np),
        "sum": lambda x, /, *, axis=None: x.sum(axis=axis),
        "reshape": lambda x, /, shape: x.reshape(shape),
        "permute_dims": lambda x, /, axes: x.transpose(axes),
    }
)


def _singular_errors() -> tuple[type[Exception], ...]:
    """What a batched solve raises on an exactly singular system.

    NumPy and CuPy raise ``numpy.linalg.LinAlgError``; torch raises its
    own ``RuntimeError`` subclass, looked up only if torch is loaded.
    """
    torch = sys.modules.get("torch")
    if torch is None:
        return (np.linalg.LinAlgError,)
    return (np.linalg.LinAlgError, torch.linalg.LinAlgError)


def _solve_rows(
    xp: Any,
    lhs: Any,
    rhs: Any,
    fallback: Any | None = None,
) -> Any:
    """Solve all row systems with one batched (ridged) solve.

    Rows whose system is numerically singular even after the ridge are
    handled by a batched pseudo-inverse fallback; rows whose ``lhs``
    *and* ``rhs`` are entirely zero (no observations and no smoothness
    coupling) keep their ``fallback`` value.
    """
    dtype = result_dtype(lhs, rhs, fallback)
    xdtype = _namespace_dtype(xp, dtype)
    lhs = xp.asarray(lhs, dtype=xdtype)
    rhs = xp.asarray(rhs, dtype=xdtype)
    n, rank = rhs.shape
    if n == 0:
        return xp.asarray(rhs, copy=True)
    scale = xp.linalg.trace(lhs) / rank
    ridged = lhs + (_ridge_for(dtype) * (1.0 + scale))[:, None, None] * xp.eye(
        rank, dtype=xdtype
    )
    try:
        solution = xp.linalg.solve(ridged, rhs[:, :, None])[:, :, 0]
    except _singular_errors():
        # At least one matrix in the batch is exactly singular: fall back
        # to the batched minimum-norm least-squares solution for all rows.
        solution = (xp.linalg.pinv(ridged) @ rhs[:, :, None])[:, :, 0]
    if fallback is None:
        return solution
    inactive = ~(xp.any(lhs != 0, axis=(1, 2)) | xp.any(rhs != 0, axis=1))
    return xp.where(
        inactive[:, None], xp.asarray(fallback, dtype=xdtype), solution
    )


def _mttkrp_chain(
    xp: Any,
    tensor: Any,
    mats: Sequence[Any | None],
    mode: int | None,
    dtype: Any,
    weights: Any | None = None,
) -> Any:
    """MTTKRP as one matmul followed by broadcast-multiply-sums.

    Contracts every mode except ``mode`` against the matching matrix in
    ``mats`` (whose entry at ``mode`` is never read), tying all
    contractions to one shared trailing column index.  Equivalent to
    ``unfold(tensor, mode) @ (khatri_rao(others) * weights)`` without
    materializing the Khatri-Rao matrix.  ``dtype`` is the caller's
    :func:`result_dtype` in the namespace's spelling.

    The longest axis contracts first (ties: the higher axis first), as
    one 2-D matmul over the permuted, flattened tensor, so every later
    broadcast-multiply-sum runs over the smallest remaining temporary: a
    length-1 batch axis then costs one small sum, not a full-size
    product.  With no axis to contract (a single-mode tensor) the empty
    Khatri-Rao product is all-ones.
    """
    order = sorted(
        (axis for axis in range(tensor.ndim) if axis != mode),
        key=lambda axis: (tensor.shape[axis], axis),
        reverse=True,
    )
    if weights is not None:
        weights = xp.asarray(weights, dtype=dtype)
    if not order:
        if weights is None:
            rank = next(m.shape[1] for m in mats if m is not None)
            weights = xp.ones(rank, dtype=dtype)
        return tensor[..., None] * weights
    first = order[0]
    mat = xp.asarray(mats[first], dtype=dtype)
    if weights is not None:
        mat = mat * weights
    live = [axis for axis in range(tensor.ndim) if axis != first]
    kept = [tensor.shape[axis] for axis in live]
    out = xp.reshape(
        xp.reshape(
            xp.permute_dims(tensor, (*live, first)),
            (math.prod(kept), mat.shape[0]),
        )
        @ mat,
        (*kept, mat.shape[1]),
    )
    for axis in order[1:]:
        pos = live.index(axis)
        del live[pos]
        # (I_axis, 1, ..., 1, R): lines the rows up with axis ``pos`` and
        # the columns with the trailing rank axis.
        mat = xp.asarray(mats[axis], dtype=dtype)[
            (slice(None),) + (None,) * (out.ndim - pos - 2)
        ]
        out = xp.sum(out * mat, axis=pos)
    return out


def _accumulate_normal_equations(
    xp: Any,
    coords: tuple[Any, ...],
    values: Any,
    factors: Sequence[Any],
    mode: int,
) -> tuple[Any, Any]:
    """Dense-contraction accumulation of ``B_i``/``c_i`` (Eq. 14-15).

    Scatters the observed values and the indicator back to dense arrays,
    then computes ``c`` as one MTTKRP of the masked values and ``B`` as
    one MTTKRP of the indicator against the *pair* matrices
    ``U^(l) ⊙row U^(l)`` of shape ``(I_l, R²)``.  Work is
    ``O(prod(dims) R²)`` regardless of how many entries are observed;
    the sparse backend covers the low-density regime.
    """
    dtype = _namespace_dtype(xp, result_dtype(values, *factors))
    mats = [xp.asarray(f, dtype=dtype) for f in factors]
    values = xp.asarray(values, dtype=dtype)
    rank = mats[0].shape[1]
    shape = tuple(m.shape[0] for m in mats)
    if values.shape[0] == 0:
        return (
            xp.zeros((shape[mode], rank, rank), dtype=dtype),
            xp.zeros((shape[mode], rank), dtype=dtype),
        )
    idx = tuple(xp.asarray(c) for c in coords)
    dense_values = xp.zeros(shape, dtype=dtype)
    dense_values[idx] = values
    indicator = xp.zeros(shape, dtype=dtype)
    indicator[idx] = 1.0
    big_c = _mttkrp_chain(xp, dense_values, mats, mode, dtype)
    pairs = [
        xp.reshape(m[:, :, None] * m[:, None, :], (m.shape[0], rank * rank))
        for m in mats
    ]
    big_b = xp.reshape(
        _mttkrp_chain(xp, indicator, pairs, mode, dtype),
        (shape[mode], rank, rank),
    )
    return big_b, big_c


def _temporal_sweep(
    xp: Any,
    big_b: Any,
    big_c: Any,
    temporal: Any,
    *,
    lambda1: float,
    lambda2: float,
    period: int,
) -> Any:
    """Theorem-2 temporal sweep in four batched Gauss-Seidel color classes.

    Rows are colored ``(i mod 2, floor(i / m) mod 2)`` so no two rows of
    one class are lag-1 or lag-``m`` neighbors (module docstring); each
    class is then one batched ridge solve that reads the freshest values
    of the previously updated classes — preserving the within-sweep
    neighbor coupling of Eq. 17-18.
    """
    dtype = _namespace_dtype(xp, result_dtype(big_b, big_c, temporal))
    big_b = xp.asarray(big_b, dtype=dtype)
    big_c = xp.asarray(big_c, dtype=dtype)
    out = xp.asarray(temporal, dtype=dtype, copy=True)
    length, rank = out.shape
    idx = xp.arange(length)
    zero_row = xp.zeros((1, rank), dtype=dtype)

    def neighbor_counts(lag: int) -> Any:
        return xp.astype(idx >= lag, dtype) + xp.astype(
            idx < length - lag, dtype
        )

    def neighbor_sums(rows: Any, lag: int) -> Any:
        # Out-of-range neighbors gather row 0 and are masked to zero.
        total = zero_row
        for near in (rows - lag, rows + lag):
            valid = (near >= 0) & (near < length)
            near = xp.where(valid, near, xp.zeros_like(near))
            total = total + xp.where(valid[:, None], out[near, :], zero_row)
        return total

    diag = lambda1 * neighbor_counts(1) + lambda2 * neighbor_counts(period)
    eye = xp.eye(rank, dtype=dtype)
    colors = (idx % 2) + 2 * ((idx // period) % 2)
    for color in range(4):
        rows = xp.nonzero(colors == color)[0]
        if rows.shape[0] == 0:
            continue
        lhs = big_b[rows, ...] + diag[rows][:, None, None] * eye
        rhs = (
            big_c[rows, ...]
            + lambda1 * neighbor_sums(rows, 1)
            + lambda2 * neighbor_sums(rows, period)
        )
        out[rows, ...] = _solve_rows(xp, lhs, rhs, out[rows, ...])
    return out


def _mttkrp(
    xp: Any,
    tensor: Any,
    factors: Sequence[Any | None],
    mode: int | None,
    weights: Any | None = None,
) -> Any:
    """Dense MTTKRP ``unfold(X, mode) · (⊙_{l≠mode} U^(l)) diag(w)``.

    ``mode=None`` contracts *every* mode, leaving only the rank index —
    the ``(⊙_n U^(n))ᵀ vec(R)`` term of Eq. 25.
    """
    dtype = _namespace_dtype(xp, result_dtype(tensor, weights, *factors))
    return _mttkrp_chain(
        xp, xp.asarray(tensor, dtype=dtype), factors, mode, dtype, weights
    )


def _rls_update_rows(
    xp: Any,
    factor: Any,
    cov: Any,
    rows: Any,
    regressors: Any,
    targets: Any,
    beta: float,
) -> None:
    """Replay per-row RLS recursions in batched rounds (OLSTEC hot loop).

    Entries hitting *different* factor rows are independent, so round
    ``j`` applies the rank-1 RLS update for the ``j``-th observed entry
    of every row simultaneously; a stable sort keeps the original
    within-row entry order, making the result identical to the scalar
    per-entry loop.  The round bookkeeping (small integer arrays) runs
    on host NumPy.  Mutates ``factor`` and ``cov`` (arrays of ``xp``) in
    place.
    """
    rows = np.asarray(rows)
    if rows.size == 0:
        return
    dtype = _namespace_dtype(
        xp, result_dtype(factor, cov, regressors, targets)
    )
    order = np.argsort(rows, kind="stable")
    rows_sorted = rows[order]
    is_start = np.concatenate(([True], rows_sorted[1:] != rows_sorted[:-1]))
    starts = np.flatnonzero(is_start)
    position = np.arange(rows_sorted.size) - starts[np.cumsum(is_start) - 1]
    order = xp.asarray(order)
    x_sorted = xp.asarray(regressors, dtype=dtype)[order, ...]
    t_sorted = xp.asarray(targets, dtype=dtype)[order]
    for round_index in range(int(position.max()) + 1):
        sel = np.flatnonzero(position == round_index)
        r = xp.asarray(rows_sorted[sel])
        sel = xp.asarray(sel)
        x = x_sorted[sel, ...]
        p = cov[r, ...]
        px = (p @ x[:, :, None])[:, :, 0]
        gain = px / (beta + xp.sum(x * px, axis=-1))[:, None]
        error = t_sorted[sel] - xp.sum(factor[r, ...] * x, axis=-1)
        factor[r, ...] = factor[r, ...] + gain * error[:, None]
        cov[r, ...] = (p - gain[:, :, None] * px[:, None, :]) / beta


def _kruskal_reconstruct_rows(
    xp: Any,
    factors: Sequence[Any],
    weight_rows: Any,
    coords: tuple[Any, ...] | None = None,
) -> Any:
    """All ``B`` reconstructions ``[[factors; w_b]]`` in one fused pass.

    Two equivalent strategies, picked by shape: when the batch is small
    relative to the last mode, a broadcast chain grows
    ``(B, I_1, ..., I_l, R)`` one mode at a time and finishes with a
    single matmul against the last factor (no ``prod(I) x R``
    Khatri-Rao temporary); otherwise the shared Khatri-Rao matrix is
    materialized once and the whole mini-batch is one
    ``W @ khatri_rao(factors)ᵀ`` matmul.  With ``coords``, the dense
    stack is still built and then gathered — this is the dense path;
    the sparse backend evaluates only the requested entries.
    """
    dtype = _namespace_dtype(xp, result_dtype(weight_rows, *factors))
    weight_rows = xp.asarray(weight_rows, dtype=dtype)
    mats = [xp.asarray(f, dtype=dtype) for f in factors]
    n_batch, rank = weight_rows.shape
    shape = (n_batch, *(m.shape[0] for m in mats))
    if len(mats) == 1:
        dense = weight_rows @ mats[0].T
    elif n_batch < mats[-1].shape[0]:
        out = weight_rows
        for mat in mats[:-1]:
            out = out[..., None, :] * mat
        flat = xp.reshape(out, (-1, rank))
        dense = xp.reshape(flat @ mats[-1].T, shape)
    else:
        kr = mats[0]
        for mat in mats[1:]:
            kr = xp.reshape(kr[:, None, :] * mat, (-1, rank))
        dense = xp.reshape(weight_rows @ kr.T, shape)
    if coords is None:
        return dense
    return dense[tuple(xp.asarray(c) for c in coords)]


def _is_host(value: Any) -> bool:
    """Whether a kernel argument lives on the host (outputs follow)."""
    if isinstance(value, (list, tuple)):
        return all(_is_host(item) for item in value)
    return value is None or isinstance(
        value, (bool, int, float, np.ndarray, np.generic)
    )


def _on_array_module(body: Callable[..., Any], *, in_place: int = 0):
    """Bind a dense body to the array module :mod:`repro.tensor.device` selects.

    The one host↔device boundary of the ``"xp"`` backend.  The body
    moves its own inputs onto the module (``xp.asarray`` is the
    host→device edge).  Results come back as NumPy arrays when every
    argument was host-side and stay on the device otherwise — how the
    dynamic phase keeps its factors resident.  The first ``in_place``
    arguments are updated in place by the body: they are moved onto the
    module before the call and written back after it where the move
    made a copy.
    """

    def kernel(*args: Any, **kwargs: Any) -> Any:
        xp = _device.get_array_module()
        moved = [xp.asarray(arg) for arg in args[:in_place]]
        result = body(xp, *moved, *args[in_place:], **kwargs)
        for arg, resident in zip(args, moved):
            if resident is not arg:
                arg[...] = (
                    _device.from_device(resident)
                    if isinstance(arg, np.ndarray)
                    else resident
                )
        if result is None or not _is_host(args):
            return result
        if isinstance(result, tuple):
            return tuple(_device.from_device(part) for part in result)
        return _device.from_device(result)

    return kernel


# ---------------------------------------------------------------------------
# Sparse kernels (per-entry gather/segment work over observed coordinates)
# ---------------------------------------------------------------------------

#: Observed fraction above which the dense contraction paths beat the
#: per-entry sparse paths (dense work is O(prod(dims) R^2) at BLAS
#: speed; sparse work is O(nnz R^2) with scatter-gather constants).
#: The ``"auto"`` backend dispatches each call across this threshold.
AUTO_DENSITY_THRESHOLD = 0.05


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
    work instead of ``O(prod(dims) R)``.  A single-mode tensor has no
    axis to gather over and takes the dense body.
    """
    tensor = np.asarray(tensor)
    if tensor.ndim <= 1:
        return _mttkrp(_NUMPY, tensor, factors, mode, weights)
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
    if coords is None:
        return _kruskal_reconstruct_rows(_NUMPY, factors, weight_rows)
    dtype = result_dtype(weight_rows, *factors)
    weight_rows = np.asarray(weight_rows, dtype=dtype)
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
    return _accumulate_normal_equations(_NUMPY, coords, values, factors, mode)


def _auto_mttkrp(
    tensor: np.ndarray,
    factors: Sequence[np.ndarray | None],
    mode: int | None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Route MTTKRP by the tensor's nonzero fraction.

    The cheap ``count_nonzero`` probe runs first so the dense route
    never materializes coordinate arrays.
    """
    tensor = np.asarray(tensor)
    if tensor.ndim <= 1 or (
        np.count_nonzero(tensor) >= AUTO_DENSITY_THRESHOLD * tensor.size
    ):
        return _mttkrp(_NUMPY, tensor, factors, mode, weights)
    return _sparse_mttkrp(tensor, factors, mode, weights)


def _auto_kruskal_reconstruct_rows(
    factors: Sequence[np.ndarray],
    weight_rows: np.ndarray,
    coords: tuple[np.ndarray, ...] | None = None,
) -> np.ndarray:
    """Gather-only when few entries are requested; dense stack otherwise."""
    if coords is None:
        return _kruskal_reconstruct_rows(_NUMPY, factors, weight_rows)
    total = np.asarray(weight_rows).shape[0] * 1.0
    for f in factors:
        total *= f.shape[0]
    if coords[0].size < AUTO_DENSITY_THRESHOLD * total:
        return _sparse_kruskal_reconstruct_rows(factors, weight_rows, coords)
    return _kruskal_reconstruct_rows(_NUMPY, factors, weight_rows, coords)


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


_BATCHED = KernelBackend(
    name="batched",
    solve_rows=partial(_solve_rows, _NUMPY),
    accumulate_normal_equations=partial(_accumulate_normal_equations, _NUMPY),
    temporal_sweep=partial(_temporal_sweep, _NUMPY),
    mttkrp=partial(_mttkrp, _NUMPY),
    rls_update_rows=partial(_rls_update_rows, _NUMPY),
    kruskal_reconstruct_rows=partial(_kruskal_reconstruct_rows, _NUMPY),
)
register_backend(_BATCHED)
# The sparse backend specializes the kernels whose cost scales with the
# subtensor volume; the remaining three already run over per-row systems
# or observed entries only, so the batched implementations are reused.
register_backend(
    KernelBackend(
        name="sparse",
        solve_rows=_BATCHED.solve_rows,
        accumulate_normal_equations=_sparse_accumulate_normal_equations,
        temporal_sweep=_BATCHED.temporal_sweep,
        mttkrp=_sparse_mttkrp,
        rls_update_rows=_BATCHED.rls_update_rows,
        kruskal_reconstruct_rows=_sparse_kruskal_reconstruct_rows,
        keeps_dense_steps=False,
    )
)
register_backend(
    KernelBackend(
        name="auto",
        solve_rows=_BATCHED.solve_rows,
        accumulate_normal_equations=_auto_accumulate_normal_equations,
        temporal_sweep=_BATCHED.temporal_sweep,
        mttkrp=_auto_mttkrp,
        rls_update_rows=_BATCHED.rls_update_rows,
        kruskal_reconstruct_rows=_auto_kruskal_reconstruct_rows,
        keeps_dense_steps=False,
    )
)
# The xp backend runs the same dense bodies on the array module selected
# by repro.tensor.device; keeps_dense_steps stays True so its kernels
# see all the dynamic-phase work (the CPU per-entry fast path would
# bypass the device).
register_backend(
    KernelBackend(
        name="xp",
        solve_rows=_on_array_module(_solve_rows),
        accumulate_normal_equations=_on_array_module(
            _accumulate_normal_equations
        ),
        temporal_sweep=_on_array_module(_temporal_sweep),
        mttkrp=_on_array_module(_mttkrp),
        rls_update_rows=_on_array_module(_rls_update_rows, in_place=2),
        kruskal_reconstruct_rows=_on_array_module(_kruskal_reconstruct_rows),
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
    if getattr(weight_rows, "ndim", None) != 2 and np.ndim(weight_rows) != 2:
        raise ShapeError(
            f"weight rows must be 2-D (batch, rank), got "
            f"{tuple(np.shape(weight_rows))}"
        )
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
