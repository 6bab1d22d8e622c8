"""Outlier estimation and error-scale tracking (paper Eq. 12, 21, 22).

These are the tensor-valued extensions of the robust-HW primitives in
:mod:`repro.forecast.robust`: outliers are whatever part of the observed
residual survives the Huber clipping, and each entry carries its own
exponentially smoothed error scale.  :func:`robust_step` fuses the two
updates over one shared residual of one subtensor;
:func:`robust_step_batch` is the form the dynamic phase calls, once per
mini-batch (a single subtensor is a batch of one).

All three step forms — the dense single-slice :func:`robust_step`
and the mini-batch :func:`robust_step_batch` with its
observed-coordinate form :func:`robust_step_batch_at` — and the two
single-purpose wrappers run the same element-wise pass,
``_robust_terms``: it computes ``z = r/σ`` once and returns the Huber
excess and the biweight growth factor ``φ ρ(z) + 1 - φ`` from in-place
arithmetic.  The forms differ only in how they mask and how they fold
the growth into the scale.  :func:`~repro.forecast.robust.huber_psi`
and :func:`~repro.forecast.robust.biweight_rho` stay the reference
definitions; the pass matches them bit for bit on the outliers and to
within a last-place rounding of the cube on the growth.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError
from repro.tensor.kernels import soft_threshold as _kernel_soft_threshold
from repro.tensor.masked import keep_mask, masked_fill
from repro.tensor.validation import (
    as_float as _as_float,
)
from repro.tensor.validation import (
    check_mask,
    check_same_shape,
)

__all__ = [
    "estimate_outliers",
    "robust_step",
    "robust_step_batch",
    "robust_step_batch_at",
    "soft_threshold",
    "update_error_scale",
]


def soft_threshold(values: np.ndarray, threshold: float) -> np.ndarray:
    """Element-wise soft-thresholding ``sign(x) max(|x| - λ, 0)`` (Eq. 12).

    This is the proximal operator of ``λ ||·||_1`` and is how the
    initialization phase refreshes its outlier tensor (Alg. 1 line 8).
    Delegates to the shared kernel layer.
    """
    return _kernel_soft_threshold(values, threshold)


def _robust_terms(
    residual: np.ndarray,
    sigma: np.ndarray,
    *,
    k: float,
    phi: float,
    ck: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Huber excess and biweight growth of one residual (Eq. 21-22 core).

    With ``z = r / σ`` computed once, returns

    * ``excess = r - ψ(z) σ`` — the outlier part of the residual
      (Eq. 21 before masking), and
    * ``growth = φ ρ(z) + 1 - φ`` — the factor Eq. 22 multiplies the
      squared scale by, so ``Σ_t = Σ_{t-1} sqrt(growth)``.

    The arithmetic is that of :func:`~repro.forecast.robust.huber_psi`
    and :func:`~repro.forecast.robust.biweight_rho` in the same order,
    run in place on two buffers.  Two steps are rewritten without
    changing a bit: ``clip(|z|/k, 0, 1)²`` is computed as
    ``min((z/k)², 1)``, and the clip of ``z`` as a maximum and a
    minimum.  The one rounding change is the cube ``t*t*t`` in place
    of ``t**3`` (libm ``pow``), which can differ in the last place.
    Entries are never masked here: missing cells may hold NaN, which
    stays in its cell until the caller's select replaces it (the batch
    form's :func:`~repro.tensor.masked.masked_fill`, the single-slice
    form's ``np.where``).
    """
    z = np.asarray(residual / sigma)
    excess = np.empty_like(z)
    np.maximum(z, -k, out=excess)
    np.minimum(excess, k, out=excess)
    excess *= sigma
    np.subtract(residual, excess, out=excess)
    # z becomes t = 1 - min((z/k)², 1), then growth = φ ck (1 - t³) + 1 - φ.
    z /= k
    np.multiply(z, z, out=z)
    np.minimum(z, 1.0, out=z)
    np.subtract(1.0, z, out=z)
    growth = np.empty_like(z)
    np.multiply(z, z, out=growth)
    growth *= z
    np.subtract(1.0, growth, out=growth)
    growth *= ck
    growth *= phi
    growth += 1.0 - phi
    return excess, growth


def estimate_outliers(
    observed: np.ndarray,
    predicted: np.ndarray,
    sigma: np.ndarray,
    mask: np.ndarray,
    *,
    k: float = 2.0,
) -> np.ndarray:
    """Estimate the outlier subtensor ``O_t`` (Eq. 21).

    ``O_t = Y_t - Yhat - ψ((Y_t - Yhat)/Σ) Σ`` on observed entries: the
    residual in excess of ``k`` error scales.  Missing entries carry no
    outlier (zero).
    """
    return robust_step(observed, predicted, sigma, mask, k=k)[0]


def update_error_scale(
    observed: np.ndarray,
    predicted: np.ndarray,
    sigma: np.ndarray,
    mask: np.ndarray,
    *,
    phi: float,
    k: float = 2.0,
    ck: float = 2.52,
) -> np.ndarray:
    """Advance the error-scale tensor ``Σ_t`` (Eq. 22).

    Observed entries follow the biweight recursion
    ``Σ_t² = φ ρ((Y - Yhat)/Σ_{t-1}) Σ_{t-1}² + (1 - φ) Σ_{t-1}²``;
    missing entries keep their previous scale.  Note the ordering used by
    SOFIA: the caller estimates ``O_t`` with ``Σ_{t-1}`` *before* this
    update, so one extreme outlier cannot contaminate the scale it is
    judged against (paper §V-C1).
    """
    return robust_step(
        observed, predicted, sigma, mask, k=k, phi=phi, ck=ck
    )[1]


def robust_step(
    observed: np.ndarray,
    predicted: np.ndarray,
    sigma: np.ndarray,
    mask: np.ndarray,
    *,
    k: float = 2.0,
    phi: float = 0.01,
    ck: float = 2.52,
) -> tuple[np.ndarray, np.ndarray]:
    """Fused Eq. 21 + Eq. 22: outliers and the advanced error scale.

    Computes the forecast residual once and applies both the Huber
    outlier split (against the *previous* scale, preserving SOFIA's
    ordering) and the biweight scale recursion — the exact pair of
    updates Alg. 3 performs per incoming subtensor.
    """
    y = _as_float(observed)
    yhat = _as_float(predicted)
    sg = _as_float(sigma)
    check_same_shape(y, yhat, names=("observed", "predicted"))
    check_same_shape(y, sg, names=("observed", "sigma"))
    m = check_mask(mask, y.shape)
    excess, growth = _robust_terms(y - yhat, sg, k=k, phi=phi, ck=ck)
    np.sqrt(growth, out=growth)
    growth *= sg
    return np.where(m, excess, 0.0), np.where(m, growth, sg)


def robust_step_batch_at(
    coords: tuple[np.ndarray, ...],
    observed_values: np.ndarray,
    predicted_values: np.ndarray,
    sigma: np.ndarray,
    *,
    k: float = 2.0,
    phi: float = 0.01,
    ck: float = 2.52,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`robust_step_batch` restricted to the observed coordinates.

    Same batch-boundary freezing of ``Σ`` as the dense form — the
    per-entry growth factors ``φ ρ(r_b / Σ) + 1 - φ`` of a mini-batch
    multiply, so entries observed at several batch steps accumulate
    their product as one vectorized histogram of log-growths over the
    raveled spatial coordinates (no buffered element-at-a-time
    scatter).

    Parameters
    ----------
    coords:
        Tuple ``(batch_idx, i_1, ..., i_N)`` of index arrays of the
        observed entries of the stacked ``(B, *shape)`` batch.
    observed_values, predicted_values:
        The stacked data and Eq. 20 predictions gathered at ``coords``.
    sigma:
        The dense ``(*shape,)`` scale carried into the batch.

    Returns
    -------
    (outlier_values, new_sigma):
        Outlier estimates aligned with ``coords`` (1-D) and the dense
        advanced ``(*shape,)`` scale.
    """
    y = _as_float(observed_values)
    yhat = _as_float(predicted_values)
    sg = _as_float(sigma)
    spatial = coords[1:]
    sg_values = sg[spatial]
    outlier_values, growth = _robust_terms(
        y - yhat, sg_values, k=k, phi=phi, ck=ck
    )
    # Product over the batch via a sum of logs: growth is non-negative
    # (and zero only in the degenerate phi = 1 case, where log -> -inf
    # and exp recovers the exact zero product).
    flat = np.ravel_multi_index(spatial, sg.shape)
    with np.errstate(divide="ignore"):
        log_growth = np.log(growth)
    # np.bincount accumulates in float64 regardless of the weight dtype;
    # cast back so a float32 model's sigma does not silently upcast.
    log_product = np.bincount(flat, weights=log_growth, minlength=sg.size)
    growth_product = np.exp(log_product).reshape(sg.shape)
    new_sigma = (sg * np.sqrt(growth_product)).astype(sg.dtype, copy=False)
    return outlier_values, new_sigma


def robust_step_batch(
    observed: np.ndarray,
    predicted: np.ndarray,
    sigma: np.ndarray,
    mask: np.ndarray,
    *,
    k: float = 2.0,
    phi: float = 0.01,
    ck: float = 2.52,
    keep: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Eq. 21 + Eq. 22 over a mini-batch in one vectorized pass.

    The batch generalization of :func:`robust_step` for ``B`` stacked
    subtensors: every step's residual is judged against the error scale
    at the *batch boundary* ``Σ_{t-1}`` (the sequential recursion judges
    step ``b`` against ``Σ_{t+b-1}``), which turns the per-entry scale
    recursion into a closed-form product over the batch axis::

        Σ_{t+B-1}² = Σ_{t-1}² · Π_b (φ ρ(r_b / Σ_{t-1}) + 1 - φ)

    with unobserved entries contributing a factor of one.  Because the
    smoothing parameter ``φ`` is small (0.01 in the paper), the scale
    drifts at most ``O(B φ)`` within a batch, so freezing it is a
    second-order approximation — and it removes the only sequential
    tensor-sized pass of the mini-batch engine.

    Parameters
    ----------
    observed, predicted:
        Stacked ``(B, *shape)`` data and Eq. 20 predictions.
    sigma:
        The ``(*shape,)`` error scale carried into the batch.
    mask:
        Stacked ``(B, *shape)`` observation indicator.
    keep:
        :func:`~repro.tensor.masked.keep_mask` of ``mask`` for the
        result dtype, when the caller selects with the same mask again
        and has built it already; built here otherwise.

    Returns
    -------
    (outliers, new_sigma):
        Stacked ``(B, *shape)`` outlier estimates and the advanced
        ``(*shape,)`` scale.
    """
    y = _as_float(observed)
    yhat = _as_float(predicted)
    sg = _as_float(sigma)
    check_same_shape(y, yhat, names=("observed", "predicted"))
    if y.ndim != sg.ndim + 1 or y.shape[1:] != sg.shape:
        raise ShapeError(
            f"batch shape {y.shape} does not match sigma {sg.shape}"
        )
    m = check_mask(mask, y.shape)
    excess, growth = _robust_terms(y - yhat, sg, k=k, phi=phi, ck=ck)
    if keep is None:
        keep = keep_mask(m, excess.dtype)
    outliers = masked_fill(excess, keep, 0.0, out=excess)
    masked_fill(growth, keep, 1.0, out=growth)
    new_sigma = sg * np.sqrt(np.prod(growth, axis=0))
    return outliers, new_sigma
