"""SOFIA dynamic updates: the online phase of the paper (Alg. 3).

Each step: forecast the temporal vector with Holt-Winters (Eq. 19),
predict the incoming subtensor (Eq. 20), split off outliers with the
Huber pre-cleaning rule (Eq. 21), advance the per-entry error scales
(Eq. 22), take one gradient step on the non-temporal factors (Eq. 24) and
the temporal vector (Eq. 25), and finally advance the HW components
(Eq. 26).  Work per step is ``O(|Ω_t| N R)`` in observed-entry count
(Lemma 2); this implementation uses dense masked arithmetic, so its cost
is linear in the subtensor size, which coincides with the bound for the
fully observed streams of the scalability experiment (Fig. 7).

There is one implementation, :func:`dynamic_step_batch`, which consumes
``B`` subtensors per call; a single subtensor is a batch of one
(:meth:`repro.core.sofia.Sofia.step`), so offline runs and every served
flush take the same path.  The gradient contractions, predictions and
completions route through :mod:`repro.tensor.kernels`: the MTTKRP
kernel contracts the residual stack against the factors directly (no
materialized Khatri-Rao product) and the trace bound ``trace(KᵀK)``
comes from per-column norm products.

Sparse routing
--------------
When the incoming masks are observed below ``config.density_threshold``
(5% by default), :func:`dynamic_step_batch` switches to a
per-observed-entry execution path: the Eq. 21-22 robust split runs only
at the observed coordinates
(:func:`~repro.core.outliers.robust_step_batch_at`) and the Eq. 24-25
gradient contractions gather factor rows per entry
(:func:`repro.tensor.kernels.mttkrp_observed`) — ``O(|Ω_t| N R)``, the
bound of Lemma 2, instead of work linear in the subtensor volume.  The
arithmetic at observed entries is unchanged, so the two paths produce
the same trajectory to floating-point round-off; only the dense
per-step *outputs* (prediction, completion, the scattered outlier
tensor) remain volume-sized.

The routing defers to the active kernel backend via its
``keeps_dense_steps`` capability flag: the pure-dense ``"batched"``
and scalar ``"reference"`` backends (and, by default, any third-party
backend) are never bypassed, so pinning one (``set_backend``,
``REPRO_KERNEL_BACKEND``) exercises exactly that execution path end to
end, as the CI backend matrix relies on.  Under ``"auto"`` (the
default) and ``"sparse"``, which opt out of the flag, the density
threshold decides.

Device residency
----------------
Backends with host↔device converters (the ``"xp"`` backend on a
non-NumPy array module) get their transfers routed at the *batch
boundary*: the factor matrices move to the device once per
:func:`dynamic_step_batch` call via
:func:`repro.tensor.kernels.to_device` and every kernel call of the
batch reuses the resident copies; only the kernel *results* that feed
host-side logic (the robust split, the ``O(R)`` temporal recurrences,
the returned :class:`~repro.core.model.SofiaStep` arrays) come back
through :func:`repro.tensor.kernels.from_device`.  For backends
without converters both hooks are the identity.

Dtype: the step follows ``state.dtype`` (the factors' dtype), so a
model initialized under ``SofiaConfig(dtype="float32")`` runs its whole
dynamic phase in float32.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SofiaConfig
from repro.core.model import SofiaModelState, SofiaStep
from repro.core.outliers import robust_step_batch, robust_step_batch_at
from repro.exceptions import ShapeError
from repro.tensor import kernels
from repro.tensor.masked import keep_mask, masked_fill
from repro.tensor.validation import check_mask

__all__ = ["dynamic_step_batch"]


def _takes_sparse_path(mask: np.ndarray, config: SofiaConfig) -> bool:
    """Whether this step's tensor-sized work runs per observed entry.

    Backends that declare ``keeps_dense_steps`` (the pure dense/scalar
    paths, and any third-party backend that wants its kernels to see
    all the work) are never bypassed.
    """
    if kernels.active_backend().keeps_dense_steps:
        return False
    return np.count_nonzero(mask) < config.density_threshold * mask.size


def dynamic_step_batch(
    state: SofiaModelState,
    subtensors: np.ndarray,
    masks: np.ndarray,
    config: SofiaConfig,
) -> list[SofiaStep]:
    """Process ``B`` incoming subtensors as one mini-batch (Alg. 3, batched).

    The expensive tensor-sized work of ``B`` consecutive dynamic steps is
    fused into one kernel call each: the Eq. 20 predictions and the final
    completions run as one :func:`repro.tensor.kernels.kruskal_reconstruct_rows`
    call per batch, and the Eq. 24-25 gradient contractions run as one
    :func:`repro.tensor.kernels.mttkrp` call per mode over the residual
    stack (the batch axis contracts against the forecast-weight matrix,
    which is exactly the sum of the per-step gradients).  Only ``O(R)``
    recurrences (Holt-Winters, ring buffer) and the element-wise robust
    scale scan stay sequential in ``B``.

    Below ``config.density_threshold`` observed fraction the robust
    split and the gradient contractions run per observed entry (see the
    module docstring) — on large sparse batches this skips the dense
    element-wise robust pass over the stacked batch entirely.

    This is the only implementation of Alg. 3: :meth:`Sofia.step` calls
    it with ``B = 1``, where freezing the factors and the error scale at
    the batch boundary changes nothing and the step is exactly the
    sequential update.  ``B > 1``
    freezes the factor matrices at the batch boundary and forecasts the
    temporal vectors ``B`` steps ahead with Eq. 28 (the same multi-step
    forecast the paper uses beyond the stream), so it is a mini-batch
    gradient step: within-batch factor drift of the sequential
    trajectory — ``O(B μ)`` per batch — is applied once at the end
    instead of incrementally.  The parity suite pins the resulting
    trajectory deviation.

    Mutates ``state`` in place and returns one :class:`SofiaStep` per
    subtensor, oldest first.
    """
    dtype = state.dtype
    ys = np.asarray(subtensors, dtype=dtype)
    if ys.ndim < 2 or ys.shape[1:] != state.subtensor_shape:
        raise ShapeError(
            f"mini-batch shape {ys.shape} does not match (B, "
            f"{', '.join(str(s) for s in state.subtensor_shape)})"
        )
    n_batch = ys.shape[0]
    if n_batch == 0:
        raise ShapeError("mini-batch must contain at least one subtensor")
    ms = check_mask(masks, ys.shape)

    factors = state.non_temporal
    n_modes = len(factors)
    rank = state.rank

    # (1) Forecast the temporal vectors for the whole batch (Eq. 28) and
    #     all B subtensor predictions in one batched Kruskal call.  The
    #     to_device/from_device hooks are the identity on CPU backends;
    #     under a device backend the factor matrices move to the device
    #     here, once, and stay resident for every kernel call of the
    #     batch.
    u_forecasts = state.hw.forecast(n_batch).astype(dtype, copy=False)
    dev_factors = [kernels.to_device(f) for f in factors]
    dev_forecasts = kernels.to_device(u_forecasts)
    predictions = kernels.from_device(
        kernels.kruskal_reconstruct_rows(dev_factors, dev_forecasts)
    )

    # (2) Outlier split and error-scale advance (Eq. 21-22) for the whole
    #     batch, with the scale frozen at the batch boundary (see
    #     :func:`robust_step_batch`).  Below the density threshold the
    #     split runs only at the observed coordinates — the dense
    #     element-wise ψ/ρ pass over the stacked batch, which dominates
    #     very large sparse batches, is skipped entirely — and the
    #     gradient contractions gather per entry.  Above it, the three
    #     masked selects of the batch (outliers, scale growth, residual)
    #     share one integer keep mask and are bitwise ANDs
    #     (:func:`~repro.tensor.masked.masked_fill`): missing cells may
    #     hold NaN, ±inf or any finite filler, so the observed stack is
    #     zeroed there by its bits before the ψ/ρ arithmetic reads it
    #     (a filler such as 1e300 would overflow its square).
    if _takes_sparse_path(ms, config):
        coords = np.nonzero(ms)
        observed_values = ys[coords]
        predicted_values = predictions[coords]
        outlier_values, state.sigma = robust_step_batch_at(
            coords,
            observed_values,
            predicted_values,
            state.sigma,
            k=config.huber_k,
            phi=config.phi,
            ck=config.biweight_c,
        )
        outliers = np.zeros_like(ys)
        outliers[coords] = outlier_values
        residual_values = observed_values - outlier_values - predicted_values
        kernel_factors = factors
        batch_weights = u_forecasts

        def contract(mats, mode):
            dim = n_batch if mode == 0 else None
            return kernels.mttkrp_observed(
                coords, residual_values, mats, mode, dim=dim
            )
    else:
        keep = keep_mask(ms, np.result_type(ys, predictions, state.sigma))
        ys = masked_fill(ys, keep, 0.0)
        outliers, state.sigma = robust_step_batch(
            ys,
            predictions,
            state.sigma,
            ms,
            k=config.huber_k,
            phi=config.phi,
            ck=config.biweight_c,
            keep=keep,
        )
        residuals = ys - outliers
        residuals -= predictions
        residuals = kernels.to_device(
            masked_fill(residuals, keep, 0.0, out=residuals)
        )
        kernel_factors = dev_factors
        batch_weights = dev_forecasts

        def contract(mats, mode):
            return kernels.mttkrp(residuals, mats, mode)

    # (3) Mini-batch gradient steps (Eq. 24-25) at the frozen factors.
    #     The residual stack keeps the batch as axis 0; contracting it
    #     against the forecast-weight matrix turns the summed per-step
    #     MTTKRPs into one kernel call per mode.  Under the Lipschitz
    #     normalization the summed data term of the batch has trace bound
    #     ``Σ_b trace(K_bᵀK_b)``, so one step of ``μ / Σ_b L_b`` is the
    #     batch analogue of the per-step ``μ / L_b`` — stable for any
    #     ``μ < 1`` regardless of the batch size (a naive sum of the B
    #     individually normalized steps overshoots by up to B and
    #     diverges).
    normalize = config.step_normalization == "lipschitz"
    col_sq = [np.einsum("ir,ir->r", f, f) for f in factors]
    w_sq = u_forecasts * u_forecasts
    new_factors = []
    for mode in range(n_modes):
        prod_others = np.ones(rank)
        for other in range(n_modes):
            if other != mode:
                prod_others = prod_others * col_sq[other]
        step = config.mu
        if normalize:
            step = config.mu / max(float(np.sum(w_sq @ prod_others)), 1e-12)
        gradient = kernels.from_device(
            contract([batch_weights, *kernel_factors], mode + 1)
        )
        new_factors.append(factors[mode] + 2.0 * step * gradient)

    # Contracting every *non-batch* axis leaves the (B, R) data terms of
    # Eq. 25; the batch-axis slot of the matrix list is never read.
    data_terms = kernels.from_device(contract([None, *kernel_factors], 0))
    step_u = config.mu
    if normalize:
        prod_all = np.ones(rank)
        for sq in col_sq:
            prod_all = prod_all * sq
        step_u = config.mu / max(
            float(np.sum(prod_all)) + config.lambda1 + config.lambda2, 1e-12
        )

    # (4) Temporal vectors, ring buffer, and HW advances — O(R) per step.
    period = state.temporal_buffer.shape[0]
    history = np.vstack(
        [state.temporal_buffer, np.zeros((n_batch, rank), dtype=dtype)]
    )
    lam_sum = config.lambda1 + config.lambda2
    for b in range(n_batch):
        u_f = u_forecasts[b]
        history[period + b] = u_f + 2.0 * step_u * (
            data_terms[b]
            + config.lambda1 * history[period + b - 1]
            + config.lambda2 * history[b]
            - lam_sum * u_f
        )
    u_news = history[period:]
    state.non_temporal = new_factors
    state.hw.update_many(u_news)
    state.temporal_buffer = history[-period:].copy()
    state.t += n_batch

    completed = kernels.from_device(
        kernels.kruskal_reconstruct_rows(
            [kernels.to_device(f) for f in new_factors],
            kernels.to_device(u_news),
        )
    )
    return [
        SofiaStep(
            completed=completed[b],
            outliers=outliers[b],
            prediction=predictions[b],
            temporal_forecast=u_forecasts[b],
            temporal_vector=u_news[b].copy(),
        )
        for b in range(n_batch)
    ]
