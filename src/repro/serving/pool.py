"""Flush execution: one session's batch in, its outputs back.

:func:`execute_requests` runs one session's flush in-process on the
calling scheduler dispatch thread, under the session's lock the
manager already holds: the live :class:`~repro.core.Sofia` model (or
``None`` for a session whose initialization window just completed)
and the stacked slices go in; the model, each slice's completed
reconstruction and the per-slice quality aggregates come back.

A failing batch raises, and so does a batch that leaves non-finite
factors, error scale or Holt-Winters state — which would turn every
later result NaN.  The manager catches either and marks only that
session failed.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.core.config import SofiaConfig
from repro.core.sofia import Sofia
from repro.tensor import kernels
from repro.tensor.masked import keep_mask, masked_fill

__all__ = ["backend_scope", "execute_requests"]


def backend_scope(name: str | None):
    """Run a block under kernel backend ``name`` (``None``: the active one)."""
    return nullcontext() if name is None else kernels.use_backend(name)


def _quality_aggregates(seqs, steps, ys, masks) -> list[tuple]:
    """One ``(seq, observed, residual_ss, signal_ss, outliers)`` per slice.

    Scalar aggregates of arrays the step already computed — reductions
    only, no new linear algebra — taken over the whole ``(B, …)`` batch
    with one reduction per quantity.  ``residual_ss`` and ``signal_ss``
    sum the squared one-step-ahead forecast residual and the squared
    data over observed entries; missing cells may hold NaN, so both are
    zeroed by their bits (:func:`~repro.tensor.masked.masked_fill`)
    before any arithmetic reads them.
    """
    n = len(seqs)
    mask = np.asarray(masks, dtype=bool).reshape(n, -1)
    keep = keep_mask(mask, np.float64)
    signal = masked_fill(
        np.asarray(ys, dtype=np.float64).reshape(n, -1), keep, 0.0
    )
    forecast = np.asarray([step.prediction for step in steps], dtype=float)
    residual = signal - forecast.reshape(n, -1)
    masked_fill(residual, keep, 0.0, out=residual)
    outliers = np.asarray([step.outliers for step in steps]).reshape(n, -1)
    return list(
        zip(
            seqs,
            mask.sum(axis=1).tolist(),
            np.square(residual, out=residual).sum(axis=1).tolist(),
            np.square(signal, out=signal).sum(axis=1).tolist(),
            (outliers != 0).sum(axis=1).tolist(),
        )
    )


def _check_finite(sofia: Sofia) -> None:
    """Raise when a flush left non-finite model state.

    One NaN or infinity in the factors, the error scale or the
    Holt-Winters state spreads into every later result and forecast,
    so such a flush fails its session instead of committing.
    """
    state = sofia.state
    hw = state.hw
    parts = {
        "factors": [*state.non_temporal, state.temporal_buffer],
        "error scale": [state.sigma],
        "Holt-Winters state": [hw.level, hw.trend, hw.seasonal],
    }
    # One pass over all of it; the per-part scan only names the culprit.
    flat = [array.ravel() for arrays in parts.values() for array in arrays]
    if np.isfinite(np.concatenate(flat)).all():
        return
    for name, arrays in parts.items():
        if not all(np.isfinite(array).all() for array in arrays):
            raise FloatingPointError(f"flush left non-finite {name}")


def execute_requests(
    config: SofiaConfig,
    kernel_backend: str | None,
    model: Sofia | None,
    seqs: list[int],
    ys: np.ndarray,
    masks: np.ndarray,
) -> tuple[Sofia, list[tuple[int, np.ndarray]], list[tuple], float | None]:
    """Apply one session's stacked slices; return what the manager commits.

    ``seqs`` numbers the ``(B, …)`` stacks ``ys``/``masks``, oldest
    first.  With ``model`` ``None`` the first ``config.init_steps``
    slices initialize a fresh model and the rest are stepped; otherwise
    every slice is a dynamic-phase step of ``model``, in place.

    Returns ``(model, results, quality, error_scale)``: ``results``
    pairs each slice's seq with its completed (imputed) reconstruction;
    ``quality`` holds one ``(seq, observed, residual_ss, signal_ss,
    outliers)`` tuple per stepped slice; ``error_scale`` is the
    post-batch mean of the running error scale Sigma-hat, ``None`` when
    no slice was stepped.
    """
    results: list[tuple[int, np.ndarray]] = []
    quality: list[tuple] = []
    error_scale = None
    with backend_scope(kernel_backend):
        if model is None:
            n = config.init_steps
            model = Sofia(config)
            completed = model.initialize(list(ys[:n]), list(masks[:n]))
            results.extend(zip(seqs, completed))
            seqs, ys, masks = seqs[n:], ys[n:], masks[n:]
        if len(seqs):
            steps = model.step_batch(ys, masks)
            results.extend(
                (seq, step.completed) for seq, step in zip(seqs, steps)
            )
            quality = _quality_aggregates(seqs, steps, ys, masks)
            error_scale = float(np.mean(np.asarray(model.state.sigma)))
        _check_finite(model)
    return model, results, quality, error_scale
