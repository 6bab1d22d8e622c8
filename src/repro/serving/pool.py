"""Flush execution: one session's batch in, its result out.

A :class:`FlushRequest` describes everything one session's flush needs
— the live :class:`~repro.core.Sofia` model (or, for a session still
warming up, the completed initialization window) plus the buffered
dynamic-phase slices — and a :class:`FlushResult` carries everything
the manager must commit back.  :func:`execute_requests` runs requests
in-process on the calling scheduler dispatch thread: the session
manager prepares a request under the session's lock, hands it over,
and commits the result under the same lock.

Execution never raises.  A failing batch becomes an ``error`` result,
and the manager marks only that session failed.  So does a batch that
leaves non-finite factors, error scale or Holt-Winters state: the
session fails instead of committing state that would turn every later
result NaN.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SofiaConfig
from repro.core.sofia import Sofia
from repro.tensor import kernels
from repro.tensor.masked import keep_mask, masked_fill

__all__ = [
    "FlushRequest",
    "FlushResult",
    "execute_request",
    "execute_requests",
]


@dataclass
class FlushRequest:
    """One session's flush, as plain data.

    ``model`` carries the session's live model — or ``None``, when this
    flush *initializes* the session from its completed warmup window
    (``warmup_ys`` set).  ``step_seqs``/``step_ys``/``step_masks``
    describe the dynamic-phase slices to apply after any
    initialization, oldest first.

    ``trace_ids`` maps sequence numbers to lifecycle trace ids for the
    slices that are being traced (usually none); it is echoed back on
    the result.
    """

    session_id: str
    config: SofiaConfig
    kernel_backend: str | None = None
    model: Sofia | None = None
    warmup_seqs: list[int] = field(default_factory=list)
    warmup_ys: np.ndarray | None = None
    warmup_masks: np.ndarray | None = None
    step_seqs: list[int] = field(default_factory=list)
    step_ys: np.ndarray | None = None
    step_masks: np.ndarray | None = None
    trace_ids: dict[int, str] = field(default_factory=dict)


@dataclass
class FlushResult:
    """What one executed flush hands back to the manager.

    ``results`` pairs each consumed slice's sequence number with its
    completed (imputed) reconstruction.  ``model`` is the updated (or
    freshly initialized) model; ``error`` is the formatted exception
    when execution failed (the other fields then describe nothing and
    the manager marks the session failed).

    ``quality`` carries one ``(seq, observed, residual_ss, signal_ss,
    outliers)`` tuple per dynamic-phase slice — scalar aggregates of
    arrays the step already produced (one-step-ahead forecast
    residuals, outlier indicators), folded into the session's quality
    window at commit.  ``error_scale`` is the post-batch mean of the
    model's running error scale Sigma-hat.  ``trace_ids`` is the
    request's map, echoed back.
    """

    session_id: str
    results: list[tuple[int, np.ndarray]] = field(default_factory=list)
    consumed: int = 0
    model: Sofia | None = None
    error: str | None = None
    seconds: float = 0.0
    quality: list[tuple] = field(default_factory=list)
    error_scale: float | None = None
    trace_ids: dict[int, str] = field(default_factory=dict)


def _backend_scope(name: str | None):
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


def execute_request(request: FlushRequest) -> FlushResult:
    """Run one flush; never raises (failures become ``error`` results)."""
    started = time.perf_counter()
    result = FlushResult(session_id=request.session_id)
    try:
        with _backend_scope(request.kernel_backend):
            sofia = request.model
            if request.warmup_ys is not None:
                sofia = Sofia(request.config)
                completed = sofia.initialize(
                    list(request.warmup_ys), list(request.warmup_masks)
                )
                result.results.extend(
                    zip(request.warmup_seqs, completed)
                )
                result.consumed += len(request.warmup_seqs)
            if request.step_ys is not None and len(request.step_seqs):
                steps = sofia.step_batch(
                    request.step_ys, request.step_masks
                )
                result.results.extend(
                    (seq, step.completed)
                    for seq, step in zip(request.step_seqs, steps)
                )
                result.consumed += len(request.step_seqs)
                result.quality = _quality_aggregates(
                    request.step_seqs,
                    steps,
                    request.step_ys,
                    request.step_masks,
                )
                result.error_scale = float(
                    np.mean(np.asarray(sofia.state.sigma))
                )
            if sofia is not None:
                _check_finite(sofia)
        result.model = sofia
    except Exception as exc:  # noqa: BLE001 - flush boundary
        result = FlushResult(
            session_id=request.session_id,
            error=f"{type(exc).__name__}: {exc}",
        )
    # Echoed even on error results, so a failed flush still completes
    # its slices' spans (with the error recorded) instead of leaving
    # dangling traces.
    result.trace_ids = dict(request.trace_ids)
    result.seconds = time.perf_counter() - started
    return result


def execute_requests(requests: list[FlushRequest]) -> list[FlushResult]:
    """Execute requests back to back, each isolated from the others."""
    return [execute_request(request) for request in requests]
