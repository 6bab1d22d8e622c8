"""Fig. 7 experiment: linear scalability of the dynamic updates.

Reproduces §VI-F: a fully observed synthetic matrix stream with seasonal
period 10 is processed after a short initialization, and the *total
dynamic-update time* is measured (a) against the number of entries per
subtensor, by sampling subsets of the first mode, and (b) cumulatively
against the number of time steps.  Both curves should be straight lines
(Lemma 2).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.baselines import SofiaImputer
from repro.core import SofiaConfig
from repro.datasets import scalability_stream

__all__ = ["ScalabilityResult", "linear_fit_r2", "run_scalability"]


@dataclass(frozen=True)
class ScalabilityResult:
    """Timing sweeps of the Fig. 7 experiment."""

    entries_per_step: np.ndarray = field(repr=False)
    total_seconds: np.ndarray = field(repr=False)
    cumulative_steps: np.ndarray = field(repr=False)
    cumulative_seconds: np.ndarray = field(repr=False)

    @property
    def entries_r2(self) -> float:
        """R² of the time-vs-entries linear fit (Fig. 7a)."""
        return linear_fit_r2(self.entries_per_step, self.total_seconds)

    @property
    def steps_r2(self) -> float:
        """R² of the cumulative time-vs-steps linear fit (Fig. 7b)."""
        return linear_fit_r2(self.cumulative_steps, self.cumulative_seconds)


def linear_fit_r2(x: np.ndarray, y: np.ndarray) -> float:
    """Coefficient of determination of an ordinary least-squares line."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 2:
        raise ValueError("need at least two points")
    coeffs = np.polyfit(x, y, 1)
    predicted = np.polyval(coeffs, x)
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - ss_res / ss_tot


def run_scalability(
    *,
    row_sizes: Sequence[int] = (100, 200, 300, 400, 500),
    n_cols: int = 100,
    n_steps: int = 150,
    period: int = 10,
    rank: int = 5,
    seed: int = 0,
    batch_size: int = 1,
) -> ScalabilityResult:
    """Run the Fig. 7 sweeps (scaled down from 500x500x5000).

    Parameters
    ----------
    row_sizes:
        First-mode sample sizes — the paper samples {50, ..., 500}.  Keep
        subtensors above ~10k entries: below that the fixed per-step
        overhead dominates and the time-vs-entries curve is flat, not
        linear.
    n_cols, n_steps, period, rank:
        Stream geometry; the paper uses 500 columns, 5000 steps, m=10.
    seed:
        Data seed.
    batch_size:
        Mini-batch size for the dynamic phase; with ``B > 1`` each
        recorded interval covers one ``step_batch`` call and is spread
        over its steps (amortized per-step time), keeping both Fig. 7
        curves per-step.

    Update times are the calling thread's CPU time
    (``time.thread_time``), not wall time, so other processes competing
    for the cores cannot stretch single intervals and bend the fitted
    lines.  Process CPU time would also count the BLAS pool's worker
    threads, which spin between calls for however long the scheduler
    lets them, and that bent the time-vs-entries line just as badly.
    The sizes are stepped in turn, one step each, so a change in the
    machine's speed mid-sweep reaches every size alike.
    """
    import time

    stream = scalability_stream(
        max(row_sizes), n_cols, n_steps, period=period, rank=rank, seed=seed
    )
    startup = 3 * period

    config = SofiaConfig(
        rank=rank,
        period=period,
        lambda1=0.1,
        lambda2=0.1,
        max_outer_iters=50,
        tol=1e-4,
        batch_size=batch_size,
    )
    runs = []
    for rows in row_sizes:
        data = stream.data[:rows]
        mask = np.ones(data.shape[:-1], dtype=bool)
        algo = SofiaImputer(config)
        algo.initialize(
            [data[..., t] for t in range(startup)], [mask] * startup
        )
        runs.append((data, mask, algo, []))
    for t in range(startup, n_steps, batch_size):
        stop = min(t + batch_size, n_steps)
        for data, mask, algo, per_step in runs:
            t0 = time.thread_time()
            if batch_size == 1:
                algo.step(data[..., t], mask)
            else:
                algo.step_batch(
                    np.moveaxis(data[..., t:stop], -1, 0),
                    np.broadcast_to(mask, (stop - t,) + mask.shape),
                )
            per_step.extend(
                [(time.thread_time() - t0) / (stop - t)] * (stop - t)
            )
    entries = [rows * n_cols for rows in row_sizes]
    totals = [float(np.sum(per_step)) for *_, per_step in runs]
    largest = runs[int(np.argmax(row_sizes))][-1]
    cumulative_steps = np.arange(1, len(largest) + 1)
    cumulative_seconds = np.cumsum(largest)
    return ScalabilityResult(
        entries_per_step=np.asarray(entries, dtype=np.float64),
        total_seconds=np.asarray(totals),
        cumulative_steps=cumulative_steps,
        cumulative_seconds=cumulative_seconds,
    )
