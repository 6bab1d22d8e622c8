"""Serving-throughput benchmark: micro-batching vs per-step flushing.

Measures sustained ingestion throughput (slices/sec) of the
multi-tenant serving runtime at fleet sizes N ∈ {1, 8, 64}.  For each
N the identical workload — S slices per session, submitted round-robin
across the fleet — runs twice through the same scheduler/worker
machinery:

* ``per_step``: ``max_batch=1`` — every slice is flushed through its
  own ``Sofia.step`` dispatch (the naive serving loop);
* ``batched``: ``max_batch=16`` — the micro-batching scheduler fuses
  buffered slices into ``Sofia.step_batch`` calls, amortizing the
  per-step kernel dispatch over the batch (PR 2's B-sweep is where the
  ratio comes from).

All sessions warm-start from one pre-fitted checkpoint, so the timed
region contains only the dynamic phase.  The latency deadline is
pushed out of reach: flushes are size-triggered, making the batch
boundaries (and thus the report) deterministic.  Reported per case
``serving_sessions_<N>``:

* ``per_step_seconds`` / ``batched_seconds`` — wall-clock for the
  whole workload (gated by ``check_regression.py``);
* ``speedup`` — per_step over batched (gated machine-independently);
* ``per_step_slices_per_sec`` / ``batched_slices_per_sec`` —
  the headline throughput numbers (informational).

A final ``eviction_capped_64`` case re-runs the batched N=64 workload
with ``max_resident=8``, reporting the capped throughput and the
eviction/rehydration counts (informational — checkpoint I/O is too
disk-dependent to gate).

Run::

    python benchmarks/bench_serving.py --quick --json BENCH_serving.json
"""

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import Sofia, SofiaConfig
from repro.core.serialization import save_sofia
from repro.datasets import seasonal_stream
from repro.serving import SessionManager

DIMS = (40, 30)
RANK = 5
PERIOD = 12
MAX_BATCH = 16


def make_checkpoint(directory: Path) -> tuple[Path, SofiaConfig]:
    """Fit one model on a startup window and checkpoint it."""
    config = SofiaConfig(
        rank=RANK,
        period=PERIOD,
        init_seasons=2,
        lambda1=0.1,
        lambda2=0.1,
        max_outer_iters=50,
        tol=1e-5,
    )
    stream = seasonal_stream(
        dims=DIMS,
        rank=RANK,
        period=PERIOD,
        n_steps=config.init_steps,
        seed=5,
    )
    sofia = Sofia(config)
    sofia.initialize(
        [stream.data[..., t] for t in range(config.init_steps)]
    )
    path = directory / "serving-baseline.npz"
    save_sofia(sofia, path)
    return path, config


def make_workload(n_slices: int, seed: int) -> np.ndarray:
    """(n_slices, *DIMS) of fresh post-startup slices."""
    stream = seasonal_stream(
        dims=DIMS, rank=RANK, period=PERIOD, n_steps=n_slices, seed=seed
    )
    return np.moveaxis(stream.data, -1, 0).copy()


def run_fleet(
    checkpoint: Path,
    n_sessions: int,
    slices: np.ndarray,
    *,
    max_batch: int,
    workers: int,
    max_resident: int | None = None,
) -> tuple[float, dict]:
    """Time one full workload; returns (seconds, metrics snapshot)."""
    with SessionManager(
        max_resident=max_resident,
        max_batch=max_batch,
        max_latency_s=3600.0,
        workers=workers,
        keep_results=1,
    ) as manager:
        for i in range(n_sessions):
            manager.create_session(f"s{i}", checkpoint=str(checkpoint))
        started = time.perf_counter()
        for t in range(slices.shape[0]):
            for i in range(n_sessions):
                manager.ingest(f"s{i}", slices[t])
        manager.drain()
        elapsed = time.perf_counter() - started
        metrics = manager.metrics.snapshot()
    return elapsed, metrics


def run_serving_report(
    *,
    quick: bool = False,
    workers: int = 2,
    fleet_sizes: tuple[int, ...] = (1, 8, 64),
) -> dict:
    # Sized so even the fastest gated timing (batched, N=1) clears
    # check_regression's 5 ms noise floor with margin.
    slices_per_session = 48 if quick else 128
    results = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-serving-") as tmp:
        checkpoint, _ = make_checkpoint(Path(tmp))
        workload = make_workload(slices_per_session, seed=6)
        for n_sessions in fleet_sizes:
            total_slices = n_sessions * slices_per_session
            per_step_seconds, _ = run_fleet(
                checkpoint,
                n_sessions,
                workload,
                max_batch=1,
                workers=workers,
            )
            batched_seconds, batched_metrics = run_fleet(
                checkpoint,
                n_sessions,
                workload,
                max_batch=MAX_BATCH,
                workers=workers,
            )
            results.append(
                {
                    "case": f"serving_sessions_{n_sessions}",
                    "n_sessions": n_sessions,
                    "slices_per_session": slices_per_session,
                    "per_step_seconds": per_step_seconds,
                    "batched_seconds": batched_seconds,
                    "speedup": per_step_seconds
                    / max(batched_seconds, 1e-12),
                    "per_step_slices_per_sec": total_slices
                    / max(per_step_seconds, 1e-12),
                    "batched_slices_per_sec": total_slices
                    / max(batched_seconds, 1e-12),
                    "mean_batch_size": batched_metrics["mean_batch_size"],
                }
            )
        # Eviction-capped run: informational (disk-bound), not gated —
        # no *_seconds / speedup keys on purpose.
        n_capped = max(fleet_sizes)
        capped_elapsed, capped_metrics = run_fleet(
            checkpoint,
            n_capped,
            workload,
            max_batch=MAX_BATCH,
            workers=workers,
            max_resident=8,
        )
        results.append(
            {
                "case": f"eviction_capped_{n_capped}",
                "n_sessions": n_capped,
                "max_resident": 8,
                "capped_slices_per_sec": n_capped
                * slices_per_session
                / max(capped_elapsed, 1e-12),
                "evictions": capped_metrics["evictions"],
                "rehydrations": capped_metrics["rehydrations"],
            }
        )
    return {
        "benchmark": "serving_throughput",
        "dims": list(DIMS),
        "rank": RANK,
        "period": PERIOD,
        "max_batch": MAX_BATCH,
        "workers": workers,
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "results": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Serving throughput: micro-batched vs per-step "
        "flushing across fleet sizes."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized workload (48 slices/session instead of 128)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="flush workers (default 2)"
    )
    parser.add_argument(
        "--json",
        default=None,
        help="also write the report to this path",
    )
    args = parser.parse_args(argv)

    payload = run_serving_report(quick=args.quick, workers=args.workers)
    for entry in payload["results"]:
        if "per_step_seconds" in entry:
            print(
                f"{entry['case']}: per-step "
                f"{entry['per_step_slices_per_sec']:.0f} sl/s, batched "
                f"{entry['batched_slices_per_sec']:.0f} sl/s "
                f"({entry['speedup']:.2f}x, mean batch "
                f"{entry['mean_batch_size']:.1f})"
            )
        else:
            print(
                f"{entry['case']}: {entry['capped_slices_per_sec']:.0f} "
                f"sl/s with max_resident={entry['max_resident']} "
                f"({entry['evictions']} evictions, "
                f"{entry['rehydrations']} rehydrations)"
            )
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
