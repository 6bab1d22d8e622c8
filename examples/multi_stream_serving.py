"""Serve several tensor streams concurrently from one runtime.

Four synthetic sensor streams (different seasonal patterns, 25% missing
entries) are served by a single :class:`repro.serving.SessionManager`
capped at **two resident models**: as slices arrive round-robin, the
micro-batching scheduler groups each session's slices into
``step_batch`` flushes while cold sessions spill to disk checkpoints
and rehydrate transparently.  This is the same code path the
``repro-serve`` HTTP gateway runs behind.

Run with::

    python examples/multi_stream_serving.py
"""

import numpy as np

from repro.datasets import seasonal_stream
from repro.serving import InProcessServingClient, SessionManager
from repro.tensor import relative_error


def main() -> None:
    period = 6
    dims = (6, 5)
    n_steps = 36
    config = {
        "rank": 2,
        "period": period,
        "init_seasons": 2,      # 12 warmup slices per session
        "lambda1": 0.1,
        "lambda2": 0.1,
        "max_outer_iters": 50,
        "tol": 1e-5,
    }

    # 1. Four independent ground-truth streams + observation masks.
    session_ids = [f"sensor-{i}" for i in range(4)]
    truths, masks = {}, {}
    for i, sid in enumerate(session_ids):
        stream = seasonal_stream(
            dims=dims, rank=2, period=period, n_steps=n_steps, seed=30 + i
        )
        rng = np.random.default_rng(100 + i)
        truths[sid] = stream.data
        masks[sid] = rng.random(stream.shape) > 0.25

    # 2. One runtime, two resident models for four sessions: half the
    #    fleet always lives as on-disk checkpoints.
    manager = SessionManager(
        max_resident=2,
        max_batch=4,
        max_latency_s=60.0,
        workers=2,
    )
    client = InProcessServingClient(manager)
    with manager:
        for sid in session_ids:
            client.create_session(sid, config)

        # 3. Slices arrive round-robin across sessions (warmup slices
        #    initialize each model on the background dispatch threads).
        for t in range(n_steps):
            for sid in session_ids:
                client.ingest(
                    sid, truths[sid][..., t], masks[sid][..., t]
                )
        manager.drain()

        # 4. Score each session's recent completions against its truth.
        print(f"serving {len(session_ids)} sessions, 2 resident:")
        for sid in session_ids:
            errors = [
                relative_error(r.completed, truths[sid][..., r.seq])
                for r in client.results(sid, since=24)
            ]
            info = client.session_info(sid)
            print(
                f"  {sid}: status={info['status']:>7}  "
                f"consumed={info['consumed']}  "
                f"recent NRE={np.mean(errors):.4f}"
            )

        # 5. Forecast one season ahead for every session.
        for sid in session_ids:
            result = client.forecast(sid, period)
            print(f"  {sid}: forecast shape {result.forecast.shape}")

        # 6. The eviction tier did real work while we streamed.
        metrics = client.metrics()
        print(
            f"micro-batching: {metrics['slices_flushed']} slices in "
            f"{metrics['batches_flushed']} flushes "
            f"(mean batch {metrics['mean_batch_size']:.1f})"
        )
        print(
            f"eviction tier: {metrics['evictions']} evictions, "
            f"{metrics['rehydrations']} rehydrations"
        )


if __name__ == "__main__":
    main()
