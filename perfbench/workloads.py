"""The three closed-loop workloads, their inputs and output checks.

Every workload drives one client thread in a closed loop: the next
unit starts only after the previous one returned.  Inputs are 40x30
rank-5 period-12 slices from ``seasonal_stream``, corrupted at the
paper's (30, 15, 3) setting, made from the benchmark seed alone; the
program under test only ever sees the generated slices.  Every session
warm-starts from one checkpoint fitted on the stream's startup window.

A unit's timed region holds only operations whose return means the
work is done (``impute``; ``ingest`` then ``forecast``; a round of
ingests followed by ``drain``).  Checks and bookkeeping run outside it.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core import Sofia, SofiaConfig
from repro.core.serialization import load_sofia, save_sofia
from repro.datasets import seasonal_stream
from repro.serving import SessionManager
from repro.serving.client import HTTPServingClient
from repro.serving.gateway import serve
from repro.serving.shard import start_local_cluster
from repro.streams.corruption import CorruptionSpec, corrupt
from repro.streams.metrics import (
    average_forecast_error,
    normalized_residual_error,
)

DIMS = (40, 30)
RANK = 5
PERIOD = 12
#: Slices per session in the input cycle; a multiple of the period, so
#: the clean stream (no trend, no noise) continues exactly across laps.
CYCLE = 48
SPEC = CorruptionSpec(30, 15, 3)
DATASET_SEED = 5
HORIZON = 12
CONFIG = SofiaConfig(
    rank=RANK,
    period=PERIOD,
    init_seasons=2,
    lambda1=0.1,
    lambda2=0.1,
    max_outer_iters=50,
    tol=1e-5,
)


@dataclass(frozen=True)
class Inputs:
    """Everything a workload feeds the program, made from one seed."""

    startup_observed: np.ndarray  # (init_steps, *DIMS)
    startup_mask: np.ndarray
    clean: np.ndarray  # (CYCLE, *DIMS) ground truth after startup
    observed: np.ndarray  # (sessions, CYCLE, *DIMS)
    masks: np.ndarray


def make_inputs(seed: int, sessions: int) -> Inputs:
    """One clean stream, plus an independent corruption per session.

    The clean stream and its corrupted startup window, on which the
    shared checkpoint is fitted, are a fixed synthetic dataset; the
    seed draws the corruption (missing entries and outliers) of every
    session.  Drawing the stream or the startup window from the seed
    made NRE/AFE differ by up to 2x between seeds (some fits are
    worse than others), which no bound could hold.
    """
    seeds = np.random.SeedSequence(seed).spawn(sessions)
    init = CONFIG.init_steps
    stream = seasonal_stream(
        dims=DIMS,
        rank=RANK,
        period=PERIOD,
        n_steps=init + CYCLE,
        seed=DATASET_SEED,
    )
    series = np.moveaxis(stream.data, -1, 0)
    startup = corrupt(series[:init], SPEC, seed=DATASET_SEED)
    clean = series[init:].copy()
    corrupted = [
        corrupt(clean, SPEC, seed=np.random.default_rng(s)) for s in seeds
    ]
    return Inputs(
        startup_observed=startup.observed,
        startup_mask=startup.mask,
        clean=clean,
        observed=np.stack([c.observed for c in corrupted]),
        masks=np.stack([c.mask for c in corrupted]),
    )


def digest(array) -> bytes:
    """Bit-exact fingerprint of a float64 array (shape included)."""
    arr = np.ascontiguousarray(array, dtype=np.float64)
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(arr.shape).encode())
    h.update(arr.tobytes())
    return h.digest()


def fit_checkpoint(inputs: Inputs, path: Path) -> Path:
    sofia = Sofia(CONFIG)
    sofia.initialize(list(inputs.startup_observed), list(inputs.startup_mask))
    save_sofia(sofia, path)
    return path


def replay_mismatches(
    checkpoint: Path, batches, outputs, served: list[bytes]
) -> int:
    """Offline replay of one session; counts outputs that differ.

    ``batches`` are the ``(ys, masks)`` the session was fed, with the
    served batch boundaries.  ``outputs(sofia, ys, masks, steps)``
    maps one replayed batch to the arrays the server returned for it,
    whose digests must equal ``served`` in order.
    """
    sofia = load_sofia(checkpoint)
    replayed: list[bytes] = []
    for ys, masks in batches:
        steps = sofia.step_batch(ys, masks)
        replayed.extend(digest(a) for a in outputs(sofia, ys, masks, steps))
    mismatched = sum(a != b for a, b in zip(replayed, served))
    return mismatched + abs(len(replayed) - len(served))


def flush_threads():
    """The scheduler dispatch threads of every live manager."""
    return [
        (thread, "manager.flush")
        for thread in threading.enumerate()
        if thread.name.startswith("repro-serve-flush-")
    ]


def _completed(sofia, ys, masks, steps):
    return [step.completed for step in steps]


def _imputed(sofia, ys, masks, steps):
    return [np.where(masks[0], ys[0], steps[0].completed)]


def _forecast(sofia, ys, masks, steps):
    return [sofia.forecast(HORIZON)]


class Workload:
    """Shared bookkeeping: per-session positions, checks, quality."""

    name = ""
    sessions = 0
    #: Fixed, untimed warm-up units; quality (NRE/AFE) comes from them.
    warmup_units = 0
    slices_per_unit = 1
    #: Probe mix and its time on the reference machine (slow state of a
    #: 2-vCPU x86-64 VM); see ``probe.py``.
    json_rows = 0
    numeric_probe = True
    probe_connects = 0
    reference_ms = 1.0
    replay_outputs = staticmethod(_completed)

    def __init__(self, inputs: Inputs, workdir: Path) -> None:
        self.inputs = inputs
        self.workdir = workdir
        self.checkpoint = workdir / "checkpoint.npz"
        self.pos = [0] * self.sessions
        self.served: list[bytes] = []
        self.replay_batches: list[tuple[np.ndarray, np.ndarray]] = []
        self.nre: list[float] = []
        self.afe: list[float] = []
        self.loop_threads: list[tuple[threading.Thread, str]] = []
        self.servers = ()
        self.router = None

    def sid(self, i: int) -> str:
        return f"s{i}"

    def slice(self, i: int, offset: int = 0):
        c = (self.pos[i] + offset) % CYCLE
        return self.inputs.observed[i, c], self.inputs.masks[i, c]

    def clean(self, i: int, offset: int = 0) -> np.ndarray:
        return self.inputs.clean[(self.pos[i] + offset) % CYCLE]

    def future(self, i: int) -> np.ndarray:
        return np.stack([self.clean(i, h) for h in range(HORIZON)])

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def unit(self, k: int):
        raise NotImplementedError

    def check(self, k: int, out, warm: bool) -> bool:
        raise NotImplementedError

    def after_warmup(self) -> None:
        """Quality figures that need a query after the warm-up units."""

    def mismatches(self) -> int:
        return replay_mismatches(
            self.checkpoint,
            self.replay_batches,
            self.replay_outputs,
            self.served,
        )


class BackfillInproc(Workload):
    """In-process manager, 16 sessions, 16 slices each per round."""

    name = "backfill_inproc"
    sessions = 16
    batch = 16
    warmup_units = 3
    slices_per_unit = 16 * 16
    json_rows = 6
    reference_ms = 0.7

    def setup(self) -> None:
        fit_checkpoint(self.inputs, self.checkpoint)
        # Latency deadline out of reach: flushes are size-triggered,
        # so every session flushes exactly one B=16 batch per round.
        self.manager = SessionManager(
            max_batch=self.batch,
            max_latency_s=3600.0,
            workers=2,
            checkpoint_dir=self.workdir / "store",
        )
        for i in range(self.sessions):
            self.manager.create_session(
                self.sid(i), checkpoint=str(self.checkpoint)
            )
        self.loop_threads = flush_threads()

    def close(self) -> None:
        self.manager.close()

    def unit(self, k: int):
        manager = self.manager
        for t in range(self.batch):
            for i in range(self.sessions):
                y, m = self.slice(i, t)
                manager.ingest(self.sid(i), y, m)
        manager.drain()

    def check(self, k: int, out, warm: bool) -> bool:
        ok = True
        first = self.pos[0]
        for i in range(self.sessions if warm else 1):
            results = self.manager.results(self.sid(i), since_seq=first)
            seqs = [seq for seq, _ in results]
            ok &= seqs == list(range(first, first + self.batch))
            for t, (_, completed) in enumerate(results):
                ok &= bool(np.isfinite(completed).all())
                if warm:
                    self.nre.append(
                        normalized_residual_error(completed, self.clean(i, t))
                    )
                if i == 0:
                    self.served.append(digest(completed))
        # Views, not copies (CYCLE is a multiple of the batch), so the
        # record adds nothing to ``peak_rss_mb`` as the run goes on.
        c = first % CYCLE
        self.replay_batches.append(
            (
                self.inputs.observed[0, c : c + self.batch],
                self.inputs.masks[0, c : c + self.batch],
            )
        )
        self.pos = [p + self.batch for p in self.pos]
        return ok

    def after_warmup(self) -> None:
        for i in range(self.sessions):
            forecast = self.manager.forecast(self.sid(i), HORIZON)
            self.afe.append(average_forecast_error(forecast, self.future(i)))


class _HTTPWorkload(Workload):
    sessions = 8

    def start_sessions(self, url: str) -> None:
        self.client = HTTPServingClient(url)
        for i in range(self.sessions):
            self.client.create_session(
                self.sid(i), checkpoint=str(self.checkpoint)
            )

    def manager_kwargs(self) -> dict:
        return dict(
            max_batch=16, workers=2, checkpoint_dir=self.workdir / "store"
        )


class ImputeRouter(_HTTPWorkload):
    """Synchronous masked ``impute`` through a router and 2 gateways."""

    name = "impute_router"
    warmup_units = 192
    json_rows = 16
    # Every request opens a TCP connection and a handler thread on each
    # hop: kernel work, which speeds up less than JSON in fast states.
    probe_connects = 1
    reference_ms = 1.7
    replay_outputs = staticmethod(_imputed)

    def setup(self) -> None:
        fit_checkpoint(self.inputs, self.checkpoint)
        self.cluster = start_local_cluster(2, **self.manager_kwargs())
        self.start_sessions(self.cluster.url)
        self.servers = self.cluster.backends
        self.router = self.cluster.router
        *backend_threads, router_thread = self.cluster.threads
        self.loop_threads = [
            (thread, "gateway.accept") for thread in backend_threads
        ]
        self.loop_threads += [(router_thread, "router.accept")]
        self.loop_threads += flush_threads()

    def close(self) -> None:
        self.cluster.close()

    def unit(self, k: int):
        i = k % self.sessions
        y, m = self.slice(i)
        return self.client.impute(self.sid(i), y, m).completed

    def check(self, k: int, out, warm: bool) -> bool:
        i = k % self.sessions
        y, m = self.slice(i)
        ok = (
            out.shape == y.shape
            and np.array_equal(out[m], y[m])
            and bool(np.isfinite(out).all())
        )
        if warm:
            # Observed entries come back verbatim, outliers included, so
            # the error that measures the model is on the filled ones.
            self.nre.append(
                normalized_residual_error(out[~m], self.clean(i)[~m])
            )
        if i == 0:
            self.served.append(digest(out))
            self.replay_batches.append((y[None], m[None]))
        self.pos[i] += 1
        return bool(ok)

    def after_warmup(self) -> None:
        for i in range(self.sessions):
            forecast = self.client.forecast(self.sid(i), HORIZON).forecast
            self.afe.append(average_forecast_error(forecast, self.future(i)))


class ForecastGateway(_HTTPWorkload):
    """``ingest`` one slice, then ``forecast(12)``, on one gateway."""

    name = "forecast_gateway"
    warmup_units = 48
    json_rows = 40
    numeric_probe = False
    probe_connects = 1
    reference_ms = 2.7
    replay_outputs = staticmethod(_forecast)

    def setup(self) -> None:
        fit_checkpoint(self.inputs, self.checkpoint)
        self.manager = SessionManager(**self.manager_kwargs())
        self.server = serve(self.manager)
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()
        self.start_sessions(f"http://127.0.0.1:{self.server.port}")
        self.servers = (self.server,)
        self.loop_threads = [(self.thread, "gateway.accept")]
        self.loop_threads += flush_threads()

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        self.manager.close()

    def unit(self, k: int):
        i = k % self.sessions
        y, m = self.slice(i)
        ack = self.client.ingest(self.sid(i), y, m)
        return ack.seq, self.client.forecast(self.sid(i), HORIZON).forecast

    def check(self, k: int, out, warm: bool) -> bool:
        i = k % self.sessions
        seq, forecast = out
        ok = (
            seq == self.pos[i]
            and forecast.shape == (HORIZON, *DIMS)
            and bool(np.isfinite(forecast).all())
        )
        y, m = self.slice(i)
        if i == 0:
            self.served.append(digest(forecast))
            self.replay_batches.append((y[None], m[None]))
        self.pos[i] += 1
        if warm:
            self.afe.append(average_forecast_error(forecast, self.future(i)))
        return bool(ok)

    def after_warmup(self) -> None:
        for i in range(self.sessions):
            for result in self.client.results(self.sid(i), since=0):
                # pos has advanced past the warm-up; seq counts from 0.
                truth = self.inputs.clean[result.seq % CYCLE]
                self.nre.append(
                    normalized_residual_error(result.completed, truth)
                )


WORKLOADS = {
    cls.name: cls for cls in (BackfillInproc, ImputeRouter, ForecastGateway)
}
