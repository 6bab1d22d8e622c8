"""Session manager: many named SOFIA streams behind one runtime.

A :class:`SessionManager` hosts a fleet of independent SOFIA models
("sessions"), each identified by a string id and fed by its own tensor
stream.  It composes the serving pieces:

* the :class:`~repro.serving.scheduler.MicroBatchScheduler` buffers
  ingested slices per session and hands each due session's batch to
  one of its dispatch threads;
* the :class:`~repro.serving.store.CheckpointStore` bounds resident
  memory — cold sessions spill to disk and rehydrate transparently on
  their next flush — and doubles as the migration handoff medium
  (:meth:`~repro.serving.store.CheckpointStore.export_state` /
  :meth:`~repro.serving.store.CheckpointStore.import_state`);
* :class:`~repro.serving.metrics.ServingMetrics` counts everything.

A flush is one call under the session's lock, on the dispatch
thread: the manager absorbs warmup slices, checks the live model out
of the store, hands it and the stacked slices to
:func:`~repro.serving.pool.execute_requests`, and commits what comes
back (store the updated model, publish per-slice results, fold in the
quality aggregates).  A failing flush poisons only its own session.

Session lifecycle
-----------------
``create_session`` registers a stream either from a
:class:`~repro.core.config.SofiaConfig` (the session then *warms up*:
it buffers ingested slices until ``config.init_steps`` have arrived and
runs the batch initialization phase on exactly those, streaming the
rest) or from an existing checkpoint (the session is ready
immediately).  ``ingest`` is asynchronous — it returns a sequence
number at once; the completed (imputed) slice appears under that number
in ``results`` after the scheduler flushes it.  ``impute`` and
``forecast`` are synchronous: they drain the session's buffer first, so
they always observe every previously ingested slice.

Thread-safety
-------------
The registry has its own lock; each session carries a per-session lock
held for the duration of any model mutation (one flush, impute, or
forecast at a time per session — different sessions proceed in
parallel).  Every path takes at most one session lock.  Lock order is
registry -> session -> store; the scheduler's condition variable is
never held across a flush.  Dispatch threads may run sessions pinned
to different kernel backends concurrently — safe because the backend
registries are context-local per thread (see
``repro.tensor.kernels.use_backend``).
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from collections import deque
from pathlib import Path

import numpy as np

from repro.core.config import SofiaConfig
from repro.core.serialization import load_sofia, loads_sofia
from repro.core.sofia import Sofia
from repro.exceptions import (
    ConfigError,
    SessionError,
    SessionExistsError,
    SessionNotFoundError,
    ShapeError,
)
from repro.serving.metrics import ServingMetrics
from repro.serving.observability import (
    SessionQuality,
    SliceSpan,
    TraceBuffer,
)
from repro.serving import pool
from repro.serving.scheduler import MicroBatchScheduler, PendingSlice
from repro.serving.store import CheckpointStore, checkpoint_meta_path
from repro.tensor import kernels
from repro.tensor.validation import check_mask

__all__ = ["SessionManager", "make_config"]


def make_config(config: SofiaConfig | dict) -> SofiaConfig:
    """Validate a config given as a dataclass or a JSON-style dict.

    Dict payloads (the gateway's ``POST /sessions`` body) get the same
    loud :class:`~repro.exceptions.ConfigError` treatment as dataclass
    construction, including unknown keys.
    """
    if isinstance(config, SofiaConfig):
        return config
    if not isinstance(config, dict):
        raise ConfigError(
            f"config must be a SofiaConfig or a dict, got {type(config)!r}"
        )
    try:
        return SofiaConfig(**config)
    except TypeError as exc:
        raise ConfigError(f"invalid session config: {exc}") from None


class _Session:
    """Internal per-session record (model state lives in the store)."""

    def __init__(
        self,
        session_id: str,
        config: SofiaConfig,
        *,
        kernel_backend: str | None,
        keep_results: int,
        quality_window: int = 64,
    ) -> None:
        self.session_id = session_id
        self.config = config
        self.kernel_backend = kernel_backend
        self.lock = threading.RLock()
        self.initialized = False
        self.closing = False
        self.failure: str | None = None
        self.warmup: list[tuple[np.ndarray, np.ndarray]] = []
        #: Trace context of warmup slices absorbed while warming, keyed
        #: by seq — their spans complete at the initializing flush.
        self.warmup_spans: dict[int, tuple[str, float, float]] = {}
        #: Sliding-window quality telemetry (fed at commit time).
        self.quality = SessionQuality(window=quality_window)
        self.next_seq = 0
        self.consumed = 0
        #: Sequence watermark of the committed model: every slice with
        #: ``seq < applied_seq`` is reflected in the model state (and,
        #: in durable mode, in the on-disk checkpoint).  The gap up to
        #: ``next_seq`` is what a crash would lose.
        self.applied_seq = 0
        #: Slices acknowledged upstream but missing from the checkpoint
        #: this session was rebuilt from (failover data loss; 0 for a
        #: session that never failed over).
        self.degraded = 0
        self.subtensor_shape: tuple[int, ...] | None = None
        #: (seq, completed) pairs of the most recent flushed slices.
        self.results: deque[tuple[int, np.ndarray]] = deque(
            maxlen=keep_results
        )


class SessionManager:
    """Create/ingest/impute/forecast/close over many SOFIA sessions.

    ``workers`` is the number of scheduler dispatch threads: up to
    that many sessions flush concurrently, each one session's batch at
    a time, in-process.

    ``durable=True`` turns the checkpoint directory into crash-safe
    state: after every committed flush the session's checkpoint is
    rewritten in place with a JSON bookkeeping sidecar next to it
    (see :func:`~repro.serving.store.checkpoint_meta_path`), so an
    external failover tier — the shard router — can rebuild this
    manager's sessions on a survivor if the process dies.  Give it an
    explicit ``checkpoint_dir`` on shared storage for that to mean
    anything across machines.
    """

    def __init__(
        self,
        *,
        checkpoint_dir: str | Path | None = None,
        max_resident: int | None = None,
        max_batch: int = 16,
        max_latency_s: float = 0.05,
        workers: int = 2,
        keep_results: int = 64,
        durable: bool = False,
        trace_sample_rate: float = 0.0,
        trace_capacity: int = 4096,
        quality_window: int = 64,
    ) -> None:
        if keep_results < 1:
            raise ValueError(
                f"keep_results must be >= 1, got {keep_results}"
            )
        if quality_window < 1:
            raise ValueError(
                f"quality_window must be >= 1, got {quality_window}"
            )
        self._registry_lock = threading.Lock()
        self._sessions: dict[str, _Session] = {}
        self._tempdir: tempfile.TemporaryDirectory | None = None
        if checkpoint_dir is None:
            self._tempdir = tempfile.TemporaryDirectory(
                prefix="repro-serving-"
            )
            checkpoint_dir = self._tempdir.name
        self.metrics = ServingMetrics()
        self._durable = durable
        self._store = CheckpointStore(
            checkpoint_dir,
            max_resident=max_resident,
            metrics=self.metrics,
            durable=durable,
        )
        self._keep_results = keep_results
        self._scheduler = MicroBatchScheduler(
            self._flush_session,
            max_batch=max_batch,
            max_latency_s=max_latency_s,
            workers=workers,
        )
        self._quality_window = quality_window
        #: Slice-lifecycle tracing: the sampling decision + bounded
        #: span ring (see ``GET /v1/traces``).  Off by default — the
        #: ingest path then pays one float compare per slice.
        self.tracer = TraceBuffer(
            sample_rate=trace_sample_rate, capacity=trace_capacity
        )
        # Operational gauges, evaluated at snapshot time: how many
        # sessions are resident vs spilled, and how much acked work is
        # still buffered ahead of any model.
        self.metrics.register_gauge(
            "resident_sessions", self._store.resident_count
        )
        self.metrics.register_gauge(
            "evicted_sessions", self._store.spilled_count
        )
        self.metrics.register_gauge(
            "pending_slices", self._scheduler.total_pending
        )
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def create_session(
        self,
        session_id: str,
        config: SofiaConfig | dict | None = None,
        *,
        checkpoint: str | Path | None = None,
        kernel_backend: str | None = None,
    ) -> dict:
        """Register a new session; returns its info dict.

        Exactly one of ``config`` and ``checkpoint`` must be given:
        with a config the session warms up on its first
        ``config.init_steps`` ingested slices; with a checkpoint it is
        rehydrated ready-to-step (the config travels inside the
        checkpoint).  ``kernel_backend`` pins all of this session's
        computation to one kernel backend (validated here, applied
        context-locally on the worker threads).
        """
        if (config is None) == (checkpoint is None):
            raise ConfigError(
                "give exactly one of 'config' (fresh session) or "
                "'checkpoint' (warm-started session)"
            )
        if not session_id or "/" in session_id:
            raise ConfigError(
                f"session id must be a non-empty string without '/', "
                f"got {session_id!r}"
            )
        if kernel_backend is not None and (
            kernel_backend not in kernels.available_backends()
        ):
            raise ConfigError(
                f"unknown kernel backend {kernel_backend!r}; "
                f"available: {kernels.available_backends()}"
            )
        sofia: Sofia | None = None
        if checkpoint is not None:
            sofia = load_sofia(checkpoint)
            resolved = sofia.config
        else:
            resolved = make_config(config)
        session = _Session(
            session_id,
            resolved,
            kernel_backend=kernel_backend,
            keep_results=self._keep_results,
            quality_window=self._quality_window,
        )
        with self._registry_lock:
            if self._closed:
                raise SessionError("the session manager is closed")
            if session_id in self._sessions:
                raise SessionExistsError(
                    f"session {session_id!r} already exists"
                )
            self._sessions[session_id] = session
        if sofia is not None:
            session.initialized = True
            session.subtensor_shape = sofia.state.subtensor_shape
            session.consumed = int(sofia.state.t)
            self._store.put(session_id, sofia)
            if self._durable:
                with session.lock:
                    self._persist_session_locked(session)
        self.metrics.increment("sessions_created")
        return self.session_info(session_id)

    def close_session(
        self, session_id: str, *, checkpoint_path: str | Path | None = None
    ) -> str | None:
        """Drain, optionally checkpoint, and remove a session.

        Returns the checkpoint path when one was written.  Pending
        slices are applied before the final checkpoint, so nothing
        ingested is lost.
        """
        session = self._get_session(session_id)
        with session.lock:
            session.closing = True
        self._scheduler.drain(session_id)
        saved: str | None = None
        with session.lock:
            if checkpoint_path is not None:
                self._raise_on_failure(session)
                self._require_initialized(session, "checkpointing")
                saved = str(
                    self._store.save_to(session_id, checkpoint_path)
                )
            self._store.remove(session_id)
            if self._durable:
                checkpoint_meta_path(
                    self._store.checkpoint_path(session_id)
                ).unlink(missing_ok=True)
        with self._registry_lock:
            self._sessions.pop(session_id, None)
        self.metrics.increment("sessions_closed")
        return saved

    # ------------------------------------------------------------------
    # Live migration (the shard router's handoff medium)
    # ------------------------------------------------------------------
    def export_session(self, session_id: str) -> dict:
        """Drain a session and return its portable state for handoff.

        The returned dict carries the model as versioned
        checkpoint-format bytes (``state``, via
        :meth:`~repro.serving.store.CheckpointStore.export_state`) plus
        the serving-side bookkeeping a receiving runtime needs to
        continue the stream seamlessly: ``next_seq`` (so later ingests
        keep numbering where this runtime left off), ``consumed``, and
        the session's ``kernel_backend`` pin.  Pending slices are
        applied first, so the exported state reflects everything ever
        ingested — feed the dict to :meth:`import_session` on another
        manager and the trajectory continues bit-identically.

        The session stays registered here; the caller decides whether
        to :meth:`close_session` it after a successful import elsewhere.
        """
        session = self._get_session(session_id)
        self._scheduler.drain(session_id)
        with session.lock:
            self._raise_on_failure(session)
            self._require_initialized(session, "export")
            state = self._store.export_state(session_id)
            payload = {
                "session_id": session_id,
                "state": state,
                "next_seq": session.next_seq,
                "consumed": session.consumed,
                "kernel_backend": session.kernel_backend,
                # The degraded mark is permanent and must follow the
                # session across migrations, not reset to zero.
                "degraded": session.degraded,
            }
        self.metrics.increment("session_exports")
        return payload

    def import_session(
        self,
        session_id: str,
        state: bytes,
        *,
        next_seq: int | None = None,
        consumed: int | None = None,
        kernel_backend: str | None = None,
        degraded: int = 0,
    ) -> dict:
        """Adopt a session exported from another runtime; returns info.

        ``state`` is the checkpoint-format bytes of
        :meth:`export_session` (or
        :meth:`~repro.serving.store.CheckpointStore.export_state`); the
        config travels inside them.  The session is ready immediately —
        no warmup — and its sequence numbering continues from
        ``next_seq`` so clients polling ``results`` see no gap or
        reuse.  ``consumed`` defaults to the model's own step count.

        ``degraded`` is the failover path's honesty marker: the number
        of slices that were acknowledged upstream but are missing from
        ``state`` because the source died before flushing them.  A
        non-zero count turns the session's status to ``"degraded"``
        (permanently — the data is gone) instead of dropping the loss
        silently.
        """
        if not session_id or "/" in session_id:
            raise ConfigError(
                f"session id must be a non-empty string without '/', "
                f"got {session_id!r}"
            )
        if kernel_backend is not None and (
            kernel_backend not in kernels.available_backends()
        ):
            raise ConfigError(
                f"unknown kernel backend {kernel_backend!r}; "
                f"available: {kernels.available_backends()}"
            )
        if next_seq is not None and next_seq < 0:
            raise ConfigError(
                f"next_seq must be >= 0, got {next_seq}"
            )
        if degraded < 0:
            raise ConfigError(
                f"degraded must be >= 0, got {degraded}"
            )
        sofia = loads_sofia(state)
        session = _Session(
            session_id,
            sofia.config,
            kernel_backend=kernel_backend,
            keep_results=self._keep_results,
            quality_window=self._quality_window,
        )
        session.initialized = True
        session.subtensor_shape = sofia.state.subtensor_shape
        session.consumed = (
            int(sofia.state.t) if consumed is None else int(consumed)
        )
        if next_seq is not None:
            session.next_seq = int(next_seq)
        # Everything the source acknowledged is either in the model or
        # counted as degraded loss; later flushes only move it forward.
        session.applied_seq = session.next_seq
        session.degraded = int(degraded)
        with self._registry_lock:
            if self._closed:
                raise SessionError("the session manager is closed")
            if session_id in self._sessions:
                raise SessionExistsError(
                    f"session {session_id!r} already exists"
                )
            self._sessions[session_id] = session
        self._store.put(session_id, sofia)
        if self._durable:
            with session.lock:
                self._persist_session_locked(session)
        self.metrics.increment("sessions_created")
        self.metrics.increment("session_imports")
        if session.degraded:
            self.metrics.increment("degraded_imports")
        return self.session_info(session_id)

    def close(self) -> None:
        """Drain every session and stop the dispatch threads."""
        with self._registry_lock:
            if self._closed:
                return
            self._closed = True
        self._scheduler.close(drain=True)
        if self._tempdir is not None:
            self._tempdir.cleanup()

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Streaming ingestion
    # ------------------------------------------------------------------
    def ingest(
        self,
        session_id: str,
        subtensor,
        mask=None,
        *,
        trace_id: str | None = None,
    ) -> int:
        """Buffer one incoming slice; returns its sequence number.

        Asynchronous: the slice is applied by the micro-batching
        scheduler (flush on full batch or latency deadline) and its
        completed reconstruction appears in :meth:`results` under the
        returned sequence number.  Shape problems raise
        :class:`~repro.exceptions.ShapeError` here, synchronously.

        An explicit ``trace_id`` forces lifecycle tracing for this
        slice; otherwise the manager's sample rate decides (see
        :meth:`ingest_traced` for getting the minted id back).
        """
        seq, _ = self.ingest_traced(
            session_id, subtensor, mask, trace_id=trace_id
        )
        return seq

    def ingest_traced(
        self,
        session_id: str,
        subtensor,
        mask=None,
        *,
        trace_id: str | None = None,
    ) -> tuple[int, str | None]:
        """:meth:`ingest`, returning ``(seq, trace_id-or-None)``.

        The trace id is the explicit one when given, a freshly minted
        one when the sample rate elected this slice, else ``None``
        (untraced).  The gateway uses this form so the ack can echo
        the id back to the caller.
        """
        session = self._get_session(session_id)
        trace = self.tracer.sample(trace_id)
        accepted_at = self._scheduler.now() if trace else 0.0
        y, m = self._read_slice(session, subtensor, mask)
        return self._submit(session, y, m, trace, accepted_at), trace

    def _submit(
        self,
        session: _Session,
        y: np.ndarray,
        m: np.ndarray,
        trace: str | None,
        accepted_at: float,
    ) -> int:
        """Buffer one slice :meth:`_read_slice` already cast and checked;
        returns its sequence number."""
        session_id = session.session_id
        with session.lock:
            if session.closing:
                raise SessionNotFoundError(
                    f"session {session_id!r} is closing"
                )
            if session.failure is not None:
                raise SessionError(
                    f"session {session_id!r} failed: {session.failure}"
                )
            if session.subtensor_shape is None:
                session.subtensor_shape = y.shape
            elif y.shape != session.subtensor_shape:
                raise ShapeError(
                    f"session {session_id!r} expects slices of shape "
                    f"{session.subtensor_shape}, got {y.shape}"
                )
            seq = session.next_seq
            session.next_seq += 1
            # Submitted under the session lock so concurrent ingests
            # enqueue in sequence order (the scheduler applies a
            # session's buffer strictly in submission order).  Lock
            # order session -> scheduler condition is deadlock-free:
            # workers never take a session lock while holding the
            # condition.
            self._scheduler.submit(
                session_id,
                PendingSlice(
                    seq=seq,
                    subtensor=y,
                    mask=m,
                    # Stamped off the scheduler's own monotonic clock:
                    # the latency deadline compares against this, and
                    # mixing clocks (or using wall time, which NTP can
                    # step) would skew it.  For a traced slice it
                    # doubles as the enqueue stamp.
                    arrived_at=self._scheduler.now(),
                    trace_id=trace,
                    accepted_at=accepted_at if trace else None,
                ),
            )
        self.metrics.increment("slices_ingested")
        return seq

    def results(self, session_id: str, since_seq: int = 0) -> list:
        """Completed slices with ``seq >= since_seq``, oldest first.

        Only the most recent ``keep_results`` per session are retained;
        each entry is ``(seq, completed)``.
        """
        session = self._get_session(session_id)
        with session.lock:
            self._raise_on_failure(session)
            return [
                (seq, completed)
                for seq, completed in session.results
                if seq >= since_seq
            ]

    # ------------------------------------------------------------------
    # Synchronous operations
    # ------------------------------------------------------------------
    def impute(self, session_id: str, subtensor, mask=None) -> np.ndarray:
        """Ingest one slice and return it with missing entries filled.

        Synchronous: drains the session's buffer, so the returned slice
        reflects every previously ingested one.  Observed entries are
        kept verbatim; missing ones come from the reconstruction (the
        slice joins the model trajectory exactly like an ingested one).

        Warming sessions are rejected *before* the slice is buffered,
        so a failed impute has no side effect and can be retried safely
        once warmup completes (feed warmup data through :meth:`ingest`).
        """
        session = self._get_session(session_id)
        y, m = self._read_slice(session, subtensor, mask)
        # Apply what is already buffered first: a warming session may
        # be a few pending slices away from initializing, and the check
        # below must see the post-drain state.
        self._scheduler.drain(session_id)
        with session.lock:
            self._raise_on_failure(session)
            self._require_initialized(session, "impute")
        trace = self.tracer.sample(None)
        accepted_at = self._scheduler.now() if trace else 0.0
        seq = self._submit(session, y, m, trace, accepted_at)
        self._scheduler.drain(session_id)
        with session.lock:
            self._raise_on_failure(session)
            completed = next(
                (c for s, c in session.results if s == seq), None
            )
        if completed is None:  # pragma: no cover - keep_results too small
            raise SessionError(
                f"result for slice {seq} of session {session_id!r} was "
                "evicted from the result window; raise keep_results"
            )
        self.metrics.increment("imputations")
        return np.where(m, y, completed)

    def forecast(self, session_id: str, horizon: int) -> np.ndarray:
        """Forecast the next ``horizon`` slices of this session.

        Synchronous: drains the session's buffer first so the forecast
        starts from the latest ingested state.
        """
        if horizon < 1:
            raise ShapeError(f"horizon must be >= 1, got {horizon}")
        session = self._get_session(session_id)
        self._scheduler.drain(session_id)
        with session.lock:
            self._raise_on_failure(session)
            self._require_initialized(session, "forecast")
            sofia = self._store.checkout(session_id)
            try:
                with pool.backend_scope(session.kernel_backend):
                    forecast = sofia.forecast(horizon)
            finally:
                self._store.checkin(session_id)
        self.metrics.increment("forecasts")
        return forecast

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def session_info(self, session_id: str) -> dict:
        """Status snapshot of one session (JSON-serializable)."""
        session = self._get_session(session_id)
        with session.lock:
            return {
                "session_id": session_id,
                "status": self._status_locked(session),
                "failure": session.failure,
                "consumed": session.consumed,
                "degraded": session.degraded,
                "pending": self._scheduler.pending_count(session_id),
                "warmup_ingested": len(session.warmup),
                "warmup_needed": (
                    0
                    if session.initialized
                    else session.config.init_steps - len(session.warmup)
                ),
                "subtensor_shape": (
                    list(session.subtensor_shape)
                    if session.subtensor_shape
                    else None
                ),
                "kernel_backend": session.kernel_backend,
                "config": {
                    "rank": session.config.rank,
                    "period": session.config.period,
                    "batch_size": session.config.batch_size,
                    "dtype": session.config.dtype,
                },
            }

    def session_stats(self, session_id: str) -> dict:
        """The ``SessionStats`` snapshot of one session.

        Everything an operator needs to judge one stream's health at a
        glance, fed from state the dynamic phase already computed:
        lifecycle (status, resident/evicted, queue depth, applied
        watermark) plus the sliding-window quality signals (running
        NRE of the one-step-ahead forecast, outlier fraction, latest
        error scale, last-flush staleness).  Served at
        ``GET /v1/sessions/<id>/stats``.
        """
        session = self._get_session(session_id)
        now = self._scheduler.now()
        with session.lock:
            stats = {
                "session_id": session_id,
                "status": self._status_locked(session),
                "failure": session.failure,
                "resident": self._store.is_resident(session_id),
                "pending": self._scheduler.pending_count(session_id),
                "next_seq": session.next_seq,
                "applied_seq": session.applied_seq,
                "consumed": session.consumed,
                "degraded": session.degraded,
            }
            stats.update(session.quality.snapshot(now))
        return stats

    def session_stats_all(self) -> dict[str, dict]:
        """``session_stats`` for every registered session, by id."""
        stats = {}
        for session_id in self.list_sessions():
            try:
                stats[session_id] = self.session_stats(session_id)
            except SessionNotFoundError:
                continue  # closed between listing and snapshot
        return stats

    def traces(
        self,
        *,
        session_id: str | None = None,
        trace_id: str | None = None,
        limit: int | None = None,
    ) -> dict:
        """Recorded slice-lifecycle spans (``GET /v1/traces`` payload)."""
        return {
            "traces": self.tracer.spans(
                session_id=session_id,
                trace_id=trace_id,
                limit=limit,
            ),
            "tracing": self.tracer.stats(),
        }

    def list_sessions(self) -> list[str]:
        with self._registry_lock:
            return sorted(self._sessions)

    @property
    def store(self) -> CheckpointStore:
        return self._store

    def drain(self, session_id: str | None = None) -> None:
        """Apply all buffered slices (of one session, or all)."""
        if session_id is None:
            self._scheduler.drain_all()
        else:
            self._get_session(session_id)
            self._scheduler.drain(session_id)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _get_session(self, session_id: str) -> _Session:
        with self._registry_lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise SessionNotFoundError(f"no session {session_id!r}")
        return session

    def _status_locked(self, session: _Session) -> str:
        """The session's lifecycle status (caller holds its lock)."""
        if session.failure is not None:
            # A failed session never serves again; outranks the rest.
            return "failed"
        if not session.initialized:
            return "warming"
        if session.degraded:
            # Failover lost acknowledged slices for this session; the
            # mark is permanent and outranks ready/evicted.
            return "degraded"
        if self._store.is_resident(session.session_id):
            return "ready"
        return "evicted"

    @staticmethod
    def _read_slice(session: _Session, subtensor, mask):
        """Cast one incoming slice to the session dtype and validate it.

        Observed entries must be finite *after* the cast: a finite
        float64 beyond float32's range becomes an infinity in a
        float32 session.  Missing cells may hold anything, NaN
        included; the model never reads them.
        """
        y = np.asarray(subtensor)
        if y.dtype != session.config.np_dtype:
            # An overflowing cast is caught by the check below.
            with np.errstate(over="ignore"):
                y = y.astype(session.config.np_dtype)
        if mask is None:
            m = np.ones(y.shape, dtype=bool)
        else:
            m = check_mask(mask, y.shape)
        finite = np.isfinite(y)
        if not finite.all() and not finite[m].all():
            raise ValueError(
                f"session {session.session_id!r}: observed values must "
                f"be finite in {session.config.dtype}"
            )
        return y, m

    @staticmethod
    def _raise_on_failure(session: _Session) -> None:
        if session.failure is not None:
            raise SessionError(
                f"session {session.session_id!r} failed: {session.failure}"
            )

    @staticmethod
    def _require_initialized(session: _Session, operation: str) -> None:
        if not session.initialized:
            raise SessionError(
                f"session {session.session_id!r} is still warming up "
                f"({len(session.warmup)} of "
                f"{session.config.init_steps} startup slices ingested); "
                f"{operation} needs an initialized model"
            )

    def _persist_session_locked(self, session: _Session) -> None:
        """Write the durable checkpoint + bookkeeping sidecar.

        Called with the session's lock held, right after a commit (or
        at adoption time), so the ``.npz`` and the ``.meta.json`` next
        to it describe one consistent state.  ``next_seq`` in the meta
        is the highest sequence this runtime acknowledged; anything
        between ``applied_seq`` and it was still buffered — the gap a
        failover must report as degraded.
        """
        try:
            path = self._store.persist(session.session_id)
        except SessionNotFoundError:  # pragma: no cover - close race
            return
        meta = {
            "session_id": session.session_id,
            "next_seq": session.next_seq,
            "applied_seq": session.applied_seq,
            "consumed": session.consumed,
            "kernel_backend": session.kernel_backend,
            "degraded": session.degraded,
        }
        checkpoint_meta_path(path).write_text(
            json.dumps(meta), encoding="utf-8"
        )

    def _flush_session(
        self, session_id: str, items: list[PendingSlice]
    ) -> None:
        """Scheduler dispatch: apply one session's micro-batch.

        Never raises — a failing flush marks only its own session
        failed and the error surfaces on the next API call against it.
        The session lock is held for the whole flush, so synchronous
        operations (impute, forecast, results) observe each flush
        atomically.

        A warming session absorbs the slices into its warmup buffer
        until ``init_steps`` have arrived; the flush that completes the
        window initializes the model from it and steps the rest.  A
        failed session's slices are dropped (the failure already
        surfaces on every API call), their spans completed with the
        error instead of left dangling.
        """
        try:
            session = self._get_session(session_id)
        except SessionNotFoundError:
            return  # closed concurrently; nothing to apply to
        # Trace context per traced seq: ``seq -> (trace_id, accepted,
        # enqueued)``.  Empty unless slices were sampled for tracing.
        starts = {
            item.seq: (
                item.trace_id,
                (
                    item.accepted_at
                    if item.accepted_at is not None
                    else item.arrived_at
                ),
                item.arrived_at,
            )
            for item in items
            if item.trace_id is not None
        }
        with session.lock:
            if session.failure is not None:
                now = self._scheduler.now()
                self._record_spans_locked(
                    session,
                    starts,
                    now,
                    now,
                    now,
                    execute_seconds=0.0,
                    error=f"dropped: {session.failure}",
                )
                return
            config = session.config
            seqs = [item.seq for item in items]
            slices = [(item.subtensor, item.mask) for item in items]
            initializes = not session.initialized
            if initializes:
                need = config.init_steps - len(session.warmup)
                session.warmup.extend(slices[:need])
                # Traced warmup slices park their span context with the
                # session: their spans complete at the initializing
                # flush, which is when they are actually executed.
                for seq in seqs[:need]:
                    if seq in starts:
                        session.warmup_spans[seq] = starts.pop(seq)
                if len(session.warmup) < config.init_steps:
                    # Buffered only; the slices count as flushed.
                    self.metrics.observe_flush(len(items), 0.0)
                    return
                starts.update(session.warmup_spans)
                # Startup slices get results too: their seqs are
                # exactly 0..init_steps-1 in ingestion order.
                seqs = list(range(config.init_steps)) + seqs[need:]
                slices = session.warmup + slices[need:]
            ys = np.stack([y for y, _ in slices])
            masks = np.stack([m for _, m in slices])
            model = None if initializes else self._store.checkout(session_id)
            try:
                dispatched_at = self._scheduler.now()
                started = time.perf_counter()
                try:
                    # Looked up on the module at call time, so a wrapper
                    # installed on ``pool.execute_requests`` sees every
                    # flush.
                    model, results, quality, error_scale = (
                        pool.execute_requests(
                            config,
                            session.kernel_backend,
                            model,
                            seqs,
                            ys,
                            masks,
                        )
                    )
                except Exception as exc:  # noqa: BLE001 - flush boundary
                    session.failure = f"{type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - started
                returned_at = self._scheduler.now()
                self.metrics.increment("dispatches")
                if session.failure is not None:
                    self.metrics.increment("flush_failures")
                    # The flush may have mutated the live model part
                    # way: never let it reach a checkpoint.
                    self._store.discard(session_id)
                    self._record_spans_locked(
                        session,
                        starts,
                        dispatched_at,
                        returned_at,
                        self._scheduler.now(),
                        execute_seconds=seconds,
                        error=session.failure,
                    )
                    return
                if initializes:
                    self._store.put(session_id, model)
                    session.warmup = []
                    session.warmup_spans = {}
                    session.initialized = True
                session.results.extend(results)
                session.consumed += len(results)
                session.applied_seq = max(session.applied_seq, seqs[-1] + 1)
                self.metrics.observe_flush(len(items), seconds)
                # End-to-end ingest latency: scheduler-clock arrival
                # stamp to commit, per slice — the number an ingestion
                # SLO is written against (and what GET /metrics reports
                # as ingest_latency p50/p95/p99).
                committed_at = self._scheduler.now()
                self.metrics.observe_latencies(
                    "ingest", [committed_at - item.arrived_at for item in items]
                )
                # Quality telemetry: the flush's per-slice aggregates
                # and post-batch error scale land in the session's
                # sliding window (scalars only, no arrays).
                session.quality.observe_batch(
                    quality, error_scale, committed_at, applied=len(results)
                )
                self._record_spans_locked(
                    session,
                    starts,
                    dispatched_at,
                    returned_at,
                    committed_at,
                    execute_seconds=seconds,
                )
            finally:
                if not initializes:
                    self._store.checkin(session_id)
            if self._durable:
                # The session lock is still held, so the persisted
                # checkpoint + sidecar are exactly the committed state
                # — the failover tier never reads a torn snapshot.
                self._persist_session_locked(session)

    def _record_spans_locked(
        self,
        session: _Session,
        starts: dict[int, tuple[str, float, float]],
        dispatched_at: float,
        returned_at: float,
        committed_at: float,
        *,
        execute_seconds: float,
        error: str | None = None,
    ) -> None:
        """Complete one flush's traced slices' spans into the ring.

        All stamps come from the scheduler's monotonic clock, so every
        chain is monotone by construction.  ``execute_seconds`` is the
        flush's own measurement around ``execute_requests`` (the
        kernel share of ``dispatched -> executed``).
        """
        for seq, (trace_id, accepted, enqueued) in starts.items():
            self.tracer.record(
                SliceSpan(
                    trace_id=trace_id,
                    session_id=session.session_id,
                    seq=seq,
                    accepted=accepted,
                    enqueued=max(enqueued, accepted),
                    dispatched=max(dispatched_at, enqueued, accepted),
                    executed=max(returned_at, dispatched_at),
                    committed=max(committed_at, returned_at),
                    execute_seconds=execute_seconds,
                    error=error,
                )
            )
