"""Micro-batching scheduler: buffer per-session slices, flush in bulk.

Incoming slices are cheap to *accept* (append to a per-session buffer
under a condition variable) and expensive to *apply* (a SOFIA dynamic
step).  The scheduler decouples the two: a pool of dispatch threads
flushes a session's buffered slices through one ``Sofia.step_batch``
call when either

* the buffer reaches ``max_batch`` slices (throughput trigger — this
  is where the PR-2 mini-batch amortization pays: one kernel dispatch
  per operation for the whole batch), or
* the oldest buffered slice has waited ``max_latency_s`` seconds
  (latency trigger — a trickling session is not starved just because
  it never fills a batch).

Each flush is one session's batch: a dispatch thread pops one due
session, hands ``(session_id, batch)`` to the ``flush`` callable, and
goes back for the next due session.

Ordering and determinism
------------------------
Slices of one session are always applied in arrival order: at most one
flush per session is in flight (``_inflight``), a flush takes the
buffer's oldest ``max_batch`` slices, and newer arrivals stay buffered
until the in-flight flush completes.  Different sessions flush
concurrently on the dispatch threads.  With the latency trigger
disabled (``max_latency_s`` large) the batch boundaries are a pure
function of the submission sequence — every ``max_batch`` slices,
remainder on drain — which is what makes serving runs reproducible
enough to pin bit-identical eviction tests on.

Clocks
------
All timing runs on one injectable monotonic ``clock`` (defaults to
:func:`time.monotonic`; wall clocks like ``time.time`` drift under NTP
adjustment and would break the latency deadline).  Arrival stamps must
come from the same clock — producers call :meth:`MicroBatchScheduler.
now` when building a :class:`PendingSlice`.  Tests freeze the clock by
injecting a fake and calling :meth:`MicroBatchScheduler.kick` after
advancing it, so deadline behaviour is pinned without real sleeps.

The ``flush(session_id, items)`` callable is supplied by the session
manager and must not raise (the manager records per-session failures
itself); a defensive try/finally still guarantees the scheduler's
bookkeeping survives a misbehaving callable.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

__all__ = ["MicroBatchScheduler", "PendingSlice"]


@dataclass(frozen=True)
class PendingSlice:
    """One buffered slice: sequence number, data, mask, arrival time.

    ``arrived_at`` must be a reading of the owning scheduler's clock
    (:meth:`MicroBatchScheduler.now`) — mixing clocks would skew the
    latency deadline.

    ``trace_id``/``accepted_at`` carry the slice's trace context when
    it is sampled for lifecycle tracing: ``accepted_at`` is the
    ingest-entry stamp (same clock), ``arrived_at`` doubles as the
    enqueue stamp.  Untraced slices leave both at their defaults —
    tracing off adds no per-slice state here.
    """

    seq: int
    subtensor: Any
    mask: Any
    arrived_at: float = field(compare=False)
    trace_id: str | None = field(default=None, compare=False)
    accepted_at: float | None = field(default=None, compare=False)


class MicroBatchScheduler:
    """Per-session micro-batch buffers + dispatch threads."""

    def __init__(
        self,
        flush: Callable[[str, list[PendingSlice]], None],
        *,
        max_batch: int = 16,
        max_latency_s: float = 0.05,
        workers: int = 2,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_latency_s <= 0:
            raise ValueError(
                f"max_latency_s must be positive, got {max_latency_s}"
            )
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._flush = flush
        self.max_batch = max_batch
        self.max_latency_s = max_latency_s
        self._clock = clock
        self._cv = threading.Condition()
        self._buffers: dict[str, deque[PendingSlice]] = {}
        #: Sessions with a flush in flight -> number of slices in it.
        self._inflight: dict[str, int] = {}
        #: Drain markers are *counted*, not set-membership: two threads
        #: draining the same session (or "*") concurrently must not
        #: clear each other's flush-immediately trigger when the first
        #: one finishes.
        self._draining: Counter[str] = Counter()
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-flush-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def now(self) -> float:
        """A reading of the scheduler's clock, for arrival stamps."""
        return self._clock()

    def submit(self, session_id: str, item: PendingSlice) -> None:
        """Buffer one slice; wakes a worker if the session became due."""
        with self._cv:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            self._buffers.setdefault(session_id, deque()).append(item)
            self._cv.notify_all()

    def kick(self) -> None:
        """Wake the dispatch threads to re-evaluate deadlines.

        Needed only when the injected clock advances without a submit
        (frozen-clock tests); real time wakes the workers by itself.
        """
        with self._cv:
            self._cv.notify_all()

    def pending_count(self, session_id: str) -> int:
        """Slices buffered or in-flight for this session."""
        with self._cv:
            buffered = len(self._buffers.get(session_id, ()))
            return buffered + self._inflight.get(session_id, 0)

    def total_pending(self) -> int:
        """Slices buffered or in-flight across every session.

        The ``pending_slices`` gauge: acked work not yet applied to
        any model.
        """
        with self._cv:
            buffered = sum(len(b) for b in self._buffers.values())
            return buffered + sum(self._inflight.values())

    def drain(self, session_id: str, timeout: float | None = None) -> None:
        """Block until every buffered slice of this session is applied.

        Marks the session due immediately (partial batches flush
        without waiting out the latency deadline).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            self._draining[session_id] += 1
            self._cv.notify_all()
            try:
                while (
                    self._buffers.get(session_id)
                    or session_id in self._inflight
                ):
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise TimeoutError(
                                f"drain of session {session_id!r} timed out"
                            )
                    self._cv.wait(remaining)
            finally:
                self._draining[session_id] -= 1
                if self._draining[session_id] <= 0:
                    del self._draining[session_id]

    def drain_all(self, timeout: float | None = None) -> None:
        """Block until every session's buffer is applied."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            self._draining["*"] += 1
            self._cv.notify_all()
            try:
                while self._inflight or any(self._buffers.values()):
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise TimeoutError("drain_all timed out")
                    self._cv.wait(remaining)
            finally:
                self._draining["*"] -= 1
                if self._draining["*"] <= 0:
                    del self._draining["*"]

    def forget(self, session_id: str) -> int:
        """Drop a session's buffered slices (for close); returns count."""
        with self._cv:
            dropped = len(self._buffers.pop(session_id, ()))
            self._cv.notify_all()
            return dropped

    def close(self, *, drain: bool = True) -> None:
        """Stop the workers, optionally applying all buffered work first."""
        if drain:
            self.drain_all()
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        for worker in self._workers:
            worker.join()

    def __enter__(self) -> "MicroBatchScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _due_locked(self, session_id: str, now: float) -> bool:
        buffer = self._buffers.get(session_id)
        if not buffer or session_id in self._inflight:
            return False
        return (
            len(buffer) >= self.max_batch
            or self._closed
            or session_id in self._draining
            or "*" in self._draining
            or now - buffer[0].arrived_at >= self.max_latency_s
        )

    def _take_batch_locked(self, session_id: str) -> list[PendingSlice]:
        """Pop the oldest ``max_batch`` slices and mark them in flight."""
        buffer = self._buffers[session_id]
        batch = [
            buffer.popleft()
            for _ in range(min(self.max_batch, len(buffer)))
        ]
        if not buffer:
            del self._buffers[session_id]
        self._inflight[session_id] = len(batch)
        return batch

    def _pop_due_locked(
        self, now: float
    ) -> tuple[str, list[PendingSlice]] | None:
        """The next due session and its batch (``None`` when none due)."""
        session_id = next(
            (sid for sid in self._buffers if self._due_locked(sid, now)),
            None,
        )
        if session_id is None:
            return None
        return session_id, self._take_batch_locked(session_id)

    def _next_deadline_locked(self, now: float) -> float | None:
        """Seconds until the earliest latency deadline, if any."""
        wait = None
        for session_id, buffer in self._buffers.items():
            if not buffer or session_id in self._inflight:
                continue
            due_in = buffer[0].arrived_at + self.max_latency_s - now
            if wait is None or due_in < wait:
                wait = due_in
        if wait is None:
            return None
        return max(wait, 0.0)

    def _worker_loop(self) -> None:
        while True:
            with self._cv:
                while True:
                    now = self._clock()
                    job = self._pop_due_locked(now)
                    if job is not None:
                        break
                    if self._closed:
                        return
                    self._cv.wait(self._next_deadline_locked(now))
            session_id, items = job
            try:
                self._flush(session_id, items)
            except Exception:  # noqa: BLE001 - workers must survive
                # The manager's flush records per-session failures
                # itself; a raise reaching this loop is a bug there,
                # and must not take the shared dispatch thread down
                # with it (other sessions still need flushing).
                pass
            finally:
                with self._cv:
                    self._inflight.pop(session_id, None)
                    self._cv.notify_all()
