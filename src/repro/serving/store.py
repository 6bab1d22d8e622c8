"""LRU checkpoint-backed eviction tier for resident SOFIA sessions.

The serving runtime hosts many initialized :class:`~repro.core.Sofia`
models, but only ``max_resident`` of them stay in memory at once: the
least-recently-used session is *spilled* — checkpointed to disk through
:func:`repro.core.serialization.save_sofia` and dropped from memory —
and transparently *rehydrated* with
:func:`~repro.core.serialization.load_sofia` the next time the
scheduler flushes a batch for it.  Because the ``.npz`` round-trip is
bit-exact (arrays stored losslessly, config floats via JSON repr), a
spill/rehydrate cycle does not perturb the model trajectory at all —
an eviction-capped run produces bit-identical results to an uncapped
one, which ``tests/serving`` pins.

Concurrency contract
--------------------
All bookkeeping runs under one internal lock.  A session *must* be
checked out (:meth:`CheckpointStore.checkout`) before its model is
stepped and checked back in afterwards; checked-out sessions are pinned
and never evicted, so a worker mid-``step_batch`` cannot have its model
snatched from under it.  Pins can push the resident count above the cap
transiently; the cap is re-enforced over unpinned sessions at every
check-in.  Checkpoint I/O happens inside the lock — correctness first;
spills are off the ingest hot path (they happen at check-in, in worker
threads).
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from pathlib import Path

from repro.core.serialization import (
    dumps_sofia,
    load_sofia,
    loads_sofia,
    save_sofia,
)
from repro.core.sofia import Sofia
from repro.exceptions import SessionNotFoundError
from repro.serving.metrics import ServingMetrics

__all__ = ["CheckpointStore", "checkpoint_meta_path"]


def checkpoint_meta_path(checkpoint: str | Path) -> Path:
    """The JSON sidecar next to a checkpoint file.

    Durable-mode managers write serving bookkeeping (sequence numbers,
    consumed count, kernel-backend pin) here alongside each persisted
    checkpoint; the shard router's failover path reads it to rebuild a
    dead shard's sessions with their stream positions intact.
    """
    path = Path(checkpoint)
    return path.with_name(path.stem + ".meta.json")


class CheckpointStore:
    """Bounded-residency store mapping session ids to ``Sofia`` models."""

    def __init__(
        self,
        directory: str | Path,
        *,
        max_resident: int | None = None,
        metrics: ServingMetrics | None = None,
        durable: bool = False,
    ) -> None:
        if max_resident is not None and max_resident < 1:
            raise ValueError(
                f"max_resident must be >= 1 or None, got {max_resident}"
            )
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._max_resident = max_resident
        self._metrics = metrics
        self._durable = durable
        self._lock = threading.Lock()
        #: Resident models, least-recently-used first.
        self._resident: OrderedDict[str, Sofia] = OrderedDict()
        #: Spilled sessions: id -> checkpoint path on disk.
        self._spilled: dict[str, Path] = {}
        #: Check-out pin counts; pinned sessions are never evicted.
        self._pins: Counter[str] = Counter()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def max_resident(self) -> int | None:
        return self._max_resident

    @property
    def durable(self) -> bool:
        """Whether checkpoint files outlive residency (see :meth:`persist`)."""
        return self._durable

    def resident_count(self) -> int:
        with self._lock:
            return len(self._resident)

    def spilled_count(self) -> int:
        with self._lock:
            return len(self._spilled)

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._resident or session_id in self._spilled

    def is_resident(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._resident

    def checkpoint_path(self, session_id: str) -> Path:
        """Where this session checkpoints to on disk.

        Non-durable stores keep the file only while the session is
        spilled; durable stores keep it continuously (rewritten by
        :meth:`persist` after every committed flush) so an external
        failover tier can rebuild the session after a crash.
        """
        return self._directory / f"{session_id}.npz"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def put(self, session_id: str, sofia: Sofia) -> None:
        """Register a newly initialized session (most-recently-used)."""
        with self._lock:
            self._spilled.pop(session_id, None)
            self._resident[session_id] = sofia
            self._resident.move_to_end(session_id)
            self._enforce_cap_locked()

    def checkout(self, session_id: str) -> Sofia:
        """Pin and return the session's model, rehydrating if spilled."""
        with self._lock:
            sofia = self._resident.get(session_id)
            if sofia is None:
                path = self._spilled.get(session_id)
                if path is None:
                    raise SessionNotFoundError(
                        f"session {session_id!r} is not in the store"
                    )
                sofia = load_sofia(path)
                del self._spilled[session_id]
                # A durable store keeps the file: it still holds the
                # last committed state, which is exactly what failover
                # would want if this process died mid-flush.
                if not self._durable:
                    path.unlink(missing_ok=True)
                self._resident[session_id] = sofia
                if self._metrics is not None:
                    self._metrics.increment("rehydrations")
            self._resident.move_to_end(session_id)
            self._pins[session_id] += 1
            # Rehydration may have pushed residency past the cap; evict
            # someone colder right away (the checked-out session is
            # pinned and safe).
            self._enforce_cap_locked()
            return sofia

    def checkin(self, session_id: str) -> None:
        """Unpin after a checkout; re-enforces the residency cap."""
        with self._lock:
            if self._pins[session_id] <= 0:
                raise RuntimeError(
                    f"checkin without matching checkout for {session_id!r}"
                )
            self._pins[session_id] -= 1
            if self._pins[session_id] == 0:
                del self._pins[session_id]
            if session_id in self._resident:
                self._resident.move_to_end(session_id)
            self._enforce_cap_locked()

    def remove(self, session_id: str) -> None:
        """Drop a session and delete its spilled checkpoint, if any."""
        with self._lock:
            self._resident.pop(session_id, None)
            path = self._spilled.pop(session_id, None)
            if path is not None:
                path.unlink(missing_ok=True)
            if self._durable:
                # Durable files exist independently of spill state.
                self.checkpoint_path(session_id).unlink(missing_ok=True)
            self._pins.pop(session_id, None)

    def discard(self, session_id: str) -> None:
        """Drop a failed session's model from memory without writing it.

        Eviction would otherwise spill the bad state over the session's
        checkpoint, which in durable mode still holds the last
        committed good state.  Pins and the durable file stay as they
        are; :meth:`remove` cleans up when the session is closed.
        """
        with self._lock:
            self._resident.pop(session_id, None)

    def persist(self, session_id: str) -> Path:
        """Write the session's current state to its checkpoint path.

        The durable-mode hook: called after every committed flush so
        the on-disk checkpoint always holds the last committed state.
        A spilled session's file is already current (the spill wrote
        it), so only resident models are re-serialized.  Returns the
        checkpoint path either way.
        """
        with self._lock:
            path = self.checkpoint_path(session_id)
            sofia = self._resident.get(session_id)
            if sofia is None:
                if session_id in self._spilled:
                    return path
                raise SessionNotFoundError(
                    f"session {session_id!r} is not in the store"
                )
            save_sofia(sofia, path)
        if self._metrics is not None:
            self._metrics.increment("checkpoint_persists")
        return path

    def save_to(self, session_id: str, path: str | Path) -> Path:
        """Checkpoint a session to an explicit path (resident or not)."""
        target = Path(path)
        sofia = self.checkout(session_id)
        try:
            save_sofia(sofia, target)
        finally:
            self.checkin(session_id)
        return target

    # ------------------------------------------------------------------
    # Migration handoff
    # ------------------------------------------------------------------
    def export_state(self, session_id: str) -> bytes:
        """The session's model as versioned checkpoint-format bytes.

        Live migration ships session state to another runtime with
        this — the same ``_FORMAT_VERSION`` archive the eviction tier
        spills, so the receiver rebuilds the model through the one
        verified ``Sofia.from_state`` path.  The pin is held only for
        the serialization itself; the caller is expected to hold the
        session's lock across the handoff.
        """
        sofia = self.checkout(session_id)
        try:
            return dumps_sofia(sofia)
        finally:
            self.checkin(session_id)

    def import_state(self, session_id: str, data: bytes) -> None:
        """Replace the session's model from exported bytes.

        The loaded model becomes the authoritative resident copy
        (most-recently-used; any stale spill file of the session is
        dropped by :meth:`put`).  Refuses while the session is checked
        out: replacing a pinned model would silently discard whatever
        the holder of the pin is still computing on.
        """
        with self._lock:
            if self._pins[session_id] > 0:
                raise RuntimeError(
                    f"cannot import state over session {session_id!r} "
                    "while it is checked out"
                )
        self.put(session_id, loads_sofia(data))

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _enforce_cap_locked(self) -> None:
        if self._max_resident is None:
            return
        while len(self._resident) > self._max_resident:
            victim = next(
                (
                    sid
                    for sid in self._resident  # LRU order, oldest first
                    if self._pins[sid] == 0
                ),
                None,
            )
            if victim is None:
                return  # everything over the cap is pinned right now
            sofia = self._resident.pop(victim)
            path = self.checkpoint_path(victim)
            save_sofia(sofia, path)
            self._spilled[victim] = path
            if self._metrics is not None:
                self._metrics.increment("evictions")
