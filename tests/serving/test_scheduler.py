"""Unit tests for the micro-batching scheduler (no SOFIA involved)."""

import threading
import time

import numpy as np
import pytest

from repro.serving.scheduler import MicroBatchScheduler, PendingSlice


def make_item(seq: int) -> PendingSlice:
    return PendingSlice(
        seq=seq,
        subtensor=np.asarray([seq], dtype=float),
        mask=np.asarray([True]),
        arrived_at=time.monotonic(),
    )


class Recorder:
    """Flush target that records (session, [seqs]) per batch."""

    def __init__(self, delay: float = 0.0):
        self.lock = threading.Lock()
        self.batches: list[tuple[str, list[int]]] = []
        self.delay = delay
        self.concurrent_per_session: dict[str, int] = {}
        self.max_concurrent_per_session = 0

    def __call__(self, session_id, items):
        with self.lock:
            n = self.concurrent_per_session.get(session_id, 0) + 1
            self.concurrent_per_session[session_id] = n
            self.max_concurrent_per_session = max(
                self.max_concurrent_per_session, n
            )
        if self.delay:
            time.sleep(self.delay)
        with self.lock:
            self.batches.append((session_id, [item.seq for item in items]))
            self.concurrent_per_session[session_id] -= 1

    def seqs(self, session_id) -> list[int]:
        with self.lock:
            return [
                seq
                for sid, seqs in self.batches
                for seq in seqs
                if sid == session_id
            ]

    def batch_sizes(self, session_id) -> list[int]:
        with self.lock:
            return [
                len(seqs) for sid, seqs in self.batches if sid == session_id
            ]


class TestFlushTriggers:
    def test_full_batch_flushes_without_deadline(self):
        recorder = Recorder()
        with MicroBatchScheduler(
            recorder, max_batch=4, max_latency_s=60.0, workers=1
        ) as scheduler:
            for seq in range(4):
                scheduler.submit("s", make_item(seq))
            deadline = time.monotonic() + 5
            while not recorder.seqs("s") and time.monotonic() < deadline:
                time.sleep(0.005)
            assert recorder.seqs("s") == [0, 1, 2, 3]

    def test_partial_batch_flushes_at_latency_deadline(self):
        recorder = Recorder()
        with MicroBatchScheduler(
            recorder, max_batch=100, max_latency_s=0.05, workers=1
        ) as scheduler:
            scheduler.submit("s", make_item(0))
            scheduler.submit("s", make_item(1))
            deadline = time.monotonic() + 5
            while not recorder.seqs("s") and time.monotonic() < deadline:
                time.sleep(0.005)
            assert recorder.seqs("s") == [0, 1]

    def test_partial_batch_does_not_flush_before_deadline(self):
        recorder = Recorder()
        with MicroBatchScheduler(
            recorder, max_batch=100, max_latency_s=60.0, workers=1
        ) as scheduler:
            scheduler.submit("s", make_item(0))
            time.sleep(0.1)
            assert recorder.seqs("s") == []
            scheduler.drain("s")
            assert recorder.seqs("s") == [0]

    def test_oversized_backlog_splits_into_max_batch_chunks(self):
        recorder = Recorder()
        with MicroBatchScheduler(
            recorder, max_batch=4, max_latency_s=60.0, workers=2
        ) as scheduler:
            for seq in range(10):
                scheduler.submit("s", make_item(seq))
            scheduler.drain("s")
        assert recorder.seqs("s") == list(range(10))
        assert recorder.batch_sizes("s") == [4, 4, 2]


class TestOrderingAndIsolation:
    def test_session_order_preserved_across_many_batches(self):
        recorder = Recorder(delay=0.001)
        with MicroBatchScheduler(
            recorder, max_batch=3, max_latency_s=0.01, workers=4
        ) as scheduler:
            for seq in range(50):
                scheduler.submit("s", make_item(seq))
            scheduler.drain("s")
        assert recorder.seqs("s") == list(range(50))

    def test_at_most_one_flush_in_flight_per_session(self):
        recorder = Recorder(delay=0.02)
        with MicroBatchScheduler(
            recorder, max_batch=2, max_latency_s=0.001, workers=4
        ) as scheduler:
            for seq in range(20):
                scheduler.submit("s", make_item(seq))
            scheduler.drain("s")
        assert recorder.max_concurrent_per_session == 1
        assert recorder.seqs("s") == list(range(20))

    def test_sessions_flush_independently(self):
        recorder = Recorder()
        with MicroBatchScheduler(
            recorder, max_batch=4, max_latency_s=60.0, workers=2
        ) as scheduler:
            for seq in range(4):
                scheduler.submit("a", make_item(seq))
            for seq in range(3):
                scheduler.submit("b", make_item(seq))
            scheduler.drain("a")
            # b never reached max_batch and its deadline is far out.
            assert recorder.seqs("a") == [0, 1, 2, 3]
            assert recorder.seqs("b") == []
            scheduler.drain("b")
            assert recorder.seqs("b") == [0, 1, 2]

    def test_each_flush_is_one_sessions_batch(self):
        # Many sessions due at once: every runner call still receives
        # exactly one session's slices, in that session's order.  Each
        # slice carries its owner's index in its payload.
        calls: list[tuple[int, list[int], list[int]]] = []
        lock = threading.Lock()

        def flush(session_id, items):
            with lock:
                calls.append(
                    (
                        int(session_id[1:]),
                        [int(item.subtensor[0]) for item in items],
                        [item.seq for item in items],
                    )
                )

        sids = [f"s{i}" for i in range(6)]
        with MicroBatchScheduler(
            flush, max_batch=3, max_latency_s=60.0, workers=3
        ) as scheduler:
            for seq in range(6):
                for index, sid in enumerate(sids):
                    scheduler.submit(
                        sid,
                        PendingSlice(
                            seq=seq,
                            subtensor=np.asarray([index], dtype=float),
                            mask=np.asarray([True]),
                            arrived_at=time.monotonic(),
                        ),
                    )
            scheduler.drain_all()
        assert len(calls) == 2 * len(sids)
        for index, owners, seqs in calls:
            assert owners == [index] * 3
            assert seqs in ([0, 1, 2], [3, 4, 5])


class TestLifecycle:
    def test_concurrent_drains_of_one_session_both_complete(self):
        # Drain markers are counted: the first drain to finish must not
        # clear the flush-immediately trigger while a second drainer of
        # the same session is still waiting on later slices.
        recorder = Recorder(delay=0.01)
        with MicroBatchScheduler(
            recorder, max_batch=100, max_latency_s=60.0, workers=2
        ) as scheduler:
            for seq in range(4):
                scheduler.submit("s", make_item(seq))
            threads = [
                threading.Thread(target=scheduler.drain, args=("s", 10))
                for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            scheduler.submit("s", make_item(4))
            for thread in threads:
                thread.join(timeout=15)
            assert not any(thread.is_alive() for thread in threads)
        assert recorder.seqs("s") == list(range(5))

    def test_drain_all_applies_everything(self):
        recorder = Recorder()
        with MicroBatchScheduler(
            recorder, max_batch=8, max_latency_s=60.0, workers=2
        ) as scheduler:
            for sid in ("a", "b", "c"):
                for seq in range(5):
                    scheduler.submit(sid, make_item(seq))
            scheduler.drain_all()
            for sid in ("a", "b", "c"):
                assert recorder.seqs(sid) == list(range(5))

    def test_close_drains_buffered_work(self):
        recorder = Recorder()
        scheduler = MicroBatchScheduler(
            recorder, max_batch=8, max_latency_s=60.0, workers=1
        )
        for seq in range(3):
            scheduler.submit("s", make_item(seq))
        scheduler.close()
        assert recorder.seqs("s") == [0, 1, 2]

    def test_submit_after_close_raises(self):
        scheduler = MicroBatchScheduler(
            Recorder(), max_batch=2, max_latency_s=0.01, workers=1
        )
        scheduler.close()
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.submit("s", make_item(0))

    def test_forget_drops_buffered_slices(self):
        recorder = Recorder()
        with MicroBatchScheduler(
            recorder, max_batch=100, max_latency_s=60.0, workers=1
        ) as scheduler:
            for seq in range(3):
                scheduler.submit("s", make_item(seq))
            assert scheduler.forget("s") == 3
            scheduler.drain("s")
            assert recorder.seqs("s") == []

    def test_flush_exception_does_not_kill_worker(self):
        failures = []

        def flaky(session_id, items):
            if session_id == "bad":
                failures.append(session_id)
                raise RuntimeError("boom")

        with MicroBatchScheduler(
            flaky, max_batch=1, max_latency_s=60.0, workers=1
        ) as scheduler:
            scheduler.submit("bad", make_item(0))
            scheduler.drain("bad")
            # The same single worker must still serve other sessions.
            scheduler.submit("good", make_item(1))
            scheduler.drain("good")
        assert failures == ["bad"]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MicroBatchScheduler(Recorder(), max_batch=0)
        with pytest.raises(ValueError):
            MicroBatchScheduler(Recorder(), max_latency_s=0.0)
        with pytest.raises(ValueError):
            MicroBatchScheduler(Recorder(), workers=0)

    def test_pending_count_tracks_buffered(self):
        recorder = Recorder()
        with MicroBatchScheduler(
            recorder, max_batch=100, max_latency_s=60.0, workers=1
        ) as scheduler:
            assert scheduler.pending_count("s") == 0
            for seq in range(3):
                scheduler.submit("s", make_item(seq))
            assert scheduler.pending_count("s") == 3
            scheduler.drain("s")
            assert scheduler.pending_count("s") == 0
