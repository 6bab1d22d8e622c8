"""Fixed machine-speed probe that uses no ``repro`` code.

The box this benchmark runs on drifts in speed (frequency scaling, a
busy neighbour on the host, steal time).  On the 2-vCPU VM it was tuned
on, it moves between speed states up to 2x apart, every few seconds or
for minutes at a time, so raw wall times of identical code do not
repeat.  The probe runs a fixed piece of work right after each
closed-loop unit returns, when the system under test is idle, and
every unit's time is rescaled to "time at reference speed":

    corrected = raw * reference_ms / probe_ms

Both are timed in CPU time, not wall time.  The probe counts only its
own CPU: that of the thread running it (``time.thread_time()``) plus
that of the threads it starts.  A unit is charged with all process CPU
from its start to the next unit's start, minus the client thread's own
CPU after the unit returned (the probe and the output checks), so work
that server threads finish after their response stays in the unit.
The process is pinned to one core and its units do not wait idle, so
CPU and wall time agree except when the core is taken by another
process: on the shared VM that stole up to 45% of single units in
bursts lasting minutes, which moved the wall-time p99 by 0.2-0.5
between runs.  Since CPU time cannot see a unit that waits idle,
:class:`CoreIdle` checks that the pinned core never does.

For the median and the throughput, ``probe_ms`` is the mean of the
five probes around the unit (two before it, three after).  The mean,
not the median, because a unit's time integrates the speed over its
whole length.  The box flips between its states within tens of
milliseconds, so a probe is a loose sample of the speed during its
neighbouring unit.  That averages out in the median but not in the
tail: the slowest units are those the slow state caught, and when
fast probes surround them the mean over-corrects, by more in runs
that spend more time fast.  So the tail (``p99_ms``) rescales each
unit by the slowest of the nine probes around it instead (four before
it, five after), an estimate of the slow state's speed.

The states do not speed all code up alike: JSON float formatting
gains up to 2x, numpy work on small arrays ~1.6x, and kernel work
(thread start, TCP connect) ~1.3x.  So the probe's mix has to resemble
the workload's.  It has up to three parts: a numeric part (element-wise
ops, a matmul and an einsum on a 16x40x30 array, the shape of a B=16
``step_batch``), a JSON encode/decode of a ``json_rows`` x 30 block of
floats (the wire format), and ``connects`` kernel round trips.  Each
workload sets its mix, chosen in tuning runs that timed candidate
parts separately after every unit and kept the mix under which the
corrected figures of runs in different machine states agreed best.
"""

from __future__ import annotations

import json
import os
import socket
import statistics
import threading
import time

import numpy as np

#: Probes averaged per unit: this many before it, and this many plus
#: one after it.
SPAN = 2
#: The same, for the slowest probe near a unit in the tail correction.
TAIL_SPAN = 4


class Probe:
    """Fixed work; :meth:`run` returns the CPU seconds it took.

    ``connects`` adds that many kernel round trips per run: a thread
    started and joined, then a loopback TCP connect, accept and 4 kB
    transfer.  Call :meth:`close` when done.
    """

    def __init__(
        self, json_rows: int, numeric: bool = True, connects: int = 0
    ) -> None:
        self._numeric = numeric
        self._connects = connects
        self._listener = (
            socket.create_server(("127.0.0.1", 0)) if connects else None
        )
        self._block = bytes(4096)
        # Fixed inputs: the probe must not depend on the workload seed.
        rng = np.random.default_rng(20210419)
        self._batch = rng.standard_normal((16, 40, 30))
        self._rows = rng.standard_normal((40, 5))
        self._cols = rng.standard_normal((30, 5))
        self._payload = {
            "values": rng.standard_normal((json_rows, 30)).tolist()
        }

    def _work(self) -> float:
        values = json.loads(json.dumps(self._payload))["values"]
        if not self._numeric:
            return values[0][0]
        a = self._batch
        core = np.einsum("bir,ir->br", a @ self._cols, self._rows)
        scaled = np.clip(a * 0.5, -1.0, 1.0)
        weight = (1.0 - scaled * scaled) ** 3
        return float(core.sum() + (weight * a).sum() + values[0][0])

    def _round_trip(self) -> float:
        """One kernel round trip; returns the started thread's CPU."""
        spent = []
        thread = threading.Thread(
            target=lambda: spent.append(time.thread_time())
        )
        thread.start()
        thread.join()
        address = self._listener.getsockname()
        with socket.create_connection(address) as client:
            server, _ = self._listener.accept()
            with server:
                client.sendall(self._block)
                received = 0
                while received < len(self._block):
                    received += len(server.recv(65536))
        return spent[0]

    def run(self) -> float:
        """CPU seconds of one run: this thread's and its helpers'."""
        started = time.thread_time()
        self._work()
        helpers = sum(self._round_trip() for _ in range(self._connects))
        return time.thread_time() - started + helpers

    def close(self) -> None:
        if self._listener is not None:
            self._listener.close()

    def mean(self, n: int) -> float:
        """Mean seconds of ``n`` back-to-back runs."""
        return statistics.fmean(self.run() for _ in range(n))


class Corrector:
    """Unit timings with the probes that ran after each of them."""

    def __init__(self, reference_ms: float) -> None:
        self.reference_s = reference_ms / 1000.0
        self.raw: list[float] = []
        self.probes: list[float] = []
        self.wall: list[float] = []

    def add(self, raw_s: float, probe_s: float, wall_s: float) -> None:
        """``raw_s`` is the unit's CPU time, ``wall_s`` its wall time."""
        self.raw.append(raw_s)
        self.probes.append(probe_s)
        self.wall.append(wall_s)

    def corrected(self) -> list[float]:
        """Raw seconds rescaled to reference speed (see module doc)."""
        return self._rescaled(SPAN, statistics.fmean)

    def tail_corrected(self) -> list[float]:
        """Raw seconds rescaled by the slowest probe near each unit."""
        return self._rescaled(TAIL_SPAN, max)

    def _rescaled(self, span: int, speed) -> list[float]:
        out = []
        for k, raw in enumerate(self.raw):
            around = self.probes[max(k - span, 0) : k + span + 1]
            out.append(raw * self.reference_s / speed(around))
        return out

    def probe_ms(self) -> float:
        return statistics.median(self.probes) * 1000.0


class CoreIdle:
    """Idle time of one core, from ``/proc/stat``, since construction.

    The closed loop keeps its pinned core busy: the client thread either
    works or waits for a thread of the same process on the same core.
    Idle time on that core is therefore a unit waiting on something
    outside the process (a timer, a sleep, a delayed TCP ACK), which
    CPU timing cannot see.  Time taken by other processes, on this VM
    or by the hypervisor (steal), is not idle time.
    """

    def __init__(self, core: int) -> None:
        self._label = f"cpu{core}"
        self._tick_s = 1.0 / os.sysconf("SC_CLK_TCK")
        self._idle0 = self._idle_s()
        self._wall0 = time.perf_counter()

    def _idle_s(self) -> float:
        with open("/proc/stat") as stat:
            for line in stat:
                fields = line.split()
                if fields[0] == self._label:
                    # The idle and iowait columns, in clock ticks.
                    return (int(fields[4]) + int(fields[5])) * self._tick_s
        raise RuntimeError(f"no {self._label} line in /proc/stat")

    def share(self) -> float:
        """Idle seconds over wall seconds since construction."""
        wall = time.perf_counter() - self._wall0
        return (self._idle_s() - self._idle0) / wall
