"""Traced runs: spans around calls into each layer, from outside.

Nothing in ``repro`` is edited.  :class:`Tracer` replaces public
callables with wrappers that open a span on the calling thread, and
restores them on :meth:`Tracer.uninstall`.  Each span records the
thread's CPU clock and the wall clock at entry and exit; a span's
*self* time is its thread-CPU time minus that of the wrapped calls
nested inside it on the same thread.  CPU time is the right currency
here because the whole benchmark runs pinned to one core: a layer
blocked on another thread (a client waiting for its response, a
``drain`` waiting for a flush) burns no CPU, so self times of all
threads add up to the process CPU time without any cross-thread
bookkeeping.  Work on long-lived loop threads that no wrapper covers
(the HTTP servers' accept loops, the scheduler's flush threads outside
``execute_requests``) is read from those threads' CPU clocks and
charged to their layer.

``trace.coverage`` is the sum of all self times over the process CPU
time of the traced units; a value far from 1 means a layer escaped the
trace or a span was counted twice, and the run fails.
"""

from __future__ import annotations

import functools
import http.client
import threading
import time
from collections import Counter, defaultdict

#: Batch sizes whose model-layer metrics are reported apart.
BATCH_TAGS = ("b16", "b1")

#: Layer metrics common to every workload: (name, unit).
COMMON_METRICS = [
    ("client.encode_us", "us"),
    ("client.decode_us", "us"),
    ("gateway.encode_us", "us"),
    ("gateway.decode_us", "us"),
    ("client.req_bytes", "B"),
    ("client.resp_bytes", "B"),
    ("client.self_us", "us"),
    ("client.connects_per_req", "count"),
    ("shard.forward_us", "us"),
    ("shard.hop_us", "us"),
    ("shard.connects_per_req", "count"),
    ("gateway.self_us", "us"),
    ("manager.call_us", "us"),
    ("manager.self_us", "us"),
    ("scheduler.mean_batch", "count"),
    ("scheduler.flushes_per_slice", "count"),
    ("scheduler.idle_share", "ratio"),
    ("worker.execute_us", "us"),
    ("worker.self_us", "us"),
    ("sofia.forecast_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("probe.ms", "ms"),
]

#: Model-layer metrics, reported once per batch-size tag.
BATCH_METRICS = [
    ("sofia.step_us", "us"),
    ("kernels.reconstruct_us", "us"),
    ("kernels.mttkrp_us", "us"),
    ("kernels.calls_per_slice", "count"),
    ("outliers.robust_us", "us"),
    ("vector_hw.update_us", "us"),
    ("dynamic.self_us", "us"),
]

PER_LAYER_METRICS = COMMON_METRICS + [
    (f"{name}.{tag}", unit)
    for tag in BATCH_TAGS
    for name, unit in BATCH_METRICS
]

COVERAGE_RANGE = (0.9, 1.1)


class _Frame:
    __slots__ = ("layer", "tag", "cpu0", "wall0", "child_cpu")

    def __init__(self, layer: str, tag: str) -> None:
        self.layer = layer
        self.tag = tag
        self.child_cpu = 0.0
        self.wall0 = time.perf_counter()
        self.cpu0 = time.thread_time()


class Tracer:
    """Span wrappers, per-layer accumulators, and loop-thread clocks."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, bool]] = []
        self._loops: list[tuple[str, int]] = []
        self._loop_start: dict[int, float] = {}
        self._top_start: dict[int, float] = {}
        self.self_cpu: defaultdict = defaultdict(float)
        self.total_cpu: defaultdict = defaultdict(float)
        self.outer_wall: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.batch_slices: Counter = Counter()
        self.loop_cpu: defaultdict = defaultdict(float)
        self.top_cpu: defaultdict = defaultdict(float)
        self.intervals: defaultdict = defaultdict(list)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, layer: str, batch=False, keep_intervals=False):
        """``fn`` timed as a span of ``layer`` (when enabled).

        With ``batch`` the first argument after ``self`` is a batch of
        slices: the span and every span nested in it are tagged
        ``b<size>``, and the slices are counted under that tag.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if batch:
                size = len(args[1])
                tag = f"b{size}"
            else:
                tag = stack[-1].tag if stack else ""
            frame = _Frame(layer, tag)
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                wall1 = time.perf_counter()
                cpu = time.thread_time() - frame.cpu0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent.child_cpu += cpu
                key = (layer, tag)
                with tracer._lock:
                    tracer.self_cpu[key] += cpu - frame.child_cpu
                    tracer.total_cpu[key] += cpu
                    tracer.calls[key] += 1
                    if batch:
                        tracer.batch_slices[tag] += size
                    if parent is None or parent.layer != layer:
                        tracer.outer_wall[layer] += wall1 - frame.wall0
                    if parent is None:
                        tracer.top_cpu[threading.get_ident()] += cpu
                    if keep_intervals:
                        tracer.intervals[layer].append(
                            (frame.wall0, wall1)
                        )

        return traced

    def innermost(self, layers) -> str | None:
        """The innermost open span on this thread among ``layers``."""
        for frame in reversed(self._stack()):
            if frame.layer in layers:
                return frame.layer
        return None

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] += amount

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, layer: str, **options) -> None:
        """Replace ``owner.attr`` by its traced wrapper."""
        self.replace(
            owner, attr, self.wrap(getattr(owner, attr), layer, **options)
        )

    def replace(self, owner, attr: str, value) -> None:
        """Swap ``owner.attr`` for ``value`` until uninstall."""
        own = attr in vars(owner)
        self._patches.append(
            (owner, attr, vars(owner)[attr] if own else None, own)
        )
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def watch_loop(self, thread: threading.Thread, layer: str) -> None:
        """Charge ``thread``'s CPU outside any span to ``layer``."""
        self._loops.append((layer, thread.ident))

    def _thread_cpu(self, ident: int) -> float:
        return time.clock_gettime(time.pthread_getcpuclockid(ident))

    def begin_block(self) -> None:
        for _, ident in self._loops:
            self._loop_start[ident] = self._thread_cpu(ident)
            self._top_start[ident] = self.top_cpu[ident]
        self.enabled = True

    def end_block(self) -> None:
        self.enabled = False
        for layer, ident in self._loops:
            spent = self._thread_cpu(ident) - self._loop_start[ident]
            spanned = self.top_cpu[ident] - self._top_start[ident]
            self.loop_cpu[layer] += spent - spanned


class JsonProxy:
    """Stands in for a module's ``json`` reference, timing the codec."""

    def __init__(self, real, tracer: Tracer, prefix: str) -> None:
        self._real = real
        self._tracer = tracer
        self._prefix = prefix
        self._dumps = tracer.wrap(real.dumps, f"{prefix}.encode")
        self._loads = tracer.wrap(real.loads, f"{prefix}.decode")

    def __getattr__(self, name):
        return getattr(self._real, name)

    def dumps(self, obj, *args, **kwargs):
        text = self._dumps(obj, *args, **kwargs)
        self._tracer.count(f"{self._prefix}.out_bytes", len(text))
        return text

    def loads(self, text, *args, **kwargs):
        self._tracer.count(f"{self._prefix}.in_bytes", len(text))
        return self._loads(text, *args, **kwargs)


def install(tracer: Tracer, servers=(), router=None, loops=()) -> None:
    """Wrap every layer's public entry points.

    ``servers`` are gateway HTTP servers, ``router`` the shard router
    (or ``None``); their per-connection threads become spans.
    ``loops`` are ``(thread, layer)`` pairs of long-lived threads.
    """
    import json

    from repro.core import dynamic
    from repro.core.sofia import Sofia
    from repro.forecast.vector_hw import VectorHoltWinters
    from repro.serving import client, gateway, pool
    from repro.serving.client import HTTPServingClient
    from repro.serving.manager import SessionManager
    from repro.serving.shard import ShardRouterServer
    from repro.tensor import kernels

    for name, member in vars(HTTPServingClient).items():
        if not name.startswith("_") and callable(member):
            tracer.patch(HTTPServingClient, name, "client")
    tracer.replace(client, "json", JsonProxy(json, tracer, "client"))
    tracer.replace(gateway, "json", JsonProxy(json, tracer, "gateway"))
    tracer.patch(ShardRouterServer, "forward", "shard.forward")
    for server in servers:
        tracer.patch(server, "process_request_thread", "gateway.conn")
    if router is not None:
        tracer.patch(router, "process_request_thread", "router.conn")
    for name in ("impute", "forecast", "ingest", "ingest_traced", "drain"):
        tracer.patch(SessionManager, name, "manager")
    tracer.patch(pool, "execute_requests", "worker", keep_intervals=True)
    tracer.patch(Sofia, "step_batch", "sofia.step", batch=True)
    tracer.patch(Sofia, "forecast", "sofia.forecast")
    tracer.patch(VectorHoltWinters, "update", "vector_hw")
    tracer.patch(VectorHoltWinters, "update_many", "vector_hw")
    for name in dir(dynamic):
        if name.startswith("robust_step"):
            tracer.patch(dynamic, name, "outliers")
    tracer.patch(kernels, "mttkrp", "kernels.mttkrp")
    tracer.patch(kernels, "kruskal_reconstruct_rows", "kernels.reconstruct")

    connect = http.client.HTTPConnection.connect

    def counted_connect(conn):
        layer = tracer.innermost(("shard.forward", "client"))
        if layer == "shard.forward":
            tracer.count("shard.connects")
        elif layer == "client":
            tracer.count("client.connects")
        return connect(conn)

    tracer.replace(http.client.HTTPConnection, "connect", counted_connect)
    for thread, layer in loops:
        tracer.watch_loop(thread, layer)


def _union_overlap(spans, windows) -> float:
    """Seconds of ``windows`` covered by the union of ``spans``."""
    merged: list[list[float]] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    covered = 0.0
    for w0, w1 in windows:
        for s0, s1 in merged:
            if s1 <= w0:
                continue
            if s0 >= w1:
                break
            covered += min(s1, w1) - max(s0, w0)
    return covered


def layer_metrics(
    tracer: Tracer,
    *,
    per: int,
    unit_busy: float,
    overhead: float,
    probe_ms: float,
) -> dict[str, float]:
    """Per-layer figures from a finished traced run.

    ``per`` is the normaliser (client requests on the HTTP workloads,
    ingested slices in process); ``unit_busy`` the traced units'
    process CPU seconds.  Times come out in microseconds per request or slice.
    """

    def cpu(layer, tag=None, total=False):
        table = tracer.total_cpu if total else tracer.self_cpu
        return sum(
            seconds
            for (name, key_tag), seconds in table.items()
            if name == layer and (tag is None or key_tag == tag)
        )

    def calls(layer, tag=None):
        return sum(
            n
            for (name, key_tag), n in tracer.calls.items()
            if name == layer and (tag is None or key_tag == tag)
        )

    def us(seconds, n):
        return seconds * 1e6 / n if n else 0.0

    stepped = sum(tracer.batch_slices.values())
    flushes = calls("sofia.step")
    windows = tracer.intervals["bench.unit"]
    busy = _union_overlap(tracer.intervals["worker"], windows)
    window_s = sum(end - start for start, end in windows)
    out = {
        "client.encode_us": us(cpu("client.encode"), per),
        "client.decode_us": us(cpu("client.decode"), per),
        "gateway.encode_us": us(cpu("gateway.encode"), per),
        "gateway.decode_us": us(cpu("gateway.decode"), per),
        "client.req_bytes": tracer.counts["client.out_bytes"] / per,
        "client.resp_bytes": tracer.counts["client.in_bytes"] / per,
        "client.self_us": us(cpu("client"), per),
        "client.connects_per_req": tracer.counts["client.connects"] / per,
        "shard.forward_us": us(cpu("shard.forward"), per),
        "shard.hop_us": us(
            cpu("router.conn") + tracer.loop_cpu["router.accept"], per
        ),
        "shard.connects_per_req": tracer.counts["shard.connects"] / per,
        "gateway.self_us": us(
            cpu("gateway.conn") + tracer.loop_cpu["gateway.accept"], per
        ),
        "manager.call_us": us(tracer.outer_wall["manager"], per),
        "manager.self_us": us(
            cpu("manager") + tracer.loop_cpu["manager.flush"], per
        ),
        "scheduler.mean_batch": stepped / flushes if flushes else 0.0,
        "scheduler.flushes_per_slice": (
            calls("worker") / stepped if stepped else 0.0
        ),
        "scheduler.idle_share": 1.0 - busy / window_s if window_s else 0.0,
        "worker.execute_us": us(cpu("worker", total=True), per),
        "worker.self_us": us(cpu("worker"), per),
        "sofia.forecast_us": us(
            cpu("sofia.forecast", total=True), calls("sofia.forecast")
        ),
    }
    for tag in BATCH_TAGS:
        n = tracer.batch_slices[tag]
        out[f"sofia.step_us.{tag}"] = us(
            cpu("sofia.step", tag, total=True), n
        )
        out[f"kernels.reconstruct_us.{tag}"] = us(
            cpu("kernels.reconstruct", tag), n
        )
        out[f"kernels.mttkrp_us.{tag}"] = us(cpu("kernels.mttkrp", tag), n)
        kernel_calls = calls("kernels.reconstruct", tag) + calls(
            "kernels.mttkrp", tag
        )
        out[f"kernels.calls_per_slice.{tag}"] = (
            kernel_calls / n if n else 0.0
        )
        out[f"outliers.robust_us.{tag}"] = us(cpu("outliers", tag), n)
        out[f"vector_hw.update_us.{tag}"] = us(cpu("vector_hw", tag), n)
        out[f"dynamic.self_us.{tag}"] = us(cpu("sofia.step", tag), n)
    attributed = sum(tracer.self_cpu.values()) + sum(
        tracer.loop_cpu.values()
    )
    out["trace.coverage"] = attributed / unit_busy if unit_busy else 0.0
    out["trace.overhead"] = overhead
    out["probe.ms"] = probe_ms
    return out
