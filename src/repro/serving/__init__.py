"""Multi-tenant serving runtime for SOFIA streams.

Hosts fleets of concurrent SOFIA sessions behind one runtime: a
:class:`~repro.serving.manager.SessionManager` with per-session locks,
a micro-batching :class:`~repro.serving.scheduler.MicroBatchScheduler`
whose dispatch threads flush each session's buffered slices through
one in-process ``Sofia.step_batch`` call, an LRU
:class:`~repro.serving.store.CheckpointStore` that spills cold
sessions to disk and rehydrates them transparently, and a stdlib-only
HTTP gateway (``repro-serve``, versioned under ``/v1``; JSON, with
data-plane arrays as binary NPY records from :mod:`repro.serving.wire`)
with in-process and HTTP clients behind one typed
:class:`~repro.serving.api.ServingClient` protocol.

Quickstart (in-process)::

    from repro.serving import SessionManager

    with SessionManager(max_resident=64, max_batch=16) as manager:
        manager.create_session("sensor-7", {"rank": 5, "period": 24})
        for y_t, mask_t in stream:
            manager.ingest("sensor-7", y_t, mask_t)   # async, micro-batched
        completed = manager.impute("sensor-7", y_next, mask_next)
        future = manager.forecast("sensor-7", horizon=24)

Over HTTP: start ``repro-serve``, then drive the same surface with
:class:`~repro.serving.client.HTTPServingClient` (or plain curl).
"""

from repro.serving.api import (
    ForecastResult,
    ImputeResult,
    IngestAck,
    ServingClient,
    SliceResult,
)
from repro.serving.client import HTTPServingClient, InProcessServingClient
from repro.serving.manager import SessionManager, make_config
from repro.serving.metrics import LatencyHistogram, ServingMetrics
from repro.serving.observability import (
    TRACE_HEADER,
    TRACE_STAGES,
    SessionQuality,
    SliceSpan,
    TraceBuffer,
    mint_trace_id,
    percentile_from_buckets,
    render_prometheus,
)
from repro.serving.scheduler import MicroBatchScheduler, PendingSlice
from repro.serving.shard import (
    HashRing,
    LocalCluster,
    ShardHealth,
    ShardRouterServer,
    start_local_cluster,
)
from repro.serving.store import CheckpointStore, checkpoint_meta_path

__all__ = [
    "TRACE_HEADER",
    "TRACE_STAGES",
    "CheckpointStore",
    "ForecastResult",
    "HTTPServingClient",
    "HashRing",
    "ImputeResult",
    "InProcessServingClient",
    "IngestAck",
    "LatencyHistogram",
    "LocalCluster",
    "MicroBatchScheduler",
    "PendingSlice",
    "ServingClient",
    "ServingMetrics",
    "SessionManager",
    "SessionQuality",
    "ShardHealth",
    "ShardRouterServer",
    "SliceResult",
    "SliceSpan",
    "TraceBuffer",
    "checkpoint_meta_path",
    "make_config",
    "mint_trace_id",
    "percentile_from_buckets",
    "render_prometheus",
    "start_local_cluster",
]
