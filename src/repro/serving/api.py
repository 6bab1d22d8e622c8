"""The typed client surface: one protocol, dataclass results.

Both serving clients — in-process and HTTP — implement
:class:`ServingClient` and return the same dataclasses, so code written
against the protocol runs unchanged over either transport (the
conformance suite in ``tests/serving`` pins exactly that).

Result types carry everything a caller might branch on as named
fields, and nothing else: they are not ints, tuples, arrays or dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "ForecastResult",
    "ImputeResult",
    "IngestAck",
    "ServingClient",
    "SliceResult",
]


@dataclass(frozen=True)
class IngestAck:
    """Acknowledgement of one asynchronous ingest.

    The slice is buffered, not yet applied; its completed
    reconstruction appears under ``seq`` once the scheduler flushes it.

    ``trace_id`` is the slice's lifecycle trace id when it was sampled
    (or the caller supplied one); ``None`` for untraced slices.  It
    deliberately stays out of equality — two acks for the same slice
    compare equal whether or not tracing elected it.
    """

    session_id: str
    seq: int
    trace_id: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class SliceResult:
    """One flushed slice: its sequence number and completed values."""

    session_id: str
    seq: int
    completed: np.ndarray


@dataclass(frozen=True)
class ImputeResult:
    """A synchronous imputation: the slice with missing entries filled."""

    session_id: str
    completed: np.ndarray


@dataclass(frozen=True)
class ForecastResult:
    """A ``horizon``-step forecast, oldest step first.

    ``forecast`` has shape ``(horizon, *subtensor_shape)``.
    """

    session_id: str
    horizon: int
    forecast: np.ndarray


@runtime_checkable
class ServingClient(Protocol):
    """What both serving clients implement, transport aside.

    Info-style calls (``create_session``, ``session_info``,
    ``metrics``) return plain JSON-shaped dicts — they are status
    snapshots, not typed results.
    """

    def create_session(
        self,
        session_id: str,
        config: dict | None = None,
        *,
        checkpoint: str | None = None,
        kernel_backend: str | None = None,
    ) -> dict: ...

    def ingest(
        self,
        session_id: str,
        values,
        mask=None,
        *,
        trace_id: str | None = None,
    ) -> IngestAck: ...

    def results(
        self, session_id: str, since: int = 0
    ) -> list[SliceResult]: ...

    def impute(
        self, session_id: str, values, mask=None
    ) -> ImputeResult: ...

    def forecast(
        self, session_id: str, horizon: int
    ) -> ForecastResult: ...

    def session_info(self, session_id: str) -> dict: ...

    def session_stats(self, session_id: str) -> dict: ...

    def list_sessions(self) -> list[str]: ...

    def metrics(self) -> dict: ...

    def traces(
        self,
        *,
        session_id: str | None = None,
        trace_id: str | None = None,
        limit: int | None = None,
    ) -> dict: ...

    def close_session(
        self, session_id: str, *, checkpoint_path: str | None = None
    ) -> str | None: ...

    def export_session(self, session_id: str) -> dict: ...

    def import_session(
        self,
        session_id: str,
        state: bytes,
        *,
        next_seq: int | None = None,
        consumed: int | None = None,
        kernel_backend: str | None = None,
    ) -> dict: ...
