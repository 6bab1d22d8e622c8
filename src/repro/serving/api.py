"""The typed client surface: one protocol, dataclass results.

Both serving clients — in-process and HTTP — implement
:class:`ServingClient` and return the same dataclasses, so code written
against the protocol runs unchanged over either transport (the
conformance suite in ``tests/serving`` pins exactly that).

Result types carry everything a caller might branch on as named
fields.

Migration shims
---------------
Release N-1 returned bare ints (``ingest``), ``(seq, array)`` tuples
(``results``) and bare arrays (``impute``/``forecast``).  For one
release the dataclasses keep that old code running — ``int(ack)``,
``seq, completed = item``, ``np.asarray(result)``, ``result["seq"]`` —
each shim emitting a :class:`DeprecationWarning` naming the field to
move to.  The shims go away next release; new code should use the
fields directly.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass, fields
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "ForecastResult",
    "ImputeResult",
    "IngestAck",
    "ServingClient",
    "SliceResult",
]


def _deprecated(old: str, new: str) -> None:
    warnings.warn(
        f"{old} is deprecated and will be removed next release; "
        f"use {new} instead",
        DeprecationWarning,
        stacklevel=3,
    )


class _FieldAccessMixin:
    """``result["field"]`` dict-compat, deprecated for one release."""

    def __getitem__(self, key):
        if isinstance(key, str):
            _deprecated(
                f'{type(self).__name__}["{key}"]',
                f"the .{key} attribute",
            )
            try:
                return getattr(self, key)
            except AttributeError:
                raise KeyError(key) from None
        raise TypeError(
            f"{type(self).__name__} indices must be field names"
        )

    def get(self, key: str, default=None):
        _deprecated(
            f"{type(self).__name__}.get({key!r})",
            f"the .{key} attribute",
        )
        return getattr(self, key, default)

    def keys(self):
        _deprecated(f"{type(self).__name__}.keys()", "the attributes")
        return [f.name for f in fields(self)]


@dataclass(frozen=True)
class IngestAck(_FieldAccessMixin):
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
    trace_id: str | None = None

    def __int__(self) -> int:
        _deprecated("treating IngestAck as an int", "the .seq attribute")
        return self.seq

    def __index__(self) -> int:
        _deprecated("treating IngestAck as an int", "the .seq attribute")
        return self.seq

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            _deprecated(
                "comparing IngestAck to an int", "the .seq attribute"
            )
            return self.seq == other
        return (
            isinstance(other, IngestAck)
            and self.session_id == other.session_id
            and self.seq == other.seq
        )

    __hash__ = None  # unhashable, like any eq-overriding dataclass


@dataclass(frozen=True)
class SliceResult(_FieldAccessMixin):
    """One flushed slice: its sequence number and completed values."""

    session_id: str
    seq: int
    completed: np.ndarray

    def __iter__(self) -> Iterator:
        _deprecated(
            "unpacking SliceResult as (seq, completed)",
            "the .seq / .completed attributes",
        )
        return iter((self.seq, self.completed))


@dataclass(frozen=True)
class ImputeResult(_FieldAccessMixin):
    """A synchronous imputation: the slice with missing entries filled."""

    session_id: str
    completed: np.ndarray

    def __array__(self, dtype=None, copy=None):
        _deprecated(
            "treating ImputeResult as an array",
            "the .completed attribute",
        )
        return np.asarray(self.completed, dtype=dtype)


@dataclass(frozen=True)
class ForecastResult(_FieldAccessMixin):
    """A ``horizon``-step forecast, oldest step first.

    ``forecast`` has shape ``(horizon, *subtensor_shape)``.
    """

    session_id: str
    horizon: int
    forecast: np.ndarray

    def __array__(self, dtype=None, copy=None):
        _deprecated(
            "treating ForecastResult as an array",
            "the .forecast attribute",
        )
        return np.asarray(self.forecast, dtype=dtype)


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
