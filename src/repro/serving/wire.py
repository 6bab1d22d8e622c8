"""The binary array wire: NPY v1 records in one octet-stream body.

The data plane (slices in; imputations, results and forecasts out)
carries its arrays as raw little-endian bytes rather than JSON float
lists.  A binary body has the media type :data:`MEDIA_TYPE` and holds
one or more NPY v1.0 records (:mod:`numpy.lib.format`) back to back,
in a fixed order per endpoint — the *layouts* below.  Each record is
self-describing (dtype and shape sit in its header), so proxies relay
bodies without parsing them.

Floats always travel as ``<f8``: a float32 session's arrays widen
exactly, to the same values the JSON path's Python floats carry.

This module is the only code that knows the format; the gateway and
the HTTP client pick it per request by ``Content-Type`` and
``Accept``, and JSON stays accepted everywhere.
"""

from __future__ import annotations

import io
import math

import numpy as np
from numpy.lib import format as npy

__all__ = [
    "COMPLETED",
    "FORECAST",
    "MEDIA_TYPE",
    "RESULTS",
    "SLICE",
    "decode",
    "encode",
    "names_binary",
]

MEDIA_TYPE = "application/octet-stream"

#: Records of each binary body, in order: (name, dtype, required).
#: Ingest and impute requests.
SLICE = (("values", "<f8", True), ("mask", "|b1", False))
#: Impute responses.
COMPLETED = (("completed", "<f8", True),)
#: Forecast responses.
FORECAST = (("forecast", "<f8", True),)
#: Results responses: ``seq`` has shape ``(n,)``, ``completed``
#: stacks the n slices.
RESULTS = (("seq", "<i8", True), ("completed", "<f8", True))


def names_binary(header: str | None) -> bool:
    """Whether a ``Content-Type`` or ``Accept`` value names this wire."""
    return MEDIA_TYPE in (header or "")


def encode(layout, *arrays) -> bytes:
    """``arrays`` as one body, cast to ``layout``'s dtypes in order.

    ``None`` leaves out an optional trailing record.
    """
    out = io.BytesIO()
    for (_, dtype, _), array in zip(layout, arrays):
        if array is not None:
            npy.write_array(
                out,
                np.asarray(array, dtype=dtype),
                version=(1, 0),
                allow_pickle=False,
            )
    return out.getvalue()


def decode(body: bytes, layout) -> dict[str, np.ndarray]:
    """The records of ``body`` by name; any deviation is a ValueError.

    Every required record must be present with exactly its layout
    dtype, and no bytes may follow the last record.  The arrays are
    fresh, writable copies.
    """
    stream = io.BytesIO(body)
    arrays: dict[str, np.ndarray] = {}
    for name, dtype, required in layout:
        if stream.tell() == len(body):
            if required:
                raise ValueError(f"binary body has no {name!r} record")
            break
        arrays[name] = _read_record(stream, len(body), name, np.dtype(dtype))
    if stream.tell() != len(body):
        raise ValueError(
            f"binary body has {len(body) - stream.tell()} trailing bytes"
        )
    return arrays


def _read_record(stream, size: int, name: str, dtype: np.dtype):
    start = stream.tell()
    try:
        if npy.read_magic(stream) != (1, 0):
            raise ValueError("not an NPY v1.0 record")
        # The header is checked before any allocation: a record may
        # claim no other dtype, nor more data than the body holds.
        shape, _, found = npy.read_array_header_1_0(stream)
        if found != dtype:
            raise ValueError(f"dtype {found.str!r}, expected {dtype.str!r}")
        if math.prod(shape) * dtype.itemsize > size - stream.tell():
            raise ValueError("truncated array data")
        stream.seek(start)
        return npy.read_array(stream, allow_pickle=False)
    except ValueError as exc:
        raise ValueError(f"binary body: bad {name!r} record: {exc}") from None
