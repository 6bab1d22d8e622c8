"""Save/load SOFIA model state as ``.npz`` archives.

An initialized :class:`repro.core.Sofia` can be checkpointed mid-stream
and restored later — the archive holds the non-temporal factors, the
temporal ring buffer, the vector Holt-Winters state, the error-scale
tensor, the step counter, and the configuration.  The serving layer's
eviction tier (:mod:`repro.serving.store`) spills cold sessions through
this exact format, so a round-trip must be bit-exact: ``np.savez``
stores the arrays losslessly and the config travels as JSON (Python
float repr round-trips exactly).

Two transports share one format: :func:`save_sofia` /
:func:`load_sofia` write compressed ``.npz`` files on disk (durable
checkpoints, eviction spills), while :func:`dumps_sofia` /
:func:`loads_sofia` round-trip the identical versioned archive through
``bytes`` — uncompressed, because the consumer is the serving layer's
*process worker handoff* (state crosses a pipe once per flush; zlib
latency would dominate the win).  Both loaders run the same
format-version and config-field verification.

Format versioning
-----------------
``_FORMAT_VERSION`` is 2 since the config surface grew ``dtype``,
``density_threshold``, and ``batch_size``: every
:class:`~repro.core.config.SofiaConfig` field is round-tripped
explicitly and verified on load — a checkpoint whose config is missing
a field (or carries an unknown one) raises
:class:`~repro.exceptions.CheckpointError` instead of silently
defaulting, and so does any format-version mismatch.  Version-1
archives predate that config surface and are refused loudly for the
same reason.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import tempfile
import zipfile
from pathlib import Path

import numpy as np

from repro.core.config import SofiaConfig
from repro.core.model import SofiaModelState
from repro.core.sofia import Sofia
from repro.exceptions import CheckpointError, NotFittedError
from repro.forecast.vector_hw import VectorHoltWinters

__all__ = ["dumps_sofia", "load_sofia", "loads_sofia", "save_sofia"]

#: Version 2: the config JSON must carry the full post-PR-4 field set
#: (``dtype``, ``density_threshold``, ``batch_size``, ...) and is
#: checked field-by-field on load.
_FORMAT_VERSION = 2


def _config_field_names() -> set[str]:
    return {field.name for field in dataclasses.fields(SofiaConfig)}


def _state_arrays(sofia: Sofia) -> dict[str, np.ndarray]:
    """The full versioned archive contents for one initialized model."""
    if not sofia.is_initialized:
        raise NotFittedError("cannot save an uninitialized SOFIA model")
    state = sofia.state
    arrays: dict[str, np.ndarray] = {
        "temporal_buffer": state.temporal_buffer,
        "sigma": state.sigma,
        "hw_level": state.hw.level,
        "hw_trend": state.hw.trend,
        "hw_seasonal": state.hw.seasonal,
        "hw_alpha": state.hw.alpha,
        "hw_beta": state.hw.beta,
        "hw_gamma": state.hw.gamma,
        "t": np.asarray(state.t),
        "n_factors": np.asarray(len(state.non_temporal)),
        "format_version": np.asarray(_FORMAT_VERSION),
    }
    for i, factor in enumerate(state.non_temporal):
        arrays[f"factor_{i}"] = factor
    config_fields = dataclasses.asdict(sofia.config)
    # The full field set is written explicitly (not just "whatever the
    # dataclass happens to hold") so load_sofia can verify it; a field
    # added to SofiaConfig without a version bump fails the next
    # round-trip test rather than silently defaulting on load.
    assert set(config_fields) == _config_field_names()
    config_json = json.dumps(config_fields)
    arrays["config_json"] = np.frombuffer(
        config_json.encode("utf-8"), dtype=np.uint8
    )
    return arrays


def save_sofia(sofia: Sofia, path: str | Path) -> None:
    """Checkpoint an initialized SOFIA model to ``path`` (npz).

    As with ``np.savez_compressed``, ``.npz`` is appended when ``path``
    lacks it.  The archive is written to a temporary file beside the
    target and renamed over it, so a reader (shard failover reads a
    checkpoint that its writer may still be refreshing) or a crash
    mid-write never sees a torn archive: the file holds the previous
    checkpoint or the new one.
    """
    target = Path(path)
    if not target.name.endswith(".npz"):
        target = target.with_name(target.name + ".npz")
    fd, partial = tempfile.mkstemp(
        dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez_compressed(handle, **_state_arrays(sofia))
        os.replace(partial, target)
    except BaseException:
        Path(partial).unlink(missing_ok=True)
        raise


def dumps_sofia(sofia: Sofia) -> bytes:
    """Serialize an initialized model to checkpoint-format ``bytes``.

    Same versioned archive as :func:`save_sofia`, written uncompressed
    into memory — the serving layer's live migration ships session
    state between runtimes with this (on the request path, so
    compression latency matters more than size).  Restore with
    :func:`loads_sofia`.
    """
    buffer = io.BytesIO()
    np.savez(buffer, **_state_arrays(sofia))
    return buffer.getvalue()


def _load_config(archive) -> SofiaConfig:
    config_json = bytes(archive["config_json"].tobytes()).decode("utf-8")
    payload = json.loads(config_json)
    expected = _config_field_names()
    saved = set(payload)
    if saved != expected:
        missing = sorted(expected - saved)
        unexpected = sorted(saved - expected)
        raise CheckpointError(
            "checkpoint config does not match this build's SofiaConfig "
            f"(missing fields: {missing}, unexpected fields: "
            f"{unexpected}); refusing to fill the gaps with defaults — "
            "re-save the checkpoint with this version"
        )
    return SofiaConfig(**payload)


def load_sofia(path: str | Path) -> Sofia:
    """Restore a SOFIA model checkpointed by :func:`save_sofia`.

    Raises
    ------
    CheckpointError
        If ``path`` is not a SOFIA checkpoint, its format version does
        not match this build's ``_FORMAT_VERSION``, or its config does
        not carry exactly this build's :class:`SofiaConfig` fields.
        Nothing is ever silently defaulted.
    """
    return _load_archive(Path(path), str(path))


def loads_sofia(data: bytes) -> Sofia:
    """Restore a model serialized by :func:`dumps_sofia`.

    Runs the same format-version and config-field verification as
    :func:`load_sofia`; raises :class:`CheckpointError` on any mismatch.
    """
    return _load_archive(io.BytesIO(data), "<bytes>")


def _load_archive(source, label: str) -> Sofia:
    try:
        archive_ctx = np.load(source)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise CheckpointError(
            f"cannot read {label} as a SOFIA checkpoint: {exc}"
        ) from exc
    with archive_ctx as archive:
        if "format_version" not in archive:
            raise CheckpointError(
                f"{label} has no 'format_version' field — not a SOFIA "
                "checkpoint"
            )
        version = int(archive["format_version"])
        if version != _FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint format version {version} does not match "
                f"this build's version {_FORMAT_VERSION}; version-1 "
                "archives predate the dtype/density_threshold/"
                "batch_size config surface and would load with "
                "silently defaulted fields — re-save the model with "
                "this version instead"
            )
        config = _load_config(archive)
        n_factors = int(archive["n_factors"])
        non_temporal = [archive[f"factor_{i}"] for i in range(n_factors)]
        hw = VectorHoltWinters(
            level=archive["hw_level"],
            trend=archive["hw_trend"],
            seasonal=archive["hw_seasonal"],
            alpha=archive["hw_alpha"],
            beta=archive["hw_beta"],
            gamma=archive["hw_gamma"],
        )
        state = SofiaModelState(
            non_temporal=non_temporal,
            temporal_buffer=archive["temporal_buffer"],
            hw=hw,
            sigma=archive["sigma"],
            t=int(archive["t"]),
        )
    return Sofia.from_state(config, state)
