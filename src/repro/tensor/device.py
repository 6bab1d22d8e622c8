"""Array-module selection for the ``"xp"`` kernel backend.

The six dense kernel bodies in :mod:`repro.tensor.kernels` are written
once, against the Python Array API standard, with the array namespace
passed in explicitly.  The ``"batched"`` backend binds them to NumPy;
the ``"xp"`` backend runs the same bodies, behind one host↔device
boundary, on whatever array library this module selects — NumPy, torch
(CPU or CUDA), or CuPy.  This module owns the selection:

* :func:`set_array_module` / :func:`get_array_module` /
  :func:`use_array_module` pick the active array namespace by name
  (``"numpy"``, ``"torch"``, ``"cupy"``, or any library with an
  ``array_api_compat`` wrapper);
* the ``REPRO_ARRAY_MODULE`` environment variable selects the
  import-time module, mirroring ``REPRO_KERNEL_BACKEND`` — the hook the
  CI matrix uses to run whole suites on torch;
* :func:`to_device` / :func:`from_device` are the host↔device boundary
  converters the dynamic phase's residency routing uses to move arrays
  into and out of the active module (the kernels' boundary brings host
  results back with :func:`from_device`).

Optional-dependency policy
--------------------------
Non-NumPy modules require the optional ``array_api_compat`` package
(``pip install "repro-sofia[xp]"``), which papers over the remaining
differences between library namespaces.  When it is missing, ``"numpy"``
still works: NumPy >= 2.0's main namespace is itself Array API
compliant, so it is used directly as the fallback shim.  Requesting any
other module without the dependency — or a module that is not
installed — raises :class:`~repro.exceptions.ConfigError` immediately
and loudly, listing what *is* importable; nothing degrades silently.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any

import numpy as np

from repro.exceptions import ConfigError

__all__ = [
    "ARRAY_MODULE_ENV_VAR",
    "active_array_module_name",
    "available_array_modules",
    "from_device",
    "get_array_module",
    "set_array_module",
    "to_device",
    "use_array_module",
]

#: Environment variable that selects the import-time array module —
#: mirrors ``REPRO_KERNEL_BACKEND`` so CI can pin both per matrix leg.
ARRAY_MODULE_ENV_VAR = "REPRO_ARRAY_MODULE"

#: Module names probed by :func:`available_array_modules`.  Any other
#: name with an ``array_api_compat`` wrapper also works with
#: :func:`set_array_module`; these are just the ones surfaced.
_KNOWN_MODULES = ("numpy", "torch", "cupy")

# Thread-safety mirrors repro.tensor.kernels: the process-wide default
# module (what set_array_module writes) and the namespace cache are
# guarded by _REGISTRY_LOCK, while use_array_module scopes live in a
# ContextVar stack — per-thread, so concurrent serving workers can each
# run under their own array module without racing one another.
_REGISTRY_LOCK = threading.Lock()
_default_module = "numpy"
_MODULE_OVERRIDES: ContextVar[tuple[str, ...]] = ContextVar(
    "repro_array_module_overrides", default=()
)
_namespaces: dict[str, Any] = {}


def _has_compat() -> bool:
    return importlib.util.find_spec("array_api_compat") is not None


def available_array_modules() -> list[str]:
    """Names of the array modules importable right now.

    ``"numpy"`` is always present (the shim path); ``"torch"``/
    ``"cupy"`` appear only when both the library and
    ``array_api_compat`` are importable.
    """
    modules = ["numpy"]
    if _has_compat():
        for name in _KNOWN_MODULES[1:]:
            try:
                if importlib.util.find_spec(name) is not None:
                    modules.append(name)
            except (ImportError, ValueError):
                continue
    return modules


def _load_namespace(name: str) -> Any:
    """Import the Array API namespace for ``name``, loudly on failure."""
    if name == "numpy":
        try:
            from array_api_compat import numpy as xp_numpy

            return xp_numpy
        except ImportError:
            # NumPy >= 2.0 is Array API compliant on its main namespace;
            # older NumPy without array_api_compat has no compliant
            # namespace at all, so fail loudly here instead of deep
            # inside a kernel (np.astype etc. are 2.0-only).
            if tuple(int(p) for p in np.__version__.split(".")[:2]) < (2, 0):
                raise ConfigError(
                    f"the 'xp' backend needs NumPy >= 2.0 (found "
                    f"{np.__version__}) or the optional "
                    "'array-api-compat' dependency (pip install "
                    "'repro-sofia[xp]')"
                ) from None
            return np
    if not _has_compat():
        raise ConfigError(
            f"array module {name!r} needs the optional dependency "
            "'array-api-compat' (pip install array-api-compat, or "
            "pip install 'repro-sofia[xp]'); only 'numpy' works "
            "without it"
        )
    try:
        return importlib.import_module(f"array_api_compat.{name}")
    except ImportError as exc:
        raise ConfigError(
            f"array module {name!r} is not importable ({exc}); install "
            f"it to use the 'xp' backend on it — importable now: "
            f"{available_array_modules()}"
        ) from exc


def _ensure_namespace(name: str) -> Any:
    """Load (and cache) the namespace for ``name``, loudly on failure."""
    namespace = _namespaces.get(name)
    if namespace is None:
        # The import runs outside the lock (it can be slow and may
        # recurse); concurrent loaders both compute the same module
        # object, and the cache write is last-one-wins idempotent.
        namespace = _load_namespace(name)
        with _REGISTRY_LOCK:
            _namespaces.setdefault(name, namespace)
            namespace = _namespaces[name]
    return namespace


def set_array_module(name: str) -> None:
    """Make ``name`` the active array module for the ``"xp"`` backend.

    Outside any :func:`use_array_module` scope this sets the
    process-wide default seen by every thread; inside a scope it
    rebinds that scope only (context-local, discarded on exit) — the
    same semantics as :func:`repro.tensor.kernels.set_backend`.

    Unknown or uninstalled modules raise
    :class:`~repro.exceptions.ConfigError` listing
    :func:`available_array_modules`, and leave the active module
    unchanged.
    """
    global _default_module
    _ensure_namespace(name)
    overrides = _MODULE_OVERRIDES.get()
    if overrides:
        _MODULE_OVERRIDES.set(overrides[:-1] + (name,))
        return
    with _REGISTRY_LOCK:
        _default_module = name


def get_array_module() -> Any:
    """The Array API namespace all ``"xp"`` kernels currently use."""
    return _ensure_namespace(active_array_module_name())


def active_array_module_name() -> str:
    """Name of the active array module (``"numpy"`` by default).

    The innermost :func:`use_array_module` scope of the current thread
    wins; outside any scope this is the process-wide default.
    """
    overrides = _MODULE_OVERRIDES.get()
    return overrides[-1] if overrides else _default_module


@contextmanager
def use_array_module(name: str):
    """Context manager: run a block under a different array module.

    The previously active module is restored on exit even when the body
    raises (or itself switches modules); entering with an unavailable
    name raises without changing the active module.  The scope is
    *context-local* (a :class:`ContextVar`): concurrent threads can
    each hold their own ``use_array_module`` without affecting one
    another or the process default.
    """
    namespace = _ensure_namespace(name)
    token = _MODULE_OVERRIDES.set(_MODULE_OVERRIDES.get() + (name,))
    try:
        yield namespace
    finally:
        _MODULE_OVERRIDES.reset(token)


def _module_dtype(xp: Any, dtype: Any) -> Any:
    """The ``xp`` dtype object matching a NumPy dtype (or dtype-like)."""
    return getattr(xp, str(np.dtype(dtype)))


def to_device(array: Any, *, dtype: Any = None) -> Any:
    """Move ``array`` into the active array module (the host→device edge).

    Accepts NumPy arrays, lists, scalars, or arrays already native to
    the active module (returned as-is up to a dtype cast).  With
    ``dtype``, the result is cast to the matching dtype of the module.
    On CPU modules the conversion is zero-copy where the library
    supports it, so callers must not mutate the result in place unless
    they made it (the kernels copy before any in-place update).
    """
    xp = get_array_module()
    if dtype is not None:
        dtype = _module_dtype(xp, dtype)
    return xp.asarray(array, dtype=dtype)


def from_device(array: Any) -> np.ndarray:
    """Move an array back to a host :class:`numpy.ndarray`.

    NumPy arrays pass through untouched; torch tensors are detached and
    brought to CPU; CuPy arrays are copied down with ``.get()``.  The
    dtype is preserved (a float32 device array comes back float32).
    """
    if isinstance(array, np.ndarray):
        return array
    out = array
    for method in ("detach", "cpu"):  # torch, incl. CUDA tensors
        step = getattr(out, method, None)
        if callable(step):
            out = step()
    getter = getattr(out, "get", None)  # cupy device arrays
    if callable(getter) and not isinstance(out, np.ndarray):
        out = getter()
    return np.asarray(out)


_env_module = os.environ.get(ARRAY_MODULE_ENV_VAR, "").strip()
if _env_module:
    set_array_module(_env_module)
