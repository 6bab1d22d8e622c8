"""Exception hierarchy for the :mod:`repro` package.

All errors raised by this library derive from :class:`ReproError`, so
callers can catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ShapeError(ReproError, ValueError):
    """An array argument has an incompatible shape or number of modes."""


class ConfigError(ReproError, ValueError):
    """A configuration value is out of its documented range."""


class NotFittedError(ReproError, RuntimeError):
    """A model method was called before the model was initialized/fitted."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver failed to make progress (e.g. singular system)."""


class DatasetError(ReproError, ValueError):
    """A dataset name or dataset parameter is invalid."""


class CheckpointError(ReproError, ValueError):
    """A model checkpoint is unreadable, incomplete, or from an
    incompatible format version."""


class SessionError(ReproError, RuntimeError):
    """A serving-session operation cannot be performed (see message)."""


class SessionNotFoundError(SessionError, KeyError):
    """No serving session is registered under the given id."""

    # KeyError's str() is the repr of its argument, which would quote
    # the message in every error envelope; this one reads as written.
    __str__ = Exception.__str__


class SessionExistsError(SessionError):
    """A serving session with the given id already exists."""
