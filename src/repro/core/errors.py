"""Whisper's error taxonomy."""

from __future__ import annotations

__all__ = [
    "WhisperError",
    "NoMatchingGroupError",
    "NoCoordinatorError",
    "InvocationFailedError",
    "AnnotationError",
    "CircuitOpenError",
    "UnsupportedScenarioError",
]


class WhisperError(Exception):
    """Base class for Whisper-level failures."""


class AnnotationError(WhisperError):
    """A service's semantic annotations are missing or unresolvable."""


class NoMatchingGroupError(WhisperError):
    """Semantic discovery found no b-peer group for the service's semantics."""


class NoCoordinatorError(WhisperError):
    """A matching group exists but no coordinator could be reached."""


class InvocationFailedError(WhisperError):
    """The request could not be completed after retries and re-binding."""


class CircuitOpenError(WhisperError):
    """The proxy's circuit breaker rejected the call locally (no fallback)."""


class UnsupportedScenarioError(WhisperError, ValueError):
    """A :class:`ScenarioConfig` / topology combination no deployment supports."""
