"""Exception hierarchy for the SCU reproduction library.

Every error raised deliberately by this package derives from
:class:`ReproError`, so callers can catch library failures without
catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """Raised for malformed or inconsistent graph data."""


class GraphFormatError(GraphError):
    """Raised when a graph file cannot be parsed."""


class ConfigError(ReproError):
    """Raised for invalid hardware or experiment configuration."""


class SimulationError(ReproError):
    """Raised when a simulation reaches an inconsistent state."""


class ArgumentError(ReproError):
    """Raised when a run argument does not fit the run's input (a
    traversal source that is not a node of the graph)."""


class OperationError(ReproError):
    """Raised when an SCU operation receives invalid operands."""


class ExperimentError(ReproError):
    """Raised when an experiment driver cannot produce its artifact."""


class ObservabilityError(ReproError):
    """Raised for misuse of the tracing/metrics instrumentation layer."""


class BenchError(ReproError):
    """Raised for malformed benchmark artifacts or comparison misuse."""


class ServiceError(ReproError):
    """Base class for simulation-service (``repro serve``) failures."""


class ProtocolError(ServiceError):
    """Raised for a malformed or invalid wire-form run request."""


class ServiceOverloadError(ServiceError):
    """Raised when the admission queue is full; carries ``retry_after_s``."""

    def __init__(self, message: str, *, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ServiceTimeoutError(ServiceError):
    """Raised when a request exceeds its per-request deadline."""


class ServiceUnavailableError(ServiceError):
    """Raised when the service is draining and not admitting work."""
