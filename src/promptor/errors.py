"""Exception hierarchy. Every externally distinguishable failure mode gets its own class."""

from __future__ import annotations


class PromptorError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PromptorError):
    """Invalid or unreadable configuration."""


class BackendError(PromptorError):
    """A generation or embedding backend failed."""


class TransportError(BackendError):
    """HTTP transport failed after exhausting the retry budget."""


class UnknownPromptError(BackendError):
    """Scripted backend saw a prompt with no registered behavior and no default."""


class PlanningFailure(PromptorError):
    """Planner output could not be parsed into a valid plan within the re-ask budget."""


class StateError(PromptorError):
    """An operation was invoked on an object in the wrong lifecycle state."""


class MalformedTraceError(PromptorError):
    """A trace file violates the JSON-lines trace schema."""


class InvalidComponentError(PromptorError, ValueError):
    """A prompt component replacement violated its invariants."""


class MetricError(PromptorError, ValueError):
    """Base class for numeric-metric precondition violations."""


class DimensionMismatchError(MetricError):
    pass


class ZeroVectorError(MetricError):
    pass


class InsufficientSamplesError(MetricError):
    pass


class UndefinedCorrelationError(MetricError):
    pass


class EmptyOutputError(MetricError):
    pass
