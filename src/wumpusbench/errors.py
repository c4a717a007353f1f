"""Exception hierarchy shared across the package."""


class WumpusBenchError(Exception):
    """Base class for all package errors."""


class ConfigurationError(WumpusBenchError, ValueError):
    """Invalid world or run configuration (e.g. infeasible hazard placement)."""


class IllegalActionError(WumpusBenchError):
    """Action rejected by the environment; the state is left unchanged."""


class ActionParseError(WumpusBenchError):
    """No recognizable action (or required section) in a piece of agent text."""


class TransportError(WumpusBenchError):
    """Chat endpoint unreachable or persistently failing after retries."""


class ProtocolError(WumpusBenchError):
    """Chat endpoint answered, but the response body was malformed."""


class EpisodeProtocolFailure(WumpusBenchError):
    """An agent could not produce a usable action; the episode ends as
    ``protocol_failure`` instead of a game outcome. Carries the round's calls
    and the flags of the replies refused so far."""

    def __init__(
        self, message: str, calls: list | None = None, flags: list[str] | None = None
    ):
        super().__init__(message)
        self.calls = calls or []
        self.flags = flags or []


class InconsistentPerceptsError(WumpusBenchError):
    """No hazard layout is consistent with the recorded percepts; this
    signals an environment bug, not an agent mistake."""


class ArbitrationError(WumpusBenchError):
    """Critic verdict below threshold but no alternative action supplied."""


class LogCorruptionError(WumpusBenchError):
    """An episode log line could not be decoded."""


class ReplayMismatchError(WumpusBenchError):
    """Re-simulating a logged episode did not reproduce the recorded data."""


class SummaryError(WumpusBenchError):
    """Metrics requested over an empty record set."""
