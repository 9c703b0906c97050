"""Exception types shared across the toolkit."""


class AsTopoError(Exception):
    """Base class for every toolkit error."""


class UnknownNodeError(AsTopoError):
    """An operation referenced an AS number that is not in the graph."""


class EmptyGraphError(AsTopoError):
    """An operation that needs at least one node got an empty graph."""


class DegenerateInputError(AsTopoError):
    """Input too small or empty for the requested quantity (e.g. ASPL on N < 2)."""


class UndefinedMetricError(AsTopoError):
    """The metric has no value on this graph (no triples, zero degree variance)."""


class InsufficientDataError(AsTopoError):
    """Not enough points to fit."""


class DomainError(AsTopoError):
    """Value outside the mathematical domain of the fit: a nonpositive y for
    log fits, a non-finite y, or a squared error past float range. point is
    the offending SeriesPoint, when there is one."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class ParameterError(AsTopoError):
    """A generator or fit parameter violates its documented bound."""


class CorpusError(AsTopoError):
    """A corpus file or directory is unreadable, malformed, or inconsistent."""


class NoOverlapError(AsTopoError):
    """Two snapshot series share no dates."""
