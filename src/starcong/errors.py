"""Exception types shared across the library."""


class StarcongError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(StarcongError):
    """Input contains NaN/Inf or violates a documented precondition."""


class SingularMatrix(StarcongError):
    """Matrix is numerically singular where an inverse was required."""


class FormSyntaxError(StarcongError):
    """A canonical-form or matrix literal could not be parsed."""


class AmbiguousClassification(StarcongError):
    """The input sits too close to a decision boundary between two strata.

    ``candidates`` names the two contending branches, ``margin`` is the
    offending normalized slack.
    """

    def __init__(self, message: str, candidates: tuple[str, str], margin: float):
        super().__init__(message)
        self.candidates = candidates
        self.margin = margin


class DuplicateVertex(StarcongError):
    """The same canonical form appears twice in a vertex list."""


class NoArrow(StarcongError):
    """No closure arrow exists; carries the obstruction certificate."""

    def __init__(self, message: str, certificate):
        super().__init__(message)
        self.certificate = certificate


class ArrowExists(StarcongError):
    """A certificate was requested for a pair that is actually reachable."""


class CertificateNotFound(StarcongError):
    """No obstruction certificate applies (must never happen in practice)."""


class DegenerateDelta(StarcongError):
    """Perturbation budget delta is not a positive number."""
