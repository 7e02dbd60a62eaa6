"""Exception hierarchy shared across the package.

Everything derives from :class:`ValueError` so callers that only care about
"bad input" can catch the builtin, while the CLI and tests can discriminate.
"""


class BosonicTelesimError(ValueError):
    """Base class for all package-specific errors."""


class InvalidDimensionError(BosonicTelesimError):
    """A matrix or vector does not have the required (even) dimension."""


class ValidationError(BosonicTelesimError):
    """An object violates a structural invariant (symmetry, symplecticity,
    uncertainty principle, channel bona-fide condition, ...)."""


class DomainError(BosonicTelesimError):
    """A scalar parameter lies outside its admissible domain."""


class SingularCoefficientError(DomainError):
    """A closed-form coefficient diverges at the requested parameters."""


class ClassificationAmbiguousError(BosonicTelesimError):
    """The invariant tuple (tau, rank T, rank N) of a channel does not match a
    unique canonical class at the working tolerance.

    Carries a ``diagnostics`` dict with the offending numerical invariants.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class UnsupportedFormError(BosonicTelesimError):
    """The requested operation is not defined for this canonical class."""


class UnresolvableError(BosonicTelesimError):
    """float64 cannot resolve the request, such as the fidelity of two states
    whose ``V1 + V2`` is indefinite or singular to roundoff."""


class NoUniformBoundError(BosonicTelesimError):
    """No uniform (unconstrained diamond-norm) bound exists: the channel's
    noise matrix is rank deficient, so its teleportation simulation does not
    converge uniformly."""
