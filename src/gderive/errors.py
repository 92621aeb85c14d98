"""Exception hierarchy.

Every error carries a stable ``code`` string (used in CLI diagnostics) and an
``exit_code`` (2 for rejected input, 1 for tripped computation guards).
"""

from __future__ import annotations


class GDeriveError(Exception):
    """Base class for all errors raised by this package."""

    code = "Internal"
    exit_code = 1


class InputError(GDeriveError):
    """A precondition on user-supplied data failed."""

    code = "InvalidInput"
    exit_code = 2


class GuardError(GDeriveError):
    """A configurable safety bound was exceeded mid-computation."""

    code = "GuardTripped"
    exit_code = 1


class SingularMatrix(InputError):
    """A square matrix that must be invertible has rank < n."""

    code = "SingularMatrix"


class NotNilpotent(InputError):
    """exp was requested for a matrix m with m^n != 0."""

    code = "NotNilpotent"


class DimensionMismatch(InputError):
    """Operand shapes or ambient dimensions do not agree."""

    code = "DimensionMismatch"


class UnknownName(InputError):
    """A built-in object was requested under an unrecognized name."""

    code = "UnknownName"


class UnvalidatedAutomorphism(InputError):
    """A map used as an automorphism fails invertibility or bracket checks."""

    code = "UnvalidatedAutomorphism"


class NotSigmaStable(InputError):
    """A subspace restriction was requested but sigma does not preserve it."""

    code = "NotSigmaStable"


class DegreeGuardExceeded(GuardError):
    """Basis completion generated more polynomials than the safety bound."""

    code = "DegreeGuardExceeded"


class UnknownVariable(InputError):
    """A polynomial mentions a variable outside the declared ring."""

    code = "UnknownVariable"


class ZeroParameterA(InputError):
    """A family parameter that must be nonzero was fixed to zero."""

    code = "ZeroParameterA"


class FiniteOrderInput(InputError):
    """A finite-order grading was passed where an infinite-order one is required."""

    code = "FiniteOrderInput"


class NoPeriod(GuardError):
    """No (cutoff, period) pair fits the computed dimension window."""

    code = "NoPeriod"
