"""Exception taxonomy shared across the package."""


class TriringError(Exception):
    """Base class for all library errors."""


# --- parameter validation ---------------------------------------------------

class ValidationError(TriringError):
    """A parameter triple was rejected; the subclass names the constraint."""


class NotUnitFraction(ValidationError):
    pass


class OrderingViolated(ValidationError):
    pass


class SumConstraintViolated(ValidationError):
    pass


# --- polynomial ring --------------------------------------------------------

class ZeroPolynomial(TriringError):
    pass


class DomainMismatch(TriringError):
    pass


class DegreeZeroInVariable(TriringError):
    pass


class VariableOutsideR(TriringError):
    pass


class PolyParseError(TriringError, ValueError):
    pass


# --- derivations and brackets -----------------------------------------------

class NotIsobaric(TriringError):
    pass


class NotInR(TriringError):
    pass


class NotHomogeneous(TriringError):
    pass


# --- ideals -----------------------------------------------------------------

class BasisBudgetExceeded(TriringError):
    """A division ran out of its step budget; the message names the reduction."""


class IdentityFailed(TriringError):
    """A certified identity does not hold; carries the symbolic residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


# --- series -----------------------------------------------------------------

class NonUnitInverse(TriringError):
    pass


class NonpositiveOrder(TriringError):
    pass


class InconclusiveOrder(TriringError):
    """All retained coefficients vanish; the caller must raise the order.

    Carries ``prec``, the exponent bound below which the series is known
    to have no nonzero term.
    """

    def __init__(self, prec):
        super().__init__(f"all coefficients vanish below exponent {prec}")
        self.prec = prec


# --- hypergeometric construction ----------------------------------------------

class PolarParameter(TriringError):
    """The lower 2F1 parameter is a nonpositive integer."""


class CutLineViolation(TriringError):
    """A sample point lies on a branch cut of the requested expansion."""


# --- multiplicity -----------------------------------------------------------

class TruncationExhausted(TriringError):
    """Order stayed inconclusive up to the retry cap."""


class ThresholdAmbiguous(TriringError):
    """No (D^n P)(z0) with n < N clears its error bound at a generic point."""
