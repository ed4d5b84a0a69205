"""Exception and warning types shared across the package."""


class CxhoError(Exception):
    """Base class for all errors raised by this package."""


class KineticDivergenceError(CxhoError):
    """Mass has negative imaginary part, so the kinetic term diverges."""


class PotentialDivergenceError(CxhoError):
    """m*omega^2 has positive imaginary part, so the potential term diverges."""


class RegulatorError(CxhoError):
    """Regulators must satisfy eps > 0, eps' > 0 and eps*eps' < 1."""


class OutOfDomainError(CxhoError):
    """Angles lie outside the allowed parameter parallelogram."""


class DegenerateDivisionError(CxhoError):
    """A derived scale requires dividing by a quantity that vanishes here."""


class NotNormalizableError(CxhoError):
    """Mode states require Re(m*omega) > 0, i.e. |arg(m*omega)| < pi/2."""


class AngleTooSteepError(CxhoError):
    """Contour rotation angle must stay strictly below pi/2 in magnitude."""


class NonFiniteSampleError(CxhoError):
    """The integrand produced a non-finite value at a quadrature node."""


class InvalidPathError(CxhoError):
    """The contour does not satisfy the requirements of the operation."""


class ValidityExceededError(CxhoError):
    """Closed-form level expressions are only valid for n < 1/eps."""


class ConvergenceViolatedError(CxhoError):
    """Regulated ground states require Re of both shifted m*omega products > 0."""


class LengthMismatchError(CxhoError):
    """Coefficient vectors must have equal length."""


class VanishingOverlapError(CxhoError):
    """The transition amplitude is too small to divide by."""


class CoherentTailWarning(UserWarning):
    """Truncated coherent-state expansion carries a non-negligible tail."""


class IllConditionedWarning(UserWarning):
    """Gram matrix condition number exceeds the reliability threshold."""


class DeltaUnderflowWarning(UserWarning):
    """Gaussian delta evaluation underflowed to zero."""
