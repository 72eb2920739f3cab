"""Semantic exception hierarchy.

Every error raised by this package derives from :class:`EntrogeoError`, so
callers can catch one type at an API boundary.  Subclasses are deliberately
fine-grained: the class name states what went wrong, the message says where.
"""


class EntrogeoError(Exception):
    """Base class for all errors raised by entrogeo."""


class InvalidArgument(EntrogeoError, ValueError):
    """An argument (a count, step, weight or constraint) is out of range."""


# --- probability vectors ---------------------------------------------------


class NegativeWeight(EntrogeoError):
    """A probability weight is negative."""


class SumNotOne(EntrogeoError):
    """Weights do not sum to one within the stated tolerance."""

    def __init__(self, deviation: float, tol: float):
        self.deviation = float(deviation)
        self.tol = float(tol)
        super().__init__(
            f"weight sum deviates from 1 by {self.deviation:.3e} (tol {self.tol:.1e})"
        )


class LengthMismatch(EntrogeoError):
    """Two weight vectors that must share a length do not."""


# --- binary composition laws ----------------------------------------------


class DomainEscape(EntrogeoError):
    """A composed value left the validity domain of the law."""


class ArityMismatch(EntrogeoError):
    """Wrong number of arguments for an n-ary composition."""


class InversionFailure(EntrogeoError):
    """A claimed inverse does not invert on the probed points."""


# --- (h, f) pairs and functionals ------------------------------------------


class ParamOutOfRange(EntrogeoError):
    """A family parameter violates its precondition or guard band."""


class DomainError(EntrogeoError):
    """An evaluation left the domain where the formula is defined."""


class ShapeMismatch(EntrogeoError):
    """The (h, f) shape pairing does not fit the requested role."""


class AnchorViolation(EntrogeoError):
    """A pair misses f(0) = 0 or h(f(1)) = 0, so values are not calibrated."""


# --- composition of functionals ---------------------------------------------


class MonotonicityViolation(EntrogeoError):
    """A composing map failed its sampled monotonicity check."""


class LawMismatch(EntrogeoError):
    """Constituent entropies do not share the composition law they claim."""


class ZetaRangeViolation(EntrogeoError):
    """A divergence-composing map violates positivity or zero-at-zero."""


# --- finite-difference geometry ---------------------------------------------


class StepTooLarge(EntrogeoError):
    """A finite-difference stencil point fell outside the model domain."""


class DegenerateSecondDerivative(EntrogeoError):
    """f''(1) vanishes, so no metric or connection scale exists."""


class AllZeroGradient(EntrogeoError):
    """Every combination weight is zero; no geometry survives."""


# --- maximum entropy ---------------------------------------------------------


class Infeasible(EntrogeoError):
    """The constraint set intersects the simplex nowhere."""
