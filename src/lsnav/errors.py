"""Exception hierarchy shared by all lsnav modules."""


class LsnavError(Exception):
    """Base class for all domain errors raised by lsnav."""


class SingularInput(LsnavError):
    """Input lies in the singular set of an operation (zero vector, rank-deficient frame)."""


class InvalidPoint(LsnavError):
    """Coordinates violate the manifold constraint beyond tolerance."""


class NotTangent(LsnavError):
    """Vector violates the tangency constraint beyond tolerance."""


class InvalidDirection(LsnavError):
    """Geodesic direction is not a unit tangent vector."""


class OddLength(LsnavError):
    """Vector length is not even (complex pairing undefined)."""


class BadLength(LsnavError):
    """Vector length is not divisible by 4 (quaternionic pairing undefined)."""


class WrongSpec(LsnavError):
    """Operation not defined for this manifold kind."""


class NegativeInput(LsnavError):
    """Argument must be nonnegative."""


class NoConvergedSeeds(LsnavError):
    """Every flow hit the time cap above the gradient tolerance."""


class NotCriticalTuple(LsnavError):
    """Tuple rejected by a structural criticality classifier.

    Carries ``witness``, the norm of the projected gradient, i.e. the value
    of the differential along the normalized gradient direction.
    """

    def __init__(self, message, witness=None, direction=None):
        super().__init__(message)
        self.witness = witness
        self.direction = direction


class PatternMismatch(LsnavError):
    """Tuple does not realize the requested sign pattern."""


class EvenDimension(LsnavError):
    """Planner requires all sphere factors to be odd-dimensional."""


class WrongDimension(LsnavError):
    """Ambient dimension incompatible with the quaternionic structure."""


class OutOfDomain(LsnavError):
    """Path evaluated outside [0, 1]."""


class PathDiscontinuity(LsnavError):
    """Adjacent path segments disagree at a shared knot."""


class NotEndingAtDiagonal(LsnavError):
    """Deformation does not end on the diagonal at the given point."""


class TargetDomainMiss(LsnavError):
    """Target section is undefined on the deformed tuple."""


class FiberMismatch(LsnavError):
    """Tuple entries do not share a basepoint."""


class NotCriticalFiberTuple(NotCriticalTuple):
    """Fiber tuple entries are not of the rotational critical form."""


class DegenerateBase(LsnavError):
    """Unitary completion failed for the given basepoints."""


class UnknownComplexity(LsnavError):
    """Bound evaluation needs complexities that were not assigned.

    Carries ``components``, the offending (value, label) list.
    """

    def __init__(self, message, components=()):
        super().__init__(message)
        self.components = list(components)


class UnknownSpace(LsnavError):
    """Space tag missing from the reference table."""

class NoPairsFound(LsnavError):
    """Multistart pair search converged to no admissible pair."""
