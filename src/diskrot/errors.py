"""Exception and warning types shared across the package."""


class DiskrotError(Exception):
    """Base class for all diskrot errors."""


class ZeroPoint(DiskrotError):
    """The origin has no lift to the universal cover of the punctured disk."""


class CoincidentPoints(DiskrotError):
    """Pair of points closer than merge_eps; use the tangent extension instead."""


class SamePoint(DiskrotError):
    """Lift tables asked for a pair whose two points project to one point."""


class RefinementExhausted(DiskrotError):
    """Time refinement hit its cap without certifying the no-aliasing bound."""


class SingularJacobian(DiskrotError):
    """Jacobian-image vector too small to normalize."""


class OrbitCollision(DiskrotError):
    """Two orbits pass within merge_eps of each other."""

    def __init__(self, msg, i=None, j=None):
        super().__init__(msg)
        self.i = i
        self.j = j


class OriginMoved(DiskrotError):
    """A conjugacy step's annulus holds the origin, which every isotopy here keeps fixed."""


class OutsideDomain(DiskrotError):
    """A point lies outside the isotopy's domain, the disk of radius domain_radius."""


class BadInterval(DiskrotError):
    """Plane extension needs beta > alpha."""


class QuadratureFailure(DiskrotError):
    """Adaptive quadrature did not reach the requested tolerance."""


class StepTooCoarse(DiskrotError):
    """A single time step moved the quarter turn by two; refinement required."""


class TailNotCertified(DiskrotError):
    """Deck-copy sum truncation could not certify a vanishing tail."""


class ResampleExhausted(DiskrotError):
    """Rejection resampling still had rejected samples after its last round."""


class CertificateFailed(DiskrotError):
    """Right/left-handedness certificate violated by a sample."""

    def __init__(self, msg, sample=None):
        super().__init__(msg)
        self.sample = sample


class FoliationNotTransverse(DiskrotError):
    """Displacement-lock test failed: the foliation is not Brouwer for this power."""


class RationalInput(DiskrotError):
    """Continued-fraction expansion terminated before the requested count."""


class SchemaError(DiskrotError):
    """Configuration document failed validation; message carries a JSON-pointer path."""

    def __init__(self, pointer, msg):
        super().__init__(f"{pointer}: {msg}")
        self.pointer = pointer


class NearRationalWarning(UserWarning):
    """Rotation parameter within tolerance of a low-denominator rational."""
