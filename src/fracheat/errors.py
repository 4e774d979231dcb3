"""Exception types shared across the package."""


class FracHeatError(Exception):
    """Base class for all package-specific errors."""


class DomainValidationError(FracHeatError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class AdmissibilityError(FracHeatError, ValueError):
    """A field lacks the metadata needed to bound or evaluate an integral."""


class ToleranceError(FracHeatError, RuntimeError):
    """The result is not finite, or its error estimate exceeds the target after refinement."""


class AlignmentError(FracHeatError, ValueError):
    """A reflection plane is not compatible with the grid."""


class OverlapError(FracHeatError, ValueError):
    """The two lobes of an antisymmetric bump would intersect."""


class AntisymmetryError(FracHeatError, ValueError):
    """A field that must be antisymmetric about the plane is not."""


class GridCoarseError(FracHeatError, RuntimeError):
    """The near-diagonal quadrature cell error estimate exceeds the tolerance."""


class ShapeMismatchError(FracHeatError, ValueError):
    """Array shape does not match the declared grid."""


class SingularMatrixError(FracHeatError, RuntimeError):
    """The assembled collocation matrix could not be factorized."""


class ConfigError(FracHeatError, ValueError):
    """A scenario configuration is malformed or incomplete."""
