"""Exception hierarchy for the toolkit.

Validation problems (bad specs, out-of-range parameters) and numerical
failures (singularities, degenerate geometry, stalled iterations) are kept
in separate branches so the CLI can map them to distinct exit codes.
"""

import functools


class AlphaSurfError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(AlphaSurfError):
    """Bad input: violated spec invariant, malformed file, unknown flag."""


class SpecValidationError(ValidationError):
    """A family/surface spec violates one of its invariants."""


def reads_spec(fn):
    """Decorate a reader of spec dicts: nesting deeper than the reader can
    recurse is bad input."""

    @functools.wraps(fn)
    def reader(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RecursionError:
            raise SpecValidationError("spec is nested too deep") from None

    return reader


class ParameterRangeError(ValidationError):
    """A parameter point (or finite-difference stencil) leaves the domain."""


class NumericalError(AlphaSurfError):
    """A computation hit a singular or degenerate configuration."""


class NonFiniteOutputError(NumericalError):
    """A result to be written holds a NaN or an infinity."""


class SingularPointError(NumericalError):
    """Evaluation at a point where the map is singular (e.g. |p| = 0)."""


class OriginOnSurfaceError(NumericalError):
    """The surface passes through the origin at a sampled point."""


class DegenerateParametrizationError(NumericalError):
    """EG - F^2 <= 0: the parametrization is not regular at the point."""


class SingularIntegrandError(NumericalError):
    """A quadrature sample produced a non-finite integrand value."""


class BandLimitError(NumericalError):
    """Fourier content above the expected band limit (aliasing guard)."""


class CylindricalInputError(ValidationError):
    """A ruling-direction curve is constant where a moving one is required."""


class PlanarityError(ValidationError):
    """A curve required to be planar is not."""


class FrameError(ValidationError):
    """Ruling direction is not in the expected normalized position."""


class NormalizationError(ValidationError):
    """The ruling direction is not a great circle; cannot normalize."""


class FrameUndefinedError(NumericalError):
    """Curvature <= 0: the Frenet frame is not defined."""


class DegenerateFamilyError(NumericalError):
    """The linear system defining an ODE family became singular."""


class FoliationCollapseError(NumericalError):
    """A foliation radius reached zero inside the integration span."""


class OriginCollisionError(NumericalError):
    """An integrated curve ran into the origin."""


class OpenMeshError(ValidationError):
    """A closed mesh is required but the mesh has boundary."""


class OriginInFaceError(NumericalError):
    """A triangle centroid coincides with the origin."""


class FlowError(NumericalError):
    """Gradient descent failed at step ``step``."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class FlowSingularityError(FlowError):
    """A triangle degenerated during gradient descent."""


class FlowStallError(FlowError):
    """Backtracking rejected too many consecutive steps."""
