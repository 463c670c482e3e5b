"""Numerical toolkit for surfaces stationary under the weighted area
integral of |p|^alpha.

The stationarity condition is H(p) = alpha * <N(p), p> / |p|^2 with H the
trace of the shape operator.  The package provides analytic-jet surface
patches, residual and energy evaluation, ruled and cyclic coefficient
machinery, sphere-inversion transport, ODE-generated families, and a
discrete gradient flow.
"""

from .errors import AlphaSurfError, NumericalError, ValidationError
from .interp import Curve3, QuinticHermite, ScalarFunc
from .surface_kernel import (
    FundamentalData,
    Jet2,
    ParametricPatch,
    eval_jet2,
    fd_jet2,
    fundamental_data,
    rotated,
    scaled,
    swapped_uv,
    translated,
)
from .stationary import (
    FourierCoeffs,
    ResidualReport,
    energy,
    fourier_defect,
    residual,
    residual_grid,
    weighted_defect,
)
from .catalog import (
    FamilySpec,
    catenoid_patch,
    euler_planar_curve,
    helicoid_patch,
    load_family,
    make_patch,
    plane_patch,
    riemann_minimal,
    riemann_minimal_spec,
    save_family,
    sphere_patch,
)
from .ruled import (
    AdaptedCoords,
    PlanarCurve,
    RuledSpec,
    adapted_coords,
    build_cylinder_patch,
    build_ruled_patch,
    cylinder_check,
    normalize_beta,
    random_ruled_spec,
    ruled_coeffs,
    striction_line,
)
from .cyclic import (
    CurveFrame,
    CyclicSpec,
    build_cyclic,
    frame_from_curvature,
    frenet_A4B4,
    frenet_combination,
    frenet_spec,
    integrate_neg2_family,
    log_spiral_example,
    parallel_A3B3,
    parallel_spec,
)
from .inversion import (
    fit_circle_or_line,
    invert_patch,
    invert_point,
    shifted_alpha,
    verify_shift,
)
from .flow import (
    TriMesh,
    descend,
    discrete_energy,
    discrete_gradient,
    read_obj,
    sample_mesh,
    write_obj,
)

__version__ = "0.1.0"
