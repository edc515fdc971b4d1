"""Core numerics of the iFDK reproduction.

This package contains the paper's primary contribution — the FDK filtering
and back-projection algorithms (standard and proposed variants) — together
with the geometry, phantom, forward-projection and metric utilities needed
to exercise them.  It holds numerics only: the filter→back-project driver
is :class:`repro.streaming.StreamingReconstructor`, and the plan front
door is :class:`repro.api.Session`.
"""

from .backprojection import (
    operation_counts,
    projection_compute_reduction,
)
from .filtering import (
    RAMP_FILTERS,
    filter_projections,
)
from .forward import forward_project_analytic
from .geometry import (
    CBCTGeometry,
    ProjectionMatrix,
    default_geometry_for_problem,
)
from .interpolation import bilinear_interpolate, interp2
from .metrics import gups, normalized_cross_correlation, psnr, rmse
from .phantom import (
    Ellipsoid,
    EllipsoidPhantom,
    shepp_logan_3d,
    shepp_logan_ellipsoids,
    uniform_sphere_phantom,
)
from .symmetry import verify_geometry_symmetry
from .types import (
    DEFAULT_DTYPE,
    ProjectionStack,
    ReconstructionProblem,
    Volume,
    problem_from_string,
)

__all__ = [
    "CBCTGeometry",
    "DEFAULT_DTYPE",
    "Ellipsoid",
    "EllipsoidPhantom",
    "ProjectionMatrix",
    "ProjectionStack",
    "RAMP_FILTERS",
    "ReconstructionProblem",
    "Volume",
    "bilinear_interpolate",
    "default_geometry_for_problem",
    "filter_projections",
    "forward_project_analytic",
    "gups",
    "interp2",
    "normalized_cross_correlation",
    "operation_counts",
    "problem_from_string",
    "projection_compute_reduction",
    "psnr",
    "rmse",
    "shepp_logan_3d",
    "shepp_logan_ellipsoids",
    "uniform_sphere_phantom",
    "verify_geometry_symmetry",
]
