"""Fourier analysis of almost periodic functions on the Fibonacci point set.

The package builds the golden-ratio cut-and-project scheme exactly (integer
arithmetic end to end), discretizes its torus along the physical line, and
estimates Fourier-Bohr coefficients of local functions three ways: closed
form, line integrals, and discrete sums over the scheme's natural data
points.  A command-line interface renders the standard comparison reports
as deterministic CSV.
"""

from .cutproject import (
    ApproxWindow,
    Frequency,
    FrequencySet,
    ModelPoint,
    ModelSetSlice,
    Window,
    enumerate_model_set,
    frequency_representatives,
    torus_coords,
)
from .discretize import (
    DataPoint,
    DataPointSet,
    ErrorEstimate,
    PathDecomposition,
    Segment,
    cell_quadrature,
    compare_data_points,
    data_points,
    data_quadrature,
    error_estimate,
    path_decomposition,
    refinement_reps,
    strip_projection_oracle,
)
from .fibonacci import (
    LocalFunction,
    PointContext,
    TorusLift,
    constant,
    interval_sign,
    nearest_distance,
    point_sets_close,
    substitution_points,
    torus_lift,
)
from .fourier import (
    Approximant,
    Coefficient,
    build_approximant,
    coeff_exact,
    coeff_integral,
    coeff_sum,
    cos_baseline,
    sup_error,
)
from .ztau import (
    DELTA,
    DELTA_STAR,
    SQRT5,
    TAU,
    TAU_STAR,
    ArithmeticCapacityError,
    EmbeddedPair,
    QTau,
    ZTau,
    trace_pairing,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxWindow",
    "Approximant",
    "ArithmeticCapacityError",
    "Coefficient",
    "DataPoint",
    "DataPointSet",
    "DELTA",
    "DELTA_STAR",
    "EmbeddedPair",
    "ErrorEstimate",
    "Frequency",
    "FrequencySet",
    "LocalFunction",
    "ModelPoint",
    "ModelSetSlice",
    "PathDecomposition",
    "PointContext",
    "QTau",
    "SQRT5",
    "Segment",
    "TAU",
    "TAU_STAR",
    "TorusLift",
    "Window",
    "ZTau",
    "build_approximant",
    "cell_quadrature",
    "coeff_exact",
    "coeff_integral",
    "coeff_sum",
    "compare_data_points",
    "constant",
    "cos_baseline",
    "data_points",
    "data_quadrature",
    "enumerate_model_set",
    "error_estimate",
    "frequency_representatives",
    "interval_sign",
    "nearest_distance",
    "path_decomposition",
    "point_sets_close",
    "refinement_reps",
    "strip_projection_oracle",
    "substitution_points",
    "sup_error",
    "torus_coords",
    "torus_lift",
    "trace_pairing",
]
