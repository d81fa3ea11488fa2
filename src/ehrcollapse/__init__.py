"""Exact counting of lattice points in dilated right simplices, quasipolynomial
fitting with minimal-period detection, divisibility criteria for period
collapse, and recurrence guessing for the resulting counting sequences."""

from .arith import (
    EhrcollapseError,
    QuadNumber,
    RadicandMismatchError,
    parse_quad,
    quad_sqrt,
)
from .counting import (
    asymptotic_deficit,
    closed_form_admissible,
    count_axis_simplex,
    count_axis_simplex_many,
    count_interval,
    count_rational_triangle2d,
    count_triangle,
    count_triangle_interior,
    count_triangle_many,
)
from .criteria import (
    CriterionReport,
    check_collapse_criterion,
    check_pseudo_integral_criterion,
    check_reciprocal_criterion,
    classify_admissible,
    reciprocal_params,
    solve_beta_equation,
)
from .polytopes import (
    AdmissiblePair,
    AxisSimplex,
    Interval,
    NotIrrationalError,
    RationalTriangle2D,
    RationalTriangleParams,
    TrianglePair,
    mcallister_woods_image,
    mcallister_woods_pair,
    scales_to_admissible,
)
from .precursive import (
    InsufficientDataError,
    Recurrence,
    guess_recurrence,
    verify_recurrence,
)
from .quasipoly import (
    FitFailureError,
    InsufficientSamplesError,
    Quasipolynomial,
    ReciprocityReport,
    certified_period,
    fit_quasipolynomial,
    minimal_period,
    reciprocity_report,
    series_numerator,
)
from .sequences import (
    a_sequence,
    fib_triangle,
    k_fib,
    limit_tetrahedron,
    tetra_family,
    tetra_polynomial,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
