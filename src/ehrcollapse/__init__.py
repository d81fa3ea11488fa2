"""Exact counting of lattice points in dilated right simplices, quasipolynomial
fitting with minimal-period detection, divisibility criteria for period
collapse, and recurrence guessing for the resulting counting sequences.

Each public name is loaded from its submodule on first use, so that
``import ehrcollapse`` itself loads none of them."""

import sys

_EXPORTS = {  # submodule -> the public names it defines
    "arith": "EhrcollapseError InternalCheckError QuadNumber RadicandMismatchError parse_quad"
             " quad_sqrt",
    "counting": "asymptotic_deficit closed_form_admissible count_axis_simplex"
                " count_axis_simplex_many count_interval count_rational_triangle2d"
                " count_triangle count_triangle_interior count_triangle_many",
    "criteria": "CriterionReport check_collapse_criterion check_pseudo_integral_criterion"
                " check_reciprocal_criterion classify_admissible solve_beta_equation",
    "polytopes": "AdmissiblePair AxisSimplex Interval NotIrrationalError RationalTriangle2D"
                 " RationalTriangleParams TrianglePair mcallister_woods_image"
                 " mcallister_woods_pair reciprocal_params scales_to_admissible",
    "precursive": "InsufficientDataError Recurrence guess_recurrence verify_recurrence",
    "quasipoly": "FitFailureError InsufficientSamplesError Quasipolynomial ReciprocityReport"
                 " certified_period fit_quasipolynomial minimal_period reciprocity_report"
                 " series_numerator",
    "sequences": "a_sequence fib_triangle k_fib limit_tetrahedron tetra_family tetra_polynomial",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in [module, *names.split()]}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    path = f"{__name__}.{_HOME[name]}"
    __import__(path)  # not importlib.import_module, whose loads -X importtime does not list
    module = sys.modules[path]
    globals()[name] = value = module if name in _EXPORTS else getattr(module, name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
