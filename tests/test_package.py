"""The package's public names: each is the object its submodule defines."""

import importlib

import pytest

import ehrcollapse

PUBLIC = [
    "AdmissiblePair", "AxisSimplex", "CriterionReport", "EhrcollapseError", "FitFailureError",
    "InsufficientDataError", "InsufficientSamplesError", "InternalCheckError", "Interval",
    "NotIrrationalError", "QuadNumber", "Quasipolynomial", "RadicandMismatchError",
    "RationalTriangle2D", "RationalTriangleParams", "ReciprocityReport", "Recurrence",
    "TrianglePair", "a_sequence",
    "arith", "asymptotic_deficit", "certified_period", "check_collapse_criterion",
    "check_pseudo_integral_criterion", "check_reciprocal_criterion", "classify_admissible",
    "closed_form_admissible", "count_axis_simplex", "count_axis_simplex_many", "count_interval",
    "count_rational_triangle2d", "count_triangle", "count_triangle_interior",
    "count_triangle_many", "counting", "criteria", "fib_triangle", "fit_quasipolynomial",
    "guess_recurrence", "k_fib", "limit_tetrahedron", "mcallister_woods_image",
    "mcallister_woods_pair", "minimal_period", "parse_quad", "polytopes", "precursive",
    "quad_sqrt", "quasipoly", "reciprocal_params", "reciprocity_report", "scales_to_admissible",
    "sequences", "series_numerator", "solve_beta_equation", "tetra_family", "tetra_polynomial",
    "verify_recurrence",
]
SUBMODULES = {"arith", "counting", "criteria", "polytopes", "precursive", "quasipoly", "sequences"}


def test_all_lists_the_public_names():
    assert ehrcollapse.__all__ == PUBLIC
    assert len(PUBLIC) == 58 and SUBMODULES <= set(PUBLIC)


def test_star_import_binds_each_name_to_its_submodule_object():
    namespace = {}
    exec("from ehrcollapse import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)
    homes = {}
    for name in SUBMODULES:
        module = importlib.import_module(f"ehrcollapse.{name}")
        assert namespace[name] is module
        homes.update((key, value) for key, value in vars(module).items()
                     if getattr(value, "__module__", None) == module.__name__)
    for name in set(PUBLIC) - SUBMODULES:
        assert namespace[name] is homes[name], name


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(ehrcollapse))
    assert "__version__" in dir(ehrcollapse)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ehrcollapse.no_such_name
    with pytest.raises(ImportError):
        exec("from ehrcollapse import no_such_name", {})
