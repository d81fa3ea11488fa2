"""End-to-end CLI behavior: schemas, determinism, exit codes."""

import argparse
import ast
import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import os
import re
import signal
import subprocess
import sys
import time

from fractions import Fraction
from itertools import permutations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from ehrcollapse import cli, counting, polytopes, precursive, quasipoly, sequences
from ehrcollapse.arith import parse_quad
from ehrcollapse.criteria import check_collapse_criterion
from ehrcollapse.polytopes import (
    RationalTriangleParams,
    TrianglePair,
    is_admissible,
    iter_lowest_term_params,
)

BASE = [sys.executable, "-m", "ehrcollapse"]


def run_cli(*args, check=True, timeout=None):
    proc = subprocess.run(BASE + list(args), capture_output=True, text=True, timeout=timeout)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def json_lines(proc):
    return [json.loads(line) for line in proc.stdout.splitlines()]


# -- count ------------------------------------------------------------------------


def test_count_admissible_with_closed_form():
    records = json_lines(run_cli(
        "count", "--alpha", "3", "--beta", "3", "--t", "0..5",
        "--interior", "--closed-form",
    ))
    assert [r["count"] for r in records] == [1, 3, 6, 10, 15, 21]
    assert records[3]["interior"] == 0
    assert records[3]["closed_form"] == "10/1"


def test_count_rational_params():
    records = json_lines(run_cli("count", "--params", "2,3,3,2", "--t", "0..6"))
    assert [r["count"] for r in records] == [1, 2, 5, 9, 13, 19, 26]


def test_count_quad_legs():
    records = json_lines(run_cli(
        "count", "--u", "1", "--v", "0,1,2", "--t", "0..4",
    ))
    assert [r["count"] for r in records] == [1, 2, 4, 7, 10]


def test_count_simplex_interval_and_vertices():
    records = json_lines(run_cli(
        "count", "--legs", "1/2", "10/3", "3/5", "--t", "0..3",
    ))
    assert [r["count"] for r in records] == [1, 4, 10, 20]

    records = json_lines(run_cli(
        "count", "--interval", "0,1,2", "3,1,2", "--t", "1..4",
    ))
    assert [r["count"] for r in records] == [3, 6, 9, 12]

    records = json_lines(run_cli(
        "count", "--vertices", "0,0", "2,0", "1,1/2",
    ))
    assert records == [{"count": 3}]

    records = json_lines(run_cli("count", "--mw-image", "2", "--t", "2"))
    assert records == [{"p": 2, "t": 2, "count": 6}]


def test_simplex_with_a_huge_leg_counts_at_once_in_every_leg_order():
    counts = set()
    for legs in permutations(("0,1,100000000000000003", "1/2", "2")):
        start = time.perf_counter()
        proc = subprocess.run(BASE + ["count", "--legs", *legs, "--t", "3"],
                              capture_output=True, text=True, timeout=30)
        assert time.perf_counter() - start < 0.5, legs
        assert proc.returncode == 0, proc.stderr
        counts.add(proc.stdout)
    assert len(counts) == 1


def test_simplex_with_a_thousand_legs_counts_without_recursion():
    proc = run_cli("count", "--legs", *["1"] * 1100, "--t", "0")
    assert json_lines(proc) == [{"t": 0, "count": 1}]
    assert proc.stderr == ""


def test_count_requires_exactly_one_polytope():
    proc = run_cli("count", "--params", "1,1,1,1", "--legs", "1", "--t", "1",
                   check=False)
    assert proc.returncode == 2


# -- fit / period --------------------------------------------------------------------


def test_fit_reports_no_fit_for_irrational_pair():
    record = json_lines(run_cli(
        "fit", "--u", "1", "--v", "0,1,2", "--period", "3",
    ))[0]
    assert record["fit"] is None


def test_fit_golden_period_three():
    record = json_lines(run_cli(
        "fit", "--alpha", "3", "--beta", "3", "--period", "3",
    ))[0]
    assert record["fit"]["period"] == 3
    assert record["fit"]["coeffs"][0] == ["1/1", "3/2", "1/2"]


def test_period_reports_collapse():
    record = json_lines(run_cli("period", "--params", "2,3,3,2"))[0]
    assert record["denominator"] == 6
    assert record["minimal_period"] == 3
    assert record["collapse"] is True

    record = json_lines(run_cli("period", "--alpha", "2", "--beta", "4"))[0]
    assert record["minimal_period"] == 1
    assert record["guaranteed_period"] == 2


def test_period_on_quadratic_legs_is_usage_error():
    for legs in (("--u", "1", "--v", "1,1,2"), ("--u", "1/2,3/4,7", "--v", "7/4")):
        proc = run_cli("period", *legs, check=False)
        assert proc.returncode == 2
        assert proc.stderr == ("error: period needs rational legs, or legs with integer u + v"
                               " and 1/u + 1/v\n")


@pytest.mark.parametrize("legs, same", [
    (("--u", "3/2", "--v", "2/3"), ("--params", "2,3,3,2")),
    (("--u", "5", "--v", "7/4"), ("--params", "1,5,4,7")),
    (("--u", "3/2,1/2,5", "--v", "3/2,-1/2,5"), ("--alpha", "3", "--beta", "3")),
    (("--u", "7/2,-1/10,1085", "--v", "7/2,1/10,1085"), ("--alpha", "7", "--beta", "5")),
    (("--u", "2/3", "--v", "3/2"), ("--params", "3,2,2,3")),
    (("--u", "3/2,-1/2,5", "--v", "3/2,1/2,5"), ("--alpha", "3", "--beta", "3")),
])
def test_period_on_rational_or_admissible_legs_prints_what_the_other_forms_print(legs, same):
    assert run_cli("period", *legs).stdout == run_cli("period", *same).stdout


@pytest.mark.parametrize("argv", [
    ("period", "--params", "1,100000000,1,1"),
    ("period", "--alpha", "10000000", "--beta", "1"),
    ("period", "--params", f"1,{10 ** 30},1,{10 ** 30 + 1}"),  # more counts than len() takes
])
def test_period_that_needs_too_many_counts_is_refused_at_once(argv):
    start = time.perf_counter()
    proc = run_cli(*argv, check=False)
    assert time.perf_counter() - start < 0.5
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), proc.stderr


@pytest.mark.parametrize("argv, needs", [
    (("fit", "--alpha", "3", "--beta", "3", "--period", "10000000"), 60_000_000),
    (("fit", "--params", "2,3,3,2", "--period", "6", "--t-max", "10000000"), 10_000_001),
])
def test_fit_that_needs_too_many_counts_is_refused_before_counting(argv, needs):
    # counting that many samples would take minutes
    start = time.perf_counter()
    proc = run_cli(*argv, check=False)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"error: {needs} counts held at once are more than the limit"
                           " of 10000000\n")


def _answers_at_once(*argv):
    """Exit code and stderr lines of the CLI as a process that must end within 0.5 s."""
    start = time.perf_counter()
    proc = subprocess.run(BASE + list(argv), capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - start < 0.5
    assert proc.stdout == ""
    return proc.returncode, proc.stderr.splitlines()


@pytest.mark.parametrize("period", [10 ** 6, 10 ** 9])
def test_fit_with_short_residues_fails_without_walking_them(period):
    code, lines = _answers_at_once("fit", "--params", "2,3,3,2", "--period", str(period),
                                   "--t-max", "0")
    assert code == 2
    assert lines == [f"error: residues 0..{period - 1} have fewer than 3 samples"]


def test_guess_rec_that_needs_too_many_counts_is_refused_before_counting():
    for t_max in (10 ** 8, 10 ** 9):
        code, lines = _answers_at_once("guess-rec", "--alpha", "3", "--beta", "3",
                                       "--t-max", str(t_max), "--max-order", "0",
                                       "--max-degree", "0")
        assert code == 2
        assert lines == [f"error: {t_max + 1} counts held at once are more than the limit"
                         " of 10000000"]


@pytest.mark.parametrize("argv", [
    ("count", "--params", "2,3,3,2", "--t", "0..10000000"),
    ("tetra", "--n", "1", "--t", "0..10000000"),
    ("count", "--legs", "1/2", "10/3", "3/5", "--t", "0..10000000"),
])
def test_a_count_range_past_the_limit_is_refused_before_counting(argv):
    code, lines = _answers_at_once(*argv)
    assert code == 2
    assert lines == ["error: 10000001 counts held at once are more than the limit of 10000000"]


# -- check ------------------------------------------------------------------------


def test_check_criteria():
    record = json_lines(run_cli(
        "check", "--criterion", "collapse", "--params", "2,3,3,2",
    ))[0]
    assert record["verdict"] == "collapse-predicted"
    assert record["predicted_period_divisor"] == 3

    record = json_lines(run_cli(
        "check", "--criterion", "reciprocal", "--p", "2", "--q", "5",
    ))[0]
    assert record["predicted_period_divisor"] == 5

    record = json_lines(run_cli(
        "check", "--criterion", "classify", "--alpha", "4", "--beta", "2",
    ))[0]
    assert record["classification"] == "pseudo-rational-only"

    record = json_lines(run_cli(
        "check", "--criterion", "beta-equation", "--bound", "50",
    ))[0]
    assert record["solutions"] == [[2, 4], [3, 3]]


# -- search -----------------------------------------------------------------------


def test_search_bound_one():
    records = json_lines(run_cli("search", "--bound", "1"))
    assert records == [{
        "params": {"p": 1, "q": 1, "r": 1, "s": 1},
        "denominator": 1, "minimal_period": 1,
        "criterion_predicted": True, "collapse": False,
    }]


def test_search_bound_two_finds_a_collapse():
    records = json_lines(run_cli("search", "--bound", "2"))
    collapse = {(r["params"]["p"], r["params"]["q"], r["params"]["r"],
                 r["params"]["s"]): r["collapse"] for r in records}
    assert collapse[(1, 2, 2, 1)] is True
    for record in records:
        assert record["denominator"] % record["minimal_period"] == 0


def test_search_per_coordinate_bounds():
    records = json_lines(run_cli("search", "--max-p", "2", "--max-q", "1",
                                 "--max-r", "1", "--max-s", "3"))
    params = [tuple(r["params"].values()) for r in records]
    assert params == [(p, 1, 1, s) for p in (1, 2) for s in (1, 2, 3)]


def test_search_csv_header():
    lines = run_cli("search", "--bound", "1", "--format", "csv").stdout.splitlines()
    assert lines[0] == "p,q,r,s,denominator,minimal_period,criterion_predicted,collapse"
    assert lines[1] == "1,1,1,1,1,1,true,false"


# boxes (max p, max q, max r, max s): one square, and two that are not with
# their mirrors, where only some tuples have their leg-swapped twin in the box
REUSE_BOXES = ((5, 5, 5, 5), (3, 8, 7, 5), (7, 5, 3, 8), (8, 4, 2, 7), (2, 7, 8, 4))


def _box_argv(box):
    return ["search", "--max-p", str(box[0]), "--max-q", str(box[1]),
            "--max-r", str(box[2]), "--max-s", str(box[3])]


@functools.cache
def _own_period(p, q, r, s, certify=quasipoly.certified_period):
    """The certified period of the one tuple, with no twin to lend it."""
    return certify(RationalTriangleParams(p, q, r, s))


def _periods_not_its_own(stdout, box):
    """The tuples of a search record whose period is not their own certificate."""
    records = [json.loads(line) for line in stdout.splitlines()]
    tuples = [tuple(r["params"].values()) for r in records]
    assert tuples == [(p, q, r, s) for p in range(1, box[0] + 1) for q in range(1, box[1] + 1)
                      for r in range(1, box[2] + 1) for s in range(1, box[3] + 1)
                      if gcd(p, q) == gcd(r, s) == 1]
    return [t for t, r in zip(tuples, records) if r["minimal_period"] != _own_period(*t)]


def _certified_search(monkeypatch, argv, certify=quasipoly.certified_period):
    """search run in process with every certificate through certify; returns
    its stdout and the number of certificates."""
    calls = []
    monkeypatch.setattr(quasipoly, "certified_period",
                        lambda params: calls.append(params) or certify(params))
    code, out, err = _run_in_process(argv)
    assert (code, err) == (0, "")
    return out, len(calls)


@pytest.mark.parametrize("box", REUSE_BOXES)
def test_search_reuses_a_period_only_from_its_twin(monkeypatch, box):
    stdout, _ = _certified_search(monkeypatch, _box_argv(box))
    assert _periods_not_its_own(stdout, box) == []


@pytest.mark.parametrize("argv, calls", [
    (["search", "--bound", "5"], 190),
    (["search", "--bound", "8"], 946),
    (_box_argv((3, 8, 7, 5)), 402),
])
def test_search_certifies_each_triangle_once(monkeypatch, argv, calls):
    """361, 1849 and 468 tuples: a tuple whose twin came earlier is not certified."""
    assert _certified_search(monkeypatch, argv)[1] == calls


@pytest.mark.parametrize("argv, builds", [(["search", "--bound", "5"], 190),
                                           (_box_argv((3, 8, 7, 5)), 402)])
def test_search_builds_params_only_for_a_certificate(monkeypatch, argv, builds):
    """361 and 468 tuples: a record that takes its twin's period builds no
    RationalTriangleParams."""
    built = []

    class Counted(RationalTriangleParams):
        def __init__(self, *pqrs):
            built.append(pqrs)
            super().__init__(*pqrs)

    monkeypatch.setattr(polytopes, "RationalTriangleParams", Counted)
    assert _certified_search(monkeypatch, argv)[1] == len(built) == builds


def test_a_wrong_stored_period_fails_the_reuse_check(monkeypatch):
    """(1, 2, 2, 1) is certified and stores its period 1 for its twin
    (2, 1, 1, 2).  One too large, 2 still divides the denominator 2, and
    both records, the twin's taken from the store, differ from their own
    certificate.  (1, 1, 2, 1) stores 1 for denominator 1; one too large
    fails the divisibility check, an internal check."""
    def off_by_one_at(wrong):
        certify = quasipoly.certified_period
        return lambda params: certify(params) + (params.to_json_dict() == wrong)

    box, certified = (2, 2, 2, 2), []
    wrong = off_by_one_at({"p": 1, "q": 2, "r": 2, "s": 1})

    def logged(params):
        certified.append((params.p, params.q, params.r, params.s))
        return wrong(params)

    stdout, _ = _certified_search(monkeypatch, _box_argv(box), logged)
    assert (1, 2, 2, 1) in certified and (2, 1, 1, 2) not in certified
    assert _periods_not_its_own(stdout, box) == [(1, 2, 2, 1), (2, 1, 1, 2)]
    monkeypatch.undo()
    monkeypatch.setattr(quasipoly, "certified_period",
                        off_by_one_at({"p": 1, "q": 1, "r": 2, "s": 1}))
    code, _, err = _run_in_process(_box_argv(box))
    assert (code, err) == (70, "error: minimal period 2 does not divide 1: an internal check"
                               " failed, which is a bug\n")


@pytest.mark.parametrize("argv", [*map(_box_argv, REUSE_BOXES), ["search", "--bound", "6"]])
def test_search_predicts_collapse_as_the_collapse_criterion_does(argv):
    """The boxes of the benchmark's sweep (REUSE_BOXES holds them in both leg
    orders), and --bound 6."""
    records = _records(argv)
    assert len(records) > 100
    for record in records:
        params = RationalTriangleParams(**record["params"])
        assert record["criterion_predicted"] is check_collapse_criterion(params).holds


def test_search_has_no_jobs_option():
    proc = run_cli("search", "--bound", "2", "--jobs", "2", check=False)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith("ehrcollapse: error: unrecognized arguments: --jobs 2\n")


# -- fib / tetra ---------------------------------------------------------------------


def test_fib_subcommand():
    records = json_lines(run_cli("fib", "--k", "2", "--n", "0..4"))
    assert [r["value"] for r in records] == [0, 1, 2, 5, 12]
    record = json_lines(run_cli("fib", "--k", "1", "--n", "4", "--triangle"))[0]
    assert record["params"] == {"p": 2, "q": 3, "r": 3, "s": 2}


def test_fib_writes_a_value_past_the_default_int_digit_limit():
    """F_8289(3) is the first 3-Fibonacci number of more than 4300 digits, the
    interpreter's default limit for int-to-str conversion, which main lifts.
    In process, so that json.loads reads the value back under the same limit."""
    code, out, err = _run_in_process(["fib", "--k", "3", "--n", "8289"])
    assert (code, err) == (0, "")
    value = json.loads(out)["value"]
    assert value == sequences.k_fib(3, 8289) and len(str(value)) == 4301


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 30), st.integers(1, 40), st.booleans())
def test_fib_rows_of_one_walk_match_each_n_alone(k, start, rows, triangle):
    start = max(start, 2) if triangle else start
    ns = range(start, start + rows)
    code, out, err = _run_in_process(["fib", "--k", str(k), "--n", f"{ns[0]}..{ns[-1]}",
                                      *(["--triangle"] if triangle else [])])
    assert (code, err) == (0, "")
    want = [{"k": k, "n": n, "value": sequences.k_fib(k, n)} for n in ns]
    if triangle:
        for record, n in zip(want, ns):
            record["params"] = sequences.fib_triangle(k, n).to_json_dict()
    assert [json.loads(line) for line in out.splitlines()] == want


def test_tetra_subcommand():
    records = json_lines(run_cli("tetra", "--n", "1", "--t", "0..3"))
    assert [r["count"] for r in records] == [1, 4, 10, 20]
    assert all(r["matches"] for r in records)
    record = json_lines(run_cli("tetra", "--limit"))[0]
    assert record["limit"] is True and len(record["legs"]) == 3


# -- guess-rec ---------------------------------------------------------------------


def test_guess_rec_from_values():
    values = ",".join(str((n + 1) * (n + 2) // 2) for n in range(40))
    record = json_lines(run_cli(
        "guess-rec", "--values", values, "--max-order", "3", "--max-degree", "1",
    ))[0]
    assert record["recurrence"] is not None
    assert record["recurrence"]["order"] <= 3


def test_guess_rec_from_counts():
    record = json_lines(run_cli(
        "guess-rec", "--alpha", "3", "--beta", "3", "--t-max", "60",
        "--max-order", "3", "--max-degree", "0",
    ))[0]
    assert record["recurrence"]["polys"] == [["1/1"], ["-3/1"], ["3/1"], ["-1/1"]]


# -- verify and exit codes --------------------------------------------------------------


def test_verify_suite_passes():
    proc = run_cli("verify", "--suite", "arith")
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["failed"] == 0 and summary["checks"] > 0


def test_unknown_suite_is_usage_error():
    proc = run_cli("verify", "--suite", "nope", check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: unknown suite 'nope'; choose from ['arith', 'closed-form',"
                           " 'criteria', 'fibonacci', 'tetrahedra', 'reciprocity', 'recurrence',"
                           " 'all']\n")


def test_a_failing_check_reports_its_first_counterexample_and_exits_1(monkeypatch):
    from ehrcollapse import verify

    def two_counterexamples():
        yield {"x": 1}
        yield {"x": 2}

    checks = list(verify._SUITE_CHECKS["arith"])
    checks[1] = ("field-axioms-sample", two_counterexamples)
    monkeypatch.setitem(verify._SUITE_CHECKS, "arith", checks)
    code, out, err = _run_in_process(["verify", "--suite", "arith"])
    records = [json.loads(line) for line in out.splitlines()]
    assert (code, err) == (1, "")
    assert records[1] == {"suite": "arith", "check": "field-axioms-sample", "pass": False,
                          "counterexample": {"x": 1}}
    assert all(record["pass"] for record in records[:1] + records[2:4])
    assert records[4:] == [{"checks": 4, "failed": 1}]


def test_every_error_of_the_package_shares_one_value_error_base():
    import ehrcollapse
    from ehrcollapse import verify

    for cls in (ehrcollapse.RadicandMismatchError, ehrcollapse.NotIrrationalError,
                ehrcollapse.InsufficientDataError, ehrcollapse.InsufficientSamplesError,
                ehrcollapse.FitFailureError, ehrcollapse.InternalCheckError):
        assert issubclass(cls, ehrcollapse.EhrcollapseError)
    assert issubclass(ehrcollapse.FitFailureError, ehrcollapse.InternalCheckError)
    assert issubclass(ehrcollapse.EhrcollapseError, ValueError)
    with pytest.raises(ehrcollapse.EhrcollapseError, match="unknown suite"):
        verify.run_suite("nope")


def test_missing_subcommand_is_usage_error():
    proc = run_cli(check=False)
    assert proc.returncode == 2


def test_invalid_params_exit_code():
    proc = run_cli("count", "--params", "2,4,1,1", "--t", "1", check=False)
    assert proc.returncode == 2
    proc = run_cli("count", "--params", "1,1,1,1", "--t", "5..1", check=False)
    assert proc.returncode == 2


def test_byte_identical_reruns():
    args = ("count", "--alpha", "5", "--beta", "3", "--t", "0..30", "--closed-form")
    assert run_cli(*args).stdout == run_cli(*args).stdout


@pytest.mark.parametrize("argv", [
    ("count", "--mw-image", "0", "--t", "1"),
    ("count", "--mw-image", "-3", "--t", "1"),
])
def test_bad_numbers_exit_2_with_one_line(argv):
    proc = run_cli(*argv, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


@pytest.mark.parametrize("argv", [
    ("count", "--vertices", "1/0,0", "1,0", "0,1"),
    ("count", "--u", "1/0", "--v", "1", "--t", "1"),
    ("count", "--legs", "1", "0,1/0,2", "--t", "1"),
    ("count", "--interval", "0", "1/0", "--t", "1"),
    ("search", "--jobs", "1", "--bound", "2"),
    ("search", "--bound", "2", "--jobs"),
    ("search", "--bound", "-2"),
    ("search", "--bound", "0"),
    ("search", "--max-p", "0", "--max-q", "1", "--max-r", "1", "--max-s", "1"),
    ("count", "--legs", "0,1,2", "0,1,3", "1", "--t", "0..2"),
    ("check", "--criterion", "beta-equation", "--bound", "0"),
    ("check", "--criterion", "beta-equation", "--bound", "-5"),
])
def test_bad_arguments_are_usage_errors(argv):
    proc = run_cli(*argv, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_import_leaves_numpy_out():
    modules = ("numpy", "mpmath", "multiprocessing", "ehrcollapse.verify")
    for script in (  # the package alone loads none of its modules
        f"import sys, ehrcollapse.cli; print([m for m in {modules!r} if m in sys.modules])",
        "import sys, ehrcollapse; print([m for m in sys.modules if m.startswith('ehrcollapse.')])",
    ):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


_COUNT_MODULES = {"arith", "cli", "counting", "polytopes"}


@pytest.mark.parametrize("argv, loaded", [
    (["count", "--alpha", "3", "--beta", "3", "--t", "5"], _COUNT_MODULES),
    (["count", "--alpha", "3", "--beta", "3", "--t", "5", "--format", "csv"],
     _COUNT_MODULES | {"csv"}),
    (["guess-rec", "--values", "1,1,2,3,5,8,13,21,34,55,89,144",
      "--max-order", "2", "--max-degree", "0"], {"arith", "cli", "precursive"}),
    (["guess-rec", "--alpha", "3", "--beta", "3", "--t-max", "30", "--max-order", "2",
      "--max-degree", "0"], _COUNT_MODULES | {"precursive"}),
    (["period", "--alpha", "3", "--beta", "3"], _COUNT_MODULES | {"quasipoly"}),
    (["fit", "--alpha", "3", "--beta", "3", "--period", "3", "--t-max", "30"],
     _COUNT_MODULES | {"quasipoly"}),
    (["search", "--max-p", "2", "--max-q", "3", "--max-r", "2", "--max-s", "3"],
     _COUNT_MODULES | {"criteria", "quasipoly"}),
    (["fib", "--k", "2", "--n", "2..5", "--triangle"], {"arith", "cli", "polytopes", "sequences"}),
    (["tetra", "--n", "2", "--t", "0..3"], _COUNT_MODULES | {"sequences"}),
    (["check", "--criterion", "collapse", "--params", "2,3,3,2"],
     {"arith", "cli", "criteria", "polytopes"}),
], ids=["count", "count-csv", "guess-rec", "guess-rec-counts", "period", "fit", "search", "fib",
        "tetra", "check"])
def test_each_command_loads_only_the_modules_it_runs(argv, loaded):
    script = ("import json, sys; from ehrcollapse import cli; code = cli.main(sys.argv[1:]);"
              " print(json.dumps(sorted(sys.modules)), file=sys.stderr); sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stderr)
    names = {m.removeprefix("ehrcollapse.") for m in modules if m.startswith("ehrcollapse.")}
    assert names | ({"csv"} & set(modules)) == loaded
    assert {"dataclasses", "inspect", "ast", "dis", "tokenize"}.isdisjoint(modules)


def _unread_imports(path):
    """The names a module imports, but for `from __future__`, that it never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return sorted(imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


def test_every_imported_name_is_read():
    root = Path(__file__).resolve().parents[1]
    paths = [*(root / "src" / "ehrcollapse").glob("*.py"), *(root / "tests").glob("*.py")]
    unread = {path.name: names for path in paths if path.name != "__init__.py"  # re-exports
              for names in [_unread_imports(path)] if names}
    assert len(paths) > 20 and unread == {}


# -- values that start with '-' ---------------------------------------------------------


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


coordinates = st.builds(Fraction, st.integers(-72, 72), st.integers(1, 6))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coordinates, coordinates), min_size=3, max_size=3))
def test_vertices_with_signed_coordinates_count_like_the_oracle(vertices):
    (x0, y0), (x1, y1), (x2, y2) = vertices
    assume((x1 - x0) * (y2 - y0) != (x2 - x0) * (y1 - y0))
    code, out, err = _run_in_process(["count", "--vertices", *(f"{x},{y}" for x, y in vertices)])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"count": oracles.count_triangle2d(vertices)}


def test_negative_values_parse_wherever_an_option_expects_one():
    code, out, _ = _run_in_process(["guess-rec", "--values", "-1,2,-4,8,-16,32,-64,128,-256,512",
                                    "--max-order", "1", "--max-degree", "0"])
    assert code == 0 and json.loads(out)["recurrence"] is not None
    # -1/2 + sqrt(2) and -.5 + sqrt(2) are one leg; the options around them stay options
    want = [oracles.count_triangle_quad((-1, 2, 2), (1, 0, 1), 2, t, strict=True) for t in range(6)]
    for u in ("-1/2,1,2", "-.5,1,2"):
        code, out, _ = _run_in_process(["count", "--u", u, "--v", "1", "--t", "0..5", "--interior"])
        assert code == 0 and [r["interior"] for r in map(json.loads, out.splitlines())] == want
    code, out, _ = _run_in_process(["count", "--legs", "-1/2,1,2", "3", "--t", "1", "--format", "csv"])
    assert (code, out.splitlines()[0]) == (0, "t,count")
    code, out, _ = _run_in_process(["count", "--interval", "-3/2", "-1/2", "--t", "2"])
    assert (code, json.loads(out)) == (0, {"t": 2, "count": 3})


@pytest.mark.parametrize("argv", [
    ("count", "--params", "1,1,1,1", "--t", "-x"),
    ("count", "--vertices", "-x,1", "0,0", "1,1"),
    ("guess-rec", "--values", "-", "--max-order", "1", "--max-degree", "0"),
    ("count", "--params", "1,1,1,1", "--t", "-5"),
])
def test_junk_after_an_option_is_a_usage_error(argv):
    code, out, err = _run_in_process(list(argv))
    assert (code, out) == (2, "")
    assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]


# -- one parser per process ---------------------------------------------------------


def test_in_process_calls_write_to_their_own_stdout():
    first, second = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(first):
        assert cli.main(["fib", "--k", "1", "--n", "3"]) == 0
    with contextlib.redirect_stdout(second):
        assert cli.main(["count", "--params", "2,3,3,2", "--t", "2"]) == 0
    assert first.getvalue() == '{"k": 1, "n": 3, "value": 2}\n'
    assert second.getvalue() == '{"t": 2, "count": 5}\n'


def test_output_file_in_process(tmp_path):
    target = tmp_path / "out.jsonl"
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        assert cli.main(["fib", "--k", "1", "--n", "3", "--output", str(target)]) == 0
        assert cli.main(["fib", "--k", "1", "--n", "4"]) == 0
    assert target.read_text() == '{"k": 1, "n": 3, "value": 2}\n'
    assert sink.getvalue() == '{"k": 1, "n": 4, "value": 3}\n'


def test_output_file_is_closed(tmp_path):
    target = tmp_path / "out.jsonl"
    script = ("from ehrcollapse import cli; "
              f"cli.main(['fib', '--k', '1', '--n', '3', '--output', {str(target)!r}])")
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and "ResourceWarning" not in proc.stderr, proc.stderr
    assert target.read_text() == '{"k": 1, "n": 3, "value": 2}\n'


@pytest.mark.parametrize("argv", [
    ["count", "--alpha", "1", "--beta", "1", "--t", "1"],  # the command refuses its input
    ["count", "--alpha", "3", "--t", "1"],  # the command's own usage check
    ["count", "--alpha", "3", "--beta", "3", "--t", "x"],  # the parser
    ["tetra", "--n", "1", "--t", "0..10000000"],  # a range past the count limit
    ["fib", "--k", "0", "--n", "0..5"],  # a record that fails as it is built
    ["fib", "--k", "0", "--n", "0..5", "--format", "csv"],
    ["count", "--mw-image", "1", "--t", "1..3"],
])
def test_a_failing_command_leaves_its_output_file_as_it_was(argv, tmp_path):
    target = tmp_path / "keep.jsonl"
    target.write_bytes(b"precious\n")
    proc = run_cli(argv[0], "--output", str(target), *argv[1:], check=False)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert target.read_bytes() == b"precious\n"


def test_an_output_file_that_cannot_be_opened_is_a_usage_error(tmp_path):
    proc = run_cli("count", "--alpha", "3", "--beta", "3", "--t", "1",
                   "--output", str(tmp_path / "no-such-dir" / "x"), check=False)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("target", ["<stdout>", "/dev/full"])
def test_a_full_device_is_one_error_line_and_exit_74(target):
    argv = BASE + ["count", "--alpha", "3", "--beta", "3", "--t", "1..3"]
    with open("/dev/full", "w") as full:  # stdout, and the --output file unless it is stdout
        proc = subprocess.run(argv + ["--output", target] * (target != "<stdout>"),
                              stdout=full, stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) == (74, f"error: {target}: No space left on device\n")


def test_ctrl_c_exits_130_without_a_traceback():
    # unbuffered, so that the first record reaches the pipe as soon as it is written
    argv = [sys.executable, "-u", "-m", "ehrcollapse", "search", "--bound", "30"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            assert proc.stdout.readline().startswith(b'{"params": ')
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert proc.returncode == 130, err
    assert b"Traceback" not in err, err
    assert all(line.startswith(b'{"params": ') for line in out.splitlines()[:-1])


def _translate_off_by_one(pair, translate=TrianglePair.translate.func):
    n, m, step = translate(pair)
    return n, m, step + 1


def _last_count_off_by_one(obj, ts, count=counting.count_triangle_many):
    counts = count(obj, ts)
    return counts[:-1] + [counts[-1] + 1]


# each fault: the attribute it patches, what it puts there, a command that meets it,
# and the start of the error line
INTERNAL_FAULTS = {
    "a translate identity that breaks": (
        (TrianglePair, "translate", property(_translate_off_by_one)),
        ["period", "--alpha", "3", "--beta", "5"], "error: the counts of TrianglePair("),
    "a fit that does not verify (FitFailureError)": (
        (counting, "count_triangle_many", _last_count_off_by_one),
        ["period", "--params", "2,3,3,2"],
        "error: no verified degree-2 fit at guaranteed period 6"),
}


@pytest.mark.parametrize("name", INTERNAL_FAULTS)
def test_an_internal_check_that_fails_is_one_line_and_exit_70(name, monkeypatch):
    patch, argv, start = INTERNAL_FAULTS[name]
    monkeypatch.setattr(*patch)
    code, out, err = _run_in_process(argv)
    assert (code, out) == (70, "")
    assert err.startswith(start) and err.endswith(": an internal check failed, which is a bug\n")
    assert err.count("\n") == 1, err


def test_running_out_of_memory_is_one_line_and_exit_71(monkeypatch):
    def exhausted(obj, ts):
        raise MemoryError

    monkeypatch.setattr(counting, "count_triangle_many", exhausted)
    assert _run_in_process(["count", "--params", "2,3,3,2", "--t", "0..9999999"]) == (
        71, "", "error: out of memory\n")


def test_output_dash_writes_to_stdout():
    argv = ["count", "--params", "2,3,3,2", "--t", "0..6", "--format", "csv"]
    assert run_cli(*argv, "--output", "-").stdout == run_cli(*argv).stdout != ""


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()


# -- output that must not drift ---------------------------------------------------------

# sha256 of the stdout of each command, in order, recorded before `period` lost --degree
PINNED_STDOUT = {
    "period on admissible pairs": "eb0212ac0611e57b3fe80d3ed1ee210d4b48d14021f7e40c2180db62649e025a",
    "search --bound 5": "62985f7dfab799366a02359ed88ebf0a5f2b5e50a873c72f7651f260166d27f5",
    # recorded before fit_quasipolynomial took consecutive counts
    "period on fib triangles": "c65de19bc0740b76733d739fafbcf6aa0bea76c58656d79b6c4b025393b635f7",
    "fit": "971e873009ca5978f5a294d32152ccf5afb21e60c2a7ffad352e5293f4f70ae8",
    # recorded before runs of irrational triangles were counted by their translate identity
    "count items of quadratic seeds 1-3": "cc95fcaca91f1340b6bee05bc297fbaad93b947b68e6b505f9eac6b020079806",
    "count --closed-form": "38bd4b7495537844b090ca99a6fa180800641f68949a5a6a9f5f59b3aa320f84",
    "guess-admissible items of recurrence seeds 1-3":
        "592bc0f54da1b09fd2a2677b10438569407c3d039b09926d7a620f5fb55c5aad",
    # recorded before guess_recurrence kept one column basis mod p per degree
    "guess-values items of recurrence seeds 1-3":
        "c87d8be4fd8b45f423e609765e0af0111974f70e6b978af5097a0210971c40dd",
    "count u = 1, v = sqrt(2) and its swap":
        "3dc911c3a916322b0b59d121ec514b3fcf66c1d03f52174a2bdb647970fdcfc4",
    # recorded before the verify checks yielded their counterexamples
    "verify --suite all": "ac73860546dced4bb5aac97998236a60ff1a2defe23c9763f8448d40f7594657",
    # recorded before a run of records was written as one block of lines
    "count --format csv ranges": "947229ae9613e21eba0e8e0212001be85c11eeec598f5f6ad1462b6d907fc44f",
    "count --interior": "143b7280ed4b06774f0c58e2e830b6ef918a94f91bce23117080a8250c194685",
    "tetra --t": "befd11d672747ae87557c0e607f2a401f7b851c6d0bd1be5263d19b12b727962",
    "fib --n": "5d27d60eccf4c93c3cd6147e2eda53b1aaf24006049bb3796c57e1ff3cd2b38d",
    "count over three chunks": "df87a8b97ce288beff3c57b5052ad36959b8c194a6ff43d7634d0d4a21c4fe80",
    # recorded before the swapped divisibility triple was built by _divisibility_triple
    "check on small params": "5ebcbe687dd4949bd9ecc463f589bb05b4d8d773eb53951c87c55c5e42dc08be",
    # recorded as sha256sum checks of the CI workflow, each of one command
    "search --max-p 3 --max-q 8 --max-r 7 --max-s 5":
        "f4239e72c6e10bbd06c505611324d2742658578453533ae5d3e3e413e3773010",
    "search --max-p 7 --max-q 5 --max-r 3 --max-s 8":
        "c678622b1c5bbd9226a3330bed4106d2f73781b6ee3702547a7daad2449c50bc",
    "search --bound 6": "8afeb020264a2a7c22612434a3f8af3e356518c17a6b88c5641d9889e0b40adb",
    "search --bound 8": "8493e98c32ef0e8b2579c890404c26ec8c091913f35f0700f85536fbc2a83e9c",
    # recorded before a search record's bools and params dict filled slots of its line
    # template, each cell had its own json.dumps call
    "search --bound 12": "f361f048b3fdeaa4b697edab0de925d7a9f5290e092acb161a1e6d6acde511f5",
    # recorded before a period waited in the store under its twin's tuple: the sweep's
    # third box and its mirror, where some twins lie outside the box
    "search --max-p 8 --max-q 4 --max-r 2 --max-s 7":
        "a3a520b473d521e8b38df7abd8dfd154768cac1c56e8758fbaf67402ec5fdbd4",
    "search --max-p 2 --max-q 7 --max-r 8 --max-s 4":
        "51c01d12e6917b656c59ed96d7f2cc95f5a2bc22ef907b391759c3ae233d0399",
    "fit --params 55,89,89,55 --period 4895":
        "a87e13f79d88e940c03bd09b6a297ea7c56af34dd4bbcc19c1ab178cb8f1e86f",
    "guess-rec --alpha 3 --beta 3 --t-max 200000":
        "0dbfc909911c65ef76825cd78dec25b2781faba425d289cccbf79972f3111e5f",
    "tetra --limit --t 0..2000": "5c51fa1bd15ccf7e8c2ebf192f1f109cf1913239f7ae01bfd91b4cbb839206d0",
    "tetra --n 2 --t 0..2000": "7941c7e7a5eed39e4460dfc23d0f8ecf1247bb46df06d230e153fe1f3718a94d",
    "count --legs 1/2 10/3 3/5 --t 0..2000":
        "da9700e89d50509f7ee556a37ec6c0f81e78572f1f91359f04b3069cf83a068c",
    "count --interval 0,1,2 3,1,2 --t 0..100000":
        "12c5bae275c8882df97ad6a28aa7eae4d7d2f20cfa95f9de1698b81964c005fb",
    "count --interval 1/3,1,5 7/3,1,5 --t 0..100000":
        "e5fb7baf55204ca650ef3b363e05bff91885bdaec8eb88549e33eb403eceeb5c",
    "count --u 1/2,3/4,7 --v 7/4 --t 0..100000":
        "9fcb4cdd0cbefebd158ecdf414abb2ecdcab67c6200c61471620325f8e25568b",
    "count --u 1,1,2 --v 1 --t 0..100000":
        "fdf66e6386e1d6de7654ab1f93a279c629b14f487bb59269a3752cd34b9dc4b8",
    "count --u 0,1,1000000007 --v 5/8 --t 0..100000":
        "607b0afbaaac19420b78ef69d196a2bb710a527eb25b691903bec5fa01c39813",
    "count --legs 1,1,2 3/7 --t 0..100000":
        "a6fb20d51d7192274deb8c639a52480df0b84180a090fbed23947e62836a3c5d",
    # recorded before a strip run was counted by one Beatty run of its rows: strip runs
    # that start away from 0, and one whose 1/u has a negative surd
    "count --u 1/2,3/4,7 --v 7/4 --t 1000000..1100000":
        "71f0e3418494640263bf6ed7709227825b3606e823994a8dad0b14e261b35364",
    "count --u 3,3/4,7 --v 7/4 --t 0..50000":
        "f7009ce1868d5f775923c32187eea4314dcf85df1d61d2b0eeb7d07c51e76ae3",
    "count --u 1/2,3/4,7 --v 7/4 --t 10^300..10^300+59":
        "6aae600a640f0f8dc975c615bc04ad5f32979089b987d3454e5589079e1ba862",
    # recorded before the strip run was counted in place by count_triangle_many: strips
    # with a large numerator s = 4099 (4099 seed floor sums and residue passes per chunk),
    # in each leg order
    **dict.fromkeys(["count --u 0,1,2 --v 4099/8 --t 1000000..1020000",
                     "count --u 4099/8 --v 0,1,2 --t 1000000..1020000"],
                    "0d2400edc715ea95db1093f4b2f94504dae52a9335a857f7a7b9ec40a46bff51"),
    # recorded before a radicand with a square factor was kept as given: the golden pair
    # over 45 = 9*5, a strip over 12 = 4*3, a simplex over 8 and 18, and the admissible
    # pair (4, 3) over its radicand 96 = 16*6, which prints as `period --alpha 4 --beta 3`
    "count --u 3/2,1/6,45 --v 3/2,-1/6,45 --t 0..20000 --interior":
        "75a27634c11784031231dd6efdaba1c23d5b30db2c65dcf50f30ec013cfd5dd8",
    "count --u 1,1/2,12 --v 3/4 --t 0..50000":
        "1e57682e0782821122ab51e56f0efa539cf48144828e3cfe04e2f71fe53e3c6f",
    "count --legs 0,1,8 1/2 0,1,18 --t 0..300":
        "76155638b8424c9b49733149bbb5eded045e822f1dc7d92513575c4369c07889",
    "period --u 2,1/6,96 --v 2,-1/6,96": "5cae1e913bd26645e73b5fe6308a0f19f71d0d2aab224e980f7a8c134110bcfa",
    # recorded before arith wrote its rule for an exact number once: one RationalTriangle2D
    # per t, each through fraction_rows and to_integers
    "count --mw-image 7 --t 1..10000":
        "5f57d90afd398db5afa32d167e5458728448ca4ea8a057362a8110ccea59b39e",
    # recorded where the CI workflow checked a line of the stdout alone: its
    # "minimal_period": 987 (= F_16), and its "recurrence": null at 100001 values
    "period --params 610,987,987,610":
        "5e4e28efa7bd20771fc327dc7efcda5b3fa4f9e3dc61f57fd72b6c06f4efc077",
    "guess-rec --alpha 3 --beta 3 --t-max 100000 --max-order 0":
        "d938e0aafce865181454d803b3554393783e01186a318cda7847daa6858bbebd",
    # recorded before the rank test kept its basis entries unscaled: the README's
    # large-bound commands, the cells where the rank test does the most work
    "guess-rec --params 7,13,11,9 --t-max 5000 --max-order 40 --max-degree 0":
        "467b6ae9174cabfaac4d19358356f45043b5318b5b1b2d18059cd38961fc35b7",
    "guess-rec --alpha 14 --beta 3 --t-max 3000 --max-order 20 --max-degree 2":
        "7d0537272c5f14d30eb4a5065d869bca20a9443ede26c7ce2c4ca363da44bb93",
    # recorded where the CI workflow compared two stdouts: a two-leg simplex is
    # counted as its triangle, and each spelling of an option is read as its flat form
    **dict.fromkeys(["count --legs 2 3 --t 0..2000", "count --u 1/2 --v 1/3 --t 0..2000"],
                    "6274410878645dabd4fa77c9f5db93e3292972d059d75745a2013a003bca5c72"),
    **dict.fromkeys(["count --alpha 3 --beta 3 --t 0..2000", "count --alpha=3 --beta=3 --t=0..2000",
                     "count --alp 3 --be 3 --t 0..2000"],
                    "a922f28924d324e35ab78b749ecd78b53d8e7112930e2de55304b80c153fddfd"),
    **dict.fromkeys(["guess-rec --values -1,2,...,2048", "guess-rec --val=-1,2,...,2048 --max-o 1"],
                    "2a644adc4259e23af63b39a600756555b2b1c07da0494b7158776bf0b9cc5f7e"),
}

# the commands of each run, and the seconds that each may take in process, from the
# `timeout` that bounded it in the CI workflow (None: no budget)
RUN_ARGVS = {
    "count --format csv ranges": ([
        ["count", "--params", "2,3,3,2", "--t", "0..60", "--format", "csv"],
        ["count", "--u", "1/2,3/4,7", "--v", "7/4", "--t", "0..60", "--format", "csv"],
        ["count", "--legs", "1/2", "10/3", "3/5", "--t", "0..20", "--format", "csv"],
        ["count", "--interval", "0,1,2", "3,1,2", "--t", "0..40", "--format", "csv"],
        ["count", "--mw-image", "3", "--t", "1..20", "--format", "csv"],
        ["count", "--alpha", "3", "--beta", "3", "--t", "0..40", "--interior", "--closed-form",
         "--format", "csv"],
    ], None),
    "count --interior": ([["count", "--alpha", "3", "--beta", "3", "--t", "0..300", "--interior"]],
                         None),
    "tetra --t": ([["tetra", "--n", "2", "--t", "0..200"], ["tetra", "--limit", "--t", "0..30"],
                   ["tetra", "--n", "3", "--t", "0..30", "--format", "csv"]], None),
    "fib --n": ([["fib", "--k", "2", "--n", "2..30", "--triangle"],
                 ["fib", "--k", "1", "--n", "0..40"],
                 ["fib", "--k", "2", "--n", "2..30", "--triangle", "--format", "csv"]], None),
    # 10 001 lines: more than two chunks of 4096
    "count over three chunks": ([["count", "--params", "7,13,11,9", "--t", "0..10000"]], None),
    "search --max-p 3 --max-q 8 --max-r 7 --max-s 5": (
        [["search", "--max-p", "3", "--max-q", "8", "--max-r", "7", "--max-s", "5"]], None),
    "search --max-p 7 --max-q 5 --max-r 3 --max-s 8": (
        [["search", "--max-p", "7", "--max-q", "5", "--max-r", "3", "--max-s", "8"]], None),
    "search --bound 6": ([["search", "--bound", "6"]], None),
    "search --bound 8": ([["search", "--bound", "8"]], None),
    "search --bound 12": ([["search", "--bound", "12"]], 10),
    "search --max-p 8 --max-q 4 --max-r 2 --max-s 7": (
        [["search", "--max-p", "8", "--max-q", "4", "--max-r", "2", "--max-s", "7"]], None),
    "search --max-p 2 --max-q 7 --max-r 8 --max-s 4": (
        [["search", "--max-p", "2", "--max-q", "7", "--max-r", "8", "--max-s", "4"]], None),
    "period --params 610,987,987,610": ([["period", "--params", "610,987,987,610"]], 60),
    "fit --params 55,89,89,55 --period 4895": (
        [["fit", "--params", "55,89,89,55", "--period", "4895"]], 60),
    "guess-rec --alpha 3 --beta 3 --t-max 200000": (
        [["guess-rec", "--alpha", "3", "--beta", "3", "--t-max", "200000", "--max-order", "9",
          "--max-degree", "1"]], 10),
    "guess-rec --alpha 3 --beta 3 --t-max 100000 --max-order 0": (
        [["guess-rec", "--alpha", "3", "--beta", "3", "--t-max", "100000", "--max-order", "0",
          "--max-degree", "0"]], 10),
    "guess-rec --params 7,13,11,9 --t-max 5000 --max-order 40 --max-degree 0": (
        [["guess-rec", "--params", "7,13,11,9", "--t-max", "5000", "--max-order", "40",
          "--max-degree", "0"]], 10),
    "guess-rec --alpha 14 --beta 3 --t-max 3000 --max-order 20 --max-degree 2": (
        [["guess-rec", "--alpha", "14", "--beta", "3", "--t-max", "3000", "--max-order", "20",
          "--max-degree", "2"]], 10),
    "tetra --limit --t 0..2000": ([["tetra", "--limit", "--t", "0..2000"]], 10),
    "tetra --n 2 --t 0..2000": ([["tetra", "--n", "2", "--t", "0..2000"]], 10),
    "count --legs 1/2 10/3 3/5 --t 0..2000": (
        [["count", "--legs", "1/2", "10/3", "3/5", "--t", "0..2000"]], 10),
    "count --interval 0,1,2 3,1,2 --t 0..100000": (
        [["count", "--interval", "0,1,2", "3,1,2", "--t", "0..100000"]], 10),
    "count --interval 1/3,1,5 7/3,1,5 --t 0..100000": (
        [["count", "--interval", "1/3,1,5", "7/3,1,5", "--t", "0..100000"]], 10),
    "count --u 1/2,3/4,7 --v 7/4 --t 0..100000": (
        [["count", "--u", "1/2,3/4,7", "--v", "7/4", "--t", "0..100000"]], 10),
    "count --u 1,1,2 --v 1 --t 0..100000": (
        [["count", "--u", "1,1,2", "--v", "1", "--t", "0..100000"]], 10),
    "count --u 0,1,1000000007 --v 5/8 --t 0..100000": (
        [["count", "--u", "0,1,1000000007", "--v", "5/8", "--t", "0..100000"]], 10),
    "count --legs 1,1,2 3/7 --t 0..100000": (
        [["count", "--legs", "1,1,2", "3/7", "--t", "0..100000"]], 10),
    "count --u 1/2,3/4,7 --v 7/4 --t 1000000..1100000": (
        [["count", "--u", "1/2,3/4,7", "--v", "7/4", "--t", "1000000..1100000"]], 10),
    "count --u 3,3/4,7 --v 7/4 --t 0..50000": (
        [["count", "--u", "3,3/4,7", "--v", "7/4", "--t", "0..50000"]], 10),
    "count --u 1/2,3/4,7 --v 7/4 --t 10^300..10^300+59": (
        [["count", "--u", "1/2,3/4,7", "--v", "7/4", "--t", f"{10 ** 300}..{10 ** 300 + 59}"]], 10),
    "count --u 0,1,2 --v 4099/8 --t 1000000..1020000": (
        [["count", "--u", "0,1,2", "--v", "4099/8", "--t", "1000000..1020000"]], 10),
    "count --u 4099/8 --v 0,1,2 --t 1000000..1020000": (
        [["count", "--u", "4099/8", "--v", "0,1,2", "--t", "1000000..1020000"]], 10),
    "count --u 3/2,1/6,45 --v 3/2,-1/6,45 --t 0..20000 --interior": (
        [["count", "--u", "3/2,1/6,45", "--v", "3/2,-1/6,45", "--t", "0..20000", "--interior"]], 10),
    "count --u 1,1/2,12 --v 3/4 --t 0..50000": (
        [["count", "--u", "1,1/2,12", "--v", "3/4", "--t", "0..50000"]], 10),
    "count --legs 0,1,8 1/2 0,1,18 --t 0..300": (
        [["count", "--legs", "0,1,8", "1/2", "0,1,18", "--t", "0..300"]], 10),
    "period --u 2,1/6,96 --v 2,-1/6,96": ([["period", "--u", "2,1/6,96", "--v", "2,-1/6,96"]], 10),
    "count --mw-image 7 --t 1..10000": ([["count", "--mw-image", "7", "--t", "1..10000"]], 10),
    "count --legs 2 3 --t 0..2000": ([["count", "--legs", "2", "3", "--t", "0..2000"]], None),
    "count --u 1/2 --v 1/3 --t 0..2000": (
        [["count", "--u", "1/2", "--v", "1/3", "--t", "0..2000"]], None),
    "count --alpha 3 --beta 3 --t 0..2000": (
        [["count", "--alpha", "3", "--beta", "3", "--t", "0..2000"]], None),
    "count --alpha=3 --beta=3 --t=0..2000": (
        [["count", "--alpha=3", "--beta=3", "--t=0..2000"]], None),
    "count --alp 3 --be 3 --t 0..2000": ([["count", "--alp", "3", "--be", "3", "--t", "0..2000"]],
                                         None),
    "guess-rec --values -1,2,...,2048": (
        [["guess-rec", "--values", "-1,2,-4,8,-16,32,-64,128,-256,512,-1024,2048",
          "--max-order", "1", "--max-degree", "0"]], None),
    "guess-rec --val=-1,2,...,2048 --max-o 1": (
        [["guess-rec", "--val=-1,2,-4,8,-16,32,-64,128,-256,512,-1024,2048", "--max-o", "1",
          "--max-d=0"]], None),
}


def _check_stdout(argvs, digest, budget=None):
    """Runs each argv in process, which must exit 0 without stderr, each within
    budget seconds if a budget is given, and checks that their stdouts, in order,
    hash to digest."""
    sha = hashlib.sha256()
    for argv in argvs:
        start = time.perf_counter()
        code, out, err = _run_in_process(argv)
        seconds = time.perf_counter() - start
        assert (code, err) == (0, ""), (argv, err)
        assert budget is None or seconds < budget, f"{argv} took {seconds:.3g} s of {budget} s"
        sha.update(out.encode())
    assert sha.hexdigest() == digest, f"sha256 of {argvs} is {sha.hexdigest()}, not {digest}"


def _fib_period_argvs():
    """period --params on fib_triangle(k, n) for n >= 2 up to 12, 7 and 6 at k = 1, 2, 3."""
    for k, n_max in ((1, 12), (2, 7), (3, 6)):
        for n in range(2, n_max + 1):
            params = sequences.fib_triangle(k, n)
            yield ["period", "--params", f"{params.p},{params.q},{params.r},{params.s}"]


def _benchmark_argvs(workload, kind, seeds):
    """The distinct command lines of one kind in the benchmark's runs of 12 s
    (perfbench/items.py) at the given seeds, in order of first appearance."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_items", Path(__file__).resolve().parents[1] / "perfbench" / "items.py")
    items = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(items)
    argvs = (tuple(c["argv"]) for seed in seeds for c in items.build(workload, seed, 12)
             if c["kind"] == kind)
    return [list(argv) for argv in dict.fromkeys(argvs)]


def _fit_argvs():
    """fit at degrees 0-4; at period 1, a divisor, the denominator and a non-divisor;
    with default and explicit --t-max; on --alpha/--beta; and one null fit."""
    for degree in range(5):
        for period in (1, 3, 6, 4):  # denominator 6, minimal period 3
            yield ["fit", "--params", "2,3,3,2", "--period", str(period), "--degree", str(degree)]
    for period in (1, 3, 6, 4):
        yield ["fit", "--params", "2,3,3,2", "--period", str(period), "--t-max", "40"]
    for period in (5, 30, 7):  # denominator 30
        for degree in (1, 2):
            yield ["fit", "--params", "3,10,2,15", "--period", str(period), "--degree", str(degree)]
    for t_max in (89, 200):  # 89: exactly three samples per residue
        yield ["fit", "--params", "3,10,2,15", "--period", "30", "--t-max", str(t_max)]
    for alpha, beta, period in ((3, 3, 1), (3, 3, 3), (5, 2, 5), (5, 2, 2), (7, 3, 7)):
        yield ["fit", "--alpha", str(alpha), "--beta", str(beta), "--period", str(period)]
    yield ["fit", "--alpha", "5", "--beta", "2", "--period", "5", "--degree", "1", "--t-max", "9"]
    yield ["fit", "--u", "1", "--v", "0,1,2", "--period", "3"]  # sqrt(2) leg: no fit


def _check_argvs():
    """check --criterion collapse, then pseudo-integral, on each lowest-term (p, q, r, s)
    with entries <= 5 in lexicographic order; then reciprocal on each coprime p, q <= 12."""
    for params in iter_lowest_term_params(5):
        for criterion in ("collapse", "pseudo-integral"):
            yield ["check", "--criterion", criterion,
                   "--params", f"{params.p},{params.q},{params.r},{params.s}"]
    for p in range(1, 13):
        for q in range(1, 13):
            if gcd(p, q) == 1:
                yield ["check", "--criterion", "reciprocal", "--p", str(p), "--q", str(q)]


def test_stdout_matches_the_pinned_digests():
    pairs = [(a, b) for a in range(1, 15) for b in range(1, 41) if is_admissible(a, b)]
    assert len(pairs) == 552
    periods = (["period", "--alpha", str(a), "--beta", str(b)] for a, b in pairs)
    _check_stdout(periods, PINNED_STDOUT["period on admissible pairs"])
    _check_stdout([["search", "--bound", "5"]], PINNED_STDOUT["search --bound 5"])
    fib_periods = list(_fib_period_argvs())
    assert len(fib_periods) == 22
    _check_stdout(fib_periods, PINNED_STDOUT["period on fib triangles"])
    fits = list(_fit_argvs())
    assert len(fits) == 39
    _check_stdout(fits, PINNED_STDOUT["fit"])
    dense = _benchmark_argvs("quadratic", "dense", (1, 2, 3))  # the dense and bigd slots
    assert len(dense) == 312
    _check_stdout(dense, PINNED_STDOUT["count items of quadratic seeds 1-3"])
    pairs = ((3, 3), (2, 4), (1, 5), (5, 1), (2, 3), (3, 2), (4, 7), (7, 4), (5, 5), (13, 17))
    closed = (["count", "--alpha", str(a), "--beta", str(b), "--t", "0..300", "--closed-form"]
              for a, b in pairs)
    _check_stdout(closed, PINNED_STDOUT["count --closed-form"])
    guesses = _benchmark_argvs("recurrence", "guess-admissible", (1, 2, 3))
    assert len(guesses) == 29
    _check_stdout(guesses, PINNED_STDOUT["guess-admissible items of recurrence seeds 1-3"])
    values = _benchmark_argvs("recurrence", "guess-values", (1, 2, 3))
    assert len(values) == 176
    _check_stdout(values, PINNED_STDOUT["guess-values items of recurrence seeds 1-3"])
    sqrt2 = [["count", "--u", "1", "--v", "0,1,2", "--t", "0..200"],
             ["count", "--u", "0,1,2", "--v", "1", "--t", "0..200"]]
    _check_stdout(sqrt2, PINNED_STDOUT["count u = 1, v = sqrt(2) and its swap"])
    _check_stdout([["verify", "--suite", "all"]], PINNED_STDOUT["verify --suite all"])
    checks = list(_check_argvs())
    assert len(checks) == 813
    _check_stdout(checks, PINNED_STDOUT["check on small params"])


@pytest.mark.parametrize("name", RUN_ARGVS)
def test_runs_match_the_pinned_digests_in_stdout_and_output_files(name, tmp_path):
    argvs, budget = RUN_ARGVS[name]
    _check_stdout(argvs, PINNED_STDOUT[name], budget)
    if budget is not None:  # a long run: its --output file is not written twice more
        return
    target = tmp_path / "run.out"
    for argv in argvs:
        _, out, _ = _run_in_process(argv)
        assert _run_in_process(argv + ["--output", str(target)]) == (0, "", "")
        assert target.read_bytes() == out.encode()


def test_the_runner_fails_on_a_wrong_digest_and_on_a_budget_below_the_run_time():
    argvs = [["fib", "--k", "1", "--n", "3"]]
    digest = hashlib.sha256(b'{"k": 1, "n": 3, "value": 2}\n').hexdigest()
    _check_stdout(argvs, digest, budget=10)
    with pytest.raises(AssertionError, match="^sha256 of "):
        _check_stdout(argvs, "0" * 64, budget=10)
    with pytest.raises(AssertionError, match=r" took \S+ s of 0 s\n"):
        _check_stdout(argvs, digest, budget=0)


def _records(argv):
    code, out, err = _run_in_process(argv)
    assert (code, err) == (0, ""), err
    return [json.loads(line) for line in out.splitlines()]


def test_period_and_guess_rec_records_read_back_exactly():
    for triangle in (["--params", "2,3,3,2"], ["--alpha", "14", "--beta", "3"]):
        (record,) = _records(["period", *triangle])
        qp = quasipoly.Quasipolynomial.from_json_dict(record["quasipolynomial"])
        counts = _records(["count", *triangle, "--t", "0..100"])
        assert len(counts) == 101 and all(qp.evaluate(r["t"]) == r["count"] for r in counts)
    (record,) = _records(["guess-rec", "--alpha", "3", "--beta", "3", "--t-max", "60",
                          "--max-order", "9", "--max-degree", "0"])
    rec = precursive.Recurrence.from_json_dict(record["recurrence"])
    counts = _records(["count", "--alpha", "3", "--beta", "3", "--t", "0..200"])
    assert len(counts) == 201 and precursive.verify_recurrence(rec, [r["count"] for r in counts])


@pytest.mark.parametrize("triangle", [["--u", "1/2,3/4,7", "--v", "7/4"], ["--params", "7,13,11,9"]])
def test_the_last_line_of_a_long_run_is_the_count_at_its_t(triangle):
    _, run, _ = _run_in_process(["count", *triangle, "--t", "0..100000"])
    assert _run_in_process(["count", *triangle, "--t", "100000"]) == (
        0, run.splitlines(keepends=True)[-1], "")


def test_no_digest_is_checked_both_by_the_workflow_and_by_the_tests():
    root = Path(__file__).resolve().parents[1]
    digests = re.compile(r"\b[0-9a-f]{64}\b")
    ci = set(digests.findall((root / ".github" / "workflows" / "tests.yml").read_text()))
    tests = {d for path in (root / "tests").glob("*.py") for d in digests.findall(path.read_text())}
    assert ci and tests and ci.isdisjoint(tests), ci & tests


# -- the run writer ------------------------------------------------------------------------


class _Writes(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def _written(keys, rows, chunk_lines=cli._Emitter.CHUNK_LINES):
    out = _Writes()
    emitter = cli._Emitter(out, "jsonl")
    emitter.CHUNK_LINES = chunk_lines
    emitter.emit(keys, rows)
    return out.getvalue(), out.writes


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2 ** 64, 2 ** 200)
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
json_keys = st.text(st.sampled_from('a%"\\é☃\n'), max_size=4) | st.text(max_size=4)


# the kinds of cell in the records: an int, a bool, None, text, an 'n/d' fraction, a
# dict of ints such as a search record's params, and any JSON value
column_values = [st.integers(), st.booleans(), st.none(), st.text(max_size=4),
                 st.text("-0123456789/", max_size=6),
                 st.dictionaries(json_keys, st.integers() | st.integers(2 ** 64, 2 ** 200),
                                 max_size=4),
                 json_values]


@settings(max_examples=300, deadline=None)
@given(st.lists(json_keys, min_size=1, max_size=4, unique=True), st.data())
def test_a_run_is_written_as_json_dumps_of_each_record(names, data):
    shape = data.draw(st.sampled_from(["ints", "any", "columns"]))
    if shape == "columns":  # each column its own kind, as in tetra, search and period records
        columns = [data.draw(st.sampled_from(column_values)) for _ in names]
    else:
        columns = [st.integers() if shape == "ints" else json_values] * len(names)
    rows = data.draw(st.lists(st.tuples(*columns), max_size=12))
    chunk_lines = data.draw(st.integers(1, 5))
    text, writes = _written(names, rows, chunk_lines)
    assert text == "".join(json.dumps(dict(zip(names, row))) + "\n" for row in rows)
    assert writes == -(-len(rows) // chunk_lines)  # one write per chunk


def test_a_bool_or_float_never_fills_an_int_slot():
    rows = [(1, True), (False, 1.0), (2 ** 70, -0.0), (float("inf"), None), (-3, 7)]
    text, _ = _written(("a", "b%s"), rows, chunk_lines=1)  # each row its own chunk
    assert text == ('{"a": 1, "b%s": true}\n{"a": false, "b%s": 1.0}\n'
                    '{"a": 1180591620717411303424, "b%s": -0.0}\n'
                    '{"a": Infinity, "b%s": null}\n{"a": -3, "b%s": 7}\n')


def test_a_run_longer_than_a_chunk_is_one_write_per_chunk():
    rows = [(t, t * t) for t in range(2 * cli._Emitter.CHUNK_LINES + 1)]
    text, writes = _written(("t", "count"), rows)
    assert writes == 3
    assert text.splitlines() == [json.dumps({"t": t, "count": n}) for t, n in rows]


def test_search_writes_one_record_per_write():
    out = _Writes()
    with contextlib.redirect_stdout(out):
        assert cli.main(["search", "--bound", "2"]) == 0
    assert out.writes == out.getvalue().count("\n") > 1


def test_a_reader_that_closes_the_pipe_ends_the_run_quietly():
    argv = BASE + ["count", "--params", "7,13,11,9", "--t", "0..200000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b'{"t": 0, "count": 1}\n'
        proc.stdout.close()  # some 5 MB of lines are still to come
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 0


# -- runs of irrational triangles --------------------------------------------------------


def test_a_rational_leg_of_large_denominator_counts_runs_by_floor_sums():
    """v = 1/10^6 would need a strip of 10^6 floors per t, so the run takes one
    floor sum per t; a strip would not end before the timeout."""
    pair = TrianglePair(parse_quad("0,1,2"), Fraction(1, 10 ** 6))
    start = time.perf_counter()
    want = [{"t": t, "count": counting.count_triangle(pair, t)} for t in range(2001)]
    per_t = time.perf_counter() - start
    start = time.perf_counter()
    proc = run_cli("count", "--u", "0,1,2", "--v", "1/1000000", "--t", "0..2000", timeout=60)
    assert json_lines(proc) == want
    # the run and the per-t counts do the same floor sums; the process adds its start
    assert time.perf_counter() - start < 3 * per_t + 5


# -- closed forms answer at any bound ---------------------------------------------------


def test_beta_equation_at_a_huge_bound_answers_at_once():
    proc = subprocess.run(BASE + ["check", "--criterion", "beta-equation", "--bound", str(10 ** 12)],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json_lines(proc) == [{"bound": 10 ** 12, "solutions": [[2, 4], [3, 3]]}]


# -- argv fuzz over every subcommand ------------------------------------------------------


def _values(valid, bad=(), count=1):
    """count values, each a bad one about one time in five."""
    return st.lists(st.sampled_from(4 * valid + bad), min_size=count, max_size=count)


# Ints near 10**30 go only to options that set no amount of work: --params,
# --alpha/--beta, --k, --p/--q, --mw-image and radicands.
_H = 10 ** 30
_HUGE = (str(_H), str(_H + 7), str(-_H))
_SMALL, _BAD_INT = ("1", "2", "3", "5"), ("-1", "0", "x", "2.5", "3/0")
_INT = _values(_SMALL, _BAD_INT)
_HUGE_INT = _values(_SMALL, _BAD_INT + _HUGE)
_SUM = _values(("2", "3", "5"), ("1", "0", "-1", "x", "2.5") + _HUGE)  # alpha, beta
_ORDER = _values(("0", "1", "2"), ("-1", "x", "1.5"))
_LEG = ("1", "1/2", "2", "3", "5/3", "0,1,2", "1,1,2", "0,1,8", "0,1,3", "-1/2,1,2", "2.5")
# radicands that are squares, negative or near 10**30
_BAD_LEG = ("0", "-1", "1/0", "3/0,1,2", "", "1,2", "1,1,-2", "0,1,4", "1,1,-4",
            *(f"0,1,{h}" for h in _HUGE), f"1/2,-1,{_H + 1}")
_LEGS = _values(_LEG, _BAD_LEG)
_RANGE = _values(("0", "3", "0..4", "2..6"),
                 ("-1..2", "5..3", "-1", "x", "1..", "", "2.5", "0..2.5"))
_PARAMS = _values(("1,1,1,1", "2,3,3,2", "3,1,2,3", "2,1,1,2", "3,2,1,1"),
                  ("0,1,1,1", "2,2,1,1", "1,2,3", "1/0,1,1,1", "2.5,1,1,1",
                   f"1,{_H},1,{_H + 1}", f"{_H + 1},{_H},{_H},{_H + 1}"))
_TRIANGLES = [[("--params", _PARAMS)], [("--alpha", _SUM), ("--beta", _SUM)],
              [("--u", _LEGS), ("--v", _LEGS)]]
_GOLDEN_LEGS = [("--u", st.just(["3/2,1/2,5"])), ("--v", st.just(["3/2,-1/2,5"]))]  # (3, 3)
_COMMON = [("--output", st.just(["-"])), ("--format", _values(("jsonl", "csv"), ("xml",)))]
_FLAG = st.just([])

# Per subcommand: the option sets of which a valid call needs one, and options
# that may be added to it.  Every value that sets an amount of work is small,
# so that each call runs in milliseconds; verify meets only suite names it rejects.
SUBCOMMANDS = {
    "count": (
        [shape + [("--t", _RANGE)] for shape in _TRIANGLES]
        + [[("--legs", st.lists(st.sampled_from(4 * _LEG + _BAD_LEG), min_size=1, max_size=4)),
            ("--t", _RANGE)],
           [("--interval", _values(_LEG, _BAD_LEG, count=2)), ("--t", _RANGE)],
           [("--vertices", _values(("0,0", "2,0", "0,3/2", "1,1", "-1,2", "2,2"),
                                   ("1/0,1", "1", "2.5,0"), count=3))],
           [("--mw-image", _HUGE_INT), ("--t", _RANGE)]],
        _COMMON + _TRIANGLES[0] + [("--interior", _FLAG), ("--closed-form", _FLAG),
                                   ("--t", _RANGE), ("--legs", _LEGS)]),
    "fit": ([shape + [("--period", _INT)] for shape in _TRIANGLES],
            _COMMON[:1] + [("--degree", _INT), ("--t-max", _values(("4", "11"), ("-1", "0")))]),
    "period": (_TRIANGLES + [_GOLDEN_LEGS], _COMMON[:1]),
    "check": (
        [[("--criterion", st.just([kind])), *extra] for kind, extra in (
            ("collapse", [("--params", _PARAMS)]),
            ("pseudo-integral", [("--params", _PARAMS)]),
            ("reciprocal", [("--p", _HUGE_INT), ("--q", _HUGE_INT)]),
            ("classify", [("--alpha", _SUM), ("--beta", _SUM)]),
            ("beta-equation",
             [("--bound", _values(("1", "3", str(10 ** 12)), ("-2", "0", "2.5")))]),
            ("other", []))],
        _COMMON[:1] + [("--alpha", _HUGE_INT), ("--p", _HUGE_INT), ("--params", _PARAMS)]),
    "search": ([[("--bound", _values(("1", "2"), ("0", "-1", "x", "2.5")))],
                [(f"--max-{c}", _values(("1", "2"), ("0", "1.5"))) for c in "pqrs"]],
               _COMMON + [("--max-q", _INT)]),
    "fib": ([[("--k", _HUGE_INT), ("--n", _RANGE)]], _COMMON + [("--triangle", _FLAG)]),
    "tetra": ([[("--n", _INT)], [("--limit", _FLAG)]], _COMMON + [("--t", _RANGE), ("--n", _INT)]),
    "guess-rec": (
        [source + [("--max-order", _ORDER), ("--max-degree", _ORDER)] for source in
         [[("--values", _values((",".join(str(2 ** n) for n in range(16)),
                                  ",".join(str(n * n - 3) for n in range(16))),
                                 ("1/0,1", "x", "", ",".join(f"{n}.5" for n in range(16)))))]]
         + [shape + [("--t-max", _values(("20", "30"), ("-1", "0")))] for shape in _TRIANGLES]],
        _COMMON[:1]),
    "verify": ([[("--suite", _values(("none", "ALL", "")))]], _COMMON[:1]),
}


def _abbreviation(command, flag):
    """The shortest prefix of flag that argparse reads as flag alone and that
    is not flag itself, or None."""
    flags = cli._parsers()[1][command]._option_string_actions
    return next((flag[:n] for n in range(3, len(flag))
                 if [f for f in flags if f.startswith(flag[:n])] == [flag]), None)


@st.composite
def argvs(draw, spelled=False):
    """A subcommand and its options.  When spelled, an option may also be
    written --flag=value, by an abbreviation or twice (the second time with
    another drawn value): the forms that only argparse reads."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    needed, extra = SUBCOMMANDS[command]
    options = draw(st.sampled_from(needed)) + draw(st.lists(st.sampled_from(extra), max_size=2))
    argv = [command]
    for flag, values in draw(st.permutations(options)):
        given = draw(values)
        form = draw(st.sampled_from(["plain"] * 3 + ["=", "short", "twice"])) if spelled else "plain"
        if form == "=" and len(given) == 1:
            argv.append(f"{flag}={given[0]}")
            continue
        if form == "twice":
            argv += [flag, *draw(values)]
        argv += [_abbreviation(command, flag) or flag if form == "short" else flag, *given]
    return argv


def test_the_fuzz_draws_every_option_of_every_subcommand():
    (subparsers,) = (a for a in cli.build_parser()._actions if a.choices and a.dest == "command")
    assert set(subparsers.choices) == set(SUBCOMMANDS)
    for command, sub in subparsers.choices.items():
        needed, extra = SUBCOMMANDS[command]
        drawn = {flag for flag, _ in extra + [option for shape in needed for option in shape]}
        defined = {flag for action in sub._actions for flag in action.option_strings}
        assert defined - {"-h", "--help"} == drawn, command


@settings(max_examples=1000, deadline=None)
@given(argvs())
def test_argv_fuzz_exits_0_1_or_2_without_a_traceback(argv):
    code, out, err = _run_in_process(argv)  # any exception but SystemExit fails the test
    assert code in (0, 1, 2), (argv, code, err)
    if code == 2:
        assert out == "", (argv, out)
        assert any("error:" in line for line in err.splitlines()), (argv, err)
    else:
        assert err == "", (argv, err)


def _parse_or_exit(parse, argv):
    """parse(argv), or the exit code, stderr and stdout of the SystemExit it raises."""
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        try:
            return parse(argv)
        except SystemExit as exc:
            return exc.code, err.getvalue(), out.getvalue()


@settings(max_examples=500, deadline=None)
@given(argvs(spelled=True), st.sampled_from([[], ["extra"], ["--t", "1", "x"], ["--"], ["-h"],
                                             ["--t", "-5"]]))
def test_one_parse_gives_what_the_full_parse_gives(argv, tail):
    parser, subparsers = cli._parsers()
    argv = argv + tail
    full = _parse_or_exit(parser.parse_args, argv)
    one = _parse_or_exit(cli._parse, argv)
    if isinstance(full, tuple):
        assert one == full, argv
    else:  # the command's parser built alone is the full parser's subparser in all but identity
        args, sub = one
        want = subparsers[argv[0]]
        assert (args, sub.prog, sub.format_help()) == (full, want.prog, want.format_help()), argv


# one flat argv of each command shape that the benchmark runs, and store_true flags
FLAT_ARGVS = [
    ["count", "--params", "7,23,11,19", "--t", "700001"],
    ["count", "--alpha", "14", "--beta", "3", "--t", "1234567"],
    ["count", "--u", "1/2,3/4,7", "--v", "7/4", "--t", "0..300"],
    ["count", "--alpha", "3", "--beta", "3", "--t", "0..5", "--interior", "--closed-form"],
    ["period", "--alpha", "3", "--beta", "5"],
    ["guess-rec", "--alpha", "3", "--beta", "3", "--t-max", "60", "--max-order", "9",
     "--max-degree", "1"],
    ["guess-rec", "--values", "1,1,2,3,5,8,13,21,34,55,89,144", "--max-order", "2",
     "--max-degree", "0"],
    ["search", "--max-p", "3", "--max-q", "8", "--max-r", "7", "--max-s", "5"],
    ["search", "--bound", "2", "--format", "csv"],
    ["fib", "--k", "2", "--n", "2..9", "--triangle"],
]


@pytest.mark.parametrize("argv", FLAT_ARGVS)
def test_a_flat_argv_is_read_without_argparse(argv, monkeypatch):
    parser, subparsers = cli._parsers()
    want = parser.parse_args(argv)

    def refuse(*args, **kwargs):
        raise AssertionError("argparse read a flat argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    args, sub = cli._parse(argv)
    assert args == want and list(vars(args)) == list(vars(want))
    assert (sub.prog, sub.format_help()) == (subparsers[argv[0]].prog,
                                             subparsers[argv[0]].format_help())


@pytest.mark.parametrize("argv", [[], ["nope"], ["-h"], ["--version"],
                                  *([command, "-h"] for command in sorted(SUBCOMMANDS))])
def test_help_and_an_argv_without_a_command_parse_as_before(argv):
    parser, _ = cli._parsers()
    assert _parse_or_exit(cli._parse, argv) == _parse_or_exit(parser.parse_args, argv)


@pytest.mark.parametrize("argv, usage", [
    (["fib", "--k", "3", "--n", "0..4", "--triangle"], "ehrcollapse fib: error: --triangle needs n >= 2"),
    (["count", "--t", "1"], "ehrcollapse count: error: give exactly one polytope"),
    (["count", "--params", "2,3,3,2"], "ehrcollapse count: error: this polytope needs --t"),
    (["count", "--u", "1", "--t", "1"], "ehrcollapse count: error: --u requires --v"),
    (["check", "--criterion", "collapse"],
     "ehrcollapse check: error: --criterion collapse needs --params"),
    (["check", "--criterion", "reciprocal", "--p", "2"],
     "ehrcollapse check: error: --criterion reciprocal needs --p and --q"),
    (["check", "--criterion", "classify", "--alpha", "3"],
     "ehrcollapse check: error: --criterion classify needs --alpha and --beta"),
    (["search", "--max-p", "3"],
     "ehrcollapse search: error: give --bound or all of --max-p/--max-q/--max-r/--max-s"),
    (["guess-rec", "--alpha", "3", "--beta", "3", "--max-order", "0", "--max-degree", "0"],
     "ehrcollapse guess-rec: error: counting input needs --t-max"),
    (["count", "--params", "2,3,3,2", "--t", "0..2", "--closed-form"],
     "ehrcollapse count: error: --closed-form needs --alpha/--beta"),
    (["count", "--legs", "1/2", "2", "--t", "0..2", "--interior"],
     "ehrcollapse count: error: --interior needs --params, --alpha/--beta or --u/--v"),
    (["count", "--interval", "0,1,2", "3,1,2", "--t", "0..2", "--closed-form"],
     "ehrcollapse count: error: --closed-form needs --alpha/--beta"),
    (["count", "--vertices", "0,0", "1,0", "0,1", "--interior"],
     "ehrcollapse count: error: --interior needs --params, --alpha/--beta or --u/--v"),
    (["count", "--vertices", "0,0", "1,0", "0,1", "--closed-form"],
     "ehrcollapse count: error: --closed-form needs --alpha/--beta"),
    (["count", "--mw-image", "2", "--t", "0..2", "--interior"],
     "ehrcollapse count: error: --interior needs --params, --alpha/--beta or --u/--v"),
    (["count", "--mw-image", "2", "--t", "0..2", "--closed-form"],
     "ehrcollapse count: error: --closed-form needs --alpha/--beta"),
    (["count", "--vertices", "0,0", "1,0", "0,1", "--t", "5"],
     "ehrcollapse count: error: --vertices counts once and takes no --t"),
    (["guess-rec", "--values", "1,2,3", "--t-max", "5", "--max-order", "0", "--max-degree", "0"],
     "ehrcollapse guess-rec: error: --values takes no --t-max, --params, --alpha/--beta or --u/--v"),
    (["guess-rec", "--values", "1,2,3", "--alpha", "3", "--beta", "3", "--max-order", "0",
      "--max-degree", "0"],
     "ehrcollapse guess-rec: error: --values takes no --t-max, --params, --alpha/--beta or --u/--v"),
    (["period", "--beta", "3"], "ehrcollapse period: error: --beta requires --alpha"),
    (["fit", "--v", "3", "--period", "2"], "ehrcollapse fit: error: --v requires --u"),
    (["count", "--beta", "3", "--t", "1"], "ehrcollapse count: error: --beta requires --alpha"),
    (["count", "--beta", "3", "--t", "1", "--closed-form"],
     "ehrcollapse count: error: --beta requires --alpha"),
    (["check", "--criterion", "collapse", "--params", "2,3,3,2", "--p", "3", "--alpha", "4",
      "--bound", "7"],
     "ehrcollapse check: error: --criterion collapse takes no --p, --alpha, --bound"),
    (["check", "--criterion", "reciprocal", "--p", "2", "--q", "5", "--bound", "3"],
     "ehrcollapse check: error: --criterion reciprocal takes no --bound"),
    (["count", "--alpha", "3", "--beta", "3", "--t", "5..3"],
     "ehrcollapse count: error: argument --t: empty range '5..3'"),
    (["count", "--params", "2,3,3", "--t", "1"],
     "ehrcollapse count: error: argument --params: expected p,q,r,s but got '2,3,3'"),
    (["count", "--params", "2,4,3,2", "--t", "1"],
     "ehrcollapse count: error: argument --params: q/p and s/r must be in lowest terms"),
    (["check", "--criterion", "collapse", "--params", "0,1,1,1"],
     "ehrcollapse check: error: argument --params: p must be a positive integer, got 0"),
    (["search", "--bound", "0"],
     "ehrcollapse search: error: argument --bound: expected an integer >= 1 but got '0'"),
    (["fib", "--k", "2", "--n", "1..x"],
     "ehrcollapse fib: error: argument --n: invalid int value: 'x'"),
    (["count", "--u", "1,2", "--v", "1", "--t", "1"],
     "ehrcollapse count: error: argument --u: expected 'a' or 'a,b,d', got '1,2'"),
    (["count", "--legs", "1", "0,1,-2", "--t", "1"],
     "ehrcollapse count: error: argument --legs: radicand must be a nonnegative int, got -2"),
    (["count", "--vertices", "0,0", "1,0", "1/0,1"],
     "ehrcollapse count: error: argument --vertices: zero denominator in '1/0'"),
    (["search", "--bound", "x"],
     "ehrcollapse search: error: argument --bound: invalid int value: 'x'"),
    (["check", "--criterion", "collapse", "--params", "1,x,3,4"],
     "ehrcollapse check: error: argument --params: invalid int value: 'x'"),
    (["count", "--u", "0,1,x", "--v", "1", "--t", "1"],
     "ehrcollapse count: error: argument --u: invalid int value: 'x'"),
    (["count", "--u", "x", "--v", "1", "--t", "1"],
     "ehrcollapse count: error: argument --u: invalid fraction value: 'x'"),
    (["guess-rec", "--values", "1,x", "--max-order", "0", "--max-degree", "0"],
     "ehrcollapse guess-rec: error: argument --values: invalid fraction value: 'x'"),
    (["guess-rec", "--values", "", "--max-order", "0", "--max-degree", "0"],
     "ehrcollapse guess-rec: error: argument --values: invalid fraction value: ''"),
    (["guess-rec", "--values", "1/0", "--max-order", "1", "--max-degree", "0"],
     "ehrcollapse guess-rec: error: argument --values: zero denominator in '1/0'"),
    (["count", "--vertices", "0,0,1", "1,0", "0,1"],
     "ehrcollapse count: error: argument --vertices: expected x,y but got '0,0,1'"),
])
def test_a_command_reports_its_own_errors_under_its_own_usage(argv, usage):
    code, out, err = _run_in_process(argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: ehrcollapse {argv[0]} ") and err.endswith(f"\n{usage}\n"), err
