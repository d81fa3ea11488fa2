"""Command-line interface.

Subcommands: count, fit, period, check, search, fib, tetra, guess-rec, verify.
Records go to stdout as JSON lines by default; tabular subcommands also
support --format csv.  Every JSON line is its keys' line template filled with
its values: an exact int's repr, a bool's or None's literal, a dict of exact
ints under str keys as its own keys' template filled, and json.dumps of any
other value.  Exit codes: 0 success (also when the reader closes stdout early),
1 failed verification, 2 usage or input refused, 70 an internal check failed, a
bug (EX_SOFTWARE), 71 out of memory (EX_OSERR), 74 a failed write of the records
(EX_IOERR), 130 an interrupt (Ctrl-C).  A run that stops keeps the records
already written.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import re
import sys
from fractions import Fraction
from typing import Iterable, Optional

from .arith import InternalCheckError, fraction_text, parse_fraction, parse_int, parse_quad

# Commands read the modules they run as attributes of the package, which loads
# each one when it is first read, so that a start loads only what it runs.  An
# import statement in a command would cost a few microseconds on every call.
_package = sys.modules[__package__]


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a token of '-' and then a digit or '.',
    such as '-3/2,1' or '-1,2,3', as a value and never as an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a token that starts with '-' as a value only if this matches it
        self._negative_number_matcher = re.compile(r"-[\d.]")


def _option_type(parse):
    """parse as the type of an option: the reason of a ValueError it raises,
    such as an EhrcollapseError, becomes the option's error text."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


@_option_type
def _parse_range(text: str) -> range:
    """'7' -> range(7, 8); '0..9' -> range(0, 10)."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo_i, hi_i = parse_int(lo), parse_int(hi)
        if hi_i < lo_i:
            raise ValueError(f"empty range {text!r}")
        return range(lo_i, hi_i + 1)
    value = parse_int(text)
    return range(value, value + 1)


@_option_type
def _positive_int(text: str) -> int:
    value = parse_int(text)
    if value < 1:
        raise ValueError(f"expected an integer >= 1 but got {text!r}")
    return value


@_option_type
def _parse_params(text: str):
    parts = [parse_int(x) for x in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"expected p,q,r,s but got {text!r}")
    return _package.polytopes.RationalTriangleParams(*parts)


_parse_quad = _option_type(parse_quad)


@_option_type
def _parse_vertex(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected x,y but got {text!r}")
    return (parse_fraction(parts[0]), parse_fraction(parts[1]))


@_option_type
def _parse_values(text: str) -> list[Fraction]:
    return [parse_fraction(x) for x in text.split(",")]


@functools.cache  # the keys of a record, or of a dict in one, are one of a few fixed tuples
def _line_template(keys: tuple, end: str = "\n") -> Optional[str]:
    """The JSON text of a dict of these keys, each value a %s slot, in the
    separators of json.dumps, and then end; None unless every key is a str."""
    if not {str}.issuperset(map(type, keys)):
        return None
    fields = (json.dumps(key).replace("%", "%%") + ": %s" for key in keys)
    return "{" + ", ".join(fields) + "}" + end


def _json_text(cell) -> str:
    """json.dumps(cell) of a cell that is not an exact int: a bool or None is its
    literal, a str is json.dumps's own escape of it, and a dict of exact ints
    under str keys is its keys' template filled."""
    kind = type(cell)
    if kind is bool:
        return "true" if cell else "false"
    if cell is None:
        return "null"
    if kind is str:
        return json.encoder.encode_basestring_ascii(cell)
    if kind is dict:
        values = tuple(cell.values())
        if {int}.issuperset(map(type, values)) and (template := _line_template(tuple(cell), "")):
            return template % values
    return json.dumps(cell)


class _Emitter:
    """Writes runs of records, each run its keys and a tuple of values per record,
    as JSON lines, one write per chunk of records, or CSV (header from the first
    record written).  A JSON chunk is its keys' line template times its length,
    filled with its cells: an exact int inline, any other by _json_text.  Without
    a stream, the file at path opens once the first chunk is built: a command
    that fails before then leaves that file as it was."""

    CHUNK_LINES = 4096  # records built before each write

    def __init__(self, stream, fmt: str, path: Optional[str] = None):
        self.stream = stream
        self.fmt = fmt
        self.path = path
        self.writer = None

    @staticmethod
    def _cells(row) -> list:
        """A dict value spreads into its values; a bool reads true/false."""
        cells = []
        for val in row:
            if isinstance(val, dict):
                cells.extend(val.values())
            elif isinstance(val, bool):
                cells.append("true" if val else "false")
            else:
                cells.append(val)
        return cells

    def emit(self, keys: Iterable[str], rows: Iterable[tuple]) -> None:
        rows = iter(rows)  # rows are taken a chunk at a time
        while chunk := list(itertools.islice(rows, self.CHUNK_LINES)):
            if self.stream is None:
                try:
                    self.stream = open(self.path, "w")
                except OSError as exc:
                    raise ValueError(f"can't open {self.path!r}: {exc.strerror or exc}") from None
            if self.fmt == "csv":
                if self.writer is None:
                    import csv  # here, so that only CSV output loads it

                    self.writer = csv.writer(self.stream)
                    self.writer.writerow([name for key, val in zip(keys, chunk[0])
                                          for name in (val if isinstance(val, dict) else (key,))])
                self.writer.writerows(map(self._cells, chunk))
                continue
            cells = tuple(itertools.chain.from_iterable(chunk))
            if not {int}.issuperset(map(type, cells)):  # an exact int (never a bool) is its repr
                cells = tuple(cell if type(cell) is int else _json_text(cell) for cell in cells)
            self.stream.write(_line_template(tuple(keys)) * len(chunk) % cells)


def _triangle_object(args, parser):
    chosen = [
        args.params is not None,
        args.alpha is not None or args.beta is not None,
        args.u is not None or args.v is not None,
    ]
    if sum(chosen) != 1:
        parser.error("give exactly one of --params, --alpha/--beta, --u/--v")
    for flag, other in (("alpha", "beta"), ("beta", "alpha"), ("u", "v"), ("v", "u")):
        if getattr(args, flag) is not None and getattr(args, other) is None:
            parser.error(f"--{flag} requires --{other}")
    if args.params is not None:
        return args.params
    if args.alpha is not None:
        return _package.polytopes.AdmissiblePair(args.alpha, args.beta)
    return _package.polytopes.TrianglePair(args.u, args.v)


def _add_triangle_flags(sub) -> None:
    sub.add_argument("--params", type=_parse_params, help="rational data p,q,r,s")
    sub.add_argument("--alpha", type=int, help="admissible leg sum")
    sub.add_argument("--beta", type=int, help="admissible reciprocal-leg sum")
    sub.add_argument("--u", type=_parse_quad, help="leg coefficient u ('n', 'n/m', or 'a,b,d')")
    sub.add_argument("--v", type=_parse_quad, help="leg coefficient v")


# -- count -------------------------------------------------------------------


def _cmd_count(args, parser, emit) -> int:
    counting, polytopes = _package.counting, _package.polytopes
    shapes = [
        args.legs is not None,
        args.interval is not None,
        args.vertices is not None,
        args.mw_image is not None,
        (args.params, args.alpha, args.beta, args.u, args.v) != (None,) * 5,
    ]
    if sum(shapes) != 1:
        parser.error("give exactly one polytope")
    if args.closed_form and (args.alpha, args.beta) == (None, None):  # no other has the form
        parser.error("--closed-form needs --alpha/--beta")
    if args.interior and not shapes[-1]:  # the last shape is the triangle
        parser.error("--interior needs --params, --alpha/--beta or --u/--v")
    if args.vertices is not None:
        if args.t is not None:
            parser.error("--vertices counts once and takes no --t")
        tri = polytopes.RationalTriangle2D(tuple(args.vertices))
        emit(("count",), [(counting.count_rational_triangle2d(tri),)])
        return 0
    if args.t is None:
        parser.error("this polytope needs --t")
    keys, columns = ["t", "count"], [args.t]
    if args.legs is not None:
        simplex = polytopes.AxisSimplex(tuple(args.legs))
        columns.append(counting.count_axis_simplex_many(simplex, args.t))
    elif args.interval is not None:
        iv = polytopes.Interval(args.interval[0], args.interval[1])
        columns.append(counting._interval_counts(iv, args.t))
    elif args.mw_image is not None:
        keys, columns = ["p", "t", "count"], [itertools.repeat(args.mw_image), args.t]
        image = polytopes.mcallister_woods_image
        columns.append(counting.count_rational_triangle2d(image(args.mw_image, t)) for t in args.t)
    else:
        obj = _triangle_object(args, parser)
        columns.append(counting.count_triangle_many(obj, args.t))
        if args.interior:
            keys.append("interior")
            columns.append(counting.count_triangle_interior(obj, t) for t in args.t)
        if args.closed_form:
            keys.append("closed_form")
            columns.append(fraction_text(counting.closed_form_admissible(obj, t)) for t in args.t)
    emit(keys, zip(*columns))  # generator columns are counted as the writer takes them
    return 0


# -- fit / period --------------------------------------------------------------


def _cmd_fit(args, parser, emit) -> int:
    obj = _triangle_object(args, parser)
    t_max = args.t_max if args.t_max is not None else (args.degree + 4) * args.period - 1
    counts = _package.counting.count_triangle_many(obj, range(t_max + 1))
    fit = _package.quasipoly.fit_quasipolynomial(counts, args.period, args.degree)
    emit(("period", "degree", "t_max", "fit"),
         [(args.period, args.degree, t_max, None if fit is None else fit.to_json_dict())])
    return 0


def _cmd_period(args, parser, emit) -> int:
    polytopes = _package.polytopes
    obj = _triangle_object(args, parser)
    qp, period = _package.quasipoly.minimal_period(obj)  # refuses legs with no two-shift identity
    if isinstance(obj, polytopes.TrianglePair):  # the record names the legs' parameters
        if obj.kind == "rational":
            obj = polytopes.RationalTriangleParams.from_fractions(obj.u.as_fraction(),
                                                                  obj.v.as_fraction())
        else:
            obj = polytopes.AdmissiblePair(*obj.translate[1:])
    if isinstance(obj, polytopes.AdmissiblePair):
        record = {"alpha": obj.alpha, "beta": obj.beta, "guaranteed_period": obj.alpha}
        reference = obj.alpha
    else:
        record = {"params": obj.to_json_dict(), "denominator": obj.denominator}
        reference = obj.denominator
    record.update({
        "minimal_period": period,
        "collapse": period < reference,
        "quasipolynomial": qp.to_json_dict(),
    })
    emit(record.keys(), [tuple(record.values())])
    return 0


# -- check -------------------------------------------------------------------


# each criterion and the flags it reads, all of them needed but beta-equation's --bound
_CRITERIA = {"collapse": "params", "pseudo-integral": "params", "reciprocal": "p q",
             "classify": "alpha beta", "beta-equation": "bound"}


def _cmd_check(args, parser, emit) -> int:
    criteria = _package.criteria
    kind, reads = args.criterion, _CRITERIA[args.criterion].split()
    if kind != "beta-equation" and any(getattr(args, flag) is None for flag in reads):
        parser.error(f"--criterion {kind} needs " + " and ".join(f"--{flag}" for flag in reads))
    unread = [f"--{flag}" for flag in dict.fromkeys(" ".join(_CRITERIA.values()).split())
              if flag not in reads and getattr(args, flag) is not None]
    if unread:
        parser.error(f"--criterion {kind} takes no {', '.join(unread)}")
    if kind in ("collapse", "pseudo-integral"):
        fn = (criteria.check_collapse_criterion if kind == "collapse"
              else criteria.check_pseudo_integral_criterion)
        record = fn(args.params).to_json_dict()
        record["params"] = args.params.to_json_dict()
    elif kind == "reciprocal":
        record = criteria.check_reciprocal_criterion(args.p, args.q).to_json_dict()
        record["params"] = _package.polytopes.reciprocal_params(args.p, args.q).to_json_dict()
    elif kind == "classify":
        record = {
            "alpha": args.alpha,
            "beta": args.beta,
            "classification": criteria.classify_admissible(args.alpha, args.beta),
        }
    else:  # beta-equation
        bound = 100 if args.bound is None else args.bound
        record = {
            "bound": bound,
            "solutions": [list(sol) for sol in criteria.solve_beta_equation(bound)],
        }
    emit(record.keys(), [tuple(record.values())])
    return 0


# -- search -------------------------------------------------------------------


_SEARCH_KEYS = ("params", "denominator", "minimal_period", "criterion_predicted", "collapse")


def _cmd_search(args, parser, emit) -> int:
    bounds = (
        args.max_p or args.bound,
        args.max_q or args.bound,
        args.max_r or args.bound,
        args.max_s or args.bound,
    )
    if any(b is None for b in bounds):
        parser.error("give --bound or all of --max-p/--max-q/--max-r/--max-s")
    max_p, max_q, max_r, max_s = bounds
    polytopes = _package.polytopes
    params_of = polytopes.RationalTriangleParams
    fields = params_of.FIELDS  # the JSON keys of the params cell, as in to_json_dict
    certify = _package.quasipoly.certified_period
    divisibility = _package.criteria._divisibility
    # The leg-swapped twin (r, s, p, q) is the same triangle reflected across the
    # diagonal, with the same counts: a certified tuple files its (period,
    # denominator) under its twin when the twin comes later in the lexicographic
    # walk and lies in the box, and only a tuple that finds nothing filed is certified.
    waiting = {}
    for pqrs in polytopes.iter_lowest_term_tuples(*bounds):
        found = waiting.pop(pqrs, None)
        if found is None:
            params = params_of(*pqrs)
            found = certify(params), params.denominator
            p, q, r, s = pqrs
            if (r, s) > (p, q) and r <= max_p and s <= max_q and p <= max_r and q <= max_s:
                waiting[r, s, p, q] = found
        period, denom = found
        if denom % period != 0:
            raise InternalCheckError(f"minimal period {period} does not divide {denom}")
        emit(_SEARCH_KEYS, [(dict(zip(fields, pqrs)), denom, period, all(divisibility(*pqrs)),
                             period < denom)])
    return 0


# -- fib / tetra ----------------------------------------------------------------


def _cmd_fib(args, parser, emit) -> int:
    if args.triangle and args.n.start < 2:
        parser.error("--triangle needs n >= 2")
    pairs = zip(args.n, _package.sequences.fib_pairs(args.k, args.n.start))  # one walk
    if args.triangle:
        params = _package.polytopes.reciprocal_params  # fib_triangle's legs F_n/F_{n-1}
        emit(("k", "n", "value", "params"),
             ((args.k, n, f, params(prev, f).to_json_dict()) for n, (prev, f) in pairs))
    else:
        emit(("k", "n", "value"), ((args.k, n, f) for n, (_, f) in pairs))
    return 0


def _cmd_tetra(args, parser, emit) -> int:
    counting, sequences = _package.counting, _package.sequences
    if args.limit == (args.n is not None):
        parser.error("give exactly one of --n, --limit")
    if args.limit:
        simplex = sequences.limit_tetrahedron()
        base = {"limit": True}
    else:
        simplex = sequences.tetra_family(args.n)
        base = {"n": args.n}
    if args.t is None:
        record = {**base, **simplex.to_json_dict()}
        emit(record.keys(), [tuple(record.values())])
        return 0

    counts = counting.count_axis_simplex_many(simplex, args.t)  # refused before any write

    def rows():
        for t, count in zip(args.t, counts):
            cubic = sequences.tetra_polynomial(t)
            yield (*base.values(), t, count, cubic, count == cubic)

    emit((*base, "t", "count", "cubic", "matches"), rows())
    return 0


# -- guess-rec -------------------------------------------------------------------


def _cmd_guess_rec(args, parser, emit) -> int:
    precursive = _package.precursive
    if args.values is not None:
        unread = (args.t_max, args.params, args.alpha, args.beta, args.u, args.v)
        if any(x is not None for x in unread):
            parser.error("--values takes no --t-max, --params, --alpha/--beta or --u/--v")
        values: list = args.values
    else:
        obj = _triangle_object(args, parser)
        if args.t_max is None:
            parser.error("counting input needs --t-max")
        values = _package.counting.count_triangle_many(obj, range(args.t_max + 1))
    rec = precursive.guess_recurrence(values, args.max_order, args.max_degree)
    emit(("n_values", "max_order", "max_degree", "recurrence"),
         [(len(values), args.max_order, args.max_degree,
           None if rec is None else rec.to_json_dict())])
    return 0


# -- verify ---------------------------------------------------------------------


def _cmd_verify(args, parser, emit) -> int:
    from . import verify

    results = verify.run_suite(args.suite)
    failed = 0
    for suite, check, counterexample in results:
        record = {"suite": suite, "check": check, "pass": counterexample is None}
        if counterexample is not None:
            failed += 1
            record["counterexample"] = counterexample
        emit(record.keys(), [tuple(record.values())])
    emit(("checks", "failed"), [(len(results), failed)])
    return 1 if failed else 0


# -- parser wiring ----------------------------------------------------------------


def _count_arguments(sub) -> None:
    _add_triangle_flags(sub)
    sub.add_argument("--legs", type=_parse_quad, nargs="+", help="axis simplex legs")
    sub.add_argument("--interval", type=_parse_quad, nargs=2, metavar=("LO", "HI"))
    sub.add_argument("--vertices", type=_parse_vertex, nargs=3, metavar="X,Y",
                     help="explicit rational triangle (counts once, no --t)")
    sub.add_argument("--mw-image", type=int, metavar="P",
                     help="unimodular image triangle for parameter P")
    sub.add_argument("--t", type=_parse_range, help="dilation t or range a..b")
    sub.add_argument("--interior", action="store_true",
                     help="also count interior points (strict inequalities)")
    sub.add_argument("--closed-form", action="store_true",
                     help="also evaluate the admissible closed form")


def _fit_arguments(sub) -> None:
    _add_triangle_flags(sub)
    sub.add_argument("--period", type=int, required=True)
    sub.add_argument("--degree", type=int, default=2)
    sub.add_argument("--t-max", type=int, help="sample t = 0..t_max")


def _check_arguments(sub) -> None:
    sub.add_argument("--criterion", required=True, choices=_CRITERIA)
    sub.add_argument("--params", type=_parse_params)
    for flag in ("--p", "--q", "--alpha", "--beta"):
        sub.add_argument(flag, type=int)
    sub.add_argument("--bound", type=_positive_int)


def _search_arguments(sub) -> None:
    sub.add_argument("--bound", type=_positive_int, help="common bound for p,q,r,s")
    for flag in ("--max-p", "--max-q", "--max-r", "--max-s"):
        sub.add_argument(flag, type=_positive_int)


def _fib_arguments(sub) -> None:
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--n", type=_parse_range, required=True)
    sub.add_argument("--triangle", action="store_true")


def _tetra_arguments(sub) -> None:
    sub.add_argument("--n", type=int)
    sub.add_argument("--limit", action="store_true")
    sub.add_argument("--t", type=_parse_range)


def _guess_rec_arguments(sub) -> None:
    _add_triangle_flags(sub)
    sub.add_argument("--values", type=_parse_values, help="comma-separated sequence values")
    sub.add_argument("--t-max", type=int)
    sub.add_argument("--max-order", type=int, required=True)
    sub.add_argument("--max-degree", type=int, required=True)


# each command: its help line, the function that adds its own arguments, its
# handler, and whether it writes CSV as well as JSON lines
_COMMANDS = {
    "count": ("exact lattice-point counts of dilates", _count_arguments, _cmd_count, True),
    "fit": ("fit a quasipolynomial at a chosen period", _fit_arguments, _cmd_fit, False),
    "period": ("minimal verified period", _add_triangle_flags, _cmd_period, False),
    "check": ("divisibility criteria and classification", _check_arguments, _cmd_check, False),
    "search": ("sweep rational tuples for collapse", _search_arguments, _cmd_search, True),
    "fib": ("k-Fibonacci values and triangles", _fib_arguments, _cmd_fib, True),
    "tetra": ("the tetrahedra family and its limit", _tetra_arguments, _cmd_tetra, True),
    "guess-rec": ("guess a polynomial-coefficient recurrence", _guess_rec_arguments,
                  _cmd_guess_rec, False),
    "verify": ("run named self-check suites",
               lambda sub: sub.add_argument("--suite", required=True, help="a suite name, or all"),
               _cmd_verify, False),
}


def _add_command(sub: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """sub, the parser of command name, with that command's arguments and handler."""
    _, add_arguments, fn, fmt = _COMMANDS[name]
    add_arguments(sub)
    sub.add_argument("--output", metavar="FILE", help="write records to FILE ('-': stdout)")
    if fmt:
        sub.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    sub.set_defaults(fn=fn)
    return sub


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """A new parser of every command, or, given a command's name, of that command
    alone: the subparser of the full parser, with the same prog and help."""
    if command is not None:
        return _add_command(_Parser(prog=f"ehrcollapse {command}"), command)
    parser = _Parser(prog="ehrcollapse",
                     description="Exact counting and period analysis for right simplices")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, *_) in _COMMANDS.items():
        _add_command(subs.add_parser(name, help=help_line), name)
    return parser


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subparsers by command, built once per process."""
    parser = build_parser()
    (commands,) = parser._subparsers._group_actions
    return parser, commands.choices


@functools.cache
def _command_parser(command: str) -> tuple[argparse.ArgumentParser, dict, dict, set]:
    """The parser of command alone, built once, and its table for _read_flat: the
    options that store one value or a constant, by option string; the namespace
    of no options, as the parser fills it; the dests it requires."""
    sub = build_parser(command)
    actions = [a for a in sub._actions if argparse.SUPPRESS not in (a.dest, a.default)]
    flat = {flag: a for a in actions for flag in a.option_strings if a.nargs in (None, 0)
            and isinstance(a, (argparse._StoreAction, argparse._StoreConstAction))}
    unset = {"command": command}  # the parser types a text default that it keeps
    unset.update((a.dest, a.type(a.default) if isinstance(a.default, str) and a.type
                  else a.default) for a in actions)
    unset.update((dest, x) for dest, x in sub._defaults.items() if dest not in unset)
    return sub, flat, unset, {a.dest for a in sub._actions if a.required}


def _read_flat(argv: list[str], flat, unset, required) -> Optional[argparse.Namespace]:
    """The namespace that the command's parser gives argv when argv is only options
    in flat, each that takes a value followed by one that does not start with '-';
    None for any other argv or one the parser refuses, which it then reports."""
    values, tokens = {}, iter(argv)
    for token in tokens:
        action = flat.get(token)
        if action is None:
            return None
        if action.nargs == 0:
            values[action.dest] = action.const
            continue
        text = next(tokens, "-")  # a missing value reads as an option would
        if text.startswith("-"):
            return None
        try:
            value = values[action.dest] = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
    return argparse.Namespace(**{**unset, **values}) if values.keys() >= required else None


def _parse(argv: list[str]) -> tuple[argparse.Namespace, argparse.ArgumentParser]:
    """The namespace that parser.parse_args(argv) gives, and the subparser of
    its command.  An argv that starts with a command goes straight to the
    parser of that command alone, which reads a flat argv by its table and
    any other by argparse; only help, a missing or unknown command and the
    tokens a command leaves build the full parser, to report them."""
    if argv and argv[0] in _COMMANDS:
        sub, *table = _command_parser(argv[0])
        args = _read_flat(argv[1:], *table)
        if args is None:
            args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
            if extra:
                _parsers()[0].error(f"unrecognized arguments: {' '.join(extra)}")
        return args, sub
    parser, subparsers = _parsers()
    args = parser.parse_args(argv)
    return args, subparsers[args.command]


def main(argv: Optional[Iterable[str]] = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # every number is written exactly, at any size
        sys.set_int_max_str_digits(0)
    args, parser = _parse(sys.argv[1:] if argv is None else list(argv))
    to_file = args.output not in (None, "-")
    fmt = getattr(args, "format", "jsonl")  # subcommands without --format write JSON lines
    emitter = _Emitter(None if to_file else sys.stdout, fmt, args.output)
    try:
        try:
            code = args.fn(args, parser, emitter.emit)
        finally:
            if to_file and emitter.stream is not None:
                emitter.stream.close()  # its last write fails here, if it fails
        sys.stdout.flush()
        return code
    except InternalCheckError as exc:  # an EhrcollapseError that no input should raise
        parser.exit(70, f"error: {exc}: an internal check failed, which is a bug\n")
    except ValueError as exc:  # EhrcollapseError and bad numbers alike
        parser.exit(2, f"error: {exc}\n")
    except MemoryError:
        parser.exit(71, "error: out of memory\n")
    except OSError as exc:  # the reader closed the pipe, or a write failed (a full disk)
        if not to_file:  # stdout's final flush at exit goes to devnull, so nothing reaches stderr
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # stop as a finished run
            return 0
        parser.exit(74, f"error: {args.output if to_file else '<stdout>'}: {exc.strerror or exc}\n")
    except KeyboardInterrupt:  # Ctrl-C: stop quietly, with the shell's code for SIGINT
        return 130


if __name__ == "__main__":
    sys.exit(main())
