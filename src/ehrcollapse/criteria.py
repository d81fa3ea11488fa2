"""Divisibility criteria predicting period collapse, and the classification
of admissible pairs.

All checks are pure integer arithmetic on the defining data and never count
lattice points themselves; reports state which conditions hold and what period
divisor they predict, leaving empirical confirmation to the callers.
"""

from __future__ import annotations

from math import gcd

from .arith import Frozen, exact_int
from .polytopes import RationalTriangleParams, is_admissible

COLLAPSE_PREDICTED = "collapse-predicted"
PSEUDO_INTEGRAL_PREDICTED = "pseudo-integral-predicted"
NO_PREDICTION = "no-prediction"


class CriterionReport(Frozen):
    FIELDS = ("criterion", "conditions", "predicted_period_divisor", "verdict")

    @property
    def holds(self) -> bool:
        return all(ok for _, ok in self.conditions)

    def to_json_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "conditions": [{"name": name, "holds": ok} for name, ok in self.conditions],
            "predicted_period_divisor": self.predicted_period_divisor,
            "verdict": self.verdict,
        }


def _report(criterion: str, conditions: tuple[tuple[str, bool], ...], divisor: int,
            verdict: str) -> CriterionReport:
    """The report of a criterion: divisor and verdict when every condition
    holds, no divisor and NO_PREDICTION otherwise."""
    holds = all(ok for _, ok in conditions)
    return CriterionReport(criterion, conditions, divisor if holds else None,
                           verdict if holds else NO_PREDICTION)


def _divisibility(p: int, q: int, r: int, s: int) -> tuple[bool, bool, bool]:
    """The conditions on u = q/p, v = s/r, all positive, that predict that q is
    a quasiperiod: s divides p, p divides r*q + 1, and gcd((r*q + 1)/p, s) = 1."""
    c2 = (r * q + 1) % p == 0
    return p % s == 0, c2, c2 and gcd((r * q + 1) // p, s) == 1


def _divisibility_triple(p: int, q: int, r: int, s: int,
                         names: str) -> tuple[tuple[str, bool], ...]:
    """_divisibility(p, q, r, s), each condition under its name; names holds the
    letters that stand for p, q, r and s in the names."""
    n_p, n_q, n_r, n_s = names
    return tuple(zip((f"{n_s} divides {n_p}", f"{n_p} divides {n_r}*{n_q} + 1",
                      f"gcd(({n_r}*{n_q} + 1)/{n_p}, {n_s}) = 1"), _divisibility(p, q, r, s)))


def check_collapse_criterion(params: RationalTriangleParams) -> CriterionReport:
    """Sufficient condition for q to be a quasiperiod of the counting function
    of the rational triangle with u = q/p, v = s/r."""
    conds = _divisibility_triple(params.p, params.q, params.r, params.s, "pqrs")
    return _report("collapse", conds, params.q, COLLAPSE_PREDICTED)


def check_pseudo_integral_criterion(params: RationalTriangleParams) -> CriterionReport:
    """Sufficient condition for minimal period 1: the collapse conditions
    together with their counterparts under swapping the two legs' roles."""
    p, q, r, s = params.p, params.q, params.r, params.s
    conds = _divisibility_triple(p, q, r, s, "pqrs") + _divisibility_triple(r, p, s, q, "rpsq")
    return _report("pseudo-integral", conds, 1, PSEUDO_INTEGRAL_PREDICTED)


def check_reciprocal_criterion(p: int, q: int) -> CriterionReport:
    """For the reciprocal-leg triangle, q is a quasiperiod if and only if
    p divides q^2 + 1 with gcd((q^2 + 1)/p, p) = 1: the collapse conditions
    on (p, q, q, p), of which the first, p divides p, always holds."""
    if exact_int(p) < 1 or exact_int(q) < 1 or gcd(p, q) != 1:
        raise ValueError("need positive coprime p, q")
    _, c1, c2 = _divisibility(p, q, q, p)
    conds = (("p divides q^2 + 1", c1), ("gcd((q^2 + 1)/p, p) = 1", c2))
    return _report("reciprocal", conds, q, COLLAPSE_PREDICTED)


PSEUDO_INTEGRAL = "pseudo-integral"
PSEUDO_RATIONAL_ONLY = "pseudo-rational-only"
NOT_ADMISSIBLE = "not-admissible"


def classify_admissible(alpha: int, beta: int) -> str:
    """Classification of (alpha, beta): admissible pairs have period 1 exactly
    when alpha = 1 or beta = 2*alpha/(alpha - 1), i.e. (alpha, beta) is
    (3, 3) or (2, 4); all other admissible pairs are pseudo-rational only."""
    if not is_admissible(exact_int(alpha), exact_int(beta)):
        return NOT_ADMISSIBLE
    if alpha == 1 or (alpha, beta) in ((3, 3), (2, 4)):
        return PSEUDO_INTEGRAL
    return PSEUDO_RATIONAL_ONLY


def solve_beta_equation(bound: int = 100) -> list[tuple[int, int]]:
    """All integer pairs with beta = 2*alpha/(alpha - 1), 2 <= alpha <= bound.

    alpha - 1 must divide 2*alpha = 2*(alpha - 1) + 2, hence alpha - 1 | 2,
    so the full solution set is [(2, 4), (3, 3)] for any bound >= 3.
    """
    # the solutions with alpha <= bound are the first bound - 1 of them
    return [(2, 4), (3, 3)][:max(exact_int(bound) - 1, 0)]
