"""Seeded command lists for the benchmark workloads.

A workload is a list of ``ehrcollapse`` command lines built from ``--seed``
alone.  The list is made of cycles; each cycle holds one command per slot, in
a fixed slot order, so that the item kinds interleave and a slow phase of the
host hits every kind alike.  Slot sizes are fixed (a number of column terms,
a range length, a period) and the seed only picks the data that fills them,
so every seed asks for nearly the same amount of work.

Nothing here imports ``ehrcollapse``: the program receives only the command
lines, and the checkers in ``checks.py`` recompute every answer on their own.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import gcd, isqrt

WORKLOADS = ("sweep", "deep", "quadratic", "recurrence")

# Nominal cycles per second of ``--seconds`` on the reference machine (see
# README.md).  The count is fixed for a given ``--seconds``: a run does not
# stop on the clock, so every run of a seed does exactly the same work.
CYCLES_PER_S = {"sweep": 0.28, "deep": 6.0, "quadratic": 6.0, "recurrence": 6.4}


def cycles_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds * CYCLES_PER_S[workload]))


def build(workload: str, seed: int, seconds: int) -> list[dict]:
    """Commands for one run: ``{"kind", "argv", "info"}`` dicts."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    make = {"sweep": _sweep_cycle, "deep": _deep_cycle,
            "quadratic": _quadratic_cycle, "recurrence": _recurrence_cycle}[workload]
    commands = []
    for _ in range(cycles_for(workload, seconds)):
        commands.extend(make(rng))
    return commands


def warmup_command(workload: str) -> dict:
    """One small command, not timed, that every set-up start and the timed
    child run first."""
    if workload == "sweep":
        return _search_command((2, 2, 2, 2))
    if workload == "deep":
        return {"kind": "quadratic",
                "argv": ["count", "--u", "1", "--v", "0,1,2", "--t", "1000"],
                "info": {"u": "1", "v": "0,1,2", "t": 1000}}
    if workload == "quadratic":
        return {"kind": "period", "argv": ["period", "--alpha", "3", "--beta", "5"],
                "info": {"alpha": 3, "beta": 5}}
    rule = {"rule": "linear", "c": [1, 1], "init": [1, 1]}
    return {"kind": "guess-values",
            "argv": ["guess-rec", "--values", "1,1,2,3,5,8,13,21,34,55,89,144",
                     "--max-order", "2", "--max-degree", "0"],
            "info": {**rule, "n": 12, "max_order": 2, "max_degree": 0}}


# -- helpers -----------------------------------------------------------------


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def is_admissible(alpha: int, beta: int) -> bool:
    m = alpha * beta
    disc = m * (m - 4)
    return disc > 0 and isqrt(disc) ** 2 != disc


def admissible_leg(alpha: int, beta: int) -> float:
    """The larger leg coefficient u of an admissible pair, approximately."""
    m = alpha * beta
    return (alpha + math.sqrt(m * (m - 4)) / beta) / 2


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _coprime_pair(rng: random.Random, lo: int, hi: int) -> tuple[int, int]:
    while True:
        a, b = rng.randrange(lo, hi), rng.randrange(lo, hi)
        if gcd(a, b) == 1:
            return a, b


def _quad_legs(rng: random.Random, lo: float, hi: float) -> tuple[str, str, float, float]:
    """A leg u = a + b*sqrt(d) and a rational leg v, both in [lo, hi]: a pair
    that is neither rational nor admissible (u + v is irrational).  Halves
    and quarters keep the integer linear forms small, so every count of a
    slot takes the int64 column sum."""
    while True:
        d = rng.choice(_SMALL_D)
        a, b = Fraction(rng.randrange(0, 9), 2), Fraction(rng.randrange(1, 9), 4)
        u = float(a) + float(b) * math.sqrt(d)
        if lo <= u <= hi:
            break
    v = Fraction(rng.randrange(math.ceil(lo * 4), math.floor(hi * 4) + 1), 4)
    return f"{_frac(a)},{_frac(b)},{d}", _frac(v), u, float(v)


_SMALL_D = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23)


# -- sweep -------------------------------------------------------------------

# search boxes (max p, max q, max r, max s); one cycle runs each box once,
# mirrored or not, in a seeded order.  Mirroring (p,q) <-> (r,s) swaps the
# two legs: the same triangles up to reflection, so the same counting and
# fitting work, but a different criterion for the checker to confirm.
SWEEP_BOXES = ((5, 5, 5, 5), (3, 8, 7, 5), (8, 4, 2, 7))


def lowest_term_tuples(box) -> list[tuple[int, int, int, int]]:
    mp, mq, mr, ms = box
    pq = [(p, q) for p in range(1, mp + 1) for q in range(1, mq + 1) if gcd(p, q) == 1]
    rs = [(r, s) for r in range(1, mr + 1) for s in range(1, ms + 1) if gcd(r, s) == 1]
    return [(p, q, r, s) for p, q in pq for r, s in rs]


def _search_command(box) -> dict:
    argv = ["search", "--max-p", str(box[0]), "--max-q", str(box[1]),
            "--max-r", str(box[2]), "--max-s", str(box[3])]
    return {"kind": "search", "argv": argv,
            "info": {"box": list(box), "records": len(lowest_term_tuples(box))}}


def _sweep_cycle(rng: random.Random) -> list[dict]:
    boxes = [b if rng.random() < 0.5 else (b[2], b[3], b[0], b[1]) for b in SWEEP_BOXES]
    rng.shuffle(boxes)
    return [_search_command(b) for b in boxes]


# -- deep --------------------------------------------------------------------

# (kind, column terms): the number of terms the column sum over the larger
# leg coefficient takes, which sets the cost of one count at large t.  Sizes
# form cost clusters (about 4, 10, 20 and 37 ms here).  The four middle slots
# hold the median and the two large ones the 90th percentile; each is one
# kind at one size, so those quantiles fall inside a cluster of like items,
# not on the step between two cost levels.
DEEP_SLOTS = (
    ("rational", 700_000), ("quadratic", 15_000), ("bigint", 100_000),
    ("rational", 700_000), ("admissible", 300_000), ("rational", 700_000),
    ("rational", 200_000), ("bigint", 100_000), ("admissible", 50_000),
    ("rational", 700_000),
)

# admissible pairs for deep: alpha 3..5, none of period 1
DEEP_PAIRS = tuple((a, b) for a in range(3, 6) for b in range(2, 7)
                   if is_admissible(a, b) and (a, b) != (3, 3))


def _deep_t(rng: random.Random, terms: int, leg: float) -> int:
    return max(1, int(terms * leg * rng.uniform(0.99, 1.01)))


def _deep_command(rng: random.Random, kind: str, terms: int) -> dict:
    if kind in ("rational", "bigint"):
        lo, hi = (5, 30) if kind == "rational" else (20_000_000, 40_000_000)
        p, q = _coprime_pair(rng, lo, hi)
        r, s = _coprime_pair(rng, lo, hi)
        t = _deep_t(rng, terms, max(q / p, s / r))
        if kind == "bigint" and r * t * p < 1 << 62:
            return _deep_command(rng, kind, terms)
        return {"kind": "rational",
                "argv": ["count", "--params", f"{p},{q},{r},{s}", "--t", str(t)],
                "info": {"params": [p, q, r, s], "t": t}}
    if kind == "admissible":
        alpha, beta = rng.choice(DEEP_PAIRS)
        t = _deep_t(rng, terms, admissible_leg(alpha, beta))
        return {"kind": "admissible",
                "argv": ["count", "--alpha", str(alpha), "--beta", str(beta), "--t", str(t)],
                "info": {"alpha": alpha, "beta": beta, "t": t}}
    u, v, uf, vf = _quad_legs(rng, 3.5, 4.5)
    t = _deep_t(rng, terms, max(uf, vf))
    return {"kind": "quadratic",
            "argv": ["count", "--u", u, "--v", v, "--t", str(t)],
            "info": {"u": u, "v": v, "t": t}}


def _deep_cycle(rng: random.Random) -> list[dict]:
    return [_deep_command(rng, kind, terms) for kind, terms in DEEP_SLOTS]


# -- quadratic ---------------------------------------------------------------

# ("period", alpha) runs `period` on an admissible pair with that alpha and a
# seeded beta (never one of period 1); alpha 0 stands for (2, 4) or (3, 3),
# the pairs of period 1 besides alpha = 1.  ("dense", n) counts t = 0..n on
# small-radicand legs; ("bigd", n) counts t = 0..n with a leg sqrt(d)/k, d a
# prime near 1e9, larger than the other leg so every t costs a QuadNumber op
# at that radicand.  Clusters as in deep: four alike middle slots hold the
# median and two alike large ones the 90th percentile.
QUADRATIC_SLOTS = (
    ("period", 14), ("dense", 400), ("period", 1), ("period", 14),
    ("bigd", 4), ("period", 14), ("period", 0), ("dense", 400),
    ("period", 4), ("period", 14),
)


def _quadratic_command(rng: random.Random, kind: str, size: int) -> dict:
    if kind == "period":
        if size == 0:
            alpha, beta = rng.choice(((2, 4), (3, 3)))
        else:
            alpha = size
            beta = rng.choice([b for b in range(1, 41) if is_admissible(alpha, b)
                               and (alpha, b) not in ((2, 4), (3, 3))])
        return {"kind": "period",
                "argv": ["period", "--alpha", str(alpha), "--beta", str(beta)],
                "info": {"alpha": alpha, "beta": beta}}
    if kind == "dense":
        u, v, _, _ = _quad_legs(rng, 1.5, 2.0)
    else:
        d = 1_000_000_000 + rng.randrange(1_000_000)
        while not is_prime(d):
            d += 1
        u = f"0,1/{rng.randrange(16_000, 21_000)},{d}"
        v = _frac(Fraction(rng.randrange(40, 53), 40))
    return {"kind": "dense",
            "argv": ["count", "--u", u, "--v", v, "--t", f"0..{size}"],
            "info": {"u": u, "v": v, "t_max": size}}


def _quadratic_cycle(rng: random.Random) -> list[dict]:
    return [_quadratic_command(rng, kind, size) for kind, size in QUADRATIC_SLOTS]


# -- recurrence --------------------------------------------------------------

# ("admissible", alpha, max order, max degree): guess-rec on the counts of an
# admissible pair; max order >= 3*alpha guarantees a recurrence.
# ("values", rule, max order, max degree): guess-rec --values on a sequence
# with a known recurrence inside the bounds.  Clusters as in deep: the four
# (3, 9, 0) slots hold the median and the two (3, 9, 1) slots the 90th
# percentile.
RECURRENCE_SLOTS = (
    ("admissible", 3, 9, 0), ("values", "linear", 3, 1),
    ("admissible", 3, 9, 1), ("admissible", 3, 9, 0),
    ("values", "harmonic", 2, 1), ("admissible", 2, 6, 1),
    ("admissible", 3, 9, 0), ("values", "factorial", 2, 2),
    ("admissible", 3, 9, 1), ("admissible", 3, 9, 0),
)

MARGIN = 12  # values beyond the least the guesser accepts for its bounds


def needed_values(max_order: int, max_degree: int) -> int:
    return 2 * (max_order + 1) * (max_degree + 1) + max_order + 1 + MARGIN


def sequence(rule: dict, n: int) -> list[Fraction]:
    """The first n values of a seeded ``--values`` sequence."""
    kind = rule["rule"]
    if kind == "linear":  # f(n+2) = c1*f(n+1) + c0*f(n)
        c0, c1 = rule["c"]
        out = [Fraction(x) for x in rule["init"]]
        while len(out) < n:
            out.append(c1 * out[-1] + c0 * out[-2])
        return out[:n]
    if kind == "harmonic":  # f(n) = sum_{k=0..n} c/(k + s)
        c, s = rule["c"], rule["s"]
        out, acc = [], Fraction(0)
        for k in range(n):
            acc += Fraction(c, k + s)
            out.append(acc)
        return out
    if kind == "factorial":  # f(n) = c * k^n * n!
        c, k = rule["c"], rule["k"]
        out, acc = [], Fraction(c)
        for i in range(n):
            if i:
                acc *= k * i
            out.append(acc)
        return out
    raise ValueError(f"unknown rule {kind!r}")


def _recurrence_command(rng: random.Random, slot) -> dict:
    kind, what, max_order, max_degree = slot
    n = needed_values(max_order, max_degree)
    bounds = ["--max-order", str(max_order), "--max-degree", str(max_degree)]
    info = {"max_order": max_order, "max_degree": max_degree, "n": n}
    if kind == "admissible":
        alpha = what
        beta = rng.choice([b for b in range(1, 13) if is_admissible(alpha, b)
                           and (alpha, b) not in ((2, 4), (3, 3))])
        info.update(alpha=alpha, beta=beta)
        argv = ["guess-rec", "--alpha", str(alpha), "--beta", str(beta),
                "--t-max", str(n - 1)] + bounds
        return {"kind": "guess-admissible", "argv": argv, "info": info}
    if what == "linear":
        rule = {"rule": "linear", "c": [rng.randrange(1, 4), rng.randrange(1, 4)],
                "init": [rng.randrange(0, 6), rng.randrange(1, 6)]}
    elif what == "harmonic":
        rule = {"rule": "harmonic", "c": rng.randrange(1, 4), "s": rng.randrange(1, 5)}
    else:
        rule = {"rule": "factorial", "c": rng.randrange(1, 4), "k": rng.randrange(1, 4)}
    info.update(rule)
    values = ",".join(_frac(x) if x.denominator != 1 else str(x.numerator)
                      for x in sequence(rule, n))
    return {"kind": "guess-values", "argv": ["guess-rec", "--values", values] + bounds,
            "info": info}


def _recurrence_cycle(rng: random.Random) -> list[dict]:
    return [_recurrence_command(rng, slot) for slot in RECURRENCE_SLOTS]
