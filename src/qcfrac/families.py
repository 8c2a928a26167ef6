"""q-Pochhammer products and the classical q-series families built on them.

Every sum here is a basic hypergeometric series: each term is the previous
one times a rational function of q, namely a scalar, a power of q, a few
sparse polynomial factors, and a few factors 1/(1 - c*q^p).  :func:`hyper_sum`
is the one builder; each family gives its term ratio as a :class:`TermRatio`,
data whose powers of q are affine in the index.  The builder reads its
coefficients as ints once, steps an int term by the integer body of
:meth:`QSeries.times_ratio` (no series is inverted or built as a factor) and
keeps an int total: one :class:`QSeries` is built per sum.

Checks at neighbouring shifts need the same sums, so inside a
:func:`shared_sums` block (one ``catalog.verify_all`` or ``run_entry`` call)
each :func:`hyper_sum` and :func:`pochhammer_infinite` is built once, under
the key its docstring names.  Outside a block nothing is kept.

Two families (G2 and C) are defined here on a q-shifted parameter slice; see
:func:`build_family` for the convention and the reason.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import count, islice
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterator, List, Optional

from .errors import FormallyDivergentProduct, PoleAtParameter, UnsupportedShift
from .rationals import ONE, format_rational, rational
from .series import QMonomial, QSeries, _ratio_step, _reduced


#: Sums kept while a :func:`shared_sums` block is open; None outside one.
_share: Optional[dict] = None


@contextmanager
def shared_sums() -> Iterator[None]:
    """Keep built sums until the outermost block ends; a nested block joins it."""
    global _share
    outer = _share is None
    _share = {} if outer else _share
    try:
        yield
    finally:
        if outer:
            _share = None


def _shared(key: tuple, build: Callable, *args) -> QSeries:
    """build(*args), kept under key while a share is open (an unhashable key raises)."""
    if _share is None:
        return build(*args)
    if key not in _share:
        _share[key] = build(*args)
    return _share[key]


def _one_minus(coef, power: int, order: int) -> QSeries:
    """The sparse factor 1 - c*q^p (a constant when p = 0)."""
    return QSeries.from_monomials([(ONE, 0), (-coef, power)], order)


# ---------------------------------------------------------------------------
# Pochhammer products


def pochhammer_finite(base: QMonomial, k: int, order: int) -> QSeries:
    """Finite q-Pochhammer (a; q)_k = (1-a)(1-aq)...(1-aq^(k-1)) for a = c*q^m.

    A scalar base (m = 0) is fine: the first factor is then the constant
    1 - c.  Factors beyond the truncation order are skipped.
    """
    if k < 0:
        raise ValueError("Pochhammer length must be nonnegative")
    c = rational(base.coef)
    stop = min(base.power + k, order + 1)
    return reduce(mul, (_one_minus(c, p, order) for p in range(base.power, stop)),
                  QSeries.one(order))


def pochhammer_infinite(base: QMonomial, order: int, step: int = 1) -> QSeries:
    """Infinite product (a; q^step)_inf = prod_{j>=0} (1 - a*q^(j*step)).

    The base must carry a positive power of q; a scalar base would move the
    constant term infinitely often, so there is no formal limit and
    FormallyDivergentProduct is raised.  step > 1 gives the even/odd-modulus
    products such as (q^2; q^2)_inf or (q; q^2)_inf.  A shared product is
    kept under (order, coefficient, power, step).
    """
    if step < 1:
        raise ValueError("step must be positive")
    if base.power == 0:
        raise FormallyDivergentProduct(
            "infinite product with a scalar base has no formal power-series limit"
        )
    c = rational(base.coef)
    factors = (_one_minus(c, p, order) for p in range(base.power, order + 1, step))
    return _shared((order, c, base.power, step), reduce, mul, factors, QSeries.one(order))


def limit_pochhammer_scaled(coef, k: int, order: int) -> QSeries:
    """The monomial c^k * q^(k(k-1)/2) = lim_{a -> 0} (-c/a; q)_k * a^k.

    Each of the k factors (a + c*q^j) loses its a in the limit; this is what
    a leading Pochhammer slot degenerates to when its parameter is sent to 0.
    """
    if k < 0:
        raise ValueError("Pochhammer length must be nonnegative")
    c = rational(coef)
    return QSeries.monomial(c**k, k * (k - 1) // 2, order)


# ---------------------------------------------------------------------------
# Parameter points


@dataclass(frozen=True)
class ParamPoint:
    """An exact rational evaluation point for the (a, b, lambda) slots."""

    a: object
    b: object
    lam: object

    def __post_init__(self):
        object.__setattr__(self, "a", rational(self.a))
        object.__setattr__(self, "b", rational(self.b))
        object.__setattr__(self, "lam", rational(self.lam))

    def as_dict(self) -> dict:
        return {
            "a": format_rational(self.a),
            "b": format_rational(self.b),
            "l": format_rational(self.lam),
        }

    def __str__(self) -> str:
        return "a=%s b=%s l=%s" % (
            format_rational(self.a),
            format_rational(self.b),
            format_rational(self.lam),
        )


#: Point used when the caller does not specify parameters.
DEFAULT_POINT = ParamPoint(rational(1), rational(1, 2), rational(1, 3))


def param_stream(seed: int) -> Iterator[ParamPoint]:
    """Endless deterministic stream of small exact parameter points.

    Numerators are uniform over [-9, 9] without 0 and denominators over
    [2, 16], which keeps every slot nonzero and coefficient growth tame.
    The same seed always yields the same points in the same order, so
    verification runs are reproducible byte for byte.
    """
    rng = random.Random(seed)

    def draw():
        n = rng.randint(-9, 8)
        if n >= 0:
            n += 1
        return rational(n, rng.randint(2, 16))

    while True:
        yield ParamPoint(draw(), draw(), draw())


def sample_params(seed: int, count: int) -> List[ParamPoint]:
    """The first ``count`` points of :func:`param_stream`."""
    return list(islice(param_stream(seed), count))


# ---------------------------------------------------------------------------
# Family sums


class Family(Enum):
    """Named series families understood by :func:`build_family` and the CLI."""

    R = "R"
    g = "g"
    g1 = "g1"
    g2 = "g2"
    G = "G"
    G1A = "G1A"
    G1B = "G1B"
    G2 = "G2"
    C = "C"
    Eisenstein = "Eisenstein"

    @classmethod
    def parse(cls, name: str) -> "Family":
        try:
            return cls[name]
        except KeyError:
            valid = ", ".join(m.name for m in cls)
            raise ValueError(f"unknown family {name!r} (expected one of: {valid})") from None


@dataclass(frozen=True)
class TermRatio:
    """t_k / t_(k-1) = scalar q^power prod(polys) / prod(1 - c q^p for (c, p) in dens).

    Each power is (alpha, beta) for alpha*k + beta, a poly is a tuple of (c,
    power) monomials, p = 0 in ``dens`` is 1/(1 - c), and ``last`` ends the sum.
    """

    scalar: object
    power: tuple
    polys: tuple = ()
    dens: tuple = ()
    last: Optional[int] = None


def _poch(x, power: tuple) -> tuple:
    """The poly 1 - x*q^power, a numerator Pochhammer's factor at step k."""
    return (ONE, (0, 0)), (-x, power)


def hyper_sum(order: int, spec: TermRatio) -> QSeries:
    """sum_{k>=0} t_k with t_0 = 1 and t_k = t_{k-1} * ratio(k), truncated at order.

    The ratio is ``spec``, its coefficients read as ints once per sum.  Each
    step is the integer body of :meth:`QSeries.times_ratio` and a gcd pass on
    the term, which joins a total of ints over the lcm of the denominators so
    far; one :class:`QSeries` is built at the end.  The sum stops after
    ``spec.last``, or at the first term that truncates to zero, since every
    later term is a multiple of it; a step with power > order is such a term,
    and is not built.  A shared sum is kept under (order, spec).
    """
    return _shared((order, spec), _sum, order, spec)


def _sum(n: int, spec: TermRatio) -> QSeries:
    scalar = rational(spec.scalar).as_integer_ratio()
    polys = []
    for poly in spec.polys:  # each over one denominator d, as (alpha, beta, c*d)
        d = lcm(*(rational(c).denominator for c, _ in poly))
        polys.append(([(a, b, int(rational(c) * d)) for c, (a, b) in poly], d))
    dens = [(*rational(c).as_integer_ratio(), a, b) for c, (a, b) in spec.dens]
    term, den = [1] + [0] * n, 1
    total, total_den = term, den
    for k in count(1) if spec.last is None else range(1, spec.last + 1):
        term, den = _ratio_step(
            term, den, n, scalar, spec.power[0] * k + spec.power[1],
            [([(a * k + b, w) for a, b, w in poly], d) for poly, d in polys],
            [(u, d, a * k + b) for u, d, a, b in dens])
        if not any(term):
            break
        term, den = _reduced(term, den)
        g = gcd(total_den, den)
        up, add = den // g, total_den // g
        total = [up * x + add * y for x, y in zip(total, term)]
        total_den *= up
    return QSeries._of(n, total, total_den)


def rr_sum(a, s: int, order: int) -> QSeries:
    """sum_k a^k q^(k^2 + s*k) / (q; q)_k.

    The Rogers-Ramanujan family: s = 0 and s = 1 give the denominator and
    numerator of the classical continued fraction, and consecutive shifts
    satisfy a three-term recurrence.
    """
    a = rational(a)
    return hyper_sum(order, TermRatio(a, (2, s - 1), dens=((ONE, (1, 0)),)))


def g_sum(b, lam, lam_power: int, order: int, b_power: int = 1) -> QSeries:
    """sum_k lam^k q^(lam_power*k + k^2) / ((q; q)_k (-b*q^b_power; q)_k).

    ``b_power`` shifts the base of the second Pochhammer (>= 1, so the
    product stays a unit series for every rational b).
    """
    if b_power < 1:
        raise ValueError("b_power must be at least 1")
    return g1_sum(b, b_power, lam, lam_power, order)


def g1_sum(b, b_power: int, lam, lam_power: int, order: int) -> QSeries:
    """sum_k lam^k q^(lam_power*k + k^2) / ((q; q)_k (-b*q^b_power; q)_k).

    With b_power = 0 the second Pochhammer opens with the scalar 1 + b, so
    b = -1 is a genuine pole of every term past k = 0 (PoleAtParameter).
    """
    b = rational(b)
    lam = rational(lam)
    if b_power == 0 and b == -1:
        raise PoleAtParameter("1 + b vanishes at b = -1")
    return hyper_sum(order, TermRatio(lam, (2, lam_power - 1),
                                      dens=((ONE, (1, 0)), (-b, (1, b_power - 1)))))


def g2_sum(b, lam, lam_power: int, order: int) -> QSeries:
    """sum_k [prod_{j<k} (b + lam*q^(lam_power+j))] q^(k(k+1)/2) / (q; q)_k.

    This is the cleared form of (-lam*q^lam_power/b; q)_k b^k, valid at b = 0
    as well, where the product degenerates to the scaled-limit monomial.
    """
    b = rational(b)
    lam = rational(lam)
    return hyper_sum(order, TermRatio(ONE, (1, 0), (((b, (0, 0)), (lam, (1, lam_power - 1))),),
                                      ((ONE, (1, 0)),)))


def big_g_sum(a, a_power: int, b, lam, lam_power: int, s: int, order: int) -> QSeries:
    """The three-parameter master family, in cleared product form:

        sum_k [prod_{j<k} (a*q^a_power + lam*q^(lam_power+j))]
              * q^(k(k+1)/2 + s*k) / ((q; q)_k (-b*q; q)_k)

    a_power may be -1, 0, or 1.  The -1 case releases q^(-k) from the product
    and folds it into the exponent, which becomes k(k-1)/2 + s*k; nonnegative
    a_power keeps the factor in the product verbatim.  Setting a = 0
    degenerates the product to lam^k q^(...) automatically, reproducing the
    a -> 0 limit without a separate code path.
    """
    if a_power not in (1, 0, -1):
        raise ValueError("a_power must be -1, 0, or 1")
    a = rational(a)
    b = rational(b)
    lam = rational(lam)
    fold = min(a_power, 0)
    return hyper_sum(order, TermRatio(
        ONE, (1, s + fold), (((a, (0, a_power - fold)), (lam, (1, lam_power - fold - 1))),),
        ((ONE, (1, 0)), (-b, (1, 0)))))


def g1ab_sum(a, b, lam, s: int, order: int, stagger: bool = False) -> QSeries:
    """sum_k [prod_{j<k}(a + lam*q^(s+j))] [prod_{j<k}(b + lam*q^(s+t+j))]
             * lam^(-k) q^k / (q; q)_k

    with t = 1 when stagger is set and t = 0 otherwise.  Each term divides by
    lam^k, so lam = 0 is a pole.  The minimal power of the k-th term is
    exactly k, which makes the sum an honest power series at any scalar
    parameters — no slice needed.
    """
    a = rational(a)
    b = rational(b)
    lam = rational(lam)
    if lam == 0:
        raise PoleAtParameter("terms divide by lam^k")
    t = 1 if stagger else 0
    return hyper_sum(order, TermRatio(
        ONE / lam, (0, 1), (((a, (0, 0)), (lam, (1, s - 1))), ((b, (0, 0)), (lam, (1, s + t - 1)))),
        ((ONE, (1, 0)),)))


def g2_big_sum(a, b, lam, s: int, order: int) -> QSeries:
    """Alternating-base companion family, on the lambda -> lam*q slice:

        sum_k (a*b*q^s/L; q)_k (-L/a)^k / ((q; q)_k (-a*q^(s+1); q)_k)

    with L = lam*q.  On this slice the factor (-L/a)^k contributes q^k, so
    every term is an honest power series; at s = 0 the single negative-power
    Pochhammer factor (1 - (ab/lam) q^(-1)) is absorbed into that q^k,
    leaving terms of minimal power k - 1.  Defined for s >= 0; needs a != 0
    and lam != 0.
    """
    if s < 0:
        raise UnsupportedShift("shift must be nonnegative")
    a = rational(a)
    b = rational(b)
    lam = rational(lam)
    if a == 0 or lam == 0:
        raise PoleAtParameter("terms divide by powers of a and lam")
    c = a * b / lam
    # each step's q from (-L/a) times (1 - c q^(s+k-2)) is q - c q^(s+k-1)
    return hyper_sum(order, TermRatio(-lam / a, (0, 0), (((ONE, (0, 1)), (-c, (1, s - 1))),),
                                      ((ONE, (1, 0)), (-a, (1, s)))))


def gfrac5_den_sum(a, b, lam, order: int) -> QSeries:
    """Mixed-index companion to :func:`g2_big_sum`, on the same lambda slice:

        sum_k (a*b*q/L; q)_k (-L/a)^k / ((q; q)_k (-a*q; q)_k),   L = lam*q.

    The numerator Pochhammer is the s = 1 one while the denominator
    Pochhammer is the s = 0 one, so this is not a member of the G2 family;
    it appears as the denominator of the first step of that family's
    continued-fraction expansion.
    """
    a = rational(a)
    b = rational(b)
    lam = rational(lam)
    if a == 0 or lam == 0:
        raise PoleAtParameter("terms divide by powers of a and lam")
    c = a * b / lam
    return hyper_sum(order, TermRatio(-lam / a, (0, 1), (_poch(c, (1, -1)),),
                                      ((ONE, (1, 0)), (-a, (1, 0)))))


def c_sum(a, b, s: int, order: int) -> QSeries:
    """Odd-modulus auxiliary family, on the (a, b) -> (a*q, b*q) slice:

        sum_k (B*q^s/A; q)_{2k} / (q^2; q)_{2k} * A^{2k}
              * prod_{i=1}^{s-1} (1 - q^(2i+1)) / (1 - q^(2k+2i+1))

    with A = a*q and B = b*q.  On the slice the Pochhammer base is (b/a)*q^s
    (the slice powers cancel) and each term carries A^{2k} = a^{2k} q^{2k}.
    Defined for s >= 1; needs a != 0.  From one term to the next the
    trailing product telescopes to (1 - q^(2k+1)) / (1 - q^(2k+2s-1)), whose
    numerator cancels the last factor of (q^2; q)_{2k}.
    """
    if s < 1:
        raise UnsupportedShift("shift must be at least 1")
    a = rational(a)
    b = rational(b)
    if a == 0:
        raise PoleAtParameter("the Pochhammer base divides by a")
    c = b / a
    return hyper_sum(order, TermRatio(a * a, (0, 2), (_poch(c, (2, s - 2)), _poch(c, (2, s - 1))),
                                      ((ONE, (2, 0)), (ONE, (2, 2 * s - 1)))))


def eisenstein_sum(a, s: int, order: int) -> QSeries:
    """Partial-theta sum: sum_k (-a)^k q^(k(k+1)/2 + s*k)."""
    a = rational(a)
    return hyper_sum(order, TermRatio(-a, (1, s)))


def build_family(family: Family, s: int, point: ParamPoint, order: int) -> QSeries:
    """Truncation of the named family at integer shift s and parameters point.

    Shifts are nonnegative throughout (C starts at s = 1); anything outside a
    family's range raises UnsupportedShift.  Two families are constructed on
    a q-shifted parameter slice, because their raw terms carry scalar k-th
    powers and would not truncate to a power series otherwise:

    * G2 is built with lambda entering as lam*q;
    * C is built with (a, b) entering as (a*q, b*q).

    The slice is part of the family's definition here, not of the caller's
    data: parameter values in reports always mean the plain point.
    """
    if s < 0:
        raise UnsupportedShift("negative shifts are not defined")
    p = point
    if family is Family.R:
        return rr_sum(p.a, s, order)
    if family is Family.g:
        return g_sum(p.b, p.lam, s, order)
    if family is Family.g1:
        return g1_sum(p.b, s, p.lam, s, order)
    if family is Family.g2:
        return g2_sum(p.b, p.lam, s, order)
    if family is Family.G:
        return big_g_sum(p.a, 0, p.b, p.lam, 0, s, order)
    if family is Family.G1A:
        return g1ab_sum(p.a, p.b, p.lam, s, order, stagger=False)
    if family is Family.G1B:
        return g1ab_sum(p.a, p.b, p.lam, s, order, stagger=True)
    if family is Family.G2:
        return g2_big_sum(p.a, p.b, p.lam, s, order)
    if family is Family.C:
        return c_sum(p.a, p.b, s, order)
    if family is Family.Eisenstein:
        return eisenstein_sum(p.a, s, order)
    raise ValueError(f"unhandled family {family!r}")


__all__ = [
    "Family",
    "ParamPoint",
    "DEFAULT_POINT",
    "big_g_sum",
    "build_family",
    "c_sum",
    "eisenstein_sum",
    "g1_sum",
    "g1ab_sum",
    "g2_big_sum",
    "g2_sum",
    "g_sum",
    "gfrac5_den_sum",
    "limit_pochhammer_scaled",
    "pochhammer_finite",
    "pochhammer_infinite",
    "rr_sum",
    "sample_params",
]
