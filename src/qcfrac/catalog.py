"""Registry of classical q-continued-fraction identities and the exact runner.

The catalog collects the Rogers-Ramanujan continued fraction and its one- and
three-parameter relatives, Eisenstein's partial-theta fraction, the Entry 11
fraction with its odd/even theta-quotient split, the series transformations
used to derive them, a handful of infinite-product identities, and the
three-term contiguous recurrences that drive the constructions.

Every entry is declarative: recipes that build exact :class:`QSeries` objects
at a requested truncation order from an exact rational parameter point.  A
continued fraction's recipe gives its n-th element as two lists of
(coef, power) terms, which :meth:`CFrac.from_terms` turns into series.  By
Euler's division, a recurrence F(s) = c1 F(s+1) + c2 F(s+2) is the fraction
F(s)/F(s+1) = c1 + c2/(F(s+1)/F(s+2)), so each recurrence entry reads
c1 = b_{s+1} and c2 = a_{s+2} from the fraction it generates; REC_GG2, whose
family lives on a parameter slice, is the one written out by hand.
Verification is zero tolerance.  Coefficients are compared as exact
rationals.  A continued-fraction entry is checked by its error walk
(``cfrac.contacts``) against the floor F(n) = val(a_1) + ... + val(a_{n+1})
that a true identity must reach at depth n: its contact at the requested
depth must reach F(depth) (or pass the order), and its approximant at d*,
the first depth whose floor passes the order (capped at order + 1), must
agree with the target through the whole order.  All other kinds must match
coefficient for coefficient after cross-multiplying, so no division happens
against a non-unit series.

A few entries are verified on a q-shifted parameter slice (noted per entry).
The slice turns scalar-coefficient partial numerators into q-graded ones, so
the identity becomes a statement about honest power series at finite order;
the displayed scalar form follows by substituting back.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cfrac import (CFrac, approximant, contacts, equivalence_unit_denominators,
                    modified_approximant)
from .errors import UnknownIdentity
from .euler import verify_three_term
from .families import (
    DEFAULT_POINT,
    ParamPoint,
    big_g_sum,
    c_sum,
    eisenstein_sum,
    g1_sum,
    g1ab_sum,
    g2_big_sum,
    g2_sum,
    g_sum,
    gfrac5_den_sum,
    hyper_sum,
    limit_pochhammer_scaled,
    param_stream,
    pochhammer_finite,
    pochhammer_infinite,
    rr_sum,
    sample_params,
    shared_sums,
)
from .rationals import ONE, ZERO, format_rational, parse_rational, rational
from .series import QMonomial, QSeries, geometric_inverse

CF_SERIES = "cf_equals_series_ratio"
CF_PRODUCT = "cf_equals_product_ratio"
TRANSFORMATION = "series_transformation"
PRODUCT = "product_identity"
RECURRENCE = "recurrence"

#: Continued-fraction kinds share the approximant-vs-ratio check.
CF_KINDS = (CF_SERIES, CF_PRODUCT)

#: Truncation order and approximant depth when a caller gives none.
DEFAULT_ORDER = 40
DEFAULT_DEPTH = 8

CFFn = Callable[[ParamPoint, int], CFrac]
PairFn = Callable[[ParamPoint, int], Sequence[Tuple[str, QSeries, QSeries]]]
RecurrenceFn = Callable[[ParamPoint, int, int], Tuple[QSeries, ...]]


@dataclass(frozen=True)
class IdentityEntry:
    """One verifiable identity: construction recipes plus metadata.

    ``make_cf``/``targets`` are set for continued-fraction kinds, ``pairs``
    holds cross-multiplied exact equalities (usable by every kind), and
    ``recurrence`` is a three-term check run at every shift in ``shifts``.
    ``constraints`` are (predicate, reason) pairs a sample point must
    satisfy; a violating point is reported as skipped, never silently dropped.
    """

    id: str
    kind: str
    source: str
    display: str = ""
    param_note: str = ""
    constraints: Tuple[Tuple[Callable[[ParamPoint], bool], str], ...] = ()
    make_cf: Optional[CFFn] = None
    targets: Optional[Callable[[ParamPoint, int], Tuple[QSeries, QSeries]]] = None
    pairs: Optional[PairFn] = None
    recurrence: Optional[RecurrenceFn] = None
    shifts: Tuple[int, int] = (0, 6)
    convergence: str = ""

    def constraint_failure(self, point: ParamPoint) -> Optional[str]:
        """Reason the point is unusable, or None when all predicates hold."""
        for pred, reason in self.constraints:
            if not pred(point):
                return reason
        return None


@dataclass
class IdentityReport:
    """Outcome of checking one entry at one parameter point."""

    id: str
    params: Optional[ParamPoint]
    order: int
    depth: int
    status: str                       # "pass" | "fail" | "skipped"
    first_mismatch_power: Optional[int] = None
    reason: str = ""
    escalated: bool = False
    elapsed: float = field(default=0.0, compare=False)
    mismatch_rows: tuple = field(default=(), compare=False)


def _cmp(lhs: QSeries, rhs: QSeries) -> Tuple[Optional[int], tuple]:
    """First mismatching power plus a short coefficient table around it."""
    fm = lhs.first_mismatch(rhs)
    if fm is None:
        return None, ()
    horizon = min(lhs.order, rhs.order)
    rows = tuple(
        (pw, format_rational(lhs[pw]), format_rational(rhs[pw]))
        for pw in range(fm, min(fm + 4, horizon) + 1)
    )
    return fm, rows


# ---------------------------------------------------------------------------
# Series builders shared by several entries
#
# Each sum below is a term-ratio specification for families.hyper_sum:
# ratio(k) = (scalar, power of q, polynomial factors, (c, p) factors that
# stand for 1/(1 - c q^p)), which carries term k-1 to term k.  A Pochhammer
# (x; q)_k contributes the factor 1 - x q^(k-1) at step k.


def _one_plus(coef, power: int, order: int) -> QSeries:
    return QSeries.from_monomials([(ONE, 0), (coef, power)], order)


def _qbin_term(a, b, k: int, order: int) -> QSeries:
    """u_k = prod_{i<k}(a + b q^i) / (q; q)_k, as one term-ratio step from 1."""
    return QSeries.one(order).times_ratio(ONE, 0, [[(a, 0), (b, i)] for i in range(k)],
                                          [(ONE, j) for j in range(1, k + 1)])


def _qbin_partial(a, b, upto: int, order: int) -> QSeries:
    """u_0 + ... + u_upto.  The terms carry no power of q, so the ratio's
    scalar is 0 past upto, which ends the sum."""
    return hyper_sum(order, lambda k: (ONE if k <= upto else ZERO, 0,
                                       [[(a, 0), (b, k - 1)]], [(ONE, k)]))


def _qbin_shifted_sum(a, b, order: int) -> QSeries:
    """sum_k prod_{i<k}(a + b q^i) q^k / (q;q)_k -- the (a,b) -> (aq,bq) slice."""
    return hyper_sum(order, lambda k: (ONE, 1, [[(a, 0), (b, k - 1)]], [(ONE, k)]))


def _entry8_lhs_sum(a, b, c, d, order: int) -> QSeries:
    """sum_k (b/a;q)_k (cq;q)_k / ((dq;q)_k (q;q)_k) * (aq)^k."""
    r = b / a
    return hyper_sum(order, lambda k: (a, 1, [[(ONE, 0), (-r, k - 1)], [(ONE, 0), (-c, k)]],
                                       [(d, k), (ONE, k)]))


def _entry8_rhs_sum(a, b, c, d, order: int) -> QSeries:
    """sum_k (b/a;q)_k (d/c;q)_k / ((bq;q)_k (dq;q)_k (q;q)_k)
    * (ac)^k q^(2k) (-1)^k q^(k(k-1)/2)."""
    r = b / a
    s = d / c
    return hyper_sum(order, lambda k: (
        -a * c, k + 1, [[(ONE, 0), (-r, k - 1)], [(ONE, 0), (-s, k - 1)]],
        [(b, k), (d, k), (ONE, k)]))


def _entry6_rhs_sum(a, b, c, d, order: int) -> QSeries:
    """sum_k (aq;q)_k (d/c;q)_k / ((bq;q)_k (q;q)_k) * (cq)^k."""
    s = d / c
    return hyper_sum(order, lambda k: (c, 1, [[(ONE, 0), (-a, k)], [(ONE, 0), (-s, k - 1)]],
                                       [(b, k), (ONE, k)]))


def _d0_lhs_sum(a, b, lam, c_coef, c_power: int, order: int) -> QSeries:
    """sum_k prod_{j<k}(a + lam q^j) (b C / lam)^k q^(k(k+1)/2)
    / ((-bq;q)_k (q;q)_k), with C = c_coef * q^c_power."""
    x = b * c_coef / lam
    return hyper_sum(order, lambda k: (x, c_power + k, [[(a, 0), (lam, k - 1)]],
                                       [(-b, k), (ONE, k)]))


def _d0_rhs_sum(a, b, lam, c_coef, c_power: int, order: int) -> QSeries:
    """sum_k (-lam/a;q)_k (-C;q)_k (ab/lam)^k q^k / (q;q)_k."""
    r = lam / a
    x = a * b / lam
    return hyper_sum(order, lambda k: (
        x, 1, [[(ONE, 0), (r, k - 1)], [(ONE, 0), (c_coef, c_power + k - 1)]], [(ONE, k)]))


def _parity_sums(a, b, order: int) -> Tuple[QSeries, QSeries]:
    """Odd- and even-index parts of sum_m (b/a;q)_m (aq)^m / (q;q)_m
    (the (a, b) -> (aq, bq) slice of the Entry 11 split).  The even part
    steps two indices at a time; the odd part is the rest of the full sum."""
    r = b / a
    full = hyper_sum(order, lambda m: (a, 1, [[(ONE, 0), (-r, m - 1)]], [(ONE, m)]))
    even = hyper_sum(order, lambda k: (
        a * a, 2, [[(ONE, 0), (-r, 2 * k - 2)], [(ONE, 0), (-r, 2 * k - 1)]],
        [(ONE, 2 * k - 1), (ONE, 2 * k)]))
    return full - even, even


def _theta_products(p: ParamPoint, order: int) -> Tuple[QSeries, QSeries]:
    """(-aq)inf (bq)inf -/+ (aq)inf (-bq)inf, on the shifted slice; the
    targets P-, P+ of the Entry 11 fraction."""
    a, b = p.a, p.b
    pa = pochhammer_infinite(QMonomial(a, 1), order)
    pma = pochhammer_infinite(QMonomial(-a, 1), order)
    pb = pochhammer_infinite(QMonomial(b, 1), order)
    pmb = pochhammer_infinite(QMonomial(-b, 1), order)
    return pma * pb - pa * pmb, pma * pb + pa * pmb


# ---------------------------------------------------------------------------
# Continued-fraction element recipes
#
# Each recipe maps (point, n) to the n-th element (a_terms, b_terms) as lists
# of (coef, power) terms; _cf turns one into an entry's make_cf.

_UNIT = [(ONE, 0)]


def _cf(elements: Callable[[ParamPoint, int], tuple], b0=0):
    """make_cf for a term recipe, with the scalar leading term b0."""
    return lambda p, order: CFrac.from_terms(b0, order, lambda n: elements(p, n))


def _rr_cf(p: ParamPoint, n: int):
    if n == 1:
        return _UNIT, _UNIT
    return [(p.a, n - 1)], _UNIT


def _rr_targets(p: ParamPoint, order: int):
    return rr_sum(p.a, 1, order), rr_sum(p.a, 0, order)


def _rr_special(p: ParamPoint, n: int):
    return [(ONE, n)], _UNIT


def _rrs_targets(p: ParamPoint, order: int):
    return rr_sum(1, 0, order), rr_sum(1, 1, order)


def _g1_terms(p: ParamPoint, j: int):
    """The element l q^j / (1 + b q^j): G_CFRAC_g2's n-th for n = j + 1 >= 2,
    and for every n = j + 1 >= 1 that of the fraction behind REC_G1."""
    return [(p.lam, j)], [(ONE, 0), (p.b, j)]


def _g2cf(p: ParamPoint, n: int):
    if n == 1:
        return _UNIT, _UNIT
    return _g1_terms(p, n - 1)


def _g_targets(p: ParamPoint, order: int):
    return g_sum(p.b, p.lam, 1, order), g_sum(p.b, p.lam, 0, order)


def _g1cf(p: ParamPoint, n: int):
    if n == 1:
        return _UNIT, _UNIT
    j = n - 1
    if j % 2 == 1:
        return [(p.lam, j)], _UNIT
    return [(p.lam, j), (p.b, j // 2)], _UNIT


def _g3cf(p: ParamPoint, n: int, b_power: int = 2):
    # b -> b q^b_power slice of the displayed fraction 1/(1-b) + (b+lam q)/(1-b) + ...;
    # the check uses b_power = 2, the modified approximants the display itself.
    den = [(ONE, 0), (-p.b, b_power)]
    if n == 1:
        return _UNIT, den
    return [(p.b, b_power), (p.lam, n - 1)], den


#: make_cf of the displayed fraction 1/(1-b) + (b+lq)/(1-b) + ... itself.
_g3_displayed = _cf(lambda p, n: _g3cf(p, n, b_power=0))


def _g3_targets(p: ParamPoint, order: int):
    return (g_sum(p.b, p.lam, 1, order, b_power=3),
            g_sum(p.b, p.lam, 0, order, b_power=3))


def _heine(p: ParamPoint, n: int):
    if n == 1:
        return _UNIT, _UNIT
    j = n - 1
    bn = [(ONE, 0), (p.b, j)]
    if j % 2 == 1:
        return [(p.a, (j + 1) // 2), (p.lam, j)], bn
    return [(p.lam, j), (-p.a * p.b, 3 * j // 2)], bn


def _big_g_targets(p: ParamPoint, order: int):
    return (big_g_sum(p.a, 0, p.b, p.lam, 0, 1, order),
            big_g_sum(p.a, 0, p.b, p.lam, 0, 0, order))


def _rg1(p: ParamPoint, n: int):
    if n == 1:
        return _UNIT, _UNIT
    j = n - 1
    if j % 2 == 1:
        return [(p.a, (j + 1) // 2), (p.lam, j)], _UNIT
    return [(p.b, j // 2), (p.lam, j)], _UNIT


def _rg2(p: ParamPoint, n: int):
    if n == 1:
        return _UNIT, [(ONE, 0), (p.a, 1)]
    j = n - 1
    return [(p.lam, j), (-p.a * p.b, 2 * j)], [(ONE, 0), (p.a, j + 1), (p.b, j)]


def _hirschhorn(p: ParamPoint, n: int):
    # a -> a q slice: partial numerators a q^2 + lam q^j stay q-graded while
    # the displayed form's a q + lam q^j would pin every valuation at 1.
    if n == 1:
        return _UNIT, _UNIT
    j = n - 1
    return [(p.a, 2), (p.lam, j)], [(ONE, 0), (-p.a, 2), (p.b, j)]


def _hirschhorn_targets(p: ParamPoint, order: int):
    return (big_g_sum(p.a, 1, p.b, p.lam, 0, 1, order),
            big_g_sum(p.a, 1, p.b, p.lam, 0, 0, order))


def _heine_a(p: ParamPoint, n: int):
    if n == 1:
        return _UNIT, [(ONE, 0), (p.a, 1)]
    j = n - 1
    bn = [(ONE, 0), (p.a, j + 1)]
    if j % 2 == 1:
        return [(p.lam, j), (-p.a * p.b, (3 * j + 1) // 2)], bn
    return [(p.lam, j), (p.b, j // 2)], bn


def _eisenstein(p: ParamPoint, n: int):
    if n == 1:
        return _UNIT, _UNIT
    j = n - 1
    if j % 2 == 1:
        return [(p.a, j)], _UNIT
    return [(p.a, j), (-p.a, j // 2)], _UNIT


def _eisenstein_targets(p: ParamPoint, order: int):
    return eisenstein_sum(p.a, 0, order), QSeries.one(order)


def _prod_ratio(p: ParamPoint, n: int):
    if n == 1:
        return _UNIT, _UNIT
    j = n - 1
    if j % 2 == 1:
        return [(ONE, j)], _UNIT
    return [(ONE, j), (ONE, j // 2)], _UNIT


def _prod_ratio_targets(p: ParamPoint, order: int):
    num = pochhammer_infinite(QMonomial(1, 1), order, step=2)
    den = pochhammer_infinite(QMonomial(1, 2), order, step=4)
    return num, den * den


def _entry11(p: ParamPoint, n: int):
    # (a, b) -> (aq, bq) slice of Ramanujan's fraction with partial
    # denominators 1 - q^(2n-1); for n >= 2 the partial numerator
    # q^(n-2) (aq - bq^n)(aq^n - bq) is written out term by term.
    a, b = p.a, p.b
    if n == 1:
        an = [(a, 1), (-b, 1)]
    else:
        an = [(-a * b, n), (a * a + b * b, 2 * n - 1), (-a * b, 3 * n - 2)]
    return an, [(ONE, 0), (-ONE, 2 * n - 1)]


# ---------------------------------------------------------------------------
# Cross-multiplied pair recipes


def _qbin_pairs(p: ParamPoint, order: int):
    a, b = p.a, p.b
    upto = order + 1
    partial = _qbin_partial(a, b, upto, order)
    u_last = _qbin_term(a, b, upto, order)
    prod = (pochhammer_infinite(QMonomial(-b, 1), order)
            * pochhammer_infinite(QMonomial(a, 1), order).inverse())
    lhs_fe = partial.scale(1 - a) + u_last * QSeries.from_monomials([(a, 0), (b, upto)], order)
    rhs_fe = prod.scale(1 + b)
    shifted = _qbin_shifted_sum(a, b, order)
    lhs_sl = shifted * pochhammer_infinite(QMonomial(a, 1), order)
    rhs_sl = pochhammer_infinite(QMonomial(-b, 1), order)
    return [
        ("first-order q-difference form in a", lhs_fe, rhs_fe),
        ("(a,b) -> (aq,bq) slice, cross-multiplied", lhs_sl, rhs_sl),
    ]


def _entry8_pairs(p: ParamPoint, order: int):
    a, b, c, d = p.a, p.b, p.lam, p.a * p.b
    lhs = pochhammer_infinite(QMonomial(a, 1), order) * _entry8_lhs_sum(a, b, c, d, order)
    rhs = pochhammer_infinite(QMonomial(b, 1), order) * _entry8_rhs_sum(a, b, c, d, order)
    return [("all-parameter slice, cross-multiplied", lhs, rhs)]


def _entry6_pairs(p: ParamPoint, order: int):
    a, b, c, d = p.a, p.b, p.lam, p.a * p.b
    common = _entry8_lhs_sum(a, b, c, d, order)
    lhs = (pochhammer_infinite(QMonomial(a, 1), order)
           * pochhammer_infinite(QMonomial(d, 1), order) * common)
    rhs = (pochhammer_infinite(QMonomial(c, 1), order)
           * pochhammer_infinite(QMonomial(b, 1), order)
           * _entry6_rhs_sum(a, b, c, d, order))
    return [("all-parameter slice, cross-multiplied", lhs, rhs)]


def _entry8_d0_pairs(p: ParamPoint, order: int):
    a, b, lam = p.a, p.b, p.lam
    c_coef = a * b
    lhs = (_d0_lhs_sum(a, b, lam, c_coef, 0, order)
           * pochhammer_infinite(QMonomial(-b, 1), order))
    rhs = (pochhammer_infinite(QMonomial(a * b / lam, 1), order)
           * _d0_rhs_sum(a, b, lam, c_coef, 0, order))
    return [("C = a*b, cross-multiplied", lhs, rhs)]


def _gfrac_sums2_pairs(p: ParamPoint, order: int):
    a, b, lam = p.a, p.b, p.lam
    lhs = big_g_sum(a, 0, b, lam, 0, 1, order) * g1ab_sum(a, b, lam, 0, order, stagger=False)
    rhs = big_g_sum(a, 0, b, lam, 0, 0, order) * g1ab_sum(a, b, lam, 0, order, stagger=True)
    out = [("G(1) G1A(0) = G(0) G1B(0)", lhs, rhs)]
    ratio = lam / b
    out.append(("Entry 8 (d=0) at C = l q / b gives G(1)",
                _d0_lhs_sum(a, b, lam, ratio, 1, order),
                big_g_sum(a, 0, b, lam, 0, 1, order)))
    out.append(("Entry 8 (d=0) at C = l / b gives G(0)",
                _d0_lhs_sum(a, b, lam, ratio, 0, order),
                big_g_sum(a, 0, b, lam, 0, 0, order)))
    out.append(("right side at C = l q / b gives G1B(0)",
                _d0_rhs_sum(a, b, lam, ratio, 1, order),
                g1ab_sum(a, b, lam, 0, order, stagger=True)))
    out.append(("right side at C = l / b gives G1A(0)",
                _d0_rhs_sum(a, b, lam, ratio, 0, order),
                g1ab_sum(a, b, lam, 0, order, stagger=False)))
    return out


def _gfrac5_sums_pairs(p: ParamPoint, order: int):
    a, b, lam = p.a, p.b, p.lam
    lhs = (big_g_sum(a, 0, b, lam, 1, 1, order)
           * _one_plus(a, 1, order)
           * gfrac5_den_sum(a, b, lam, order))
    rhs = big_g_sum(a, 0, b, lam, 1, 0, order) * g2_big_sum(a, b, lam, 1, order)
    return [("lambda slice, cross-multiplied", lhs, rhs)]


def _gfrac_sums2_small_pairs(p: ParamPoint, order: int):
    b, lam = p.b, p.lam
    lhs = g_sum(b, lam, 1, order) * g2_sum(b, lam, 0, order)
    rhs = g_sum(b, lam, 0, order) * g2_sum(b, lam, 1, order)
    return [("g(1) g2(0) = g(0) g2(1)", lhs, rhs)]


def _entry11_sumratio_pairs(p: ParamPoint, order: int):
    a, b = p.a, p.b
    odd_s, even_s = _parity_sums(a, b, order)
    pminus, pplus = _theta_products(p, order)
    return [("odd part times P+ = even part times P-", odd_s * pplus, even_s * pminus)]


def _poch_pairs(p: ParamPoint, order: int):
    one = QSeries.one(order)
    out = [
        ("(q)inf (-q)inf = (q^2;q^2)inf",
         pochhammer_infinite(QMonomial(ONE, 1), order)
         * pochhammer_infinite(QMonomial(-ONE, 1), order),
         pochhammer_infinite(QMonomial(ONE, 2), order, step=2)),
        ("(-q^2;q^2)inf (q^2;q^4)inf = 1",
         pochhammer_infinite(QMonomial(-ONE, 2), order, step=2)
         * pochhammer_infinite(QMonomial(ONE, 2), order, step=4),
         one),
        ("(-q;q^2)inf (q;q^2)inf = (q^2;q^4)inf",
         pochhammer_infinite(QMonomial(-ONE, 1), order, step=2)
         * pochhammer_infinite(QMonomial(ONE, 1), order, step=2),
         pochhammer_infinite(QMonomial(ONE, 2), order, step=4)),
    ]
    lam = rational(1, 3)
    for k in range(0, 9):
        prod = QSeries.one(order)
        for j in range(k):
            prod = prod * QSeries.monomial(lam, j, order)
        out.append((f"vanishing-base limit, k = {k}",
                    prod, limit_pochhammer_scaled(lam, k, order)))
    return out


def _eisenstein_pairs(p: ParamPoint, order: int):
    a = p.a
    lhs = eisenstein_sum(a, 0, order) * g_sum(-a, a, 0, order)
    rhs = g_sum(-a, a, 1, order)
    return [("partial theta sum times g(0) = g(1)", lhs, rhs)]


def _g3_pairs(p: ParamPoint, order: int):
    # Modified approximants of the displayed fraction with the exact tail
    # value w_n = a_{n+1} g2(n+1)/g2(n), a_{n+1} = b + lam q^n, are constant in n.
    cf = _g3_displayed(p, order)
    target = g2_sum(p.b, p.lam, 1, order) * g2_sum(p.b, p.lam, 0, order).inverse()
    out = []
    for n in range(1, 7):
        wn = (g2_sum(p.b, p.lam, n + 1, order)
              * g2_sum(p.b, p.lam, n, order).inverse()
              * cf.element(n + 1)[0])
        out.append((f"modified approximant, n = {n}",
                    modified_approximant(cf, n, wn), target))
    return out


def _rg2_pairs(p: ParamPoint, order: int):
    a, b, lam = p.a, p.b, p.lam
    lhs = big_g_sum(a, 0, b, lam, 1, 1, order) * (
        _one_plus(a, 1, order) * _one_plus(a, 2, order) * g2_big_sum(a, b, lam, 1, order)
        + QSeries.from_monomials([(lam, 2), (-a * b, 2)], order)
        * g2_big_sum(a, b, lam, 2, order))
    rhs = (big_g_sum(a, 0, b, lam, 1, 0, order)
           * _one_plus(a, 2, order) * g2_big_sum(a, b, lam, 1, order))
    return [("first-step bridge on the lambda slice", lhs, rhs)]


def _prod_ratio_pairs(p: ParamPoint, order: int):
    den = pochhammer_infinite(QMonomial(1, 2), order, step=4)
    lhs = g_sum(rational(1), rational(1), 1, order) * den * den
    rhs = (g_sum(rational(1), rational(1), 0, order)
           * pochhammer_infinite(QMonomial(1, 1), order, step=2))
    return [("g-series form of the product ratio", lhs, rhs)]


def _entry11_pairs(p: ParamPoint, order: int):
    a, b = p.a, p.b
    odd_s, even_s = _parity_sums(a, b, order)
    c1 = c_sum(a, b, 1, order)
    c2 = c_sum(a, b, 2, order)
    # the fraction's first two elements carry C(1), C(2) back to the split
    cf = CFrac.from_terms(0, order, lambda n: _entry11(p, n))
    (a1, b1), (a2, b2) = cf.element(1), cf.element(2)
    lhs = odd_s * (b1 * b2 * c1 + a2 * c2)
    rhs = even_s * a1 * b2 * c1
    return [("first-step bridge through C(1), C(2)", lhs, rhs)]


# ---------------------------------------------------------------------------
# Recurrence recipes: each returns (s0, s1, s2, c1, c2) with s0 = c1 s1 + c2 s2.
# Euler's division gives F(s)/F(s+1) = c1 + c2/(F(s+1)/F(s+2)), so _rec_of reads
# c1 = b_{s+1} and c2 = a_{s+2} from the family's fraction; REC_GG2 is the exception.


def _rec_of(family: Callable[[ParamPoint, int, int], QSeries], make_cf: CFFn) -> RecurrenceFn:
    """The three-term relation of ``family(p, s, order)`` whose c1 and c2 are
    the elements b_{s+1} and a_{s+2} of ``make_cf(p, order)``."""
    def rec(p: ParamPoint, s: int, order: int):
        cf = make_cf(p, order)
        return (family(p, s, order), family(p, s + 1, order), family(p, s + 2, order),
                cf.element(s + 1)[1], cf.element(s + 2)[0])
    return rec


def _registered_cf(entry_id: str) -> CFFn:
    """make_cf of the entry registered under entry_id when it is called, so a
    registry replacement reaches the recurrences built on it."""
    return lambda p, order: lookup(entry_id).make_cf(p, order)


def _unit_cf(make_cf: CFFn) -> CFFn:
    """make_cf of the unit-denominator form of make_cf's fraction."""
    return lambda p, order: equivalence_unit_denominators(make_cf(p, order))


def _g1ab_interlaced(p: ParamPoint, t: int, order: int) -> QSeries:
    """H(2s) = G1A(s), H(2s+1) = G1B(s): RAMANUJAN_G1's family."""
    return g1ab_sum(p.a, p.b, p.lam, t // 2, order, stagger=t % 2 == 1)


def _rec_gg2(p: ParamPoint, s: int, order: int):
    # G2 sits on the lambda -> lambda q slice, so its c2 is not an element of RAMANUJAN_G2.
    a, b, lam = p.a, p.b, p.lam
    head = _one_plus(a, s + 1, order)
    return (head * g2_big_sum(a, b, lam, s, order),
            g2_big_sum(a, b, lam, s + 1, order),
            g2_big_sum(a, b, lam, s + 2, order),
            QSeries.from_monomials([(ONE, 0), (a, s + 1), (b, s)], order),
            QSeries.from_monomials([(lam, s + 2), (-a * b, 2 * s + 2)], order)
            * geometric_inverse(-a, s + 2, order))


# ---------------------------------------------------------------------------
# Constraint predicates


def _nz(attr):
    return lambda p: getattr(p, attr) != 0


_A_NZ = (_nz("a"), "a = 0 collapses the partial numerators")
_L_NZ = (_nz("lam"), "l = 0 collapses the partial numerators")
_APL_NZ = (lambda p: p.a + p.lam != 0, "a + l = 0 kills the k = 1 product factor")
_B_L_NZ = (lambda p: not (p.b == 0 and p.lam == 0),
           "b = l = 0 degenerates the fraction to a constant")


# ---------------------------------------------------------------------------
# The registry


_REGISTRY: "Dict[str, IdentityEntry]" = {}


def _add(entry: IdentityEntry) -> None:
    if entry.id in _REGISTRY:
        raise ValueError(f"duplicate identity id {entry.id!r}")
    _REGISTRY[entry.id] = entry


_add(IdentityEntry(
    id="RR_CF",
    kind=CF_SERIES,
    source="Ramanujan's notebooks, ch. 16, Entry 15 (corollary with free a)",
    display="1/1 + aq/1 + aq^2/1 + aq^3/1 + ... = R(1)/R(0), "
            "R(s) = sum_k a^k q^(k^2+sk) / (q;q)_k",
    constraints=(_A_NZ,),
    make_cf=_cf(_rr_cf),
    targets=_rr_targets,
))

_add(IdentityEntry(
    id="RR_SPECIAL",
    kind=CF_SERIES,
    source="Rogers (1894); Ramanujan-Hardy correspondence",
    display="1 + q/1 + q^2/1 + q^3/1 + ... = R(0)/R(1) at a = 1",
    param_note="parameters are ignored; the fraction is parameter-free",
    make_cf=_cf(_rr_special, b0=1),
    targets=_rrs_targets,
))

_add(IdentityEntry(
    id="G_CFRAC_g2",
    kind=CF_SERIES,
    source="Ramanujan's lost notebook (one-parameter extension of Entry 15)",
    display="1/1 + lq/(1+bq) + lq^2/(1+bq^2) + ... = g(1)/g(0), "
            "g(s) = sum_k l^k q^(k^2+sk) / ((q;q)_k (-bq;q)_k)",
    constraints=(_L_NZ,),
    make_cf=_cf(_g2cf),
    targets=_g_targets,
))

_add(IdentityEntry(
    id="G_CFRAC_g1",
    kind=CF_SERIES,
    source="lost notebook companion with unit partial denominators",
    display="1/1 + lq/1 + (lq^2+bq)/1 + lq^3/1 + (lq^4+bq^2)/1 + ... = g(1)/g(0)",
    constraints=(_L_NZ,),
    make_cf=_cf(_g1cf),
    targets=_g_targets,
))

_add(IdentityEntry(
    id="G_CFRAC_g3",
    kind=CF_SERIES,
    source="third fraction for the same ratio, after Ramanujan",
    display="1/(1-b) + (b+lq)/(1-b) + (b+lq^2)/(1-b) + ... = g2(1)/g2(0); "
            "checked on the b -> bq^2 slice",
    constraints=((lambda p: p.b != 1, "b = 1 makes every partial denominator vanish"),
                 _B_L_NZ),
    make_cf=_cf(_g3cf),
    targets=_g3_targets,
    pairs=_g3_pairs,
))

_add(IdentityEntry(
    id="HEINE_CF",
    kind=CF_SERIES,
    source="special case of Heine's continued fraction",
    display="1/1 + (aq+lq)/(1+bq) + (lq^2-abq^3)/(1+bq^2) + "
            "(aq^2+lq^3)/(1+bq^3) + ... = G(1)/G(0)",
    constraints=(_APL_NZ, _L_NZ),
    make_cf=_cf(_heine),
    targets=_big_g_targets,
))

_add(IdentityEntry(
    id="RAMANUJAN_G1",
    kind=CF_SERIES,
    source="Ramanujan's three-parameter fraction (lost notebook)",
    display="1/1 + (aq+lq)/1 + (bq+lq^2)/1 + (aq^2+lq^3)/1 + "
            "(bq^2+lq^4)/1 + ... = G(1)/G(0)",
    constraints=(_APL_NZ, _B_L_NZ),
    make_cf=_cf(_rg1),
    targets=_big_g_targets,
))

_add(IdentityEntry(
    id="RAMANUJAN_G2",
    kind=CF_SERIES,
    source="Ramanujan's lost notebook, Entry 6.4.1 shape",
    display="1/(1+aq) + (lq-abq^2)/(1+aq^2+bq) + (lq^2-abq^4)/(1+aq^3+bq^2) "
            "+ ... = G(1)/G(0)",
    constraints=(_A_NZ, _L_NZ),
    make_cf=_cf(_rg2),
    targets=_big_g_targets,
    pairs=_rg2_pairs,
))

_add(IdentityEntry(
    id="HIRSCHHORN",
    kind=CF_SERIES,
    source="Hirschhorn's three-parameter continued fraction",
    display="1/1 + (aq+lq)/(1-aq+bq) + (aq+lq^2)/(1-aq+bq^2) + ... "
            "= G(1)/G(0); checked on the a -> aq slice",
    constraints=(_APL_NZ,),
    make_cf=_cf(_hirschhorn),
    targets=_hirschhorn_targets,
    convergence="|aq/(1-aq)^2| < 1/4 for ordinary convergence",
))

_add(IdentityEntry(
    id="HEINE_CF_A",
    kind=CF_SERIES,
    source="Heine-type fraction with leading 1 + aq",
    display="1/(1+aq) + (lq-abq^2)/(1+aq^2) + (lq^2+bq)/(1+aq^3) + "
            "(lq^3-abq^5)/(1+aq^4) + ... = G(1)/G(0)",
    constraints=(_L_NZ,),
    make_cf=_cf(_heine_a),
    targets=_big_g_targets,
))

_add(IdentityEntry(
    id="EISENSTEIN",
    kind=CF_SERIES,
    source="Eisenstein (1844), rediscovered by Ramanujan",
    display="sum_k (-a)^k q^(k(k+1)/2) = 1/1 + aq/1 + a(q^2-q)/1 + aq^3/1 "
            "+ a(q^4-q^2)/1 + ...",
    constraints=(_A_NZ,),
    make_cf=_cf(_eisenstein),
    targets=_eisenstein_targets,
    pairs=_eisenstein_pairs,
))

_add(IdentityEntry(
    id="ENTRY8",
    kind=TRANSFORMATION,
    source="Ramanujan's notebooks, ch. 16, Entry 8",
    display="(aq)inf sum_k (b/a)_k (cq)_k (aq)^k / ((dq)_k (q)_k) = "
            "(bq)inf sum_k (b/a)_k (d/c)_k (-ac)^k q^(2k+C(k,2)) / ((bq)_k (dq)_k (q)_k)",
    param_note="the classical parameters (a, b, c, d) are filled as c = l, d = a*b",
    constraints=(_A_NZ, _L_NZ),
    pairs=_entry8_pairs,
    convergence="|q| < 1 and |a| < 1 for the unshifted series",
))

_add(IdentityEntry(
    id="ENTRY8_D0",
    kind=TRANSFORMATION,
    source="ch. 16, Entry 8 in the d = 0 case",
    display="sum_k prod_{j<k}(a+lq^j) (bC/l)^k q^(k(k+1)/2) / ((-bq)_k (q)_k) "
            "times (-bq)inf = (abq/l)inf sum_k (-l/a)_k (-C)_k (ab/l)^k q^k / (q)_k, "
            "at C = a*b",
    constraints=(_A_NZ, _L_NZ),
    pairs=_entry8_d0_pairs,
))

_add(IdentityEntry(
    id="ENTRY6",
    kind=TRANSFORMATION,
    source="Ramanujan's notebooks, ch. 16, Entry 6",
    display="(aq)inf (dq)inf sum_k (b/a)_k (cq)_k (aq)^k / ((dq)_k (q)_k) = "
            "(cq)inf (bq)inf sum_k (aq)_k (d/c)_k (cq)^k / ((bq)_k (q)_k)",
    param_note="the classical parameters (a, b, c, d) are filled as c = l, d = a*b",
    constraints=(_A_NZ, _L_NZ),
    pairs=_entry6_pairs,
))

_add(IdentityEntry(
    id="QBIN",
    kind=TRANSFORMATION,
    source="Rothe's q-binomial theorem (ch. 16, Entry 2 shape)",
    display="sum_k (-b/a)_k a^k / (q)_k = (-b)inf / (a)inf",
    constraints=(_A_NZ,),
    pairs=_qbin_pairs,
))

_add(IdentityEntry(
    id="GFRAC_SUMS2",
    kind=TRANSFORMATION,
    source="numerator/denominator relation behind the three-parameter fraction",
    display="G(1) G1A(0) = G(0) G1B(0), with both sides reachable from "
            "Entry 8 (d = 0) at C = l q / b and C = l / b",
    constraints=(_A_NZ, (_nz("b"), "b = 0 is a pole of the C = l/b specialization"),
                 _L_NZ),
    pairs=_gfrac_sums2_pairs,
))

_add(IdentityEntry(
    id="GFRAC5_SUMS",
    kind=TRANSFORMATION,
    source="cross-relation for the 1 + aq fraction's numerator and denominator",
    display="G(lq; 1) (1+aq) H = G(lq; 0) G2(1) on the lambda slice, "
            "H the companion denominator sum",
    constraints=(_A_NZ, _L_NZ),
    pairs=_gfrac5_sums_pairs,
    convergence="|l/a| < 1 for the unshifted series",
))

_add(IdentityEntry(
    id="gFRAC_SUMS2",
    kind=TRANSFORMATION,
    source="a -> 0 limit of the G-series cross-relation",
    display="g(1) g2(0) = g(0) g2(1)",
    pairs=_gfrac_sums2_small_pairs,
))

_add(IdentityEntry(
    id="PROD_RATIO",
    kind=CF_PRODUCT,
    source="lost notebook, Corollary 6.2.1 shape",
    display="1/1 + q/1 + (q^2+q)/1 + q^3/1 + (q^4+q^2)/1 + ... "
            "= (q;q^2)inf / (q^2;q^4)inf^2",
    param_note="parameters are ignored; the fraction is parameter-free",
    make_cf=_cf(_prod_ratio),
    targets=_prod_ratio_targets,
    pairs=_prod_ratio_pairs,
))

_add(IdentityEntry(
    id="ENTRY11",
    kind=CF_PRODUCT,
    source="Ramanujan's notebooks, ch. 16, Entry 11",
    display="(a-b)/(1-q) + (a-bq)(aq-b)/(1-q^3) + q(a-bq^2)(aq^2-b)/(1-q^5) "
            "+ ... = (P- / P+); checked on the (a,b) -> (aq,bq) slice",
    constraints=((lambda p: p.a != p.b, "a = b zeroes the leading numerator"),
                 _A_NZ),
    make_cf=_cf(_entry11),
    targets=_theta_products,
    pairs=_entry11_pairs,
))

_add(IdentityEntry(
    id="ENTRY11_SUMRATIO",
    kind=TRANSFORMATION,
    source="theta-quotient form of the Entry 11 odd/even split",
    display="odd and even parts of sum_m (b/a)_m (aq)^m / (q)_m against "
            "(-aq)inf (bq)inf -/+ (aq)inf (-bq)inf",
    constraints=(_A_NZ, (lambda p: p.a != p.b, "a = b zeroes the odd part")),
    pairs=_entry11_sumratio_pairs,
))

_add(IdentityEntry(
    id="REC_RR",
    kind=RECURRENCE,
    source="three-term contiguous relation for the Rogers-Ramanujan sums",
    display="R(s) = R(s+1) + a q^(s+1) R(s+2)",
    recurrence=_rec_of(lambda p, s, order: rr_sum(p.a, s, order), _registered_cf("RR_CF")),
))

_add(IdentityEntry(
    id="REC_G1",
    kind=RECURRENCE,
    source="contiguous relation for the interlaced one-parameter sums",
    display="g1(s) = g1(s+1) + lq^(s+1)/((1+bq^s)(1+bq^(s+1))) g1(s+2)",
    constraints=((lambda p: p.b != -1, "b = -1 is a pole of the s = 0 sum"),),
    recurrence=_rec_of(lambda p, s, order: g1_sum(p.b, s, p.lam, s, order),
                       _unit_cf(_cf(lambda p, n: _g1_terms(p, n - 1)))),
))

_add(IdentityEntry(
    id="REC_G2",
    kind=RECURRENCE,
    source="contiguous relation behind the third one-parameter fraction",
    display="g2(s) = (1-b) g2(s+1) + (b+lq^(s+1)) g2(s+2)",
    recurrence=_rec_of(lambda p, s, order: g2_sum(p.b, p.lam, s, order), _g3_displayed),
))

_add(IdentityEntry(
    id="REC_GG2",
    kind=RECURRENCE,
    source="contiguous relation for the 1 + aq fraction's sums",
    display="(1+aq^(s+1)) G2(s) = (1+aq^(s+1)+bq^s) G2(s+1) "
            "+ (lq^(s+2)-abq^(2s+2))/(1+aq^(s+2)) G2(s+2)",
    constraints=(_A_NZ, _L_NZ),
    recurrence=_rec_gg2,
))

_add(IdentityEntry(
    id="REC_G1AB",
    kind=RECURRENCE,
    source="interlaced pair of contiguous relations for the split G-sums",
    display="G1A(s) = G1B(s) + (aq^(s+1)+lq^(2s+1)) G1A(s+1); "
            "G1B(s) = G1A(s+1) + (bq^(s+1)+lq^(2s+2)) G1B(s+1)",
    constraints=(_L_NZ,),
    recurrence=_rec_of(_g1ab_interlaced, _registered_cf("RAMANUJAN_G1")),
    shifts=(0, 13),
))

_add(IdentityEntry(
    id="REC_C",
    kind=RECURRENCE,
    source="contiguous relation for the Entry 11 tail sums",
    display="C(s) = C(s+1) "
            "+ q^s (aq-bq^(s+2))(aq^(s+2)-bq)/((1-q^(2s+1))(1-q^(2s+3))) C(s+2)",
    constraints=(_A_NZ,),
    recurrence=_rec_of(lambda p, s, order: c_sum(p.a, p.b, s, order),
                       _unit_cf(_registered_cf("ENTRY11"))),
    shifts=(1, 6),
))

_add(IdentityEntry(
    id="POCH_IDS",
    kind=PRODUCT,
    source="Euler-style infinite product rearrangements",
    display="(q)inf (-q)inf = (q^2;q^2)inf; (-q^2;q^2)inf (q^2;q^4)inf = 1; "
            "(-q;q^2)inf (q;q^2)inf = (q^2;q^4)inf; and the vanishing-base "
            "limit prod_{j<k} l q^j",
    param_note="parameters are ignored; the identities are parameter-free",
    pairs=_poch_pairs,
))


def register_all() -> List[IdentityEntry]:
    """All registered entries, in registration order."""
    return list(_REGISTRY.values())


def entry_ids() -> List[str]:
    return list(_REGISTRY)


def lookup(entry_id: str) -> IdentityEntry:
    try:
        return _REGISTRY[entry_id]
    except KeyError:
        raise UnknownIdentity(f"no identity registered under {entry_id!r}") from None


# ---------------------------------------------------------------------------
# Reduction links


@dataclass(frozen=True)
class ReductionLink:
    """Directed specialization between two registered fractions."""

    source: str
    target: str
    substitution: Dict[str, str]
    check: Callable[[ParamPoint, int], Optional[int]]


def _pair_scan(pairs) -> Optional[int]:
    for lhs, rhs in pairs:
        fm = lhs.first_mismatch(rhs)
        if fm is not None:
            return fm
    return None


def _elements_mismatch(src: CFrac, tgt: CFrac, ns, shift: int = 0) -> Optional[int]:
    """First mismatching power between src's element n and tgt's element
    n + shift, over n in ns and a_n before b_n; None when all agree."""
    return _pair_scan(pair for n in ns
                      for pair in zip(src.element(n), tgt.element(n + shift)))


def _link_rrs_to_rr(p: ParamPoint, order: int) -> Optional[int]:
    at_one = ParamPoint(1, p.b, p.lam)
    src = lookup("RR_SPECIAL").make_cf(p, order)
    tgt = lookup("RR_CF").make_cf(at_one, order)
    fm = _elements_mismatch(src, tgt, range(1, 13), shift=1)
    if fm is not None:
        return fm
    # b0 absorbs the shifted-off first element: 1 + K = R(0)/R(1)
    s_num, s_den = _rrs_targets(p, order)
    t_num, t_den = _rr_targets(at_one, order)
    return _pair_scan([(src.b0, QSeries.one(order)), (tgt.b0, QSeries.zero(order)),
                       (s_num, t_den), (s_den, t_num)])


def _link_g2_to_rr(p: ParamPoint, order: int) -> Optional[int]:
    sliced = ParamPoint(p.a, 0, p.a)     # b = 0, l = a
    src = lookup("G_CFRAC_g2").make_cf(sliced, order)
    tgt = lookup("RR_CF").make_cf(p, order)
    fm = _elements_mismatch(src, tgt, range(1, 13))
    if fm is not None:
        return fm
    return _pair_scan((g_sum(0, p.a, s, order), rr_sum(p.a, s, order)) for s in (0, 1))


def _limit_g_sum(b, lam, s: int, order: int) -> QSeries:
    """a -> 0 limit of the G sum realized term by term through the
    scaled-product limit, not by plugging a = 0 into the recipe."""
    total = QSeries.zero(order)
    k = 0
    while k * (k + 1) // 2 + s * k + k * (k - 1) // 2 <= order:
        term = limit_pochhammer_scaled(lam, k, order)
        term = term * QSeries.monomial(1, k * (k + 1) // 2 + s * k, order)
        term = term * pochhammer_finite(QMonomial(ONE, 1), k, order).inverse()
        term = term * pochhammer_finite(QMonomial(-b, 1), k, order).inverse()
        total = total + term
        k += 1
    return total


def _link_rg1_to_g1(p: ParamPoint, order: int) -> Optional[int]:
    src = lookup("RAMANUJAN_G1").make_cf(ParamPoint(0, p.b, p.lam), order)
    tgt = lookup("G_CFRAC_g1").make_cf(p, order)
    fm = _elements_mismatch(src, tgt, range(1, 13))
    if fm is not None:
        return fm
    pairs = []
    for s in (0, 1):
        lim = _limit_g_sum(p.b, p.lam, s, order)
        pairs.append((lim, big_g_sum(0, 0, p.b, p.lam, 0, s, order)))
        pairs.append((lim, g_sum(p.b, p.lam, s, order)))
    return _pair_scan(pairs)


def _link_hir_to_g3(p: ParamPoint, order: int) -> Optional[int]:
    b, lam = p.b, p.lam
    # Hirschhorn's slice a_n = a q^2 + l q^(n-1) over 1 - a q^2 + b q^(n-1)
    # at (a, b) = (b, 0) is the b -> b q^2 slice of the g3 fraction from its
    # second element on; the first elements differ only in b_1.
    src = lookup("HIRSCHHORN").make_cf(ParamPoint(b, 0, lam), order)
    tgt = lookup("G_CFRAC_g3").make_cf(p, order)
    fm = _elements_mismatch(src, tgt, range(2, 13))
    if fm is not None:
        return fm
    # value side: G(b q^(-1) q, ...) collapses onto the g2 sums
    return _pair_scan([
        (big_g_sum(b, -1, 0, lam, 0, 1, order), g2_sum(b, lam, 1, order)),
        (big_g_sum(b, -1, 0, lam, 0, 0, order),
         g2_sum(b, lam, 0, order) + g2_sum(b, lam, 1, order).scale(b)),
    ])


def _link_heine_to_g2(p: ParamPoint, order: int) -> Optional[int]:
    src = lookup("HEINE_CF").make_cf(ParamPoint(0, p.b, p.lam), order)
    tgt = lookup("G_CFRAC_g2").make_cf(p, order)
    fm = _elements_mismatch(src, tgt, range(1, 13))
    if fm is not None:
        return fm
    return _pair_scan((big_g_sum(0, 0, p.b, p.lam, 0, s, order), g_sum(p.b, p.lam, s, order))
                      for s in (0, 1))


REDUCTION_LINKS: Tuple[ReductionLink, ...] = (
    ReductionLink("RR_SPECIAL", "RR_CF", {"a": "1"}, _link_rrs_to_rr),
    ReductionLink("G_CFRAC_g2", "RR_CF", {"b": "0", "l": "a"}, _link_g2_to_rr),
    ReductionLink("RAMANUJAN_G1", "G_CFRAC_g1", {"a": "0"}, _link_rg1_to_g1),
    ReductionLink("HIRSCHHORN", "G_CFRAC_g3", {"b": "0", "a": "b/q"}, _link_hir_to_g3),
    ReductionLink("HEINE_CF", "G_CFRAC_g2", {"a": "0"}, _link_heine_to_g2),
)


def _find_link(source_id: str, target_id: str) -> ReductionLink:
    for link in REDUCTION_LINKS:
        if link.source == source_id and link.target == target_id:
            return link
    raise UnknownIdentity(f"no reduction registered from {source_id!r} to {target_id!r}")


def check_reduction(source_id: str, target_id: str,
                    substitution: Optional[Dict[str, str]] = None,
                    *, seed: int = 0, order: int = DEFAULT_ORDER) -> bool:
    """True when the source fraction specializes exactly onto the target.

    The optional substitution is documentation-level: when given it must
    match the registered parameter map for the pair.  The check runs at the
    first sampled parameter point and compares the elements of the two
    registered fractions plus the series-level value relation, all to the
    requested order.
    """
    link = _find_link(source_id, target_id)
    if substitution is not None and dict(substitution) != link.substitution:
        raise ValueError(
            f"substitution {substitution!r} does not match the registered "
            f"map {link.substitution!r} for {source_id} -> {target_id}")
    point = sample_params(seed, 1)[0]
    return link.check(point, order) is None


# ---------------------------------------------------------------------------
# Verification runner


def _check_cf(entry: IdentityEntry, p: ParamPoint, order: int, depth: int):
    """The fraction against num/den by its error walk (see ``cfrac.contacts``).

    It fails when the contact at ``depth`` is below the floor F(depth), or
    when the approximant at d*, the first depth whose floor passes the
    horizon (capped at horizon + 1), is not exact through the horizon.
    """
    cf = entry.make_cf(p, order)
    num, den = entry.targets(p, order)
    horizon = min(cf.order, num.order, den.order)
    shallow = deep = None
    for n, contact, floor in contacts(cf, num, den):
        if n == depth:
            shallow = contact, min(floor, horizon + 1)
        if deep is None and (floor > horizon or n > horizon):
            deep = n, contact
        if shallow and deep:
            break
    fm, bound = shallow
    if fm is not None and fm < bound:
        n, reason = depth, (f"approximant at depth {depth} already differs at q^{fm}, "
                            f"below its contact floor q^{bound}")
    elif deep[1] is not None:
        n, fm = deep
        reason = f"approximant at depth {n} still differs at q^{fm}, not exact through q^{horizon}"
    else:
        return "pass", fm, "", ()
    _, rows = _cmp(approximant(cf, n), num * den.inverse())
    return "fail", fm, reason, rows


def _check_pairs(entry: IdentityEntry, p: ParamPoint, order: int):
    for label, lhs, rhs in entry.pairs(p, order):
        fm, rows = _cmp(lhs, rhs)
        if fm is not None:
            return "fail", fm, f"{label}: sides differ at q^{fm}", rows
    return "pass", None, "", ()


def _check_recurrences(entry: IdentityEntry, p: ParamPoint, order: int):
    lo, hi = entry.shifts
    for s in range(lo, hi + 1):
        s0, s1, s2, c1, c2 = entry.recurrence(p, s, order)
        fm = verify_three_term(s0, s1, s2, c1, c2)
        if fm is not None:
            _, rows = _cmp(s0, c1 * s1 + c2 * s2)
            return ("fail", fm,
                    f"three-term relation at shift {s} differs at q^{fm}", rows)
    return "pass", None, "", ()


def _verify_entry(entry: IdentityEntry, point: ParamPoint,
                  order: int, depth: int) -> IdentityReport:
    started = time.perf_counter()
    why = entry.constraint_failure(point)
    if why is not None:
        return IdentityReport(entry.id, point, order, depth, "skipped", None, why,
                              elapsed=time.perf_counter() - started)
    status, fm, reason, rows = "pass", None, "", ()
    if entry.kind in CF_KINDS:
        status, fm, reason, rows = _check_cf(entry, point, order, depth)
    # a pass keeps the fraction's first mismatch past depth until a later check fails
    for check, recipe in ((_check_pairs, entry.pairs), (_check_recurrences, entry.recurrence)):
        if status == "pass" and recipe is not None:
            outcome = check(entry, point, order)
            if outcome[0] == "fail":
                status, fm, reason, rows = outcome
    return IdentityReport(entry.id, point, order, depth, status, fm, reason,
                          elapsed=time.perf_counter() - started,
                          mismatch_rows=rows)


def verify_entry(entry: IdentityEntry, point: ParamPoint,
                 order: int = DEFAULT_ORDER,
                 depth: int = DEFAULT_DEPTH) -> IdentityReport:
    """Like :func:`verify`, but for an entry object (registered or not)."""
    return _verify_entry(entry, point, order, depth)


def verify(entry_id: str, point: ParamPoint,
           order: int = DEFAULT_ORDER, depth: int = DEFAULT_DEPTH) -> IdentityReport:
    """Check one identity at one exact parameter point.

    Returns a report rather than raising: constraint violations come back
    as ``skipped`` with the reason, and mismatches as ``fail`` with the
    first mismatching power and a short coefficient table.
    """
    return verify_entry(lookup(entry_id), point, order, depth)


@shared_sums()
def run_entry(entry: IdentityEntry, seed: int = 0, points: int = 3,
              order: int = DEFAULT_ORDER,
              depth: int = DEFAULT_DEPTH) -> List[IdentityReport]:
    """Exercise one entry at ``points`` sampled valid parameter points.

    Same semantics as the per-entry portion of :func:`verify_all`,
    including skipped reports for constraint-violating draws and the
    mixed-verdict escalation.
    """
    if points < 1:
        raise ValueError("points must be at least 1")
    stream = param_stream(seed)
    reports: List[IdentityReport] = []
    valid = 0
    while valid < points:
        p = next(stream)
        rep = _verify_entry(entry, p, order, depth)
        reports.append(rep)
        if rep.status != "skipped":
            valid += 1
    verdicts = {r.status for r in reports if r.status != "skipped"}
    if verdicts == {"pass", "fail"}:
        # Schwartz-Zippel escalation: a lone disagreement among passing
        # points smells like accidental cancellation, so look harder.
        valid_points = (p for p in stream if entry.constraint_failure(p) is None)
        for p in islice(valid_points, 5):
            rep = _verify_entry(entry, p, order, depth)
            rep.escalated = True
            reports.append(rep)
    return reports


@shared_sums()
def verify_all(seed: int = 0, points: int = 3, order: int = DEFAULT_ORDER,
               depth: int = DEFAULT_DEPTH) -> Tuple[List[IdentityReport], Dict]:
    """Run every registered identity plus every reduction link.

    Each entry is exercised at ``points`` sampled parameter points that
    satisfy its constraints; candidates that violate a constraint are
    reported as skipped and replaced by further draws.  Mixed verdicts
    trigger a five-point escalation, flagged in the summary under
    ``suspected_cancellation``.  Reports come back sorted by id.
    """
    reports: List[IdentityReport] = []
    for entry in register_all():
        reports.extend(run_entry(entry, seed, points, order, depth))
    for link in REDUCTION_LINKS:
        started = time.perf_counter()
        point = sample_params(seed, 1)[0]
        fm = link.check(point, order)
        reports.append(IdentityReport(
            f"{link.source}->{link.target}", point, order, 0,
            "pass" if fm is None else "fail",
            fm, "" if fm is None else f"reduction differs at q^{fm}",
            elapsed=time.perf_counter() - started))
    reports.sort(key=lambda r: r.id)
    return reports, summarize(reports)


def summarize(reports: Sequence[IdentityReport]) -> Dict:
    """Pass, fail and skip counts, and under ``suspected_cancellation`` the
    sorted ids of entries whose mixed verdicts triggered an escalation."""
    return {
        "pass": sum(r.status == "pass" for r in reports),
        "fail": sum(r.status == "fail" for r in reports),
        "skip": sum(r.status == "skipped" for r in reports),
        "suspected_cancellation": sorted({r.id for r in reports if r.escalated}),
    }


def perturbed_entry(entry_id: str) -> IdentityEntry:
    """Copy of a continued-fraction entry with its second partial numerator
    doubled -- a negative control that must fail with a finite mismatch."""
    entry = lookup(entry_id)
    if entry.make_cf is None:
        raise ValueError(f"{entry_id} is not a continued-fraction entry")
    base = entry.make_cf

    def wrapped(p: ParamPoint, order: int) -> CFrac:
        cf = base(p, order)

        def elem(n: int):
            an, bn = cf.element(n)
            if n == 2:
                return an.scale(2), bn
            return an, bn

        return CFrac(cf.b0, elem)

    return replace(entry, make_cf=wrapped, pairs=None, recurrence=None)


# ---------------------------------------------------------------------------
# Report serialization


def _report_to_dict(r: IdentityReport) -> Dict:
    return {
        "id": r.id,
        "params": r.params.as_dict() if r.params is not None else None,
        "order": r.order,
        "depth": r.depth,
        "status": r.status,
        "first_mismatch_power": r.first_mismatch_power,
        "reason": r.reason,
        "escalated": r.escalated,
    }


def reports_to_json(reports: Sequence[IdentityReport], summary: Dict,
                    run: Dict) -> str:
    """Deterministic JSON document for a verification run.

    ``elapsed`` and the coefficient rows are deliberately excluded so the
    same seed and flags always produce byte-identical output.
    """
    doc = {
        "run": {k: run[k] for k in ("seed", "points", "order", "depth")},
        "reports": [_report_to_dict(r) for r in reports],
        "summary": summary,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def reports_from_json(text: str) -> Tuple[Dict, List[IdentityReport], Dict]:
    doc = json.loads(text)
    reports = []
    for d in doc["reports"]:
        params = d["params"]
        point = None
        if params is not None:
            point = ParamPoint(parse_rational(params["a"]),
                               parse_rational(params["b"]),
                               parse_rational(params["l"]))
        reports.append(IdentityReport(
            d["id"], point, d["order"], d["depth"], d["status"],
            d["first_mismatch_power"], d["reason"], d["escalated"]))
    return doc["run"], reports, doc["summary"]


def failure_table(reports: Sequence[IdentityReport]) -> str:
    """TSV coefficient dump for failing reports; '# all pass' when clean."""
    lines: List[str] = []
    for r in reports:
        if r.status != "fail":
            continue
        lines.append(f"# {r.id} @ {r.params} [{r.reason}]")
        lines.append("power\tlhs\trhs")
        for power, lhs, rhs in r.mismatch_rows:
            lines.append(f"{power}\t{lhs}\t{rhs}")
    if not lines:
        return "# all pass\n"
    return "\n".join(lines) + "\n"


__all__ = [
    "CF_KINDS",
    "IdentityEntry",
    "IdentityReport",
    "REDUCTION_LINKS",
    "ReductionLink",
    "check_reduction",
    "entry_ids",
    "failure_table",
    "lookup",
    "perturbed_entry",
    "register_all",
    "reports_from_json",
    "reports_to_json",
    "run_entry",
    "summarize",
    "verify",
    "verify_all",
    "verify_entry",
]
