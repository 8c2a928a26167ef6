"""Continued fractions with truncated power-series elements.

A continued fraction here is  b0 + K_{n>=1}(a_n / b_n)  with every part an
exact :class:`~qcfrac.series.QSeries`; :meth:`CFrac.from_terms` builds one
from elements given as lists of (coef, power) terms.  Approximants come from
the classical three-term recurrence for the convergent numerators and
denominators; a modified approximant replaces the terminating 0 with a
supplied tail value, which is how tail identities are checked exactly.

How far each approximant agrees with a target N/D is read from the error
walk :func:`contacts` instead: E_n = A_n D - B_n N obeys the same
recurrence, E_n = b_n E_{n-1} + a_n E_{n-2} from E_{-1} = D and
E_0 = b0 D - N, and since B_n and D are units, val(E_n) is the first power
where A_n/B_n differs from N/D.  No series is inverted.  Next to it the walk
gives the floor F(n) = val(a_1) + ... + val(a_{n+1}): A_n/B_n - A_{n-1}/B_{n-1}
= +-a_1...a_n / (B_n B_{n-1}), so a fraction that does equal N/D agrees with
it at depth n through q^(F(n) - 1) at least.

The numeric side evaluates the polynomial elements at an exact rational q0
and only then drops to floating point, iterating backward; the Worpitzky
index reports from which element onward the partial numerators sit inside
the classical |a_n| <= 1/4 convergence region.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple

from .errors import HorizonExceeded, NonUnitDenominator, NonUnitSeries, NumericBlowup
from .rationals import rational
from .series import QSeries

ElementFn = Callable[[int], Tuple[QSeries, QSeries]]
TermFn = Callable[[int], Tuple[List[tuple], List[tuple]]]


class CFrac:
    """b0 + a1/(b1 + a2/(b2 + ...)) with memoized series elements.

    ``elements`` maps n >= 1 to the pair (a_n, b_n); results are cached per
    instance, and so is the last walk of the convergents, which the next
    approximant at the same or a greater depth continues.  The working
    truncation order is taken from ``b0``.
    """

    def __init__(self, b0: QSeries, elements: ElementFn):
        self.b0 = b0
        self.order = b0.order
        self._fn = elements
        self._memo = {}
        self._walk = None

    @classmethod
    def from_terms(cls, b0, order: int, elements: TermFn) -> "CFrac":
        """The fraction b0 + K(a_n / b_n) at ``order`` from scalar b0 and
        ``elements(n) = (a_terms, b_terms)``, lists of (coef, power) pairs.

        Each list goes through :meth:`QSeries.from_monomials`: repeated powers
        are summed, and a negative power raises ValueError when asked for.
        """
        def series(n: int) -> Tuple[QSeries, QSeries]:
            a_terms, b_terms = elements(n)
            return (QSeries.from_monomials(a_terms, order),
                    QSeries.from_monomials(b_terms, order))

        return cls(QSeries.constant(b0, order), series)

    def element(self, n: int) -> Tuple[QSeries, QSeries]:
        if n < 1:
            raise IndexError("partial quotients are indexed from 1")
        if n not in self._memo:
            self._memo[n] = self._fn(n)
        return self._memo[n]

    def convergents(self, n: int) -> "Convergents":
        """The walk at depth n: the last walk continued, or a new one if it is past n."""
        walk = self._walk
        if walk is None or walk.n > n:
            walk = self._walk = Convergents(self)
        while walk.n < n:
            walk.advance()
        return walk


class Convergents:
    """Incremental walk of the convergents A_n / B_n.

    Seeded with A_{-1} = 1, B_{-1} = 0, A_0 = b0, B_0 = 1 and advanced by
    A_n = b_n A_{n-1} + a_n A_{n-2} (same for B), so after n calls to
    :meth:`advance` the state holds the depth-n convergent.
    """

    def __init__(self, cf: CFrac):
        self.cf = cf
        self.n = 0
        self.num_prev = QSeries.one(cf.order)
        self.den_prev = QSeries.zero(cf.order)
        self.num = cf.b0
        self.den = QSeries.one(cf.order)

    def advance(self) -> None:
        an, bn = self.cf.element(self.n + 1)
        self.n += 1
        self.num_prev, self.num = self.num, bn * self.num + an * self.num_prev
        self.den_prev, self.den = self.den, bn * self.den + an * self.den_prev

    def approximant(self) -> QSeries:
        if not self.den.is_unit():
            raise NonUnitDenominator(f"B_{self.n} has zero constant term")
        return self.num * self.den.inverse()

    def modified(self, w: QSeries) -> QSeries:
        """S_n(w) = (A_n + A_{n-1} w) / (B_n + B_{n-1} w)."""
        den = self.den + self.den_prev * w
        if not den.is_unit():
            raise NonUnitDenominator(f"modified B_{self.n} has zero constant term")
        return (self.num + self.num_prev * w) * den.inverse()


def contacts(cf: CFrac, num: QSeries, den: QSeries) -> Iterator[Tuple[int, Optional[int], int]]:
    """Yield (n, contact, floor) for n = 1, 2, ... against the target num/den.

    ``contact`` is the valuation of the error E_n = A_n den - B_n num, the
    first power where A_n/B_n differs from num/den (None when they agree
    through the truncation), and ``floor`` is F(n) = val(a_1) + ... +
    val(a_{n+1}), a zero truncation counting as order + 1.  The walk never
    divides: E_n = b_n E_{n-1} + a_n E_{n-2} from E_{-1} = den and
    E_0 = b0 den - num, and only the constant term of B_n is followed, to
    raise NonUnitDenominator at the first B_n that is not a unit.  A non-unit
    den raises NonUnitSeries, as inverting it would.
    """
    if not den.is_unit():
        raise NonUnitSeries("cannot invert a series with zero constant term")
    e_prev, e = den, cf.b0 * den - num
    horizon = e.order

    def val(a: QSeries) -> int:
        v = a.valuation()
        return horizon + 1 if v is None else v

    b_prev, b = 0, 1  # constant terms of B_{n-1} and B_n
    floor = val(cf.element(1)[0])
    n = 0
    while True:
        n += 1
        an, bn = cf.element(n)
        b_prev, b = b, bn[0] * b + an[0] * b_prev
        if b == 0:
            raise NonUnitDenominator(f"B_{n} has zero constant term")
        e_prev, e = e, bn * e + an * e_prev
        floor += val(cf.element(n + 1)[0])
        yield n, e.valuation(), floor


def approximant(cf: CFrac, n: int, order: Optional[int] = None) -> QSeries:
    """The depth-n approximant A_n / B_n (depth 0 is just b0).

    ``order`` truncates the result, for comparing against series of a
    different working precision.
    """
    out = cf.convergents(n).approximant()
    return out if order is None else out.truncate(min(order, out.order))


def modified_approximant(
    cf: CFrac, n: int, w: QSeries, order: Optional[int] = None
) -> QSeries:
    """Depth-n approximant with tail value w in place of the terminating 0."""
    out = cf.convergents(n).modified(w)
    return out if order is None else out.truncate(min(order, out.order))


def tail(cf: CFrac, m: int) -> CFrac:
    """The m-th tail K_{n>m}(a_n / b_n) as its own fraction (leading term 0).

    Its value is exactly what :func:`modified_approximant` at depth m expects
    as w.
    """
    if m < 0:
        raise ValueError("tail index must be nonnegative")
    return CFrac(QSeries.zero(cf.order), lambda n: cf.element(n + m))


def equivalence_unit_denominators(cf: CFrac) -> CFrac:
    """The equivalent fraction with every partial denominator scaled to 1.

    Uses the scaling r_n = 1/b_n (r_0 = 1, so b0 is untouched), which sends
    a_n to a_n / (b_{n-1} b_n) and leaves every approximant unchanged.
    Raises NonUnitDenominator when some b_n is not invertible.
    """
    one = QSeries.one(cf.order)

    def scaled(n: int) -> Tuple[QSeries, QSeries]:
        an, bn = cf.element(n)
        if not bn.is_unit():
            raise NonUnitDenominator(f"b_{n} has zero constant term")
        new_a = an * bn.inverse()
        if n > 1:
            prev = cf.element(n - 1)[1]
            if not prev.is_unit():
                raise NonUnitDenominator(f"b_{n - 1} has zero constant term")
            new_a = new_a * prev.inverse()
        return new_a, one

    return CFrac(cf.b0, scaled)


# ---------------------------------------------------------------------------
# Numeric evaluation


class NumericCF:
    """A continued fraction whose parts are plain floats."""

    def __init__(self, b0: float, elements: Callable[[int], Tuple[float, float]]):
        self.b0 = b0
        self._fn = elements
        self._memo = {}

    def element(self, n: int) -> Tuple[float, float]:
        if n < 1:
            raise IndexError("partial quotients are indexed from 1")
        if n not in self._memo:
            self._memo[n] = self._fn(n)
        return self._memo[n]


def numeric_cf(cf: CFrac, q0) -> NumericCF:
    """Evaluate every element of cf at the exact rational q0, then float.

    Horner evaluation happens on the exact coefficients; only the final value
    is rounded.  Elements are faithful as long as their polynomial degree
    stays within cf's truncation order.
    """
    x = rational(q0)

    def elem(n: int) -> Tuple[float, float]:
        an, bn = cf.element(n)
        return float(an.evaluate(x)), float(bn.evaluate(x))

    return NumericCF(float(cf.b0.evaluate(x)), elem)


def numeric_value(ncf: NumericCF, depth: int) -> float:
    """Backward evaluation b0 + a_1/(b_1 + ... a_depth/b_depth).

    Raises NumericBlowup on a (near-)vanishing intermediate denominator.
    """
    t = 0.0
    for k in range(depth, 0, -1):
        a, b = ncf.element(k)
        d = b + t
        if abs(d) < 1e-280:
            raise NumericBlowup(f"vanishing denominator at element {k}")
        t = a / d
    return ncf.b0 + t


def worpitzky_index(ncf: NumericCF, bound: float = 0.25, horizon: int = 100) -> int:
    """Smallest N with |a_n| <= bound for every observed n >= N.

    Scans the partial numerators up to the horizon.  If even the last one
    violates the bound there is no certified convergence window within reach
    and HorizonExceeded is raised.
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    last_violation = 0
    for n in range(1, horizon + 1):
        if abs(ncf.element(n)[0]) > bound:
            last_violation = n
    if last_violation >= horizon:
        raise HorizonExceeded(
            f"partial numerators still exceed {bound} at n = {horizon}"
        )
    return last_violation + 1


# ---------------------------------------------------------------------------
# Rendering


def render_cfrac(cf: CFrac, count: int = 3) -> str:
    """Flat display "b0 + a1/(b1 +) a2/(b2 +) ..." of the first few elements.

    A zero leading term is omitted, so a pure fraction reads "a1/(b1 +) ...".
    """
    parts = []
    if not cf.b0.is_zero():
        parts.append(cf.b0.render_terms() + " +")
    for n in range(1, count + 1):
        an, bn = cf.element(n)
        num = an.render_terms()
        if " " in num:
            num = f"({num})"
        parts.append(f"{num}/({bn.render_terms()} +)")
    return " ".join(parts) + " ..."
