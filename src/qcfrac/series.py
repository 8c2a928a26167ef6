"""Truncated formal power series in q with exact rational coefficients.

A :class:`QSeries` holds coefficients c0..cN for a fixed truncation order N
(inclusive), i.e. it represents  c0 + c1*q + ... + cN*q^N + O(q^(N+1)).
All operations are exact and pure; mixing two series truncates the result to
the smaller order, mirroring how precision actually propagates.

Storage is a tuple of Python ints ``nums`` over one positive int ``den``:
ci = nums[i] / den.  The form is canonical: gcd(den, *nums) == 1, so the
zero series has den == 1, and equal series have equal ``nums``, ``den`` and
hash.  Every operation works on the ints and ends with one gcd pass; that
includes ``truncate``, since dropping nonzero coefficients can enlarge the
gcd.  Rationals (``fractions.Fraction``) appear only at the edges: a
term list's coefficients are read once each as numerator and denominator
and summed as ints (``_sparse``), the constructors convert once, ``s[i]``
builds one, and ``coeffs`` builds the tuple on demand and caches it.  Only
``families.hyper_sum`` builds from ints outside this module, through the
shared step below and ``QSeries._of``.

Multiplication is a schoolbook product over the nonzero numerators of both
operands, over the denominator A*B, so products against sparse factors like
(1 - c*q^m) stay linear.  The inverse of P/D with p0 = P[0] != 0 is
fraction-free: v0 = 1 and v_m = -sum_{k=1..m} p_k * p0^(k-1) * v_{m-k} give
1/P = sum_m v_m q^m / p0^(m+1), so the inverse is
sum_m D * v_m * p0^(N-m) q^m over p0^(N+1).

``times_ratio`` is one step of a basic hypergeometric sum: it multiplies by
a scalar, a power of q, sparse polynomials and factors 1/(1 - c*q^p) without
building any factor as a series; its integer body ``_ratio_step`` on (nums,
den) is also each step of ``families.hyper_sum``.  The monomial shifts and
scales the numerators, each polynomial is one pass per nonzero term over the
lcm of its denominators, and p = 0 multiplies the numerators by d and the
denominator by d - u, for c = u/d.  For p >= 1 the division is the
fraction-free recurrence: scale the numerators by d^J, J = N//p, then
y_i += u * (y_(i-p) // d) for i >= p, from the bottom up.  The entry y_i
is then a multiple of d^(J - i//p), so every division is exact, and the
whole factor costs O(N).  ``geometric_inverse`` is the same step on 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import NonUnitSeries
from .rationals import ONE, format_rational, rational


@dataclass(frozen=True)
class QMonomial:
    """A single exact term ``coef * q**power``."""

    coef: object
    power: int

    def __post_init__(self):
        if self.power < 0:
            raise ValueError("monomial power must be nonnegative")

    def __str__(self) -> str:
        if self.power == 0:
            return format_rational(self.coef)
        return f"{format_rational(self.coef)}*q^{self.power}"


_set = object.__setattr__


class QSeries:
    """Immutable truncated power series in q over the exact rationals."""

    __slots__ = ("order", "nums", "den", "_coeffs")

    def __init__(self, order: int, coeffs: Iterable = ()):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        cs = [_rat(c) for c in coeffs]
        if len(cs) > order + 1:
            raise ValueError("more coefficients than the order admits")
        den = lcm(*(c.denominator for c in cs))
        nums = [c.numerator * (den // c.denominator) for c in cs]
        nums.extend([0] * (order + 1 - len(cs)))
        self._init(order, nums, den)

    def _init(self, order: int, nums, den: int) -> None:
        """Store nums/den in canonical form (den > 0, gcd(den, *nums) == 1)."""
        nums, den = _reduced(nums, den)
        _set(self, "order", order)
        _set(self, "nums", tuple(nums))
        _set(self, "den", den)
        _set(self, "_coeffs", None)

    @classmethod
    def _of(cls, order: int, nums, den: int) -> "QSeries":
        """The series sum nums[i]/den q^i; len(nums) must be order + 1."""
        out = object.__new__(cls)
        out._init(order, nums, den)
        return out

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value, order: int) -> "QSeries":
        return QSeries(order, [rational(value)])

    @staticmethod
    def one(order: int) -> "QSeries":
        return QSeries.constant(1, order)

    @staticmethod
    def zero(order: int) -> "QSeries":
        return QSeries(order, [])

    @staticmethod
    def monomial(coef, power: int, order: int) -> "QSeries":
        """The series c*q^m at the given order (zero if m exceeds the order)."""
        return QSeries.from_monomials([(coef, power)], order)

    @staticmethod
    def from_monomials(terms: Sequence[tuple], order: int) -> "QSeries":
        """Sum of (coef, power) pairs, truncated to the order."""
        steps, den = _sparse(terms, order)
        nums = [0] * (order + 1)
        for power, w in steps:
            nums[power] = w
        return QSeries._of(order, nums, den)

    # -- basic protocol -----------------------------------------------------

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    @property
    def coeffs(self) -> tuple:
        """The coefficients c0..cN as exact rationals (built once, then cached)."""
        if self._coeffs is None:
            den = self.den
            _set(self, "_coeffs", tuple(rational(x, den) for x in self.nums))
        return self._coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.order == other.order and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.order, self.den, self.nums))

    def __repr__(self) -> str:
        return f"QSeries(order={self.order}, {self.render()})"

    def __getitem__(self, power: int):
        return rational(self.nums[power], self.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_unit(self) -> bool:
        """True when the constant term is nonzero, i.e. the series is invertible."""
        return self.nums[0] != 0

    def valuation(self) -> Optional[int]:
        """Lowest power with a nonzero coefficient, or None for the zero truncation."""
        for i, x in enumerate(self.nums):
            if x:
                return i
        return None

    # -- arithmetic ---------------------------------------------------------

    def _aligned(self, other: "QSeries"):
        """(n, a, b, den): both numerator lists through q^n over one denominator."""
        n = min(self.order, other.order)
        da, db = self.den, other.den
        g = gcd(da, db)
        fa, fb = db // g, da // g
        return (n, [x * fa for x in self.nums[: n + 1]],
                [y * fb for y in other.nums[: n + 1]], da * fa)

    def __add__(self, other: "QSeries") -> "QSeries":
        n, a, b, den = self._aligned(other)
        return QSeries._of(n, [x + y for x, y in zip(a, b)], den)

    def __sub__(self, other: "QSeries") -> "QSeries":
        n, a, b, den = self._aligned(other)
        return QSeries._of(n, [x - y for x, y in zip(a, b)], den)

    def __neg__(self) -> "QSeries":
        return QSeries._of(self.order, [-x for x in self.nums], self.den)

    def __mul__(self, other: "QSeries") -> "QSeries":
        n = min(self.order, other.order)
        a = [(i, x) for i, x in enumerate(self.nums[: n + 1]) if x]
        b = [(j, y) for j, y in enumerate(other.nums[: n + 1]) if y]
        if len(b) < len(a):
            a, b = b, a
        out = [0] * (n + 1)
        for i, x in a:
            for j, y in b:
                if i + j > n:
                    break
                out[i + j] += x * y
        return QSeries._of(n, out, self.den * other.den)

    def scale(self, factor) -> "QSeries":
        f = _rat(factor)
        p = f.numerator
        return QSeries._of(self.order, [p * x for x in self.nums],
                           self.den * f.denominator)

    def times_ratio(self, scalar, power: int, polys: Sequence = (),
                    dens: Sequence = ()) -> "QSeries":
        """self * scalar * q^power * prod(polys) / prod(1 - c*q^p for (c, p) in dens).

        One step of a basic hypergeometric sum: the arguments as ints through
        :func:`_ratio_step`, which ``families.hyper_sum`` runs too, then one
        gcd pass.  Each poly is a list of ``(coef, power)`` monomials; p = 0
        in ``dens`` is the scalar 1/(1 - c).  A negative power of q raises
        ValueError and the pole (1, 0) in ``dens`` ZeroDivisionError, both
        before any work.
        """
        n = self.order
        y, den = _ratio_step(self.nums, self.den, n, _rat(scalar).as_integer_ratio(), power,
                             [_sparse(poly, n) for poly in polys],
                             [(*_rat(c).as_integer_ratio(), p) for c, p in dens])
        return QSeries._of(n, y, den)

    def inverse(self) -> "QSeries":
        """Multiplicative inverse at the same order.

        Raises NonUnitSeries when the constant term vanishes.
        """
        p = self.nums
        p0 = p[0]
        if p0 == 0:
            raise NonUnitSeries("cannot invert a series with zero constant term")
        n = self.order
        # Nonzero p_k * p0^(k-1), k >= 1, for the recurrence on v.
        steps = []
        power = 1
        for k in range(1, n + 1):
            if p[k]:
                steps.append((k, p[k] * power))
            power *= p0
        v = [1] + [0] * n
        for m in range(1, n + 1):
            acc = 0
            for k, w in steps:
                if k > m:
                    break
                acc += w * v[m - k]
            v[m] = -acc
        # Scale v_m by D * p0^(n-m), from m = n down; power is now p0^n.
        scale = self.den
        for m in range(n, -1, -1):
            v[m] *= scale
            scale *= p0
        return QSeries._of(n, v, power * p0)

    def shift_down(self, m: int) -> "QSeries":
        """Divide by q^m, assuming the first m coefficients vanish.

        The result is known one power less per division step: order drops by m.
        """
        if m == 0:
            return self
        if any(self.nums[:m]):
            raise ValueError("series is not divisible by q^%d" % m)
        return QSeries._of(self.order - m, self.nums[m:], self.den)

    def truncate(self, order: int) -> "QSeries":
        if order >= self.order:
            return self
        return QSeries._of(order, self.nums[: order + 1], self.den)

    def evaluate(self, q0):
        """Exact Horner evaluation of the truncated polynomial at a rational q0."""
        x = _rat(q0)
        r, s = x.numerator, x.denominator
        # acc / s^k is the Horner value of the top k+1 coefficients.
        acc = 0
        spow = 1
        for c in reversed(self.nums):
            acc = acc * r + c * spow
            spow *= s
        return rational(acc, spow // s * self.den)

    # -- comparison and rendering ------------------------------------------

    def first_mismatch(self, other: "QSeries") -> Optional[int]:
        """Lowest power where the two truncations disagree, up to the common order."""
        return self._mismatch(other, min(self.order, other.order))

    def agrees_to(self, other: "QSeries", order: int) -> bool:
        """Exact coefficient agreement through q^order (must be within both truncations)."""
        if order > min(self.order, other.order):
            raise ValueError("agreement order exceeds the known truncation")
        return self._mismatch(other, order) is None

    def _mismatch(self, other: "QSeries", n: int) -> Optional[int]:
        a, b = self.nums, other.nums
        da, db = self.den, other.den
        for i in range(n + 1):
            if a[i] * db != b[i] * da:
                return i
        return None

    def render(self) -> str:
        """Human-readable form ``c0 + c1*q + ... + O(q^(N+1))``."""
        return f"{self.render_terms()} + O(q^{self.order + 1})"

    def render_terms(self) -> str:
        """The nonzero terms ``c0 + c1*q + ...`` without the order bound, or ``0``."""
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(format_rational(c))
            elif i == 1:
                parts.append(f"{format_rational(c)}*q")
            else:
                parts.append(f"{format_rational(c)}*q^{i}")
        return " + ".join(parts) if parts else "0"


def _rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else rational(x)


def _sparse(terms: Sequence[tuple], order: int):
    """(steps, den) for the sum of (coef, power) pairs truncated to the order.

    ``steps`` lists ``(power, w)`` with coefficient w/den, one per power
    (repeated powers are summed as ints over den, the lcm of the kept terms'
    denominators, and zero sums dropped); no Fraction arithmetic is done.
    """
    kept = []
    for coef, power in terms:
        if power < 0:
            raise ValueError("monomial power must be nonnegative")
        if power <= order:
            kept.append((power, *_rat(coef).as_integer_ratio()))
    den = lcm(*(d for _, _, d in kept))
    acc = {}
    for power, u, d in kept:
        acc[power] = acc.get(power, 0) + u * (den // d)
    return [(p, w) for p, w in acc.items() if w], den


def _reduced(nums, den: int):
    """nums/den in canonical form: den > 0 and gcd(den, *nums) == 1."""
    g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
    if g != 1:
        nums = [x // g for x in nums]
        den //= g
    return nums, den


def _ratio_step(nums, den: int, n: int, scalar: tuple, power: int, polys, dens):
    """:meth:`QSeries.times_ratio` on nums/den at order n, as (y, den) not reduced.

    The scalar is (u, d); a poly is (steps, d) as from :func:`_sparse`, though a
    power may repeat or pass n; a den is (u, d, p).  Power > n gives zeros.
    """
    if min((power, *(p for *_, p in dens), *(p for s, _ in polys for p, _ in s))) < 0:
        raise ValueError("term ratio must not carry a negative power of q")
    if any(p == 0 and u == d for u, d, p in dens):
        raise ZeroDivisionError("denominator factor 1 - c vanishes at c = 1")
    if power > n:
        return [0] * (n + 1), 1
    y = [0] * power + [scalar[0] * x for x in nums[: n + 1 - power]]
    den *= scalar[1]
    for steps, d in polys:
        out = [0] * (n + 1)
        for p, w in steps:
            out[p:] = [o + w * x for o, x in zip(out[p:], y)]
        y = out
        den *= d
    for u, d, p in dens:
        if p == 0:
            y = [d * x for x in y]
            den *= d - u
            continue
        # y_(i-p) is a multiple of d^(n//p - (i-p)//p), a positive power of d
        if d != 1:
            scale = d ** (n // p)
            y = [scale * x for x in y]
            den *= scale
        for i in range(p, n + 1):
            y[i] += u * (y[i - p] // d)
    return y, den


def geometric_inverse(coef, power: int, order: int) -> QSeries:
    """inverse(1 - c*q^m) as the explicit geometric series, for m >= 1.

    Sparse (order//m nonzero terms), so products against it stay cheap.
    """
    if power < 1:
        raise ValueError("geometric inverse needs a positive power")
    return QSeries.one(order).times_ratio(ONE, 0, (), [(coef, power)])
