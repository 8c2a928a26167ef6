"""Truncated formal power series in q with exact rational coefficients.

A :class:`QSeries` holds coefficients c0..cN for a fixed truncation order N
(inclusive), i.e. it represents  c0 + c1*q + ... + cN*q^N + O(q^(N+1)).
All operations are exact and pure; mixing two series truncates the result to
the smaller order, mirroring how precision actually propagates.

Multiplication walks the sparser operand's nonzero coefficients, which makes
products against polynomial factors like (1 - c*q^m) linear instead of
quadratic — the Pochhammer builders and continued-fraction recurrences lean
on this heavily.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import NonUnitSeries
from .rationals import ONE, ZERO, format_rational, rational


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


class QSeries:
    """Immutable truncated power series in q over the exact rationals."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable = ()):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        cs = [rational(c) if not _is_rat(c) else c for c in coeffs]
        if len(cs) > order + 1:
            raise ValueError("more coefficients than the order admits")
        cs.extend([ZERO] * (order + 1 - len(cs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

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
        cs = [ZERO] * (order + 1)
        if power <= order:
            cs[power] = rational(coef)
        return QSeries(order, cs)

    @staticmethod
    def from_monomials(terms: Sequence[tuple], order: int) -> "QSeries":
        """Sum of (coef, power) pairs, truncated to the order."""
        cs = [ZERO] * (order + 1)
        for coef, power in terms:
            if power <= order:
                cs[power] = cs[power] + rational(coef)
        return QSeries(order, cs)

    # -- basic protocol -----------------------------------------------------

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"QSeries(order={self.order}, {self.render()})"

    def __getitem__(self, power: int):
        return self.coeffs[power]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_unit(self) -> bool:
        """True when the constant term is nonzero, i.e. the series is invertible."""
        return self.coeffs[0] != 0

    def valuation(self) -> Optional[int]:
        """Lowest power with a nonzero coefficient, or None for the zero truncation."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return QSeries(n, [a[i] + b[i] for i in range(n + 1)])

    def __sub__(self, other: "QSeries") -> "QSeries":
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return QSeries(n, [a[i] - b[i] for i in range(n + 1)])

    def __neg__(self) -> "QSeries":
        return QSeries(self.order, [-c for c in self.coeffs])

    def __mul__(self, other: "QSeries") -> "QSeries":
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        # Iterate over the operand with fewer nonzero entries in range.
        an = sum(1 for c in a[: n + 1] if c != 0)
        bn = sum(1 for c in b[: n + 1] if c != 0)
        if bn < an:
            a, b = b, a
        out = [ZERO] * (n + 1)
        for i in range(n + 1):
            ci = a[i]
            if ci == 0:
                continue
            for j in range(n + 1 - i):
                cj = b[j]
                if cj != 0:
                    out[i + j] = out[i + j] + ci * cj
        return QSeries(n, out)

    def scale(self, factor) -> "QSeries":
        f = rational(factor) if not _is_rat(factor) else factor
        return QSeries(self.order, [f * c for c in self.coeffs])

    def inverse(self) -> "QSeries":
        """Multiplicative inverse at the same order.

        Raises NonUnitSeries when the constant term vanishes.
        """
        d = self.coeffs
        if d[0] == 0:
            raise NonUnitSeries("cannot invert a series with zero constant term")
        n = self.order
        inv0 = ONE / d[0]
        out = [ZERO] * (n + 1)
        out[0] = inv0
        for m in range(1, n + 1):
            acc = ZERO
            for k in range(1, m + 1):
                dk = d[k]
                if dk != 0:
                    acc = acc + dk * out[m - k]
            out[m] = -inv0 * acc
        return QSeries(n, out)

    def shift_down(self, m: int) -> "QSeries":
        """Divide by q^m, assuming the first m coefficients vanish.

        The result is known one power less per division step: order drops by m.
        """
        if m == 0:
            return self
        if any(c != 0 for c in self.coeffs[:m]):
            raise ValueError("series is not divisible by q^%d" % m)
        return QSeries(self.order - m, self.coeffs[m:])

    def truncate(self, order: int) -> "QSeries":
        if order >= self.order:
            return self
        return QSeries(order, self.coeffs[: order + 1])

    def evaluate(self, q0):
        """Exact Horner evaluation of the truncated polynomial at a rational q0."""
        x = rational(q0) if not _is_rat(q0) else q0
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- comparison and rendering ------------------------------------------

    def first_mismatch(self, other: "QSeries") -> Optional[int]:
        """Lowest power where the two truncations disagree, up to the common order."""
        n = min(self.order, other.order)
        for i in range(n + 1):
            if self.coeffs[i] != other.coeffs[i]:
                return i
        return None

    def agrees_to(self, other: "QSeries", order: int) -> bool:
        """Exact coefficient agreement through q^order (must be within both truncations)."""
        if order > min(self.order, other.order):
            raise ValueError("agreement order exceeds the known truncation")
        return all(self.coeffs[i] == other.coeffs[i] for i in range(order + 1))

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


def _is_rat(x) -> bool:
    return type(x) is type(ZERO)


def geometric_inverse(coef, power: int, order: int) -> QSeries:
    """inverse(1 - c*q^m) as the explicit geometric series, for m >= 1.

    Sparse (order//m nonzero terms), so products against it stay cheap.
    """
    if power < 1:
        raise ValueError("geometric inverse needs a positive power")
    c = rational(coef) if not _is_rat(coef) else coef
    cs = [ZERO] * (order + 1)
    acc = ONE
    i = 0
    while i <= order:
        cs[i] = acc
        acc = acc * c
        i += power
    return QSeries(order, cs)
