"""Euler's division algorithm: series ratios to continued fractions.

One step rewrites N/D (both with constant term exactly 1) as

    N/D = 1 + (N - D)/D = 1 + c*q^m / (D / E),

where c*q^m is the lowest term of N - D and E = (N - D)/(c*q^m).  Iterating
on the pair (D, E) peels off one monomial partial numerator per step and
yields the fraction  1 + f1/(1 + f2/(1 + ...)).

Dividing by q^m genuinely loses m orders of precision, so the expansion
tracks the usable residual order and stops with PrecisionExhausted (carrying
the partial trace) rather than fabricating factors the truncation cannot
support.

The same idea on integers is the Euclidean algorithm; :func:`euclid_cf` is
included as the degenerate case for contrast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .cfrac import CFrac
from .errors import NonUnitInput, PrecisionExhausted
from .series import QMonomial, QSeries


@dataclass(frozen=True)
class EulerStepResult:
    """Outcome of one division step.

    ``factor`` is the extracted partial numerator c*q^m and ``next_den`` the
    unit series E that replaces the denominator in the following step; both
    are None when the inputs agree through the working order (``terminated``).
    """

    factor: Optional[QMonomial]
    next_den: Optional[QSeries]
    terminated: bool


def euler_step(num: QSeries, den: QSeries) -> EulerStepResult:
    """One step of Euler's algorithm on a pair of constant-term-1 series."""
    _require_unit_one(num, "numerator")
    _require_unit_one(den, "denominator")
    delta = num - den
    val = delta.valuation()
    if val is None:
        return EulerStepResult(None, None, True)
    c = delta[val]
    tail = delta.shift_down(val).scale(1 / c)
    return EulerStepResult(QMonomial(c, val), tail, False)


def _require_unit_one(s: QSeries, which: str) -> None:
    if s.nums[0] != s.den:
        raise NonUnitInput(f"{which} must have constant term exactly 1")


@dataclass
class ExpansionTrace:
    """Factors produced by repeated division, plus precision bookkeeping.

    ``residual_order`` is the usable truncation order left after the last
    step (each extracted q^m costs m orders).  ``terminated`` marks an exact
    agreement: the ratio was a finite fraction at this truncation.
    """

    factors: List[QMonomial] = field(default_factory=list)
    orders: List[int] = field(default_factory=list)
    residual_order: int = 0
    terminated: bool = False

    def depth(self) -> int:
        return len(self.factors)

    def as_cfrac(self, order: int):
        """The produced fraction 1 + f1/(1 + f2/(1 + ...)) at the given order.

        Only the factors actually extracted are available; asking for a
        deeper element raises IndexError.
        """
        factors = self.factors

        def elem(n: int):
            if n > len(factors):
                raise IndexError(f"expansion produced only {len(factors)} factors")
            f = factors[n - 1]
            return [(f.coef, f.power)], [(1, 0)]

        return CFrac.from_terms(1, order, elem)

    def factor_strings(self) -> List[str]:
        return [str(f) for f in self.factors]


def euler_expand(num: QSeries, den: QSeries, depth: int, floor: int = 2) -> ExpansionTrace:
    """Repeated division steps until ``depth`` factors are extracted.

    Both inputs must have constant term exactly 1 (NonUnitInput).  When the
    usable order would drop below ``floor`` before reaching the requested
    depth, PrecisionExhausted is raised with the partial trace attached; a
    trace that ends because the pair became equal is returned with
    ``terminated`` set instead.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    cur_num, cur_den = num, den
    trace = ExpansionTrace(residual_order=min(num.order, den.order))
    while trace.depth() < depth:
        step = euler_step(cur_num, cur_den)
        if step.terminated:
            trace.terminated = True
            return trace
        trace.factors.append(step.factor)
        trace.residual_order = step.next_den.order
        trace.orders.append(step.next_den.order)
        if trace.residual_order < floor and trace.depth() < depth:
            raise PrecisionExhausted(
                "only %d of %d factors fit in the available precision"
                % (trace.depth(), depth),
                partial=trace,
            )
        cur_num, cur_den = cur_den.truncate(step.next_den.order), step.next_den
    return trace


def verify_three_term(
    s0: QSeries, s1: QSeries, s2: QSeries, c1: QSeries, c2: QSeries
) -> Optional[int]:
    """Check s0 == c1*s1 + c2*s2; None on agreement, else the first bad power."""
    return s0.first_mismatch(c1 * s1 + c2 * s2)


def euclid_cf(num: int, den: int) -> List[int]:
    """Euclidean continued fraction [a0; a1, ...] of num/den, e.g. 13/8 -> [1,1,1,1,2].

    Uses floor division, so negative inputs follow the usual convention of a
    negative leading quotient.  The expansion ends with a quotient > 1 when
    possible, matching the canonical form.
    """
    if den == 0:
        raise ZeroDivisionError("denominator must be nonzero")
    if den < 0:
        num, den = -num, -den
    out: List[int] = []
    while True:
        quot, rem = divmod(num, den)
        out.append(quot)
        if rem == 0:
            return out
        num, den = den, rem


def euclid_value(quotients: List[int]):
    """Exact value of a Euclidean quotient list (for round-trip checks)."""
    from .rationals import rational

    if not quotients:
        raise ValueError("empty quotient list")
    acc = rational(quotients[-1])
    for a in reversed(quotients[:-1]):
        acc = rational(a) + 1 / acc
    return acc
