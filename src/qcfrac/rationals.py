"""Exact rational scalars.

Scalars are the parameters of every identity and the coefficients of the
term-ratio factors in ``families.hyper_sum``; series coefficients are Python
ints over one common denominator (see :mod:`qcfrac.series`) and meet a
scalar only at the edges.  Scalars are stdlib ``fractions.Fraction``
values: exact, in lowest terms with a positive denominator, and printed in
the canonical ``p/q`` (or bare ``p``) form.  Floats are rejected, so a
scalar is always the exact value that was written.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction, str]


def rational(num: RationalLike = 0, den: int | None = None) -> Fraction:
    """Build an exact rational from an int, Fraction, ``p/q`` string, or pair.

    Raises TypeError for a float, whose binary value is rarely the one meant.
    """
    if isinstance(num, float):
        raise TypeError(f"floats are not exact rationals: {num!r}")
    if den is not None:
        return Fraction(num, den)
    if isinstance(num, str):
        return parse_rational(num)
    return Fraction(num)


#: Additive and multiplicative identities, shared to avoid re-allocation.
ZERO = rational(0)
ONE = rational(1)


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` with optional sign.  Rejects floats and empty input.

    Raises ValueError for anything that is not an exact integer ratio.
    """
    s = text.strip()
    num, sep, den = s.partition("/")
    try:
        if sep:
            value = Fraction(int(num), int(den))
        else:
            value = Fraction(int(num))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational: {text!r}") from exc
    return value


def format_rational(value) -> str:
    """Canonical text form: ``p/q`` in lowest terms, or ``p`` for integers."""
    return str(value)


def backend_name() -> str:
    """The scalar arithmetic in use; always "fractions" (stamped on benchmark results)."""
    return "fractions"
