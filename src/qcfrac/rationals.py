"""Exact rational scalars.

Scalars serve the parameters of every identity and the running terms of
``families.hyper_sum``; series coefficients are Python ints over one common
denominator (see :mod:`qcfrac.series`) and meet a scalar only at the edges.
We use ``gmpy2.mpq`` when it is importable and fall back to the stdlib
``fractions.Fraction`` otherwise.  Both types share the semantics we rely on:
exact arbitrary-precision values, automatic lowest terms, positive
denominators, and a canonical ``p/q`` (or bare ``p``) string form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

try:  # pragma: no cover - exercised implicitly by the import that succeeds
    from gmpy2 import mpq as _mpq

    _HAVE_GMPY2 = True
except ImportError:  # pragma: no cover
    _mpq = Fraction
    _HAVE_GMPY2 = False

RationalLike = Union[int, Fraction, str]


def rational(num: RationalLike = 0, den: int | None = None):
    """Build an exact rational from an int, Fraction, ``p/q`` string, or pair."""
    if den is not None:
        return _mpq(num, den)
    if isinstance(num, str):
        return parse_rational(num)
    return _mpq(num)


#: Additive and multiplicative identities, shared to avoid re-allocation.
ZERO = rational(0)
ONE = rational(1)


def parse_rational(text: str):
    """Parse ``p`` or ``p/q`` with optional sign.  Rejects floats and empty input.

    Raises ValueError for anything that is not an exact integer ratio.
    """
    s = text.strip()
    num, sep, den = s.partition("/")
    try:
        if sep:
            value = _mpq(int(num), int(den))
        else:
            value = _mpq(int(num))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational: {text!r}") from exc
    return value


def format_rational(value) -> str:
    """Canonical text form: ``p/q`` in lowest terms, or ``p`` for integers."""
    return str(value)


def as_fraction(value) -> Fraction:
    """Convert back to a stdlib Fraction (handy for float-free comparisons)."""
    return Fraction(int(value.numerator), int(value.denominator))


def backend_name() -> str:
    """Which arithmetic backend is active ("gmpy2" or "fractions")."""
    return "gmpy2" if _HAVE_GMPY2 else "fractions"
