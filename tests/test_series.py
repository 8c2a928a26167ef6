"""Truncated power series arithmetic over exact rationals."""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from qcfrac.errors import NonUnitSeries
from qcfrac.rationals import rational
from qcfrac.series import QMonomial, QSeries, _sparse, geometric_inverse

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
).map(lambda f: rational(f.numerator, f.denominator))


def series(order=12):
    return st.lists(rationals, min_size=1, max_size=order + 1).map(
        lambda cs: QSeries(order, cs)
    )


def test_constructors_and_indexing():
    s = QSeries.from_monomials([(1, 0), (-2, 3)], 6)
    assert s[0] == 1
    assert s[3] == -2
    assert s[1] == s[6] == 0
    assert s.order == 6
    with pytest.raises(IndexError):
        s[7]
    # repeated powers sum, as in catalog's [(lam, j), (b, j // 2)] at j = 0
    lam, b = rational(2, 3), rational(-1, 5)
    assert QSeries.from_monomials([(lam, 0), (b, 0)], 4) == QSeries.constant(lam + b, 4)
    assert QSeries.from_monomials([(1, 2), (-1, 2), (3, 9)], 4) == QSeries.zero(4)


def test_monomial_rejects_negative_power():
    with pytest.raises(ValueError):
        QMonomial(1, -1)
    with pytest.raises(ValueError):
        QSeries.monomial(1, -1, 5)
    with pytest.raises(ValueError):
        QSeries.from_monomials([(1, 0), (2, -2)], 5)
    for ratio in ((1, -1, [], []), (1, 0, [[(1, 0), (1, -2)]], []), (1, 0, [], [(2, -1)])):
        with pytest.raises(ValueError):
            QSeries.one(5).times_ratio(*ratio)


def test_mul_truncates_at_order():
    # (1 + q)^2 at order 1 keeps only 1 + 2q
    s = QSeries.from_monomials([(1, 0), (1, 1)], 1)
    assert (s * s).coeffs == (rational(1), rational(2))


def test_known_inverse():
    """1/(2 - q) = sum_k q^k / 2^(k+1)."""
    s = QSeries.from_monomials([(2, 0), (-1, 1)], 8)
    inv = s.inverse()
    for k in range(9):
        assert inv[k] == rational(1, 2 ** (k + 1))


def test_geometric_inverse_is_geometric_series():
    g = geometric_inverse(rational(1, 3), 2, 12)
    for k in range(13):
        assert g[k] == (rational(1, 3 ** (k // 2)) if k % 2 == 0 else 0)


def test_geometric_inverse_requires_positive_power():
    with pytest.raises(ValueError):
        geometric_inverse(1, 0, 10)


def test_inverse_needs_nonzero_constant():
    with pytest.raises(NonUnitSeries):
        QSeries.monomial(1, 1, 5).inverse()


def test_shift_down():
    s = QSeries.from_monomials([(3, 2), (5, 4)], 6)
    t = s.shift_down(2)
    assert t.order == 4
    assert t[0] == 3 and t[2] == 5


def test_shift_down_below_valuation():
    s = QSeries.from_monomials([(1, 1)], 5)
    with pytest.raises(ValueError):
        s.shift_down(2)


def test_first_mismatch_and_agreement():
    a = QSeries.from_monomials([(1, 0), (1, 5)], 10)
    b = QSeries.from_monomials([(1, 0), (2, 5)], 10)
    assert a.first_mismatch(b) == 5
    assert a.agrees_to(b, 4)
    assert not a.agrees_to(b, 5)
    assert a.first_mismatch(a) is None


def test_evaluate_exact():
    s = QSeries.from_monomials([(1, 0), (-1, 2)], 4)
    assert s.evaluate(rational(1, 2)) == rational(3, 4)


@given(series(), series(), series())
def test_ring_laws(a, b, c):
    assert (a + b).coeffs == (b + a).coeffs
    assert (a * b).coeffs == (b * a).coeffs
    assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
    assert (a * (b + c)).coeffs == (a * b + a * c).coeffs


@given(series())
def test_sub_is_add_negation(a):
    z = a - a
    assert all(c == 0 for c in z.coeffs)


@given(series())
def test_inverse_round_trips(a):
    """inv(inv(s)) = s whenever the constant term is nonzero."""
    if a[0] == 0:
        with pytest.raises(NonUnitSeries):
            a.inverse()
        return
    assert a.inverse().inverse().first_mismatch(a) is None
    prod = a * a.inverse()
    assert prod[0] == 1
    assert all(prod[k] == 0 for k in range(1, prod.order + 1))


@given(series(), st.integers(min_value=0, max_value=12))
def test_truncate_is_prefix(a, n):
    t = a.truncate(min(n, a.order))
    assert t.coeffs == a.coeffs[: t.order + 1]


def test_valuation():
    assert QSeries.zero(5).valuation() is None
    assert QSeries.from_monomials([(2, 3)], 5).valuation() == 3
    assert QSeries.one(5).valuation() == 0


def test_render_uses_caret_powers():
    s = QSeries.from_monomials([(1, 0), (-1, 1), (rational(1, 2), 3)], 4)
    text = s.render()
    assert "q^3" in text and "1/2" in text


# Reference kernel: one Fraction per coefficient, schoolbook product and the
# inverse recurrence out[m] = -out[0] * sum_k d_k out[m-k].


def ref_mul(a, b):
    n = min(len(a), len(b))
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return out


def ref_inverse(d):
    if d[0] == 0:
        raise NonUnitSeries("zero constant term")
    inv0 = 1 / d[0]
    out = [inv0]
    for m in range(1, len(d)):
        out.append(-inv0 * sum(d[k] * out[m - k] for k in range(1, m + 1)))
    return out


wide = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
#: Coefficient lists c0..cN of mixed orders N, with zeros (also at c0) common.
coeff_lists = st.integers(min_value=0, max_value=10).flatmap(
    lambda n: st.lists(st.one_of(st.just(Fraction(0)), wide), min_size=n + 1, max_size=n + 1))


@given(coeff_lists, coeff_lists, wide, st.integers(min_value=0, max_value=10))
def test_kernel_matches_fraction_reference(ca, cb, f, k):
    a, b = QSeries(len(ca) - 1, ca), QSeries(len(cb) - 1, cb)
    assert (a * b).coeffs == tuple(ref_mul(ca, cb))
    assert (a + b).coeffs == tuple(x + y for x, y in zip(ca, cb))
    assert (a - b).coeffs == tuple(x - y for x, y in zip(ca, cb))
    assert a.scale(f).coeffs == tuple(f * x for x in ca)
    assert a.evaluate(f) == sum(c * f**i for i, c in enumerate(ca))
    diff = [i for i, (x, y) in enumerate(zip(ca, cb)) if x != y]
    assert a.first_mismatch(b) == (diff[0] if diff else None)
    if ca[0] == 0:
        with pytest.raises(NonUnitSeries):
            a.inverse()
    else:
        assert a.inverse().coeffs == tuple(ref_inverse(ca))
    m = min(k, a.order)
    kept = ca[: len(ca) - m]
    assert QSeries(a.order, [0] * m + kept).shift_down(m).coeffs == tuple(kept)
    assert a.truncate(m).coeffs == tuple(ca[: m + 1])


@given(coeff_lists, coeff_lists, st.integers(min_value=0, max_value=10))
def test_equal_values_along_different_paths_are_equal_and_hash_alike(ca, cb, k):
    a, b = QSeries(len(ca) - 1, ca), QSeries(len(cb) - 1, cb)
    n = min(a.order, b.order)
    k = min(k, n)
    pairs = [
        ((a * b).truncate(k), a.truncate(k) * b.truncate(k)),
        ((a * b).truncate(k), QSeries(k, ref_mul(ca, cb)[: k + 1])),
        ((a + b) - b, a.truncate(n)),
        (a.scale(3).scale(Fraction(1, 3)), a),
        (-(-a), a),
        (a - a, QSeries.zero(a.order)),
    ]
    if a.is_unit():
        pairs.append((a.inverse().inverse(), a))
    for x, y in pairs:
        assert x == y
        assert hash(x) == hash(y)


def ref_geometric(c, p, n):
    """1/(1 - c*q^p) through q^n; the constant 1/(1 - c) when p = 0."""
    if p == 0:
        return [1 / (1 - c)] + [Fraction(0)] * n
    return [c ** (i // p) if i % p == 0 else Fraction(0) for i in range(n + 1)]


def ref_poly(terms, n):
    out = [Fraction(0)] * (n + 1)
    for c, p in terms:
        if p <= n:
            out[p] += c
    return out


small = st.one_of(st.sampled_from([Fraction(0), Fraction(-1), Fraction(1)]),
                  st.fractions(min_value=-9, max_value=9, max_denominator=16))
#: Powers from 0 through past the largest order, crowded low so they repeat.
powers = st.one_of(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=15))
polys = st.lists(st.lists(st.tuples(small, powers), min_size=1, max_size=4), max_size=2)
dens = st.lists(st.tuples(small, powers).filter(lambda cp: cp != (1, 0)), max_size=3)


@given(st.integers(min_value=0, max_value=12).flatmap(
           lambda n: st.lists(st.one_of(st.just(Fraction(0)), wide), min_size=n + 1,
                              max_size=n + 1)),
       small, powers, polys, dens)
def test_times_ratio_matches_fraction_reference(ca, scalar, power, polys, dens):
    n = len(ca) - 1
    want = ref_mul(ca, ref_poly([(scalar, power)], n))
    for poly in polys:
        want = ref_mul(want, ref_poly(poly, n))
    for c, p in dens:
        want = ref_mul(want, ref_geometric(c, p, n))
    got = QSeries(n, ca).times_ratio(scalar, power, polys, dens)
    assert got == QSeries(n, want)
    assert hash(got) == hash(QSeries(n, want))
    for c, p in dens:
        if p >= 1:
            assert geometric_inverse(c, p, n) == QSeries(n, ref_geometric(c, p, n))


#: Coefficients of a term list: small ints, and Fractions with denominators
#: up to 10^6.
term_coeffs = st.one_of(st.integers(min_value=-50, max_value=50),
                        st.fractions(min_value=-50, max_value=50, max_denominator=10**6))


@st.composite
def term_lists(draw):
    """(order, terms): powers crowd low and run past the order, and some
    terms come back negated, so repeated powers both sum and cancel."""
    order = draw(st.integers(min_value=0, max_value=12))
    terms = draw(st.lists(st.tuples(term_coeffs, st.integers(min_value=0, max_value=order + 4)),
                          max_size=8))
    cancel = draw(st.lists(st.sampled_from(terms), max_size=len(terms))) if terms else []
    return order, draw(st.permutations(terms + [(-c, p) for c, p in cancel]))


@given(term_lists())
@example((4, [(Fraction(1, 999983), 2), (3, 2), (-3, 2), (-Fraction(1, 999983), 2),
              (Fraction(7, 10**6), 1), (2, 1), (5, 7), (Fraction(1, 3), 5)]))
def test_term_lists_sum_as_fractions_do(case):
    order, terms = case
    want = [Fraction(0)] * (order + 1)
    for c, p in terms:
        if p <= order:
            want[p] += Fraction(c)
    got = QSeries.from_monomials(terms, order)
    assert got == QSeries(order, want)
    assert hash(got) == hash(QSeries(order, want))
    steps, den = _sparse(terms, order)
    assert sorted(p for p, _ in steps) == [p for p, c in enumerate(want) if c]
    assert all(Fraction(w, den) == want[p] for p, w in steps)
