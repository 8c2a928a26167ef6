"""Continued fractions with polynomial partial quotients: convergents,
tails, the equivalence transform, and numeric evaluation."""

import math
from itertools import islice

import pytest

from qcfrac.cfrac import (
    CFrac,
    Convergents,
    NumericCF,
    approximant,
    contacts,
    equivalence_unit_denominators,
    modified_approximant,
    numeric_cf,
    numeric_value,
    render_cfrac,
    tail,
    worpitzky_index,
)
from qcfrac.errors import HorizonExceeded, NonUnitDenominator, NonUnitSeries, NumericBlowup
from qcfrac.families import ParamPoint, rr_sum, sample_params
from qcfrac.catalog import lookup, register_all
from qcfrac.rationals import rational
from qcfrac.series import QSeries, geometric_inverse

A = rational(2, 3)
POINT = ParamPoint(A, rational(1, 2), rational(1, 3))


def rr_cf(order, a=A):
    return lookup("RR_CF").make_cf(ParamPoint(a, 1, 1), order)


def test_from_terms_sums_repeated_powers():
    half = rational(1, 2)
    cf = CFrac.from_terms(0, 6, lambda n: (
        [(1, 2), (half, 2), (3, 1), (-3, 1), (5, 9)], [(1, 0), (n, 0)]))
    an, bn = cf.element(4)
    # q^1 cancels, q^2 sums and q^9 lies past the order
    assert an == QSeries.monomial(rational(3, 2), 2, 6)
    assert bn == QSeries.constant(5, 6)


def test_from_terms_negative_power_raises_when_asked_for():
    cf = CFrac.from_terms(0, 6, lambda n: ([(1, 1)] if n == 1 else [(1, -1)], [(1, 0)]))
    assert cf.element(1)[0] == QSeries.monomial(1, 1, 6)
    with pytest.raises(ValueError):
        cf.element(2)


def test_from_terms_scalar_b0_is_a_series_at_the_order():
    cf = CFrac.from_terms(rational(2, 3), 9, lambda n: ([(1, n)], [(1, 0)]))
    assert cf.b0 == QSeries.constant(rational(2, 3), 9)
    assert cf.order == 9
    assert approximant(cf, 0) == cf.b0


@pytest.mark.parametrize("order", [12, 40])
def test_entry11_numerators_expand_the_factored_product(order):
    """a_n = -ab q^n + (a^2+b^2) q^(2n-1) - ab q^(3n-2) = q^(n-2)(aq - bq^n)(aq^n - bq)."""
    p = ParamPoint(rational(2, 3), rational(-1, 5), 1)
    cf = lookup("ENTRY11").make_cf(p, order)
    for n in range(2, 13):
        factored = (QSeries.monomial(1, n - 2, order)
                    * QSeries.from_monomials([(p.a, 1), (-p.b, n)], order)
                    * QSeries.from_monomials([(p.a, n), (-p.b, 1)], order))
        assert cf.element(n)[0] == factored


def test_element_indexing():
    cf = rr_cf(10)
    with pytest.raises(IndexError):
        cf.element(0)
    an, bn = cf.element(4)
    assert an == QSeries.monomial(A, 3, 10)


def test_determinant_formula():
    """A_n B_(n-1) - A_(n-1) B_n = (-1)^(n-1) a_1 a_2 ... a_n."""
    cf = rr_cf(60)
    walk = Convergents(cf)
    prod = QSeries.one(60)
    for n in range(1, 21):
        walk.advance()
        prod = prod * cf.element(n)[0]
        det = walk.num * walk.den_prev - walk.num_prev * walk.den
        expect = prod if n % 2 == 1 else prod.scale(-1)
        assert det.first_mismatch(expect) is None


def test_approximants_in_any_depth_order_match_a_fresh_walk():
    """The fraction keeps its last walk; going back to a smaller depth restarts it."""
    cf = rr_cf(30)
    w = QSeries.from_monomials([(1, 0), (A, 2)], 30)
    for n in (3, 5, 5, 2, 0, 7):
        assert approximant(cf, n) == approximant(rr_cf(30), n)
        assert modified_approximant(cf, n, w) == modified_approximant(rr_cf(30), n, w)


def test_depth_two_approximant_is_reciprocal():
    # 1/(1 + aq) exactly
    cf = rr_cf(16)
    got = approximant(cf, 2)
    assert got.first_mismatch(geometric_inverse(-A, 1, 16)) is None


def test_contact_grows_triangularly():
    """The depth-n approximant of the Rogers-Ramanujan fraction agrees with
    the series ratio exactly through q^(n(n+1)/2 - 1)."""
    cf = rr_cf(60)
    ratio = rr_sum(A, 1, 60) * rr_sum(A, 0, 60).inverse()
    for n in range(1, 9):
        fm = approximant(cf, n).first_mismatch(ratio)
        assert fm == n * (n + 1) // 2


def test_modified_approximant_with_true_tail_is_exact():
    """S_n(w_n) with the exact tail value w_n = a q^n R(n+1)/R(n) equals the
    full ratio at every depth, not just in the limit."""
    order = 40
    cf = rr_cf(order)
    ratio = rr_sum(A, 1, order) * rr_sum(A, 0, order).inverse()
    for n in range(1, 7):
        wn = (QSeries.monomial(A, n, order)
              * rr_sum(A, n + 1, order)
              * rr_sum(A, n, order).inverse())
        assert modified_approximant(cf, n, wn).first_mismatch(ratio) is None


def test_plain_approximant_is_not_exact():
    cf = rr_cf(40)
    ratio = rr_sum(A, 1, 40) * rr_sum(A, 0, 40).inverse()
    assert approximant(cf, 4).first_mismatch(ratio) is not None


def test_tail_reindexes_elements():
    cf = rr_cf(12)
    t = tail(cf, 3)
    assert t.element(1) == cf.element(4)
    assert t.b0 == QSeries.zero(12)


def test_tail_composition():
    """S_(m+k)(0) = S_m(depth-k approximant of the m-th tail)."""
    cf = rr_cf(50)
    for m, k in ((1, 3), (2, 2), (3, 4)):
        inner = approximant(tail(cf, m), k)
        assert (approximant(cf, m + k).first_mismatch(
            modified_approximant(cf, m, inner))) is None


def test_equivalence_preserves_approximants():
    cf = lookup("G_CFRAC_g2").make_cf(POINT, 40)
    eq = equivalence_unit_denominators(cf)
    for n in range(1, 16):
        assert approximant(cf, n).first_mismatch(approximant(eq, n)) is None
        assert eq.element(n)[1] == QSeries.one(40)


def test_equivalence_element_formula():
    # the third element picks up 1/((1+bq)(1+bq^2))
    b, lam = POINT.b, POINT.lam
    eq = equivalence_unit_denominators(lookup("G_CFRAC_g2").make_cf(POINT, 30))
    expect = (QSeries.monomial(lam, 2, 30)
              * geometric_inverse(-b, 1, 30)
              * geometric_inverse(-b, 2, 30))
    assert eq.element(3)[0].first_mismatch(expect) is None


def test_equivalence_needs_unit_denominators():
    bad = CFrac(QSeries.zero(10),
                lambda n: (QSeries.one(10), QSeries.monomial(1, 1, 10)))
    with pytest.raises(NonUnitDenominator):
        equivalence_unit_denominators(bad).element(1)


def test_approximant_non_unit_denominator():
    # b1 = -a1 = -1 makes B_2 = 1 - 1 = 0
    bad = CFrac(QSeries.zero(10),
                lambda n: (QSeries.constant(-1, 10), QSeries.one(10)))
    with pytest.raises(NonUnitDenominator):
        approximant(bad, 2)


CF_ENTRIES = [e for e in register_all() if e.make_cf is not None]


@pytest.mark.parametrize("entry", CF_ENTRIES, ids=lambda e: e.id)
def test_contact_walk_matches_the_approximants(entry):
    """At three seed-0 points, the walk's contact is where A_n/B_n first
    differs from num/den, and never below the floor F(n)."""
    points = [p for p in sample_params(0, 64) if entry.constraint_failure(p) is None][:3]
    assert len(points) == 3
    for point in points:
        cf = entry.make_cf(point, 40)
        num, den = entry.targets(point, 40)
        ratio = num * den.inverse()
        for n, contact, floor in islice(contacts(cf, num, den), 12):
            assert contact == approximant(cf, n).first_mismatch(ratio)
            assert contact is None or floor <= contact


def test_contact_floor_sums_the_numerator_valuations():
    # a_1 = 1 and a_n = a q^(n-1): F(n) = 0 + 1 + ... + n
    walk = contacts(rr_cf(40), rr_sum(A, 1, 40), rr_sum(A, 0, 40))
    assert [floor for _, _, floor in islice(walk, 10)] == [
        n * (n + 1) // 2 for n in range(1, 11)]


def test_contact_floor_counts_a_zero_numerator_past_the_order():
    cf = CFrac(QSeries.zero(10), lambda n: (
        QSeries.zero(10) if n == 3 else QSeries.one(10), QSeries.one(10)))
    walk = contacts(cf, QSeries.one(10), QSeries.constant(2, 10))
    assert [floor for _, _, floor in islice(walk, 3)] == [0, 11, 11]


def test_contact_walk_raises_at_the_first_non_unit_denominator():
    # b_n = -a_n = 1 makes B_2 = 1 - 1 = 0
    bad = CFrac(QSeries.zero(10),
                lambda n: (QSeries.constant(-1, 10), QSeries.one(10)))
    walk = contacts(bad, QSeries.one(10), QSeries.one(10))
    assert next(walk)[0] == 1
    with pytest.raises(NonUnitDenominator, match="B_2 "):
        next(walk)


def test_contact_walk_needs_a_unit_target_denominator():
    walk = contacts(rr_cf(10), QSeries.one(10), QSeries.monomial(1, 1, 10))
    with pytest.raises(NonUnitSeries, match="zero constant term"):
        next(walk)


def test_worpitzky_index_of_rr_tail():
    cf = rr_cf(40, a=1)
    t = tail(cf, 1)
    assert worpitzky_index(numeric_cf(t, rational(1, 2))) == 2
    assert worpitzky_index(numeric_cf(t, rational(9, 10))) == 14


def test_worpitzky_horizon():
    flat = NumericCF(0.0, lambda n: (1.0, 1.0))
    with pytest.raises(HorizonExceeded):
        worpitzky_index(flat)


def test_golden_ratio():
    phi = NumericCF(1.0, lambda n: (1.0, 1.0))
    assert math.isclose(numeric_value(phi, 50), (1 + 5 ** 0.5) / 2, rel_tol=1e-12)


def test_numeric_matches_exact_convergents():
    cf = rr_cf(60)
    q0 = rational(1, 3)
    ncf = numeric_cf(cf, q0)
    walk = Convergents(cf)
    for n in range(1, 9):
        walk.advance()
        exact = walk.num.evaluate(q0) / walk.den.evaluate(q0)
        assert abs(numeric_value(ncf, n) - float(exact)) < 1e-12


def test_numeric_blowup():
    zero_den = NumericCF(0.0, lambda n: (1.0, 0.0))
    with pytest.raises(NumericBlowup):
        numeric_value(zero_den, 1)


def test_render_cfrac():
    text = render_cfrac(rr_cf(10), count=2)
    assert text.startswith("1/(1 +)")
    assert text.endswith("...")
