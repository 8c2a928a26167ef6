"""Basic hypergeometric building blocks: Pochhammer products and the sum
families behind the continued-fraction identities."""

import hashlib
import json
import sys
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qcfrac import catalog, families
from qcfrac.cli import main
from qcfrac.errors import FormallyDivergentProduct, PoleAtParameter, UnsupportedShift
from qcfrac.families import (
    DEFAULT_POINT,
    Family,
    ParamPoint,
    TermRatio,
    big_g_sum,
    build_family,
    c_sum,
    eisenstein_sum,
    g1_sum,
    g1ab_sum,
    g2_big_sum,
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
from qcfrac.rationals import rational
from qcfrac.series import QMonomial, QSeries


def coeffs(s):
    return [str(c) for c in s.coeffs]


def test_finite_pochhammer_example():
    # (q; q)_2 = (1 - q)(1 - q^2)
    assert coeffs(pochhammer_finite(QMonomial(1, 1), 2, 4)) == ["1", "-1", "-1", "1", "0"]


def test_finite_pochhammer_k0_is_one():
    assert pochhammer_finite(QMonomial(1, 1), 0, 6) == QSeries.one(6)


def test_finite_pochhammer_scalar_base():
    # a scalar base is allowed for finite products: (2; q)_1 = 1 - 2
    p = pochhammer_finite(QMonomial(2, 0), 1, 3)
    assert p[0] == -1


def test_pentagonal_numbers():
    """Euler: (q; q)inf = sum (-1)^k q^(k(3k-1)/2), exponents 0,1,2,5,7,12..."""
    assert coeffs(pochhammer_infinite(QMonomial(1, 1), 12)) == [
        "1", "-1", "-1", "0", "0", "1", "0", "1", "0", "0", "0", "0", "-1",
    ]


def test_infinite_product_rejects_scalar_base():
    with pytest.raises(FormallyDivergentProduct):
        pochhammer_infinite(QMonomial(1, 0), 10)


def test_step_products_skip_powers():
    # (q; q^2)inf = (1-q)(1-q^3)(1-q^5)... has no q^2 term
    p = pochhammer_infinite(QMonomial(1, 1), 6, step=2)
    assert p[1] == -1 and p[2] == 0


def test_vanishing_base_limit():
    # the a -> 0 limit of (-l/a; q)_k a^k is l^k q^(k(k-1)/2)
    lim = limit_pochhammer_scaled(2, 3, 6)
    assert coeffs(lim) == ["0", "0", "0", "8", "0", "0", "0"]
    assert limit_pochhammer_scaled(5, 0, 4) == QSeries.one(4)


def test_rr_sum_small_coefficients():
    assert coeffs(rr_sum(1, 0, 4)) == ["1", "1", "1", "1", "2"]


def test_rr_sum_difference_is_shifted_sum():
    """R(0) - R(1) = a q R(2), the three-term relation at shift 0."""
    for a in (rational(1), rational(1, 3), rational(-2, 7)):
        lhs = rr_sum(a, 0, 30) - rr_sum(a, 1, 30)
        rhs = QSeries.monomial(a, 1, 30) * rr_sum(a, 2, 30)
        assert lhs.first_mismatch(rhs) is None


def test_rr_recursion_through_shift_eight():
    a = rational(2, 5)
    for s in range(9):
        lhs = rr_sum(a, s, 40)
        rhs = rr_sum(a, s + 1, 40) + QSeries.monomial(a, s + 1, 40) * rr_sum(a, s + 2, 40)
        assert lhs.first_mismatch(rhs) is None


def test_g_sum_degenerates_to_rr():
    a = rational(1, 3)
    for s in (0, 1):
        assert g_sum(0, a, s, 25).first_mismatch(rr_sum(a, s, 25)) is None


def test_big_g_sum_degenerates_to_g():
    b, lam = rational(1, 2), rational(-2, 3)
    for s in (0, 1):
        assert (big_g_sum(0, 0, b, lam, 0, s, 25)
                .first_mismatch(g_sum(b, lam, s, 25))) is None


def test_eisenstein_partial_theta():
    # sum (-a)^k q^(k(k+1)/2) at a = 1: exponents 1, 3, 6, 10
    assert coeffs(eisenstein_sum(1, 0, 10)) == [
        "1", "-1", "0", "1", "0", "0", "-1", "0", "0", "0", "1",
    ]


def test_c_sum_is_unit():
    assert c_sum(rational(1, 2), rational(1, 3), 1, 10)[0] == 1


def test_c_sum_pole_at_zero():
    with pytest.raises(PoleAtParameter):
        c_sum(0, rational(1, 3), 1, 10)
    with pytest.raises(PoleAtParameter):
        g1_sum(-1, 0, rational(1, 3), 0, 10)
    with pytest.raises(PoleAtParameter):
        g1ab_sum(rational(1, 2), rational(1, 3), 0, 0, 10)
    with pytest.raises(PoleAtParameter):
        g2_big_sum(0, rational(1, 3), rational(1, 5), 1, 10)


def test_hyper_sum_constant_pole_raises():
    # ratio (q, 1/(1 - 1)): the p = 0 denominator factor with c = 1 is a pole
    with pytest.raises(ZeroDivisionError):
        hyper_sum(5, TermRatio(1, (0, 1), dens=((1, (0, 0)),)))


@pytest.mark.parametrize("spec", [
    TermRatio(1, (0, -1)),
    TermRatio(1, (0, 1), polys=(((1, (0, 0)), (1, (1, -2))),)),
    TermRatio(1, (0, 1), dens=((2, (1, -2)),)),
])
def test_hyper_sum_negative_power_raises(spec):
    """A power of q that is negative at step 1, in the monomial, a poly or a den."""
    with pytest.raises(ValueError, match="negative power of q"):
        hyper_sum(5, spec)


def test_hyper_sum_term_with_negative_denominator():
    """1/(1 - 3) at step 1 leaves t_1 = -q/2 over a negative denominator; the
    sum still comes out in canonical form."""
    got = hyper_sum(3, TermRatio(1, (0, 1), dens=((3, (1, -1)),)))
    assert got == QSeries(3, [1, Fraction(-1, 2), Fraction(-1, 2), -2])


def test_hyper_sum_stops_at_zero_scalar():
    """A zero scalar ends the sum there, and so does ``last`` (QBIN's finite
    partial sum relies on it).  The factor 1/(1 - q^(j - k)) is the pole
    1/(1 - 1) at step j, so neither sum builds a later term."""
    def pole_at(j):
        return ((1, (-1, j)),)

    assert hyper_sum(5, TermRatio(0, (0, 1), dens=pole_at(2))) == QSeries.one(5)
    with pytest.raises(ZeroDivisionError):
        hyper_sum(5, TermRatio(1, (0, 1), dens=pole_at(3)))
    t1 = QSeries.one(5).times_ratio(1, 1, [], [(1, 2)])
    t2 = t1.times_ratio(1, 1, [], [(1, 1)])
    got = hyper_sum(5, TermRatio(1, (0, 1), dens=pole_at(3), last=2))
    assert got == QSeries.one(5) + t1 + t2
    assert hyper_sum(5, TermRatio(1, (0, 1), last=2)) == QSeries.from_monomials(
        [(1, 0), (1, 1), (1, 2)], 5)


#: Coefficients: 0, +-1, other negatives, and denominators other than 1.
spec_coeffs = st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(-3)]),
                        st.fractions(min_value=-9, max_value=9, max_denominator=16))
#: (alpha, beta) with alpha*k + beta >= 0 from k = 1 on; (0, 0) is a p = 0 factor.
affine = st.integers(min_value=0, max_value=2).flatmap(
    lambda alpha: st.tuples(st.just(alpha), st.integers(min_value=-alpha, max_value=3)))


@st.composite
def term_ratios(draw):
    """A TermRatio with no pole and a finite sum: the power of q grows every
    step unless ``last`` is set.  A poly of two or more monomials may end
    with its first one negated, at the same (alpha, beta) or at the constant
    power the first takes at step 1 or 2, so the two cancel at every step or
    at one, and the rest of the poly stays.  The scalar is nonzero, so the
    sum does not end at once."""
    last = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=4)))
    power = draw(affine.filter(lambda ab: last is not None or sum(ab) >= 1))
    polys = []
    for terms in draw(st.lists(st.lists(st.tuples(spec_coeffs, affine), min_size=1,
                                        max_size=3), max_size=2)):
        at = draw(st.sampled_from([None, 0, 1, 2] if len(terms) > 1 else [None]))
        if at is not None:
            c, (alpha, beta) = terms[0]
            terms.append((-c, (alpha, beta) if at == 0 else (0, alpha * at + beta)))
        polys.append(tuple(terms))
    dens = draw(st.lists(st.tuples(spec_coeffs, affine).filter(
        lambda cp: not (cp[0] == 1 and sum(cp[1]) == 0)), max_size=3))
    scalar = draw(spec_coeffs.filter(bool))
    return TermRatio(scalar, power, tuple(polys), tuple(dens), last)


def _ref_series(pairs, n):
    """Fraction coefficients of sum c*q^p over the (c, p) pairs, through q^n."""
    out = [Fraction(0)] * (n + 1)
    for c, p in pairs:
        if p <= n:
            out[p] += c
    return out


def _ref_times(x, y):
    n = len(x) - 1
    return [sum(x[i] * y[m - i] for i in range(m + 1)) for m in range(n + 1)]


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=12), term_ratios())
def test_hyper_sum_matches_fraction_reference(n, spec):
    """hyper_sum against the same sum taken term by term in Fractions."""
    def at(ab, k):
        return ab[0] * k + ab[1]

    term = total = _ref_series([(1, 0)], n)
    k = 1
    while spec.last is None or k <= spec.last:
        term = _ref_times(term, _ref_series([(spec.scalar, at(spec.power, k))], n))
        for poly in spec.polys:
            term = _ref_times(term, _ref_series([(c, at(ab, k)) for c, ab in poly], n))
        for c, ab in spec.dens:
            p = at(ab, k)
            geometric = ([1 / (1 - c)] + [0] * n if p == 0 else
                         [c ** (i // p) if i % p == 0 else 0 for i in range(n + 1)])
            term = _ref_times(term, geometric)
        if not any(term):
            break
        total = [x + y for x, y in zip(total, term)]
        k += 1
    got, want = hyper_sum(n, spec), QSeries(n, total)
    assert got == want
    assert hash(got) == hash(want)


def test_one_sum_builds_one_series_and_adds_none(monkeypatch):
    """A family sum keeps its term and total as ints: one QSeries, built at
    the end, and no QSeries.__add__ along the way."""
    made, added = [], []
    init, add = QSeries._init, QSeries.__add__
    monkeypatch.setattr(QSeries, "_init", lambda self, *a: made.append(1) or init(self, *a))
    monkeypatch.setattr(QSeries, "__add__", lambda x, y: added.append(1) or add(x, y))
    p = SHARE_POINT
    got = g1ab_sum(p.a, p.b, p.lam, 1, 40)
    assert (len(made), len(added)) == (1, 0)
    assert not got.is_zero()


REF_ORDER = 16


def _poly(*terms):
    return QSeries.from_monomials(terms, REF_ORDER)


def _prod(factors):
    out = QSeries.one(REF_ORDER)
    for f in factors:
        out = out * f
    return out


@lru_cache(maxsize=None)
def _poch(coef, power, k):
    return pochhammer_finite(QMonomial(coef, power), k, REF_ORDER)


def _reference(term, count=REF_ORDER + 2):
    """sum_{k<count} term(k), one literal term at a time.  Every family's k-th
    term has minimal power at least k - 1, so k <= REF_ORDER + 1 covers the
    order."""
    total = QSeries.zero(REF_ORDER)
    for k in range(count):
        total = total + term(k)
    return total


def _ref_g(b, b_power, lam, lam_power):
    # lam^k q^(lam_power*k + k^2) / ((q; q)_k (-b*q^b_power; q)_k)
    return _reference(lambda k: QSeries.monomial(lam ** k, lam_power * k + k * k, REF_ORDER)
                      * (_poch(1, 1, k) * _poch(-b, b_power, k)).inverse())


def _ref_big_g(a, a_power, b, lam, lam_power, s):
    def term(k):
        if a_power < 0:  # q^(-1) leaves each factor and joins the exponent
            num = _prod(_poly((a, 0), (lam, lam_power + j + 1)) for j in range(k))
            expo = k * (k - 1) // 2 + s * k
        else:
            num = _prod(_poly((a, a_power), (lam, lam_power + j)) for j in range(k))
            expo = k * (k + 1) // 2 + s * k
        return (num * QSeries.monomial(1, expo, REF_ORDER)
                * (_poch(1, 1, k) * _poch(-b, 1, k)).inverse())
    return _reference(term)


def _ref_family(family, s, p):
    a, b, lam = p.a, p.b, p.lam
    if family is Family.R:
        return _reference(lambda k: QSeries.monomial(a ** k, k * k + s * k, REF_ORDER)
                          * _poch(1, 1, k).inverse())
    if family is Family.g:
        return _ref_g(b, 1, lam, s)
    if family is Family.g1:
        return _ref_g(b, s, lam, s)
    if family is Family.g2:
        return _reference(lambda k: _prod(_poly((b, 0), (lam, s + j)) for j in range(k))
                          * QSeries.monomial(1, k * (k + 1) // 2, REF_ORDER)
                          * _poch(1, 1, k).inverse())
    if family is Family.G:
        return _ref_big_g(a, 0, b, lam, 0, s)
    if family in (Family.G1A, Family.G1B):
        t = 1 if family is Family.G1B else 0
        return _reference(lambda k: _prod(_poly((a, 0), (lam, s + j)) for j in range(k))
                          * _prod(_poly((b, 0), (lam, s + t + j)) for j in range(k))
                          * QSeries.monomial(lam ** -k, k, REF_ORDER)
                          * _poch(1, 1, k).inverse())
    if family is Family.G2:
        # (c q^(s-1); q)_k x^k q^k with one q moved into each factor
        c, x = a * b / lam, -lam / a
        return _reference(lambda k: _prod(_poly((1, 1), (-c, s + j)) for j in range(k))
                          * QSeries.constant(x ** k, REF_ORDER)
                          * (_poch(1, 1, k) * _poch(-a, s + 1, k)).inverse())
    if family is Family.C:
        c = b / a
        return _reference(lambda k: _poch(c, s, 2 * k)
                          * QSeries.monomial(a ** (2 * k), 2 * k, REF_ORDER)
                          * _prod(_poly((1, 0), (-1, 2 * i + 1)) for i in range(1, s))
                          * (_poch(1, 2, 2 * k)
                             * _prod(_poly((1, 0), (-1, 2 * k + 2 * i + 1))
                                     for i in range(1, s))).inverse())
    if family is Family.Eisenstein:
        return _reference(lambda k: QSeries.monomial((-a) ** k, k * (k + 1) // 2 + s * k,
                                                     REF_ORDER))
    raise AssertionError(family)


def test_builders_match_term_by_term_reference():
    """Every public builder against its docstring formula, summed term by
    term with fresh Pochhammer products and one inverse per term."""
    for p in sample_params(0, 3):  # no point has b = -1, a pole of g1(0)
        a, b, lam = p.a, p.b, p.lam
        cases = [(f"{fam.name}({s})", build_family(fam, s, p, REF_ORDER),
                  _ref_family(fam, s, p))
                 for fam in Family for s in range(4) if not (fam is Family.C and s == 0)]
        cases.append(("g b_power=3", g_sum(b, lam, 0, REF_ORDER, b_power=3),
                      _ref_g(b, 3, lam, 0)))
        for a_power in (-1, 0, 1):
            cases.append((f"G a_power={a_power}",
                          big_g_sum(a, a_power, b, lam, 1, 1, REF_ORDER),
                          _ref_big_g(a, a_power, b, lam, 1, 1)))
        c, x = a * b / lam, -lam / a
        cases.append(("gfrac5", gfrac5_den_sum(a, b, lam, REF_ORDER),
                      _reference(lambda k: _poch(c, 0, k)
                                 * QSeries.monomial(x ** k, k, REF_ORDER)
                                 * (_poch(1, 1, k) * _poch(-a, 1, k)).inverse())))
        for name, got, want in cases:
            assert got == want, (name, str(p), got.first_mismatch(want))


def _mono(coef, power):
    return QSeries.monomial(coef, power, REF_ORDER)


def test_catalog_private_sums_match_term_by_term_reference():
    """The catalog's own hyper_sum specifications against their docstring
    formulas, at the parameter choices the catalog itself uses."""
    for p in sample_params(0, 3):
        a, b, lam = p.a, p.b, p.lam
        c, d = lam, a * b  # as in the Entry 6 and Entry 8 pairs
        r, t = b / a, d / c

        def qbin(k):  # prod_{i<k}(a + b q^i) / (q; q)_k
            return (_prod(_poly((a, 0), (b, i)) for i in range(k))
                    * _poch(1, 1, k).inverse())

        def parity(m):  # (b/a; q)_m (aq)^m / (q; q)_m
            return _poch(r, 0, m) * _mono(a ** m, m) * _poch(1, 1, m).inverse()

        zero = QSeries.zero(REF_ORDER)
        odd, even = catalog._parity_sums(a, b, REF_ORDER)
        cases = [
            ("qbin_partial(2)", catalog._qbin_partial(a, b, 2, REF_ORDER),
             _reference(qbin, 3)),
            ("qbin_partial(order + 1)",
             catalog._qbin_partial(a, b, REF_ORDER + 1, REF_ORDER),
             _reference(qbin, REF_ORDER + 2)),
            ("qbin_shifted", catalog._qbin_shifted_sum(a, b, REF_ORDER),
             _reference(lambda k: qbin(k) * _mono(1, k))),
            ("entry8_lhs", catalog._entry8_lhs_sum(a, b, c, d, REF_ORDER),
             _reference(lambda k: _poch(r, 0, k) * _poch(c, 1, k) * _mono(a ** k, k)
                        * (_poch(d, 1, k) * _poch(1, 1, k)).inverse())),
            ("entry8_rhs", catalog._entry8_rhs_sum(a, b, c, d, REF_ORDER),
             _reference(lambda k: _poch(r, 0, k) * _poch(t, 0, k)
                        * _mono((-a * c) ** k, 2 * k + k * (k - 1) // 2)
                        * (_poch(b, 1, k) * _poch(d, 1, k) * _poch(1, 1, k)).inverse())),
            ("entry6_rhs", catalog._entry6_rhs_sum(a, b, c, d, REF_ORDER),
             _reference(lambda k: _poch(a, 1, k) * _poch(t, 0, k) * _mono(c ** k, k)
                        * (_poch(b, 1, k) * _poch(1, 1, k)).inverse())),
            ("parity odd", odd, _reference(lambda m: parity(m) if m % 2 else zero)),
            ("parity even", even, _reference(lambda m: zero if m % 2 else parity(m))),
        ]
        c_coef = lam / b  # as in the G-fraction sum pairs
        for c_power in (0, 1):
            x = b * c_coef / lam
            cases.append((
                f"d0_lhs C_power={c_power}",
                catalog._d0_lhs_sum(a, b, lam, c_coef, c_power, REF_ORDER),
                _reference(lambda k: _prod(_poly((a, 0), (lam, j)) for j in range(k))
                           * _mono(x ** k, c_power * k + k * (k + 1) // 2)
                           * (_poch(-b, 1, k) * _poch(1, 1, k)).inverse())))
            cases.append((
                f"d0_rhs C_power={c_power}",
                catalog._d0_rhs_sum(a, b, lam, c_coef, c_power, REF_ORDER),
                _reference(lambda k: _poch(-lam / a, 0, k) * _poch(-c_coef, c_power, k)
                           * _mono((a * b / lam) ** k, k) * _poch(1, 1, k).inverse())))
        for name, got, want in cases:
            assert got == want, (name, str(p), got.first_mismatch(want))


# ---------------------------------------------------------------------------
# Spec corruptions: every term ratio is pinned by some entry of
# verify_all(seed=0, points=1, order=20)


SWEEP_ORDER = 20


def _sweep_units():
    """id -> run, for every entry and reduction link of the seed-0, one-point
    catalog pass; run() gives the verdicts."""
    point = sample_params(0, 1)[0]
    units = {e.id: (lambda e=e: [r.status for r in catalog.run_entry(e, 0, 1, SWEEP_ORDER)])
             for e in catalog.register_all()}
    for link in catalog.REDUCTION_LINKS:
        units[f"{link.source}->{link.target}"] = (
            lambda link=link: ["pass" if link.check(point, SWEEP_ORDER) is None else "fail"])
    return units


def _spec_site():
    """The builder that called hyper_sum, and the call's line within it (a
    builder may make more than one spec)."""
    frame = sys._getframe(2)
    return frame.f_code.co_name, frame.f_lineno - frame.f_code.co_firstlineno


def _with_hyper_sum(wrapper):
    mp = pytest.MonkeyPatch()
    for module in (families, catalog):
        mp.setattr(module, "hyper_sum", wrapper)
    return mp


@pytest.fixture(scope="module")
def spec_users():
    """Each spec site -> the ids of the units whose run builds it."""
    users, running = {}, []
    real = families.hyper_sum

    def record(order, spec):
        users.setdefault(_spec_site(), set()).add(running[-1])
        return real(order, spec)

    mp = _with_hyper_sum(record)
    try:
        for uid, run in _sweep_units().items():
            running.append(uid)
            run()
    finally:
        mp.undo()
    return users


def _double_a_coefficient(spec):
    """The first poly's last monomial, else the first den, doubled."""
    if spec.polys:
        *head, (c, ab) = spec.polys[0]
        return replace(spec, polys=((*head, (2 * c, ab)),) + spec.polys[1:])
    if spec.dens:
        (c, ab), *rest = spec.dens
        return replace(spec, dens=((2 * c, ab), *rest))
    return None


SPEC_CORRUPTIONS = {
    "scalar x2": lambda spec: replace(spec, scalar=2 * spec.scalar),
    "coefficient x2": _double_a_coefficient,
    "beta + 1": lambda spec: replace(spec, power=(spec.power[0], spec.power[1] + 1)),
}


@pytest.mark.parametrize("corruption", sorted(SPEC_CORRUPTIONS))
def test_every_spec_corruption_fails_an_entry(spec_users, corruption):
    """All 18 specs (17 builders; _parity_sums makes two) under one
    corruption each, at every call from their site.  The one survivor has
    nothing to corrupt: eisenstein_sum's ratio has no coefficient besides its
    scalar."""
    assert len(spec_users) == 18
    corrupt, real = SPEC_CORRUPTIONS[corruption], families.hyper_sum
    units = _sweep_units()
    survivors = set()
    for site, ids in sorted(spec_users.items()):
        def corrupted(order, spec):
            if _spec_site() == site:
                bad = corrupt(spec)
                if bad is None:
                    survivors.add(site[0])
                spec = bad or spec
            return real(order, spec)

        mp = _with_hyper_sum(corrupted)
        try:
            failed = [uid for uid in sorted(ids) if "fail" in units[uid]()]
        finally:
            mp.undo()
        assert failed or site[0] in survivors, (corruption, site, sorted(ids))
    assert survivors == ({"eisenstein_sum"} if corruption == "coefficient x2" else set())


def test_family_parse():
    assert Family.parse("R") is Family.R
    assert Family.parse("G1A") is Family.G1A
    with pytest.raises(ValueError):
        Family.parse("nope")


def test_build_family_shift_domain():
    with pytest.raises(UnsupportedShift):
        build_family(Family.R, -1, DEFAULT_POINT, 10)
    with pytest.raises(UnsupportedShift):
        build_family(Family.C, 0, DEFAULT_POINT, 10)
    assert build_family(Family.C, 1, DEFAULT_POINT, 10)[0] == 1


def test_build_family_matches_direct_calls():
    p = ParamPoint(rational(1, 2), rational(1, 3), rational(1, 5))
    assert build_family(Family.R, 1, p, 15) == rr_sum(p.a, 1, 15)
    assert build_family(Family.g, 0, p, 15) == g_sum(p.b, p.lam, 0, 15)


def test_param_point_display():
    p = ParamPoint(1, rational(1, 2), rational(1, 3))
    assert p.as_dict() == {"a": "1", "b": "1/2", "l": "1/3"}
    assert str(p) == "a=1 b=1/2 l=1/3"


def test_floats_are_rejected():
    # 0.5 is exact in binary, yet still refused: 0.3 would not be
    for build in (lambda: rational(0.5), lambda: ParamPoint(0.5, 1, 1),
                  lambda: QSeries.constant(0.5, 3)):
        with pytest.raises(TypeError):
            build()


def test_sample_params_deterministic_and_nonzero():
    pts = sample_params(7, 50)
    assert pts == sample_params(7, 50)
    assert len(pts) == 50
    for p in pts:
        assert p.a != 0 and p.b != 0 and p.lam != 0


def test_sample_params_prefix_stable():
    assert sample_params(3, 40)[:12] == sample_params(3, 12)


def test_param_stream_extends_sample_params():
    stream = param_stream(5)
    assert [next(stream) for _ in range(40)] == sample_params(5, 40)
    assert next(stream) == sample_params(5, 41)[40]


@given(st.integers(min_value=0, max_value=1000))
def test_sample_params_seeds_vary(seed):
    pts = sample_params(seed, 4)
    assert len(pts) == 4
    assert len({(str(p.a), str(p.b), str(p.lam)) for p in pts}) >= 2


# ---------------------------------------------------------------------------
# The share of built sums


SHARE_POINT = sample_params(0, 1)[0]


def test_shared_build_is_the_same_object():
    a, b, lam = SHARE_POINT.a, SHARE_POINT.b, SHARE_POINT.lam
    with shared_sums():
        assert rr_sum(a, 1, 20) is rr_sum(a, 1, 20)
        # the same spec from two builders: g_sum passes through to g1_sum
        assert g_sum(b, lam, 2, 20) is g1_sum(b, 1, lam, 2, 20)
        assert (pochhammer_infinite(QMonomial(a, 1), 20, step=2)
                is pochhammer_infinite(QMonomial(a, 1), 20, step=2))


def test_share_keeps_builds_apart_by_order_shift_and_point():
    a, other = SHARE_POINT.a, SHARE_POINT.a + 1
    with shared_sums():
        kept = rr_sum(a, 1, 20)
        for build in (rr_sum(a, 1, 21), rr_sum(a, 2, 20), rr_sum(other, 1, 20)):
            assert build is not kept and build != kept
        assert build_family(Family.G, 1, SHARE_POINT, 20) != build_family(
            Family.G, 2, SHARE_POINT, 20)
        poch = pochhammer_infinite(QMonomial(a, 1), 20)
        for build in (pochhammer_infinite(QMonomial(a, 1), 21),
                      pochhammer_infinite(QMonomial(a, 2), 20),
                      pochhammer_infinite(QMonomial(a, 1), 20, step=2),
                      pochhammer_infinite(QMonomial(other, 1), 20)):
            assert build is not poch and build != poch
    # each build equals the same build made with no share open
    assert kept == rr_sum(a, 1, 20) and poch == pochhammer_infinite(QMonomial(a, 1), 20)


def test_nothing_is_kept_outside_a_share():
    a = SHARE_POINT.a
    assert families._share is None
    assert rr_sum(a, 1, 20) is not rr_sum(a, 1, 20)
    assert pochhammer_infinite(QMonomial(a, 1), 20) is not pochhammer_infinite(
        QMonomial(a, 1), 20)
    with shared_sums():
        rr_sum(a, 1, 20)
    assert families._share is None
    assert rr_sum(a, 1, 20) is not rr_sum(a, 1, 20)


def test_nested_share_joins_the_open_one():
    a = SHARE_POINT.a
    with shared_sums():
        kept = rr_sum(a, 0, 20)
        with shared_sums():
            assert rr_sum(a, 0, 20) is kept
        # run_entry opens a share of its own when none is open, and joins this one
        catalog.run_entry(catalog.lookup("REC_RR"), points=1, order=20)
        assert rr_sum(a, 0, 20) is kept
        assert rr_sum(a, 2, 20) is rr_sum(a, 2, 20)


def test_unhashable_closure_value_raises_inside_a_share():
    spec = TermRatio(1, (0, 1), dens=[])  # a list field: summable, not hashable

    assert hyper_sum(3, spec) == QSeries(3, [1, 1, 1, 1])
    with shared_sums():
        with pytest.raises(TypeError):
            hyper_sum(3, spec)


def test_run_entry_and_verify_all_open_a_share_and_close_it_when_an_entry_raises(monkeypatch):
    entry = catalog.lookup("EISENSTEIN")
    shared = []

    def pairs(p, order):
        shared.append(eisenstein_sum(p.a, 0, order) is eisenstein_sum(p.a, 0, order))
        raise RuntimeError("broken pair recipe")

    broken = replace(entry, pairs=pairs)
    monkeypatch.setitem(catalog._REGISTRY, entry.id, broken)
    with pytest.raises(RuntimeError):
        catalog.run_entry(broken, points=1, order=20)
    assert families._share is None
    with pytest.raises(RuntimeError):
        catalog.verify_all(seed=0, points=1, order=20)
    assert families._share is None
    assert shared == [True, True]
    assert eisenstein_sum(SHARE_POINT.a, 0, 20) is not eisenstein_sum(SHARE_POINT.a, 0, 20)


def test_catalog_runs_at_two_orders_in_one_process_match_their_golden_outputs(capsys):
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
    digests = json.loads((golden / "digests.json").read_text(encoding="utf-8"))
    argv = ["verify", "all", "--order", "20", "--points", "1", "--seed", "0", "--format", "json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digests[" ".join(argv)]
    argv = ["verify", "all", "--order", "40", "--points", "3", "--seed", "0", "--format", "json"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (golden / "verify_all_o40_p3_s0.json").read_text(
        encoding="utf-8")
