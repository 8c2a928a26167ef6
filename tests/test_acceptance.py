"""End-to-end acceptance checks.

Each test is one acceptance criterion; `pytest -v` therefore prints one
pass/fail line per criterion.  Everything is exact rational arithmetic
except the explicitly numeric convergence check.
"""

import json
import time
from pathlib import Path

import pytest

from qcfrac import catalog
from qcfrac.cfrac import (
    approximant,
    equivalence_unit_denominators,
    modified_approximant,
    numeric_cf,
    numeric_value,
    tail,
    worpitzky_index,
)
from qcfrac.cli import main
from qcfrac.euler import euler_expand, verify_three_term
from qcfrac.families import DEFAULT_POINT, ParamPoint, rr_sum, sample_params
from qcfrac.rationals import rational
from qcfrac.series import QMonomial, QSeries, geometric_inverse


#: ``verify all --order 40 --points 3 --seed 0 --format json`` as recorded
#: with the benchmark; the report must reproduce it byte for byte.
GOLDEN_VERIFY_ALL = (Path(__file__).resolve().parents[1]
                     / "perfbench" / "golden" / "verify_all_o40_p3_s0.json")


def _valid_points(entry, count, seed=0):
    out = []
    for p in sample_params(seed, 256):
        if entry.constraint_failure(p) is None:
            out.append(p)
            if len(out) == count:
                return out
    raise AssertionError(f"not enough valid points for {entry.id}")


def test_01_full_catalog_verifies_with_zero_failures(capsys):
    started = time.perf_counter()
    code = main(["verify", "all", "--order", "40", "--points", "3",
                 "--seed", "0", "--format", "json"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0
    assert out == GOLDEN_VERIFY_ALL.read_text(encoding="utf-8")
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 0
    entry_ids = {r["id"] for r in doc["reports"] if "->" not in r["id"]}
    assert len(entry_ids) >= 27
    assert elapsed < 60.0


def test_02_euler_expansion_recovers_the_monomial_ladder():
    for a in (rational(1), rational(1, 3)):
        trace = euler_expand(rr_sum(a, 0, 80), rr_sum(a, 1, 80), 10)
        assert trace.depth() == 10
        assert trace.factors == [QMonomial(a, n) for n in range(1, 11)]


def test_03_three_term_recurrences_hold_across_shifts():
    groups = ["REC_RR", "REC_G1", "REC_G2", "REC_GG2", "REC_G1AB", "REC_C"]
    for entry_id in groups:
        entry = catalog.lookup(entry_id)
        lo, hi = entry.shifts
        for point in _valid_points(entry, 3):
            for s in range(lo, hi + 1):
                s0, s1, s2, c1, c2 = entry.recurrence(point, s, 40)
                assert verify_three_term(s0, s1, s2, c1, c2) is None, (
                    entry_id, str(point), s)


def test_04_order_of_contact_exceeds_depth_and_grows():
    point = ParamPoint(1, rational(1, 2), rational(1, 3))
    cf = catalog.lookup("RR_CF").make_cf(point, 100)
    ratio = rr_sum(1, 1, 100) * rr_sum(1, 0, 100).inverse()
    contacts = []
    for n in range(1, 13):
        # depth n counts the partial numerators after the leading unit,
        # so it is element n + 1 of the stored fraction
        fm = approximant(cf, n + 1).first_mismatch(ratio)
        assert fm is not None and fm >= n + 1
        contacts.append(fm)
    assert contacts == sorted(contacts) and len(set(contacts)) == 12


def test_05_modified_approximants_with_true_tails_are_constant():
    order = 40
    for a in (rational(1), rational(1, 2)):
        cf = catalog.lookup("RR_CF").make_cf(ParamPoint(a, 1, 1), order)
        ratio = rr_sum(a, 1, order) * rr_sum(a, 0, order).inverse()
        for n in range(1, 11):
            wn = (QSeries.monomial(a, n, order)
                  * rr_sum(a, n + 1, order)
                  * rr_sum(a, n, order).inverse())
            assert modified_approximant(cf, n, wn).first_mismatch(ratio) is None


def test_06_equivalence_transform_matches_element_by_element():
    entry = catalog.lookup("G_CFRAC_g2")
    point = _valid_points(entry, 1, seed=11)[0]
    cf = entry.make_cf(point, 60)
    eq = equivalence_unit_denominators(cf)
    for n in range(1, 16):
        assert approximant(cf, n).first_mismatch(approximant(eq, n)) is None
    expect = (QSeries.monomial(point.lam, 2, 60)
              * geometric_inverse(-point.b, 1, 60)
              * geometric_inverse(-point.b, 2, 60))
    assert eq.element(3)[0].first_mismatch(expect) is None


def test_07_product_identities_exact_to_order_sixty():
    poch = catalog.verify("POCH_IDS", DEFAULT_POINT, order=60)
    assert poch.status == "pass"
    ratio = catalog.verify("PROD_RATIO", DEFAULT_POINT, order=60, depth=14)
    assert ratio.status == "pass"
    assert ratio.first_mismatch_power is None  # exact through q^60


def test_08_numeric_convergence_within_worpitzky_window():
    point = ParamPoint(1, rational(1, 2), rational(1, 3))
    cf = catalog.lookup("RR_CF").make_cf(point, 40)
    q0 = rational(1, 2)
    assert worpitzky_index(numeric_cf(tail(cf, 1), q0)) == 2
    ncf = numeric_cf(cf, q0)
    num = rr_sum(1, 1, 120).evaluate(q0)
    den = rr_sum(1, 0, 120).evaluate(q0)
    oracle = float(num / den)
    assert abs(numeric_value(ncf, 60) - oracle) < 1e-10
    for n in range(51, 61):
        assert abs(numeric_value(ncf, n) - numeric_value(ncf, n - 1)) < 1e-12


def test_09_reduction_links_specialize_exactly():
    assert catalog.check_reduction("G_CFRAC_g2", "RR_CF", order=40)
    assert catalog.check_reduction("RAMANUJAN_G1", "G_CFRAC_g1", order=40)
    assert catalog.check_reduction("HEINE_CF", "G_CFRAC_g2", order=40)


def test_10_perturbed_identity_fails_loudly(capsys):
    entry = catalog.perturbed_entry("RR_CF")
    report = catalog.verify_entry(entry, ParamPoint(1, 1, 1))
    assert report.status == "fail"
    assert isinstance(report.first_mismatch_power, int)
    code = main(["verify", "RR_CF", "--perturb", "--points", "1"])
    capsys.readouterr()
    assert code == 1
