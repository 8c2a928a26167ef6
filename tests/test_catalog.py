"""The identity registry and its exact verification runner."""

from dataclasses import replace

import pytest

from qcfrac import catalog
from qcfrac.cfrac import CFrac
from qcfrac.catalog import IdentityEntry, IdentityReport
from qcfrac.errors import UnknownIdentity
from qcfrac.families import DEFAULT_POINT, ParamPoint, sample_params
from qcfrac.rationals import rational
from qcfrac.series import QSeries


def first_valid_point(entry, seed=0):
    for p in sample_params(seed, 64):
        if entry.constraint_failure(p) is None:
            return p
    raise AssertionError(f"no valid point for {entry.id}")


def test_registry_size_and_uniqueness():
    entries = catalog.register_all()
    assert len(entries) >= 27
    ids = [e.id for e in entries]
    assert len(set(ids)) == len(ids)
    assert catalog.entry_ids() == ids


def test_lookup():
    entry = catalog.lookup("RR_CF")
    assert entry.kind == "cf_equals_series_ratio"
    with pytest.raises(UnknownIdentity):
        catalog.lookup("NOT_A_THING")


def test_every_kind_is_known():
    kinds = {
        "cf_equals_series_ratio",
        "cf_equals_product_ratio",
        "series_transformation",
        "product_identity",
        "recurrence",
    }
    for entry in catalog.register_all():
        assert entry.kind in kinds
        assert entry.source  # each identity carries a literature pointer


@pytest.mark.parametrize("entry", catalog.register_all(), ids=lambda e: e.id)
def test_entry_passes_at_sampled_point(entry):
    point = first_valid_point(entry)
    report = catalog.verify(entry.id, point)
    assert report.status == "pass", (report.reason, report.first_mismatch_power)
    assert report.order == catalog.DEFAULT_ORDER
    assert report.depth == catalog.DEFAULT_DEPTH


def test_verify_uses_entry_defaults():
    report = catalog.verify("RR_CF", ParamPoint(1, 1, 1))
    assert (report.order, report.depth) == (40, 8)


def test_verify_known_points():
    r = catalog.verify("RR_CF", ParamPoint(1, rational(1, 2), rational(1, 3)),
                       40, 10)
    assert r.status == "pass"
    r = catalog.verify("PROD_RATIO", DEFAULT_POINT, 40, 12)
    assert r.status == "pass"


def test_constraint_violation_is_skipped_not_failed():
    r = catalog.verify("RR_CF", ParamPoint(0, 1, 1))
    assert r.status == "skipped"
    assert "a = 0" in r.reason
    assert r.first_mismatch_power is None


#: Every continued-fraction entry, with the power at which its perturbed copy
#: first differs from the target at its first valid seed-0 point.
CF_FIRST_MISMATCH = {
    "RR_CF": 1, "RR_SPECIAL": 3, "G_CFRAC_g2": 1, "G_CFRAC_g1": 1, "G_CFRAC_g3": 1,
    "HEINE_CF": 1, "RAMANUJAN_G1": 1, "RAMANUJAN_G2": 1, "HIRSCHHORN": 1,
    "HEINE_CF_A": 1, "EISENSTEIN": 1, "PROD_RATIO": 1, "ENTRY11": 3,
}


def test_every_cf_entry_has_a_negative_control():
    cf_ids = [e.id for e in catalog.register_all() if e.make_cf is not None]
    assert sorted(cf_ids) == sorted(CF_FIRST_MISMATCH)


@pytest.mark.parametrize("entry_id", sorted(CF_FIRST_MISMATCH))
def test_cf_failure_reports_finite_mismatch(entry_id):
    entry = catalog.perturbed_entry(entry_id)
    point = first_valid_point(entry)
    report = catalog.verify_entry(entry, point)
    assert report.status == "fail"
    assert report.first_mismatch_power == CF_FIRST_MISMATCH[entry_id]
    assert report.mismatch_rows  # coefficient context for the dump
    power, lhs, rhs = report.mismatch_rows[0]
    assert power == report.first_mismatch_power
    assert lhs != rhs


def test_perturbed_rejects_non_cf():
    with pytest.raises(ValueError):
        catalog.perturbed_entry("POCH_IDS")


def test_reduction_links_registered():
    pairs = {(link.source, link.target) for link in catalog.REDUCTION_LINKS}
    assert pairs == {
        ("RR_SPECIAL", "RR_CF"),
        ("G_CFRAC_g2", "RR_CF"),
        ("RAMANUJAN_G1", "G_CFRAC_g1"),
        ("HIRSCHHORN", "G_CFRAC_g3"),
        ("HEINE_CF", "G_CFRAC_g2"),
    }


@pytest.mark.parametrize("src,tgt", [
    ("RR_SPECIAL", "RR_CF"),
    ("G_CFRAC_g2", "RR_CF"),
    ("RAMANUJAN_G1", "G_CFRAC_g1"),
    ("HIRSCHHORN", "G_CFRAC_g3"),
    ("HEINE_CF", "G_CFRAC_g2"),
])
def test_check_reduction(src, tgt):
    assert catalog.check_reduction(src, tgt)


def doubled_element(make_cf, n, part):
    """make_cf with a_n (part 0) or b_n (part 1) of its fraction doubled."""
    def make(p, order):
        cf = make_cf(p, order)

        def elem(m):
            pair = list(cf.element(m))
            if m == n:
                pair[part] = pair[part].scale(2)
            return tuple(pair)

        return CFrac(cf.b0, elem)

    return make


#: Each fraction's d* at its first valid seed-0 point and order 40: the least
#: depth whose contact floor F(n) = val(a_1) + ... + val(a_{n+1}) passes q^40.
CF_DSTAR = {
    "RR_CF": 9, "RR_SPECIAL": 8, "G_CFRAC_g2": 9, "G_CFRAC_g1": 11, "G_CFRAC_g3": 21,
    "HEINE_CF": 10, "RAMANUJAN_G1": 12, "RAMANUJAN_G2": 9, "HIRSCHHORN": 21,
    "HEINE_CF_A": 11, "EISENSTEIN": 11, "PROD_RATIO": 11, "ENTRY11": 8,
}


@pytest.mark.parametrize("entry_id", sorted(CF_DSTAR))
def test_cf_check_rejects_every_doubled_element(entry_id):
    """Doubling any a_m or b_m up to max(depth, d*) must fail the fraction
    check by itself: below depth by the floor, past it at d*."""
    entry = catalog.lookup(entry_id)
    point = first_valid_point(entry)
    escaped = []
    for m in range(1, max(8, CF_DSTAR[entry_id]) + 1):
        for part in (0, 1):
            corrupted = replace(entry, make_cf=doubled_element(entry.make_cf, m, part))
            if catalog._check_cf(corrupted, point, 40, 8)[0] != "fail":
                escaped.append(("ab"[part], m))
    assert escaped == []


def test_deep_cf_failure_reports_its_contact_at_dstar():
    entry = catalog.lookup("RR_CF")
    corrupted = replace(entry, make_cf=doubled_element(entry.make_cf, 9, 0))
    status, fm, reason, rows = catalog._check_cf(corrupted, first_valid_point(entry), 40, 8)
    assert status == "fail"
    assert reason.startswith("approximant at depth 9 ")
    assert rows[0][0] == fm


def test_cf_check_with_no_floor_ends_at_the_horizon_cap():
    """Constant partial numerators 1/4 give F(n) = 0 at every depth, so the
    walk stops at d* = order + 1 and the rational target fails there."""
    quarter = IdentityEntry(
        id="QUARTER", kind="cf_equals_series_ratio", source="test fixture",
        make_cf=lambda p, order: CFrac.from_terms(0, order, lambda n: (
            [(rational(1, 4), 0)], [(1, 0)])),
        targets=lambda p, order: (QSeries.constant(rational(1, 5), order),
                                  QSeries.one(order)))
    status, fm, reason, _ = catalog._check_cf(quarter, DEFAULT_POINT, 40, 8)
    assert (status, fm) == ("fail", 0)
    assert reason.startswith("approximant at depth 41 ")


LINK_ENDS = pytest.mark.parametrize(
    "link,end", [(link, end) for link in catalog.REDUCTION_LINKS for end in ("source", "target")],
    ids=lambda v: v if isinstance(v, str) else f"{v.source}->{v.target}")


@LINK_ENDS
def test_reduction_link_reads_the_registered_fractions(monkeypatch, link, end):
    """A link compares the registered fractions themselves, so corrupting
    either end in the registry must make it fail."""
    entry_id = getattr(link, end)
    monkeypatch.setitem(catalog._REGISTRY, entry_id, catalog.perturbed_entry(entry_id))
    assert link.check(sample_params(0, 1)[0], 40) is not None


@LINK_ENDS
def test_reduction_link_compares_partial_denominators(monkeypatch, link, end):
    entry = catalog.lookup(getattr(link, end))
    make_cf = doubled_element(entry.make_cf, 2, part=1)
    monkeypatch.setitem(catalog._REGISTRY, entry.id, replace(entry, make_cf=make_cf))
    assert link.check(sample_params(0, 1)[0], 40) is not None


#: Each recurrence whose c1 and c2 are read from a fraction, with where that
#: fraction comes from: a registered entry, or the catalog's term recipe.
DERIVED_RECURRENCES = [
    ("REC_RR", "RR_CF"),
    ("REC_G1AB", "RAMANUJAN_G1"),
    ("REC_C", "ENTRY11"),
    ("REC_G2", "_g3cf"),
    ("REC_G1", "_g1_terms"),
]


@pytest.mark.parametrize("end", ["lo", "hi"])
@pytest.mark.parametrize("rec_id,source", DERIVED_RECURRENCES)
def test_recurrence_reads_its_fraction(monkeypatch, rec_id, source, end):
    """Doubling a_n with n = s + 2 breaks c2 at shift s, at both ends of the
    entry's shift range, so the recurrence must fail exactly there."""
    entry = catalog.lookup(rec_id)
    s = dict(zip(("lo", "hi"), entry.shifts))[end]
    n = s + 2
    if source in catalog._REGISTRY:
        base = catalog.lookup(source)
        make_cf = doubled_element(base.make_cf, n, part=0)
        monkeypatch.setitem(catalog._REGISTRY, source, replace(base, make_cf=make_cf))
    else:
        recipe = getattr(catalog, source)
        # _g1_terms(p, j) is element j + 1; _g3cf(p, n) is element n
        index = n - 1 if source == "_g1_terms" else n

        def doubled(p, m, **kwargs):
            a_terms, b_terms = recipe(p, m, **kwargs)
            return [(2 * c, e) for c, e in a_terms] if m == index else a_terms, b_terms

        monkeypatch.setattr(catalog, source, doubled)
    report = catalog.verify(rec_id, first_valid_point(entry))
    assert report.status == "fail"
    assert report.reason.startswith(f"three-term relation at shift {s} ")


@pytest.mark.parametrize("end", ["lo", "hi"])
@pytest.mark.parametrize("part", [3, 4], ids=["c1", "c2"])
def test_rec_gg2_checks_its_coefficients(monkeypatch, part, end):
    """REC_GG2 writes c1 and c2 out by hand; doubling either one at a shift
    must make the recurrence fail at exactly that shift."""
    entry = catalog.lookup("REC_GG2")
    s = dict(zip(("lo", "hi"), entry.shifts))[end]

    def rec(p, shift, order):
        out = list(entry.recurrence(p, shift, order))
        if shift == s:
            out[part] = out[part].scale(2)
        return tuple(out)

    monkeypatch.setitem(catalog._REGISTRY, entry.id, replace(entry, recurrence=rec))
    report = catalog.verify(entry.id, first_valid_point(entry))
    assert report.status == "fail"
    assert report.reason.startswith(f"three-term relation at shift {s} ")


#: Every entry with series pairs, with the power k of the c*q^k its negative
#: control adds; k sweeps 0..20, the whole order of the run below.
PAIR_CONTROLS = [(entry.id, (5 * i + 2) % 21) for i, entry in
                 enumerate(e for e in catalog.register_all() if e.pairs is not None)]


@pytest.fixture(scope="module")
def clean_catalog_run():
    reports, _ = catalog.verify_all(seed=0, points=1, order=20)
    return [catalog._report_to_dict(r) for r in reports]


@pytest.mark.parametrize("entry_id,k", PAIR_CONTROLS)
def test_pair_check_rejects_an_added_monomial(monkeypatch, clean_catalog_run, entry_id, k):
    """One side of the entry's last pair gets q^k/3 added.  In a full run,
    which shares its sums across every check, that entry fails at q^k and
    every other report stays as in the clean run."""
    entry = catalog.lookup(entry_id)
    side = 1 + k % 2  # lhs for even k, rhs for odd

    def pairs(p, order):
        out = [list(pair) for pair in entry.pairs(p, order)]
        out[-1][side] = out[-1][side] + QSeries.monomial(rational(1, 3), k, order)
        return [tuple(pair) for pair in out]

    monkeypatch.setitem(catalog._REGISTRY, entry_id, replace(entry, pairs=pairs))
    reports, _ = catalog.verify_all(seed=0, points=1, order=20)
    got = [catalog._report_to_dict(r) for r in reports]
    assert [d for d in got if d["id"] != entry_id] == [
        d for d in clean_catalog_run if d["id"] != entry_id]
    checked = [d for d in got if d["id"] == entry_id and d["status"] != "skipped"]
    assert len(checked) == 1
    assert checked[0]["status"] == "fail"
    assert checked[0]["first_mismatch_power"] == k
    assert checked[0]["reason"].endswith(f": sides differ at q^{k}")


def test_check_reduction_substitution_must_match():
    assert catalog.check_reduction("RR_SPECIAL", "RR_CF", {"a": "1"})
    with pytest.raises(ValueError):
        catalog.check_reduction("RR_SPECIAL", "RR_CF", {"a": "2"})
    with pytest.raises(UnknownIdentity):
        catalog.check_reduction("RR_CF", "RR_SPECIAL")


def test_verify_all_is_clean_and_deterministic():
    reports, summary = catalog.verify_all(seed=2, points=1, order=30, depth=6)
    assert summary["fail"] == 0
    assert summary["suspected_cancellation"] == []
    assert summary["pass"] == sum(r.status == "pass" for r in reports)
    # entries plus the five reduction links, all sorted by id
    assert [r.id for r in reports] == sorted(r.id for r in reports)
    again, _ = catalog.verify_all(seed=2, points=1, order=30, depth=6)
    assert again == reports  # elapsed is excluded from comparison


def test_verify_all_counts_points_per_entry():
    reports, summary = catalog.verify_all(seed=0, points=2, order=24, depth=5)
    checked = [r for r in reports if "->" not in r.id and r.status != "skipped"]
    assert len(checked) == 2 * len(catalog.register_all())
    links = [r for r in reports if "->" in r.id]
    assert len(links) == len(catalog.REDUCTION_LINKS)
    assert all(r.status == "pass" for r in links)


def test_escalation_on_mixed_verdicts():
    """A verdict that flips between sampled points triggers five extra
    draws, so an accidental zero cannot masquerade as a clean pass."""

    def pairs(p, order):
        rhs = QSeries.one(order)
        if p.a > 0:
            rhs = QSeries.from_monomials([(1, 0), (1, 3)], order)
        return [("sign-dependent", QSeries.one(order), rhs)]

    synthetic = IdentityEntry(
        id="SYNTHETIC", kind="series_transformation",
        source="test fixture", pairs=pairs,
    )
    reports = catalog.run_entry(synthetic, seed=0, points=3, order=12, depth=4)
    statuses = {r.status for r in reports}
    assert statuses == {"pass", "fail"}
    assert sum(r.escalated for r in reports) == 5


def test_json_round_trip():
    reports, summary = catalog.verify_all(seed=0, points=1, order=24, depth=5)
    run = {"seed": 0, "points": 1, "order": 24, "depth": 5}
    text = catalog.reports_to_json(reports, summary, run)
    run2, reports2, summary2 = catalog.reports_from_json(text)
    assert run2 == run
    assert summary2 == summary
    assert reports2 == reports
    assert catalog.reports_to_json(reports2, summary2, run2) == text


def test_failure_table_formats():
    clean = catalog.failure_table([])
    assert clean == "# all pass\n"
    bad = catalog.verify_entry(catalog.perturbed_entry("RR_CF"),
                               ParamPoint(1, 1, 1))
    table = catalog.failure_table([bad])
    lines = table.splitlines()
    assert lines[0].startswith("# RR_CF @ a=1")
    assert lines[1] == "power\tlhs\trhs"
    assert "\t" in lines[2]


def test_report_equality_ignores_timing():
    a = IdentityReport("X", None, 10, 2, "pass", elapsed=1.0)
    b = IdentityReport("X", None, 10, 2, "pass", elapsed=2.0)
    assert a == b
