"""The benchmark's workloads: seeded CLI commands and the checks on their output.

Each workload is one pass: a fixed list of ``qcfrac`` command lines derived
from the workload seed.  ``catalog`` is a single ``verify all``, which draws
its own points from the seed.  ``contact`` and ``expand`` run one command per
catalog entry or family and point, at the points ``verify all`` would draw
for it: the first points of the program's seeded stream
(``families.sample_params``) that the entry's constraints, or the family's
builders, accept.

Output checks come in two strengths.  Command lines recorded in
``golden/digests.json`` must reproduce their stdout byte for byte.  Every
command line, recorded or not, must also satisfy the workload's invariants.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"

#: Every catalog entry the registry is expected to hold (28).
ENTRY_IDS = (
    "RR_CF", "RR_SPECIAL", "G_CFRAC_g2", "G_CFRAC_g1", "G_CFRAC_g3", "HEINE_CF",
    "RAMANUJAN_G1", "RAMANUJAN_G2", "HIRSCHHORN", "HEINE_CF_A", "EISENSTEIN",
    "PROD_RATIO", "ENTRY11", "ENTRY11_SUMRATIO", "ENTRY6", "ENTRY8", "ENTRY8_D0",
    "GFRAC5_SUMS", "GFRAC_SUMS2", "gFRAC_SUMS2", "POCH_IDS", "QBIN",
    "REC_C", "REC_G1", "REC_G1AB", "REC_G2", "REC_GG2", "REC_RR",
)
#: The 13 continued-fraction entries that ``approximants`` accepts.
CF_IDS = ENTRY_IDS[:13]
#: The 10 families ``expand`` accepts, with the shift of their denominator.
FAMILIES = (("R", 0), ("g", 0), ("g1", 0), ("g2", 0), ("G", 0), ("G1A", 0),
            ("G1B", 0), ("G2", 1), ("C", 1), ("Eisenstein", 0))

CATALOG_ORDER, CATALOG_POINTS = 20, 1
#: A command's cost follows the height of its point closely, and one seed
#: gives most entries and families the same first point, so contact and
#: expand passes take three points per item to average over heights.
CONTACT_ORDER, CONTACT_DEPTH, CONTACT_POINTS = 40, 10, 3
EXPAND_ORDER, EXPAND_DEPTH, EXPAND_POINTS = 40, 10, 3
#: The reduction links ``verify all`` checks after the entries (5).
LINK_COUNT = 5
#: Points of the seeded stream searched for one that an item accepts.
POINT_POOL = 256


@dataclass(frozen=True)
class Command:
    argv: List[str]
    check: Callable[[int, str], Optional[str]]  # (exit code, stdout) -> problem

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def seeded_points(seed: int, accept, count: int) -> list:
    """The first ``count`` points of the program's seeded stream that ``accept`` takes."""
    from qcfrac.families import sample_params

    points = [p for p in sample_params(seed, POINT_POOL) if accept(p)][:count]
    if len(points) < count:
        raise ValueError(f"only {len(points)} of the first {POINT_POOL} points of seed "
                         f"{seed} are accepted")
    return points


def params_arg(point) -> str:
    return f"a={point.a},b={point.b},l={point.lam}"


# ---------------------------------------------------------------------------
# invariants


def check_verify_all(order: int, points: int):
    """A ``verify all`` document: every entry and link present, none failing."""

    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(out)
        summary, reports = doc["summary"], doc["reports"]
        if summary["fail"] or summary["suspected_cancellation"]:
            return f"summary {summary}"
        checked = {entry_id: 0 for entry_id in ENTRY_IDS}
        links = 0
        for report in reports:
            if report["order"] != order:
                return f"report for {report['id']} at order {report['order']}"
            if report["status"] == "skipped":
                continue
            if report["status"] != "pass":
                return f"{report['id']}: status {report['status']}: {report['reason']}"
            if "->" in report["id"]:
                links += 1
            elif report["id"] in checked:
                checked[report["id"]] += 1
            else:
                return f"unknown entry {report['id']}"
        short = [entry_id for entry_id, n in checked.items() if n != points]
        if short:
            return f"entries without {points} checked points: {', '.join(short)}"
        if links != LINK_COUNT:
            return f"{links} reduction links, expected {LINK_COUNT}"
        return None

    return check


_CONTACT_ROW = re.compile(r"(\d+)\t(>?)(\d+)")


def check_contact(depth: int, order: int):
    """The contact table rises row by row until it passes the order."""

    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        lines = out.splitlines()
        if lines[:1] != ["n\tcontact"] or len(lines) != depth + 1:
            return "malformed table"
        previous = 0
        for n, line in enumerate(lines[1:], start=1):
            m = _CONTACT_ROW.fullmatch(line)
            if m is None or int(m.group(1)) != n:
                return f"malformed row {line!r}"
            if m.group(2):
                if int(m.group(3)) != order:
                    return f"row {n} claims contact beyond {m.group(3)}"
                previous = order + 1
            elif previous > order or int(m.group(3)) <= previous:
                return f"contact does not rise at row {n}"
            else:
                previous = int(m.group(3))
        return None

    return check


_FACTOR_ROW = re.compile(r"f(\d+): \S+  \(residual order (\d+)\)")


def check_expand(depth: int):
    """The expansion reaches its depth, with residual orders never rising."""

    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        lines = out.splitlines()
        if len(lines) != depth:
            return f"{len(lines)} lines for depth {depth}"
        residual = None
        for n, line in enumerate(lines, start=1):
            m = _FACTOR_ROW.fullmatch(line)
            if m is None or int(m.group(1)) != n:
                return f"malformed factor line {line!r}"
            if residual is not None and int(m.group(2)) > residual:
                return f"residual order rises at f{n}"
            residual = int(m.group(2))
        return None

    return check


# ---------------------------------------------------------------------------
# command lists


def catalog_commands(seed: int) -> List[Command]:
    """Every entry verified at the seed's first points, plus every link."""
    return [Command(
        ["verify", "all", "--order", str(CATALOG_ORDER), "--points", str(CATALOG_POINTS),
         "--seed", str(seed), "--format", "json"],
        check_verify_all(CATALOG_ORDER, CATALOG_POINTS))]


def contact_commands(seed: int) -> List[Command]:
    """Each continued fraction tabulated at its first accepted points."""
    from qcfrac import catalog

    out = []
    for entry_id in CF_IDS:
        entry = catalog.lookup(entry_id)
        for point in seeded_points(seed, lambda p: entry.constraint_failure(p) is None,
                                   CONTACT_POINTS):
            out.append(Command(
                ["approximants", entry_id, "--order", str(CONTACT_ORDER),
                 "--depth", str(CONTACT_DEPTH), "--params", params_arg(point)],
                check_contact(CONTACT_DEPTH, CONTACT_ORDER)))
    return out


def _expandable(name: str, s: int):
    """Accepts points where F(s) and F(s+1) build and the ratio runs to depth."""
    from qcfrac.errors import QcfracError
    from qcfrac.families import Family, build_family

    family = Family.parse(name)

    def accept(point) -> bool:
        # Equal magnitudes let factors such as (a + l q^j) vanish at j = 0, and
        # the ratio then stops being a fraction of the requested depth.
        if len({abs(point.a), abs(point.b), abs(point.lam)}) != 3:
            return False
        try:
            build_family(family, s, point, 1)
            build_family(family, s + 1, point, 1)
        except QcfracError:  # a pole at this point
            return False
        return True

    return accept


def expand_commands(seed: int) -> List[Command]:
    """Euler expansion of F(s+1)/F(s) for every family at its first accepted points."""
    out = []
    for name, s in FAMILIES:
        for point in seeded_points(seed, _expandable(name, s), EXPAND_POINTS):
            out.append(Command(
                ["expand", "--num", f"{name}:{s + 1}", "--den", f"{name}:{s}",
                 "--order", str(EXPAND_ORDER), "--depth", str(EXPAND_DEPTH),
                 "--params", params_arg(point)],
                check_expand(EXPAND_DEPTH)))
    return out


WORKLOADS = {
    "catalog": catalog_commands,
    "contact": contact_commands,
    "expand": expand_commands,
}


# ---------------------------------------------------------------------------
# golden outputs


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden() -> dict:
    if not GOLDEN.is_file():
        return {}
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def problem(command: Command, code: int, out: str, golden: dict) -> Optional[str]:
    """Why this output is wrong, or None when it passes every check."""
    expected = golden.get(command.key)
    if expected is not None and digest(out) != expected:
        return "output differs from the recorded golden output"
    try:
        return command.check(code, out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
