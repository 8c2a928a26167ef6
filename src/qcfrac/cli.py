"""Command-line front end: verify identities, expand ratios, tabulate
approximants, and run the integer Euclidean algorithm for contrast.

Exit codes are uniform across subcommands: 0 for success, 1 for a
verification failure or an expansion that ran out of precision, 2 for
usage errors (unknown identity, malformed parameters, out-of-range
options).  All parameters are exact rationals; floats are rejected so a
"pass" always means exact coefficient agreement.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from itertools import islice
from typing import List, Optional, Sequence

from . import catalog
from .cfrac import contacts, numeric_cf, numeric_value, worpitzky_index
from .errors import (
    HorizonExceeded,
    PrecisionExhausted,
    QcfracError,
    UnknownIdentity,
)
from .euler import euclid_cf, euclid_value, euler_expand
from .families import DEFAULT_POINT, Family, ParamPoint, build_family
from .rationals import format_rational, parse_rational


#: Largest accepted --order, --depth and --points.  Series storage grows with
#: the order and the work with all three, so a value past these is a usage
#: error rather than an allocation or a run that never ends.
MAX_ORDER = 400
MAX_DEPTH = 100
MAX_POINTS = 50


@dataclass
class RunConfig:
    """Validated knobs shared by the subcommands."""

    order: int = catalog.DEFAULT_ORDER
    depth: int = catalog.DEFAULT_DEPTH
    points: int = 3
    seed: int = 0
    params: Optional[ParamPoint] = None
    format: str = "text"
    output_path: Optional[str] = None

    def validate(self) -> Optional[str]:
        for name, value, low, high in (("order", self.order, 4, MAX_ORDER),
                                       ("depth", self.depth, 1, MAX_DEPTH),
                                       ("points", self.points, 1, MAX_POINTS)):
            if value < low:
                return f"--{name} must be at least {low}"
            if value > high:
                return f"--{name} must be at most {high}"
        return None


def parse_params(text: str) -> ParamPoint:
    """Parse "a=1/3,b=1/5,l=1/7" into an exact parameter point.

    Keys are a, b and l ("lambda" is accepted as an alias); missing keys
    keep their defaults (a=1, b=1/2, l=1/3).  Values must be integers or
    fractions -- no floats.
    """
    values = dict(DEFAULT_POINT.as_dict())
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ValueError(f"expected key=value, got {piece!r}")
        key, _, raw = piece.partition("=")
        key = key.strip().lower()
        if key == "lambda":
            key = "l"
        if key not in values:
            raise ValueError(f"unknown parameter {key!r} (expected a, b or l)")
        values[key] = raw.strip()
    return ParamPoint(parse_rational(values["a"]),
                      parse_rational(values["b"]),
                      parse_rational(values["l"]))


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _config_from(args: argparse.Namespace) -> RunConfig:
    """The run's settings; a value out of range raises ValueError (exit 2)."""
    cfg = RunConfig()
    for name in ("order", "depth", "points", "seed"):
        if getattr(args, name, None) is not None:
            setattr(cfg, name, getattr(args, name))
    if getattr(args, "params", None):
        cfg.params = parse_params(args.params)
    if getattr(args, "format", None):
        cfg.format = args.format
    cfg.output_path = getattr(args, "output", None)
    problem = cfg.validate()
    if problem is not None:
        raise ValueError(problem)
    return cfg


# ---------------------------------------------------------------------------
# verify


def _report_lines(reports, show_source: bool) -> List[str]:
    lines: List[str] = []
    seen = set()
    for r in reports:
        if show_source and r.id not in seen:
            seen.add(r.id)
            try:
                src = catalog.lookup(r.id).source
            except UnknownIdentity:
                src = "reduction link"
            lines.append(f"== {r.id}: {src}")
        where = f"@ {r.params}" if r.params is not None else ""
        tail = ""
        if r.status == "fail":
            tail = f"  first mismatch at q^{r.first_mismatch_power}: {r.reason}"
        elif r.status == "skipped":
            tail = f"  ({r.reason})"
        elif r.escalated:
            tail = "  [escalation point]"
        lines.append(f"  {r.status:<7} {where} [order {r.order}, depth {r.depth}]{tail}")
    return lines


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _config_from(args)

    if args.id == "all":
        if args.perturb:
            print("--perturb needs a single identity id", file=sys.stderr)
            return 2
        reports, summary = catalog.verify_all(cfg.seed, cfg.points, cfg.order, cfg.depth)
    else:
        try:
            entry = catalog.lookup(args.id)
            if args.perturb:
                entry = catalog.perturbed_entry(args.id)
        except (UnknownIdentity, ValueError) as exc:
            print(exc, file=sys.stderr)
            return 2
        if cfg.params is not None:
            reports = [catalog.verify_entry(entry, cfg.params, cfg.order, cfg.depth)]
        else:
            reports = catalog.run_entry(entry, cfg.seed, cfg.points, cfg.order, cfg.depth)
        summary = catalog.summarize(reports)

    if cfg.format == "json":
        run = {"seed": cfg.seed, "points": cfg.points,
               "order": cfg.order, "depth": cfg.depth}
        out = catalog.reports_to_json(reports, summary, run)
    elif cfg.format == "tsv":
        out = catalog.failure_table(reports)
    else:
        lines = _report_lines(reports, show_source=True)
        lines.append(f"summary: {summary['pass']} pass, {summary['fail']} fail, "
                     f"{summary['skip']} skipped")
        if summary["suspected_cancellation"]:
            lines.append("suspected accidental cancellation: "
                         + ", ".join(summary["suspected_cancellation"]))
        out = "\n".join(lines) + "\n"
    _emit(out, cfg.output_path)
    return 1 if summary["fail"] else 0


# ---------------------------------------------------------------------------
# expand


def _parse_family_arg(text: str):
    name, _, shift = text.partition(":")
    fam = Family.parse(name.strip())
    s = int(shift) if shift else 0
    return fam, s


def cmd_expand(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    point = cfg.params if cfg.params is not None else DEFAULT_POINT
    try:
        num_fam, num_s = _parse_family_arg(args.num)
        den_fam, den_s = _parse_family_arg(args.den)
        num = build_family(num_fam, num_s, point, cfg.order)
        den = build_family(den_fam, den_s, point, cfg.order)
    except (ValueError, QcfracError) as exc:
        print(exc, file=sys.stderr)
        return 2

    def render(trace) -> List[str]:
        lines = [f"f{i + 1}: {f}  (residual order {n})"
                 for i, (f, n) in enumerate(zip(trace.factors, trace.orders))]
        if trace.terminated:
            lines.append("terminated: ratio is 1")
        return lines

    try:
        trace = euler_expand(num, den, cfg.depth)
    except PrecisionExhausted as exc:
        lines = render(exc.partial)
        lines.append(f"precision exhausted: {exc}")
        _emit("\n".join(lines) + "\n", cfg.output_path)
        return 1
    _emit("\n".join(render(trace)) + "\n", cfg.output_path)
    return 0


# ---------------------------------------------------------------------------
# approximants


def cmd_approximants(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    try:
        entry = catalog.lookup(args.id)
    except UnknownIdentity as exc:
        print(exc, file=sys.stderr)
        return 2
    if entry.make_cf is None:
        print(f"{args.id} is not a continued-fraction entry", file=sys.stderr)
        return 2
    point = cfg.params if cfg.params is not None else DEFAULT_POINT
    why = entry.constraint_failure(point)
    if why is not None:
        print(f"parameter point is out of range: {why}", file=sys.stderr)
        return 2

    cf = entry.make_cf(point, cfg.order)
    num, den = entry.targets(point, cfg.order)

    lines: List[str] = []
    at_q = None
    ncf = None
    if args.at_q:
        at_q = parse_rational(args.at_q)
        ncf = numeric_cf(cf, at_q)
        try:
            widx = worpitzky_index(ncf)
            lines.append(f"worpitzky index at q = {format_rational(at_q)}: {widx}")
        except HorizonExceeded as exc:
            lines.append(f"worpitzky index at q = {format_rational(at_q)}: "
                         f"none ({exc})")

    header = "n\tcontact"
    if ncf is not None:
        header += "\tvalue\tdelta"
    lines.append(header)
    prev_val = None
    for n, fm, _ in islice(contacts(cf, num, den), cfg.depth):
        contact = str(fm) if fm is not None else f">{cfg.order}"
        row = f"{n}\t{contact}"
        if ncf is not None:
            val = numeric_value(ncf, n)
            delta = "-" if prev_val is None else f"{abs(val - prev_val):.3e}"
            row += f"\t{val!r}\t{delta}"
            prev_val = val
        lines.append(row)
    _emit("\n".join(lines) + "\n", cfg.output_path)
    return 0


# ---------------------------------------------------------------------------
# euclid


def cmd_euclid(args: argparse.Namespace) -> int:
    try:
        value = parse_rational(args.fraction)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if value <= 0:
        print("euclid expects a positive rational", file=sys.stderr)
        return 2
    quotients = euclid_cf(value.numerator, value.denominator)
    if len(quotients) == 1:
        display = f"[{quotients[0]}]"
    else:
        rest = ", ".join(str(a) for a in quotients[1:])
        display = f"[{quotients[0]}; {rest}]"
    back = euclid_value(quotients)
    out = f"{display}\nvalue: {format_rational(back)}\n"
    _emit(out, getattr(args, "output", None))
    return 0


# ---------------------------------------------------------------------------
# parser plumbing


def _add_common(sub: argparse.ArgumentParser, points: bool = False) -> None:
    sub.add_argument("--order", type=int, default=None,
                     help=f"truncation order (default {catalog.DEFAULT_ORDER}, "
                          f"4 to {MAX_ORDER})")
    sub.add_argument("--depth", type=int, default=None,
                     help=f"approximant/expansion depth (default {catalog.DEFAULT_DEPTH}, "
                          f"at most {MAX_DEPTH})")
    sub.add_argument("--params", default=None,
                     help="exact parameters, e.g. a=1/3,b=1/5,l=1/7")
    sub.add_argument("--output", default=None, metavar="PATH",
                     help="write the report to PATH instead of stdout")
    if points:
        sub.add_argument("--points", type=int, default=None,
                         help=f"sampled parameter points per identity (default 3, "
                              f"at most {MAX_POINTS})")
        sub.add_argument("--seed", type=int, default=None,
                         help="seed for parameter sampling (default 0)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="qcfrac",
        description="exact verification of q-continued-fraction identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check one identity or the whole catalog")
    p_verify.add_argument("id", help='identity id, or "all"')
    _add_common(p_verify, points=True)
    p_verify.add_argument("--format", choices=("text", "json", "tsv"), default="text")
    p_verify.add_argument("--perturb", action="store_true",
                          help="double the second partial numerator (negative control)")
    p_verify.set_defaults(func=cmd_verify)

    p_expand = sub.add_parser("expand",
                              help="Euler-expand a ratio of family sums into a fraction")
    p_expand.add_argument("--num", required=True, metavar="NAME[:SHIFT]",
                          help="numerator family, e.g. R:1 or g1:0")
    p_expand.add_argument("--den", required=True, metavar="NAME[:SHIFT]",
                          help="denominator family")
    _add_common(p_expand)
    p_expand.set_defaults(func=cmd_expand)

    p_approx = sub.add_parser("approximants",
                              help="tabulate order of contact against the target ratio")
    p_approx.add_argument("id", help="a continued-fraction identity id")
    _add_common(p_approx)
    p_approx.add_argument("--at-q", default=None, metavar="P/Q", dest="at_q",
                          help="also evaluate numerically at the rational q = P/Q")
    p_approx.set_defaults(func=cmd_approximants)

    p_euclid = sub.add_parser("euclid",
                              help="continued fraction of a positive rational")
    p_euclid.add_argument("fraction", help="a positive rational like 13/8")
    p_euclid.set_defaults(func=cmd_euclid)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if (argv and argv[0] == "euclid" and "--" not in argv
            and not any(a in ("-h", "--help") for a in argv)):
        # keep a leading minus sign on the fraction from reading as a flag
        argv = [argv[0], "--"] + argv[1:]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, QcfracError) as exc:
        print(exc, file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
