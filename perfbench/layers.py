"""Per-layer tracing of qcfrac from outside the package.

The tracer wraps each module's public functions where callers look them up:
a module that did ``from .series import geometric_inverse`` holds its own
reference, so every loaded ``qcfrac`` module attribute that is the original
function object is swapped for the wrapper (and swapped back on exit).

Spans record name, start, end and parent; they are kept in memory as flat
arrays and written out once the run ends.  Self time is a span's duration
minus the time its children cover.  Operation counts and coefficient bit
lengths are computed outside every span: the span clock stops while they
run, so they add to the traced pass's wall time but to no span.

Layers, bottom up: rationals -> series -> families -> cfrac / euler ->
catalog -> cli.  ``errors`` does no work and is not traced.
"""

from __future__ import annotations

import dataclasses
import gzip
import statistics
import sys
from array import array
from collections import Counter
from time import perf_counter

#: Every per-layer metric, in the order BENCHMARK.json lists them; the
#: per-entry times (``entry_metric``) follow for every catalog entry.
BASE_METRICS = [
    ("series.mul_dense.calls", "count"),
    ("series.mul_dense.s", "s"),
    ("series.mul_dense.ops", "ops"),
    ("series.mul_sparse.calls", "count"),
    ("series.mul_sparse.s", "s"),
    ("series.mul_sparse.ops", "ops"),
    ("series.inverse.calls", "count"),
    ("series.inverse.s", "s"),
    ("series.inverse.ops", "ops"),
    ("series.geometric_inverse.calls", "count"),
    ("series.geometric_inverse.s", "s"),
    ("series.linear.s", "s"),
    ("rationals.coeff_bits_max", "bits"),
    ("rationals.coeff_bits_p50", "bits"),
    ("families.build.calls", "count"),
    ("families.build.s", "s"),
    ("families.build.self_s", "s"),
    ("families.build.distinct_ratio", "ratio"),
    ("families.pochhammer.calls", "count"),
    ("families.pochhammer.s", "s"),
    ("cfrac.approximant.calls", "count"),
    ("cfrac.approximant.s", "s"),
    ("cfrac.approximant.self_s", "s"),
    ("cfrac.convergent_steps", "count"),
    ("euler.expand.calls", "count"),
    ("euler.expand.s", "s"),
    ("euler.steps", "count"),
    ("euler.three_term.s", "s"),
    ("catalog.check_cf.s", "s"),
    ("catalog.check_pairs.s", "s"),
    ("catalog.check_recurrence.s", "s"),
    ("catalog.link.s", "s"),
    ("catalog.checks", "count"),
    ("catalog.skipped_ratio", "ratio"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.bookkeeping_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]

_POCHHAMMER = ("pochhammer_finite", "pochhammer_infinite", "limit_pochhammer_scaled")
_NOT_BUILDERS = ("sample_params",)


def entry_metric(entry_id: str) -> str:
    return f"catalog.entry.{entry_id}.s"


def _nonzero_positions(coeffs, n):
    return [i for i in range(n + 1) if coeffs[i] != 0]


def mul_shape(x, y):
    """(dense, ops) for the truncated product x * y.

    Dense means both operands are more than half nonzero within the common
    order.  ops counts the scalar multiply-adds the schoolbook product
    performs: pairs of nonzero coefficients whose powers sum within order.
    """
    n = min(x.order, y.order)
    xs = _nonzero_positions(x.coeffs, n)
    ys = _nonzero_positions(y.coeffs, n)
    dense = 2 * len(xs) > n + 1 and 2 * len(ys) > n + 1
    upto = [0] * (n + 1)  # upto[k] = nonzero coefficients of y at powers <= k
    running = 0
    j = 0
    for k in range(n + 1):
        if j < len(ys) and ys[j] == k:
            running += 1
            j += 1
        upto[k] = running
    return dense, sum(upto[n - i] for i in xs)


def inverse_ops(x):
    """Multiply-adds of the recurrence out[m] = -inv0 * sum_k d_k out[m-k]."""
    n = x.order
    return sum(n - k + 1 for k in range(1, n + 1) if x.coeffs[k] != 0)


class Tracer:
    """In-memory span recorder plus counters, for one traced round at a time."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, name, child time, start]
        #: Seconds spent on bookkeeping (operation counts, bit lengths); the
        #: span clock skips them so no span, parent or child, is charged.
        self.excluded = 0.0
        self.round_excluded_from = 0.0
        self.new_round()

    def new_round(self) -> None:
        self.duration = Counter()
        self.self_time = Counter()
        self.calls = Counter()
        self.build_s = 0.0  # outermost builder spans only
        self.build_calls = 0
        self.counts = Counter()
        self.bits = Counter()
        self.entry_s = Counter()
        self.builds: set = set()
        self.round_spans = 0
        self.round_excluded_from = self.excluded

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def now(self) -> float:
        return perf_counter() - self.excluded

    def pause(self) -> float:
        return perf_counter()

    def resume(self, paused_at: float) -> None:
        self.excluded += perf_counter() - paused_at

    def enter(self, name: str) -> None:
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append([idx, name, 0.0, self.now()])

    def exit(self) -> float:
        end = self.now()
        idx, name, child, start = self._stack.pop()
        dur = end - start
        self.span_start[idx] = start
        self.span_end[idx] = end
        self.duration[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        self.round_spans += 1
        return dur

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    def record_bits(self, series) -> None:
        for c in series.coeffs:
            if c != 0:
                self.bits[max(c.numerator.bit_length(), c.denominator.bit_length())] += 1

    def write(self, path) -> None:
        """Dump every span as TSV: name, parent index, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tparent\tstart\tend\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}"
                         f"\t{self.span_start[i]!r}\t{self.span_end[i]!r}\n")


def _bits_p50(bits: Counter) -> int:
    total = sum(bits.values())
    if not total:
        return 0
    seen = 0
    for b in sorted(bits):
        seen += bits[b]
        if 2 * seen >= total:
            return b
    return 0


class Instrumented:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list = []

    # -- patching helpers ---------------------------------------------------

    def _modules(self):
        return [m for name, m in sys.modules.items()
                if m is not None and (name == "qcfrac" or name.startswith("qcfrac."))]

    def _patch_function(self, module, attr: str, make_wrapper) -> None:
        """Replace ``module.attr`` everywhere a qcfrac module holds it."""
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = make_wrapper(original)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def _patch_method(self, cls, attr: str, make_wrapper) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            return
        setattr(cls, attr, make_wrapper(original))
        self._undo.append((cls, attr, original))

    def _span(self, name: str):
        t = self.tracer

        def make(fn):
            def wrapper(*args, **kwargs):
                t.enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    t.exit()
            return wrapper
        return make

    # -- install ------------------------------------------------------------

    def __enter__(self):
        from qcfrac import catalog, cfrac, euler, families, series

        t = self.tracer

        def mul(fn):
            def wrapper(x, y):
                paused = t.pause()
                dense, ops = mul_shape(x, y)
                name = "series.mul_dense" if dense else "series.mul_sparse"
                t.resume(paused)
                t.enter(name)
                try:
                    out = fn(x, y)
                finally:
                    t.exit()
                paused = t.pause()
                t.counts[name + ".ops"] += ops
                t.record_bits(out)
                t.resume(paused)
                return out
            return wrapper

        def inverse(fn):
            def wrapper(x):
                paused = t.pause()
                ops = inverse_ops(x)
                t.resume(paused)
                t.enter("series.inverse")
                try:
                    out = fn(x)
                finally:
                    t.exit()
                paused = t.pause()
                t.counts["series.inverse.ops"] += ops
                t.record_bits(out)
                t.resume(paused)
                return out
            return wrapper

        self._patch_method(series.QSeries, "__mul__", mul)
        self._patch_method(series.QSeries, "inverse", inverse)
        for attr in ("__add__", "__sub__", "__neg__", "scale", "shift_down"):
            self._patch_method(series.QSeries, attr, self._span("series.linear"))
        self._patch_function(series, "monomial_mul", self._span("series.linear"))
        self._patch_function(series, "geometric_inverse",
                             self._span("series.geometric_inverse"))

        def build(fn):
            name = fn.__name__

            def wrapper(*args, **kwargs):
                outer = not t.inside("families.build")
                if outer:
                    paused = t.pause()
                    t.builds.add((name, args, tuple(sorted(kwargs.items()))))
                    t.resume(paused)
                t.enter("families.build")
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = t.exit()
                    if outer:
                        t.build_s += dur
                        t.build_calls += 1
            return wrapper

        for attr in families.__all__:
            value = getattr(families, attr, None)
            if not callable(value) or isinstance(value, type) or attr in _NOT_BUILDERS:
                continue
            if attr in _POCHHAMMER:
                self._patch_function(families, attr, self._span("families.pochhammer"))
            else:
                self._patch_function(families, attr, build)

        for attr in ("approximant", "modified_approximant"):
            self._patch_function(cfrac, attr, self._span("cfrac.approximant"))

        def counted(key):
            def make(fn):
                def wrapper(*args, **kwargs):
                    t.counts[key] += 1
                    return fn(*args, **kwargs)
                return wrapper
            return make

        self._patch_method(cfrac.Convergents, "advance", counted("cfrac.convergent_steps"))
        self._patch_function(euler, "euler_expand", self._span("euler.expand"))
        self._patch_function(euler, "euler_step", counted("euler.steps"))
        self._patch_function(euler, "verify_three_term", self._span("euler.three_term"))

        for attr, name in (("_check_cf", "catalog.check_cf"),
                           ("_check_pairs", "catalog.check_pairs"),
                           ("_check_recurrences", "catalog.check_recurrence")):
            self._patch_function(catalog, attr, self._span(name))

        # Links hold their check functions in a tuple of frozen records, so
        # the tuple itself is swapped for one whose checks are wrapped.
        link_span = self._span("catalog.link")
        self._undo.append((catalog, "REDUCTION_LINKS", catalog.REDUCTION_LINKS))
        catalog.REDUCTION_LINKS = tuple(
            dataclasses.replace(link, check=link_span(link.check))
            for link in catalog.REDUCTION_LINKS)

        def verify_entry(fn):
            def wrapper(*args, **kwargs):
                t.enter("catalog.entry")
                try:
                    report = fn(*args, **kwargs)
                finally:
                    t.exit()
                t.counts["catalog.checks"] += 1
                t.counts["catalog.skipped"] += report.status == "skipped"
                t.entry_s[report.id] += report.elapsed
                return report
            return wrapper

        self._patch_function(catalog, "_verify_entry", verify_entry)

        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False


def round_metrics(t: Tracer, wall: float, entry_ids) -> dict:
    """Per-layer values of the round just traced.

    ``wall`` is the round's real wall time, measured around every top-level
    span, so it also holds the bookkeeping the span clock skips.
    """
    d, s, c = t.duration, t.self_time, t.calls
    out = {
        "series.mul_dense.calls": c["series.mul_dense"],
        "series.mul_dense.s": d["series.mul_dense"],
        "series.mul_dense.ops": t.counts["series.mul_dense.ops"],
        "series.mul_sparse.calls": c["series.mul_sparse"],
        "series.mul_sparse.s": d["series.mul_sparse"],
        "series.mul_sparse.ops": t.counts["series.mul_sparse.ops"],
        "series.inverse.calls": c["series.inverse"],
        "series.inverse.s": d["series.inverse"],
        "series.inverse.ops": t.counts["series.inverse.ops"],
        "series.geometric_inverse.calls": c["series.geometric_inverse"],
        "series.geometric_inverse.s": d["series.geometric_inverse"],
        "series.linear.s": d["series.linear"],
        "rationals.coeff_bits_max": max(t.bits, default=0),
        "rationals.coeff_bits_p50": _bits_p50(t.bits),
        "families.build.calls": t.build_calls,
        "families.build.s": t.build_s,
        "families.build.self_s": s["families.build"],
        "families.build.distinct_ratio": len(t.builds) / t.build_calls if t.build_calls else 0.0,
        "families.pochhammer.calls": c["families.pochhammer"],
        "families.pochhammer.s": d["families.pochhammer"],
        "cfrac.approximant.calls": c["cfrac.approximant"],
        "cfrac.approximant.s": d["cfrac.approximant"],
        "cfrac.approximant.self_s": s["cfrac.approximant"],
        "cfrac.convergent_steps": t.counts["cfrac.convergent_steps"],
        "euler.expand.calls": c["euler.expand"],
        "euler.expand.s": d["euler.expand"],
        "euler.steps": t.counts["euler.steps"],
        "euler.three_term.s": d["euler.three_term"],
        "catalog.check_cf.s": d["catalog.check_cf"],
        "catalog.check_pairs.s": d["catalog.check_pairs"],
        "catalog.check_recurrence.s": d["catalog.check_recurrence"],
        "catalog.link.s": d["catalog.link"],
        "catalog.checks": t.counts["catalog.checks"],
        "catalog.skipped_ratio": (t.counts["catalog.skipped"] / t.counts["catalog.checks"]
                                  if t.counts["catalog.checks"] else 0.0),
        "cli.self_s": s["cli.main"],
        "trace.wall_s": wall,
        "trace.self_sum_s": sum(s.values()),
        "trace.bookkeeping_s": t.excluded - t.round_excluded_from,
        "trace.spans": t.round_spans,
    }
    for entry_id in entry_ids:
        out[entry_metric(entry_id)] = t.entry_s[entry_id]
    return out


def median_metrics(rounds: list) -> dict:
    """Median over traced rounds, metric by metric."""
    return {k: statistics.median_low(r[k] for r in rounds) for k in rounds[0]}
