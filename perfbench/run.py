#!/usr/bin/env python3
"""qcfrac benchmark: drive the real CLI in-process and time it.

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 35 --trace 0

Run it from the root of a source checkout; it imports ``qcfrac`` from
``src/``.  One process, one thread, a closed loop with one client: the next
command starts only after the previous one returned.  A pass is the
workload's list of commands for the seed (see ``workloads.py``); passes
repeat while another one still fits in ``--seconds``, and at least one runs.

``--trace 0`` reports the end-to-end metrics: ``wall_ref``, the pass's wall
time in units of a reference probe timed next to and during every command
(see ``reference_seconds`` and ``ProbeTimer``), ``peak_rss_mb``, and
``setup_s``, the set-up time rescaled to the speed where the probe takes
``PROBE_NOMINAL_S``.  The raw wall, CPU and set-up seconds are printed too.
``--trace 1`` follows every plain pass with the same pass with every layer
wrapped (see ``layers.py``) and reports the per-layer metrics, the tracing
overhead among them.  A traced round whose spans do not account for its
wall time makes the run incorrect (see ``span_problem``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Per-pass values, the run's stamp
and (traced) every span go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: "Ready" means the package imported, the catalog registered and the CLI
#: parser built: everything a command needs before it starts working.
SETUP_CODE = ("import qcfrac; from qcfrac import catalog, cli; "
              "catalog.register_all(); cli.build_parser()")
#: Set-up is timed this many times after every pass, so its samples spread
#: over the whole run like the passes' own.
SETUP_PER_PASS = 2
#: Truncation order of the reference probe's series, about 12 ms of work.
REFERENCE_ORDER = 34
#: Set-up seconds are reported at the machine speed where the probe takes
#: this long, so that drift in the host's speed does not read as a change.
PROBE_NOMINAL_S = 0.012
#: While a plain pass's command runs, the probe also runs this often (wall
#: seconds).  The host's speed changes over a second or two, so probes at a
#: command's two ends alone miss what happens in between.
PROBE_EVERY_S = 0.2
#: Share of a traced pass's wall time, less the bookkeeping the span clock
#: skips, that the top-level spans must cover.  The rest is the few
#: microseconds per command between the timer and the span.
SPAN_COVERAGE = 0.99


def reference_seconds() -> float:
    """Wall seconds of a fixed Fraction computation that uses no qcfrac code.

    On a shared host the same computation can take twice as long from one
    second to the next, with CPU time tracking wall time.  Timing this probe
    next to and during every command measures that drift where it happens;
    a command's time divided by the probe's is its cost in probe units.

    The probe multiplies six truncated series with small Fraction
    coefficients, schoolbook, like qcfrac's own work.  The host slows such
    interpreter-bound code more than it slows long-integer arithmetic, so
    a probe of the latter would under-correct the slow spells.
    """
    started = time.perf_counter()
    n = REFERENCE_ORDER
    x = [Fraction(1)] * (n + 1)
    for j in range(6):
        a = Fraction(-(j % 5) - 1, j + 2)
        y = [Fraction(1)] + [a ** (i % 4) for i in range(n)]
        x = [sum((x[i] * y[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n + 1)]
    return time.perf_counter() - started


def time_setup() -> float:
    """Wall seconds from spawning a fresh interpreter until it is ready."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    return time.perf_counter() - started


def time_setup_nominal() -> tuple:
    """(raw set-up seconds, the same rescaled to PROBE_NOMINAL_S probe speed)."""
    before = reference_seconds()
    raw = time_setup()
    after = reference_seconds()
    return raw, raw * 2 * PROBE_NOMINAL_S / (before + after)


def import_program():
    """Import qcfrac from this checkout's sources; the reason it failed, or None."""
    if not (SRC / "qcfrac" / "__init__.py").is_file():
        return f"no qcfrac sources under {SRC}; run from a source checkout"
    sys.path.insert(0, str(SRC))
    import qcfrac

    if Path(qcfrac.__file__).resolve().parent != (SRC / "qcfrac").resolve():
        return f"imported qcfrac from {qcfrac.__file__}, not from {SRC}"
    return None


def run_cli(argv):
    """Run one qcfrac command in-process: (exit code, stdout)."""
    from qcfrac import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def git_revision() -> str:
    if not (ROOT / ".git").exists():  # an exported checkout carries no history
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def stamp(workload: str, seed: int, trace: bool) -> dict:
    from qcfrac import rationals

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "backend": rationals.backend_name(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
    }


class ProbeTimer:
    """Runs the reference probe from a timer signal every PROBE_EVERY_S.

    The handler runs in the benchmark's one thread, between two bytecodes
    of the command it interrupts.  ``marks`` holds (start, seconds) of every
    probe run since the timer was started.
    """

    def __init__(self):
        self.marks: list = []
        self._previous = None

    def _tick(self, signum, frame):
        started = time.perf_counter()
        self.marks.append((started, reference_seconds()))

    def __enter__(self):
        self.marks = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def probe_units(start, end, marks, before, after) -> tuple:
    """(command seconds, the same in probe units) of a command run from start to end.

    ``marks`` are the probes that interrupted it and ``before``/``after``
    the probes on either side.  The stretches of command time between two
    probes are divided each by the mean of those two probes' times.
    """
    starts = [start] + [m[0] for m in marks] + [end]
    lengths = [0.0] + [m[1] for m in marks] + [0.0]
    speeds = [before] + [m[1] for m in marks] + [after]
    wall = ref = 0.0
    for j in range(len(starts) - 1):
        stretch = starts[j + 1] - (starts[j] + lengths[j])
        wall += stretch
        ref += 2 * stretch / (speeds[j] + speeds[j + 1])
    return wall, ref


class Loop:
    """Runs passes of one workload and checks every command's output.

    Plain passes run the probe timer during every command; traced passes
    do not, so that no probe time lands inside a span.
    """

    def __init__(self, commands, golden, tracer=None):
        from qcfrac import cli

        self.main = cli.main
        self.commands = commands
        self.golden = golden
        self.tracer = tracer
        self.probes = ProbeTimer() if tracer is None else None
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def run_command(self, command):
        out, err = io.StringIO(), io.StringIO()
        t = self.tracer
        code = None
        probes = self.probes or contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start, cpu0 = time.perf_counter(), time.process_time()
            if t is not None:
                t.enter("cli.main")
            try:
                with probes:
                    code = self.main(command.argv)
            except Exception:  # a crash is a wrong answer, not the end of the run
                err.write(traceback.format_exc())
            finally:
                if t is not None:
                    t.exit()
                end, cpu = time.perf_counter(), time.process_time() - cpu0
        marks = list(self.probes.marks) if self.probes else []
        self.attempted += 1
        why = "crashed" if code is None else None
        why = why or workloads.problem(command, code, out.getvalue(), self.golden)
        if why is not None:
            self.failed += 1
            self.problems.append((command.key, why, err.getvalue()[-2000:]))
        # The probes' CPU time is about their wall time.
        return start, end, cpu - sum(m[1] for m in marks), marks

    def run_pass(self):
        """(wall, cpu, wall in probe units) of every command of one pass.

        The probe runs before the first command, after every command and,
        in plain passes, every PROBE_EVERY_S during each command; a stretch
        of command time is measured against the probes at its two ends.
        Probe time is not command time.
        """
        out = []
        before = reference_seconds()
        for command in self.commands:
            start, end, cpu, marks = self.run_command(command)
            after = reference_seconds()
            wall, ref = probe_units(start, end, marks, before, after)
            out.append((wall, cpu, ref))
            before = after
        return out


def span_problem(round_: dict, open_spans: int):
    """Why a traced round's spans do not account for its wall time, or None.

    Self times partition the top-level spans, so their sum is the time the
    spans cover.  Each command's timer starts before its span opens and
    stops after it closes, so that sum is at most the pass's wall time less
    the skipped bookkeeping; lost, unclosed or double-counted spans show as
    a sum outside [SPAN_COVERAGE, 1] of it.
    """
    covered = round_["trace.self_sum_s"]
    traced = round_["trace.wall_s"] - round_["trace.bookkeeping_s"]
    if not SPAN_COVERAGE * traced <= covered <= traced:
        return (f"span self times sum to {covered:.6f} s of {traced:.6f} s traced "
                "outside bookkeeping")
    if open_spans:
        return f"{open_spans} spans left open"
    return None


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from qcfrac import catalog

    catalog.register_all()
    commands = workloads.WORKLOADS[workload](seed)
    golden = workloads.load_golden()
    setup = []
    if not trace:
        time_setup()  # the first spawn compiles bytecode; users pay that once

    tracer = layers.Tracer() if trace else None
    plain = Loop(commands, golden)
    traced = Loop(commands, golden, tracer) if trace else None
    if trace:
        # First calls pay one-off costs; the overhead pairs need warm passes.
        plain.run_pass()
    passes, rounds, span_problems = [], [], []
    started = time.perf_counter()
    while True:
        passes.append(plain.run_pass())
        if trace:
            tracer.new_round()
            with layers.Instrumented(tracer):
                traced_pass = traced.run_pass()
            traced_wall = sum(c[0] for c in traced_pass)
            round_ = layers.round_metrics(tracer, traced_wall, workloads.ENTRY_IDS)
            # Traced minus plain pass, compared in probe units so that a change
            # of machine speed between the two passes does not count.
            plain_wall = sum(c[0] for c in passes[-1])
            ratio = sum(c[2] for c in traced_pass) / sum(c[2] for c in passes[-1])
            round_["trace.overhead_s"] = plain_wall * (ratio - 1)
            rounds.append(round_)
            why = span_problem(round_, tracer.open_spans)
            if why is not None:
                span_problems.append(why)
        else:
            setup.extend(time_setup_nominal() for _ in range(SETUP_PER_PASS))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) > seconds:
            break

    # A pass costs the sum over its commands of each command's median,
    # which damps a burst of interference that hits one command of one pass.
    def pass_cost(k):
        return sum(statistics.median(p[i][k] for p in passes) for i in range(len(commands)))

    detail = {
        "stamp": stamp(workload, seed, trace),
        "commands": [c.key for c in commands],
        "wall_s": pass_cost(0),
        "cpu_s": pass_cost(1),
        "wall_ref": pass_cost(2),
        "command_wall_s": [[p[i][0] for p in passes] for i in range(len(commands))],
        "command_wall_ref": [[p[i][2] for p in passes] for i in range(len(commands))],
        "pass_wall_s": [sum(c[0] for c in p) for p in passes],
        "setup_raw_s": [raw for raw, _ in setup],
        "setup_s": [nominal for _, nominal in setup],
        "problems": plain.problems + (traced.problems if trace else []),
    }
    if trace:
        metrics = layers.median_metrics(rounds)
        units = dict(layers.BASE_METRICS)
        values = {name: {"value": metrics[name], "unit": units.get(name, "s")}
                  for name in metrics}
        detail["rounds"] = rounds
    else:
        values = {
            "wall_ref": {"value": detail["wall_ref"], "unit": "ref"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(detail["setup_s"]), "unit": "s"},
        }

    OUT_DIR.mkdir(exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        tracer.write(OUT_DIR / f"{name}.spans.tsv.gz")
        detail["spans_file"] = str((OUT_DIR / f"{name}.spans.tsv.gz").relative_to(ROOT))
    (OUT_DIR / f"{name}.json").write_text(json.dumps(detail, indent=1) + "\n",
                                          encoding="utf-8")
    for key, why, err in detail["problems"]:
        print(f"WRONG: {key}: {why}\n{err}", file=sys.stderr)
    for why in span_problems:
        print(f"WRONG: {why}", file=sys.stderr)
    return {
        "stamp": detail["stamp"],
        "raw": {"wall_s": detail["wall_s"], "cpu_s": detail["cpu_s"],
                "setup_s": statistics.median(detail["setup_raw_s"]) if setup else None},
        "result": {
            "correct": not detail["problems"] and not span_problems,
            "attempted": plain.attempted + (traced.attempted if trace else 0),
            "failed": len(detail["problems"]),
            "metrics": values,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = import_program()
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2

    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("stamp " + json.dumps(out["stamp"], sort_keys=True))
    for name, value in out["raw"].items():
        if value is not None:
            print(f"raw {name} {value!r} s")
    for name, m in out["result"]["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
