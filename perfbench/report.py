#!/usr/bin/env python3
"""Run every workload for a set of seeds and summarise the figures.

    python3 perfbench/report.py --seeds 0-9 --seconds 35 --write perfbench/baseline.json

The checker self-test runs first.  Then, for each workload, ``run.py`` runs
once per seed with tracing off, each run in a fresh process, and once traced
at the first seed.  The report gives every end-to-end metric by name and
unit with its median, quartiles and spread (quartile distance over median,
``statistics.quantiles(n=4)``), then the traced per-layer table, tracing
overhead included.  ``--write`` stores the whole summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from record_golden import seed_range

HERE = Path(__file__).resolve().parent
WORKLOADS = ("catalog", "contact", "expand")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    stamp = next(line for line in lines if line.startswith("stamp "))
    result["stamp"] = json.loads(stamp[len("stamp "):])
    result["raw"] = {line.split()[1]: float(line.split()[2])
                     for line in lines if line.startswith("raw ")}
    return result


def summarise(values: list) -> dict:
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--write", metavar="PATH", help="store the summary as JSON")
    args = parser.parse_args(argv)
    seeds = seed_range(args.seeds)

    selftest = subprocess.run([sys.executable, str(HERE / "selftest.py")], cwd=HERE.parent)
    summary = {"seeds": seeds, "seconds": args.seconds,
               "selftest_passed": selftest.returncode == 0, "workloads": {}}
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        traced = run_once(workload, seeds[0], args.seconds, 1)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        e2e = {name: dict(summarise([r["metrics"][name]["value"] for r in runs]),
                          unit=runs[0]["metrics"][name]["unit"])
               for name in runs[0]["metrics"]}
        raw = {name: summarise([r["raw"][name] for r in runs]) for name in runs[0]["raw"]}
        layer = {name: m["value"] for name, m in traced["metrics"].items()}
        overhead = layer["trace.overhead_s"]
        summary["stamp"] = {k: v for k, v in runs[0]["stamp"].items()
                            if k not in ("workload", "seed", "trace")}
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted,
            "end_to_end": e2e,
            "raw_seconds": raw,
            "trace_overhead_s": overhead,
            "per_layer_at_first_seed": layer,
        }
        print(f"== {workload}: {len(runs)} seeds, fail_ratio {failed}/{attempted}, "
              f"correct {summary['workloads'][workload]['correct']}")
        for name, s in e2e.items():
            print(f"  {name:<12} median {s['median']:.4f} {s['unit']}  "
                  f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n {s['n']}  spread {s['spread']:.3f}")
        for name, s in raw.items():
            print(f"  raw {name:<8} median {s['median']:.4f} s  q1 {s['q1']:.4f}  "
                  f"q3 {s['q3']:.4f}  spread {s['spread']:.3f}")
        print(f"  trace overhead {overhead:.3f} s (traced {layer['trace.wall_s']:.3f} s)")
        for name, value in layer.items():
            if value:
                print(f"    {name} {value}")
    print(f"selftest {'passed' if summary['selftest_passed'] else 'FAILED'}")
    if args.write:
        Path(args.write).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    ok = summary["selftest_passed"] and all(w["correct"] for w in summary["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
