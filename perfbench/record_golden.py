#!/usr/bin/env python3
"""Record golden output digests for the benchmark's commands.

    python3 perfbench/record_golden.py --seeds 0-9

Runs every command of every workload for each seed once, requires its
output to pass the workload's invariants, and stores the SHA-256 of its
stdout in ``golden/digests.json`` (merged with what is there).  Later runs
of those command lines must reproduce the output byte for byte.

Record only from a commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads
from run import import_program, run_cli


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    args = parser.parse_args(argv)
    problem = import_program()
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2

    golden = workloads.load_golden()
    for seed in seed_range(args.seeds):
        for name, make in workloads.WORKLOADS.items():
            for command in make(seed):
                code, out = run_cli(command.argv)
                why = workloads.problem(command, code, out, {})
                if why is not None:
                    print(f"refusing to record {command.key}: {why}", file=sys.stderr)
                    return 1
                golden[command.key] = workloads.digest(out)
            print(f"recorded {name} seed {seed}", flush=True)
    workloads.GOLDEN.parent.mkdir(exist_ok=True)
    workloads.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
