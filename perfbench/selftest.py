#!/usr/bin/env python3
"""Self-test of the benchmark's output checks: wrong answers must count.

    python3 perfbench/selftest.py

Two kinds of wrong answer, each of which must raise the failure ratio
(failed / attempted) above 0:

* a correct output with one digit changed, checked against the golden
  digests (the first command of seed 0 of every workload);
* a wrong program: RR_CF with its second partial numerator doubled
  (``catalog.perturbed_entry``) in place of the registered entry, run
  through the real CLI (``verify all`` and RR_CF's contact table) and
  checked by the invariants alone, with no golden output to compare against.

Exits 1 if any wrong answer went uncounted or a correct one was rejected.
"""

from __future__ import annotations

import re
import sys

import workloads
from run import Loop, import_program, run_cli


def _change_last_digit(text: str) -> str:
    m = list(re.finditer(r"\d", text))[-1]
    digit = "1" if m.group() != "1" else "2"
    return text[:m.start()] + digit + text[m.end():]


def corrupted_outputs(golden) -> tuple:
    """(attempted, failed, clean_rejected) for one-digit corruptions."""
    attempted = failed = clean_rejected = 0
    for name, make in workloads.WORKLOADS.items():
        command = make(0)[0]
        code, out = run_cli(command.argv)
        if workloads.problem(command, code, out, golden) is not None:
            print(f"{name}: the correct output was rejected", file=sys.stderr)
            clean_rejected += 1
        attempted += 1
        why = workloads.problem(command, code, _change_last_digit(out), golden)
        print(f"{name}: one digit changed -> {why or 'ACCEPTED'}")
        failed += why is not None
    return attempted, failed, clean_rejected


def wrong_program() -> tuple:
    """(attempted, failed) for RR_CF perturbed inside the program."""
    from qcfrac import catalog

    registry = catalog._REGISTRY  # both lookup() and verify all read it
    original = registry["RR_CF"]
    commands = workloads.catalog_commands(0) + [
        c for c in workloads.contact_commands(0) if c.argv[1] == "RR_CF"]
    loop = Loop(commands, golden={})
    registry["RR_CF"] = catalog.perturbed_entry("RR_CF")
    try:
        loop.run_pass()
    finally:
        registry["RR_CF"] = original
    for key, why, _ in loop.problems:
        print(f"perturbed RR_CF: {key} -> {why}")
    return loop.attempted, loop.failed


def main() -> int:
    problem = import_program()
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    golden = workloads.load_golden()
    attempted, failed, clean_rejected = corrupted_outputs(golden)
    print(f"corrupted outputs: fail_ratio {failed}/{attempted}")
    p_attempted, p_failed = wrong_program()
    print(f"perturbed RR_CF: fail_ratio {p_failed}/{p_attempted}")
    ok = failed == attempted and p_failed == p_attempted and not clean_rejected
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
