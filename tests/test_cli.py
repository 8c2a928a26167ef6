"""Command-line behavior: exit codes, formats, determinism."""

import importlib.util
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from qcfrac import catalog
from qcfrac.cli import (MAX_DEPTH, MAX_ORDER, MAX_POINTS, RunConfig, build_parser, main,
                        parse_params)
from qcfrac.families import Family, ParamPoint
from qcfrac.rationals import rational
from qcfrac.series import QSeries


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_params():
    p = parse_params("a=1/3,b=1/5,l=1/7")
    assert p == ParamPoint(rational(1, 3), rational(1, 5), rational(1, 7))
    assert parse_params("lambda=2").lam == 2
    assert parse_params("a=3").b == rational(1, 2)  # defaults fill the rest


def test_parse_params_rejects_floats_and_junk():
    with pytest.raises(ValueError):
        parse_params("a=0.5")
    with pytest.raises(ValueError):
        parse_params("z=1")
    with pytest.raises(ValueError):
        parse_params("a")


def test_verify_single_pass(capsys):
    code, out, _ = run(capsys, "verify", "RR_CF", "--params", "a=1", "--depth", "10")
    assert code == 0
    assert "Ramanujan's notebooks, ch. 16, Entry 15" in out
    assert "pass" in out


def test_verify_unknown_id(capsys):
    code, _, err = run(capsys, "verify", "WHAT")
    assert code == 2
    assert "WHAT" in err


def test_verify_rejects_bad_config(capsys):
    assert run(capsys, "verify", "RR_CF", "--order", "3")[0] == 2
    assert run(capsys, "verify", "RR_CF", "--depth", "0")[0] == 2
    assert run(capsys, "verify", "RR_CF", "--points", "0")[0] == 2
    # upper limits: checked before anything is allocated or computed
    assert run(capsys, "verify", "RR_CF", "--order", "1000000000")[0] == 2
    assert run(capsys, "verify", "RR_CF", "--order", str(MAX_ORDER + 1))[0] == 2
    assert run(capsys, "verify", "RR_CF", "--depth", str(MAX_DEPTH + 1))[0] == 2
    assert run(capsys, "verify", "all", "--points", str(MAX_POINTS + 1))[0] == 2
    assert run(capsys, "expand", "--num", "R:0", "--den", "R:1",
               "--order", "1000000000")[0] == 2
    assert run(capsys, "approximants", "RR_CF", "--depth", str(MAX_DEPTH + 1))[0] == 2
    assert RunConfig(order=MAX_ORDER, depth=MAX_DEPTH, points=MAX_POINTS).validate() is None
    assert RunConfig(order=MAX_ORDER + 1).validate() == f"--order must be at most {MAX_ORDER}"


def test_verify_rejects_float_params(capsys):
    code, _, err = run(capsys, "verify", "RR_CF", "--params", "a=0.3")
    assert code == 2
    assert "0.3" in err


def test_verify_skipped_point_still_exits_zero(capsys):
    # a constraint violation is a skip, not a failure
    code, out, _ = run(capsys, "verify", "RR_CF", "--params", "a=0")
    assert code == 0
    assert "skipped" in out


def test_verify_perturbed_fails(capsys):
    code, out, _ = run(capsys, "verify", "RR_CF", "--perturb", "--points", "1")
    assert code == 1
    assert "first mismatch at q^" in out


def test_parser_built_once_keeps_no_state_between_commands(capsys):
    assert build_parser() is build_parser()
    assert run(capsys, "verify", "RR_CF", "--perturb", "--points", "1")[0] == 1
    assert run(capsys, "verify", "RR_CF", "--points", "1")[0] == 0


def test_perturb_rejects_non_cf(capsys):
    code, _, err = run(capsys, "verify", "REC_RR", "--perturb")
    assert code == 2
    assert "not a continued-fraction entry" in err


def test_verify_json_is_byte_deterministic(capsys):
    args = ("verify", "RR_CF", "--points", "2", "--seed", "5", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["run"]["seed"] == 5
    assert doc["summary"]["fail"] == 0
    assert all(r["status"] in ("pass", "fail", "skipped") for r in doc["reports"])


def test_verify_tsv_clean(capsys):
    code, out, _ = run(capsys, "verify", "RR_CF", "--format", "tsv", "--points", "1")
    assert code == 0
    assert out == "# all pass\n"


def test_verify_tsv_failure_rows(capsys):
    code, out, _ = run(capsys, "verify", "RR_CF", "--perturb", "--points", "1",
                       "--format", "tsv")
    assert code == 1
    assert "power\tlhs\trhs" in out


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "RR_CF", "--points", "1",
                       "--format", "json", "--output", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["summary"]["fail"] == 0


def test_expand_rr_pair(capsys):
    code, out, _ = run(capsys, "expand", "--num", "R:0", "--den", "R:1",
                       "--params", "a=1", "--order", "30", "--depth", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("f1: 1*q^1")
    assert lines[3].startswith("f4: 1*q^4")
    # a shift past the order leaves only the first term of each family, and
    # no term of that size may be built on the way
    for family in Family:
        assert run(capsys, "expand", "--num", f"{family.name}:1000000000",
                   "--den", f"{family.name}:1")[0] == 0, family
    # at order 40, R(s) is 1 for every s > 40 alike
    huge = run(capsys, "expand", "--num", "R:1000000000", "--den", "R:0")
    assert huge == run(capsys, "expand", "--num", "R:100", "--den", "R:0")
    assert huge[0] == 0


def test_expand_identical_ratio_terminates(capsys):
    code, out, _ = run(capsys, "expand", "--num", "R:1", "--den", "R:1")
    assert code == 0
    assert "terminated: ratio is 1" in out


def test_expand_precision_exhausted(capsys):
    code, out, _ = run(capsys, "expand", "--num", "R:0", "--den", "R:1",
                       "--params", "a=1", "--order", "10", "--depth", "10")
    assert code == 1
    assert "f4: 1*q^4" in out          # the partial trace is still printed
    assert "precision exhausted" in out


def test_expand_unknown_family(capsys):
    code, _, err = run(capsys, "expand", "--num", "Z:0", "--den", "R:1")
    assert code == 2
    assert "unknown family" in err


def test_expand_bad_shift(capsys):
    code, _, err = run(capsys, "expand", "--num", "C:0", "--den", "R:1")
    assert code == 2


def test_approximants_table(capsys):
    code, out, _ = run(capsys, "approximants", "RR_CF", "--params", "a=1",
                       "--depth", "12", "--order", "100")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n\tcontact"
    contacts = [int(line.split("\t")[1]) for line in lines[1:]]
    assert len(contacts) == 12
    assert contacts == sorted(contacts) and len(set(contacts)) == 12


def test_approximants_single_row(capsys):
    code, out, _ = run(capsys, "approximants", "RR_CF", "--depth", "1")
    assert code == 0
    assert len(out.splitlines()) == 2


def test_approximants_numeric_columns(capsys):
    code, out, _ = run(capsys, "approximants", "RR_CF", "--params", "a=1",
                       "--depth", "6", "--at-q", "1/2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("worpitzky index at q = 1/2:")
    assert lines[1] == "n\tcontact\tvalue\tdelta"
    assert lines[2].split("\t")[3] == "-"


def test_approximants_rejects_non_cf(capsys):
    code, _, err = run(capsys, "approximants", "POCH_IDS")
    assert code == 2
    assert "not a continued-fraction entry" in err


def test_approximants_non_unit_target_is_a_usage_error(capsys, monkeypatch):
    entry = catalog.lookup("RR_CF")
    monkeypatch.setitem(catalog._REGISTRY, "RR_CF", replace(
        entry, targets=lambda p, order: (QSeries.one(order), QSeries.monomial(1, 1, order))))
    code, out, err = run(capsys, "approximants", "RR_CF", "--depth", "3")
    assert (code, out) == (2, "")
    assert err == "cannot invert a series with zero constant term\n"


def test_euclid_examples(capsys):
    code, out, _ = run(capsys, "euclid", "13/8")
    assert code == 0
    assert out.splitlines() == ["[1; 1, 1, 1, 2]", "value: 13/8"]
    code, out, _ = run(capsys, "euclid", "1/1")
    assert code == 0
    assert out.splitlines()[0] == "[1]"


def test_euclid_rejects_nonpositive(capsys):
    assert run(capsys, "euclid", "-3/4")[0] == 2
    assert run(capsys, "euclid", "0")[0] == 2
    assert run(capsys, "euclid", "x/y")[0] == 2


def test_help_and_usage_exit_codes(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys)[0] == 2
    assert run(capsys, "frobnicate")[0] == 2


def _benchmark_workloads():
    """The benchmark's workload module, loaded from its file for its commands and checks."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up by name
    spec.loader.exec_module(module)
    return module


def test_benchmark_commands_reproduce_golden_digests(capsys):
    """Every recorded benchmark command of seeds 0-9 (catalog passes, contact
    tables and Euler expansions) matches its recorded output."""
    workloads = _benchmark_workloads()
    golden = workloads.load_golden()
    commands = [command for seed in range(10)
                for command in (workloads.catalog_commands(seed)
                                + workloads.contact_commands(seed)
                                + workloads.expand_commands(seed))]
    assert len(commands) == 700
    assert len(golden) == 700
    assert all(command.key in golden for command in commands)
    problems = []
    for command in commands:
        code = main(list(command.argv))
        why = workloads.problem(command, code, capsys.readouterr().out, golden)
        if why is not None:
            problems.append(f"{command.key}: {why}")
    assert problems == []


def test_benchmark_selftest_and_traced_catalog_pass():
    """The benchmark's own gates: its self-test of the output checks, and a
    traced catalog pass whose spans and outputs it accepts."""
    root = Path(__file__).resolve().parents[1]

    def last_line(*argv):
        done = subprocess.run([sys.executable, *argv], cwd=root, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[-1]

    assert last_line("perfbench/selftest.py") == "selftest passed"
    outcome = json.loads(last_line("perfbench/run.py", "--workload", "catalog", "--seed", "0",
                                   "--seconds", "0", "--trace", "1"))
    assert outcome["correct"] is True
