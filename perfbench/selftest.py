"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the default test run (the file name does not match test_*.py)
because the traced passes take about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import passrun  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

RUN_CHECK = passrun.import_program()
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def report_dicts(reports):
    return [{k: v for k, v in r.to_dict().items() if k != "millis"}
            for r in reports]


def traced_pass(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
         "--seed", str(seed), "--trace"],
        capture_output=True, text=True, check=True, timeout=170)
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_and_untraced_reports_are_identical():
    entries = workloads.load("desk", 5)
    plain, _, _ = passrun.run_checks(RUN_CHECK, entries)
    with Tracer() as tracer:
        traced, _, _ = passrun.run_checks(RUN_CHECK, entries, tracer)
    assert report_dicts(traced) == report_dicts(plain)
    assert passrun.mismatches(entries, [passrun.outcome(r) for r in traced],
                              json.loads(passrun.REFERENCE.read_text())["desk"]
                              ) == []


def test_traced_counts_repeat_across_processes():
    first, second = traced_pass("desk", 9), traced_pass("desk", 9)
    counts = [{k: v for k, v in run_["layers"].items()
               if not k.endswith("self_s")} for run_ in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["groups.enumerate.calls"] > 0
    assert counts[0]["mvpoly.mul.term_products"] > 0


def test_closure_workload_enumerates_both_large_groups():
    entries = workloads.load("closure", 1)
    with Tracer() as tracer:
        reports, _, _ = passrun.run_checks(RUN_CHECK, entries, tracer)
    assert [r.status for r in reports] == ["pass"] * 3
    sizes = [n for n, _ in tracer.closures]
    assert 51840 in sizes and 11232 in sizes
    assert tracer.metrics()["groups.enumerate.elements"] == sum(sizes)


def test_closure_useful_frac_is_new_elements_per_product():
    from modinvar.gfq import build_field
    from modinvar.groups import gl_group
    group = gl_group(2, build_field(3))
    with Tracer() as tracer:
        group.enumerate()
        group.enumerate()  # already closed: a call, not a closure
    n, gens = 48, len(group.generators)
    assert tracer.closures == [(n, gens)]
    metrics = tracer.metrics()
    assert metrics["groups.enumerate.calls"] == 2
    assert metrics["groups.closure.useful_frac"] == (n - 1) / (n * gens)
    assert metrics["groups.mat_mul.calls"] == n * gens


def test_tracer_wraps_every_binding_and_restores_it():
    from modinvar import analysis, checks, gluing, groups, linalg, mvpoly
    bindings = [(groups, "mat_mul"), (gluing, "mat_mul"),
                (linalg, "rref_mod_p"), (analysis, "rref_mod_p"),
                (linalg, "rref_field"), (analysis, "rref_field"),
                (linalg, "in_row_space"), (analysis, "in_row_space"),
                (analysis, "invariant_dimension"),
                (checks, "invariant_dimension"),
                (groups, "stabilizer_of_polynomial"),
                (checks, "stabilizer_of_polynomial"),
                (analysis, "transfer"), (checks, "transfer"),
                (mvpoly.Polynomial, "__mul__"), (mvpoly.Polynomial, "__rmul__"),
                (mvpoly.Polynomial, "__add__"), (mvpoly.Polynomial, "__radd__")]
    originals = [vars(owner)[name] for owner, name in bindings]
    with Tracer() as tracer:
        wrapped = [vars(owner)[name] for owner, name in bindings]
        x = mvpoly.VariableSpace(groups.field_from_order(3), ["x"]).variable("x")
        2 * x
        1 + x
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert [vars(owner)[name] for owner, name in bindings] == originals
    assert tracer.stats["mvpoly.mul"][0] == 1
    assert tracer.stats["mvpoly.add"][0] == 1


def test_a_raising_check_is_a_mismatch_and_the_pass_continues():
    entries = [("group_order", {"kind": "gl", "n": 1, "q": 2}, {}, "pass"),
               ("hilbert", {}, {}, "pass"),
               ("group_order", {"kind": "gl", "n": 1, "q": 3}, {}, "pass")]
    reports, _, _ = passrun.run_checks(RUN_CHECK, entries)
    assert isinstance(reports[1], KeyError)
    outcomes = [passrun.outcome(r) for r in reports]
    assert passrun.mismatches(entries, outcomes, outcomes) == [1]
    changed = [dict(o) for o in outcomes]
    changed[2]["witness"] = "other"
    assert passrun.mismatches(entries, outcomes, changed) == [1, 2]


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expected = layer_metrics() + \
        [(f"checks.{kind}.s", "s", "lower") for kind in workloads.CHECK_KINDS] + \
        [("trace.overhead_frac", "ratio", "lower")]
    assert per_layer == expected
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    names = [m["name"] for m in spec["per_layer"] + spec["end_to_end"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)


def test_workload_checks_exist():
    from modinvar.checks import CHECKS
    kinds = set()
    for name in workloads.WORKLOADS:
        kinds |= {kind for kind, _, _, _ in workloads.load(name, 0)}
    assert kinds <= set(CHECKS)
    assert kinds == set(workloads.CHECK_KINDS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_fails_without_the_program(tmp_path, trace):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "desk",
         "--seed", "1", "--seconds", "5", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
