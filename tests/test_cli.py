import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from modinvar import checks, cli
from modinvar.checks import run_check
from modinvar.cli import SCENARIO_DIR, load_scenario, main, run_scenario


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_inv_dickson_example(capsys):
    code, out, _ = run_cli(capsys, "inv", "dickson", "--n", "2", "--q", "2",
                           "--i", "2")
    assert code == 0
    assert out.strip() == "x1^2*x2 + x1*x2^2"


def test_group_order_example(capsys):
    code, out, _ = run_cli(capsys, "group", "order", "--kind", "sp",
                           "--m", "2", "--q", "2")
    assert code == 0
    assert out.strip() == "720"


def test_group_order_refuses_a_field_order_that_is_not_a_prime_power(
        capsys):
    code, out, err = run_cli(capsys, "group", "order", "--kind", "gl",
                             "--n", "1", "--q", "6")
    assert code == 2 and not out
    assert err.strip() == "error: q = 6 is not a prime power"


def test_verify_u_lem_example(capsys):
    code, out, _ = run_cli(capsys, "verify", "u_lem", "--m", "2", "--k", "1",
                           "--i", "0", "--j", "1", "--q", "2")
    assert code == 0
    obj = json.loads(out.strip())
    assert obj["status"] == "pass"
    assert obj["check"] == "u_lem"


def test_verify_failure_exit_code(capsys):
    code, out, _ = run_cli(capsys, "verify", "transfer_delta", "--p", "3")
    assert code == 1
    obj = json.loads(out.strip())
    assert obj["status"] == "fail" and "witness" in obj


def test_field_subcommand(capsys):
    code, out, _ = run_cli(capsys, "field", "--p", "2", "--r", "2",
                           "--elements")
    assert code == 0
    assert "order: 4" in out
    assert "1+t+t^2" in out


def test_group_enumerate(capsys):
    code, out, _ = run_cli(capsys, "group", "enumerate", "--kind", "gl",
                           "--n", "2", "--q", "2")
    assert code == 0
    assert "order 6" in out


def test_glue_subcommand(capsys):
    code, out, _ = run_cli(capsys, "glue", "--q", "2", "--m", "2", "--n", "2",
                           "--g1", "u", "--g2", "u", "--module", "full")
    assert code == 0
    assert "realized order: 64" in out


def test_inv_family(capsys):
    code, out, _ = run_cli(capsys, "inv", "family", "--name", "eapg",
                           "--param", "m", "2", "--param", "q", "2")
    assert code == 0
    assert "5 members" in out


def test_run_bundled_scenarios(capsys):
    for name in ("ck_sp4_q2", "orders_small", "negative_controls",
                 "transfer_u4"):
        code, out, _ = run_cli(capsys, "run", name, "--quiet")
        assert code == 0, f"{name} failed:\n{out}"


def reports_of(names):
    """The reports of the named bundled scenarios, as JSON objects with
    their scenario name and without `millis`."""
    reports = []
    for name in names:
        _, got = run_scenario(load_scenario(name), quiet=True)
        for report in got:
            line = json.loads(json.dumps(report.to_dict()))
            del line["millis"]
            reports.append({"scenario": name, **line})
    return reports


def recorded(name):
    return [json.loads(line) for line in
            (Path(__file__).parent / "data" / name).read_text().splitlines()]


def test_desk_reports_match_the_recorded_ones():
    """The five desk scenarios report what tests/data/desk_reports.jsonl
    records, key for key apart from `millis`."""
    assert reports_of(("acceptance", "orders_small", "ck_sp4_q2",
                       "transfer_u4", "negative_controls")) == \
        recorded("desk_reports.jsonl")


def test_stretch_reports_match_the_recorded_ones():
    """The four stretch scenarios report what
    tests/data/stretch_reports.jsonl records, key for key apart from
    `millis`: about 4 s of checks, the Sylow Hilbert series of Sp4(F3) and
    Sp6(F2) through the sparse rank among them."""
    assert reports_of(("transfer_stretch", "hilbert_sylow", "ck_sp4_stretch",
                       "closure_stretch")) == recorded("stretch_reports.jsonl")


def test_glue_kinds(capsys):
    code, out, _ = run_cli(capsys, "glue", "--kind", "thin", "--p", "2",
                           "--r", "2")
    assert code == 0 and "realized order: 64" in out
    code, out, _ = run_cli(capsys, "glue", "--kind", "singular", "--q", "2")
    assert code == 0 and "realized order: 24" in out
    code, out, _ = run_cli(capsys, "glue", "--kind", "diag", "--q", "3",
                           "--n", "1", "--g1", "gl", "--module", "full")
    assert code == 0 and "realized order: 6" in out


def test_glue_module_from_file(tmp_path, capsys):
    path = tmp_path / "module.txt"
    for text, m, g1, order in [
            ("# scalar line in a 1x1 hom space\n1\n", 1, "trivial", 2),
            ("# all of Hom(F2, F2^2): two 2x1 matrices\n1;0\n\n0;1\n",
             2, "u", 8)]:
        path.write_text(text)
        code, out, _ = run_cli(capsys, "glue", "--kind", "hom", "--q", "2",
                               "--m", str(m), "--n", "1", "--g1", g1,
                               "--module", "file", "--module-file", str(path))
        assert code == 0 and f"realized order: {order}" in out


def test_inv_orbit(capsys):
    code, out, _ = run_cli(capsys, "inv", "orbit", "--q", "2",
                           "--space", "y1,x1", "--form", "y1",
                           "--basis", "x1")
    assert code == 0
    assert out.strip() == "y1^2 + y1*x1"


def test_group_o3ex_o4ex(capsys):
    code, out, _ = run_cli(capsys, "group", "enumerate", "--kind", "o3ex",
                           "--q", "5")
    assert code == 0 and "order 5" in out
    code, out, _ = run_cli(capsys, "group", "enumerate", "--kind", "o4ex",
                           "--q", "3")
    assert code == 0 and "order 9" in out


def test_bad_budget_rejected(tmp_path, capsys):
    scen = tmp_path / "budget.yaml"
    scen.write_text("name: x\nbudgets: {cap: -3}\nchecks:\n"
                    "  - check: field_axioms\n    params: {p: 2}\n")
    code, _, err = run_cli(capsys, "run", str(scen))
    assert code == 2
    assert "budget" in err


def test_unknown_budget_name_rejected(tmp_path, capsys):
    scen = tmp_path / "budget.yaml"
    scen.write_text("name: x\nbudgets: {cpa: 10}\nchecks:\n"
                    "  - check: field_axioms\n    params: {p: 2}\n")
    code, _, err = run_cli(capsys, "run", str(scen))
    assert code == 2
    assert "cpa" in err and "['cap', 'degree_bound']" in err


def test_cap_overrun_is_an_error(capsys):
    code, _, err = run_cli(capsys, "group", "enumerate", "--kind", "gl",
                           "--n", "2", "--q", "3", "--cap", "10")
    assert code == 2 and err == "error: GL2(F3) exceeds cap 10\n"
    code, _, err = run_cli(capsys, "glue", "--q", "2", "--m", "2", "--n", "2",
                           "--g1", "gl", "--g2", "gl", "--cap", "10")
    assert code == 2 and err.startswith("error: ")
    assert err.endswith(" exceeds cap 10\n")


def test_run_missing_scenario(capsys):
    code, _, err = run_cli(capsys, "run", "does_not_exist")
    assert code == 2
    assert "not found" in err


def test_run_malformed_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("checks:\n  - {параметр: [unclosed\n")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 2
    assert err.startswith(f"error: scenario file {bad} is not valid YAML")


def fresh_interpreter(code):
    """Standard output of `code` run in a new interpreter that imports
    modinvar from this source tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_checks_and_cli_import_without_yaml():
    """Only `load_scenario` needs PyYAML, so a process that runs checks
    without a scenario file does not load it."""
    out = fresh_interpreter("import sys, modinvar.cli, modinvar.checks; "
                            "print('yaml' in sys.modules)")
    assert out.split() == ["False"]


def test_hilbert_checks_leave_numpy_ma_unimported():
    """numpy.ma, which `np.unique` imports, costs about 12 ms and 1.4 MB;
    the Hilbert checks over F_2 and GF(4) run without it."""
    out = fresh_interpreter("""
import sys
from modinvar.checks import run_check
pk = {"group": {"kind": "pk", "m": 2, "k": 2, "q": 2},
      "generators": [1, 1, 3, 4, 4], "relations": [6], "D": 8}
u3 = {"group": {"kind": "u", "n": 3, "q": 4}, "generators": [1, 4, 16],
      "D": 8}
print(run_check("hilbert", pk).status, run_check("hilbert", u3).status)
print("numpy.ma" in sys.modules)
""")
    assert out.split() == ["pass", "pass", "False"]


def test_run_unknown_check_kind(tmp_path, capsys):
    bad = tmp_path / "bad2.yaml"
    bad.write_text("name: x\nchecks:\n  - check: bogus_kind\n")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 2
    assert "bogus_kind" in err


def test_unwritable_json_path_is_an_error_line(tmp_path, capsys):
    missing = tmp_path / "no_such_dir" / "x.jsonl"
    code, out, err = run_cli(capsys, "run", "orders_small", "--json",
                             str(missing))
    assert code == 2
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err and not out


def test_run_expectation_mismatch_exit(tmp_path, capsys):
    scen = tmp_path / "mismatch.yaml"
    scen.write_text(
        "name: mismatch\nchecks:\n"
        "  - check: identity\n"
        "    params: {name: ck_sp4, params: {q: 2}}\n"
        "    expect: fail\n")
    code, out, _ = run_cli(capsys, "run", str(scen))
    assert code == 1
    assert "MISMATCH" in out


def test_json_report_and_summary(tmp_path, capsys):
    out_path = tmp_path / "report.jsonl"
    code, _, _ = run_cli(capsys, "run", "orders_small", "--quiet",
                         "--json", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 8
    for line in lines:
        obj = json.loads(line)
        assert set(obj) >= {"check", "params", "status", "millis"}
    code, out, _ = run_cli(capsys, "report", str(out_path))
    assert code == 0
    assert "8 pass" in out


def test_raising_entry_is_an_error_and_no_report_is_lost(tmp_path, capsys):
    scen = tmp_path / "x.yaml"
    scen.write_text(
        "name: x\nchecks:\n"
        "  - check: field_axioms\n    params: {p: 2}\n"
        "  - check: identity\n    params: {name: u_lem, params: {m: 1}}\n"
        "  - check: field_axioms\n    params: {p: 3}\n")
    out_path = tmp_path / "out.jsonl"
    code, out, _ = run_cli(capsys, "run", str(scen), "--json", str(out_path))
    assert code == 1 and "MISMATCH" in out
    objs = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert [o["status"] for o in objs] == ["pass", "error", "pass"]
    assert objs[1]["check"] == "identity"
    assert objs[1]["witness"].startswith(
        "ValueError: identity u_lem missing parameters")
    code, out, _ = run_cli(capsys, "report", str(out_path))
    assert code == 1
    assert "summary: 2 pass, 0 fail, 0 skipped, 1 error" in out


def test_run_writes_each_report_line_before_the_next_check(tmp_path,
                                                          monkeypatch):
    out_path = tmp_path / "out.jsonl"
    lines_before = []

    def spy(kind, params, budgets):
        lines_before.append(len(out_path.read_text().splitlines()))
        return run_check(kind, params, budgets)

    monkeypatch.setattr(cli, "run_check", spy)
    run_scenario(load_scenario("orders_small"), json_path=out_path, quiet=True)
    assert lines_before == list(range(8))
    assert len(out_path.read_text().splitlines()) == 8


def test_determinism_modulo_millis():
    data = load_scenario("orders_small")
    _, reports1 = run_scenario(data, quiet=True)
    _, reports2 = run_scenario(data, quiet=True)

    def strip(reports):
        out = []
        for r in reports:
            d = r.to_dict()
            d.pop("millis")
            out.append(json.dumps(d, sort_keys=True))
        return out

    assert strip(reports1) == strip(reports2)


def test_scenario_validation():
    with pytest.raises(FileNotFoundError):
        load_scenario("missing_scenario_name")
    data = load_scenario("acceptance")
    assert data["name"] == "acceptance"
    assert all("check" in c for c in data["checks"])


def test_every_bundled_scenario_loads():
    names = sorted(path.stem for path in SCENARIO_DIR.glob("*.yaml"))
    assert {"hilbert_sylow", "ck_sp4_stretch", "closure_stretch",
            "transfer_stretch"} <= set(names)
    for name in names:
        data = load_scenario(name)
        assert data["checks"], name


def test_bundled_scenarios_load_alike_with_either_loader(monkeypatch,
                                                         tmp_path):
    """`load_scenario` parses with libyaml's CSafeLoader where PyYAML has
    it and with the pure-Python SafeLoader otherwise; both give the same
    data on every bundled scenario, and both refuse malformed YAML."""
    import yaml
    names = sorted(path.stem for path in SCENARIO_DIR.glob("*.yaml"))
    loaded = {name: load_scenario(name) for name in names}
    for name in names:
        with open(SCENARIO_DIR / f"{name}.yaml") as handle:
            assert loaded[name] == yaml.load(handle, Loader=yaml.SafeLoader)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert {name: load_scenario(name) for name in names} == loaded
    bad = tmp_path / "bad.yaml"
    bad.write_text("checks:\n  - {check: [unclosed\n")
    with pytest.raises(ValueError, match="is not valid YAML"):
        load_scenario(str(bad))


def test_required_params_are_declared_for_every_check():
    assert set(checks.REQUIRED_PARAMS) == set(checks.CHECKS)


def test_missing_required_param_is_refused_before_any_check(tmp_path,
                                                            capsys):
    scen = tmp_path / "no_generators.yaml"
    scen.write_text("name: x\nchecks:\n"
                    "  - check: field_axioms\n    params: {p: 2}\n"
                    "  - check: hilbert\n"
                    "    params: {group: {kind: u, n: 2, q: 2}, D: 3}\n")
    with pytest.raises(ValueError, match="hilbert entry lacks required "
                                         "param 'generators'"):
        load_scenario(str(scen))
    code, out, err = run_cli(capsys, "run", str(scen))
    assert code == 2 and not out
    assert "hilbert" in err and "'generators'" in err
