"""Command-line entry point: construct fields, groups and gluings, emit
invariants, and run verification scenarios with machine-readable reports.

Scenario files are YAML: a name, optional budgets/seed, and a list of checks
with expected statuses.  Reports are emitted as JSON lines (one object per
check, written as soon as it exists) plus a human-readable summary table; an
entry whose check raises yields status "error" and the run goes on.  The exit
code is 0 exactly when every non-skipped check matches its expected status,
so any "error" makes it 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path

from modinvar import checks as checks_mod
from modinvar.analysis import VerificationReport
from modinvar.checks import build_gluing, build_group, run_check
from modinvar.gfq import build_field
from modinvar.groups import (BUDGET_DEFAULTS, BudgetExceeded,
                             field_from_order, format_matrix, run_budgets)
from modinvar.invariants import (dickson, family, n_k, orbit_product,
                                 partial_dickson, xi)
from modinvar.mvpoly import (VariableSpace, format_polynomial,
                             parse_polynomial, symplectic_space)

SCENARIO_DIR = Path(__file__).parent / "scenarios"

# The integer check parameters `verify` takes as options of their own.
VERIFY_PARAMS = ("m", "k", "i", "j", "q", "p", "n", "sign", "ell", "r", "D")


def _int_or_str(text):
    try:
        return int(text)
    except ValueError:
        return text


def _given(args, keys):
    return {key: getattr(args, key) for key in keys
            if getattr(args, key) is not None}


def _params_from_pairs(pairs):
    out = {}
    for key, value in pairs:
        out[key.lstrip("-")] = _int_or_str(value)
    return out


def cmd_field(args):
    field = build_field(args.p, args.r)
    print(f"field: {field!r}")
    print(f"order: {field.q}")
    print(f"modulus: {field.format_modulus()}")
    if args.elements:
        print("elements:", ", ".join(field.format_scalar(i)
                                     for i in range(field.q)))
    return 0


def cmd_group(args):
    params = _given(args, ("n", "m", "k", "q"))
    G = build_group(args.kind, params)
    if args.action == "order":
        print(G.claimed_order)
        return 0
    if args.action == "generators":
        for g in G.generator_rows.tolist():
            print(format_matrix(G.field, g))
        return 0
    G = G.enumerate(args.cap)  # the action "enumerate"
    print(f"order {G.order()}")
    if args.verbose:
        for g in G.rows().tolist():
            print(format_matrix(G.field, g))
    return 0


def cmd_glue(args):
    params = {"kind": args.kind, "m": args.m, "n": args.n, "g1": args.g1,
              "g2": args.g2, "module": args.module,
              **_given(args, ("q", "p", "r", "q_sub", "module_file"))}
    if args.partition:
        params["partition"] = tuple(int(x) for x in args.partition.split(","))
    gluing = build_gluing(params)
    R = gluing.enumerate(args.cap)
    print(f"flavor: {gluing.flavor}")
    print(f"dimension: {R.n}")
    print(f"module F_p-dimension: {gluing.M.fp_dim}")
    print(f"realized order: {R.order()}")
    return 0


def cmd_inv(args):
    if args.what == "dickson":
        print(format_polynomial(dickson(args.n, args.q, args.i)))
    elif args.what == "xi":
        print(format_polynomial(xi(args.m, args.q, args.i)))
    elif args.what == "nk":
        field = field_from_order(args.q)
        space = symplectic_space(field, args.m)
        form = space.variable(args.var or f"y{args.k}")
        print(format_polynomial(n_k(form, args.k, args.m, args.q)))
    elif args.what == "partial-dickson":
        print(format_polynomial(partial_dickson(args.i, args.ell, args.m, args.q)))
    elif args.what == "orbit":
        field = field_from_order(args.q)
        space = VariableSpace(field, args.space.split(","))
        form = parse_polynomial(space, args.form)
        basis = [parse_polynomial(space, b) for b in args.basis.split(";")]
        print(format_polynomial(orbit_product(form, basis)))
    elif args.what == "family":
        fam = family(args.name, **_params_from_pairs(args.param or []))
        print(f"family {fam.name} {fam.params}: {len(fam.members)} members, "
              f"structure {fam.structure}")
        for mem in fam.members:
            if args.verbose:
                print(f"  {mem.label} (degree {mem.degree}): "
                      f"{format_polynomial(mem.poly)}")
            else:
                print(f"  {mem.label} (degree {mem.degree}, "
                      f"{len(mem.poly)} terms)")
    return 0


def cmd_verify(args):
    params = {**_params_from_pairs(args.param or []),
              **_given(args, VERIFY_PARAMS)}
    kind = args.name
    if kind not in checks_mod.CHECKS or kind == "identity":
        kind, params = "identity", {"name": args.name, "params": params}
    report = run_check(kind, params, _given(args, BUDGET_DEFAULTS))
    line = json.dumps(report.to_dict(), sort_keys=True)
    print(line)
    return 0 if report.status == "pass" else 1


def _resolve_scenario(path_text):
    path = Path(path_text)
    if path.exists():
        return path
    bundled = SCENARIO_DIR / path_text
    if bundled.exists():
        return bundled
    bundled = SCENARIO_DIR / f"{path_text}.yaml"
    if bundled.exists():
        return bundled
    raise FileNotFoundError(f"scenario {path_text!r} not found "
                            f"(searched {SCENARIO_DIR})")


def load_scenario(path_text):
    """The checked contents of a scenario file.  Raises FileNotFoundError
    for a missing file and ValueError for a malformed one."""
    import yaml  # here, so that only commands that read a scenario load it
    path = _resolve_scenario(path_text)
    with open(path) as handle:
        try:
            # libyaml's parser where PyYAML was built with it
            data = yaml.load(handle, Loader=getattr(yaml, "CSafeLoader",
                                                    yaml.SafeLoader))
        except yaml.YAMLError as exc:
            raise ValueError(f"scenario file {path} is not valid YAML: "
                             f"{exc}") from exc
    if not isinstance(data, dict) or "checks" not in data:
        raise ValueError(f"scenario file {path} must be a mapping with a "
                         "'checks' list")
    run_budgets(data.get("budgets") or {})
    for entry in data["checks"]:
        if "check" not in entry:
            raise ValueError(f"scenario entry without a 'check' kind: {entry}")
        kind = entry["check"]
        if kind not in checks_mod.CHECKS:
            raise ValueError(f"unknown check kind {kind!r}")
        for key in checks_mod.REQUIRED_PARAMS[kind]:
            if key not in (entry.get("params") or {}):
                raise ValueError(f"{kind} entry lacks required param "
                                 f"{key!r}: {entry}")
        if entry.get("expect", "pass") not in ("pass", "fail", "skipped"):
            raise ValueError(f"bad expected status in {entry}")
    return data


def run_scenario(data, json_path=None, quiet=False):
    budgets = run_budgets(data.get("budgets") or {})
    seed = data.get("seed", 1234)
    reports = []
    lines = []
    ok = True
    rows = []
    with (open(json_path, "w") if json_path else nullcontext()) as sink:
        for entry in data["checks"]:
            params = dict(entry.get("params") or {})
            params.setdefault("seed", seed)
            try:
                report = run_check(entry["check"], params, budgets)
            except Exception as exc:  # one raising entry loses no other report
                traceback.print_exc()
                report = VerificationReport(
                    entry["check"], params, "error",
                    witness=f"{type(exc).__name__}: {exc}")
            reports.append(report)
            lines.append(json.dumps(report.to_dict(), sort_keys=True))
            if sink:
                sink.write(lines[-1] + "\n")
                sink.flush()
            expect = entry.get("expect", "pass")
            matched = report.status == "skipped" or report.status == expect
            ok = ok and matched
            rows.append((report.check, json.dumps(report.params, sort_keys=True),
                         report.status, expect, "ok" if matched else "MISMATCH"))
    if not quiet:
        name = data.get("name", "scenario")
        print(f"scenario: {name}")
        widths = [max(len(str(row[i])) for row in rows + [
            ("check", "params", "status", "expect", "")]) for i in range(5)]
        header = ("check".ljust(widths[0]), "params".ljust(widths[1]),
                  "status".ljust(widths[2]), "expect".ljust(widths[3]), "")
        print("  " + "  ".join(header).rstrip())
        for row in rows:
            print("  " + "  ".join(str(c).ljust(w)
                                   for c, w in zip(row, widths)).rstrip())
        summary = "all checks matched" if ok else "MISMATCHES PRESENT"
        print(f"result: {summary}")
        for line in lines:
            print(line)
    return (0 if ok else 1), reports


def cmd_run(args):
    data = load_scenario(args.scenario)
    data["budgets"] = {**(data.get("budgets") or {}),
                       **_given(args, BUDGET_DEFAULTS)}
    if args.seed is not None:
        data["seed"] = args.seed
    code, _ = run_scenario(data, json_path=args.json, quiet=args.quiet)
    return code


def cmd_report(args):
    path = Path(args.jsonl)
    counts = {"pass": 0, "fail": 0, "skipped": 0, "error": 0}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        counts[obj["status"]] = counts.get(obj["status"], 0) + 1
        tail = f" :: {obj['witness']}" if "witness" in obj else ""
        print(f"{obj['status']:8s} {obj['check']} "
              f"{json.dumps(obj['params'], sort_keys=True)}{tail}")
    print(f"summary: {counts['pass']} pass, {counts['fail']} fail, "
          f"{counts['skipped']} skipped, {counts['error']} error")
    return 0 if counts["fail"] == counts["error"] == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="modinvar",
        description="workbench for modular invariants of glued matrix groups")
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="describe a finite field")
    p_field.add_argument("--p", type=int, required=True)
    p_field.add_argument("--r", type=int, default=1)
    p_field.add_argument("--elements", action="store_true")
    p_field.set_defaults(func=cmd_field)

    p_group = sub.add_parser("group", help="construct or measure a group")
    p_group.add_argument("action", choices=["order", "enumerate", "generators"])
    p_group.add_argument("--kind", required=True,
                         choices=sorted(checks_mod.GROUP_KINDS))
    p_group.add_argument("--n", type=int)
    p_group.add_argument("--m", type=int)
    p_group.add_argument("--k", type=int)
    p_group.add_argument("--q", type=int, required=True)
    p_group.add_argument("--cap", type=int)
    p_group.add_argument("--verbose", action="store_true")
    p_group.set_defaults(func=cmd_group)

    p_glue = sub.add_parser("glue", help="construct a glued group")
    p_glue.add_argument("--kind", default="hom",
                        choices=["hom", "diag", "thin", "singular"])
    p_glue.add_argument("--q", type=int)
    p_glue.add_argument("--p", type=int)
    p_glue.add_argument("--r", type=int)
    p_glue.add_argument("--m", type=int, default=1)
    p_glue.add_argument("--n", type=int, default=1)
    p_glue.add_argument("--g1", default="trivial")
    p_glue.add_argument("--g2", default="trivial")
    p_glue.add_argument("--module", default="full",
                        choices=["full", "subfield", "parabolic", "scalar",
                                 "file"])
    p_glue.add_argument("--q-sub", type=int, dest="q_sub")
    p_glue.add_argument("--module-file", dest="module_file")
    p_glue.add_argument("--partition")
    p_glue.add_argument("--cap", type=int)
    p_glue.set_defaults(func=cmd_glue)

    p_inv = sub.add_parser("inv", help="emit an invariant polynomial")
    p_inv.add_argument("what", choices=["dickson", "xi", "nk",
                                        "partial-dickson", "orbit", "family"])
    p_inv.add_argument("--n", type=int)
    p_inv.add_argument("--m", type=int)
    p_inv.add_argument("--k", type=int)
    p_inv.add_argument("--i", type=int)
    p_inv.add_argument("--ell", type=int)
    p_inv.add_argument("--q", type=int)
    p_inv.add_argument("--var")
    p_inv.add_argument("--form", help="linear form text for 'orbit'")
    p_inv.add_argument("--basis", help="';'-separated basis forms for 'orbit'")
    p_inv.add_argument("--space", help="','-separated variable names")
    p_inv.add_argument("--name")
    p_inv.add_argument("--param", nargs=2, action="append",
                       metavar=("KEY", "VALUE"))
    p_inv.add_argument("--verbose", action="store_true")
    p_inv.set_defaults(func=cmd_inv)

    p_verify = sub.add_parser("verify", help="run a single named check")
    p_verify.add_argument("name")
    for key in VERIFY_PARAMS:
        p_verify.add_argument(f"--{key}", type=int, default=None)
    p_verify.add_argument("--param", nargs=2, action="append",
                          metavar=("KEY", "VALUE"))
    p_verify.add_argument("--cap", type=int)
    p_verify.add_argument("--degree-bound", type=int, dest="degree_bound")
    p_verify.set_defaults(func=cmd_verify)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--json", help="write the JSON-lines report here")
    p_run.add_argument("--cap", type=int)
    p_run.add_argument("--degree-bound", type=int, dest="degree_bound")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report", help="summarize a JSON-lines report")
    p_report.add_argument("jsonl")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
