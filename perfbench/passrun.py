"""One benchmark pass in a fresh interpreter.

Loads a workload, runs each entry through ``modinvar.checks.run_check`` and
prints one JSON line: the perf_counter stamp of set-up end, the time from
first check start to last report, the process's CPU time and peak memory,
and the exactness verdict of every report.  Times are given raw and scaled
to reference machine speed (see ``speed.py``).  A report is exact when its
status equals the entry's expected status and its (check, params without
seed, status, witness) equals the one in ``reference.json``.

    python3 perfbench/passrun.py --workload desk --seed 1 [--trace]
    python3 perfbench/passrun.py --workload desk --seed 1 --setup-only
    python3 perfbench/passrun.py --workload desk --seed 1 --record

``--record`` stores the pass's reports as the workload's reference.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"


def import_program():
    """Import every modinvar module from this checkout's ``src``."""
    sys.path.insert(0, str(SRC))
    import modinvar.checks
    import modinvar.cli  # noqa: F401  (bound before any tracer installs)
    if not Path(modinvar.checks.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"modinvar imported from {modinvar.checks.__file__}, "
                          f"not from {SRC}")
    return modinvar.checks.run_check


def outcome(report):
    """The compared part of a report, or of the exception a check raised."""
    if isinstance(report, Exception):
        return {"error": f"{type(report).__name__}: {report}"}
    params = {k: v for k, v in report.params.items() if k != "seed"}
    return json.loads(json.dumps({"check": report.check, "params": params,
                                  "status": report.status,
                                  "witness": report.witness}))


def run_checks(run_check, entries, tracer=None):
    """Run the entries in order; returns (reports, first start, last end).
    A check that raises yields its exception in place of a report."""
    reports = []
    t_first = time.perf_counter()
    for kind, params, budgets, _ in entries:
        with tracer.check(kind) if tracer else nullcontext():
            try:
                reports.append(run_check(kind, params, budgets))
            except Exception as exc:  # counted as a mismatch, pass continues
                reports.append(exc)
    return reports, t_first, time.perf_counter()


def mismatches(entries, outcomes, reference):
    """Indices of outcomes that differ from the expected status or from the
    reference."""
    bad = []
    for i, ((_, _, _, expect), got) in enumerate(zip(entries, outcomes)):
        if got.get("status") != expect or reference is None \
                or i >= len(reference) or got != reference[i]:
            bad.append(i)
    return bad


def main(argv=None):
    from speed import Sampler
    sampler = Sampler()
    sampler.start()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    import workloads
    run_check = import_program()
    entries = workloads.load(args.workload, args.seed)
    t_ready = time.perf_counter()
    result = {"t_ready": t_ready, "setup_scale": sampler.scale(0)}
    if args.setup_only:
        sampler.stop()
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    with tracer or nullcontext():
        first = sampler.mark()
        reports, t_first, t_end = run_checks(run_check, entries, tracer)
        end = sampler.mark()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    sampler.stop()

    outcomes = [outcome(r) for r in reports]
    references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() \
        else {}
    if args.record:
        references[args.workload] = outcomes
        REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True)
                             + "\n")
    result.update(
        verdict_raw_s=t_end - t_first,
        verdict_s=(t_end - t_first) * sampler.scale(first, end),
        cpu_raw_s=usage.ru_utime + usage.ru_stime,
        cpu_s=(usage.ru_utime + usage.ru_stime) * sampler.scale(0, end),
        peak_rss_mb=usage.ru_maxrss / 1024,
        attempted=len(entries),
        mismatches=mismatches(entries, outcomes,
                              references.get(args.workload)),
        outcomes=outcomes)
    if tracer is not None:
        result.update(layers=tracer.metrics(), checks=tracer.checks,
                      spans=tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
