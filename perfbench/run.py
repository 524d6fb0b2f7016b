"""The modinvar benchmark: time to verdict of a battery of exact checks.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

A closed loop with one client: passes run back to back, one at a time, each
in a fresh interpreter (``passrun.py``), so every pass pays all cold costs,
as every ``modinvar run`` does.  All inputs derive from ``--seed``.

``--trace 0`` runs passes until the next one would overrun ``--seconds``
(at least one), after a few set-up-only interpreters, and reports medians
of the end-to-end metrics.  ``--trace 1`` runs one untraced and one traced
pass and reports the per-layer metrics of the traced one; its spans go to
``.perfbench/`` in the checkout.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``, where
``failed`` counts checks whose outcome differs from the expected status or
from ``reference.json``, or that raised.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASS = HERE / "passrun.py"
SPAN_DIR = ROOT / ".perfbench"

SETUP_PROBES = 5        # set-up-only interpreters per untraced run
RUN_LIMIT_S = 170.0     # hard limit for one benchmark run, all passes

END_TO_END = (("setup_s", "s"), ("verdict_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))


class Runner:
    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        # Passes import byte-compiled sources, as from an installed package;
        # the first, unmeasured interpreter writes them.
        self.env = {k: v for k, v in os.environ.items()
                    if k != "PYTHONDONTWRITEBYTECODE"}

    def spawn(self, *flags):
        """One fresh-interpreter pass; returns its JSON result with
        ``setup_s`` (interpreter start to first check) added."""
        t_spawn = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(PASS), "--workload", self.workload,
             "--seed", str(self.seed), *flags],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - t_spawn))
        if proc.returncode != 0:
            raise RuntimeError(f"pass exited {proc.returncode}:\n"
                               f"{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        result["setup_raw_s"] = result["t_ready"] - t_spawn
        result["setup_s"] = result["setup_raw_s"] * result["setup_scale"]
        return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure(runner, seconds):
    """Untraced run: set-up probes, then passes until time is up."""
    start = time.perf_counter()
    setups = [runner.spawn("--setup-only") for _ in range(SETUP_PROBES)]
    passes, lengths = [], []
    while True:
        t0 = time.perf_counter()
        passes.append(runner.spawn())
        lengths.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(lengths) > seconds:
            break
    samples = {name: [p[name] for p in setups + passes]
               for name in ("setup_s", "setup_raw_s")}
    for name in ("verdict_s", "verdict_raw_s", "cpu_s", "cpu_raw_s",
                 "peak_rss_mb"):
        samples[name] = [p[name] for p in passes]
    for name, values in samples.items():
        q1, q3 = quartiles(values)
        unit = "MB" if name == "peak_rss_mb" else "s"
        print(f"{name:13s} median {statistics.median(values):.4f} "
              f"q1 {q1:.4f} q3 {q3:.4f} {unit} n {len(values)}")
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END}
    return passes, metrics


def per_layer(runner):
    """Traced run: one untraced pass for the overhead base, one traced."""
    from tracer import layer_metrics
    from workloads import CHECK_KINDS
    plain = runner.spawn()
    traced = runner.spawn("--trace")
    if traced["outcomes"] != plain["outcomes"]:
        raise RuntimeError("traced and untraced reports differ")
    layers = traced["layers"]
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit, _ in layer_metrics()}
    for kind in CHECK_KINDS:
        metrics[f"checks.{kind}.s"] = {"value": traced["checks"].get(kind, 0.0),
                                       "unit": "s"}
    metrics["trace.overhead_frac"] = {
        "value": traced["verdict_s"] / plain["verdict_s"] - 1, "unit": "ratio"}
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{runner.workload}-seed{runner.seed}.json"
    path.write_text(json.dumps(traced["spans"]) + "\n")
    print(f"spans: {path.relative_to(ROOT)} ({len(traced['spans'])})")
    return [plain, traced], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {WORKLOADS}")
    if not (ROOT / "src" / "modinvar").is_dir():
        print(f"error: no modinvar sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        runner.spawn("--setup-only")  # byte-compiles; not measured
        passes, metrics = (per_layer(runner) if args.trace
                           else measure(runner, args.seconds))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["mismatches"]) for p in passes)
    print(f"mismatch_frac {failed / attempted:.4f} "
          f"({failed} of {attempted} checks)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
