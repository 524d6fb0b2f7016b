"""Outside-in tracer: times and counts calls into each layer's public
functions without touching the program's source.

Each traced function is replaced at every name it is bound to -- in its
defining module, in every module that ``from``-imported it, and under every
class attribute that aliases it (``__rmul__ = __mul__``) -- and restored on
exit.  Hot functions are kept as an aggregated call count and self time
(span time minus the time of traced callees).  Coarse boundaries (checks,
group enumeration, transfer images, invariant dimensions, row reductions)
are also kept as spans in memory: ``[id, parent id, name, start, end]``.
"""

from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager

# (metric prefix, defining module, attribute path, kept as a span)
TARGETS = [
    ("gfq.add", "modinvar.gfq", "FieldSpec.add", False),
    ("gfq.sub", "modinvar.gfq", "FieldSpec.sub", False),
    ("gfq.neg", "modinvar.gfq", "FieldSpec.neg", False),
    ("gfq.mul", "modinvar.gfq", "FieldSpec.mul", False),
    ("gfq.inv", "modinvar.gfq", "FieldSpec.inv", False),
    ("gfq.pow", "modinvar.gfq", "FieldSpec.pow", False),
    ("mvpoly.mul", "modinvar.mvpoly", "Polynomial.__mul__", False),
    ("mvpoly.add", "modinvar.mvpoly", "Polynomial.__add__", False),
    ("mvpoly.pow", "modinvar.mvpoly", "Polynomial.__pow__", False),
    ("mvpoly.act", "modinvar.mvpoly", "Polynomial.act", False),
    ("mvpoly.exact_divide", "modinvar.mvpoly", "Polynomial.exact_divide",
     False),
    ("mvpoly.substitute", "modinvar.mvpoly", "Polynomial.substitute", False),
    ("groups.mat_mul", "modinvar.groups", "mat_mul", False),
    ("groups.enumerate", "modinvar.groups", "MatrixGroup.enumerate", True),
    ("groups.stabilizer", "modinvar.groups", "stabilizer_of_polynomial",
     False),
    ("groups.element_order", "modinvar.groups", "GroupElement.order", False),
    ("gluing.enumerate", "modinvar.gluing", "GluingGroup.enumerate", False),
    ("gluing.semidirect_mul", "modinvar.gluing", "semidirect_mul", False),
    ("gluing.triple", "modinvar.gluing", "GluingGroup.triple", False),
    ("invariants.dickson_coefficients", "modinvar.invariants",
     "dickson_coefficients", False),
    ("invariants.orbit_product", "modinvar.invariants", "orbit_product",
     False),
    ("invariants.family", "modinvar.invariants", "family", False),
    ("invariants.psi_substitute", "modinvar.invariants", "psi_substitute",
     False),
    ("analysis.transfer", "modinvar.analysis", "transfer", False),
    ("analysis.transfer_image_degree", "modinvar.analysis",
     "transfer_image_degree", True),
    ("analysis.principal_transfer_check", "modinvar.analysis",
     "principal_transfer_check", False),
    ("analysis.identity_suite", "modinvar.analysis", "identity_suite", False),
    ("analysis.invariant_dimension", "modinvar.analysis",
     "invariant_dimension", True),
    ("linalg.rref_mod_p", "modinvar.linalg", "rref_mod_p", True),
    ("linalg.rref_field", "modinvar.linalg", "rref_field", True),
    ("linalg.in_row_space", "modinvar.linalg", "in_row_space", False),
]

GFQ_OPS = ("add", "sub", "neg", "mul", "inv", "pow")


def layer_metrics():
    """(name, unit, better) of every metric `Tracer.metrics` returns."""
    out = [(f"gfq.{op}.calls", "count", "lower") for op in GFQ_OPS]
    out.append(("gfq.self_s", "s", "lower"))
    for prefix, _, _, _ in TARGETS:
        if prefix.startswith("gfq."):
            continue
        out += [(f"{prefix}.calls", "count", "lower"),
                (f"{prefix}.self_s", "s", "lower")]
        out += [(f"{prefix}.{name}", unit, better)
                for name, unit, better in _EXTRA_METRICS.get(prefix, ())]
    out.append(("groups.closure.useful_frac", "ratio", "higher"))
    return out


_EXTRA_METRICS = {
    "mvpoly.mul": [("term_products", "count", "lower"),
                   ("out_terms", "count", "lower"),
                   ("useful_frac", "ratio", "higher")],
    "groups.enumerate": [("elements", "count", "lower"),
                         ("distinct_frac", "ratio", "higher")],
    "invariants.dickson_coefficients": [("distinct_frac", "ratio", "higher")],
    "analysis.invariant_dimension": [("monomials", "count", "lower")],
    "linalg.rref_mod_p": [("cells", "count", "lower"),
                          ("rank", "count", "lower")],
    "linalg.rref_field": [("cells", "count", "lower"),
                          ("rank", "count", "lower")],
}


def _resolve(module_name, path):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return vars(owner)[attr]


def _bindings(fn):
    """Every (owner, name) under which a loaded modinvar module or one of its
    classes binds ``fn``."""
    owners, seen = [], set()
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "modinvar"
                               or mod_name.startswith("modinvar.")):
            continue
        owners.append(mod)
        for value in vars(mod).values():
            if isinstance(value, type) and id(value) not in seen and \
                    value.__module__.startswith("modinvar."):
                seen.add(id(value))
                owners.append(value)
    return [(owner, name) for owner in owners
            for name, value in list(vars(owner).items()) if value is fn]


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Install with ``with Tracer() as tracer:``; read `metrics`, `checks`
    and `spans` after exit."""

    def __init__(self):
        self.stats = {prefix: [0, 0.0] for prefix, _, _, _ in TARGETS}
        self.checks = {}       # check kind -> inclusive seconds
        self.spans = []        # [id, parent id, name, start, end]
        self.closures = []     # (elements, generators) of each closure run
        self.counts = {"mvpoly.mul.term_products": 0,
                       "mvpoly.mul.out_terms": 0,
                       "analysis.invariant_dimension.monomials": 0,
                       "linalg.rref_mod_p.cells": 0,
                       "linalg.rref_mod_p.rank": 0,
                       "linalg.rref_field.cells": 0,
                       "linalg.rref_field.rank": 0}
        self.group_keys = set()
        self.dickson_keys = set()
        self._child = [0.0]    # traced time of callees, one slot per frame
        self._open = [None]    # ids of open spans
        self._patches = []

    # -- install / restore --

    def __enter__(self):
        for prefix, module_name, path, keep_span in TARGETS:
            fn = _resolve(module_name, path)
            wrapper = self._wrap(prefix, fn, keep_span,
                                 getattr(self, "_" + prefix.replace(".", "_"),
                                         None))
            for owner, name in _bindings(fn):
                self._patches.append((owner, name, fn))
                setattr(owner, name, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, name, fn in reversed(self._patches):
            setattr(owner, name, fn)
        self._patches.clear()
        return False

    def _wrap(self, prefix, fn, keep_span, after):
        stat = self.stats[prefix]
        child, opened, spans = self._child, self._open, self.spans
        clock = time.perf_counter

        if not keep_span and after is None:
            def wrapper(*args, **kwargs):
                child.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stat[0] += 1
                    stat[1] += dt - child.pop()
                    child[-1] += dt
            return wrapper

        def wrapper(*args, **kwargs):
            before = self._before(prefix, args)
            if keep_span:
                sid = len(spans)
                spans.append([sid, opened[-1], prefix, 0.0, 0.0])
                opened.append(sid)
            child.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt - child.pop()
                child[-1] += dt
                if keep_span:
                    spans[sid][3:] = [t0, t1]
                    opened.pop()
            if after is not None:
                after(args, out, before)
            return out
        return wrapper

    @contextmanager
    def check(self, kind):
        """Span around one check; its inclusive time goes to checks[kind]."""
        sid = len(self.spans)
        self.spans.append([sid, self._open[-1], f"check.{kind}", 0.0, 0.0])
        self._open.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.spans[sid][3:] = [t0, t1]
            self._open.pop()
            self.checks[kind] = self.checks.get(kind, 0.0) + (t1 - t0)

    # -- work counters, run after a traced call returns --

    def _before(self, prefix, args):
        if prefix == "groups.enumerate":
            return args[0].elements is None
        return None

    def _mvpoly_mul(self, args, out, _):
        if out is NotImplemented:
            return
        a, b = args
        self.counts["mvpoly.mul.term_products"] += \
            len(a) * (len(b) if hasattr(b, "_terms") else 1)
        self.counts["mvpoly.mul.out_terms"] += len(out)

    def _groups_enumerate(self, args, out, was_open):
        if not was_open:
            return
        group = args[0]
        self.closures.append((len(group.elements), len(group.generators)))
        self.group_keys.add((group.field.q, group.field.modulus, group.n,
                             tuple(sorted(g.matrix for g in group.generators))))

    def _invariants_dickson_coefficients(self, args, out, _):
        self.dickson_keys.add((args[0], tuple(args[1])))

    def _analysis_invariant_dimension(self, args, out, _):
        group, d = args[0], args[1]
        if d:
            self.counts["analysis.invariant_dimension.monomials"] += \
                math.comb(group.n + d - 1, d)

    def _linalg_rref_mod_p(self, args, out, _):
        rows = args[0]
        shape = getattr(rows, "shape", None) or (len(rows), len(rows[0]))
        self.counts["linalg.rref_mod_p.cells"] += shape[0] * shape[1]
        self.counts["linalg.rref_mod_p.rank"] += len(out[0])

    def _linalg_rref_field(self, args, out, _):
        rows = args[0]
        width = len(rows[0]) if len(rows) else 0
        self.counts["linalg.rref_field.cells"] += len(rows) * width
        self.counts["linalg.rref_field.rank"] += len(out[0])

    # -- results --

    def metrics(self):
        """Per-layer metrics, named as in `layer_metrics`."""
        out = {}
        for op in GFQ_OPS:
            out[f"gfq.{op}.calls"] = self.stats[f"gfq.{op}"][0]
        out["gfq.self_s"] = sum(self.stats[f"gfq.{op}"][1] for op in GFQ_OPS)
        for prefix, (calls, self_s) in self.stats.items():
            if not prefix.startswith("gfq."):
                out[f"{prefix}.calls"] = calls
                out[f"{prefix}.self_s"] = self_s
        out.update(self.counts)
        out["mvpoly.mul.useful_frac"] = _ratio(
            self.counts["mvpoly.mul.out_terms"],
            self.counts["mvpoly.mul.term_products"])
        out["groups.enumerate.elements"] = sum(n for n, _ in self.closures)
        out["groups.enumerate.distinct_frac"] = _ratio(len(self.group_keys),
                                                       len(self.closures))
        out["groups.closure.useful_frac"] = _ratio(
            sum(n - 1 for n, _ in self.closures),
            sum(n * g for n, g in self.closures))
        out["invariants.dickson_coefficients.distinct_frac"] = _ratio(
            len(self.dickson_keys),
            self.stats["invariants.dickson_coefficients"][0])
        return out
