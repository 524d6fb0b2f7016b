"""The benchmark's four workloads: ordered exact checks, each with the status
it must return.

A workload is a list of entries ``(check kind, params, budgets, expect)``.
The workload seed goes into each entry's ``seed`` param, as
``modinvar run --seed`` does, unless the entry pins its own.
"""

from __future__ import annotations

DESK_SCENARIOS = ("acceptance", "orders_small", "ck_sp4_q2", "transfer_u4",
                  "negative_controls")

SEMIDIRECT = {"m": 1, "n": 2, "g1": "gl", "g2": "u", "module": "full",
              "samples": 10000}

# Checks listed inline, all expected to pass.
INLINE = {
    "closure": [
        ("group_order", {"kind": "sp", "m": 2, "q": 3, "order": 51840}),
        ("stabilizer_order", {"polynomial": "o3_quadric", "q": 3,
                              "order": 48}),
        ("semidirect_law", {"q": 3, **SEMIDIRECT}),
    ],
    "expand": [
        ("transfer_example", {"p": 3, "D": 20}),
        ("orbit_additivity", {"q": 5, "n": 2}),
        ("identity", {"name": "ck_sp4", "params": {"q": 3}}),
        ("identity", {"name": "eapg_relation", "params": {"m": 3, "q": 3}}),
        ("hilbert", {"group": {"kind": "pk", "m": 2, "k": 2, "q": 2},
                     "generators": [1, 1, 3, 4, 4], "relations": [6],
                     "D": 16}),
    ],
    "extension": [
        ("thin_glue", {"p": 2, "r": 3}),
        ("hilbert", {"group": {"kind": "u", "n": 3, "q": 4},
                     "generators": [1, 4, 16], "D": 20}),
        ("identity", {"name": "ck_sp4", "params": {"q": 4}}),
        ("semidirect_law", {"q": 4, **SEMIDIRECT}),
        ("field_axioms", {"p": 3, "r": 2}),
    ],
}

WORKLOADS = ("desk",) + tuple(INLINE)

# Every check kind the workloads run; each gets a checks.<kind>.s metric.
CHECK_KINDS = (
    "action_compatibility", "degree_product", "field_axioms",
    "gk_non_ci_conjecture", "group_order", "hilbert", "identity",
    "orbit_additivity", "parabolic_family", "semidirect_law", "singular_form",
    "stabilizer_order", "thin_glue", "transfer_example",
    "transfer_factorization", "transfer_module",
)


def load(name: str, seed: int):
    """Entries of workload ``name`` with ``seed`` filled in."""
    if name == "desk":
        from modinvar.cli import load_scenario
        entries = []
        for scenario in DESK_SCENARIOS:
            data = load_scenario(scenario)
            budgets = dict(data.get("budgets") or {})
            for entry in data["checks"]:
                entries.append((entry["check"], dict(entry.get("params") or {}),
                                budgets, entry.get("expect", "pass")))
    elif name in INLINE:
        entries = [(kind, dict(params), {}, "pass")
                   for kind, params in INLINE[name]]
    else:
        raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
    for _, params, _, _ in entries:
        params.setdefault("seed", seed)
    return entries
