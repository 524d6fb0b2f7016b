"""Acceptance battery: one test per exit criterion, printing a pass/fail
line each.  Exact polynomial identities are asserted with zero tolerance;
order and dimension checks are exact integers.

Two sub-criteria are implemented exactly as stated and are expected to fail;
see the "known deviations" section of the README for the mathematical
analysis.  They are deliberately NOT weakened here:

* criterion 2 at p = 3: the minus-sign normalization of the transfer product
  identity (the exact identity holds with a plus sign);
* criterion 7 as stated: relation degree 5 for the radical invariant ring
  over GF(2) (the dimension oracle and the order count force degree 6).
"""

import random
import time

import pytest

from modinvar.analysis import (HilbertClaim, hilbert_check, identity_suite,
                               principal_transfer_check, transfer,
                               transfer_image_basis)
from modinvar.checks import run_check
from modinvar.cli import load_scenario, run_scenario
from modinvar.gfq import build_field
from modinvar.gluing import full_hom_module, glue
from modinvar.groups import (gl_group, p_k_subgroup, stabilizer_of_polynomial,
                             unipotent_upper)
from modinvar.invariants import dickson_in, xi
from modinvar.mvpoly import (VariableSpace, gluing_space, monomials_of_degree,
                             parse_polynomial)

F2 = build_field(2)
F3 = build_field(3)


def report_line(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {criterion}] {status}{tail}")


@pytest.mark.parametrize("q", [2, 3])
def test_criterion_1_ck_sp4(q):
    t0 = time.time()
    rep = identity_suite("ck_sp4", {"q": q})
    elapsed = time.time() - t0
    report_line(1, rep.passed, f"q={q}, {elapsed:.1f}s")
    assert rep.passed, rep.witness
    assert elapsed < 60


@pytest.mark.parametrize("p", [2, 3])
def test_criterion_2_transfer_image(p):
    """Every monomial transfer of degree <= 12 is exactly divisible by
    tau = d_{2,2}^2, and tau is attained in the image row space."""
    t0 = time.time()
    field = build_field(p)
    gl = glue(unipotent_upper(2, field), unipotent_upper(2, field),
              full_hom_module(2, 2, field))
    msub = gl.m_subgroup()
    space = gluing_space(field, 2, 2)
    tau = dickson_in(space, ["x1", "x2"], 2) ** 2
    image = transfer_image_basis(msub, space, 12, m_split=2)
    rep = principal_transfer_check(image, tau)
    # raw transfers, not just reduced basis rows
    rng = random.Random(1234)
    for _ in range(5):
        d = rng.randrange(13)
        e = rng.choice(monomials_of_degree(space, d))
        tr = transfer([space.monomial(e)], msub)[0]
        assert tr.is_zero() or tau.divides(tr)
    elapsed = time.time() - t0
    report_line(2, rep.passed, f"p={p} divisibility+attainment, {elapsed:.1f}s")
    assert rep.passed, rep.witness
    assert elapsed < 120


@pytest.mark.parametrize("p", [2, 3])
def test_criterion_2_delta_identity(p):
    """tau psi(u) psi(v) = -delta, exactly as stated.

    Holds in characteristic 2.  At p = 3 the exact computation yields +delta
    under every uniform sign convention for the Dickson coefficients (the
    odd-index factors flip in pairs on both sides), so the minus form cannot
    hold; this test is expected to fail there and is kept as stated."""
    rep = identity_suite("transfer_delta", {"p": p})
    report_line(2, rep.passed, f"p={p} minus-sign product identity")
    assert rep.passed, rep.witness


def test_criterion_2_delta_identity_true_sign_p3():
    """Companion check: at p = 3 the product identity holds exactly with the
    plus sign."""
    rep = identity_suite("transfer_delta", {"p": 3, "sign": 1})
    report_line(2, rep.passed, "p=3 plus-sign companion identity")
    assert rep.passed, rep.witness


def test_criterion_3_u_lem_grid():
    t0 = time.time()
    failures = []
    count = 0
    for q in (2, 3):
        for m in (1, 2):
            for k in range(1, m + 1):
                for i in range(3):
                    for j in range(3):
                        rep = identity_suite(
                            "u_lem", dict(m=m, k=k, i=i, j=j, q=q))
                        count += 1
                        if not rep.passed:
                            failures.append((m, k, i, j, q, rep.witness))
    elapsed = time.time() - t0
    report_line(3, not failures, f"{count} cases, {elapsed:.1f}s")
    assert not failures, failures


def test_criterion_4_xib_and_eapg():
    failures = []
    for i in (1, 2):
        rep = identity_suite("xib", dict(m=2, i=i, q=2))
        if not rep.passed:
            failures.append(("xib", i, rep.witness))
    for q in (2, 3):
        for m in (1, 2):
            rep = identity_suite("eapg_relation", dict(m=m, q=q))
            if not rep.passed:
                failures.append(("eapg", m, q, rep.witness))
    report_line(4, not failures)
    assert not failures, failures


CRITERION_5_ORDERS = [
    ("sp", dict(m=2, q=2), 720),
    ("usp", dict(m=2, q=2), 16),
    ("usp", dict(m=2, q=3), 81),
    ("gl", dict(n=2, q=3), 48),
    ("pk", dict(m=2, k=2, q=3), 27),
    ("gk", dict(m=2, k=2, q=3), 1296),
    ("u", dict(n=4, q=2), 64),
]


@pytest.mark.parametrize("kind,params,expected", CRITERION_5_ORDERS)
def test_criterion_5_group_orders(kind, params, expected):
    t0 = time.time()
    rep = run_check("group_order", {**params, "kind": kind, "order": expected},
                    {})
    elapsed = time.time() - t0
    report_line(5, rep.passed, f"{kind}{params} = {expected}, {elapsed:.1f}s")
    assert rep.passed, rep.witness
    assert elapsed < 30


def test_criterion_6_stabilizers():
    G = gl_group(2, F3).enumerate()
    S = stabilizer_of_polynomial(G, xi(1, 3, 1))
    ok1 = S.order() == 24
    space = VariableSpace(F3, ["x1", "x2", "x3"])
    delta = parse_polynomial(space, "x2^2 - x1*x3")
    G3 = gl_group(3, F3).enumerate()
    S3 = stabilizer_of_polynomial(G3, delta)
    ok2 = S3.order() == 48 == 2 * 3 * (3 ** 2 - 1)
    report_line(6, ok1 and ok2, f"orders {S.order()}, {S3.order()}")
    assert ok1 and ok2


def test_criterion_7_hilbert_oracle_as_stated():
    """Series oracle with the declared data {1,1,3,4,4} / relation {5}.

    The declared relation degree is inconsistent: a complete intersection
    with these generator degrees has degree product 48, so the relation
    degree must be 48 / |group| = 6, and the dimension oracle indeed refutes
    degree 5 at degree 5.  Kept as stated; expected to fail."""
    P2 = p_k_subgroup(2, 2, F2)
    rep = hilbert_check(HilbertClaim([1, 1, 3, 4, 4], [5]), P2, 10)
    report_line(7, rep.passed, "declared relation degree 5")
    assert rep.passed, rep.witness


def test_criterion_7_hilbert_oracle_corrected_and_control():
    P2 = p_k_subgroup(2, 2, F2)
    good = hilbert_check(HilbertClaim([1, 1, 3, 4, 4], [6]), P2, 10)
    bad = hilbert_check(HilbertClaim([1, 1, 3, 4], [6]), P2, 10)
    ok = good.passed and bad.status == "fail"
    report_line(7, ok, "relation degree 6 passes; perturbed claim fails")
    assert good.passed, good.witness
    assert bad.status == "fail" and bad.witness


def test_criterion_8_semidirect_exhaustive_f2():
    t0 = time.time()
    rep = run_check("semidirect_law",
                    dict(q=2, m=2, n=2, g1="u", g2="u", module="full",
                         mode="exhaustive"), {})
    elapsed = time.time() - t0
    report_line(8, rep.passed, f"64^2 pairs, {elapsed:.1f}s")
    assert rep.passed, rep.witness


def test_criterion_8_semidirect_sampled_q3():
    rep = run_check("semidirect_law",
                    dict(q=3, m=1, n=2, g1="gl", g2="u", module="full",
                         samples=10000, seed=1234), {})
    report_line(8, rep.passed, "10^4 sampled pairs at q=3")
    assert rep.passed, rep.witness


@pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (3, 1)])
def test_criterion_9_thin_gluing(p, r):
    rep = run_check("thin_glue", dict(p=p, r=r), {})
    report_line(9, rep.passed, f"p={p}, r={r}")
    assert rep.passed, rep.witness


@pytest.mark.parametrize("q", [2, 3])
def test_criterion_10_parabolic_gluing(q):
    rep = run_check("parabolic_family", dict(q=q, partition=(1, 1)), {})
    act = identity_suite("para_action", {"q": q})
    ok = rep.passed and act.passed
    report_line(10, ok, f"q={q}: {rep.notes}")
    assert rep.passed, rep.witness
    assert act.passed, act.witness


PROPERTY_SUITES = [
    ("field_axioms", dict(p=2, r=2)),
    ("field_axioms", dict(p=3, r=1)),
    ("field_axioms", dict(p=3, r=2)),
    ("action_compatibility", dict(q=2, n=2, samples=10, seed=1234)),
    ("action_compatibility", dict(q=3, n=2, samples=6, seed=1234)),
    ("orbit_additivity", dict(q=2, n=2)),
    ("orbit_additivity", dict(q=3, n=2)),
    ("transfer_module", dict(p=2, samples=8, seed=1234)),
    ("transfer_module", dict(p=3, samples=4, seed=1234)),
    ("identity", dict(name="dickson_routes", params=dict(n=1, q=2))),
    ("identity", dict(name="dickson_routes", params=dict(n=2, q=2))),
    ("identity", dict(name="dickson_routes", params=dict(n=1, q=3))),
    ("identity", dict(name="dickson_routes", params=dict(n=2, q=3))),
    ("identity", dict(name="dickson_routes", params=dict(n=3, q=2))),
]


@pytest.mark.parametrize("kind,params", PROPERTY_SUITES)
def test_criterion_11_property_suites(kind, params):
    t0 = time.time()
    rep = run_check(kind, params, {})
    elapsed = time.time() - t0
    report_line(11, rep.passed, f"{kind} {params}, {elapsed:.1f}s")
    assert rep.passed, rep.witness
    assert elapsed < 60


def test_criterion_12_negative_controls():
    data = load_scenario("negative_controls")
    code, reports = run_scenario(data, quiet=True)
    ok = code == 0
    for rep in reports:
        ok = ok and rep.status == "fail" and bool(rep.witness)
    report_line(12, ok, f"{len(reports)} perturbed claims all refused")
    assert ok, [r.to_dict() for r in reports]
