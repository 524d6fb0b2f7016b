"""`run_check` is the one place that writes a check's report: it times the
check, makes the notes it returns a passed report, and turns a budget
overrun (`BudgetExceeded`) into a skipped report and a refuted claim
(`ClaimRefuted`) into a failed one; the batched triple law against the
scalar loop it replaced, and its two routes against each other; the
batched sampled checks against their per-sample loops, with the kernel
calls and closures they make."""

import collections
import hashlib
import importlib.util
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modinvar import analysis, checks, groups, invariants, mvpoly
from modinvar.analysis import VerificationReport
from modinvar.checks import _law_pairs, build_gluing, run_check
from modinvar.cli import load_scenario, main, run_scenario
from modinvar.gluing import semidirect_mul, singular_form_group
from modinvar.gfq import FieldSpec, Scalar, build_field
from modinvar.groups import fp_dtype, mat_mul
from modinvar.mvpoly import VariableSpace, gluing_space, parse_polynomial


SMALL_GLUING = {"q": 2, "m": 2, "n": 2, "g1": "u", "g2": "u",
                "module": "full"}
SMALL_HILBERT = {"group": {"kind": "u", "n": 2, "q": 2},
                 "generators": [1, 2]}


@pytest.mark.parametrize("kind,params,name,value", [
    # these passed as "-5 of -5 pairs checked", "-2 monomials checked"
    ("semidirect_law", SMALL_GLUING, "samples", -5),
    ("transfer_factorization", SMALL_GLUING, "samples", -2),
    ("action_compatibility", {"q": 2, "n": 2}, "samples", -1),
    ("transfer_module", {"p": 2}, "samples", -3),
    ("semidirect_law", SMALL_GLUING, "samples", 0),
    ("transfer_module", {"p": 2}, "samples", "4"),
    ("action_compatibility", {"q": 2, "n": 2}, "samples", True),
    ("hilbert", SMALL_HILBERT, "D", -1),  # an IndexError
    ("hilbert", SMALL_HILBERT, "D", 2.0),
])
def test_run_check_refuses_bad_sample_counts_and_degree_bounds(
        kind, params, name, value):
    """`samples` must be an int >= 1 and `D` an int >= 0, whichever check
    takes them."""
    with pytest.raises(ValueError, match=f"bad {name}={value!r}"):
        run_check(kind, {**params, name: value})


def test_bad_sample_counts_are_errors_in_verify_and_scenarios(capsys):
    """`verify` exits 2 on a refused parameter; a scenario entry with one
    reads `error`, and the entries after it still run."""
    code = main(["verify", "transfer_module", "--p", "2",
                 "--param", "samples", "-2"])
    assert code == 2
    assert "bad samples=-2" in capsys.readouterr().err
    code, reports = run_scenario({"checks": [
        {"check": "hilbert", "params": {**SMALL_HILBERT, "D": -1}},
        {"check": "hilbert", "params": {**SMALL_HILBERT, "D": 0}}]},
        quiet=True)
    assert code == 1
    assert [r.status for r in reports] == ["error", "pass"]
    assert reports[0].witness == "ValueError: bad D=-1: an int >= 0"


def test_monomial_budget_is_skipped(monkeypatch):
    monkeypatch.setattr(analysis, "MAX_KERNEL_MONOMIALS", 10)
    params = {"group": {"kind": "u", "n": 3, "q": 2},
              "generators": [1, 2, 4], "D": 6}
    rep = run_check("hilbert", params)
    assert rep.status == "skipped"
    assert rep.check == "hilbert" and rep.params == params
    assert rep.notes == "degree 4 needs 15 monomials, over the 10 budget"


def test_step_budget_is_skipped(monkeypatch):
    monkeypatch.setattr(analysis, "MAX_STEP_ENTRIES", 5)
    params = {"group": {"kind": "u", "n": 3, "q": 2},
              "generators": [1, 2, 4], "D": 6}
    rep = run_check("hilbert", params)
    assert rep.status == "skipped"
    assert rep.notes == ("degree 2 needs 12 symmetric-power entries, over "
                         "the 5 budget")


def test_field_axioms_beyond_q9_is_skipped():
    rep = run_check("field_axioms", {"p": 2, "r": 4})
    assert rep.status == "skipped"
    assert rep.notes == "exhaustive check limited to q <= 9"


def test_enumeration_cap_is_skipped():
    rep = run_check("group_order", {"kind": "gl", "n": 2, "q": 3}, {"cap": 10})
    assert rep.status == "skipped" and "exceeds cap 10" in rep.notes


def test_every_closure_in_a_check_obeys_the_run_cap():
    """The M-block, closed inside `GluingGroup.m_subgroup` with no cap of
    its own, is held to the run's cap."""
    rep = run_check("transfer_example", {"p": 2, "D": 4}, {"cap": 2})
    assert rep.status == "skipped" and rep.notes == "M-block exceeds cap 2"


def test_sequential_runs_do_not_leak_budgets():
    params = {"kind": "gl", "n": 2, "q": 3}
    assert run_check("group_order", params, {"cap": 10}).status == "skipped"
    assert run_check("group_order", params, {}).status == "pass"


@pytest.mark.parametrize("inner_raises", [False, True])
def test_nested_run_check_restores_the_outer_budgets(monkeypatch,
                                                      inner_raises):
    seen = []

    def inner(params):
        seen.append(groups.RUN_BUDGETS.get()["cap"])
        if inner_raises:
            raise KeyError("inner")
        return VerificationReport("inner", params, "pass")

    def outer(params):
        seen.append(groups.RUN_BUDGETS.get()["cap"])
        try:
            run_check("inner", {}, {"cap": 5})
        except KeyError:
            pass
        seen.append(groups.RUN_BUDGETS.get()["cap"])
        return VerificationReport("outer", params, "pass")

    monkeypatch.setitem(checks.CHECKS, "inner", inner)
    monkeypatch.setitem(checks.CHECKS, "outer", outer)
    assert run_check("outer", {}, {"cap": 7}).status == "pass"
    assert seen == [7, 5, 7]
    assert groups.RUN_BUDGETS.get() == groups.BUDGET_DEFAULTS


@pytest.mark.parametrize("budgets", [{"cpa": 10}, {"cap": 0}])
def test_unknown_or_bad_budget_is_refused(budgets):
    with pytest.raises(ValueError, match=r"\['cap', 'degree_bound'\]"):
        run_check("group_order", {"kind": "gl", "n": 2, "q": 2}, budgets)


def test_hilbert_degree_bound_is_the_runs(monkeypatch):
    """A hilbert check without D takes the run's degree bound, 12 unless
    the run sets it."""
    bounds = []

    def record(claim, G, D):
        bounds.append(D)
        return VerificationReport("hilbert", {}, "pass")

    monkeypatch.setattr(checks, "hilbert_check", record)
    params = {"group": {"kind": "u", "n": 2, "q": 2}, "generators": [1, 2]}
    run_check("hilbert", params)
    run_check("hilbert", params, {"degree_bound": 5})
    run_check("hilbert", {**params, "D": 3}, {"degree_bound": 5})
    assert bounds == [12, 5, 3]


def test_other_exceptions_propagate():
    with pytest.raises(KeyError):
        run_check("group_order", {"kind": "gl", "n": 2}, {})


# -- a refuted claim is a failed report --

def test_refuted_group_order_claim_is_a_fail(monkeypatch):
    monkeypatch.setattr(groups, "gl_order", lambda n, q: 7)
    rep = run_check("group_order", {"kind": "gl", "n": 2, "q": 2})
    assert rep.status == "fail" and rep.millis > 0
    assert rep.witness == "GL2(F2): enumerated order 6 != claimed order 7"


def test_pinned_order_is_compared_with_the_claim():
    rep = run_check("group_order", {"kind": "gl", "n": 2, "q": 2,
                                    "order": 7})
    assert rep.status == "fail"
    assert rep.witness == "formula order 6 != pinned order 7"


def test_refuted_factor_claim_fails_the_glued_order(monkeypatch):
    monkeypatch.setattr(groups, "gl_order", lambda n, q: 7)
    rep = run_check("glued_order", {"q": 2, "m": 2, "n": 1, "g1": "gl",
                                    "module": "full"})
    assert rep.status == "fail" and "claimed order" in rep.witness


def test_non_invariant_family_member_fails_the_degree_product(monkeypatch):
    honest = invariants.FAMILY_BUILDERS["eapg"]

    def with_a_moved_member(**params):
        fam = honest(**params)
        y1 = fam.members[0].poly.space.variable("y1")
        return invariants.GeneratorFamily(
            fam.name, fam.params,
            fam.members + [invariants.FamilyMember("y1", y1, 1)], fam.group)
    monkeypatch.setitem(invariants.FAMILY_BUILDERS, "eapg",
                        with_a_moved_member)
    rep = run_check("degree_product", {"family": "eapg",
                                       "params": {"m": 1, "q": 2}})
    assert rep.status == "fail"
    assert rep.witness.startswith("eapg") and "is not fixed" in rep.witness


def test_refuted_claim_in_a_scenario_is_a_fail_line(tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.setattr(groups, "gl_order", lambda n, q: 7)
    scen = tmp_path / "refuted.yaml"
    scen.write_text(
        "name: refuted\nchecks:\n"
        "  - check: group_order\n"
        "    params: {kind: gl, n: 2, q: 2}\n"
        "    expect: fail\n")
    out_path = tmp_path / "out.jsonl"
    assert main(["run", str(scen), "--json", str(out_path)]) == 0
    (line,) = out_path.read_text().splitlines()
    obj = json.loads(line)
    assert obj["status"] == "fail"
    assert obj["witness"] == "GL2(F2): enumerated order 6 != claimed order 7"
    assert "result: all checks matched" in capsys.readouterr().out


@pytest.mark.parametrize("params", [dict(q=2, n=0), dict(q=3, n=0)])
def test_orbit_additivity_over_no_variables(params):
    """The literal products of `subspace_product` on one side, the
    recursion on the other; over no variables both are the form itself."""
    rep = run_check("orbit_additivity", params, {})
    assert rep.status == "pass", rep.witness


def test_every_report_is_timed():
    _, reports = run_scenario(load_scenario("orders_small"), quiet=True)
    assert len(reports) == 8
    assert all(r.millis > 0 for r in reports)


# -- every pass and fail branch of the check bodies, report for report --

def _thin_glue_one_size_up(monkeypatch):
    honest = checks.thin_glue_regular
    monkeypatch.setattr(checks, "thin_glue_regular", lambda p, r, field:
                        honest(p, r + 1, build_field(p, r + 1)))


def _every_order_one(monkeypatch):
    monkeypatch.setattr(checks, "element_orders",
                        lambda field, matrices: [1] * len(matrices))


def _degree_product_one(monkeypatch):
    monkeypatch.setattr(invariants.GeneratorFamily, "degree_product",
                        lambda self: 1)


def _orbit_product_plus_form(monkeypatch):
    honest = checks.orbit_product
    monkeypatch.setattr(checks, "orbit_product",
                        lambda form, basis: honest(form, basis) + form)


def _addition_subtracts(monkeypatch):
    monkeypatch.setattr(Scalar, "__add__", Scalar.__sub__)


def _every_power_zero(monkeypatch):
    monkeypatch.setattr(Scalar, "__pow__", lambda a, e: a - a)


def _frobenius_plus_one(monkeypatch):
    honest = Scalar.frobenius
    monkeypatch.setattr(Scalar, "frobenius", lambda a: honest(a) + 1)


GLUED_U2 = {"q": 2, "m": 2, "n": 1, "g1": "u", "module": "full"}


@pytest.mark.parametrize("kind,params,patch,expected", [
    ("glued_order", dict(GLUED_U2, order=9), None,
     {"status": "fail", "witness": "realized 8 != pinned 9"}),
    ("glued_order", dict(GLUED_U2, order=8), None, {"status": "pass"}),
    ("stabilizer_order", {"q": 2, "polynomial": "o3_quadric", "order": 7},
     None, {"status": "fail", "witness": "stabilizer order 6, expected 7"}),
    ("family", {"family": "eapg", "params": {"m": 1, "q": 2}}, None,
     {"status": "pass", "notes": "2 members, degrees [1, 2]"}),
    ("thin_glue", {"p": 2, "r": 1}, _thin_glue_one_size_up,
     {"status": "fail", "witness": "dimension 5 != 3"}),
    ("thin_glue", {"p": 2, "r": 1}, _every_order_one,
     {"status": "fail", "witness": "maximal element order 1 != 4"}),
    ("parabolic_family", {"q": 2}, _degree_product_one,
     {"status": "fail", "witness": "degree product 1 != glued order 32"}),
    ("orbit_additivity", {"q": 2, "n": 1}, _orbit_product_plus_form,
     {"status": "fail", "witness": "additivity fails for y1 + y2"}),
    ("field_axioms", {"p": 3}, _addition_subtracts,
     {"status": "fail", "witness": "axiom fails at (0,0,1)"}),
    ("field_axioms", {"p": 3}, _every_power_zero,
     {"status": "fail", "witness": "a^q != a at 1"}),
    ("field_axioms", {"p": 3}, _frobenius_plus_one,
     {"status": "fail", "witness": "frobenius not additive at (0,0)"}),
])
def test_check_branches_report_as_recorded(monkeypatch, kind, params, patch,
                                           expected):
    """A wrong `order` pin or a monkeypatched step drives each check into
    one branch; the report, apart from `millis`, is the recorded one."""
    if patch:
        patch(monkeypatch)
    report = run_check(kind, params).to_dict()
    del report["millis"]
    assert report == {"check": kind, "params": params, **expected}
    assert run_check("gk_non_ci_conjecture", {}).millis > 0


# -- the batched semidirect law against the scalar loop --

LAW_SHAPES = [
    {"q": 3, "m": 1, "n": 2, "g1": "gl", "g2": "u", "module": "full"},
    {"q": 4, "m": 1, "n": 2, "g1": "gl", "g2": "u", "module": "full"},
    {"q": 2, "m": 2, "n": 2, "g1": "u", "g2": "u", "module": "full"},
    {"q": 9, "m": 2, "n": 1, "g1": "u", "g2": "gl", "module": "full"},
    {"kind": "thin", "p": 2, "r": 2},
]


def _law_setting(params):
    gluing = build_gluing(params)
    G1, G2 = gluing.G1.enumerate(), gluing.G2.enumerate()
    return gluing, G1, [tuple(map(tuple, phi))
                        for phi in gluing.M.elements().tolist()], G2


def _as_triples(G1, phis, G2, ids):
    sizes = (G1.order(), len(phis), G2.order())
    out = []
    for t in ids.ravel().tolist():
        a, k, b = np.unravel_index(t, sizes)
        out.append((G1.elements[a], phis[k], G2.elements[b]))
    return list(zip(out[::2], out[1::2]))


def scalar_law_pairs(G1, phis, G2, params, seed):
    """The pairs the scalar check walks, in the reference order: every pair
    of triples listed in exhaustive mode, else the triples of the ids that
    `_law_pairs` draws."""
    if params.get("mode") == "exhaustive":
        triples = [(a, phi, b) for a in G1.elements for phi in phis
                   for b in G2.elements]
        return [(t1, t2) for t1 in triples for t2 in triples]
    total, pair_ids = _law_pairs((G1.order(), len(phis), G2.order()),
                                 params, seed)
    return _as_triples(G1, phis, G2, pair_ids(0, total))


def scalar_law(gluing, pairs):
    """The scalar check: the first pair whose triple product differs from
    the block product, or None."""
    for t1, t2 in pairs:
        prod = semidirect_mul(gluing, t1, t2)
        if gluing.triple(*prod) != gluing.triple(*t1) * gluing.triple(*t2):
            return t1, t2
    return None


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(LAW_SHAPES), st.integers(0, 10 ** 6),
       st.integers(1, 60))
def test_batched_law_draws_the_scalar_pairs(shape, seed, samples):
    """The batched check and the scalar law, pair by pair, pass on the
    pairs `_law_pairs` draws."""
    params = dict(shape, samples=samples)
    gluing, G1, phis, G2 = _law_setting(params)
    pairs = scalar_law_pairs(G1, phis, G2, params, seed)
    assert len(pairs) == samples
    rep = run_check("semidirect_law", dict(params, seed=seed))
    assert rep.status == "pass" and scalar_law(gluing, pairs) is None
    assert rep.notes == f"{samples} of {samples} pairs checked"


LAW_AXIS_SIZES = [1, 2, 4, 8, 16, 64, 1024, 48, 81, 27]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(LAW_AXIS_SIZES), min_size=2, max_size=2),
       st.sampled_from(LAW_AXIS_SIZES + [2 ** 31]), st.integers(0, 2),
       st.integers(0, 2 ** 64), st.integers(0, 40))
def test_law_pairs_draw_ids_in_range_by_seed(sizes, size, axis, seed,
                                             samples):
    """`_law_pairs` draws 2 * samples triple ids below |G1| |M| |G2|, the
    same ones for the same seed and others for another seed.  Sizes of
    one, powers of two, the group sizes of the benchmark and one axis of
    2^31 (two would overflow the int64 ids)."""
    sizes.insert(axis, size)
    triples = math.prod(sizes)
    total, pair_ids = _law_pairs(tuple(sizes), {"samples": samples}, seed)
    ids = pair_ids(0, total)
    assert total == samples and ids.shape == (samples, 2)
    assert ids.dtype == np.int64 and (0 <= ids).all() and (ids < triples).all()
    again = _law_pairs(tuple(sizes), {"samples": samples}, seed)[1]
    assert again(0, total).tolist() == ids.tolist()
    other = _law_pairs(tuple(sizes), {"samples": samples}, seed + 1)[1]
    if triples ** (2 * samples) >= 2 ** 40:  # equal draws are unlikely
        assert other(0, total).tolist() != ids.tolist()


@pytest.mark.parametrize("sizes", [(3, 5, 7), (48, 81, 27), (2, 16, 2)])
def test_law_pairs_draw_every_axis_uniformly(sizes):
    """Uniform ids make the three axes uniform: over 20,000 ids the
    chi-square statistic of each axis stays within 5 standard deviations
    of its mean, size - 1 (the seed is fixed, so the counts are too).
    Folding ids past the range back in, instead of rejecting them, fails."""
    total, pair_ids = _law_pairs(sizes, {"samples": 10000}, 0)
    axes = np.unravel_index(pair_ids(0, total).ravel(), sizes)
    for size, axis in zip(sizes, axes):
        counts = np.bincount(axis, minlength=size)
        expected = 2 * total / size
        assert len(counts) == size
        assert ((counts - expected) ** 2 / expected).sum() < \
            size - 1 + 5 * math.sqrt(2 * (size - 1))


def test_law_pairs_draw_in_bulk(monkeypatch):
    """10,000 sampled pairs cost a handful of `getrandbits` calls (through
    `randbytes`), not one or more per axis and draw; every seed that
    `random.Random` takes works, the same way each time."""
    calls = []
    getrandbits = random.Random.getrandbits

    def counted(self, k):
        calls.append(k)
        return getrandbits(self, k)
    monkeypatch.setattr(random.Random, "getrandbits", counted)
    for seed in (0, 2 ** 70, "desk", b"\x01\x02"):
        calls.clear()
        total, pair_ids = _law_pairs((48, 81, 27), {"samples": 10000}, seed)
        assert total == 10000 and 1 <= len(calls) <= 4
        again = _law_pairs((48, 81, 27), {"samples": 10000}, seed)[1]
        assert again(0, total).tolist() == pair_ids(0, total).tolist()


def test_exhaustive_law_pairs_keep_their_order():
    params = dict(LAW_SHAPES[2], mode="exhaustive")
    _, G1, phis, G2 = _law_setting(params)
    total, pair_ids = _law_pairs((2, 16, 2), params, 0)
    assert total == 64 ** 2
    ids = np.concatenate([pair_ids(s, min(total, s + 1000))
                          for s in range(0, total, 1000)])
    assert _as_triples(G1, phis, G2, ids) == \
        scalar_law_pairs(G1, phis, G2, params, 0)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(LAW_SHAPES), st.data())
def test_blocks_of_expanded_factors_expand_the_block_matrix(shape, data):
    """`GluingGroup.blocks` reads its block sizes and dtype from its
    operands, so assembling the F_p forms of random factors gives the F_p
    form of their block matrix, and assembling their digit rows, which
    `semidirect_law` multiplies, gives its row 0 of each block row."""
    gluing, G1, phis, G2 = _law_setting(shape)
    field, size, r = gluing.field, gluing.m + gluing.n, gluing.field.r
    count = data.draw(st.integers(1, 5))
    factors = [np.asarray(x)[data.draw(st.lists(
        st.integers(0, len(x) - 1), min_size=count, max_size=count))]
        for x in (G1.rows(), phis, G2.rows())]
    dtype = fp_dtype(field, size)
    whole = field.expand(gluing.blocks(*factors), dtype)
    parts = [field.expand(x, dtype) for x in factors]
    assert whole.dtype == parts[0].dtype
    assert np.array_equal(gluing.blocks(*parts), whole)
    rows = [field.digits(x).reshape(*x.shape[:-1], -1).astype(dtype)
            for x in factors]
    assert np.array_equal(gluing.blocks(*rows), whole[..., ::r, :])


def test_exhaustive_thin_law_matches_the_scalar_law():
    params = dict(LAW_SHAPES[4], mode="exhaustive")
    gluing, G1, phis, G2 = _law_setting(params)
    pairs = scalar_law_pairs(G1, phis, G2, params, 0)
    rep = run_check("semidirect_law", params)
    assert rep.status == "pass" and scalar_law(gluing, pairs) is None
    assert rep.notes == f"{len(pairs)} of {len(pairs)} pairs checked"


def test_law_forms_each_factor_product_once(monkeypatch):
    """The triple formula makes one `_digit_matmul` call per factor product
    (4, not one per product and chunk), each over the distinct pairs of
    factor ids that the checked pairs use."""
    params = dict(LAW_SHAPES[1], samples=10000, seed=1)
    _, G1, phis, G2 = _law_setting(params)
    sizes = (G1.order(), len(phis), G2.order())
    total, pair_ids = _law_pairs(sizes, params, 0)
    left, right = (np.unravel_index(ids, sizes)
                   for ids in pair_ids(0, total).T)
    distinct = [len({*zip(left[x].tolist(), right[y].tolist())})
                for x, y in ((0, 0), (0, 1), (1, 2), (2, 2))]
    calls = []
    honest = checks._digit_matmul

    def counted(field, a, b):
        calls.append(len(a))
        return honest(field, a, b)
    monkeypatch.setattr(checks, "_digit_matmul", counted)
    assert run_check("semidirect_law", params).status == "pass"
    assert calls == distinct


def _corrupt_products_of(monkeypatch, gluing, triple):
    """Make the batched block product wrong wherever its right factor is
    the F_p form of the block matrix of `triple`."""
    field = gluing.field
    matrix = np.array(gluing.triple(*triple).matrix)
    target = field.expand(matrix, fp_dtype(field, len(matrix)))
    honest = checks._matmul_mod

    def corrupted(a, b, p):
        out = honest(a, b, p)
        if b.shape[-2:] == target.shape:
            hit = (b == target).all(axis=(1, 2))
            out[hit, 0, 0] = (out[hit, 0, 0] + 1) % p
        return out
    monkeypatch.setattr(checks, "_matmul_mod", corrupted)


@pytest.mark.parametrize("params", [
    dict(LAW_SHAPES[0], samples=400, seed=7),
    dict(LAW_SHAPES[1], samples=400, seed=11),
    dict(LAW_SHAPES[2], mode="exhaustive"),
])
def test_forced_mismatch_reports_the_first_failing_pair(monkeypatch, params):
    gluing, G1, phis, G2 = _law_setting(params)
    pairs = scalar_law_pairs(G1, phis, G2, params, 0)
    culprit = pairs[len(pairs) // 3][1]
    first = next((t1, t2) for t1, t2 in pairs if t2 == culprit)
    _corrupt_products_of(monkeypatch, gluing, culprit)
    rep = run_check("semidirect_law", params)
    assert rep.status == "fail"
    assert rep.witness == f"triple law fails for {first[0]!r} * {first[1]!r}"


def test_law_fails_when_the_block_product_uses_another_field(monkeypatch):
    """The block product goes through the F_p form, the triple formula
    through the digit polynomials: with GF(9) represented
    modulo x^2 + x + 2 instead of its own modulus the two disagree."""
    params = dict(LAW_SHAPES[3], samples=200)
    gluing = build_gluing(params)
    other = FieldSpec(3, 2, modulus=(2, 1, 1))
    assert other != gluing.field
    assert run_check("semidirect_law", params).status == "pass"
    monkeypatch.setattr(gluing.field, "_companion", other._companion)
    rep = run_check("semidirect_law", params)
    assert rep.status == "fail"
    assert rep.witness.startswith("triple law fails for ")


def test_unattained_tau_keeps_its_witness():
    """The negative control of the transfer image: tau without its square
    is not attained at its own degree."""
    rep = run_check("transfer_example", {"p": 2, "tau_power": 1, "D": 8}, {})
    assert rep.status == "fail"
    assert rep.witness == ("tau is not attained in the image row space at "
                           "degree 3")


# -- thin_glue: one witness of the largest element order --

THIN_GLUES = [(2, 1), (2, 2), (2, 3), (3, 1)]


def spy_element_orders(monkeypatch):
    """The matrices of each `element_orders` call `check_thin_glue` makes."""
    calls = []

    def spy(field, matrices):
        calls.append(np.array(matrices))
        return groups.element_orders(field, matrices)

    monkeypatch.setattr(checks, "element_orders", spy)
    return calls


@pytest.mark.parametrize("p,r", THIN_GLUES)
def test_thin_glue_witness_has_the_largest_order(monkeypatch, p, r):
    """The witness's order is the whole-group oracle's maximum, p^(r+1)."""
    calls = spy_element_orders(monkeypatch)
    assert run_check("thin_glue", {"p": p, "r": r}, {}).status == "pass"
    field = build_field(p, r)
    rows = build_gluing({"kind": "thin", "p": p, "r": r}).enumerate().rows()
    (witness,), = calls
    assert groups.element_orders(field, [witness]) == [p ** (r + 1)]
    assert max(groups.element_orders(field, rows)) == p ** (r + 1)


@pytest.mark.parametrize("p,r", THIN_GLUES)
def test_thin_glue_orders_one_matrix(monkeypatch, p, r):
    """A pass hands `element_orders` the witness alone, and nothing reads
    the realized group's rows."""
    calls = spy_element_orders(monkeypatch)
    reads = []
    rows = groups.MatrixGroup.rows
    monkeypatch.setattr(groups.MatrixGroup, "rows",
                        lambda G: reads.append(G) or rows(G))
    assert run_check("thin_glue", {"p": p, "r": r}, {}).status == "pass"
    assert [len(m) for m in calls] == [1] and not reads


@pytest.mark.parametrize("p,r", THIN_GLUES)
def test_thin_glue_witness_miss_asks_the_whole_group(monkeypatch, p, r):
    """With the witness's corner zeroed, w = [[c, 0], [0, 1]] has order p^r
    only, and the largest order over all elements gives the same report."""
    expected = run_check("thin_glue", {"p": p, "r": r}, {})
    calls = spy_element_orders(monkeypatch)
    monkeypatch.setattr(checks, "index_matmul",
                        lambda field, a, b: np.zeros((len(a), b.shape[-1]),
                                                     dtype=np.int64))
    rep = run_check("thin_glue", {"p": p, "r": r}, {})
    order = p ** r * p ** (p ** r)
    assert [len(m) for m in calls] == [1, order]
    field = build_field(p, r)
    assert groups.element_orders(field, calls[0]) == [p ** r]
    assert (rep.status, rep.witness, rep.notes, rep.params) == (
        expected.status, expected.witness, expected.notes, expected.params)


# -- action_compatibility against the per-pair loop it replaced --

def scalar_compatibility(params, swap=False, swap_at=None):
    """The witness of the first pair with f.(g h) != (f.g).h, or None, from
    three `Polynomial.act` calls per pair and the product by `mat_mul`
    (h g with `swap`, or for sample swap_at alone), drawing f and the pairs
    as the check draws them."""
    field = groups.field_from_order(params.get("q", 2))
    n = params.get("n", 2)
    elements = groups.gl_group(n, field).enumerate().rows().tolist()
    order = len(elements)
    rng = random.Random(params.get("seed", 0))
    space = VariableSpace(field, [f"z{i}" for i in range(1, n + 1)])
    for i in range(params.get("samples", 30)):
        f = space.zero()
        for _ in range(rng.randrange(5)):
            e = tuple(rng.randrange(4) for _ in range(n))
            f = f + space.monomial(e, rng.randrange(1, field.q))
        swapped = swap or i == swap_at
        if order ** 2 <= 2500:
            pairs = [(a, b) for a in range(order) for b in range(order)]
        else:
            draws = [rng.choice(range(order)) for _ in range(100)]
            pairs = list(zip(draws[0::2], draws[1::2]))
        for a, b in pairs:
            g, h = elements[a], elements[b]
            product = mat_mul(field, h, g) if swapped \
                else mat_mul(field, g, h)
            if f.act(product) != f.act(g).act(h):
                return f"compatibility fails for f={f!r}"
    return None


@pytest.mark.parametrize("params", [
    {"q": 2, "n": 2, "samples": 6}, {"q": 3, "n": 2, "samples": 4},
    {"q": 2, "n": 3, "samples": 3, "seed": 5},
    {"q": 2, "n": 2, "samples": 30, "seed": 2},
    {"q": 2, "n": 3, "samples": 20, "seed": 1}])
def test_action_compatibility_acts_once_per_element(monkeypatch, params):
    """The same verdict as the per-pair loop, with two kernel calls for
    all polynomials, whatever their number: the first acts on each f by
    each element its pairs name, once each, the second on each f.g by h,
    once per pair; with the products taken as h g the first failing f is
    the loop's."""
    calls = []
    kernel = mvpoly._act_packed

    def counted(space, exps, coeffs, mats, which, owner, radix):
        # (outputs, the (output, matrix) pairs the terms are acted on by)
        calls.append((len(set(owner.tolist())),
                      len(set(zip(owner.tolist(), which.tolist())))))
        return kernel(space, exps, coeffs, mats, which, owner, radix)

    assert scalar_compatibility(params) is None
    monkeypatch.setattr(mvpoly, "_act_packed", counted)
    assert run_check("action_compatibility", params).status == "pass"
    order = groups.gl_order(params["n"], params["q"])
    pairs = order ** 2 if order ** 2 <= 2500 else 50
    assert len(calls) == 2
    (elements, acts), (outputs, twice) = calls
    assert elements == acts <= params["samples"] * min(order, 2 * pairs)
    assert outputs == twice <= params["samples"] * pairs
    monkeypatch.setattr(mvpoly, "_act_packed", kernel)
    matmul = checks.index_matmul
    monkeypatch.setattr(checks, "index_matmul",
                        lambda field, a, b: matmul(field, b, a))
    rep = run_check("action_compatibility", params)
    assert rep.status == "fail"
    assert rep.witness == scalar_compatibility(params, swap=True)


# -- the batched sampled checks against their per-sample loops --

FACTORIZATION = {"q": 2, "m": 2, "n": 2, "g1": "u", "g2": "u",
                 "module": "full", "samples": 8, "max_degree": 2}


def loop_transfer_factorization(params):
    """`transfer_factorization` a sample at a time, as it ran before it was
    batched: one `transfer_factorization_check` per monomial."""
    gluing = build_gluing(params)
    space = gluing_space(gluing.field, gluing.m, gluing.n)
    rng = random.Random(params.get("seed", 0))
    count = params.get("samples", 12)
    maxdeg = params.get("max_degree", 3)
    for _ in range(count):
        e = tuple(rng.randrange(maxdeg + 1) for _ in range(space.dim))
        rep = analysis.transfer_factorization_check([space.monomial(e)],
                                                    gluing)
        if not rep.passed:
            rep.params.update(params)
            return rep
    return VerificationReport("transfer_factorization", params, "pass",
                              notes=f"{count} monomials checked")


def module_draws(params):
    """The (e, g, h) of every `transfer_module` sample, drawn in the
    check's order, with the M-block they act in."""
    gluing = analysis.u4_gluing(params.get("p", 2))
    space = gluing_space(gluing.field, 2, 2)
    msub = gluing.m_subgroup()
    rows = msub.rows()
    rng = random.Random(params.get("seed", 0))
    multipliers = [space.variable("x1"), space.variable("x2"),
                   invariants.dickson_in(space, ["x1", "x2"], 2)]
    draws = []
    for _ in range(params.get("samples", 8)):
        e = tuple(rng.randrange(3) for _ in range(space.dim))
        g = rows[rng.choice(range(len(rows)))].tolist()
        draws.append((e, g, rng.choice(multipliers)))
    return space, msub, draws


def loop_transfer_module(params):
    """`transfer_module` a sample at a time, as it ran before it was
    batched: three `transfer` calls per sample."""
    space, msub, draws = module_draws(params)
    for e, g, h in draws:
        f = space.monomial(e)
        tf = checks.transfer([f], msub)[0]
        if checks.transfer([f.act(g)], msub)[0] != tf:
            return VerificationReport("transfer_module", params, "fail",
                                      witness=f"Tr(f.g) != Tr(f) at {e}")
        if checks.transfer([h * f], msub)[0] != h * tf:
            return VerificationReport("transfer_module", params, "fail",
                                      witness=f"Tr(h f) != h Tr(f) at {e}")
    return VerificationReport("transfer_module", params, "pass")


def report_fields(rep):
    return rep.check, rep.status, rep.witness, rep.notes, rep.params


def perturb_transfer(monkeypatch, owner, target, over=lambda group: True):
    """Patch owner.transfer to add 1 to the transfer of target over every
    group `over` accepts: a forced failure of the samples that draw it."""
    real = owner.transfer

    def transfer(polys, group):
        return [t + 1 if f == target and over(group) else t
                for f, t in zip(polys, real(polys, group))]

    monkeypatch.setattr(owner, "transfer", transfer)


def spy(monkeypatch, owner, name):
    """The argument tuples of every later call of owner.name."""
    calls, real = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("params", [
    FACTORIZATION, dict(FACTORIZATION, seed=3, samples=5, max_degree=3),
    {"q": 3, "m": 1, "n": 1, "module": "full", "samples": 6, "seed": 2}])
def test_transfer_factorization_matches_its_sample_loop(monkeypatch, params):
    """The batched check reports what the per-sample loop reports, passing
    and with the transfer of sample 2's monomial over the glued group
    forced wrong."""
    assert report_fields(run_check("transfer_factorization", params)) == \
        report_fields(loop_transfer_factorization(params))
    gluing = build_gluing(params)
    space = gluing_space(gluing.field, gluing.m, gluing.n)
    rng = random.Random(params.get("seed", 0))
    for _ in range(3):
        e = tuple(rng.randrange(params.get("max_degree", 3) + 1)
                  for _ in range(space.dim))
    perturb_transfer(monkeypatch, analysis, space.monomial(e),
                     lambda group: "x_M" in group.name)
    rep = run_check("transfer_factorization", params)
    assert rep.status == "fail" and rep.params["f"] == repr(space.monomial(e))
    assert report_fields(rep) == \
        report_fields(loop_transfer_factorization(params))


@pytest.mark.parametrize("params", [
    {"p": 2, "samples": 6, "seed": 1}, {"p": 3, "samples": 4, "seed": 4}])
def test_transfer_module_matches_its_sample_loop(monkeypatch, params):
    """The batched check reports what the per-sample loop reports, passing
    and with the transfer of sample 2's monomial forced wrong."""
    assert report_fields(run_check("transfer_module", params)) == \
        report_fields(loop_transfer_module(params))
    space, _, draws = module_draws(params)
    e = draws[2][0]
    perturb_transfer(monkeypatch, checks, space.monomial(e))
    rep = run_check("transfer_module", params)
    assert rep.status == "fail" and rep.witness.endswith(f" at {e}")
    assert report_fields(rep) == report_fields(loop_transfer_module(params))


@pytest.mark.parametrize("params, culprit", [
    ({"q": 2, "n": 3, "samples": 6, "seed": 5}, 3),
    ({"q": 5, "n": 2, "samples": 4, "seed": 2}, 2)])
def test_action_compatibility_names_the_failing_sample(monkeypatch, params,
                                                       culprit):
    """With the products of one sample's pairs taken as h g, the batched
    check names the polynomial the per-pair loop names."""
    expected = scalar_compatibility(params, swap_at=culprit)
    assert expected is not None
    matmul, calls = checks.index_matmul, []

    def swapped(field, a, b):
        calls.append(None)
        return matmul(field, b, a) if len(calls) == culprit + 1 \
            else matmul(field, a, b)

    monkeypatch.setattr(checks, "index_matmul", swapped)
    rep = run_check("action_compatibility", params)
    assert (rep.status, rep.witness) == ("fail", expected)


def test_transfer_factorization_closes_and_transfers_once(monkeypatch):
    """Eight samples take three `transfer` calls (the glued group, the
    M-block, the G1 x G2 block) and at most one closure of each group."""
    transfers = spy(monkeypatch, analysis, "transfer")
    closures = spy(monkeypatch, groups, "_closure")
    assert run_check("transfer_factorization", FACTORIZATION).passed
    assert len(transfers) <= 3 and len(closures) <= 3


def test_transfer_module_transfers_once(monkeypatch):
    transfers = spy(monkeypatch, checks, "transfer")
    assert run_check("transfer_module", {"p": 2, "samples": 6}).passed
    assert len(transfers) == 1


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / \
    "workloads.py"


def test_no_desk_check_closes_a_generator_set_twice(monkeypatch):
    """Every entry of the desk workload (its bundled scenarios) closes each
    generator set at most once: a check that needs a group again reuses
    the object it closed.  Groups without generators are exempt: their
    closure is the identity alone."""
    spec = importlib.util.spec_from_file_location("desk_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    closure, closed = groups._closure, collections.Counter()

    def counted(field, n, generators, cap, name="group"):
        key = np.asarray(generators, dtype=np.int64).tobytes()
        if key:
            closed[field, n, key] += 1
        return closure(field, n, generators, cap, name)

    monkeypatch.setattr(groups, "_closure", counted)
    for kind, params, budgets, _ in workloads.load("desk", 0):
        closed.clear()
        run_check(kind, params, budgets)
        again = [(field.q, n) for (field, n, _), count in closed.items()
                 if count > 1]
        assert not again, f"{kind} {params} closes {again} more than once"


# -- generator pins --
# sha256 prefixes of the generator matrices, in order, as nested lists
# (`json.dumps`), taken from the constructors when they still built tuples
# and GroupElements; witnesses name "generator #i", so order and entries
# must not move.

PINNED_GROUPS = [
    ("gl", {"n": 1, "q": 2}, "4f53cda18c2baa0c"),
    ("gl", {"n": 1, "q": 5}, "a504c2691cff8c46"),
    ("gl", {"n": 2, "q": 3}, "5cdf1870aafbb77e"),
    ("gl", {"n": 3, "q": 4}, "8ed45d94c03c42b2"),
    ("u", {"n": 3, "q": 4}, "ebf3e0d8b01ef10a"),
    ("sp", {"m": 1, "q": 3}, "789abf460aa06e8f"),
    ("sp", {"m": 2, "q": 3}, "83783543e9f58cee"),
    ("usp", {"m": 2, "q": 4}, "9e82e6157d309c38"),
    ("pk", {"m": 3, "k": 1, "q": 2}, "3f596091b9cf9ca5"),
    ("pk", {"m": 2, "k": 2, "q": 9}, "78f3cab15224bab1"),
    ("gk", {"m": 2, "k": 1, "q": 3}, "86a2a2f7b9d13143"),
    ("gk", {"m": 3, "k": 2, "q": 2}, "649defe871bdf683"),
    ("spstab", {"m": 2, "k": 1, "q": 3}, "049f51e58c8890be"),
    ("spstab", {"m": 3, "k": 2, "q": 2}, "aa9ccee1d4d91a81"),
    ("o3ex", {"q": 9}, "be3896eebb4dbbda"),
    ("o4ex", {"q": 4}, "1bcae9f184ab818d"),
]

PINNED_GLUINGS = [
    ({"kind": "hom", "q": 3, "m": 1, "n": 2, "g1": "gl", "g2": "u",
      "module": "full"}, "86913a3f6ed6c0fb"),
    ({"kind": "hom", "q": 4, "m": 2, "n": 1, "g1": "trivial",
      "g2": "trivial", "module": "subfield", "q_sub": 2}, "88bc6c1d19e14e85"),
    ({"kind": "hom", "q": 2, "m": 3, "n": 3, "g1": "pf", "g2": "pf",
      "module": "parabolic", "partition": [1, 2]}, "76bd8cc8ec098940"),
    ({"kind": "hom", "q": 3, "m": 2, "n": 2, "g1": "trivial",
      "g2": "trivial", "module": "scalar"}, "23e5e5774d3c76ba"),
    ({"kind": "diag", "q": 3, "m": 2, "n": 2, "g1": "u", "module": "full"},
     "710c10f2df1fa71f"),
    ({"kind": "thin", "p": 2, "r": 2}, "89c27d6b98acb6d6"),
    ({"kind": "thin", "p": 3, "r": 1}, "1f01401356772f13"),
    ({"kind": "singular", "q": 3}, "5c520fac32a9070f"),
    ({"kind": "singular", "q": 4}, "00b1bab08d3a5d64"),
]

PINNED_FAMILIES = [
    ("carlisle_kropholler", {"m": 1, "q": 3}, "789abf460aa06e8f"),
    ("carlisle_kropholler", {"m": 2, "q": 2}, "7c491fe2cec8fff4"),
    ("stab_sub", {"m": 2, "k": 1, "q": 2}, "c9ec74caab8d1f45"),
    ("sylow", {"m": 2, "q": 3}, "d558d2a87e24483e"),
    ("max_para", {"m": 2, "k": 1, "q": 2}, "c9ec74caab8d1f45"),
    ("eapg", {"m": 2, "q": 3}, "1170a542011906a3"),
    ("parabolic_gl", {"partition": (1, 2), "q": 3}, "a25a3bb2aaf351b0"),
    ("diag_cc", {"n": 2, "q": 3}, "23e5e5774d3c76ba"),
    ("fqexam", {"m": 1, "n": 2, "q": 2}, "9ff0ac886e506933"),
]


def generator_digest(G):
    assert G.generator_rows.dtype == np.int64
    return hashlib.sha256(
        json.dumps(G.generator_rows.tolist()).encode()).hexdigest()[:16]


def test_every_group_kind_is_pinned():
    assert {kind for kind, _, _ in PINNED_GROUPS} == set(checks.GROUP_KINDS)
    assert {params["kind"] for params, _ in PINNED_GLUINGS} == \
        {"hom", "diag", "thin", "singular"}
    assert {name for name, _, _ in PINNED_FAMILIES} == \
        set(invariants.FAMILY_BUILDERS)


@pytest.mark.parametrize("kind,params,digest", PINNED_GROUPS)
def test_group_generators_are_pinned(kind, params, digest):
    assert generator_digest(checks.build_group(kind, params)) == digest


@pytest.mark.parametrize("params,digest", PINNED_GLUINGS)
def test_gluing_generators_are_pinned(params, digest):
    assert generator_digest(build_gluing(params).realized) == digest


@pytest.mark.parametrize("name,params,digest", PINNED_FAMILIES)
def test_family_group_generators_are_pinned(name, params, digest):
    assert generator_digest(invariants.family(name, **params).group) == digest


def test_predicate_subset_generators_are_pinned():
    """The greedy generators of the two predicate subsets."""
    F3 = groups.build_field(3)
    gluing = singular_form_group(groups.FormSpec(
        "symmetric", F3, gram=((0, 0, 0), (0, 1, 0), (0, 0, 2))))
    assert generator_digest(gluing.realized) == "4ae80a6c9ee08d3c"
    space = VariableSpace(F3, ["x1", "x2", "x3"])
    S = groups.stabilizer_of_polynomial(groups.gl_group(3, F3).enumerate(),
                                        parse_polynomial(space, "x2^2 - x1*x3"))
    assert generator_digest(S) == "c4ed4ded394442fa"
