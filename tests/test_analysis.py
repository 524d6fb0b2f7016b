import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from modinvar import analysis, checks, mvpoly
from modinvar.gfq import build_field
from modinvar.analysis import (HilbertClaim, SymmetricPowers, TranslationSums,
                               _shift_basis, _translation_structure,
                               VerificationReport,
                               degree_product_check, hilbert_check,
                               identity_suite, invariant_dimension,
                               principal_transfer_check,
                               transfer, transfer_factorization_check,
                               transfer_image_basis, transfer_image_degree,
                               u4_gluing)
from modinvar.checks import run_check
from modinvar.gluing import full_hom_module, glue, zero_module
from modinvar.groups import (BudgetExceeded, GroupElement, MatrixGroup,
                             gl_group, mat_mul, p_k_subgroup, trivial_group,
                             unipotent_upper, usp_group)
from modinvar.invariants import dickson_in, family, xi
from modinvar.linalg import rref_mod_p
from modinvar.mvpoly import (Polynomial, VariableSpace, gluing_space,
                             monomials_of_degree)

F2 = build_field(2)
F3 = build_field(3)


def is_invariant(f, group):
    """Whether every generator of the group fixes f."""
    return all(f.act(g) == f for g in group.generators)


def loop_transfer(f, group):
    """Tr(f) as the sum of f.substitute({x_i: row i of g}) over the
    group's index rows: the per-element loop that `transfer` replaced, kept
    as its oracle."""
    xs = f.space.variables()
    acc = f.space.zero()
    for g in group.rows().tolist():
        acc = acc + f.substitute({
            name: sum((x.scale(c) for x, c in zip(xs, row)), f.space.zero())
            for name, row in zip(f.space.names, g)})
    return acc


TRANSFER_FIELDS = [F2, F3, build_field(2, 2), build_field(5),
                   build_field(2, 3), build_field(3, 2)]


@st.composite
def transfer_cases(draw):
    """A group of at most 300 elements from 1-2 upper or lower
    unitriangular or monomial generators in dimension 1-3, and a polynomial
    whose exponents reach p^2."""
    field = draw(st.sampled_from(TRANSFER_FIELDS))
    p, q = field.p, field.q
    n = draw(st.integers(1, 3))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["upper", "lower", "monomial"]))
        g = np.eye(n, dtype=np.int64)
        if kind == "monomial":
            g = g[draw(st.permutations(range(n)))] * np.array(
                [draw(st.integers(1, q - 1)) for _ in range(n)])[:, None]
        else:
            for i, j in itertools.combinations(range(n), 2):
                g[(i, j) if kind == "upper" else (j, i)] = \
                    draw(st.integers(0, q - 1))
        gens.append(g)
    try:
        G = MatrixGroup(field, n, gens).enumerate(300)
    except BudgetExceeded:
        assume(False)
    sp = VariableSpace(field, [f"x{i}" for i in range(n)])
    exponent = st.sampled_from([0, 1, 2, p, p * p, p * p + 1])
    f = Polynomial(sp, draw(st.dictionaries(st.tuples(*[exponent] * n),
                                            st.integers(1, q - 1),
                                            max_size=5)))
    return G, f


@settings(max_examples=80, deadline=None)
@given(transfer_cases(), st.sampled_from([5, mvpoly.NUMPY_CHUNK]))
def test_transfer_matches_the_substitution_loop(case, chunk):
    """The kernel, a block of elements per call, sums f.g over the group as
    the per-element substitution loop does, small chunks (and so many
    blocks) included."""
    G, f = case
    expected = loop_transfer(f, G)
    with mock.patch.object(mvpoly, "NUMPY_CHUNK", chunk):
        assert transfer([f], G)[0] == expected


@pytest.mark.parametrize("make", [
    lambda: gl_group(2, build_field(5)),
    lambda: gl_group(2, build_field(2, 2)),
    lambda: unipotent_upper(3, build_field(3, 2)),
])
def test_action_memory_stays_in_blocks(monkeypatch, make):
    """The transfer of f, the transfer image of degree 4 without a
    translation structure and `fixed_by` tag the terms with a block of
    elements at a time: no `_act_packed` call gets more than NUMPY_CHUNK
    tagged terms (each has fewer than NUMPY_CHUNK terms), and no array
    `_flat_rows` forms from them is larger, while the results are those of
    one block and of the per-element loop."""
    G = make().enumerate()
    field, n = G.field, G.n
    sp = VariableSpace(field, [f"x{i}" for i in range(n)])
    f = Polynomial(sp, {(i, 2 * i) + (1,) * (n - 2): 1 + i % (field.q - 1)
                        for i in range(1, min(field.q, 6))})
    stable = sp.variables()[0] ** field.q
    rows = G.rows()
    image = transfer_image_degree(G, sp, 4)[1].tolist()
    fixed = [[f.act(g) == f for g in rows],
             [stable.act(g) == stable for g in rows]]
    assert mvpoly.fixed_by([f, stable], rows).tolist() == fixed
    inputs, formed = [], []
    kernel, flat_rows = mvpoly._act_packed, mvpoly._flat_rows

    def spy_kernel(space, exps, *args):
        inputs.append(exps.size)
        return kernel(space, exps, *args)

    def spy_flat_rows(*args):
        out = flat_rows(*args)
        formed.append(max(a.size for a in out))
        return out

    chunk = 32
    monkeypatch.setattr(mvpoly, "NUMPY_CHUNK", chunk)
    monkeypatch.setattr(mvpoly, "_act_packed", spy_kernel)
    monkeypatch.setattr(mvpoly, "_flat_rows", spy_flat_rows)
    assert transfer([f], G)[0] == loop_transfer(f, G)
    assert transfer_image_degree(G, sp, 4)[1].tolist() == image
    assert mvpoly.fixed_by([f, stable], rows).tolist() == fixed
    assert len(inputs) > 3 * len(rows) * len(f) // chunk
    assert max(inputs) <= chunk * n
    assert max(formed) <= chunk * n


def test_action_compatibility_memory_stays_in_blocks(monkeypatch):
    """Exhaustive `action_compatibility` over GL2(F3) acts on a block of
    jobs at a time, f.g and then (f.g).h for all 2304 pairs per polynomial:
    no `_act_packed` call gets more than NUMPY_CHUNK tagged terms (each
    f.g has fewer), each block is compared with its targets as it comes,
    and the reports, the passing one and the failing one of the swapped
    products, are those of the unpatched run."""
    params = {"q": 3, "n": 2, "samples": 3}
    matmul = checks.index_matmul

    def reports():
        passing = run_check("action_compatibility", params)
        with mock.patch.object(checks, "index_matmul",
                               lambda field, a, b: matmul(field, b, a)):
            failing = run_check("action_compatibility", params)
        return [(r.status, r.witness) for r in (passing, failing)]

    expected = reports()
    assert [status for status, _ in expected] == ["pass", "fail"]
    inputs, compared = [], []
    kernel, differ = mvpoly._act_packed, mvpoly._differ

    def spy_kernel(space, exps, *args):
        inputs.append(exps.size)
        return kernel(space, exps, *args)

    def spy_differ(*args):
        compared.append(args)
        return differ(*args)

    chunk = 64
    monkeypatch.setattr(mvpoly, "NUMPY_CHUNK", chunk)
    monkeypatch.setattr(mvpoly, "_act_packed", spy_kernel)
    monkeypatch.setattr(mvpoly, "_differ", spy_differ)
    assert reports() == expected
    assert max(inputs) <= chunk * params["n"]
    assert len(compared) > 2 * params["samples"] * 48 ** 2 // chunk


def test_transfer_trivial_group():
    sp = gluing_space(F2, 1, 1)
    f = sp.variable("y1") ** 2 + sp.variable("x1")
    assert transfer([f], trivial_group(F2, 2))[0] == f


def test_transfer_of_constant_vanishes_for_p_group():
    gl = u4_gluing(2)
    msub = gl.m_subgroup()
    sp = gluing_space(F2, 2, 2)
    assert transfer([sp.one()], msub)[0].is_zero()


@pytest.mark.parametrize("group, exponents", [
    (lambda: u4_gluing(3).m_subgroup(), [(8, 8, 0, 0), (8, 8, 1, 2),
                                         (2, 1, 0, 1)]),
    (lambda: gl_group(2, F3).enumerate(), [(6, 8), (2, 6), (1, 2)]),
], ids=["u4-M-subgroup-F3", "GL2(F3)"])
def test_transfer_over_rows_is_the_sum_over_elements(group, exponents):
    """`transfer` acts by the index rows; the reference sums f.g over the
    GroupElement list."""
    G = group()
    sp = VariableSpace(F3, [f"z{i}" for i in range(1, G.n + 1)])
    for f in [sp.monomial(e) for e in exponents] + \
            [sp.monomial(exponents[0]) + sp.monomial(exponents[1], 2)]:
        expected = sp.zero()
        for g in G.elements:
            expected = expected + f.act(g)
        assert transfer([f], G)[0] == expected
    assert not expected.is_zero()


def test_transfer_1x1_example():
    gl = glue(trivial_group(F2, 1), trivial_group(F2, 1),
              full_hom_module(1, 1, F2))
    sp = gluing_space(F2, 1, 1)
    y1, x1 = sp.variables()
    tr = transfer([y1], gl.m_subgroup())[0]
    assert tr == x1  # (y1) + (y1 + x1)
    assert x1.divides(tr)


def test_transfer_equivariance_and_linearity():
    gl = u4_gluing(2)
    msub = gl.m_subgroup()
    sp = gluing_space(F2, 2, 2)
    rng = random.Random(5)
    for _ in range(6):
        e = tuple(rng.randrange(3) for _ in range(4))
        f = sp.monomial(e)
        tf = transfer([f], msub)[0]
        assert is_invariant(tf, msub)
        g = rng.choice(msub.elements)
        assert transfer([f.act(g)], msub)[0] == tf


def test_transfer_factorization_trivial_and_random():
    gl = u4_gluing(2)
    sp = gluing_space(F2, 2, 2)
    assert transfer_factorization_check([sp.one()], gl).passed
    rng = random.Random(11)
    polys = [sp.monomial(tuple(rng.randrange(3) for _ in range(4)))
             for _ in range(5)]
    assert transfer_factorization_check(polys, gl).passed


def test_transfer_product_splits_over_factors():
    """Tr over the block product group sends f(y) h(x) to the product of the
    factor transfers."""
    gl = u4_gluing(2)
    factors = gl.factor_subgroup().enumerate()
    sp = gluing_space(F2, 2, 2)
    y1, y2, x1, x2 = (sp.variable(v) for v in ("y1", "y2", "x1", "x2"))
    g1_block = glue(unipotent_upper(2, F2), trivial_group(F2, 2),
                    zero_module(2, 2, F2)).realized.enumerate()
    g2_block = glue(trivial_group(F2, 2), unipotent_upper(2, F2),
                    zero_module(2, 2, F2)).realized.enumerate()
    for f, h in [(y1 * y2, x1), (y1 ** 2, x1 * x2), (y2 ** 3, x2 ** 2)]:
        lhs = transfer([f * h], factors)[0]
        rhs = transfer([f], g1_block)[0] * transfer([h], g2_block)[0]
        assert lhs == rhs


def test_transfer_factorization_zero_module():
    gl = glue(unipotent_upper(2, F2), unipotent_upper(2, F2),
              zero_module(2, 2, F2))
    sp = gluing_space(F2, 2, 2)
    assert transfer_factorization_check(
        [sp.variable("y1") * sp.variable("x1")], gl).passed


def translations_f3():
    """y1 -> y1 + x1 and y2 -> y2 + x2 over F3 (order 9), whose transfer
    image starts at degree 4, where the u4 M-subgroup's starts at 16."""
    gens = []
    for i, j in ((0, 2), (1, 3)):
        mat = [[int(a == b) for b in range(4)] for a in range(4)]
        mat[i][j] = 1
        gens.append(GroupElement(F3, tuple(map(tuple, mat))))
    return MatrixGroup(F3, 4, gens).enumerate()


def test_transfer_image_fast_path_matches_general():
    """Every degree of a transfer image with shared translation sums equals
    a fresh structured degree and the unstructured transfer, polynomials
    and reduced rows alike.  Over F3 the u4 M-subgroup's image is zero up
    to degree 16, so a smaller translation group is taken as well."""
    cases = [(F2, u4_gluing(2).m_subgroup()), (F3, u4_gluing(3).m_subgroup()),
             (F3, translations_f3())]
    for field, msub in cases:
        sp = gluing_space(field, 2, 2)
        image = transfer_image_basis(msub, sp, 8, m_split=2)
        assert sorted(image.bases) == sorted(image.reduced) == list(range(9))
        for d in range(9):
            shared = [f._terms for f in image.bases[d]]
            assert len(shared) == len(image.reduced[d])
            fresh, fresh_rows = transfer_image_degree(msub, sp, d, m_split=2)
            assert shared == [f._terms for f in fresh]
            slow, slow_rows = transfer_image_degree(msub, sp, d, m_split=None)
            assert shared == [f._terms for f in slow]
            assert image.reduced[d].tolist() == fresh_rows.tolist() \
                == slow_rows.tolist()
    assert image.bases[3] == [] and len(image.bases[4]) > 0  # translations_f3


def scalar_translation_structure(group, m, n):
    """The element loop `_translation_structure` replaced: the reference."""
    dim = m + n
    sets = [dict() for _ in range(m)]
    for g in group.elements:
        mat = g.matrix
        if any(mat[i][j] != (i == j) for i in range(m, dim)
               for j in range(dim)) or \
                any(mat[i][j] != (i == j) for i in range(m) for j in range(m)):
            return None
        for i in range(m):
            sets[i][mat[i][m:]] = True
    sizes = 1
    for s in sets:
        sizes *= len(s)
    if sizes != len(group.elements):
        return None
    return [sorted(s) for s in sets]


@st.composite
def split_groups(draw):
    """A group on m + n coordinates generated by translations [[I, T], [0, I]],
    some of them disturbed off the translation shape, and a split point."""
    field = draw(st.sampled_from([F2, F3, build_field(2, 2)]))
    dim = draw(st.integers(2, 4))
    entry = st.integers(0, field.q - 1)
    m = draw(st.integers(1, dim - 1))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        mat = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for i in range(m):
            for j in range(m, dim):
                mat[i][j] = draw(entry)
        if draw(st.integers(0, 4)) == 0:
            i = draw(st.integers(0, dim - 2))
            mat[i][i + 1] = draw(entry)
        gens.append(GroupElement(field, tuple(map(tuple, mat))))
    split = draw(st.integers(1, dim - 1))
    return MatrixGroup(field, dim, gens), split


@settings(max_examples=60, deadline=None)
@given(split_groups())
def test_translation_structure_matches_element_loop(case):
    G, split = case
    try:
        G.enumerate(cap=2000)
    except BudgetExceeded:
        return
    assert _translation_structure(G, split, G.n - split) == \
        scalar_translation_structure(G, split, G.n - split)


def test_translation_sums_memoize_factors():
    msub = u4_gluing(3).m_subgroup()
    sp = gluing_space(F3, 2, 2)
    sums = TranslationSums(msub, sp, 2)
    assert [len(s) for s in sums.structure] == [9, 9]
    assert sums.factor(0, 4) is sums.factor(0, 4)
    assert sums.orbit_sum((1, 3)) == sums.factor(0, 1) * sums.factor(1, 3)
    assert sums.orbit_sum(()) == sp.one()
    # each factor is the sum over the translations of its own variable
    x1, x2 = sp.variable("x1"), sp.variable("x2")
    for i, name in enumerate(("y1", "y2")):
        y = sp.variable(name)
        for b in range(18):
            direct = sp.zero()
            for c1, c2 in sums.structure[i]:
                direct = direct + (y + x1.scale(c1) + x2.scale(c2)) ** b
            assert sums.factor(i, b) == direct
        assert name in sums.factor(i, 17).variables_used()
    # not a translation group: the general path runs
    whole = u4_gluing(3).enumerate()
    assert TranslationSums(whole, sp, 2).structure is None


def test_transfer_image_with_keys_beyond_int64():
    """In 42 variables the packed keys of degree 2 reach 2 * 3^41 > 2^63,
    so they are Python ints; both paths still agree: Tr(y1 x) = x1 x for
    the translation y1 -> y1 + x1 over F2."""
    n = 42
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    mat[0][1] = 1
    G = MatrixGroup(F2, n, [GroupElement(F2, tuple(map(tuple, mat)))])
    G.enumerate()
    sp = gluing_space(F2, 1, n - 1)
    fast, rows = transfer_image_degree(G, sp, 2, m_split=1)
    with mock.patch.object(mvpoly, "_act_substitute",
                           wraps=mvpoly._act_substitute) as spy:
        slow, _ = transfer_image_degree(G, sp, 2)
    assert spy.call_count == 1  # 3^42 passes the packed key limit
    assert [f._terms for f in fast] == [f._terms for f in slow]
    x1 = sp.variable("x1")
    assert fast == [x1 * v for v in sp.variables()[1:]]
    assert rows.shape == (n - 1, n * (n + 1) // 2)


@st.composite
def translation_groups(draw, field):
    """A group of translations y_i -> y_i + (form in x_1..x_n) over field,
    each drawn generator moving one y, so that the y's move independently;
    and the factor degrees to ask for, in drawn order, up to
    3 p (p - 1) + 2, past the first gaps where Lucas' theorem makes every
    sum vanish."""
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        mat = [[int(i == j) for j in range(m + n)] for i in range(m + n)]
        i = draw(st.integers(0, m - 1))
        for j in range(m, m + n):
            mat[i][j] = draw(st.integers(0, field.q - 1))
        gens.append(GroupElement(field, tuple(map(tuple, mat))))
    top = 3 * field.p * (field.p - 1) + 2
    degrees = draw(st.lists(st.integers(0, top), min_size=1, max_size=4))
    return MatrixGroup(field, m + n, gens), m, degrees


@pytest.mark.parametrize("field", [
    F2, F3, build_field(5), build_field(7), build_field(2, 2),
    build_field(3, 2)], ids=["F2", "F3", "F5", "F7", "GF4", "GF9"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_closed_form_factor_sums_match_direct_powers(field, data):
    """`TranslationSums.factor` forms each sum from an F_p-basis of the
    shifts by the recursion over its basis forms; the reference forms each
    sum_u (y_i + u)^b with `**`.  Each basis of s forms spans p^s = |U_i|
    shifts."""
    G, m, degrees = data.draw(translation_groups(field))
    G.enumerate()
    sp = gluing_space(G.field, m, G.n - m)
    sums = TranslationSums(G, sp, m)
    for i, shifts in enumerate(sums.structure):
        assert G.field.p ** len(sums.bases[i]) == len(shifts)
        if len(shifts) > 2:  # no longer closed under addition
            assert _shift_basis(G.field, shifts[:-1]) is None
    xs = sp.variables()[m:]
    for b in degrees:
        for i in range(m):
            direct = sp.zero()
            for offsets in sums.structure[i]:
                form = sp.variables()[i]
                for x, c in zip(xs, offsets):
                    form = form + x.scale(c)
                direct = direct + form ** b
            assert sums.factor(i, b) == direct


def test_factor_sums_need_few_products():
    """Over F_7 the u4 M-subgroup shifts each y by 49 forms.  The running
    powers made 49 products per degree (4,116 up to degree 84); the
    closed form makes a product only per nonzero term of its recursion,
    and of the sums up to degree 84 only the one of degree 48 is nonzero."""
    msub = u4_gluing(7).m_subgroup()
    sums = TranslationSums(msub, gluing_space(msub.field, 2, 2), 2)
    with mock.patch.object(Polynomial, "__mul__", autospec=True,
                           side_effect=Polynomial.__mul__) as spy:
        live = [b for b in range(85) if sums.factor(0, b)]
    assert spy.call_count <= 200
    assert live == [48]


def test_transfer_image_divisibility_and_attainment():
    gl = u4_gluing(2)
    msub = gl.m_subgroup()
    sp = gluing_space(F2, 2, 2)
    tau = dickson_in(sp, ["x1", "x2"], 2) ** 2
    image = transfer_image_basis(msub, sp, 8, m_split=2)
    rep = principal_transfer_check(image, tau)
    assert rep.passed
    # image is zero strictly below the tau degree
    assert all(not image.bases[d] for d in range(tau.degree()))


def test_principal_check_wrong_tau_fails():
    gl = u4_gluing(2)
    msub = gl.m_subgroup()
    sp = gluing_space(F2, 2, 2)
    wrong = dickson_in(sp, ["x1", "x2"], 2)  # no square
    image = transfer_image_basis(msub, sp, 8, m_split=2)
    rep = principal_transfer_check(image, wrong)
    assert rep.status == "fail"
    assert rep.witness


def test_invariant_dimension_degree_zero_and_trivial():
    T = trivial_group(F2, 4)
    sp = gluing_space(F2, 2, 2)
    assert invariant_dimension(T, 0) == 1
    assert invariant_dimension(T, 3) == len(monomials_of_degree(sp, 3))


def test_invariant_dimension_p2_degree1():
    P2 = p_k_subgroup(2, 2, F2)
    assert invariant_dimension(P2, 1) == 2  # span of x1, x2


def test_invariant_dimension_gl2():
    # degree of first Dickson invariant is q^2 - q; below it only constants
    G = gl_group(2, F3)
    assert invariant_dimension(G, 1) == 0
    assert invariant_dimension(G, 6) == 1  # d_{1,2} in degree q^2 - q = 6


def test_hilbert_series_values():
    claim = HilbertClaim([1, 1])
    assert claim.series(4) == [1, 2, 3, 4, 5]
    ci = HilbertClaim([1, 1, 3, 4, 4], [6])
    assert ci.series(6)[:4] == [1, 2, 3, 5]
    assert HilbertClaim([2], [3]).consistent(5) == 3
    assert HilbertClaim([1, 2], [2]).consistent(8) is None


def test_hilbert_check_trivial_free_claim():
    T = trivial_group(F2, 2)
    rep = hilbert_check(HilbertClaim([1, 1]), T, 6)
    assert rep.passed


def test_hilbert_check_p2_true_and_perturbed():
    P2 = p_k_subgroup(2, 2, F2)
    good = hilbert_check(HilbertClaim([1, 1, 3, 4, 4], [6]), P2, 10)
    assert good.passed
    bad = hilbert_check(HilbertClaim([1, 1, 3, 4], [6]), P2, 10)
    assert bad.status == "fail" and "degree" in bad.witness


def test_degree_product_check():
    fam = family("fqexam", m=1, n=2, q=2)
    assert degree_product_check(fam).passed
    with pytest.raises(ValueError):
        degree_product_check(family("eapg", m=1, q=2))


def test_identity_suite_errors():
    with pytest.raises(ValueError):
        identity_suite("nope", {})
    with pytest.raises(ValueError):
        identity_suite("u_lem", {"m": 1})


def test_report_requires_witness_on_fail():
    with pytest.raises(ValueError):
        VerificationReport("x", {}, "fail")


def test_identity_spot_checks():
    assert identity_suite("u_lem", dict(m=1, k=1, i=0, j=0, q=2)).passed
    assert identity_suite("ck_sp4", dict(q=2)).passed
    assert identity_suite("wilkerson_d33", dict(p=2)).passed
    assert identity_suite("wilkerson_d33", dict(p=3)).passed
    assert identity_suite("xi31_gl1", dict(m=1, q=3)).passed
    assert identity_suite("utilde_rewrite", dict(m=1, q=2, j=1)).passed
    assert identity_suite("dickson_routes", dict(n=1, q=5)).passed
    # the span of no variables is {0}, so the literal product is T = d_0 T
    assert identity_suite("dickson_routes", dict(n=0, q=2)).passed
    assert identity_suite("dickson_routes", dict(n=0, q=3)).passed


def test_identity_nk_expansion_notes_for_extension_field():
    rep = identity_suite("nk_expansion", dict(k=1, m=1, q=4))
    assert rep.passed
    assert rep.notes and "q-power" in rep.notes


def test_xi_stabilizer_cross_check():
    """is_invariant agrees with the enumerated stabilizer computation."""
    G = gl_group(2, F3).enumerate()
    f = xi(1, 3, 1)
    fixed = [g for g in G.elements if f.act(g) == f]
    assert len(fixed) == 24
    assert is_invariant(f, trivial_group(F3, 2))


def _dense_invariant_dimension(group, d, space):
    """The dense route `invariant_dimension` replaced, kept here only as the
    oracle: each kernel row built with one `Polynomial.act` and one
    subtraction per monomial and generator, the rank taken by `rref_mod_p`
    on the F_p form (`FieldSpec.expand`) of the dense stack."""
    monos = monomials_of_degree(space, d)
    index = {e: k for k, e in enumerate(monos)}
    K = len(monos)
    field = space.field
    rows = np.zeros((K, K * len(group.generators)), dtype=np.int64)
    for k, e in enumerate(monos):
        base = space.monomial(e)
        for gi, g in enumerate(group.generators):
            for pe, c in (base.act(g) - base)._terms.items():
                rows[k, gi * K + index[pe]] = c
    _, pivots = rref_mod_p(field.expand(rows, np.int64), field.p)
    return K - len(pivots) // field.r


ORACLE_FIELDS = [build_field(2), build_field(3), build_field(2, 2),
                 build_field(5), build_field(2, 3), build_field(3, 2)]


@st.composite
def small_groups(draw):
    """1-3 random invertible generators P L U over one of GF(2), GF(3),
    GF(4), GF(5), GF(8), GF(9), in 1-4 variables: P a permutation, L unit
    lower and U upper triangular with a nonzero diagonal, their entries
    zero often enough that sparse generators occur."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    n = draw(st.integers(min_value=1, max_value=4))
    entry = st.integers(min_value=0, max_value=field.q - 1)
    unit = st.integers(min_value=1, max_value=field.q - 1)
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        perm = draw(st.permutations(range(n)))
        P = [[int(j == perm[i]) for j in range(n)] for i in range(n)]
        L = [[draw(entry) if j < i else int(i == j) for j in range(n)]
             for i in range(n)]
        U = [[draw(unit) if i == j else draw(entry) if j > i else 0
              for j in range(n)] for i in range(n)]
        gens.append(GroupElement(field,
                                 mat_mul(field, P, mat_mul(field, L, U))))
    return MatrixGroup(field, n, gens)


@settings(max_examples=100, deadline=None)
@given(small_groups(), st.integers(min_value=1, max_value=6))
def test_invariant_dimension_matches_dense_act_oracle(group, top):
    """Every degree up to `top` through one shared SymmetricPowers, and the
    top degree through a fresh one, against the dense oracle."""
    space = VariableSpace(group.field,
                          [f"z{i}" for i in range(1, group.n + 1)])
    powers = SymmetricPowers(group)
    for d in range(1, top + 1):
        assert invariant_dimension(group, d, powers) == \
            _dense_invariant_dimension(group, d, space)
    assert invariant_dimension(group, top) == \
        _dense_invariant_dimension(group, top, space)


def test_symmetric_powers_match_act():
    """Row k of S^d(g) is the image of monomial k under `Polynomial.act`;
    the values are coefficient indices."""
    F9 = build_field(3, 2)
    g = GroupElement(F9, ((1, 3, 0), (0, 4, 2), (5, 0, 1)))
    space = VariableSpace(F9, ["z1", "z2", "z3"])
    powers = SymmetricPowers(MatrixGroup(F9, 3, [g]))
    for d in (1, 2, 4, 3):
        size, [(rows, cols, values)] = powers.at(d)
        monos = [tuple(e) for e in powers._exps.tolist()]
        assert size == len(monos) == len(monomials_of_degree(space, d))
        assert monos == sorted(set(monos), reverse=True)
        image = {}
        for k, c, x in zip(rows.tolist(), cols.tolist(), values.tolist()):
            image.setdefault(k, {})[monos[c]] = x
        for k, e in enumerate(monos):
            assert image.get(k, {}) == space.monomial(e).act(g)._terms


def test_symmetric_powers_check_the_budget_first(monkeypatch):
    monkeypatch.setattr(analysis, "MAX_KERNEL_MONOMIALS", 10)
    powers = SymmetricPowers(unipotent_upper(3, F2))
    assert powers.at(3)[0] == 10
    with pytest.raises(BudgetExceeded,
                       match="degree 4 needs 15 monomials, over the 10"):
        powers.at(4)
    assert powers.degree == 3


def test_symmetric_powers_check_the_step_budget(monkeypatch):
    """A dense generator makes S^d(g) dense; the entry budget is checked on
    the parent degree before each step."""
    g = ((1, 2, 1, 1), (1, 1, 2, 1), (2, 1, 1, 1), (1, 1, 1, 2))
    G = MatrixGroup(F3, 4, [GroupElement(F3, g)])
    powers = SymmetricPowers(G)
    _, [(rows, _, _)] = powers.at(2)
    assert len(rows) == 76  # of the 100 entries of S^2(g)
    monkeypatch.setattr(analysis, "MAX_STEP_ENTRIES", 4 * 76 - 1)
    with pytest.raises(BudgetExceeded,
                       match="degree 3 needs 304 symmetric-power entries, "
                             "over the 303 budget"):
        invariant_dimension(G, 3, powers=powers)
    assert powers.degree == 2
    monkeypatch.setattr(analysis, "MAX_STEP_ENTRIES", 4 * 76)
    assert powers.at(3)[0] == 20 and powers.degree == 3

def test_sylow_stretch_pins():
    """Cheap pins of the two Sylow stretch checks (`hilbert_sylow`): the
    claimed series give 23 at degree 16 for Sp4(F3) and 33 at degree 10 for
    Sp6(F2)."""
    G = usp_group(2, F3)
    assert invariant_dimension(G, 16) == 23 == \
        HilbertClaim([4, 10, 1, 3, 9, 27], [12, 30]).series(16)[16]
    G = usp_group(3, F2)
    assert invariant_dimension(G, 10) == 33 == \
        HilbertClaim([3, 5, 9, 17, 1, 2, 4, 8, 16, 32],
                     [12, 18, 20, 34]).series(10)[10]
