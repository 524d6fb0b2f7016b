import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modinvar.gfq import build_field
from modinvar.gluing import (BimoduleBasis, BimoduleClosureError, GluingGroup,
                             _extend_to_basis, diagonal_glue,
                             full_hom_module, glue,
                             parabolic_module, scalar_line_module,
                             semidirect_mul, singular_form_group,
                             subfield_elements, subfield_hom_module,
                             thin_glue_regular, zero_module)
from modinvar.groups import (FormSpec, GroupElement, MatrixGroup,
                             _index_dtype, _keys, form_preserved, gl_group,
                             trivial_group, unipotent_upper)
from modinvar.linalg import nullspace_field, rref_field, rref_mod_p
from modinvar.mvpoly import VariableSpace, parse_polynomial

F2 = build_field(2)
F3 = build_field(3)
F4 = build_field(2, 2)
F9 = build_field(3, 2)


def test_full_hom_module_dimensions():
    assert full_hom_module(1, 1, F2).fp_dim == 1
    assert full_hom_module(2, 2, F2).fp_dim == 4
    assert full_hom_module(2, 2, F2).module_order() == 16
    assert full_hom_module(1, 2, F4).fp_dim == 4  # 1*2*r with r = 2


def test_subfield_hom_module():
    M = subfield_hom_module(1, 1, 2, F4)
    assert M.fp_dim == 1
    mats = list(M.elements())
    assert len(mats) == 2
    assert all(mat[0][0] in (0, 1) for mat in mats)
    with pytest.raises(ValueError):
        subfield_hom_module(1, 1, 3, F4)


def greedy_subfield_basis(field, q_sub):
    """The F_p-basis loop `subfield_hom_module` ran: keep each subfield
    element, by index, that raises the F_p rank of those kept."""
    elems, r_sub = subfield_elements(field, q_sub)
    basis = []
    for a in elems:
        vectors = [field._digits(b) for b in basis + [a]]
        if len(rref_mod_p(np.array(vectors), field.p)[1]) > len(basis):
            basis.append(a)
        if len(basis) == r_sub:
            break
    return basis


@pytest.mark.parametrize("p,r,q_sub", [(2, 3, 2), (3, 2, 3), (2, 4, 4)])
def test_subfield_basis_is_the_greedy_choice(p, r, q_sub):
    field = build_field(p, r)
    M = subfield_hom_module(1, 1, q_sub, field)
    assert [mat[0][0] for mat in M.mats] == greedy_subfield_basis(field, q_sub)


def test_bimodule_independence_validation():
    with pytest.raises(ValueError):
        BimoduleBasis(F2, 1, 1, [((1,),), ((1,),)])


def test_glue_zero_module_is_direct_product():
    G1 = unipotent_upper(2, F2)
    G2 = unipotent_upper(2, F2)
    gluing = glue(G1, G2, zero_module(2, 2, F2))
    R = gluing.enumerate()
    assert R.order() == 4


def test_glue_trivial_factors_order2():
    G1 = trivial_group(F2, 1)
    G2 = trivial_group(F2, 1)
    gluing = glue(G1, G2, full_hom_module(1, 1, F2))
    R = gluing.enumerate()
    assert R.order() == 2
    mats = {g.matrix for g in R.elements}
    assert ((1, 0), (0, 1)) in mats and ((1, 1), (0, 1)) in mats


def test_u4_as_gluing_of_u2s():
    G1 = unipotent_upper(2, F2)
    G2 = unipotent_upper(2, F2)
    gluing = glue(G1, G2, full_hom_module(2, 2, F2))
    R = gluing.enumerate()
    assert R.order() == 64
    big = unipotent_upper(4, F2).enumerate()
    assert set(g.matrix for g in R.elements) == set(g.matrix for g in big.elements)


def test_gluing_order_formula():
    for field, G1, G2, M in [
        (F2, unipotent_upper(2, F2), unipotent_upper(2, F2), full_hom_module(2, 2, F2)),
        (F3, gl_group(1, F3), gl_group(1, F3), full_hom_module(1, 1, F3)),
        (F3, unipotent_upper(2, F3), trivial_group(F3, 1), full_hom_module(2, 1, F3)),
    ]:
        gluing = glue(G1, G2, M)
        R = gluing.enumerate()
        assert R.order() == G1.enumerate().order() * M.module_order() * \
            G2.enumerate().order()


def test_gluing_claimed_order_needs_known_factor_orders(monkeypatch):
    """Only an unknown factor order leaves the claimed order unset; any other
    error from a factor propagates."""
    M = zero_module(2, 2, F2)
    G1 = MatrixGroup(F2, 2, unipotent_upper(2, F2).generators)
    assert GluingGroup(G1, unipotent_upper(2, F2), M).realized.claimed_order is None
    assert diagonal_glue(G1, M).realized.claimed_order is None

    def broken_order():
        raise ZeroDivisionError("broken factor")

    G2 = unipotent_upper(2, F2)
    monkeypatch.setattr(G2, "order", broken_order)
    with pytest.raises(ZeroDivisionError):
        GluingGroup(unipotent_upper(2, F2), G2, M)
    with pytest.raises(ZeroDivisionError):
        diagonal_glue(G2, M)


def test_m_block_subgroup_is_normal():
    gluing = glue(unipotent_upper(2, F2), unipotent_upper(2, F2),
                  full_hom_module(2, 2, F2))
    R = gluing.enumerate()
    Msub = gluing.m_subgroup()
    mset = set(g.matrix for g in Msub.elements)
    for g in R.elements:
        ginv = g.inverse()
        for h in Msub.generators:
            conj = g * h * ginv
            assert conj.matrix in mset


def block_matrix(m, n, g1, phi, g2):
    """The block matrix [[g1, phi], [0, g2]] as a tuple of tuples, entry by
    entry: the oracle of `GluingGroup.blocks`."""
    top = [tuple(g1[i]) + tuple(phi[i]) for i in range(m)]
    return tuple(top + [(0,) * m + tuple(g2[i]) for i in range(n)])


def _m_block_keys(M):
    """Sorted keys of the blocks [[I, phi], [0, I]] listed over every phi of
    `M.elements()`, the enumeration the closure replaced."""
    id1 = tuple(tuple(int(i == j) for j in range(M.m)) for i in range(M.m))
    id2 = tuple(tuple(int(i == j) for j in range(M.n)) for i in range(M.n))
    blocks = [block_matrix(M.m, M.n, id1, phi, id2)
              for phi in M.elements().tolist()]
    return np.sort(_keys(np.array(blocks, dtype=_index_dtype(M.field))))


M_BLOCK_MODULES = {
    "hom-2x2-F2": full_hom_module(2, 2, F2),
    "hom-2x1-F3": full_hom_module(2, 1, F3),
    "hom-1x2-F4": full_hom_module(1, 2, F4),
    "hom-2x1-F9": full_hom_module(2, 1, F9),
    "subfield-1x2-F2-in-F4": subfield_hom_module(1, 2, 2, F4),
    "subfield-2x2-F3-in-F9": subfield_hom_module(2, 2, 3, F9),
    "scalar-2-F3": scalar_line_module(2, F3),
    "scalar-3-F4": scalar_line_module(3, F4),
    "scalar-2-F9": scalar_line_module(2, F9),
    "parabolic-11-F2": parabolic_module((1, 1), F2),
    "parabolic-12-F3": parabolic_module((1, 2), F3),
    "parabolic-11-F4": parabolic_module((1, 1), F4),
    "parabolic-11-F9": parabolic_module((1, 1), F9),
}


def scalar_module_elements(M):
    """The loop `BimoduleBasis.elements` ran: every F_p-combination of the
    basis in `itertools.product` order, summed entry by entry."""
    field = M.field
    for combo in itertools.product(range(field.p), repeat=M.fp_dim):
        acc = [[0] * M.n for _ in range(M.m)]
        for c, mat in zip(combo, M.mats.tolist()):
            acc = [[field.add(a, field.mul(b, c)) for a, b in zip(ra, rb)]
                   for ra, rb in zip(acc, mat)]
        yield tuple(map(tuple, acc))


@pytest.mark.parametrize("name", M_BLOCK_MODULES)
def test_module_elements_keep_the_scalar_order(name):
    M = M_BLOCK_MODULES[name]
    assert [tuple(map(tuple, e)) for e in M.elements().tolist()] == \
        list(scalar_module_elements(M))


@pytest.mark.parametrize("name", M_BLOCK_MODULES)
def test_module_membership_matches_the_rank_test(name):
    """The batched mask of `contains` against one F_p rank per matrix, on
    module elements and random matrices."""
    M = M_BLOCK_MODULES[name]
    field = M.field
    rng = random.Random(len(name))
    elements = M.elements()
    mats = np.concatenate([
        elements[[rng.randrange(len(elements)) for _ in range(10)]],
        np.array([rng.randrange(field.q) for _ in range(20 * M.m * M.n)])
        .reshape(20, M.m, M.n)])
    basis = field.digits(M.mats).reshape(M.fp_dim, -1)
    expected = [len(rref_mod_p(np.vstack([basis, field.digits(mat).reshape(
        1, -1)]), field.p)[1]) == M.fp_dim for mat in mats]
    assert M.contains(mats).tolist() == expected
    assert M.contains(mats[:10]).all()


@pytest.mark.parametrize("name", M_BLOCK_MODULES)
def test_m_subgroup_closure_matches_module_elements(name):
    M = M_BLOCK_MODULES[name]
    msub = GluingGroup(trivial_group(M.field, M.m),
                       trivial_group(M.field, M.n), M).m_subgroup()
    oracle = _m_block_keys(M)
    assert len(oracle) == M.module_order()
    assert msub.keys.dtype == oracle.dtype
    assert msub.keys.tobytes() == oracle.tobytes()


def test_gluing_keeps_its_subgroups():
    """The M-block and the G1 x G2 block are built once per gluing: later
    calls return the same, already closed, groups."""
    gluing = glue(unipotent_upper(2, F2), unipotent_upper(2, F2),
                  full_hom_module(2, 2, F2))
    msub = gluing.m_subgroup()
    factors = gluing.factor_subgroup().enumerate()
    assert gluing.m_subgroup() is msub and msub.order() == 16
    assert gluing.factor_subgroup() is factors and factors.order() == 4


@pytest.mark.parametrize("flavor", ["generic", "diagonal"])
def test_realized_generators_are_the_block_matrices(flavor):
    """Factor generators beside identities, then the module basis beside
    identities, in that order; a diagonal gluing pairs each generator of G
    with itself.  `triple` builds the same blocks."""
    G = gl_group(2, F3)
    M = scalar_line_module(2, F3)
    gluing = GluingGroup(G, G, M, flavor=flavor)
    eye, zero = ((1, 0), (0, 1)), ((0, 0), (0, 0))
    if flavor == "diagonal":
        blocks = [(g.matrix, zero, g.matrix) for g in G.generators]
    else:
        blocks = [(g.matrix, zero, eye) for g in G.generators] + \
            [(eye, zero, g.matrix) for g in G.generators]
    blocks += [(eye, phi, eye) for phi in M.mats.tolist()]
    assert [g.matrix for g in gluing.realized.generators] == \
        [block_matrix(2, 2, *block) for block in blocks]
    assert [gluing.triple(*block).matrix for block in blocks] == \
        [block_matrix(2, 2, *block) for block in blocks]


def test_semidirect_mul_matches_block_product_exhaustive():
    """All 64*64 products in U(2,F2) x_M U(2,F2)."""
    G1 = unipotent_upper(2, F2).enumerate()
    G2 = unipotent_upper(2, F2).enumerate()
    M = full_hom_module(2, 2, F2)
    gluing = glue(G1, G2, M)
    triples = [(a, phi, b) for a in G1.elements for phi in M.elements()
               for b in G2.elements]
    assert len(triples) == 64
    for t1 in triples:
        r1 = gluing.triple(*t1)
        for t2 in triples:
            prod = semidirect_mul(gluing, t1, t2)
            assert gluing.triple(*prod) == r1 * gluing.triple(*t2)


def test_semidirect_mul_identity_and_additive():
    G1 = unipotent_upper(2, F2).enumerate()
    M = full_hom_module(2, 2, F2)
    gluing = glue(G1, G1, M)
    e = G1.identity()
    phis = list(M.elements())
    ident = (e, phis[0], e)
    some = (G1.elements[1], phis[5], G1.elements[0])
    out = semidirect_mul(gluing, some, ident)
    assert gluing.triple(*out) == gluing.triple(*some)
    # (1, phi, 1)(1, phi', 1) = (1, phi + phi', 1)
    t = semidirect_mul(gluing, (e, phis[3], e), (e, phis[5], e))
    assert gluing.triple(*t) == gluing.triple(e, phis[3 ^ 5], e)


def test_semidirect_mul_sampled_q3():
    rng = random.Random(42)
    G1 = gl_group(1, F3).enumerate()
    G2 = unipotent_upper(2, F3).enumerate()
    M = full_hom_module(1, 2, F3)
    gluing = glue(G1, G2, M)
    phis = list(M.elements())
    for _ in range(500):
        t1 = (rng.choice(G1.elements), rng.choice(phis), rng.choice(G2.elements))
        t2 = (rng.choice(G1.elements), rng.choice(phis), rng.choice(G2.elements))
        prod = semidirect_mul(gluing, t1, t2)
        assert gluing.triple(*prod) == gluing.triple(*t1) * gluing.triple(*t2)


def test_closure_violation_reported():
    # G1 = GL_2(F_3) does not stabilize the single-matrix span {E_11}
    G1 = gl_group(2, F3)
    M = BimoduleBasis(F3, 2, 2, [((1, 0), (0, 0))])
    with pytest.raises(BimoduleClosureError, match="left action violates "
                       r"closure: generator #1 of GL2\(F3\) times basis "
                       "matrix #0$"):
        glue(G1, trivial_group(F3, 2), M)
    # E_22 g stays in the span, E_11 g leaves it for the first generator
    M = BimoduleBasis(F3, 2, 2, [((0, 0), (0, 1)), ((1, 0), (0, 0))])
    with pytest.raises(BimoduleClosureError, match="right action violates "
                       "closure: basis matrix #1 times generator #0 of "
                       r"GL2\(F3\)$"):
        glue(trivial_group(F3, 2), G1, M)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        glue(trivial_group(F2, 2), trivial_group(F2, 1),
             full_hom_module(1, 1, F2))


@pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (3, 1)])
def test_thin_glue_regular(p, r):
    field = build_field(p, r)
    gluing = thin_glue_regular(p, r, field)
    R = gluing.enumerate()
    size = p ** r
    assert R.n == size + 1
    assert R.order() == size * p ** size  # faithful: all triples distinct
    assert max(g.order() for g in R.elements) == p ** (r + 1)


def test_thin_glue_wrong_characteristic():
    with pytest.raises(ValueError):
        thin_glue_regular(2, 1, F3)


def test_parabolic_module_dimensions():
    assert parabolic_module([2], F2).fp_dim == 4
    assert parabolic_module([1, 1], F2).fp_dim == 3
    assert parabolic_module([1, 1], F3).module_order() == 27
    assert parabolic_module([1, 1, 1], F2).fp_dim == 6


def test_parabolic_module_closure_under_parabolic_group():
    # upper-triangular invertible matrices stabilize the flag
    field = F3
    M = parabolic_module([1, 1], field)
    gens = [GroupElement(field, ((1, 1), (0, 1))),
            GroupElement(field, ((2, 0), (0, 1))),
            GroupElement(field, ((1, 0), (0, 2)))]
    PF = MatrixGroup(field, 2, gens, name="P_F", claimed_order=12)
    gluing = glue(PF, PF, M)
    R = gluing.enumerate()
    assert R.order() == 12 * 27 * 12


def test_diagonal_glue_zero_module():
    G = gl_group(1, F3).enumerate()
    gluing = diagonal_glue(G, zero_module(1, 1, F3))
    R = gluing.enumerate()
    assert R.order() == 2


def test_diagonal_glue_gl1_full():
    G = gl_group(1, F3).enumerate()
    gluing = diagonal_glue(G, full_hom_module(1, 1, F3))
    assert gluing.enumerate().order() == 6


def test_diagonal_glue_scalar_line():
    """C_p on V_n + V_n with the scalar identity line."""
    p = 3
    field = F3
    n = 2
    # indecomposable Jordan block of size 2: x.g = x + (previous)
    g = GroupElement(field, ((1, 1), (0, 1)))
    G = MatrixGroup(field, n, [g], name="C3", claimed_order=p)
    M = scalar_line_module(n, field)
    gluing = diagonal_glue(G, M)
    R = gluing.enumerate()
    assert R.order() == p * p


def test_diagonal_closure_violation():
    field = F3
    g = GroupElement(field, ((1, 1), (0, 1)))
    G = MatrixGroup(field, 2, [g], name="C3", claimed_order=3)
    M = BimoduleBasis(field, 2, 2, [((0, 0), (1, 0))])
    with pytest.raises(BimoduleClosureError):
        diagonal_glue(G, M)
    # the scalar generator fixes E_11 under conjugation, the transvection
    # does not
    G = MatrixGroup(field, 2, [GroupElement(field, ((2, 0), (0, 1))), g])
    M = BimoduleBasis(field, 2, 2, [((1, 0), (0, 0)), ((0, 0), (1, 0))])
    with pytest.raises(BimoduleClosureError, match="conjugation closure "
                       "fails: generator #1, basis #0$"):
        diagonal_glue(G, M)


def _alternating_rank2_dim3(field):
    z = 0
    gram = ((z, z, z),
            (z, z, 1),
            (z, field.neg(1), z))
    return FormSpec("alternating", field, gram=gram)


def test_singular_alternating_f2():
    form = _alternating_rank2_dim3(F2)
    gluing = singular_form_group(form)
    R = gluing.enumerate()
    assert R.order() == 1 * 4 * 6  # |GL_1| * |M| * |Sp_2(F_2)|
    assert gluing.form is not None
    from modinvar.groups import form_preserved
    assert form_preserved(R.rows(), gluing.form).all()


def test_singular_alternating_f3():
    form = _alternating_rank2_dim3(F3)
    gluing = singular_form_group(form)
    R = gluing.enumerate()
    assert R.order() == 2 * 9 * 24
    from modinvar.groups import form_preserved
    assert form_preserved([g.matrix for g in R.generators], gluing.form).all()


def greedy_extension(field, vectors, dim):
    """The loop `_extend_to_basis` ran: append each standard vector, in
    index order, that keeps the columns independent."""
    basis = [list(v) for v in vectors]
    for j in range(dim):
        cand = [0] * dim
        cand[j] = 1
        trial = basis + [cand]
        if len(rref_field(trial, field)[1]) == len(trial):
            basis.append(cand)
        if len(basis) == dim:
            break
    return basis


@pytest.mark.parametrize("field,kind,gram", [
    (F2, "alternating", ((0, 0, 0), (0, 0, 1), (0, 1, 0))),
    (F3, "alternating", ((0, 0, 0), (0, 0, 1), (0, 2, 0))),
    (F3, "alternating", ((0, 1, 1), (2, 0, 0), (2, 0, 0))),
    (F4, "alternating", ((0, 0, 0, 0), (0, 0, 2, 3), (0, 2, 0, 3),
                         (0, 3, 3, 0))),
    (F3, "alternating", ((0, 0), (0, 0))),
    (F3, "symmetric", ((0, 0, 0), (0, 1, 0), (0, 0, 2))),
    (F9, "symmetric", ((1, 3, 4), (3, 0, 0), (4, 0, 0)))])
def test_extend_to_basis_is_the_greedy_choice(field, kind, gram):
    """On the radicals `singular_form_group` extends."""
    form = FormSpec(kind, field, gram=gram)
    radical = nullspace_field(form.polar_gram(), field)
    assert len(radical)
    assert _extend_to_basis(field, radical, form.dim).tolist() == \
        greedy_extension(field, radical.tolist(), form.dim)


def test_singular_zero_form_gives_gl():
    gram = tuple(tuple(0 for _ in range(2)) for _ in range(2))
    form = FormSpec("alternating", F3, gram=gram)
    gluing = singular_form_group(form)
    assert gluing.enumerate().order() == 48  # GL_2(F_3)


def test_singular_nondegenerate_rejected():
    from modinvar.groups import symplectic_j
    form = FormSpec("alternating", F3, gram=symplectic_j(1, F3))
    with pytest.raises(ValueError):
        singular_form_group(form)


def test_singular_symmetric_odd_char():
    """Degenerate symmetric form of rank 2 on dim 3 over F_3."""
    gram = ((0, 0, 0), (0, 1, 0), (0, 0, 2))
    form = FormSpec("symmetric", F3, gram=gram)
    gluing = singular_form_group(form)
    R = gluing.enumerate()
    # |GL_1| * q^2 * |O_2(F_3)| for this form
    o2 = len(gluing.G2.elements)
    assert R.order() == 2 * 9 * o2
    from modinvar.groups import form_preserved
    assert form_preserved([g.matrix for g in R.generators], gluing.form).all()


@pytest.mark.parametrize("q,text,order,isometries", [
    (3, "x1^2 + x2^2", 144, 8),
    (3, "x1^2 - x2^2", 72, 4),
    (5, "x1*x2", 800, 8),
    (5, "x1^2 + 2*x2^2", 1200, 12)])
def test_singular_quadratic_forms(q, text, order, isometries):
    """Quadratic forms in x1, x2, x3 with the radical spanned by e3: the
    quotient form is the restriction to the complement, whose isometries
    G2 are filtered out of GL_2."""
    field = build_field(q)
    space = VariableSpace(field, ["x1", "x2", "x3"])
    gluing = singular_form_group(FormSpec(
        "quadratic", field, quadratic=parse_polynomial(space, text)))
    assert len(gluing.G2.elements) == isometries
    assert gluing.enumerate().order() == order
    assert gluing.form.kind == "quadratic"
    assert form_preserved(gluing.realized.generator_rows, gluing.form).all()


def test_singular_quadratic_form_off_the_radical_is_refused():
    """x1 x2 + x3^2 over F_2: its polar form has radical e3, where the form
    is 1, so it does not descend to the quotient."""
    space = VariableSpace(F2, ["x1", "x2", "x3"])
    form = FormSpec("quadratic", F2,
                    quadratic=parse_polynomial(space, "x1*x2 + x3^2"))
    with pytest.raises(ValueError, match="does not vanish on the radical"):
        singular_form_group(form)


@pytest.mark.parametrize("gram,order,isometries", [
    (((0, 0), (0, 1)), 36, 3),
    (((0, 0, 0), (0, 0, 1), (0, 1, 0)), 864, 18),
    (((1, 3), (2, 1)), 36, 3)])
def test_singular_hermitian_forms(gram, order, isometries):
    """((1, 3), (2, 1)) is u* u for u = (1, 3): its radical (1, 2) is not
    fixed by the twist, so the Gram matrix moves by the twisted
    congruence."""
    gluing = singular_form_group(FormSpec("hermitian", F4, gram=gram))
    assert len(gluing.G2.elements) == isometries
    assert gluing.enumerate().order() == order
    assert form_preserved(gluing.realized.generator_rows, gluing.form).all()


@st.composite
def singular_hermitian_grams(draw):
    """A singular hermitian Gram matrix over GF(4) or GF(9) of size 2 or 3:
    twist(A)^T H A for a random A and a random hermitian H of smaller rank
    (its last rows and columns zero), formed entry by entry."""
    field = draw(st.sampled_from([F4, F9]))
    dim = draw(st.integers(2, 3))
    rank = draw(st.integers(0, dim - 1))
    entry = st.integers(0, field.q - 1)
    half = field.p ** (field.r // 2)
    fixed = [a for a in range(field.q) if field.pow(a, half) == a]
    H = [[0] * dim for _ in range(dim)]
    for i in range(rank):
        H[i][i] = draw(st.sampled_from(fixed))
        for j in range(i + 1, rank):
            H[i][j] = draw(entry)
            H[j][i] = field.pow(H[i][j], half)
    A = [[draw(entry) for _ in range(dim)] for _ in range(dim)]
    gram = [[0] * dim for _ in range(dim)]
    for i, j, k, l in itertools.product(range(dim), repeat=4):
        term = field.mul(field.mul(field.pow(A[k][i], half), H[k][l]),
                         A[l][j])
        gram[i][j] = field.add(gram[i][j], term)
    return field, gram


@settings(max_examples=30, deadline=None)
@given(singular_hermitian_grams())
def test_singular_hermitian_forms_realize(case):
    """Every singular hermitian form realizes, and its generators preserve
    the moved form stored on the gluing, whose radical block is zero."""
    field, gram = case
    gluing = singular_form_group(FormSpec("hermitian", field, gram=gram))
    m = gluing.m
    assert not gluing.form.gram[:m].any() and not gluing.form.gram[:, :m].any()
    assert form_preserved(gluing.realized.generator_rows, gluing.form).all()
