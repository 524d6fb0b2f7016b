import contextlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from modinvar import groups
from modinvar.gfq import build_field
from modinvar.gluing import thin_glue_regular
from modinvar.groups import (BudgetExceeded, FormSpec, GroupElement,
                             _closure, _digit_matmul, _expand, _fp_dtype,
                             _index_dtype, _keeps_values,
                             _key_codec, _keys, _matmul_mod, _pk_assemble,
                             _row_codec,
                             _row_table, _working_field,
                             MatrixGroup, NotEnumeratedError,
                             element_orders,
                             field_from_order, form_preserved, gk_order,
                             gl_group, gl_order, identity_matrix,
                             index_matmul, mat_mul, minimal_generators,
                             o3_sylow_generators, o4_plus_sylow_generators,
                             p_k_subgroup,
                             parabolic_g_k, parabolic_gl_order, parse_matrix,
                             pk_order, sp_group, sp_order, stabilizer_of_polynomial,
                             stabilizer_sp, symplectic_j, trivial_group,
                             unipotent_order, unipotent_upper, usp_group,
                             usp_order, format_matrix)
from modinvar.mvpoly import (VariableSpace, fixed_by, parse_polynomial,
                             symplectic_space)


# -- scalar matrix helpers, the oracles of the batched kernel --

def anti_identity(k):
    return tuple(tuple(1 if i + j == k - 1 else 0 for j in range(k))
                 for i in range(k))


def mat_add(field, A, B):
    return tuple(tuple(field.add(a, b) for a, b in zip(ra, rb))
                 for ra, rb in zip(A, B))


def mat_neg(field, A):
    return tuple(tuple(field.neg(a) for a in row) for row in A)


def mat_scale(field, A, c):
    return tuple(tuple(field.mul(a, c) for a in row) for row in A)


def mat_transpose(A):
    return tuple(zip(*A))


def is_symplectic(field, matrix, J):
    J = tuple(map(tuple, np.asarray(J).tolist()))
    return mat_mul(field, mat_mul(field, mat_transpose(matrix), J), matrix) == J


def mat_det(field, A):
    """The determinant by Gaussian elimination in scalar arithmetic."""
    n = len(A)
    M = [list(row) for row in A]
    det = 1
    for col in range(n):
        pivot = next((row for row in range(col, n) if M[row][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            det = field.neg(det)
        det = field.mul(det, M[col][col])
        inv = field.inv(M[col][col])
        for row in range(col + 1, n):
            if M[row][col]:
                f = field.mul(M[row][col], inv)
                M[row] = [field.sub(a, field.mul(f, b))
                          for a, b in zip(M[row], M[col])]
    return det


F2 = build_field(2)
F3 = build_field(3)
F4 = build_field(2, 2)


def test_field_from_order():
    assert field_from_order(8).q == 8
    assert field_from_order(9).q == 9
    assert field_from_order(7).q == 7
    with pytest.raises(ValueError):
        field_from_order(12)


def test_trivial_group():
    G = trivial_group(F2, 3)
    assert G.order() == 1
    assert G.elements[0].is_identity()


def test_gl2_f2_order():
    G = gl_group(2, F2).enumerate()
    assert G.order() == 6 == gl_order(2, 2)


@pytest.mark.parametrize("n,field,expected", [
    (1, F3, 2), (1, F2, 1), (2, F3, 48), (2, F4, 180), (3, F2, 168),
])
def test_gl_orders(n, field, expected):
    assert gl_order(n, field.q) == expected
    assert gl_group(n, field).enumerate().order() == expected


def test_gl3_f3_order():
    G = gl_group(3, F3).enumerate()
    assert G.order() == gl_order(3, 3) == 11232


@pytest.mark.parametrize("n,field,expected", [
    (2, F3, 3), (3, F2, 8), (4, F2, 64), (3, F4, 64),
])
def test_unipotent_orders(n, field, expected):
    assert unipotent_order(n, field.q) == expected
    assert unipotent_upper(n, field).enumerate().order() == expected


def test_closure_determinism():
    gens = gl_group(2, F3).generators
    a = MatrixGroup(F3, 2, gens).enumerate()
    b = MatrixGroup(F3, 2, list(reversed(gens))).enumerate()
    assert [g.matrix for g in a.elements] == [g.matrix for g in b.elements]


def test_enumeration_cap():
    with pytest.raises(BudgetExceeded):
        gl_group(2, F3).enumerate(cap=10)


def test_not_enumerated_errors():
    G = gl_group(2, F3)
    with pytest.raises(NotEnumeratedError):
        _ = G.identity() in G


@pytest.mark.parametrize("m,field,expected", [
    (1, F2, 6), (1, F3, 24), (2, F2, 720), (2, F3, 51840),
])
def test_sp_orders(m, field, expected):
    assert sp_order(m, field.q) == expected
    G = sp_group(m, field).enumerate()
    assert G.order() == expected


def test_sp_generators_satisfy_symplectic_condition():
    for m, field in [(1, F2), (1, F3), (2, F2), (2, F3), (3, F2)]:
        J = symplectic_j(m, field)
        for g in sp_group(m, field).generators:
            assert is_symplectic(field, g.matrix, J)


def test_sp4_f3_claimed_order():
    assert sp_order(2, 3) == 51840
    assert sp_group(2, F3).order() == 51840  # claimed, not enumerated


@pytest.mark.parametrize("m,field,expected", [(2, F2, 16), (2, F3, 81)])
def test_usp_orders(m, field, expected):
    assert usp_order(m, field.q) == expected
    assert usp_group(m, field).enumerate().order() == expected


def test_usp_elements_upper_unipotent():
    G = usp_group(2, F2).enumerate()
    for g in G.elements:
        for i in range(4):
            assert g.matrix[i][i] == 1
            for j in range(i):
                assert g.matrix[i][j] == 0


@pytest.mark.parametrize("m,k,field,expected", [
    (1, 1, F2, 2), (1, 1, F3, 3), (2, 2, F3, 27), (2, 1, F3, 27), (2, 2, F2, 8),
])
def test_pk_orders(m, k, field, expected):
    assert pk_order(m, k, field.q) == expected
    G = p_k_subgroup(m, k, field).enumerate()
    assert G.order() == expected
    assert len(set(G.elements)) == expected


def test_pk_all_elements_symplectic():
    G = p_k_subgroup(2, 1, F3).enumerate()
    J = symplectic_j(2, F3)
    assert all(is_symplectic(F3, g.matrix, J) for g in G.elements)


# -- P_k from its free parameters, the enumeration the closure replaced --

def _rect_matrices(field, rows, cols):
    if rows == 0 or cols == 0:
        yield tuple(tuple(() if cols == 0 else (0,) * cols) for _ in range(rows))
        return
    for combo in itertools.product(range(field.q), repeat=rows * cols):
        yield tuple(tuple(combo[i * cols + j] for j in range(cols))
                    for i in range(rows))


def _symmetric_matrices(field, k):
    coords = [(i, j) for i in range(k) for j in range(i, k)]
    for combo in itertools.product(range(field.q), repeat=len(coords)):
        S = [[0] * k for _ in range(k)]
        for (i, j), c in zip(coords, combo):
            S[i][j] = c
            S[j][i] = c
        yield tuple(map(tuple, S))


def _pk_particular_a(field, m, k, B1, B2):
    """Particular solution of A^T Q_k - Q_k A = B2^T Q B1 - B1^T Q B2."""
    Qk = anti_identity(k)
    if m == k:
        return tuple(tuple(0 for _ in range(k)) for _ in range(k))
    Qmk = anti_identity(m - k)
    S = mat_add(field,
                mat_mul(field, mat_mul(field, mat_transpose(B2), Qmk), B1),
                mat_neg(field, mat_mul(field, mat_mul(field, mat_transpose(B1), Qmk), B2)))
    if field.p != 2:
        half = field.inv(field.add(1, 1))
        return mat_scale(field, mat_mul(field, Qk, S), field.neg(half))
    # char 2: S is symmetric with zero diagonal; T = strict upper of S solves
    # T^T + T = S, then A = Q_k T.
    T = [[S[i][j] if j > i else 0 for j in range(k)] for i in range(k)]
    return mat_mul(field, Qk, tuple(map(tuple, T)))


def _pk_parametric_keys(m, k, field):
    """Sorted keys of every P_k element listed from B1, B2 and S, with
    A = A_particular(B1, B2) + Q_k S; each element is checked symplectic."""
    Qk = anti_identity(k)
    J = symplectic_j(m, field)
    mats = []
    for B1 in _rect_matrices(field, m - k, k):
        for B2 in _rect_matrices(field, m - k, k):
            Apart = _pk_particular_a(field, m, k, B1, B2)
            for S in _symmetric_matrices(field, k):
                A = mat_add(field, Apart, mat_mul(field, Qk, S))
                mats.append(_pk_assemble(
                    field, m, k, *(np.array(X, dtype=np.int64).reshape(1, *shape)
                                   for X, shape in ((B1, (m - k, k)),
                                                    (B2, (m - k, k)),
                                                    (A, (k, k)))))[0].tolist())
    assert all(is_symplectic(field, mat, J) for mat in mats)
    return np.sort(_keys(np.array(mats, dtype=_index_dtype(field))))


@pytest.mark.parametrize("m,k,field", [
    (1, 1, F2), (2, 1, F3), (2, 2, F3), (2, 1, F4), (3, 3, F3), (3, 2, F3),
])
def test_pk_closure_matches_parametric_enumeration(m, k, field):
    G = p_k_subgroup(m, k, field)
    assert not G.is_enumerated
    keys = G.enumerate().keys
    oracle = _pk_parametric_keys(m, k, field)
    assert len(oracle) == pk_order(m, k, field.q)
    assert keys.dtype == oracle.dtype
    assert keys.tobytes() == oracle.tobytes()


def test_pm_elementary_abelian():
    for m, field in [(2, F2), (2, F3)]:
        G = p_k_subgroup(m, m, field).enumerate()
        p = field.p
        for g in G.elements:
            if not g.is_identity():
                assert g.order() == p
        for a, b in itertools.product(G.elements[:8], repeat=2):
            assert a * b == b * a


def test_pk_nonabelian_for_small_k():
    G = p_k_subgroup(2, 1, F3).enumerate()
    assert any(a * b != b * a
               for a in G.elements for b in G.elements)


@pytest.mark.parametrize("m,k,field,expected", [
    (1, 1, F3, 6), (2, 2, F3, 1296), (2, 1, F2, 48), (2, 2, F2, 48),
])
def test_parabolic_orders(m, k, field, expected):
    assert gk_order(m, k, field.q) == expected
    G = parabolic_g_k(m, k, field).enumerate()
    assert G.order() == expected


def test_stabilizer_sp_orders():
    # Sp_2m(F_q)_{U_k} = Sp_(2m-2k) |x P_k
    G = stabilizer_sp(2, 1, F2).enumerate()
    assert G.order() == sp_order(1, 2) * pk_order(2, 1, 2)
    G = stabilizer_sp(2, 2, F3).enumerate()
    assert G.order() == 27  # = P_2


def test_parabolic_gl_order_formula():
    assert parabolic_gl_order([1, 1], 3) == 2 * 2 * 3
    assert parabolic_gl_order([2], 2) == gl_order(2, 2)
    assert parabolic_gl_order([1, 2], 2) == 1 * gl_order(2, 2) * 4


def test_stabilizer_of_xi1_in_gl2():
    """The stabilizer of xi_1 in GL_2(F_3) is Sp_2(F_3) of order 24."""
    sp = symplectic_space(F3, 1)
    y1, x1 = sp.variables()
    xi1 = y1 ** 3 * x1 - y1 * x1 ** 3
    G = gl_group(2, F3).enumerate()
    S = stabilizer_of_polynomial(G, xi1)
    assert S.order() == 24 == sp_order(1, 3)


def test_stabilizer_of_quadric_in_gl3():
    """Stabilizer of x2^2 - x1*x3 in GL_3(F_3) is O_3(F_3), order 2q(q^2-1)."""
    space = VariableSpace(F3, ["x1", "x2", "x3"])
    delta = parse_polynomial(space, "x2^2 - x1*x3")
    G = gl_group(3, F3).enumerate()
    S = stabilizer_of_polynomial(G, delta)
    assert S.order() == 48 == 2 * 3 * (3 ** 2 - 1)


def test_stabilizer_under_trivial_group():
    T = trivial_group(F3, 2)
    space = VariableSpace(F3, ["x1", "x2"])
    S = stabilizer_of_polynomial(T, space.variable("x1"))
    assert S.order() == 1


def test_stabilizer_is_subgroup():
    sp = symplectic_space(F2, 1)
    y1, x1 = sp.variables()
    xi1 = y1 ** 2 * x1 + y1 * x1 ** 2
    G = gl_group(2, F2).enumerate()
    S = stabilizer_of_polynomial(G, xi1)
    elems = set(S.elements)
    for a in S.elements:
        assert a.inverse() in elems
        for b in S.elements:
            assert a * b in elems


def test_form_preserved_identity_and_o3():
    space = VariableSpace(F3, ["x1", "x2", "x3"])
    delta = parse_polynomial(space, "x2^2 - x1*x3")
    form = FormSpec("quadratic", F3, quadratic=delta)
    assert form_preserved([identity_matrix(3)], form).tolist() == [True]
    for q in (3, 5):
        field = build_field(q)
        spc = VariableSpace(field, ["x1", "x2", "x3"])
        d = parse_polynomial(spc, "x2^2 - x1*x3")
        fm = FormSpec("quadratic", field, quadratic=d)
        mats = [((1, field.mul(2, c), field.mul(c, c)), (0, 1, c), (0, 0, 1))
                for c in range(field.q)]
        mats += o3_sylow_generators(field).tolist()
        assert form_preserved(mats, fm).all()


def test_form_preserved_o4_plus():
    for q in (3, 5):
        field = build_field(q)
        spc = VariableSpace(field, ["x1", "x2", "x3", "x4"])
        u = parse_polynomial(spc, "x2*x3 - x1*x4")
        fm = FormSpec("quadratic", field, quadratic=u)
        mats = [((1, c1, c2, field.mul(c1, c2)), (0, 1, 0, c2), (0, 0, 1, c1),
                 (0, 0, 0, 1)) for c1 in range(q) for c2 in range(q)]
        mats += o4_plus_sylow_generators(field).tolist()
        assert form_preserved(mats, fm).all()


def test_form_preserved_alternating():
    J = symplectic_j(1, F3)
    form = FormSpec("alternating", F3, gram=J)
    assert form_preserved([g.matrix for g in sp_group(1, F3).generators],
                          form).all()
    # transvections are symplectic in dim 2, a non-unit scalar block is not
    assert form_preserved([((1, 1), (0, 1)), ((2, 0), (0, 1))],
                          form).tolist() == [True, False]
    with pytest.raises(ValueError, match="dimension mismatch"):
        form_preserved([identity_matrix(3)], form)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("alternating", F3, ((0, 1), (2, 0))),
                        ("symmetric", build_field(5), ((1, 2), (2, 0))),
                        ("hermitian", F4, ((0, 1), (1, 0))),
                        ("hermitian", F4, ((1, 0), (0, 1))),
                        ("alternating", build_field(3, 2),
                         ((0, 1, 0, 0), (2, 0, 0, 0), (0, 0, 0, 5),
                          (0, 0, 7, 0)))]),
       st.randoms(use_true_random=False))
def test_form_preserved_matches_scalar_products(case, rnd):
    """The batched mask against A^T G A = G in scalar arithmetic, on the
    generators of the isometry group and random matrices."""
    kind, field, gram = case
    form = FormSpec(kind, field, gram=gram)
    n = len(gram)
    mats = [tuple(tuple(rnd.randrange(field.q) for _ in range(n))
                  for _ in range(n)) for _ in range(12)]
    if kind == "alternating":
        mats += [g.matrix for g in sp_group(n // 2, field).generators]
    twist = field.p ** (field.r // 2) if kind == "hermitian" else 1
    expected = [mat_mul(field, mat_mul(field, mat_transpose(
        tuple(tuple(field.pow(a, twist) for a in row) for row in A)), gram),
        A) == gram for A in mats]
    assert form_preserved(mats, form).tolist() == expected


def test_form_spec_validation():
    with pytest.raises(ValueError):
        FormSpec("alternating", F3, gram=((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        FormSpec("symmetric", F3, gram=((0, 1), (2, 0)))
    with pytest.raises(ValueError):
        FormSpec("hermitian", F3, gram=((1, 0), (0, 1)))  # odd r
    FormSpec("hermitian", F4, gram=((0, 1), (1, 0)))


@pytest.mark.parametrize("kind,field,gram,text", [
    ("alternating", F3, ((0, 1), (2, 0)), None),
    ("symmetric", F3, [[1, 0], [0, 2]], None),
    ("hermitian", F4, np.array([[0, 1], [1, 0]]), None),
    ("quadratic", F3, None, "x1^2 + x1*x2")])
def test_form_grams_are_index_arrays(kind, field, gram, text):
    """Whatever the Gram matrix is given as, `gram` and `polar_gram()` are
    (n, n) int64 index arrays; the polar form of a quadratic form is built
    from its terms."""
    quadratic = None
    if text is not None:
        quadratic = parse_polynomial(VariableSpace(field, ["x1", "x2"]), text)
    form = FormSpec(kind, field, gram=gram, quadratic=quadratic)
    grams = [form.polar_gram()] + ([form.gram] if gram is not None else [])
    for G in grams:
        assert isinstance(G, np.ndarray)
        assert G.dtype == np.int64 and G.shape == (2, 2)
    if text is not None:
        assert form.polar_gram().tolist() == [[2, 1], [1, 0]]
    else:
        assert form.gram.tolist() == np.asarray(gram).tolist()


def test_matrix_text_roundtrip():
    m = parse_matrix(F3, "1,2;0,1")
    assert m == ((1, 2), (0, 1))
    assert format_matrix(F3, m) == "1,2;0,1"
    m4 = parse_matrix(F4, "1,1+t;0,1")
    assert m4[0][1] == 3


def test_sylow_subgroup_of_o3():
    """The o3 generators enumerate to a group of order q."""
    for field in (F3, build_field(5)):
        gens = o3_sylow_generators(field)
        G = MatrixGroup(field, 3, gens).enumerate()
        assert G.order() == field.q


# -- the batched closure against the scalar reference --

def naive_closure(field, n, gens, cap):
    """Scalar breadth-first closure under right multiplication, one mat_mul
    per (element, generator) pair: the reference for MatrixGroup.enumerate."""
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    seen, frontier = {ident}, [ident]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(field, m, g)
                if prod not in seen:
                    seen.add(prod)
                    if len(seen) > cap:
                        raise BudgetExceeded(f"exceeds cap {cap}")
                    new.append(prod)
        frontier = new
    return sorted(seen)


def naive_order(field, m):
    """Scalar reference for element orders: repeated mat_mul until I."""
    ident = tuple(tuple(int(i == j) for j in range(len(m))) for i in range(len(m)))
    g, k = m, 1
    while g != ident:
        g = mat_mul(field, g, m)
        k += 1
    return k


# 13^16 < 2^63 < 16^16 < 17^16: at n = 4 the closure keys of GF(13) are
# int64 and those of GF(16) and GF(17) byte keys.
DIFF_FIELDS = [build_field(2), build_field(3), build_field(5), build_field(13),
               build_field(17), build_field(2, 2), build_field(2, 3),
               build_field(3, 2), build_field(2, 4)]
# Extension fields for generators with entries in the prime subfield, which
# close over F_p; GF(729) has 2-byte indices, F_3 1-byte ones.
SUBFIELD_FIELDS = [build_field(2, 2), build_field(2, 3), build_field(3, 2),
                   build_field(3, 6)]
DIFF_CAP = 400


@st.composite
def generator_sets(draw, fields=DIFF_FIELDS, subfields=SUBFIELD_FIELDS):
    """1-4 invertible matrices of one dimension 1-4 over one small field of
    `fields`, or of `subfields` with entries in the prime subfield.

    Unitriangular and monomial draws keep many of the groups below the cap;
    unrestricted draws mostly generate large groups and exercise the cap.
    "Prime subfield" sets take every entry below p over an extension
    field."""
    subfield = draw(st.booleans())
    field = draw(st.sampled_from(subfields if subfield else fields))
    n = draw(st.integers(min_value=1, max_value=4))
    top = field.p if subfield else field.q
    entry = st.integers(min_value=0, max_value=top - 1)
    unit = st.integers(min_value=1, max_value=top - 1)
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(["any", "unitriangular", "monomial"]))
        if kind == "monomial":
            perm = draw(st.permutations(range(n)))
            m = tuple(tuple(draw(unit) if j == perm[i] else 0 for j in range(n))
                      for i in range(n))
        else:
            m = tuple(tuple(draw(entry) if kind == "any" or j > i else int(i == j)
                            for j in range(n)) for i in range(n))
        assume(mat_det(field, m) != 0)
        gens.append(m)
    return field, n, gens


@settings(max_examples=120, deadline=None)
@given(generator_sets())
def test_batched_enumerate_matches_naive_closure(case):
    field, n, gens = case
    G = MatrixGroup(field, n, [GroupElement(field, m) for m in gens])
    try:
        expected = naive_closure(field, n, gens, DIFF_CAP)
    except BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            G.enumerate(DIFF_CAP)
        return
    assert [g.matrix for g in G.enumerate(DIFF_CAP).elements] == expected
    # the byte keys of the index rows, in the field's index dtype
    keys = _keys(np.array(expected, dtype=_index_dtype(field))
                 .reshape(len(expected), n, n))
    assert G.keys.dtype == keys.dtype and G.keys.tobytes() == keys.tobytes()
    sample = expected[:: max(1, len(expected) // 40)] + gens
    assert element_orders(field, sample) == \
        [naive_order(field, m) for m in sample]


GF729 = build_field(3, 6)
F17 = build_field(17)
CYCLE4 = ((0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))


def _closure_route(G):
    """(order of the field the closure multiplies over, key kind: "i" for
    int64 keys, "V" for byte keys, row-image step: "table" where F^n is
    small enough for per-generator tables, which the closure gathers from
    once the group it has found outgrows F^n, "index_matmul" where every
    product is formed in the loop) of G's generators."""
    gens = G.generator_rows
    work = _working_field(G.field, gens)
    encode_row, _, code = _row_codec(work, G.n)
    encode, _ = _key_codec(work, G.n, code)
    kind = encode(encode_row(np.eye(G.n, dtype=np.int64))[None]).dtype.kind
    table = _row_table(work, gens, math.inf)
    return work.q, kind, "index_matmul" if table is None else "table"


def _signed_cycles(field):
    """The signed cyclic shifts of dimension 4, a group of order 64."""
    minus = ((field.neg(1), 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
             (0, 0, 0, 1))
    return MatrixGroup(field, 4, [GroupElement(field, CYCLE4),
                                  GroupElement(field, minus)])


def _cycle_and_transvection(field, n):
    """The n-cycle and the transvection e_1 + e_2, generating GL_n(F_2)."""
    transvection = np.eye(n, dtype=np.int64)
    transvection[0, 1] = 1
    return MatrixGroup(field, n, [np.roll(np.eye(n, dtype=np.int64), 1, 0),
                                  transvection])


@pytest.mark.parametrize("make,route", [
    # entries below p descend to F_p; 2^81 > 2^63 for the thin gluing
    (lambda: thin_glue_regular(2, 3, build_field(2, 3)).realized,
     (2, "V", "table")),
    (lambda: _signed_cycles(GF729), (3, "i", "table")),
    (lambda: unipotent_upper(4, build_field(2, 4)),  # 16^16 keys
     (16, "V", "table")),
    (lambda: MatrixGroup(build_field(2, 4), 4, [GroupElement(
        build_field(2, 4), CYCLE4)]), (2, "i", "table")),
    # a prime field stays; GF(4)'s primitive element is index 2
    (lambda: sp_group(3, F2), (2, "i", "table")),
    (lambda: gl_group(2, F4), (4, "i", "table")),
    (lambda: gl_group(4, build_field(13)), (13, "i", "table")),
    # 3^10 rows fit the tables, 17^4 do not
    (lambda: thin_glue_regular(3, 2, build_field(3, 2)).realized,
     (3, "V", "table")),
    (lambda: _signed_cycles(F17), (17, "V", "index_matmul")),
    # F_2^16 is the largest row space with tables
    (lambda: _cycle_and_transvection(F2, 16), (2, "V", "table")),
    (lambda: _cycle_and_transvection(F2, 17), (2, "V", "index_matmul")),
    # (2^31 - 1)^3 > 2^63: the row codes are the rows' bytes
    (lambda: _cycle_and_transvection(build_field(2 ** 31 - 1), 3),
     (2 ** 31 - 1, "V", "index_matmul")),
])
def test_closure_route(make, route):
    assert _closure_route(make()) == route


@pytest.mark.parametrize("make", [
    # n |G| < q^n: no tables
    lambda: MatrixGroup(F2, 16, [np.roll(np.eye(16, dtype=np.int64), 1, 0)]),
    # the scalars of GF(16)'s primitive element: order 15, 16^4 rows
    lambda: MatrixGroup(build_field(2, 4), 4, [2 * np.eye(4, dtype=np.int64)]),
    lambda: _signed_cycles(build_field(3)),  # order 64 in F_3^4: 256 >= 81
    lambda: sp_group(2, F3),
    lambda: thin_glue_regular(2, 3, build_field(2, 3)).realized,
    lambda: _cycle_and_transvection(F2, 4),
])
def test_tables_wait_for_the_group_to_outgrow_the_row_space(monkeypatch, make):
    """The closure builds its tables once, at the first layer at which the
    group found so far has at least q^n / n elements, so exactly when
    n |G| >= q^n, and its keys are those of tables from the start."""
    G = make()
    calls = []
    row_table = groups._row_table

    def spy(work, gens, found):
        out = row_table(work, gens, found)
        calls.append((work.q ** G.n, found, out is not None))
        return out
    monkeypatch.setattr(groups, "_row_table", spy)
    keys = MatrixGroup(G.field, G.n, G.generator_rows).enumerate().keys
    size = calls[0][0]
    built = [found for _, found, table in calls if table]
    assert len(built) == (G.n * len(keys) >= size)
    assert all(G.n * found < size for _, found, table in calls if not table)
    assert [found for _, found, _ in calls] == \
        sorted(found for _, found, _ in calls)
    monkeypatch.setattr(groups, "_row_table", lambda work, gens, found:
                        row_table(work, gens, math.inf))
    forced = MatrixGroup(G.field, G.n, G.generator_rows).enumerate().keys
    assert forced.tobytes() == keys.tobytes()


@pytest.mark.parametrize("field", [F17, GF729])
def test_signed_cycles_match_naive_closure(field):
    """Byte keys over GF(17) at n = 4, and F_3 products stored as the 2-byte
    indices of GF(729)."""
    G = _signed_cycles(field).enumerate()
    gens = [g.matrix for g in G.generators]
    expected = naive_closure(field, 4, gens, DIFF_CAP)
    assert len(expected) == 64
    assert [g.matrix for g in G.elements] == expected
    assert G.rows().dtype == _index_dtype(field)
    sample = expected[::4] + gens
    assert element_orders(field, sample) == \
        [naive_order(field, m) for m in sample]


@pytest.mark.parametrize("make,chunk", [
    (lambda: sp_group(2, F2), 1024),
    (lambda: thin_glue_regular(2, 3, build_field(2, 3)).realized, 16),
    (lambda: _signed_cycles(F17), 64),
    # 2^12 rows fit the tables, but n |G| < 2^12 builds none
    (lambda: MatrixGroup(F2, 12, [np.roll(np.eye(12, dtype=np.int64), 1, 0)]),
     32),
])
def test_closure_memory_stays_in_chunks(monkeypatch, make, chunk):
    """No table build, chunk of row images or F_p product holds more than
    CHUNK_ENTRIES entries, or one row's images or products when those alone
    are more, and no decoded key or row code array and no chunk of the
    final conversion to byte keys holds more than CHUNK_ENTRIES entries or
    one matrix; with tables (once the group outgrows F^n) and with
    `TABLE_ROWS` 0, which forms the row images by `index_matmul` in the
    loop.  Where the loop built tables (F^n has at most TABLE_ROWS vectors
    and at most n |G|), the final conversion gathers the entries of the row
    codes from one table, decoded once, of all q^n row codes; otherwise it
    decodes the row codes of every key."""
    G = make()
    expected = MatrixGroup(G.field, G.n, G.generator_rows).enumerate().keys
    products, images, decoded, entries, converted = [], [], [], [], []
    matmul_mod, key_codec = groups._matmul_mod, groups._key_codec
    row_codec, matmul = groups._row_codec, groups.index_matmul
    keys_of = groups._keys

    def spy_matmul_mod(a, b, p):
        out = matmul_mod(a, b, p)
        products.append(out.size)
        return out

    def spy_index_matmul(field, a, b):
        out = matmul(field, a, b)
        images.append(out.size)
        return out

    def spy_key_codec(work, n, code):
        encode, decode = key_codec(work, n, code)

        def spy_encode(codes):
            images.append(codes.size)  # the gathered or formed row images
            return encode(codes)

        def spy_decode(keys):
            codes = decode(keys)
            decoded.append(codes.size)
            return codes
        return spy_encode, spy_decode

    def spy_row_codec(work, n):
        encode, decode, code = row_codec(work, n)

        def spy_decode(codes):
            rows = decode(codes)
            entries.append(rows.size)
            return rows
        return encode, spy_decode, code

    def spy_keys(rows):
        if rows.ndim == 3:  # a chunk of the final conversion
            converted.append(rows.size)
        return keys_of(rows)

    monkeypatch.setattr(groups, "CHUNK_ENTRIES", chunk)
    monkeypatch.setattr(groups, "_matmul_mod", spy_matmul_mod)
    monkeypatch.setattr(groups, "index_matmul", spy_index_matmul)
    monkeypatch.setattr(groups, "_key_codec", spy_key_codec)
    monkeypatch.setattr(groups, "_row_codec", spy_row_codec)
    monkeypatch.setattr(groups, "_keys", spy_keys)
    k, n = G.generator_rows.shape[:2]
    work = _working_field(G.field, G.generator_rows)
    for table_rows in (groups.TABLE_ROWS, 0):
        monkeypatch.setattr(groups, "TABLE_ROWS", table_rows)
        for spied in (products, images, decoded, entries, converted):
            spied.clear()
        keys = MatrixGroup(G.field, G.n, G.generator_rows).enumerate().keys
        assert keys.dtype == expected.dtype
        assert keys.tobytes() == expected.tobytes()
        assert max(products) <= max(chunk, k * n * work.r)
        assert max(images) <= max(chunk, k * n)
        assert max(converted) <= max(chunk, n * n)
        assert sum(converted) == len(keys) * n * n
        if work.q ** n <= min(table_rows, n * len(keys)):
            # the table of every row code's entries
            entries.remove(work.q ** n * n)
        else:
            assert sum(entries) >= len(keys) * n * n
        assert max(decoded + entries) <= max(chunk, n * n)


TABLE_FIELDS = [build_field(2), build_field(3), build_field(2, 2),
                build_field(5), build_field(2, 3), build_field(3, 2)]


@settings(max_examples=100, deadline=None)
@given(generator_sets(TABLE_FIELDS, TABLE_FIELDS[2:]),
       st.randoms(use_true_random=False))
def test_table_closure_matches_naive_closure_and_row_products(case, rnd):
    """Gathers from per-generator tables, built at the start or once the
    group outgrows F^n, give the keys of the scalar closure and of the
    `index_matmul` row images (`TABLE_ROWS` 0), and every route raises
    BudgetExceeded one below the order, as the scalar closure does; sampled
    table entries agree with `mat_mul` on the decoded rows."""
    field, n, gens = case
    rows = np.array(gens, dtype=np.int64).reshape(len(gens), n, n)
    work = _working_field(field, rows)
    encode, decode, _ = _row_codec(work, n)
    table = _row_table(work, rows, math.inf)
    assert table is not None and table.shape == (len(gens), work.q ** n)
    for v in rnd.sample(range(work.q ** n), min(20, work.q ** n)):
        vector = (tuple(decode(np.array(v)).tolist()),)
        for s, g in enumerate(gens):
            assert table[s, v] == encode(np.array(mat_mul(work, vector, g)))
    row_table = groups._row_table
    routes = [mock.patch.object(groups, "_row_table", lambda w, g, found:
                                row_table(w, g, math.inf)),
              contextlib.nullcontext(),
              mock.patch.object(groups, "TABLE_ROWS", 0)]
    try:
        expected = naive_closure(field, n, gens, DIFF_CAP)
    except BudgetExceeded:
        for route in routes:
            with route, pytest.raises(BudgetExceeded):
                _closure(field, n, rows, DIFF_CAP)
        return
    keys = _keys(np.array(expected, dtype=_index_dtype(field))
                 .reshape(len(expected), n, n))
    for route in routes:
        with route:
            got = _closure(field, n, rows, len(expected))
            assert got.dtype == keys.dtype and got.tobytes() == keys.tobytes()
            if len(expected) > 1:
                with pytest.raises(BudgetExceeded):
                    _closure(field, n, rows, len(expected) - 1)


@st.composite
def redundant_generator_sets(draw):
    """A set of `generator_sets` with one to three redundant generators put
    in: the identity or a repeated generator anywhere, a product of two
    generators after both, or a product of one to three generators before
    all of them, so that its stage runs and a later factor may be skipped
    as lying in the group of the others."""
    field, n, gens = draw(generator_sets())
    gens = list(gens)
    kinds = st.sampled_from(["identity", "repeat", "product", "word"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=3)):
        if kind == "identity":
            m, at = identity_matrix(n), draw(st.integers(0, len(gens)))
        elif kind == "repeat":
            m = draw(st.sampled_from(gens))
            at = draw(st.integers(0, len(gens)))
        elif kind == "product":
            i, j = (draw(st.integers(0, len(gens) - 1)) for _ in range(2))
            m = mat_mul(field, gens[i], gens[j])
            at = draw(st.integers(max(i, j) + 1, len(gens)))
        else:
            m, at = identity_matrix(n), 0
            for g in draw(st.lists(st.sampled_from(gens), min_size=1,
                                   max_size=3)):
                m = mat_mul(field, m, g)
        gens.insert(at, m)
    return field, n, gens


@settings(max_examples=100, deadline=None)
@given(redundant_generator_sets())
def test_coset_closure_with_redundant_generators_matches_naive_closure(case):
    """Skipped stages (the identity, repeats, products of earlier
    generators) and stages whose generator lies in the group of the later
    ones give the keys of the scalar closure, with tables as they come,
    with `TABLE_ROWS` 0 and with batches of a few cosets (`CHUNK_ENTRIES`
    16), and a cap one below the order raises."""
    field, n, gens = case
    rows = np.array(gens, dtype=np.int64).reshape(len(gens), n, n)
    routes = [contextlib.nullcontext(),
              mock.patch.object(groups, "TABLE_ROWS", 0),
              mock.patch.object(groups, "CHUNK_ENTRIES", 16)]
    try:
        expected = naive_closure(field, n, gens, DIFF_CAP)
    except BudgetExceeded:
        for route in routes:
            with route, pytest.raises(BudgetExceeded):
                _closure(field, n, rows, DIFF_CAP)
        return
    keys = _keys(np.array(expected, dtype=_index_dtype(field))
                 .reshape(len(expected), n, n))
    for route in routes:
        with route:
            got = _closure(field, n, rows, len(expected))
            assert got.dtype == keys.dtype and got.tobytes() == keys.tobytes()
            if len(expected) > 1:
                with pytest.raises(BudgetExceeded):
                    _closure(field, n, rows, len(expected) - 1)


def test_coset_closure_images_each_element_about_once(monkeypatch):
    """Closing Sp4(F3) (7 generators, 3 of them in the group of the
    others) images at most 2 n |G| rows for the cosets' blocks, plus the n
    rows of each coset representative's product with each of the k
    generators; a closure that multiplies every element by every generator
    images k n |G|."""
    G = sp_group(2, F3)
    k, n = G.generator_rows.shape[:2]
    # the number of cosets of each stage, [<g_0..g_i> : <g_0..g_(i-1)>]
    orders = [1] + [len(_closure(F3, n, G.generator_rows[:i + 1], 10 ** 6))
                    for i in range(k)]
    cosets = sum(b // a for a, b in zip(orders, orders[1:]) if b > a)
    imaged = []
    row_images = groups._row_images

    def spy(work, gens, table, which, rows):
        imaged.append(rows.size)
        return row_images(work, gens, table, which, rows)
    monkeypatch.setattr(groups, "_row_images", spy)
    order = len(MatrixGroup(F3, n, G.generator_rows).enumerate().keys)
    assert order == orders[-1] == 51840
    assert sum(imaged) <= 2 * n * order + n * k * cosets < k * n * order


@pytest.mark.parametrize("make,p", [
    (lambda: unipotent_upper(3, F2), 2),
    (lambda: unipotent_upper(4, F3), 3),
    (lambda: unipotent_upper(3, F4), 2),
    (lambda: unipotent_upper(3, build_field(3, 2)), 3),
    (lambda: usp_group(2, F3), 3),
    (lambda: p_k_subgroup(2, 1, build_field(5)), 5),
    (lambda: thin_glue_regular(2, 2, F4).realized, 2),
    (lambda: thin_glue_regular(2, 3, build_field(2, 3)).realized, 2),
    (lambda: thin_glue_regular(3, 1, F3).realized, 3),
    (lambda: trivial_group(F3, 2), 3),
])
def test_unipotent_bound_caps_element_orders(monkeypatch, make, p):
    """In characteristic p an n x n matrix of a p-group has order at most
    p^k, the least p-power with p^k >= n (the bound `check_thin_glue` rests
    on), however the elements are chunked; the thin gluings reach it."""
    G = make().enumerate()
    assert G.field.p == p
    rows = G.rows()
    orders = element_orders(G.field, rows)
    bound = p
    while bound < G.n:
        bound *= p
    assert max(orders) <= bound
    if G.name.endswith("|xE"):  # the thin gluings
        assert max(orders) == bound
    monkeypatch.setattr(groups, "CHUNK_ENTRIES", 64)
    assert element_orders(G.field, rows) == orders


@pytest.mark.parametrize("field", [F3, build_field(2, 3)])
def test_enumerate_cap_is_exact(field):
    order = len(gl_group(2, field).enumerate().elements)
    assert gl_group(2, field).enumerate(cap=order).order() == order
    with pytest.raises(BudgetExceeded):
        gl_group(2, field).enumerate(cap=order - 1)


def test_enumerate_without_generators():
    G = MatrixGroup(F3, 3, []).enumerate(cap=1)
    assert G.order() == 1
    assert G.elements[0].is_identity()


def test_enumerate_beyond_exact_float_range():
    """For a prime this large the F_p products are exact Python ints."""
    field = build_field(2 ** 31 - 1)
    gens = [((0, 1, 0), (0, 0, 1), (1, 0, 0)),
            ((field.neg(1), 0, 0), (0, 1, 0), (0, 0, 1))]
    G = MatrixGroup(field, 3, [GroupElement(field, m) for m in gens]).enumerate()
    assert [g.matrix for g in G.elements] == naive_closure(field, 3, gens, 100)
    assert element_orders(field, gens) == [3, 2]


def test_minimal_generators_match_naive_greedy():
    """The greedy choice is unchanged: re-closing with the scalar reference
    picks the same generators."""
    for G in (gl_group(2, F4).enumerate(), sp_group(1, F3).enumerate(),
              usp_group(2, F2).enumerate()):
        target = sorted(g.matrix for g in G.elements)
        closed, expected = {G.identity().matrix}, []
        for m in target:
            if m in closed:
                continue
            expected.append(m)
            closed = set(naive_closure(G.field, G.n, expected, len(target)))
            if len(closed) == len(target):
                break
        chosen = minimal_generators(G.field, G.rows())
        assert chosen.dtype == np.int64
        assert chosen.tolist() == [list(map(list, m)) for m in expected]


# -- array-backed groups against a tuple-set oracle --

@settings(max_examples=60, deadline=None)
@given(generator_sets(), st.randoms(use_true_random=False))
def test_array_backed_group_matches_tuple_set_oracle(case, rnd):
    field, n, gens = case
    try:
        oracle = naive_closure(field, n, gens, DIFF_CAP)
    except BudgetExceeded:
        return
    members = set(oracle)
    G = MatrixGroup(field, n, [GroupElement(field, m) for m in gens])
    assert G.elements is None and not G.is_enumerated
    with pytest.raises(NotEnumeratedError):
        G.rows()
    G.enumerate(DIFF_CAP)
    strangers = [tuple(tuple(rnd.randrange(field.q) for _ in range(n))
                       for _ in range(n)) for _ in range(20)]
    shuffled = [GroupElement(field, m, check=False) for m in oracle * 2]
    rnd.shuffle(shuffled)
    H = MatrixGroup(field, n, [], elements=shuffled, claimed_order=len(oracle))
    for K in (G, H):
        assert K.order() == len(K) == len(oracle)
        assert [g.matrix for g in K.elements] == oracle
        assert K.rows().tolist() == [list(map(list, m)) for m in oracle]
        for m in oracle + strangers:
            assert (m in K) == (GroupElement(field, m, check=False) in K) \
                == (m in members)
        assert ((0,) * (n + 1),) not in K
        assert tuple(tuple(field.q if i == j else 0 for j in range(n))
                     for i in range(n)) not in K
    with pytest.raises(AssertionError, match="claimed order"):
        MatrixGroup(field, n, [], elements=shuffled,
                    claimed_order=len(oracle) + 1)
    with pytest.raises(AssertionError, match="claimed order"):
        MatrixGroup(field, n, [GroupElement(field, m) for m in gens],
                    claimed_order=len(oracle) + 1).enumerate(DIFF_CAP)


def test_refuted_claim_is_refuted_again():
    """A wrong claimed order stores no keys: a second enumeration closes
    the group again and refutes the claim again, instead of returning the
    keys of the first."""
    G = MatrixGroup(F3, 2, gl_group(2, F3).generator_rows, claimed_order=47)
    for _ in range(2):
        with pytest.raises(groups.ClaimRefuted, match="48 != claimed order 47"):
            G.enumerate()
        assert not G.is_enumerated


def test_enumerated_group_over_the_cap_is_over_budget():
    """An enumerated group asked for again under a smaller cap raises the
    closure's own BudgetExceeded, and is returned as it is under a cap it
    fits."""
    with pytest.raises(BudgetExceeded) as fresh:
        gl_group(2, F3).enumerate(10)
    G = gl_group(2, F3).enumerate()
    with pytest.raises(BudgetExceeded) as again:
        G.enumerate(10)
    assert str(again.value) == str(fresh.value) == "GL2(F3) exceeds cap 10"
    assert G.enumerate(48) is G and G.order() == 48


@pytest.mark.parametrize("field", [F3, build_field(257)])
def test_dimension_zero_group(field):
    T = trivial_group(field, 0)
    assert T.order() == 1 and T.rows().shape == (1, 0, 0)
    assert [g.matrix for g in T.elements] == [()]
    assert () in T
    E = MatrixGroup(field, 0, [], elements=[T.identity()], claimed_order=1)
    assert E.order() == 1 and [g.matrix for g in E.elements] == [()]
    C = MatrixGroup(field, 0, [GroupElement(field, ())],
                    claimed_order=1).enumerate()
    assert C.keys.tobytes() == T.keys.tobytes() and C.keys.dtype == T.keys.dtype


# -- the stabilizer prefilter against the exact loop --
# The groups include some with q^n > |G|, where most points are moved.

def _prefilter_groups():
    out = []
    for field in (F2, F3, F4):
        out += [gl_group(2, field), unipotent_upper(2, field),
                unipotent_upper(3, field),
                MatrixGroup(field, 3, o3_sylow_generators(field))]
    out.append(gl_group(3, F2))
    return [G.enumerate() for G in out]


PREFILTER_GROUPS = _prefilter_groups()


@st.composite
def group_and_polynomial(draw):
    """A group from PREFILTER_GROUPS and a random polynomial on its space,
    sometimes times x^q - x, which vanishes at every point, so that elements
    pass the value filter yet move the polynomial."""
    G = draw(st.sampled_from(PREFILTER_GROUPS))
    field, n = G.field, G.n
    space = VariableSpace(field, [f"x{i}" for i in range(1, n + 1)])
    exponents = st.tuples(*[st.integers(0, field.q + 1)] * n)
    f = space.zero()
    for _ in range(draw(st.integers(0, 4))):
        f = f + space.monomial(draw(exponents),
                               draw(st.integers(1, field.q - 1)))
    if draw(st.booleans()):
        x = space.variable(f"x{draw(st.integers(1, n))}")
        f = f * (x ** field.q - x) + space.monomial(draw(exponents))
    return G, f


def _point_table_mask(field, rows, f):
    """Mask of the index matrices g with f(g.v) = f(v) at every one of the
    q^n points v, the images g.v formed over F_p: the oracle of the
    basis-column sieve `_keeps_values`, whose mask must contain it."""
    n, p, r, q = rows.shape[1], field.p, field.r, field.q
    points = list(itertools.product(range(q), repeat=n))
    values = np.array([f.evaluate(v).index for v in points])
    # the base-p digits of every point, one column per point: (n r, q^n)
    digits = field.digits(points).reshape(len(points), n * r).T \
        .astype(_fp_dtype(field, n))
    image = _matmul_mod(_expand(field, rows), digits, p) \
        .reshape(len(rows), n, r, len(points))
    place = q ** np.arange(n - 1, -1, -1)
    moved = np.tensordot(place, field.indices(image, axis=2), axes=([0], [1]))
    return (values[moved] == values).all(axis=1)


@settings(max_examples=120, deadline=None)
@given(group_and_polynomial())
def test_stabilizer_prefilter_matches_exact_loop(case):
    G, f = case
    S = stabilizer_of_polynomial(G, f)
    assert [g.matrix for g in S.elements] == \
        [g.matrix for g in G.elements if f.act(g) == f]
    # soundness: the sieve keeps every element the point table or the exact
    # test keeps
    rows = G.rows()
    sieve = _keeps_values(G.field, rows, f)
    assert not (fixed_by([f], rows)[0] & ~sieve).any()
    assert not (_point_table_mask(G.field, rows, f) & ~sieve).any()


def test_stabilizer_sieve_reads_columns_without_field_products(monkeypatch):
    """The sieve of GL3(F3) against x2^2 - x1*x3 gathers f's values at the
    columns of each matrix and forms no product over F_p; 480 of the 11,232
    matrices pass it, and the exact test keeps 48 of those."""
    space = VariableSpace(F3, ["x1", "x2", "x3"])
    f = parse_polynomial(space, "x2^2 - x1*x3")
    rows = gl_group(3, F3).enumerate().rows()
    calls = []
    matmul_mod = groups._matmul_mod

    def spy(a, b, p):
        calls.append(a.shape)
        return matmul_mod(a, b, p)

    monkeypatch.setattr(groups, "_matmul_mod", spy)
    keep = _keeps_values(F3, rows, f)
    assert calls == []
    assert len(rows) == 11232 and keep.sum() == 480
    assert fixed_by([f], rows[keep])[0].sum() == 48


# -- the digit-polynomial and batched products against the scalar table
# arithmetic --

def _mat_mul_reference(field, a, b, k):
    """mat_mul, with the i x k zero matrix when the inner dimension is 0
    (mat_mul reads the columns off b, which has no rows then)."""
    return mat_mul(field, a, b) if b else ((0,) * k,) * len(a)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 2),
                        (257, 1), (3, 6)]),
       st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.sampled_from([(3,), (2, 2), (1, 3)]),
       st.randoms(use_true_random=False))
def test_digit_matmul_matches_mat_mul(pr, i, j, k, lead, rnd):
    """Three routes to the products of random index matrices: `mat_mul`, the
    digit polynomials of `_digit_matmul` and `index_matmul`, the latter on
    batch shapes, broadcast against a single right factor and with empty
    dimensions."""
    field = build_field(*pr)
    count = int(np.prod(lead))
    A = np.array([rnd.randrange(field.q) for _ in range(count * i * j)],
                 dtype=np.int64).reshape(*lead, i, j)
    B = np.array([rnd.randrange(field.q) for _ in range(count * j * k)],
                 dtype=np.int64).reshape(*lead, j, k)
    pairs = zip(A.reshape(count, i, j).tolist(), B.reshape(count, j, k).tolist())
    expected = [_mat_mul_reference(field, a, b, k) for a, b in pairs]
    batched = index_matmul(field, A, B)
    assert batched.shape == (*lead, i, k)
    assert [tuple(map(tuple, c)) for c in batched.reshape(count, i, k).tolist()] \
        == expected
    single = B.reshape(count, j, k)[0]
    broadcast = index_matmul(field, A, single).reshape(count, i, k).tolist()
    assert [tuple(map(tuple, c)) for c in broadcast] == [
        _mat_mul_reference(field, a, single.tolist(), k)
        for a in A.reshape(count, i, j).tolist()]
    digits = [field.digits(X.reshape(count, *X.shape[-2:])) for X in (A, B)]
    prod = _digit_matmul(field, *digits) @ field.p ** np.arange(field.r)
    assert prod.shape == (count, i, k)
    assert [tuple(map(tuple, c)) for c in prod.tolist()] == expected


def test_index_matmul_of_large_residues_is_exact():
    """Over GF(2^31 - 1) the F_p products are Python ints.  Over
    GF(2^26 - 5) a 1 x 1 factor expands to float64 and a 1 x 3 one to
    Python ints; the product is taken in Python ints."""
    for p, shapes in ((2 ** 31 - 1, ((2, 2), (2, 2))),
                      (2 ** 26 - 5, ((1, 1), (1, 3)))):
        field = build_field(p)
        a, b = (np.arange(p - math.prod(s), p, dtype=np.int64).reshape(s)
                for s in shapes)
        product = index_matmul(field, a, b)
        assert product.tolist() == \
            list(map(list, mat_mul(field, a.tolist(), b.tolist())))
        assert all(type(x) is int for x in product.ravel().tolist())


@settings(max_examples=80, deadline=None)
@given(generator_sets())
def test_inverse_matches_mat_mul(case):
    """A A^-1 = A^-1 A = I in scalar arithmetic, for the right half of the
    reduced [A | I]."""
    field, n, gens = case
    for m in gens:
        inv = GroupElement(field, m).inverse().matrix
        assert mat_mul(field, m, inv) == identity_matrix(n)
        assert mat_mul(field, inv, m) == identity_matrix(n)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DIFF_FIELDS[:4] + DIFF_FIELDS[5:8]),
       st.integers(0, 4), st.randoms(use_true_random=False))
def test_singular_matrices_are_refused(field, n, rnd):
    """The rank test of `GroupElement` against the scalar determinant, on
    random matrices and on ones with a repeated row."""
    m = [[rnd.randrange(field.q) for _ in range(n)] for _ in range(n)]
    if n > 1 and rnd.random() < 0.5:
        m[-1] = list(m[0])
    m = tuple(map(tuple, m))
    if mat_det(field, m) == 0:
        with pytest.raises(ValueError, match="matrix is singular"):
            GroupElement(field, m)
        with pytest.raises(ValueError, match="matrix is singular"):
            GroupElement(field, m, check=False).inverse()
    else:
        assert mat_mul(field, m, GroupElement(field, m).inverse().matrix) \
            == identity_matrix(n)


def test_inverse_of_the_empty_matrix():
    assert GroupElement(F3, ()).inverse().matrix == ()


# -- generators as one index array --

@pytest.mark.parametrize("make", [
    lambda: gl_group(3, F4), lambda: sp_group(2, F3),
    lambda: thin_glue_regular(2, 2, build_field(2, 2)).realized,
    lambda: MatrixGroup(F3, 2, [GroupElement(F3, ((1, 1), (0, 1)))]),
    lambda: MatrixGroup(F3, 2, []), lambda: trivial_group(F3, 0)])
def test_generators_are_a_lazy_view_of_the_rows(make):
    """`generator_rows` is built at construction, the GroupElement list on
    first access, equal to it element by element, and then cached."""
    G = make()
    assert G._generators is None
    rows = G.generator_rows
    assert rows.dtype == np.int64 and rows.shape == (len(rows), G.n, G.n)
    gens = G.generators
    assert [g.matrix for g in gens] == [tuple(map(tuple, m))
                                        for m in rows.tolist()]
    assert all(type(e) is int for g in gens for row in g.matrix for e in row)
    assert G.generators is gens


def test_matrix_group_reads_elements_and_arrays_alike():
    gens = [((1, 1), (0, 1)), ((0, 1), (1, 0))]
    groups_ = [MatrixGroup(F3, 2, gens),
               MatrixGroup(F3, 2, np.array(gens)),
               MatrixGroup(F3, 2, [GroupElement(F3, m) for m in gens])]
    for G in groups_:
        assert G.generator_rows.tolist() == [list(map(list, m)) for m in gens]
    rows = gl_group(2, F3).enumerate().rows()[:5]
    assert MatrixGroup(F3, 2, [], elements=rows).rows().tolist() == \
        sorted(rows.tolist())
    with pytest.raises(ValueError, match="generator dimension mismatch"):
        MatrixGroup(F3, 3, gens)
    with pytest.raises(ValueError, match="element dimension mismatch"):
        MatrixGroup(F3, 3, [], elements=rows)
