import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from modinvar.analysis import u4_gluing
from modinvar.checks import build_gluing
from modinvar.gfq import build_field
from modinvar.gluing import (BimoduleBasis, full_hom_module, glue,
                             subfield_hom_module, zero_module)
from modinvar.groups import (MatrixGroup, gl_group, sp_group, trivial_group,
                             unipotent_upper, usp_order)
from modinvar.invariants import (DegenerateSpanError, GeneratorFamily,
                                 InvarianceError, _form_fp_vector, dickson,
                                 dickson_coefficients, dickson_in,
                                 dickson_via_moore, family,
                                 module_orbit_norm, moore_determinant, n_k,
                                 n_x, orbit_product, parabolic_glue,
                                 parabolic_gl_group, partial_dickson,
                                 psi_substitute, subspace_product,
                                 symplectic_l_names, u_tilde, xi, xi_power)
from modinvar.linalg import rref_mod_p
from modinvar.mvpoly import (VariableSpace, balanced_product, gluing_space,
                             symplectic_space, x_space)

F2 = build_field(2)
F3 = build_field(3)
F4 = build_field(2, 2)


def test_orbit_product_empty_basis():
    sp = gluing_space(F2, 1, 1)
    y1 = sp.variable("y1")
    assert orbit_product(y1, []) == y1


def test_orbit_product_one_dim():
    sp = gluing_space(F2, 1, 1)
    y1, x1 = sp.variable("y1"), sp.variable("x1")
    assert orbit_product(y1, [x1]) == y1 ** 2 + y1 * x1


def test_orbit_product_two_dim_degree_and_additivity():
    sp = gluing_space(F2, 2, 2)
    y1, y2 = sp.variable("y1"), sp.variable("y2")
    x1, x2 = sp.variable("x1"), sp.variable("x2")
    f = orbit_product(y1, [x1, x2])
    # direct 4-factor expansion oracle
    expected = y1 * (y1 + x1) * (y1 + x2) * (y1 + x1 + x2)
    assert f == expected
    assert f.degree() == 4
    # q-polynomial additivity as a function of the moving form
    g = orbit_product(y2, [x1, x2])
    fg = orbit_product(y1 + y2, [x1, x2])
    assert fg == f + g


def test_orbit_product_dependent_basis():
    sp = gluing_space(F2, 1, 2)
    x1, x2 = sp.variable("x1"), sp.variable("x2")
    with pytest.raises(DegenerateSpanError):
        orbit_product(sp.variable("y1"), [x1, x2, x1 + x2])


def test_orbit_product_fq_span_includes_scalars():
    sp = gluing_space(F3, 1, 1)
    y1, x1 = sp.variable("y1"), sp.variable("x1")
    f = orbit_product(y1, [x1])
    assert f == y1 ** 3 - x1 ** 2 * y1  # prod over c in F_3 of (y1 + c x1)


def literal_span(forms, space):
    """All F_p-linear combinations of the linear forms, p^len(forms) of
    them; the span of no forms is {0}."""
    out = []
    for combo in itertools.product(range(space.field.p), repeat=len(forms)):
        acc = space.zero()
        for c, u in zip(combo, forms):
            if c:
                acc = acc + u.scale(c)
        out.append(acc)
    return out


def literal_orbit_product(form, u_basis):
    """The product over every span element, one factor each."""
    return balanced_product([form + u for u in
                             literal_span(u_basis, form.space)], form.space)


class OrbitShapeError(ValueError):
    """A group orbit of a linear form is not of the shape form + subspace."""


def orbit_product_under_group(form, group):
    """Product over the set-orbit {form.g | g in group}, acting with every
    element of the enumerated group; returns the product and a recovered
    F_p-basis of the offset subspace U with orbit = form + U.  The oracle of
    the module route `module_orbit_norm`."""
    space = form.space
    field = space.field
    orbit = {}
    for g in group.rows().tolist():
        moved = form.act(g)
        orbit[frozenset(moved._terms.items())] = moved
    offsets = []
    for moved in orbit.values():
        off = moved - form
        if off.degree() > 1 or any(not any(e) for e in off._terms):
            raise OrbitShapeError("orbit is not of the form (linear form + subspace)")
        offsets.append(off)
    # greedy in sorted order: the pivot columns of the offsets' F_p columns
    offsets.sort(key=lambda f: sorted(f._terms.items()))
    columns = np.array([_form_fp_vector(off) for off in offsets]).T
    basis = [offsets[c] for c in rref_mod_p(columns, field.p)[1]]
    if field.p ** len(basis) != len(offsets):
        raise OrbitShapeError("orbit offsets do not fill out an F_p-subspace")
    span_keys = {frozenset((form + u)._terms.items())
                 for u in literal_span(basis, space)}
    if span_keys != set(orbit.keys()):
        raise OrbitShapeError("orbit offsets do not form an F_p-subspace")
    return balanced_product(list(orbit.values()), space), basis


HYP_FIELDS = [build_field(2), build_field(3), build_field(2, 2),
              build_field(5), build_field(7), build_field(2, 3),
              build_field(3, 2)]


@st.composite
def orbit_product_inputs(draw):
    """(form, basis) over one of HYP_FIELDS in up to 3 variables: an
    F_p-independent basis with p^len(basis) <= 27, and a moving form drawn
    freely, so it may share variables with the basis or be zero."""
    field = draw(st.sampled_from(HYP_FIELDS))
    space = x_space(field, draw(st.integers(1, 3)))
    coeffs = st.lists(st.integers(0, field.q - 1), min_size=space.dim,
                      max_size=space.dim)

    def form(row):
        return sum((v.scale(c) for v, c in zip(space.variables(), row)),
                   space.zero())

    k_max = max(k for k in range(5) if field.p ** k <= 27)
    basis = []
    for row in draw(st.lists(coeffs, max_size=k_max)):
        u = form(row)
        vectors = np.array([_form_fp_vector(b) for b in basis + [u]])
        if len(rref_mod_p(vectors, field.p)[1]) > len(basis):
            basis.append(u)
    return form(draw(coeffs)), basis


@settings(max_examples=150, deadline=None)
@given(orbit_product_inputs())
def test_orbit_product_recursion_matches_literal_product(inputs):
    form, basis = inputs
    assert orbit_product(form, basis) == literal_orbit_product(form, basis)


@settings(max_examples=60, deadline=None)
@given(orbit_product_inputs(), st.data())
def test_orbit_product_rejects_dependent_lists(inputs, data):
    """A combination of the basis appended to it makes the list dependent."""
    _, basis = inputs
    assume(basis)
    p = basis[0].space.field.p
    combo = data.draw(st.lists(st.integers(0, p - 1), min_size=len(basis),
                               max_size=len(basis)))
    extra = sum((b.scale(c) for b, c in zip(basis, combo)), basis[0].space.zero())
    with pytest.raises(DegenerateSpanError):
        orbit_product(basis[0].space.variable("x1"), basis + [extra])


def test_orbit_product_under_trivial_group():
    sp = gluing_space(F2, 1, 1)
    y1 = sp.variable("y1")
    prod, basis = orbit_product_under_group(y1, trivial_group(F2, 2))
    assert prod == y1 and basis == []


def test_orbit_product_under_full_hom():
    gl = glue(trivial_group(F2, 1), trivial_group(F2, 1),
              full_hom_module(1, 1, F2))
    sp = gluing_space(F2, 1, 1)
    y1, x1 = sp.variable("y1"), sp.variable("x1")
    prod, basis = orbit_product_under_group(y1, gl.m_subgroup())
    assert prod == y1 ** 2 + y1 * x1
    assert basis == [x1]


def test_orbit_product_under_full_hom_1x2():
    gl = glue(trivial_group(F2, 1), trivial_group(F2, 2),
              full_hom_module(1, 2, F2))
    sp = gluing_space(F2, 1, 2)
    y1 = sp.variable("y1")
    prod, basis = orbit_product_under_group(y1, gl.m_subgroup())
    assert prod.degree() == 4  # q^n with n = 2
    assert len(basis) == 2
    assert prod == orbit_product(y1, basis)


def greedy_offset_basis(form, group):
    """The basis loop `orbit_product_under_group` runs: over the orbit
    offsets in sorted order, keep each that raises the F_p rank of those
    kept, with F_p coordinates from the scalar digits."""
    field = form.space.field
    orbit = {frozenset(form.act(g)._terms.items()): form.act(g)
             for g in group.elements}

    def fp_vector(f):
        row = [0] * f.space.dim
        for e, c in f._terms.items():
            row[e.index(1)] = c
        return [d for c in row for d in field._digits(c)]

    basis = []
    for off in sorted((moved - form for moved in orbit.values()),
                      key=lambda f: sorted(f._terms.items())):
        if off.is_zero():
            continue
        vectors = np.array([fp_vector(b) for b in basis + [off]])
        if len(rref_mod_p(vectors, field.p)[1]) > len(basis):
            basis.append(off)
    return basis


FQEXAM_SHAPES = [(1, 1, 2), (1, 2, 2), (2, 1, 3), (1, 1, 4), (1, 2, 3)]


def fqexam_gluing(m, n, q):
    field = build_field(*{2: (2,), 3: (3,), 4: (2, 2)}[q])
    return glue(trivial_group(field, m), trivial_group(field, n),
                full_hom_module(m, n, field))


@pytest.mark.parametrize("m,n,q", FQEXAM_SHAPES)
def test_orbit_basis_is_the_greedy_choice_on_fqexam(m, n, q):
    """On the M-subgroups of the fqexam family."""
    msub = fqexam_gluing(m, n, q).m_subgroup()
    space = gluing_space(msub.field, m, n)
    for j in range(1, m + 1):
        y = space.variable(f"y{j}")
        assert orbit_product_under_group(y, msub)[1] == \
            greedy_offset_basis(y, msub)


@pytest.mark.parametrize("p", [2, 3])
def test_orbit_basis_is_the_greedy_choice_on_the_u4_gluing(p):
    """On the glued unipotent group of the transfer example."""
    gluing = u4_gluing(p)
    space = gluing_space(gluing.field, 2, 2)
    msub = gluing.m_subgroup()
    for name in space.names[:gluing.m]:
        y = space.variable(name)
        basis = orbit_product_under_group(y, msub)[1]
        assert len(basis) == gluing.n
        assert basis == greedy_offset_basis(y, msub)


def test_orbit_shape_error_for_non_affine_orbit():
    sp = x_space(F3, 2)
    G = gl_group(2, F3).enumerate()
    with pytest.raises(OrbitShapeError):
        orbit_product_under_group(sp.variable("x1"), G)


MODULE_ROUTE_GLUINGS = (
    [pytest.param(lambda s=s: fqexam_gluing(*s), id=f"fqexam{s}")
     for s in FQEXAM_SHAPES]
    + [pytest.param(lambda: u4_gluing(2), id="u4_p2"),
       pytest.param(lambda: u4_gluing(3), id="u4_p3"),
       pytest.param(lambda: glue(trivial_group(F4, 1), trivial_group(F4, 2),
                                 subfield_hom_module(1, 2, 2, F4)),
                    id="subfield_q4_sub2"),
       pytest.param(lambda: build_gluing({"kind": "singular", "q": 3}),
                    id="singular_q3")])


@pytest.mark.parametrize("make", MODULE_ROUTE_GLUINGS)
def test_module_orbit_norm_matches_the_group_orbit(make):
    """Row j of the module's basis matrices against acting with every
    element of the enumerated M-subgroup."""
    gluing = make()
    space = gluing_space(gluing.field, gluing.m, gluing.n)
    msub = gluing.m_subgroup()
    for j in range(1, gluing.m + 1):
        prod = module_orbit_norm(space, gluing.M, j)
        want, basis = orbit_product_under_group(space.variable(f"y{j}"), msub)
        assert prod == want
        assert prod.degree() == gluing.field.p ** len(basis)


def test_module_orbit_norm_of_a_zero_row_is_the_variable():
    """Row 2 of every basis matrix is zero, so y2 has the orbit {y2}; the
    zero module fixes every y_j."""
    M = BimoduleBasis(F3, 2, 2, [[[1, 0], [0, 0]], [[0, 1], [0, 0]]])
    space = gluing_space(F3, 2, 2)
    assert module_orbit_norm(space, M, 2) == space.variable("y2")
    assert module_orbit_norm(space, M, 1).degree() == 9
    assert module_orbit_norm(space, zero_module(2, 2, F3), 1) == \
        space.variable("y1")


# -- Dickson invariants --

def test_dickson_d0_is_one():
    assert dickson(2, 2, 0) == x_space(F2, 2).one()
    assert dickson(3, 3, 0) == x_space(F3, 3).one()


def test_dickson_d11():
    # plain coefficient of T in prod_c (T + c x1): equals -x1^(q-1)
    assert dickson(1, 2, 1) == x_space(F2, 1).variable("x1")
    f = dickson(1, 3, 1)
    sp = x_space(F3, 1)
    assert f == -(sp.variable("x1") ** 2)


def test_dickson_f2_frozen_values():
    sp = x_space(F2, 2)
    x1, x2 = sp.variables()
    assert dickson(2, 2, 1) == x1 ** 2 + x1 * x2 + x2 ** 2
    assert dickson(2, 2, 2) == x1 ** 2 * x2 + x1 * x2 ** 2


def test_dickson_coefficients_are_memoized_as_fresh_lists():
    sp = x_space(F4, 2)
    first = dickson_coefficients(sp, ["x1", "x2"])
    first[1] = first.pop()
    again = dickson_coefficients(sp, ("x1", "x2"))
    assert len(again) == 3 and again is not first
    assert again[2] is first[1]
    assert again[1] == dickson_in(sp, ["x1", "x2"], 1) != again[2]
    assert dickson_coefficients(sp, ["x2", "x1"]) == again
    other = dickson_coefficients(x_space(F4, 3), ["x1", "x2"])
    assert other[2].space != sp and other[2].degree() == again[2].degree()


@pytest.mark.parametrize("n,q", [(1, 2), (2, 2), (1, 3), (2, 3), (3, 2)])
def test_dickson_three_routes_agree(n, q):
    """Recursion == literal product expansion == Moore quotient."""
    field = build_field(q)
    sp = x_space(field, n)
    ext = VariableSpace(field, list(sp.names) + ["T"])
    T = ext.variable("T")
    prod = subspace_product(ext, sp.names, T)
    tpos = ext.position("T")
    for i in range(n + 1):
        rec = dickson(n, q, i)
        want = q ** (n - i)
        coeff = sp.zero()
        for e, c in prod._terms.items():
            if e[tpos] == want and not any(e[len(sp.names):tpos]):
                coeff = coeff + sp.monomial(e[:len(sp.names)], c)
        assert rec == coeff, f"literal route differs at i={i}"
        assert rec == dickson_via_moore(sp, sp.names, i), f"moore route at i={i}"


def test_dickson_gl_invariance():
    for n, field in [(2, F2), (2, F3), (3, F2), (2, F4)]:
        G = gl_group(n, field)
        for i in range(1, n + 1):
            sp = x_space(field, n)
            d = dickson_in(sp, sp.names, i)
            for g in G.generators:
                assert d.act(g) == d


def test_moore_determinant_shape():
    sp = x_space(F2, 2)
    x1, x2 = sp.variables()
    assert moore_determinant(sp, sp.names) == x1 * x2 ** 2 + x1 ** 2 * x2


# -- partial Dicksons, xi, N_k --

def test_partial_dickson_single_variable():
    # q = 2: d~_{1,1} = x1 (the sign is invisible in characteristic 2)
    assert partial_dickson(1, 1, 1, 2) == symplectic_space(F2, 1).variable("x1")
    # odd q: plain coefficient is -x1^(q-1)
    sp3 = symplectic_space(F3, 1)
    assert partial_dickson(1, 1, 1, 3) == -(sp3.variable("x1") ** 2)


def test_partial_dickson_in_x_variables_only():
    f = partial_dickson(2, 2, 2, 3)
    assert all(v.startswith("x") for v in f.variables_used())


def test_partial_dickson_m1_q2_mixed():
    sp = symplectic_space(F2, 1)
    y1, x1 = sp.variables()
    assert partial_dickson(1, 2, 1, 2) == x1 ** 2 + x1 * y1 + y1 ** 2


def test_symplectic_l_names():
    assert symplectic_l_names(2) == ["x1", "x2", "y2", "y1"]


def test_xi_m1_q2():
    sp = symplectic_space(F2, 1)
    y1, x1 = sp.variables()
    assert xi(1, 2, 1) == y1 ** 2 * x1 + y1 * x1 ** 2


@pytest.mark.parametrize("m,q,i", [(1, 2, 1), (1, 3, 2), (2, 2, 1), (2, 2, 3),
                                   (2, 3, 2), (3, 2, 1)])
def test_xi_degree(m, q, i):
    assert xi(m, q, i).degree() == q ** i + 1


def test_xi_invariant_under_sp():
    for m, field in [(1, F3), (2, F2), (2, F3)]:
        f = xi(m, field, 1)
        for g in sp_group(m, field).generators:
            assert f.act(g) == f


def test_xi_power_conventions():
    m, q = 2, 2
    assert xi_power(m, q, 0, 3).is_zero()
    assert xi_power(m, q, -1, 2) == -(xi(m, q, 1) ** 2)
    with pytest.raises(ValueError):
        xi_power(m, q, -2, 1)


def test_nk_kills_span_members():
    sp = symplectic_space(F2, 2)
    # W_1 spans x1, x2, y2; W_2 spans x1, x2
    for k, name in [(1, "x1"), (1, "x2"), (1, "y2"), (2, "x1"), (2, "x2")]:
        assert n_k(sp.variable(name), k, 2, 2).is_zero()


def test_nk_degree():
    sp = symplectic_space(F2, 2)
    assert n_k(sp.variable("y1"), 1, 2, 2).degree() == 8
    assert n_k(sp.variable("y1"), 2, 2, 2).degree() == 4
    sp3 = symplectic_space(F3, 2)
    assert n_k(sp3.variable("y1"), 2, 2, 3).degree() == 9


def test_nk_m1_matches_orbit_product():
    sp = symplectic_space(F2, 1)
    y1, x1 = sp.variables()
    assert n_k(y1, 1, 1, 2) == y1 ** 2 + x1 * y1


def test_nk_char2_additivity():
    sp = symplectic_space(F2, 2)
    y1 = sp.variable("y1")
    assert n_k(y1 + y1, 1, 2, 2).is_zero()


def test_nk_expansion_in_partial_dicksons():
    """N_k(t) = sum_j t^(q^(2m-k-j)) d~_{j,2m-k} with plain coefficients."""
    for (m, k, q) in [(1, 1, 2), (2, 1, 2), (2, 2, 2), (2, 1, 3), (2, 2, 3)]:
        field = build_field(q)
        sp = symplectic_space(field, m)
        ell = 2 * m - k
        for name in ("y1",):
            t = sp.variable(name)
            rhs = sp.zero()
            for j in range(ell + 1):
                rhs = rhs + t ** (q ** (ell - j)) * partial_dickson(j, ell, m, field)
            assert n_k(t, k, m, field) == rhs


def test_n_x():
    sp = symplectic_space(F3, 2)
    assert n_x(1, 2, 3) == sp.variable("x1")
    f = n_x(2, 2, 3)
    assert f.degree() == 3
    assert f == orbit_product(sp.variable("x2"), [sp.variable("x1")])


def test_u_tilde_forms():
    m, q = 2, 2
    sp = symplectic_space(F2, m)
    u0 = u_tilde(m, q, 0)
    manual = sp.zero()
    for i in (1, 2):
        manual = manual + sp.variable(f"x{i}") * n_k(sp.variable(f"y{i}"), m, m, q)
    assert u0 == manual
    assert u_tilde(m, q, 1).degree() == q + q ** m
    assert u_tilde(m, q, -1).degree() == 1 + q * q ** m


# -- families --

def test_family_unknown_name():
    with pytest.raises(ValueError):
        family("nope")


@pytest.mark.parametrize("m,q", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_family_carlisle_kropholler(m, q):
    fam = family("carlisle_kropholler", m=m, q=q)
    assert len(fam.members) == (2 * m - 1) + m
    assert fam.degrees[: 2 * m - 1] == [q ** i + 1 for i in range(1, 2 * m)]


def test_family_sylow_m1_edge():
    fam = family("sylow", m=1, q=2)
    labels = [mem.label for mem in fam.members]
    assert labels == ["N(x1)", "N_1(y1)"]
    sp = symplectic_space(F2, 1)
    assert fam.members[0].poly == sp.variable("x1")


@pytest.mark.parametrize("m,q", [(2, 2), (2, 3)])
def test_family_sylow(m, q):
    fam = family("sylow", m=m, q=q)
    assert len(fam.members) == (2 * m - 2) + 2 * m
    # complete intersection accounting: prod(deg)/prod(rel) = |USp|
    prod = fam.degree_product()
    rel = 1
    for e in fam.relation_degrees:
        rel *= e
    assert prod == rel * usp_order(m, q)


def test_family_max_para_degrees():
    q = 2
    fam = family("max_para", m=2, k=2, q=q)
    assert sorted(fam.degrees) == sorted([q + 1, q ** 2 + 1, q ** 3 + 1,
                                          q ** 2 - q, q ** 2 - 1,
                                          q ** 4 - q ** 3, q ** 4 - q ** 2])


def test_family_max_para_k1():
    fam = family("max_para", m=2, k=1, q=2)
    assert len(fam.members) == 3 + 1 + 1 + 1


def test_family_eapg_member_count():
    fam = family("eapg", m=2, q=2)
    assert len(fam.members) == 2 + 1 + 2
    assert sorted(fam.degrees) == [1, 1, 3, 4, 4]
    assert fam.relation_degrees == [6]  # q(q+1): forced by |P_2| = 8


def test_family_eapg_m1():
    fam = family("eapg", m=1, q=3)
    assert sorted(fam.degrees) == [1, 3]
    assert fam.relation_degrees is None


def test_family_stab_sub():
    fam = family("stab_sub", m=2, k=1, q=2)
    assert len(fam.members) == 1 + 3 + 1 + 3


def test_family_fqexam_degree_product():
    for (m, n, q) in [(1, 1, 2), (1, 2, 2), (2, 1, 3)]:
        fam = family("fqexam", m=m, n=n, q=q)
        assert fam.degree_product() == q ** (m * n)
        assert fam.group.order() == q ** (m * n)


def test_family_parabolic_gl():
    fam = family("parabolic_gl", partition=(1, 1), q=3)
    q = 3
    assert sorted(fam.degrees) == sorted([(q - 1) * q, q - 1])
    assert fam.degree_product() == q * (q - 1) ** 2  # |B| for GL_2


def test_family_parabolic_gl_block():
    fam = family("parabolic_gl", partition=(2,), q=2)
    assert fam.degree_product() == 6  # |GL_2(F_2)|


def test_family_diag_cc():
    fam = family("diag_cc", n=2, q=3)
    assert sorted(fam.degrees) == [1, 1, 2, 3]
    with pytest.raises(ValueError):
        family("diag_cc", n=5, q=3)


def test_family_invariance_guard_fires():
    fam = family("eapg", m=1, q=2)
    sp = symplectic_space(F2, 1)
    from modinvar.invariants import FamilyMember
    bad = fam.members + [FamilyMember("y1", sp.variable("y1"), 1)]
    with pytest.raises(InvarianceError):
        GeneratorFamily("broken", {}, bad, fam.group)


def test_family_degree_declaration_guard():
    sp = symplectic_space(F2, 1)
    from modinvar.invariants import FamilyMember
    with pytest.raises(InvarianceError):
        GeneratorFamily("broken", {}, [FamilyMember("x1", sp.variable("x1"), 2)],
                        trivial_group(F2, 2))


# -- psi --

def test_psi_fixes_x_variables():
    gl = glue(unipotent_upper(2, F2), unipotent_upper(2, F2),
              full_hom_module(2, 2, F2))
    sp = gluing_space(F2, 2, 2)
    x1 = sp.variable("x1")
    assert psi_substitute(x1, gl) == x1
    assert psi_substitute(x1 ** 3 + x1, gl) == x1 ** 3 + x1


def test_psi_u4_example():
    """psi(y1)^(p-1) equals the displayed q-polynomial at p = 2."""
    p = 2
    gl = glue(unipotent_upper(2, F2), unipotent_upper(2, F2),
              full_hom_module(2, 2, F2))
    sp = gluing_space(F2, 2, 2)
    y1 = sp.variable("y1")
    d12 = dickson_in(sp, ["x1", "x2"], 1)
    d22 = dickson_in(sp, ["x1", "x2"], 2)
    expected = (y1 ** (p * p) + d12 * y1 ** p + d22 * y1) ** (p - 1)
    assert psi_substitute(y1 ** (p - 1), gl) == expected


def test_psi_enumerates_no_group(monkeypatch):
    """psi reads the module norms off the basis matrices' rows."""
    gl = u4_gluing(3)
    sp = gluing_space(F3, 2, 2)

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{self.name} was enumerated")

    monkeypatch.setattr(MatrixGroup, "enumerate", refuse)
    assert psi_substitute(sp.variable("y1"), gl).degree() == 9


def test_psi_subfield_flavor():
    G1 = trivial_group(F4, 1)
    gl = glue(G1, trivial_group(F4, 1), subfield_hom_module(1, 1, 2, F4),
              flavor="subfield")
    sp = gluing_space(F4, 1, 1)
    y1, x1 = sp.variables()
    out = psi_substitute(y1, gl)
    assert out == y1 ** 2 + x1 * y1  # orbit over the subfield {0, 1}


def test_psi_parabolic():
    q = 2
    field = F2
    PF = parabolic_gl_group((1, 1), field)
    gl = parabolic_glue((1, 1), PF, PF)
    sp = gluing_space(field, 2, 2)
    y1, y2 = sp.variable("y1"), sp.variable("y2")
    out = psi_substitute(y1, gl)
    assert out.degree() == q ** 2  # N_1(y1) has degree q^2
    out2 = psi_substitute(y2, gl)
    assert out2.degree() == q  # y2 sits in the last flag step
    assert psi_substitute(sp.variable("x1"), gl) == sp.variable("x1")


def test_psi_rejects_flavor_without_substitution():
    from modinvar.gluing import thin_glue_regular
    gl = thin_glue_regular(2, 1, F2)
    sp = VariableSpace(F2, ["y1", "y2", "x1"])
    with pytest.raises(ValueError):
        psi_substitute(sp.variable("y1"), gl)


def test_parabolic_gl_group_order():
    G = parabolic_gl_group((1, 1), F3).enumerate()
    assert G.order() == 12
    G2 = parabolic_gl_group((1, 2), F2).enumerate()
    assert G2.order() == 1 * 6 * 4
