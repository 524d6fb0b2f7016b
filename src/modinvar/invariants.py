"""Named invariant polynomials and generating families: orbit products,
Dickson invariants, the symplectic xi family, truncated norms N_k and the
generating sets of the rings of invariants they assemble into.

Dickson invariants follow the product-expansion convention throughout:
d_{i,n} is literally the coefficient of T^(q^(n-i)) in prod_(v in span)(T+v).
No sign twist is applied, so for odd q the odd-index invariants are the
negatives of the classically normalized ones.  This is the convention under
which all expansion identities in this package are exact.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce

import numpy as np

from modinvar.gfq import FieldSpec
from modinvar.gluing import (BimoduleBasis, GluingGroup, _parabolic_blocks,
                             diagonal_glue, full_hom_module, glue,
                             parabolic_module, scalar_line_module)
from modinvar.groups import (ClaimRefuted, MatrixGroup, field_from_order,
                             gl_group, p_k_subgroup, parabolic_gl_order,
                             parabolic_g_k, product_group, sp_group,
                             stabilizer_sp, trivial_group, unipotent_upper,
                             usp_group)
from modinvar.linalg import rref_mod_p
from modinvar.mvpoly import (Polynomial, VariableSpace, balanced_product,
                             fixed_by, gluing_space, symplectic_space, x_space)


class DegenerateSpanError(ValueError):
    """Orbit-product basis is F_p-dependent."""


class InvarianceError(ClaimRefuted):
    """A family member moved under a generator of its group, or has another
    degree than declared."""


def _require_linear(form: Polynomial):
    if form.degree() > 1 or any(not any(e) for e in form._terms):
        raise ValueError("expected a linear form without constant term")


def _form_fp_vector(form: Polynomial):
    row = [0] * form.space.dim
    for e, c in form._terms.items():
        row[e.index(1)] = c
    return form.space.field.digits(row).ravel()


def span_basis(forms):
    """An F_p-basis of the F_q-span of linear forms: each form times each
    element of the field's F_p-basis (`FieldSpec.fp_basis`), form by form."""
    return [v.scale(b) for v in forms for b in v.space.field.fp_basis()]


def orbit_product(form: Polynomial, u_basis) -> Polynomial:
    """prod over the F_p-span U of u_basis of (form + u).

    The basis must be F_p-independent.  The product is reached by k =
    len(u_basis) Frobenius steps, not by its p^k factors: in any commutative
    F_p-algebra prod_(c in F_p)(a + c b) = a^p - b^(p-1) a, since
    prod_c (X + c) = X^p - X.  So P(T) = prod_(c in F_p)(T + c b_1) is
    F_p-linear in T with kernel F_p b_1, and
    prod_(u in U)(T + u) = prod_(w in span(b_2..b_k))(P(T) + P(w)), an orbit
    product of P(T) over the span of the independent P(b_2), ..., P(b_k).
    Each step replaces the form and the pending basis by their images
    under P.
    """
    p = form.space.field.p
    _require_linear(form)
    for u in u_basis:
        _require_linear(u)
    if u_basis:
        vectors = np.array([_form_fp_vector(u) for u in u_basis])
        if len(rref_mod_p(vectors, p)[1]) != len(u_basis):
            raise DegenerateSpanError("orbit-product basis is F_p-dependent")
    value, pending = form, list(u_basis)
    while pending:
        s = pending.pop(0) ** (p - 1)
        value = value ** p - s * value
        pending = [v ** p - s * v for v in pending]
    return value


def module_orbit_norm(space: VariableSpace, M: BimoduleBasis, j: int) -> Polynomial:
    """N_M(y_j): the product of y_j (variable j of m, 1-based) over its orbit
    under the blocks [[I, phi], [0, I]], phi in the bimodule M.

    Such a block sends y_j to y_j + sum_k phi[j, k] x_k, so the orbit is y_j
    plus the F_p-span of row j of M's basis matrices, an affine set by
    linearity.  Its basis is the rows that raise the F_p rank, greedy by
    basis index: the pivots of their digit columns."""
    field = space.field
    rows = M.mats[:, j - 1, :]
    digits = field.digits(rows).reshape(len(rows), M.n * field.r)
    keep = rref_mod_p(digits.T, field.p)[1]
    xs = [space.variable(name) for name in space.names[M.m:]]
    basis = [sum((x.scale(c) for x, c in zip(xs, row) if c), space.zero())
             for row in rows[keep].tolist()]
    return orbit_product(space.variable(space.names[j - 1]), basis)


# -- Dickson invariants --

def dickson_coefficients(space: VariableSpace, var_names):
    """All product-expansion coefficients [d_0=1, d_1, ..., d_k] of
    prod_(v in F_q-span of vars)(T + v), via the q-linearized recursion
    f_(k+1)(T) = f_k(T)^q - f_k(next var)^(q-1) f_k(T).

    Memoized by (space, variable names), the last 128 of them, since
    polynomials are immutable; each call returns a new list, so callers
    cannot change the memo."""
    return list(_dickson_expansion(space, tuple(var_names)))


@lru_cache(maxsize=128)
def _dickson_expansion(space: VariableSpace, var_names):
    q = space.field.q
    coeffs = [space.one()]
    for k, name in enumerate(var_names):
        u = space.variable(name)
        h = space.zero()
        for j, c in enumerate(coeffs):
            h = h + u ** (q ** (k - j)) * c
        hq = h ** (q - 1)
        new = [space.one()]
        for j in range(1, k + 2):
            cq = coeffs[j] ** q if j <= k else space.zero()
            new.append(cq - hq * coeffs[j - 1])
        coeffs = new
    return tuple(coeffs)


def dickson_in(space: VariableSpace, var_names, i: int) -> Polynomial:
    if not 0 <= i <= len(var_names):
        raise ValueError(f"index {i} out of range for {len(var_names)} variables")
    return dickson_coefficients(space, var_names)[i]


def dickson(n: int, q, i: int) -> Polynomial:
    """d_{i,n} in x1..xn over GF(q); degree q^n - q^(n-i)."""
    field = _as_field(q)
    space = x_space(field, n)
    return dickson_in(space, space.names, i)


def subspace_product(space: VariableSpace, basis_names, t_form: Polynomial) -> Polynomial:
    """Literal prod over the F_q-span of the named variables of (t_form + v),
    one factor per span element; the span of no variables is {0}, so that
    product is t_form.  Independent of the recursions of `orbit_product` and
    `dickson_coefficients`; the oracle side of the `dickson_routes`,
    `nk_expansion` and `orbit_additivity` checks."""
    basis = span_basis([space.variable(v) for v in basis_names])
    factors = []
    for combo in itertools.product(range(space.field.p), repeat=len(basis)):
        u = space.zero()
        for c, b in zip(combo, basis):
            if c:
                u = u + b.scale(c)
        factors.append(t_form + u)
    return balanced_product(factors, space)


def moore_matrix(space: VariableSpace, var_names, powers):
    q = space.field.q
    return [[space.variable(v) ** (q ** e) for e in powers] for v in var_names]


def _poly_det(space, M):
    n = len(M)
    if n == 0:
        return space.one()
    if n == 1:
        return M[0][0]
    acc = space.zero()
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        term = M[0][j] * _poly_det(space, minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def moore_determinant(space: VariableSpace, var_names) -> Polynomial:
    n = len(var_names)
    return _poly_det(space, moore_matrix(space, var_names, list(range(n))))


def dickson_via_moore(space: VariableSpace, var_names, i: int) -> Polynomial:
    """Moore-determinant quotient route: d_{i,n} = (-1)^i M_(n-i) / M_n where
    M_j omits the q^j column.  Exact division must succeed."""
    n = len(var_names)
    if i == 0:
        return space.one()
    powers = [e for e in range(n + 1) if e != n - i]
    minor = _poly_det(space, moore_matrix(space, var_names, powers))
    quot = minor.exact_divide(moore_determinant(space, var_names))
    return quot if i % 2 == 0 else -quot


# -- symplectic invariants --

def _as_field(q) -> FieldSpec:
    if isinstance(q, FieldSpec):
        return q
    return field_from_order(q)


def symplectic_l_names(m: int):
    """The pinned ordered list x1..xm, ym..y1 used for truncated spans and
    partial Dickson invariants."""
    return [f"x{i}" for i in range(1, m + 1)] + [f"y{i}" for i in range(m, 0, -1)]


def xi(m: int, q, i: int) -> Polynomial:
    """xi_i = sum_j (y_j^(q^i) x_j - y_j x_j^(q^i)), degree q^i + 1."""
    if i < 1:
        raise ValueError("xi is defined for i >= 1; use xi_power for conventions")
    field = _as_field(q)
    space = symplectic_space(field, m)
    qq = field.q
    acc = space.zero()
    for j in range(1, m + 1):
        yj = space.variable(f"y{j}")
        xj = space.variable(f"x{j}")
        acc = acc + yj ** (qq ** i) * xj - yj * xj ** (qq ** i)
    return acc


def xi_power(m: int, q, i: int, j: int = 0) -> Polynomial:
    """xi_i^(q^j) with the index conventions xi_0 = 0 and, for i < 0,
    xi_(-a)^(q^j) = -xi_a^(q^(j-a)) (needs j >= a)."""
    field = _as_field(q)
    space = symplectic_space(field, m)
    if i == 0:
        return space.zero()
    if i > 0:
        return xi(m, field, i) ** (field.q ** j)
    a = -i
    if j < a:
        raise ValueError(f"convention xi_(-{a})^(q^{j}) needs exponent j >= {a}")
    return -(xi(m, field, a) ** (field.q ** (j - a)))


def n_k(form: Polynomial, k: int, m: int, q) -> Polynomial:
    """N_k(form): product of form + v over the F_q-span W_k of the first
    2m-k entries of the pinned list x1..xm, ym..y1."""
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    space = symplectic_space(_as_field(q), m)
    return orbit_product(form, span_basis(
        [space.variable(name) for name in symplectic_l_names(m)[: 2 * m - k]]))


def n_x(i: int, m: int, q) -> Polynomial:
    """N(x_i): product of x_i + v over the F_q-span of x_1..x_(i-1)."""
    space = symplectic_space(_as_field(q), m)
    return orbit_product(space.variable(f"x{i}"), span_basis(
        [space.variable(f"x{jj}") for jj in range(1, i)]))


def partial_dickson(i: int, ell: int, m: int, q) -> Polynomial:
    """The i-th Dickson coefficient in the first ell entries of the pinned
    list x1..xm, ym..y1, inside the full symplectic variable space."""
    if not 0 <= i <= ell <= 2 * m:
        raise ValueError("need 0 <= i <= ell <= 2m")
    field = _as_field(q)
    space = symplectic_space(field, m)
    return dickson_in(space, symplectic_l_names(m)[:ell], i)


def u_tilde(m: int, q, j: int) -> Polynomial:
    """The substituted vector/covector invariants: u~_0 = sum x_i N_m(y_i),
    u~_j = sum x_i^(q^j) N_m(y_i), u~_(-j) = sum x_i N_m(y_i)^(q^j)."""
    field = _as_field(q)
    space = symplectic_space(field, m)
    qq = field.q
    acc = space.zero()
    for i in range(1, m + 1):
        ni = n_k(space.variable(f"y{i}"), m, m, field)
        xi_v = space.variable(f"x{i}")
        if j >= 0:
            acc = acc + xi_v ** (qq ** j) * ni
        else:
            acc = acc + xi_v * ni ** (qq ** (-j))
    return acc


# -- generator families --

class FamilyMember:
    __slots__ = ("label", "poly", "degree")

    def __init__(self, label, poly, degree):
        self.label = label
        self.poly = poly
        self.degree = degree

    def __repr__(self):
        return f"{self.label} (degree {self.degree})"


class GeneratorFamily:
    """A named generating set with declared degrees, its group, and a claimed
    ring structure.  Construction verifies the degrees and the invariance of
    every member under every generator of the group."""

    def __init__(self, name, params, members, group, structure="unknown",
                 relation_degrees=None, check=True):
        self.name = name
        self.params = dict(params)
        self.members = members
        self.group = group
        self.structure = structure
        self.relation_degrees = relation_degrees
        if check:
            self.validate()

    @property
    def polys(self):
        return [m.poly for m in self.members]

    @property
    def degrees(self):
        return [m.degree for m in self.members]

    def validate(self):
        for mem in self.members:
            actual = mem.poly.degree()
            if actual != mem.degree:
                raise InvarianceError(
                    f"{self.name}: {mem.label} has degree {actual}, "
                    f"declared {mem.degree}")
        # the first (generator, member) pair that moves, generator-major
        moved = np.argwhere(~fixed_by(self.polys, self.group.generator_rows).T)
        if len(moved):
            gi, mi = moved[0].tolist()
            raise InvarianceError(
                f"{self.name}: {self.members[mi].label} is not fixed by "
                f"generator #{gi} of {self.group.name}")

    def degree_product(self):
        out = 1
        for d in self.degrees:
            out *= d
        return out

    def __repr__(self):
        degs = ",".join(str(d) for d in self.degrees)
        return f"GeneratorFamily({self.name}, degrees [{degs}], {self.structure})"


def _sp_family_base(m, q):
    field = _as_field(q)
    return field, symplectic_space(field, m), field.q


def family(name: str, **params) -> GeneratorFamily:
    """Construct a named generating family; see FAMILY_BUILDERS for names."""
    try:
        builder = FAMILY_BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; known: "
                         f"{sorted(FAMILY_BUILDERS)}") from None
    return builder(**params)


def _family_carlisle_kropholler(m, q):
    field, space, qq = _sp_family_base(m, q)
    members = []
    for i in range(1, 2 * m):
        members.append(FamilyMember(f"xi_{i}", xi(m, field, i), qq ** i + 1))
    names = symplectic_l_names(m)
    coeffs = dickson_coefficients(space, names)
    for i in range(1, m + 1):
        members.append(FamilyMember(f"d_{i},{2*m}", coeffs[i],
                                    qq ** (2 * m) - qq ** (2 * m - i)))
    structure = "polynomial_algebra" if m == 1 else "complete_intersection"
    rel = None if m == 1 else ([qq ** 4 + qq] if m == 2 else None)
    return GeneratorFamily("carlisle_kropholler", dict(m=m, q=qq), members,
                           sp_group(m, field), structure, rel)


def _family_stab_sub(m, k, q):
    field, space, qq = _sp_family_base(m, q)
    members = []
    for i in range(1, k + 1):
        members.append(FamilyMember(f"x{i}", space.variable(f"x{i}"), 1))
    for i in range(1, 2 * m):
        members.append(FamilyMember(f"xi_{i}", xi(m, field, i), qq ** i + 1))
    for i in range(1, k + 1):
        members.append(FamilyMember(f"N_{k}(y{i})",
                                    n_k(space.variable(f"y{i}"), k, m, field),
                                    qq ** (2 * m - k)))
    ell = 2 * m - k
    coeffs = dickson_coefficients(space, symplectic_l_names(m)[:ell])
    for i in range(1, ell + 1):
        members.append(FamilyMember(f"d~_{i},{ell}", coeffs[i],
                                    qq ** ell - qq ** (ell - i)))
    return GeneratorFamily("stab_sub", dict(m=m, k=k, q=qq), members,
                           stabilizer_sp(m, k, field), "complete_intersection")


def _family_sylow(m, q):
    field, space, qq = _sp_family_base(m, q)
    members = []
    for i in range(1, 2 * m - 1):
        members.append(FamilyMember(f"xi_{i}", xi(m, field, i), qq ** i + 1))
    for i in range(1, m + 1):
        members.append(FamilyMember(f"N(x{i})", n_x(i, m, field), qq ** (i - 1)))
    for k in range(m, 0, -1):
        members.append(FamilyMember(f"N_{k}(y{k})",
                                    n_k(space.variable(f"y{k}"), k, m, field),
                                    qq ** (2 * m - k)))
    rel = []
    for j in range(0, m - 1):
        rel.append((qq ** (2 * j + 1) + 1) * qq ** (m - j - 1))
    for j in range(1, m - 1):
        rel.append((qq ** (2 * j) + 1) * qq ** (m - j))
    if m >= 2:
        rel.append((qq ** (2 * m - 2) + 1) * qq)
    return GeneratorFamily("sylow", dict(m=m, q=qq), members,
                           usp_group(m, field), "complete_intersection",
                           sorted(rel) or None)


def _family_max_para(m, k, q):
    field, space, qq = _sp_family_base(m, q)
    members = []
    for i in range(1, 2 * m):
        members.append(FamilyMember(f"xi_{i}", xi(m, field, i), qq ** i + 1))
    names = symplectic_l_names(m)
    full = dickson_coefficients(space, names)
    for i in range(1, k + 1):
        members.append(FamilyMember(f"d_{i},{2*m}", full[i],
                                    qq ** (2 * m) - qq ** (2 * m - i)))
    head = dickson_coefficients(space, names[:k])
    for i in range(1, k + 1):
        members.append(FamilyMember(f"d~_{i},{k}", head[i],
                                    qq ** k - qq ** (k - i)))
    if m - k > 0:
        mid = dickson_coefficients(space, names[: 2 * m - k])
        for i in range(1, m - k + 1):
            members.append(FamilyMember(f"d~_{i},{2*m-k}", mid[i],
                                        qq ** (2 * m - k) - qq ** (2 * m - k - i)))
    structure = "complete_intersection" if k == 1 else "unknown"
    return GeneratorFamily("max_para", dict(m=m, k=k, q=qq), members,
                           parabolic_g_k(m, k, field), structure)


def _family_eapg(m, q):
    field, space, qq = _sp_family_base(m, q)
    members = []
    for i in range(1, m + 1):
        members.append(FamilyMember(f"x{i}", space.variable(f"x{i}"), 1))
    for i in range(1, m):
        members.append(FamilyMember(f"xi_{i}", xi(m, field, i), qq ** i + 1))
    for i in range(1, m + 1):
        members.append(FamilyMember(f"N_{m}(y{i})",
                                    n_k(space.variable(f"y{i}"), m, m, field),
                                    qq ** m))
    # relations rewrite xi_i^(q^(m-i)) for i = 1..m-1
    rel = sorted((qq ** i + 1) * qq ** (m - i) for i in range(1, m)) or None
    return GeneratorFamily("eapg", dict(m=m, q=qq), members,
                           p_k_subgroup(m, m, field), "complete_intersection", rel)


def parabolic_gl_group(partition, field) -> MatrixGroup:
    """Block upper-triangular invertible matrices for the given partition:
    the GL generators of each diagonal block, then the superdiagonal
    transvections."""
    sizes, _, block_of = _parabolic_blocks(partition)
    levi = reduce(product_group, [gl_group(s, field) for s in sizes])
    gens = np.concatenate([levi.generator_rows,
                           unipotent_upper(len(block_of), field).generator_rows])
    return MatrixGroup(field, len(block_of), gens,
                       name=f"P_F{tuple(partition)}(F{field.q})",
                       claimed_order=parabolic_gl_order(partition, field.q))


def parabolic_orbit_norm(space, partition, j: int) -> Polynomial:
    """N(y_j) under the unipotent radical: orbit product of y_j over the
    F_q-span of the variables in strictly later blocks."""
    _, _, block_of = _parabolic_blocks(partition)
    basis = span_basis([space.variable(space.names[kk])
                        for kk in range(len(block_of))
                        if block_of[kk] > block_of[j - 1]])
    return orbit_product(space.variable(space.names[j - 1]), basis)


def _family_parabolic_gl(partition, q):
    field = _as_field(q)
    sizes, starts, block_of = _parabolic_blocks(partition)
    n = len(block_of)
    space = VariableSpace(field, [f"y{i}" for i in range(1, n + 1)])
    qq = field.q
    members = []
    norms = {j: parabolic_orbit_norm(space, partition, j) for j in range(1, n + 1)}
    for bi, (s, off) in enumerate(zip(sizes, starts)):
        later = sum(sizes[bi + 1:])
        block_vars = [f"z{t}" for t in range(1, s + 1)]
        zspace = VariableSpace(field, block_vars)
        for step in range(1, s + 1):
            d = dickson_in(zspace, block_vars, step)
            sub = {f"z{t}": norms[off + t] for t in range(1, s + 1)}
            poly = d.substitute(sub)
            deg = (qq ** s - qq ** (s - step)) * qq ** later
            members.append(FamilyMember(f"d_{step},{s}(block{bi+1})", poly, deg))
    return GeneratorFamily("parabolic_gl", dict(partition=tuple(partition), q=qq),
                           members, parabolic_gl_group(partition, field),
                           "polynomial_algebra")


def _family_diag_cc(n, q):
    field = _as_field(q)
    if n > field.p:
        raise ValueError("indecomposable Jordan block needs n <= p")
    space = gluing_space(field, n, n)
    qq = field.q
    y = {i: space.variable(f"y{i}") for i in range(1, n + 1)}
    x = {i: space.variable(f"x{i}") for i in range(1, n + 1)}
    members = [FamilyMember(f"x{i}", x[i], 1) for i in range(1, n + 1)]
    members.append(FamilyMember("N", y[1] ** qq - y[1] * x[1] ** (qq - 1), qq))
    for j in range(2, n + 1):
        members.append(FamilyMember(f"u_{j}", y[1] * x[j] - y[j] * x[1], 2))
    # x_j.g = x_j + x_(j-1)
    jordan = np.eye(n, dtype=np.int64) + np.eye(n, k=1, dtype=np.int64)
    G = MatrixGroup(field, n, jordan[None], name=f"C{field.p}",
                    claimed_order=field.p)
    gluing = diagonal_glue(G, scalar_line_module(n, field))
    return GeneratorFamily("diag_cc", dict(n=n, q=qq), members,
                           gluing.m_subgroup(), "unknown")


def _family_fqexam(m, n, q):
    field = _as_field(q)
    gluing = glue(trivial_group(field, m), trivial_group(field, n),
                  full_hom_module(m, n, field))
    space = gluing_space(field, m, n)
    qq = field.q
    members = [FamilyMember(f"x{i}", space.variable(f"x{i}"), 1)
               for i in range(1, n + 1)]
    for j in range(1, m + 1):
        members.append(FamilyMember(f"N_M(y{j})",
                                    module_orbit_norm(space, gluing.M, j),
                                    qq ** n))
    return GeneratorFamily("fqexam", dict(m=m, n=n, q=qq), members,
                           gluing.m_subgroup(), "polynomial_algebra")


FAMILY_BUILDERS = {
    "carlisle_kropholler": _family_carlisle_kropholler,
    "stab_sub": _family_stab_sub,
    "sylow": _family_sylow,
    "max_para": _family_max_para,
    "eapg": _family_eapg,
    "parabolic_gl": _family_parabolic_gl,
    "diag_cc": _family_diag_cc,
    "fqexam": _family_fqexam,
}


# -- the gluing substitution --

def psi_substitute(f: Polynomial, gluing: GluingGroup) -> Polynomial:
    """Substitute each first-factor variable by its module orbit product.

    For flag (parabolic) gluings the substitution is window-uniform: every
    y_k in f is replaced by N_(i+1)(y_k) where i is the flag index of f, so f
    must only use y-variables from blocks after i.  For hom-module gluings
    each y_j goes to its own orbit product; the substitution is only defined
    when these orbit products certify a polynomial invariant ring (product of
    degrees equals the module order)."""
    space = f.space
    m, n = gluing.m, gluing.n
    if space.dim != m + n:
        raise ValueError("polynomial space does not match the gluing")
    if gluing.flavor == "parabolic":
        return _psi_parabolic(f, gluing)
    if gluing.flavor not in ("generic", "subfield", "singular"):
        raise ValueError(f"no substitution map for flavor {gluing.flavor!r}")
    sub = {}
    degprod = 1
    for j in range(1, m + 1):
        prod = module_orbit_norm(space, gluing.M, j)
        sub[space.names[j - 1]] = prod
        degprod *= prod.degree()
    if degprod != gluing.M.module_order():
        raise ValueError(
            "module orbit products do not certify a polynomial invariant "
            f"ring: degree product {degprod} != module order "
            f"{gluing.M.module_order()}")
    return f.substitute(sub)


def _psi_parabolic(f, gluing):
    space = f.space
    _, _, block_of = _parabolic_blocks(gluing.partition)
    used_y = [space.position(v) for v in f.variables_used()
              if v.startswith("y")]
    if not used_y:
        return f
    window = min(block_of[j] for j in used_y)
    # N_(window+1): orbit product over the span of x-variables in blocks
    # window, window+1, ... (the image of (W / F_window)^* in W2*)
    basis = span_basis([space.variable(f"x{kk + 1}")
                        for kk in range(len(block_of))
                        if block_of[kk] >= window])
    sub = {}
    for j in used_y:
        yvar = space.variable(space.names[j])
        sub[space.names[j]] = orbit_product(yvar, basis)
    return f.substitute(sub)


def parabolic_glue(partition, G1: MatrixGroup, G2: MatrixGroup) -> GluingGroup:
    """Gluing through the flag-consistent endomorphism module; factors must
    stabilize the flag."""
    field = G1.field
    M = parabolic_module(partition, field)
    gluing = glue(G1, G2, M, flavor="parabolic")
    gluing.partition = tuple(partition)
    return gluing
