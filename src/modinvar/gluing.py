"""Glued matrix groups: block realizations of semidirect products through a
bimodule of homomorphisms.

A gluing of G1 (acting on an m-dimensional space) to G2 (n-dimensional)
through a finite bimodule M of m-by-n matrices is realized as the group of
block matrices [[g1, phi], [0, g2]].  M must be an additive group closed
under the two-sided action g1.phi.g2; closure is validated on generators,
which suffices by linearity.
"""

from __future__ import annotations

import itertools

import numpy as np

from modinvar.gfq import FieldSpec, Scalar
from modinvar.groups import (DEFAULT_CAP, ClaimRefuted, GroupElement,
                             MatrixGroup, NotEnumeratedError, gl_group,
                             mat_add, mat_mul, mat_scale, mat_transpose,
                             sp_group, trivial_group, FormSpec,
                             form_preserved)
from modinvar.linalg import nullspace_field, rref_field, rref_mod_p


class BimoduleClosureError(ValueError):
    """A factor-group generator moved a basis matrix out of the span."""


class BimoduleBasis:
    """An F_p-basis of a finite sub-bimodule of Hom(W2, W1).

    mats: m-by-n matrices over the field (tuples of tuples of indices),
    required to be F_p-linearly independent.
    """

    def __init__(self, field: FieldSpec, m: int, n: int, mats):
        self.field = field
        self.m = m
        self.n = n
        self.mats = [tuple(tuple(field.scalar(e).index if isinstance(e, (Scalar, str))
                                 else e for e in row) for row in mat)
                     for mat in mats]
        for mat in self.mats:
            if len(mat) != m or any(len(row) != n for row in mat):
                raise ValueError("basis matrix has wrong shape")
        # the F_p coordinates of each matrix: its entries' digits, row-major
        self._vectors = field.digits(np.array(self.mats, dtype=np.int64)) \
            .reshape(len(self.mats), m * n * field.r)
        if self._fp_rank(self._vectors) != len(self.mats):
            raise ValueError("bimodule basis matrices are F_p-dependent")

    def _fp_rank(self, vectors):
        return len(rref_mod_p(vectors, self.field.p)[1])

    @property
    def fp_dim(self) -> int:
        return len(self.mats)

    def module_order(self) -> int:
        return self.field.p ** self.fp_dim

    def contains(self, mat) -> bool:
        vector = self.field.digits(np.array(mat, dtype=np.int64)).reshape(
            1, self._vectors.shape[1])
        vectors = np.vstack([self._vectors, vector])
        return self._fp_rank(vectors) == self.fp_dim

    def elements(self):
        """All p^dim matrices of the module, zero first, deterministic order."""
        field = self.field
        zero = tuple(tuple(0 for _ in range(self.n)) for _ in range(self.m))
        for combo in itertools.product(range(field.p), repeat=self.fp_dim):
            acc = zero
            for c, mat in zip(combo, self.mats):
                if c:
                    acc = mat_add(field, acc, mat_scale(field, mat, c))
            yield acc

    def __len__(self):
        return self.fp_dim

    def __repr__(self):
        return f"BimoduleBasis({self.m}x{self.n} over GF({self.field.q}), dim {self.fp_dim})"


def _block_matrix(field, m, n, g1, phi, g2):
    size = m + n
    M = [[0] * size for _ in range(size)]
    for i in range(m):
        for j in range(m):
            M[i][j] = g1[i][j]
        for j in range(n):
            M[i][m + j] = phi[i][j]
    for i in range(n):
        for j in range(n):
            M[m + i][m + j] = g2[i][j]
    return tuple(map(tuple, M))


def _zero_phi(m, n):
    return tuple(tuple(0 for _ in range(n)) for _ in range(m))


class GluingGroup:
    """The block realization of G1 x_M G2 together with its pieces.

    With flavor "diagonal" (G1 = G2 = G) the realized group is the subgroup
    of pairs (g, g): each generator of G is paired with itself, and its order
    is |G| * |M|."""

    def __init__(self, G1: MatrixGroup, G2: MatrixGroup, M: BimoduleBasis,
                 flavor: str = "generic", name: str = "", transform=None,
                 form=None):
        self.G1 = G1
        self.G2 = G2
        self.M = M
        self.flavor = flavor
        self.field = M.field
        self.m = M.m
        self.n = M.n
        self.transform = transform
        self.form = form
        em = _zero_phi(self.m, self.n)
        id1 = tuple(tuple(1 if i == j else 0 for j in range(self.m))
                    for i in range(self.m))
        id2 = tuple(tuple(1 if i == j else 0 for j in range(self.n))
                    for i in range(self.n))
        diagonal = flavor == "diagonal"
        if diagonal:
            blocks = [(g.matrix, em, g.matrix) for g in G1.generators]
        else:
            blocks = [(g.matrix, em, id2) for g in G1.generators] + \
                [(id1, em, g.matrix) for g in G2.generators]
        blocks += [(id1, phi, id2) for phi in M.mats]
        gens = [GroupElement(self.field,
                             _block_matrix(self.field, self.m, self.n, *block),
                             check=False)
                for block in blocks]
        order = None
        try:
            order = G1.order() * M.module_order() * \
                (1 if diagonal else G2.order())
        except NotEnumeratedError:
            pass
        self.realized = MatrixGroup(self.field, self.m + self.n, gens,
                                    name=name or f"{G1.name}x_M{G2.name}",
                                    claimed_order=order)

    def triple(self, g1, phi, g2) -> GroupElement:
        """The realized block matrix of the triple (g1, phi, g2).

        No check calls it; it stays as a benchmark tracer target and as the
        scalar oracle of the batched triple law in the tests."""
        m1 = g1.matrix if isinstance(g1, GroupElement) else g1
        m2 = g2.matrix if isinstance(g2, GroupElement) else g2
        return GroupElement(self.field,
                            _block_matrix(self.field, self.m, self.n, m1, phi, m2),
                            check=False)

    def blocks(self, g1_rows, phis, g2_rows) -> np.ndarray:
        """The (N, m+n, m+n) index arrays of N triples given as index
        arrays: the batched `triple`."""
        m, n = self.m, self.n
        out = np.zeros((len(phis), m + n, m + n), dtype=np.int64)
        out[:, :m, :m] = g1_rows
        out[:, :m, m:] = phis
        out[:, m:, m:] = g2_rows
        return out

    def m_subgroup(self) -> MatrixGroup:
        """The normal subgroup of blocks [[I, phi], [0, I]], fully enumerated."""
        field = self.field
        id1 = tuple(tuple(1 if i == j else 0 for j in range(self.m))
                    for i in range(self.m))
        id2 = tuple(tuple(1 if i == j else 0 for j in range(self.n))
                    for i in range(self.n))
        gens = [GroupElement(field,
                             _block_matrix(field, self.m, self.n, id1, phi, id2),
                             check=False)
                for phi in self.M.mats]
        return MatrixGroup(field, self.m + self.n, gens, name="M-block",
                           claimed_order=self.M.module_order()).enumerate()

    def factor_subgroup(self) -> MatrixGroup:
        """Block-diagonal realization of G1 x G2 inside the gluing."""
        from modinvar.groups import product_group
        return product_group(self.G1, self.G2, name="G1xG2-block")

    def enumerate(self, cap: int = DEFAULT_CAP) -> MatrixGroup:
        return self.realized.enumerate(cap)

    def __repr__(self):
        return f"GluingGroup({self.flavor}, m={self.m}, n={self.n})"


def semidirect_mul(gluing: GluingGroup, t1, t2):
    """(g1, phi, g2).(g1', phi', g2') = (g1 g1', g1 phi' + phi g2', g2 g2').

    The `semidirect_law` check forms this product batched, in the field's
    digit arithmetic (`groups._digit_matmul`); this scalar form stays as a
    benchmark tracer target and as the oracle of that batched check in the
    tests."""
    field = gluing.field
    g1, phi, g2 = t1
    h1, psi, h2 = t2
    m1 = g1.matrix if isinstance(g1, GroupElement) else g1
    m2 = g2.matrix if isinstance(g2, GroupElement) else g2
    n1 = h1.matrix if isinstance(h1, GroupElement) else h1
    n2 = h2.matrix if isinstance(h2, GroupElement) else h2
    if len(m1) != len(n1) or len(m2) != len(n2):
        raise ValueError("triple shapes do not match")
    new_phi = mat_add(field, mat_mul(field, m1, psi), mat_mul(field, phi, n2))
    return (GroupElement(field, mat_mul(field, m1, n1), check=False),
            new_phi,
            GroupElement(field, mat_mul(field, m2, n2), check=False))


def _validate_closure(G1, G2, M):
    field = M.field
    for gi, g in enumerate(G1.generators):
        for bi, phi in enumerate(M.mats):
            moved = mat_mul(field, g.matrix, phi)
            if not M.contains(moved):
                raise BimoduleClosureError(
                    f"left action violates closure: generator #{gi} of "
                    f"{G1.name or 'G1'} times basis matrix #{bi}")
    for gi, g in enumerate(G2.generators):
        for bi, phi in enumerate(M.mats):
            moved = mat_mul(field, phi, g.matrix)
            if not M.contains(moved):
                raise BimoduleClosureError(
                    f"right action violates closure: basis matrix #{bi} "
                    f"times generator #{gi} of {G2.name or 'G2'}")


def glue(G1: MatrixGroup, G2: MatrixGroup, M: BimoduleBasis,
         flavor: str = "generic", name: str = "") -> GluingGroup:
    """Build the glued group after validating dimensions and bimodule closure."""
    if G1.field != M.field or G2.field != M.field:
        raise ValueError("factor groups and module over different fields")
    if G1.n != M.m or G2.n != M.n:
        raise ValueError(
            f"dimension mismatch: G1 on {G1.n}, G2 on {G2.n}, M is {M.m}x{M.n}")
    _validate_closure(G1, G2, M)
    return GluingGroup(G1, G2, M, flavor=flavor, name=name)


# -- module constructors --

def full_hom_module(m: int, n: int, field: FieldSpec) -> BimoduleBasis:
    """Hom(W2, W1) over the field: elementary matrices times a field basis."""
    mats = []
    basis = [b.index for b in field.fp_basis()]
    for i in range(m):
        for j in range(n):
            for b in basis:
                mat = [[0] * n for _ in range(m)]
                mat[i][j] = b
                mats.append(tuple(map(tuple, mat)))
    return BimoduleBasis(field, m, n, mats)


def subfield_elements(field: FieldSpec, q_sub: int):
    """Elements of the subfield of order q_sub inside GF(q)."""
    p = field.p
    r_sub = 0
    qq = q_sub
    while qq > 1:
        if qq % p:
            raise ValueError(f"{q_sub} is not a power of the characteristic {p}")
        qq //= p
        r_sub += 1
    if r_sub == 0 or field.r % r_sub:
        raise ValueError(f"GF({q_sub}) is not a subfield of GF({field.q})")
    return [a for a in range(field.q) if field.pow(a, q_sub) == a], r_sub


def subfield_hom_module(m: int, n: int, q_sub: int, field: FieldSpec) -> BimoduleBasis:
    """Matrices with entries in the subfield GF(q_sub) of GF(q)."""
    elems, _ = subfield_elements(field, q_sub)
    # deterministic F_p-basis of the subfield, greedy by element index: the
    # pivot columns of the elements' digit columns
    basis = [elems[c] for c in rref_mod_p(field.digits(elems).T, field.p)[1]]
    mats = []
    for i in range(m):
        for j in range(n):
            for b in basis:
                mat = [[0] * n for _ in range(m)]
                mat[i][j] = b
                mats.append(tuple(map(tuple, mat)))
    return BimoduleBasis(field, m, n, mats)


def parabolic_module(partition, field: FieldSpec) -> BimoduleBasis:
    """Flag-consistent endomorphisms: block upper-triangular matrices."""
    sizes = list(partition)
    if any(s < 1 for s in sizes):
        raise ValueError("partition entries must be positive")
    n = sum(sizes)
    block_of = []
    for bi, s in enumerate(sizes):
        block_of.extend([bi] * s)
    mats = []
    basis = [b.index for b in field.fp_basis()]
    for i in range(n):
        for j in range(n):
            if block_of[i] <= block_of[j]:
                for b in basis:
                    mat = [[0] * n for _ in range(n)]
                    mat[i][j] = b
                    mats.append(tuple(map(tuple, mat)))
    return BimoduleBasis(field, n, n, mats)


def scalar_line_module(n: int, field: FieldSpec) -> BimoduleBasis:
    """Scalar multiples of the identity map, one dimension per field basis
    element."""
    mats = []
    for b in field.fp_basis():
        mat = [[b.index if i == j else 0 for j in range(n)] for i in range(n)]
        mats.append(tuple(map(tuple, mat)))
    return BimoduleBasis(field, n, n, mats)


def zero_module(m: int, n: int, field: FieldSpec) -> BimoduleBasis:
    return BimoduleBasis(field, m, n, [])


# -- named constructions --

def thin_glue_regular(p: int, r: int, field: FieldSpec) -> GluingGroup:
    """Faithful realization of C_(p^r) |x (F_p C_(p^r)) in dimension p^r + 1.

    The cyclic group acts by its regular representation; the elementary
    abelian part is the free rank-one module embedded by sending the group
    identity basis vector to 1.
    """
    if field.p != p:
        raise ValueError(
            f"field characteristic {field.p} does not match p = {p}")
    if r < 1:
        raise ValueError("r must be positive")
    size = p ** r
    cyc = [[0] * size for _ in range(size)]
    for j in range(size):
        cyc[(j + 1) % size][j] = 1
    G1 = MatrixGroup(field, size, [GroupElement(field, tuple(map(tuple, cyc)),
                                                check=False)],
                     name=f"C{size}", claimed_order=size)
    G2 = trivial_group(field, 1)
    mats = []
    for i in range(size):
        mat = [[0] for _ in range(size)]
        mat[i][0] = 1
        mats.append(tuple(map(tuple, mat)))
    M = BimoduleBasis(field, size, 1, mats)
    return glue(G1, G2, M, flavor="thin", name=f"C{size}|xE")


def diagonal_glue(G: MatrixGroup, M: BimoduleBasis) -> GluingGroup:
    """Subgroup of pairs (g, g) glued through M; requires M closed under
    conjugation g.phi.g^(-1)."""
    field = G.field
    if M.m != G.n or M.n != G.n:
        raise ValueError("diagonal gluing needs a square module of matching size")
    for gi, g in enumerate(G.generators):
        inv = g.inverse()
        for bi, phi in enumerate(M.mats):
            moved = mat_mul(field, mat_mul(field, g.matrix, phi), inv.matrix)
            if not M.contains(moved):
                raise BimoduleClosureError(
                    f"conjugation closure fails: generator #{gi}, basis #{bi}")
    return GluingGroup(G, G, M, flavor="diagonal", name=f"diag({G.name})x_M")


def _extend_to_basis(field, vectors, dim):
    """Extend independent columns to a full basis, greedily by standard
    vectors in index order: those at the pivot columns of the matrix with
    the vectors, then the standard vectors, as its columns."""
    m = len(vectors)
    identity = np.eye(dim, dtype=np.int64)
    columns = np.hstack([np.array(vectors, dtype=np.int64).reshape(m, dim).T,
                         identity])
    return [list(v) for v in vectors] + [
        identity[c - m].tolist() for c in rref_field(columns, field)[1][m:]]


def _symplectic_basis_transform(field, gram):
    """P with P^T gram P equal to the pinned J, for a nondegenerate
    alternating gram."""
    from modinvar.groups import symplectic_j
    n = len(gram)
    m = n // 2
    remaining = []
    basis = [None] * n

    def pair_value(u, v):
        s = 0
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if vj and gram[i][j]:
                    s = field.add(s, field.mul(field.mul(ui, vj), gram[i][j]))
        return s

    std = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    pool = [list(v) for v in std]
    pairs = []
    while pool:
        u = pool.pop(0)
        partner = None
        for v in pool:
            val = pair_value(u, v)
            if val:
                partner = v
                break
        if partner is None:
            raise ValueError("gram is degenerate")
        pool.remove(partner)
        inv = field.inv(pair_value(u, partner))
        partner = [field.mul(inv, a) for a in partner]
        # reduce the rest of the pool against the hyperbolic pair (u, partner)
        newpool = []
        for w in pool:
            a = pair_value(w, partner)
            b = pair_value(u, w)
            w2 = [field.sub(wi, field.mul(a, ui)) for wi, ui in zip(w, u)]
            w2 = [field.sub(w2i, field.mul(b, pi)) for w2i, pi in zip(w2, partner)]
            if any(w2):
                newpool.append(w2)
        pool = newpool
        pairs.append((u, partner))
    # order: e_1..e_m then f_m..f_1 with <e_i, f_i> = 1
    cols = [None] * n
    for i, (e, f) in enumerate(pairs):
        cols[i] = e
        cols[n - 1 - i] = f
    P = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    J = symplectic_j(m, field)
    check = mat_mul(field, mat_mul(field, mat_transpose(P), gram), P)
    if check != J:
        raise AssertionError("symplectic basis transform failed")
    return P


def singular_form_group(form: FormSpec, cap: int = DEFAULT_CAP) -> GluingGroup:
    """Isometry group of a degenerate form, realized as the gluing of the GL
    of the radical with the isometry group of the induced nondegenerate form.

    The result lives in a new basis listing the radical first; the
    transformed form is stored on the gluing and every realized generator is
    checked to preserve it (ClaimRefuted otherwise), which certifies the
    whole realized group, since preservation is closed under products and
    inverses.
    """
    field = form.field
    gram = form.polar_gram()
    radical = nullspace_field(gram, field)
    m = len(radical)
    dim = form.dim
    n = dim - m
    if m == 0:
        raise ValueError("form is nondegenerate; use the classical group directly")
    basis_cols = _extend_to_basis(field, radical, dim)
    P = tuple(tuple(basis_cols[j][i] for j in range(dim)) for i in range(dim))
    gram_new = mat_mul(field, mat_mul(field, mat_transpose(P), gram), P)
    for i in range(m):
        if any(gram_new[i]) or any(row[i] for row in gram_new):
            raise AssertionError("radical block not cleared by basis change")
    G1 = gl_group(m, field)
    if n == 0:
        M = zero_module(m, 0, field)
        G2 = trivial_group(field, 0)
        gluing = GluingGroup(G1, G2, M, flavor="singular")
        gluing.transform = P
        return gluing
    quotient_gram = tuple(tuple(gram_new[m + i][m + j] for j in range(n))
                          for i in range(n))
    if form.kind == "alternating":
        T = _symplectic_basis_transform(field, quotient_gram)
        Tinv = GroupElement(field, T, check=True).inverse().matrix
        gens = []
        for g in sp_group(n // 2, field).generators:
            gens.append(GroupElement(field,
                                     mat_mul(field, mat_mul(field, T, g.matrix), Tinv),
                                     check=False))
        from modinvar.groups import sp_order
        G2 = MatrixGroup(field, n, gens, name=f"Sp{n}(F{field.q})~",
                         claimed_order=sp_order(n // 2, field.q))
    else:
        # enumerate the full linear group and filter; desk-scale fallback
        quotient_form = FormSpec(form.kind, field, gram=quotient_gram) \
            if form.kind != "quadratic" else _quadratic_on_quotient(form, P, m, n)
        big = gl_group(n, field).enumerate(cap)
        elems = [g for g in big.elements if form_preserved(g, quotient_form)]
        from modinvar.groups import minimal_generators
        G2 = MatrixGroup(field, n, minimal_generators(field, elems),
                         name=f"Isom({form.kind})", elements=elems)
    M = full_hom_module(m, n, field)
    gluing = glue(G1, G2, M, flavor="singular")
    gluing.transform = P
    new_form = FormSpec(form.kind, field, gram=gram_new) \
        if form.kind != "quadratic" else None
    if new_form is not None:
        gluing.form = new_form
        for g in gluing.realized.generators:
            if not form_preserved(g, new_form):
                raise ClaimRefuted("realized generator does not preserve the form")
    return gluing


def _quadratic_on_quotient(form, P, m, n):
    """Restrict a quadratic form to the chosen complement of the radical."""
    field = form.field
    space = form.quadratic.space
    sub = {}
    for j, name in enumerate(space.names):
        img = space.zero()
        for i in range(n):
            c = P[j][m + i]
            if c:
                img = img + space.variable(space.names[i]).scale(Scalar(field, c))
        sub[name] = img
    moved = form.quadratic.substitute(sub)
    from modinvar.mvpoly import VariableSpace
    qspace = VariableSpace(field, space.names[:n])
    out = qspace.zero()
    for e, c in moved._terms.items():
        if any(e[n:]):
            raise AssertionError("quadratic form does not descend to the quotient")
        out = out + qspace.monomial(e[:n], Scalar(field, c))
    return FormSpec("quadratic", field, quadratic=out)
