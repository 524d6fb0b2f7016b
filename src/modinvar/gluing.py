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
import math

import numpy as np

from modinvar.gfq import FieldSpec, build_field
from modinvar.groups import (ClaimRefuted, FormSpec, GroupElement, MatrixGroup,
                             NotEnumeratedError, _index_rows, form_preserved,
                             gl_group, index_inverse, index_matmul, mat_mul,
                             minimal_generators, product_group, sp_group,
                             sp_order, symplectic_j, trivial_group)
from modinvar.linalg import (in_reduced_row_space, nullspace_field, rref_field,
                             rref_mod_p)
from modinvar.mvpoly import Polynomial, VariableSpace


class BimoduleClosureError(ValueError):
    """A factor-group generator moved a basis matrix out of the span."""


class BimoduleBasis:
    """An F_p-basis of a finite sub-bimodule of Hom(W2, W1).

    mats: m-by-n index matrices (an index array-like), required to be
    F_p-linearly independent; kept as an (fp_dim, m, n) index array.
    """

    def __init__(self, field: FieldSpec, m: int, n: int, mats):
        self.field = field
        self.m = m
        self.n = n
        try:
            self.mats = mats = _index_rows(mats, m, n)
        except ValueError:
            raise ValueError("basis matrix has wrong shape") from None
        # the F_p coordinates of each matrix: its entries' digits, row-major,
        # and their reduced row echelon form, against which membership is
        # tested
        self._vectors = field.digits(self.mats).reshape(len(mats), m * n * field.r)
        self._reduced, pivots = rref_mod_p(self._vectors, field.p)
        if len(pivots) != len(mats):
            raise ValueError("bimodule basis matrices are F_p-dependent")

    @property
    def fp_dim(self) -> int:
        return len(self.mats)

    def module_order(self) -> int:
        return self.field.p ** self.fp_dim

    def contains(self, mats) -> np.ndarray:
        """Mask, over the leading axes, of the m x n index matrices of
        `mats` that lie in the module: their F_p coordinates against the
        reduced basis (`in_reduced_row_space` over F_p)."""
        field, lead = self.field, np.shape(mats)[:-2]
        coords = field.digits(mats).reshape(math.prod(lead),
                                            self._vectors.shape[1])
        return in_reduced_row_space(coords, self._reduced,
                                    build_field(field.p)).reshape(lead)

    def elements(self) -> np.ndarray:
        """All p^dim matrices of the module as a (p^dim, m, n) index array,
        zero first, in `itertools.product` order of the coefficients: one
        product of the coefficient rows with the basis coordinates."""
        field = self.field
        coeffs = np.indices((field.p,) * self.fp_dim) \
            .reshape(self.fp_dim, field.p ** self.fp_dim).T
        digits = coeffs @ self._vectors % field.p
        return field.indices(digits.reshape(len(coeffs), self.m, self.n, field.r))

    def __len__(self):
        return self.fp_dim

    def __repr__(self):
        return f"BimoduleBasis({self.m}x{self.n} over GF({self.field.q}), dim {self.fp_dim})"


class GluingGroup:
    """The block realization of G1 x_M G2 together with its pieces.

    With flavor "diagonal" (G1 = G2 = G) the realized group is the subgroup
    of pairs (g, g): each generator of G is paired with itself, and its order
    is |G| * |M|."""

    def __init__(self, G1: MatrixGroup, G2: MatrixGroup, M: BimoduleBasis,
                 flavor: str = "generic", name: str = ""):
        self.G1 = G1
        self.G2 = G2
        self.M = M
        self.flavor = flavor
        self.field = M.field
        self.m = M.m
        self.n = M.n
        self.form = None
        zero = np.zeros((self.m, self.n), dtype=np.int64)
        id1, id2 = np.eye(self.m, dtype=np.int64), np.eye(self.n, dtype=np.int64)
        gens1 = G1.generator_rows
        diagonal = flavor == "diagonal"
        if diagonal:
            parts = [(gens1, zero, gens1)]
        else:
            parts = [(gens1, zero, id2), (id1, zero, G2.generator_rows)]
        parts.append((id1, M.mats, id2))
        gens = np.concatenate([self.blocks(*part) for part in parts])
        order = None
        try:
            order = G1.order() * M.module_order() * \
                (1 if diagonal else G2.order())
        except NotEnumeratedError:
            pass
        self.realized = MatrixGroup(self.field, self.m + self.n, gens,
                                    name=name or f"{G1.name}x_M{G2.name}",
                                    claimed_order=order)
        self._m_subgroup = self._factor_subgroup = None

    def triple(self, g1, phi, g2) -> GroupElement:
        """The realized block matrix of the triple (g1, phi, g2).

        No check calls it; it stays as a benchmark tracer target and as the
        scalar oracle of the batched triple law in the tests."""
        m1 = g1.matrix if isinstance(g1, GroupElement) else g1
        m2 = g2.matrix if isinstance(g2, GroupElement) else g2
        return GroupElement(self.field, self.blocks(m1, phi, m2).tolist(),
                            check=False)

    def blocks(self, g1_rows, phis, g2_rows) -> np.ndarray:
        """The (..., m+n, m+n) index arrays [[g1, phi], [0, g2]] of triples
        given as index arrays, broadcast over their leading axes (a single
        matrix stands for every triple): the batched `triple`.  The block
        sizes and the dtype are read from the operands, so the blocks may be
        any arrays: of the expansions over F_p (`groups._expand`, which maps
        each entry to an r x r block and 0 to a zero block) they assemble
        the expansion of the block matrix.  Index arrays give int64."""
        g1_rows, phis, g2_rows = parts = [np.asarray(x) for x in
                                          (g1_rows, phis, g2_rows)]
        (m, k), (n, l) = g1_rows.shape[-2:], g2_rows.shape[-2:]
        lead = np.broadcast_shapes(*(x.shape[:-2] for x in parts))
        out = np.zeros(lead + (m + n, k + l),
                       dtype=np.result_type(np.int64, *parts))
        out[..., :m, :k] = g1_rows
        out[..., :m, k:] = phis
        out[..., m:, k:] = g2_rows
        return out

    def m_subgroup(self) -> MatrixGroup:
        """The normal subgroup of blocks [[I, phi], [0, I]], fully enumerated.
        Built on the first call and kept, like `realized`, so a gluing
        closes it once."""
        if self._m_subgroup is None:
            gens = self.blocks(np.eye(self.m, dtype=np.int64), self.M.mats,
                               np.eye(self.n, dtype=np.int64))
            self._m_subgroup = MatrixGroup(
                self.field, self.m + self.n, gens, name="M-block",
                claimed_order=self.M.module_order())
        return self._m_subgroup.enumerate()

    def factor_subgroup(self) -> MatrixGroup:
        """Block-diagonal realization of G1 x G2 inside the gluing, built on
        the first call and kept, so it is closed at most once."""
        if self._factor_subgroup is None:
            self._factor_subgroup = product_group(self.G1, self.G2,
                                                  name="G1xG2-block")
        return self._factor_subgroup

    def enumerate(self, cap: int = None) -> MatrixGroup:
        return self.realized.enumerate(cap)

    def __repr__(self):
        return f"GluingGroup({self.flavor}, m={self.m}, n={self.n})"


def semidirect_mul(gluing: GluingGroup, t1, t2):
    """(g1, phi, g2).(g1', phi', g2') = (g1 g1', g1 phi' + phi g2', g2 g2').

    The `semidirect_law` check forms this product batched, in the field's
    digit arithmetic (`groups._digit_matmul`); this scalar form stays as a
    benchmark tracer target and as the oracle of that batched check in the
    tests.  The middle entry is one product: [g1 | phi] times phi' stacked
    on g2'."""
    field = gluing.field
    g1, phi, g2 = t1
    h1, psi, h2 = t2
    m1 = g1.matrix if isinstance(g1, GroupElement) else g1
    m2 = g2.matrix if isinstance(g2, GroupElement) else g2
    n1 = h1.matrix if isinstance(h1, GroupElement) else h1
    n2 = h2.matrix if isinstance(h2, GroupElement) else h2
    if len(m1) != len(n1) or len(m2) != len(n2):
        raise ValueError("triple shapes do not match")
    new_phi = mat_mul(field, [tuple(a) + tuple(b) for a, b in zip(m1, phi)],
                      tuple(psi) + tuple(n2))
    return (GroupElement(field, mat_mul(field, m1, n1), check=False),
            new_phi,
            GroupElement(field, mat_mul(field, m2, n2), check=False))


def _first_outside(M, moved):
    """(generator, basis index) of the first matrix of the (generators,
    basis, m, n) array `moved` outside the module M, or None."""
    inside = M.contains(moved)
    if inside.all():
        return None
    return tuple(np.argwhere(~inside)[0].tolist())


def _validate_closure(G1, G2, M):
    """Every g.phi and phi.g of a generator and a basis matrix lies in M; the
    products of each side are formed together (`index_matmul`)."""
    field, basis = M.field, M.mats[None]
    bad = _first_outside(M, index_matmul(
        field, G1.generator_rows[:, None], basis))
    if bad:
        raise BimoduleClosureError(
            f"left action violates closure: generator #{bad[0]} of "
            f"{G1.name or 'G1'} times basis matrix #{bad[1]}")
    bad = _first_outside(M, index_matmul(
        field, basis, G2.generator_rows[:, None]))
    if bad:
        raise BimoduleClosureError(
            f"right action violates closure: basis matrix #{bad[1]} "
            f"times generator #{bad[0]} of {G2.name or 'G2'}")


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

def _cell_module(field, m, n, cells, basis):
    """The module with F_p-basis b E_ij, for each cell (i, j) in turn and
    each index b of `basis`: the m x n matrices b at (i, j), zero
    elsewhere."""
    i, j = np.array(list(cells), dtype=np.int64).reshape(-1, 2).T
    t = np.arange(len(i) * len(basis))
    mats = np.zeros((len(t), m, n), dtype=np.int64)
    mats[t, np.repeat(i, len(basis)), np.repeat(j, len(basis))] = \
        np.tile(basis, len(i))
    return BimoduleBasis(field, m, n, mats)


def full_hom_module(m: int, n: int, field: FieldSpec) -> BimoduleBasis:
    """Hom(W2, W1) over the field: elementary matrices times a field basis."""
    return _cell_module(field, m, n, itertools.product(range(m), range(n)),
                        [b.index for b in field.fp_basis()])


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
    return _cell_module(field, m, n, itertools.product(range(m), range(n)),
                        basis)


def _parabolic_blocks(partition):
    """(sizes, starts, block_of) of a partition of n: the block sizes, the
    first coordinate of each block, and the block index of each of the n
    coordinates."""
    sizes = list(partition)
    if any(s < 1 for s in sizes):
        raise ValueError("partition entries must be positive")
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    block_of = [bi for bi, s in enumerate(sizes) for _ in range(s)]
    return sizes, starts, block_of


def parabolic_module(partition, field: FieldSpec) -> BimoduleBasis:
    """Flag-consistent endomorphisms: block upper-triangular matrices."""
    _, _, block_of = _parabolic_blocks(partition)
    n = len(block_of)
    cells = [(i, j) for i in range(n) for j in range(n)
             if block_of[i] <= block_of[j]]
    return _cell_module(field, n, n, cells, [b.index for b in field.fp_basis()])


def scalar_line_module(n: int, field: FieldSpec) -> BimoduleBasis:
    """Scalar multiples of the identity map, one dimension per field basis
    element."""
    basis = np.array([b.index for b in field.fp_basis()], dtype=np.int64)
    return BimoduleBasis(field, n, n,
                         basis[:, None, None] * np.eye(n, dtype=np.int64))


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
    eye = np.eye(size, dtype=np.int64)
    G1 = MatrixGroup(field, size, np.roll(eye, 1, axis=0)[None],
                     name=f"C{size}", claimed_order=size)
    G2 = trivial_group(field, 1)
    # basis vector i of the module is the i-th standard column
    M = BimoduleBasis(field, size, 1, eye[:, :, None])
    return glue(G1, G2, M, flavor="thin", name=f"C{size}|xE")


def diagonal_glue(G: MatrixGroup, M: BimoduleBasis) -> GluingGroup:
    """Subgroup of pairs (g, g) glued through M; requires M closed under
    conjugation g.phi.g^(-1)."""
    if M.m != G.n or M.n != G.n:
        raise ValueError("diagonal gluing needs a square module of matching size")
    gens = G.generator_rows
    inverses = np.array([index_inverse(G.field, g) for g in gens],
                        dtype=np.int64).reshape(gens.shape)
    moved = index_matmul(G.field, index_matmul(G.field, gens[:, None],
                                               M.mats[None]), inverses[:, None])
    bad = _first_outside(M, moved)
    if bad:
        raise BimoduleClosureError(
            f"conjugation closure fails: generator #{bad[0]}, basis #{bad[1]}")
    return GluingGroup(G, G, M, flavor="diagonal", name=f"diag({G.name})x_M")


def _extend_to_basis(field, vectors, dim):
    """Extend independent columns (rows of an index array) to a full basis,
    greedily by standard vectors in index order: those at the pivot columns
    of the matrix with the vectors, then the standard vectors, as columns.
    The basis comes back as the rows of an index array."""
    m = len(vectors)
    identity = np.eye(dim, dtype=np.int64)
    pivots = rref_field(np.hstack([vectors.T, identity]), field)[1]
    return np.vstack([vectors, identity[[c - m for c in pivots[m:]]]])


def _symplectic_basis_transform(form):
    """P with P^T G P equal to the pinned J, for a nondegenerate
    alternating form with Gram matrix G: hyperbolic pairs (u, f) chosen
    greedily from a pool of index rows, the standard basis at first.  u is
    the first row of the pool, paired with the whole pool in one product;
    its partner is the first row v with <u, v> != 0, scaled to <u, f> = 1;
    the rest of the pool w becomes w - <w, f> u - <u, w> f, orthogonal to
    both, in one product of a coefficient block with [pool; u; f]."""
    field, gram, n = form.field, form.gram, form.dim
    pool, pairs = np.eye(n, dtype=np.int64), []
    while len(pool):
        u, pool = pool[0], pool[1:]
        values = index_matmul(field, index_matmul(field, u[None], gram),
                              pool.T)[0]
        hits = np.flatnonzero(values)
        if not hits.size:
            raise ValueError("gram is degenerate")
        k = hits[0]
        f = field.multiply(field.inv(int(values[k])), pool[k])
        pool, values = np.delete(pool, k, axis=0), np.delete(values, k)
        coeffs = np.column_stack([
            np.eye(len(pool), dtype=np.int64),
            field.negate(index_matmul(field, index_matmul(field, pool, gram),
                                      f[:, None])[:, 0]),
            field.negate(values)])
        pool = index_matmul(field, coeffs, np.vstack([pool, u, f]))
        pairs.append((u, f))
    # columns e_1..e_m then f_m..f_1 with <e_i, f_i> = 1
    es, fs = zip(*pairs)
    P = np.array(es + fs[::-1]).T
    if (form.congruent(P) != symplectic_j(n // 2, field)).any():
        raise AssertionError("symplectic basis transform failed")
    return P


def singular_form_group(form: FormSpec) -> GluingGroup:
    """Isometry group of a degenerate form, realized as the gluing of the GL
    of the radical with the isometry group of the induced nondegenerate form.

    The result lives in a new basis P listing the radical first.  The form
    moved to it (`FormSpec.moved`) is stored on the gluing, and every
    realized generator is checked to preserve it (ClaimRefuted otherwise),
    which certifies the whole realized group, since preservation is closed
    under products and inverses.  A quadratic form must vanish on the
    radical of its polar form (ValueError otherwise) to descend to the
    quotient.
    """
    field = form.field
    radical = nullspace_field(form.polar_gram(), field)
    m = len(radical)
    dim = form.dim
    n = dim - m
    if m == 0:
        raise ValueError("form is nondegenerate; use the classical group directly")
    P = _extend_to_basis(field, radical, dim).T
    moved = form.moved(P)
    if form.kind == "quadratic":
        quotient = _quadratic_on_quotient(moved, m)
    else:
        if moved.gram[:m].any() or moved.gram[:, :m].any():
            raise AssertionError("radical block not cleared by basis change")
        quotient = FormSpec(form.kind, field, gram=moved.gram[m:, m:])
    G1 = gl_group(m, field)
    if n == 0:
        gluing = GluingGroup(G1, trivial_group(field, 0),
                             zero_module(m, 0, field), flavor="singular")
    else:
        if form.kind == "alternating":
            T = _symplectic_basis_transform(quotient)
            gens = index_matmul(field, index_matmul(
                field, T, sp_group(n // 2, field).generator_rows),
                index_inverse(field, T))
            G2 = MatrixGroup(field, n, gens, name=f"Sp{n}(F{field.q})~",
                             claimed_order=sp_order(n // 2, field.q))
        else:
            # enumerate the full linear group and filter; desk-scale fallback
            rows = gl_group(n, field).enumerate().rows()
            elems = rows[form_preserved(rows, quotient)]
            G2 = MatrixGroup(field, n, minimal_generators(field, elems),
                             name=f"Isom({form.kind})", elements=elems)
        gluing = glue(G1, G2, full_hom_module(m, n, field), flavor="singular")
    gluing.form = moved
    if not form_preserved(gluing.realized.generator_rows, moved).all():
        raise ClaimRefuted("realized generator does not preserve the form")
    return gluing


def _quadratic_on_quotient(moved, m):
    """The quotient of a quadratic form moved to a basis that lists the m
    radical vectors r_i of its polar form first, in its last n variables,
    renamed to the first n.

    The moved form has no term in the first m variables exactly when the
    form vanishes on the radical: its coefficient of y_i^2 is Q(r_i), and of
    y_i y_j (i < m) the polar value at r_i, which is 0.  On the radical Q is
    additive and Q(c r) = c^2 Q(r), so it vanishes there when it vanishes at
    the basis.  Where Q(r) != 0, Q(r + w) = Q(r) + Q(w) differs from Q(w),
    so Q is no function on the quotient (ValueError)."""
    field, space = moved.field, moved.quadratic.space
    terms = moved.quadratic._terms
    if any(any(e[:m]) for e in terms):
        raise ValueError("quadratic form does not vanish on the radical of "
                         "its polar form, so it does not descend to the "
                         "quotient")
    return FormSpec("quadratic", field, quadratic=Polynomial(
        VariableSpace(field, space.names[:space.dim - m]),
        {e[m:]: c for e, c in terms.items()}))
