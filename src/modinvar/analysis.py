"""Transfer maps, invariant-dimension linear algebra, Hilbert series of
claimed ring structures, and the exact-identity verification suite.

Every identity check expands both sides as exact polynomials; a failure
always carries a concrete witness (the nonzero difference).
"""

from __future__ import annotations

import math

import numpy as np

from modinvar.gfq import build_field
from modinvar.gluing import GluingGroup, full_hom_module, glue
from modinvar.groups import (BudgetExceeded, MatrixGroup, NotEnumeratedError,
                             _keys, _rows, _sorted_unique, unipotent_upper)
from modinvar.invariants import (GeneratorFamily, _as_field, dickson_in,
                                 dickson_via_moore, n_k, orbit_product,
                                 partial_dickson, psi_substitute, span_basis,
                                 subspace_product, symplectic_l_names,
                                 u_tilde, xi, xi_power)
# in_row_space is unused here; the benchmark's tracer self-test binds it
from modinvar.linalg import (_matrix_dtype, fp_expand_coo,
                             in_reduced_row_space, in_row_space, rref_field,
                             rref_mod_p, sparse_rank_mod_p)
from modinvar.mvpoly import (Polynomial, VariableSpace, _act_sum,
                             _combine_keys, _key_weights, _stack,
                             _term_arrays, gluing_space, monomial_array,
                             symplectic_space)


class VerificationReport:
    """Outcome of a named check: pass/fail/skipped, witness on failure."""

    def __init__(self, check, params, status, witness=None, notes=None):
        if status == "fail" and witness is None:
            raise ValueError("fail reports must carry a witness")
        self.check = check
        self.params = dict(params)
        self.status = status
        self.witness = witness
        self.millis = 0.0
        self.notes = notes

    @property
    def passed(self):
        return self.status == "pass"

    def to_dict(self):
        out = {"check": self.check, "params": self.params, "status": self.status,
               "millis": round(self.millis, 3)}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.notes:
            out["notes"] = self.notes
        return out

    def __repr__(self):
        tail = f" [{self.witness}]" if self.witness else ""
        return f"{self.check}{self.params}: {self.status}{tail}"


def _difference_witness(diff: Polynomial) -> str:
    text = repr(diff)
    if len(text) <= 400:
        return f"difference = {text}"
    e, c = diff.leading_term()
    return (f"difference has {len(diff)} terms, degree {diff.degree()}, "
            f"leading term exponents {e} coefficient {c}")


def _identity_report(name, params, lhs, rhs, notes=None):
    diff = lhs - rhs
    if diff.is_zero():
        return VerificationReport(name, params, "pass", notes=notes)
    return VerificationReport(name, params, "fail",
                              witness=_difference_witness(diff), notes=notes)


# -- transfer --

def transfer(polys, group: MatrixGroup) -> list:
    """Tr(f) = sum of f.g over all group elements, for each f of polys (of
    one space) in order: every (f, index row) pair is a job of the kernel's
    driver, a bounded block of them per call, summed and decoded once
    (`mvpoly._act_sum`).  The tests keep the loop of `_substitute` images
    over the elements as its oracle."""
    if not group.is_enumerated:
        raise NotEnumeratedError("transfer needs an enumerated group")
    return _act_sum(polys, group.rows())


def transfer_factorization_check(polys,
                                 gluing: GluingGroup) -> VerificationReport:
    """Tr over the glued group equals Tr over G1 x G2 composed with Tr over
    M, for each f of polys: the glued group, the M-block and the G1 x G2
    block are enumerated once, and three `transfer` calls form both sides
    of every f.  The first f whose sides differ is reported."""
    whole = gluing.enumerate()
    msub = gluing.m_subgroup()
    factors = gluing.factor_subgroup().enumerate()
    lhs = transfer(polys, whole)
    rhs = transfer(transfer(polys, msub), factors)
    for f, left, right in zip(polys, lhs, rhs):
        if left != right:
            return _identity_report("transfer_factorization",
                                    {"f": repr(f)}, left, right)
    return VerificationReport("transfer_factorization", {}, "pass",
                              notes=f"{len(polys)} polynomials checked")


def _translation_structure(group: MatrixGroup, m: int, n: int):
    """If every element fixes the last n variables and shifts each of the
    first m variables independently by a form in the last n, return the m
    per-variable translation sets (as sorted coefficient tuples); else None.
    Read off the group's index array: identity rows, then the distinct
    translation rows of each variable."""
    rows = group.rows()
    eye = np.eye(m + n, dtype=np.int64)
    if not ((rows[:, m:] == eye[m:]).all() and
            (rows[:, :m, :m] == eye[:m, :m]).all()):
        return None
    sets = []
    for i in range(m):
        shifts = _sorted_unique(_keys(rows[:, i, m:]))
        sets.append([tuple(row) for row in
                     _rows(group.field, shifts, n).tolist()])
    sizes = 1
    for s in sets:
        sizes *= len(s)
    if sizes != group.order():
        return None
    return sets


class TransferImage:
    """Per-degree row-space bases of {Tr(monomial)}: `bases[d]` holds the
    basis polynomials of degree d, read off `reduced[d]`, the reduced row
    echelon form of the degree-d transfers (GF(q) index rows over the
    degree-d monomials, grevlex-descending).  It keeps the group and space
    it was built from and their translation sums (`sums`, None without a
    translation split), so that further degrees extend the same sums."""

    def __init__(self, group, space, sums, bases, reduced):
        self.group = group
        self.space = space
        self.sums = sums
        self.bases = bases  # degree -> list of (reduced) Polynomials
        self.reduced = reduced  # degree -> index array, a row per polynomial


def _monomial_keys(dim, d):
    """The degree-d monomials in dim variables (`monomial_array`) and the
    weights (d + 1)^i of their packed keys (`mvpoly._key_weights`), which
    increase along the rows."""
    return monomial_array(dim, d), _key_weights(d + 1, dim)


def _scatter(monos, weights, nrows, rows, keys, values, dtype):
    """The (nrows, len(monos)) index matrix with each value in its row and
    in the column of the monomial with its packed key (`_monomial_keys`);
    rows, keys and values are lists of arrays, concatenated."""
    matrix = np.zeros((nrows, len(monos)), dtype=dtype)
    if nrows:
        matrix[np.concatenate(rows), np.searchsorted(
            monos @ weights, np.concatenate(keys))] = np.concatenate(values)
    return matrix


def _rows_to_polys(space, monos, reduced):
    """The polynomials of nonzero index rows over the exponent rows monos."""
    rows, cols = np.nonzero(reduced)
    values = reduced[rows, cols].tolist()
    terms = list(zip(*monos[cols].T.tolist()))
    out, start = [], 0
    for end in np.searchsorted(rows, np.arange(1, len(reduced) + 1)).tolist():
        out.append(Polynomial(space, dict(zip(terms[start:end],
                                              values[start:end]))))
        start = end
    return out


def _shift_basis(field, shifts):
    """An F_p-basis of one y's shift set (distinct coefficient tuples), the
    greedy one: the shifts at the pivot columns of their digit columns.  None
    when the set is not its span, that is unless |set| = p^rank."""
    digits = field.digits(shifts).reshape(len(shifts), -1)
    pivots = rref_mod_p(digits.T, field.p)[1]
    return [shifts[c] for c in pivots] \
        if field.p ** len(pivots) == len(shifts) else None


class TranslationSums:
    """The translation structure of a group (`_translation_structure`) and
    the sums over it that a transfer image is assembled from: the factor
    sums sum_u (y_i + u)^b in closed form, and the orbit sums of the
    y-exponents, stacked and memoized by degree (each y-exponent has one
    degree).  One instance serves every degree of one transfer image;
    `structure` is None when the group is not a product of independent
    translations.

    The closed form.  g -> (shift of y_i) is a homomorphism into
    (F_q^n, +), so the shifts U_i of y_i are an F_p-subspace, with a basis
    of linear forms l_1..l_s in the x's whose coefficient tuples are
    `bases[i]`: U_i = {c_1 l_1 + ... + c_s l_s : c in F_p^s}.  Let T^j_b be
    the sum of (y_i + u)^b over the span of l_1..l_j; T^0_b = y_i^b, and
    factor(i, b) = T^s_b.  Splitting u = u' + c l_j and expanding binomially,

        T^j_b = sum_k C(b, k) T^(j-1)_(b-k) l_j^k sum_(c in F_p) c^k.

    For k = 0 the inner sum S is p = 0.  For k > 0, 0^k = 0 and the nonzero
    c form a cyclic group of order p - 1.  If (p - 1) | k, every c^k = 1 and
    S = p - 1 = -1.  Otherwise some a has a^k != 1, and a^k S =
    sum (a c)^k = S, so S = 0.  Hence

        T^j_b = -sum_(k > 0, (p-1) | k) C(b, k) T^(j-1)_(b-k) l_j^k,

    and by Lucas' theorem only the k whose base-p digits lie under those of
    b have C(b, k) != 0 mod p.  The T^j_b are memoized by (i, j, b) and
    formed only where asked for, so the sums extend lazily past any degree;
    the tests keep the direct sum_u (y_i + u)^b as the oracle."""

    def __init__(self, group: MatrixGroup, space: VariableSpace, m: int):
        self.space = space
        self.structure = _translation_structure(group, m, space.dim - m)
        self._blocks, self._sums = {}, {}
        if self.structure is None:
            return
        self.bases = [_shift_basis(space.field, u) for u in self.structure]
        if None in self.bases:
            self.structure = None
            return
        # per y and basis form l, its powers l^(t (p - 1)) for t = 0, 1, ...
        self._form_powers = [[[space.one(), sum(
            map(Polynomial.scale, space.variables()[m:], offsets),
            space.zero()) ** (space.field.p - 1)] for offsets in basis]
            for basis in self.bases]

    def _sum(self, i, j, b):
        """T^j_b of y_i (see the class docstring)."""
        if (i, j, b) not in self._sums:
            if j == 0:
                got = self.space.monomial([b * (t == i)
                                           for t in range(self.space.dim)])
            else:
                p = self.space.field.p
                powers = self._form_powers[i][j - 1]
                got = self.space.zero()
                for t in range(1, b // (p - 1) + 1):
                    c = math.comb(b, t * (p - 1)) % p
                    prev = self._sum(i, j - 1, b - t * (p - 1)) if c else None
                    if prev:
                        while len(powers) <= t:
                            powers.append(powers[-1] * powers[1])
                        got = got + (prev * powers[t]).scale(p - c)
            self._sums[i, j, b] = got
        return self._sums[i, j, b]

    def factor(self, i, b):
        """sum over the translations u of y_i of (y_i + u)^b, T^s_b of the
        class docstring."""
        return self._sum(i, len(self.bases[i]), b)

    def orbit_sum(self, ypowers):
        """sum over the translation group of prod_i (y_i + u_i)^(b_i), factor
        by factor; valid because the translations are independent."""
        got = self.space.one()
        for i, b in enumerate(ypowers):
            got = got * self.factor(i, b)
        return got

    def orbit_block(self, s):
        """The nonzero orbit sums of the y-exponents of degree s, stacked:
        (exponents, coefficients, the sum each term belongs to, number of
        sums), or None when every sum vanishes; memoized by s.  Only
        products of nonzero factor sums are formed, which are nonzero."""
        if s not in self._blocks:
            exps = [()]
            for i in range(len(self.structure)):
                live = [b for b in range(s + 1) if self.factor(i, b)]
                exps = [a + (b,) for a in exps for b in live
                        if sum(a) + b <= s]
            polys = [self.orbit_sum(a) for a in exps if sum(a) == s]
            self._blocks[s] = _stack(polys) + (len(polys),) if polys else None
        return self._blocks[s]


def transfer_image_degree(group: MatrixGroup, space: VariableSpace, d: int,
                          m_split=None, sums: TranslationSums = None):
    """Row-space basis of {Tr(monomial) : monomial of degree d}, as (basis
    polynomials, their reduced index rows).  With m_split, `sums` (built
    here when not given) carries the translation structure and the orbit
    sums shared with other degrees.  The rows come from
    `_reduced_transfers`."""
    monos, _, reduced = _reduced_transfers(group, space, d, m_split, sums)
    return _rows_to_polys(space, monos, reduced), reduced


def _reduced_transfers(group, space, d, m_split=None, sums=None):
    """(the degree-d monomials and their key weights (`_monomial_keys`),
    the reduced index rows of their transfers) for `transfer_image_degree`
    and for tau's degree in `principal_transfer_check`, which writes tau's
    row over the same monomials.

    The transfers go into one index matrix, a row for each nonzero one and
    a column for each degree-d monomial, grevlex-descending; a term's column
    is found from its packed key (`_monomial_keys`) by `searchsorted`.
    Under a translation structure the transfer of y^a x^c is the orbit sum
    of a times x^c, so each stacked block of orbit sums of degree s is
    shifted by all x-parts of degree d - s at once.  Otherwise one
    `transfer` call forms the transfers of all degree-d monomials, as
    polynomials of one term each."""
    if not group.is_enumerated:
        raise NotEnumeratedError("transfer image needs an enumerated group")
    field = space.field
    monos, weights = _monomial_keys(space.dim, d)
    if m_split is not None and sums is None:
        sums = TranslationSums(group, space, m_split)
    rows, keys, values = [], [], []
    nrows = 0
    if sums is not None and sums.structure is not None:
        m = len(sums.structure)
        for s in range(d + 1):
            block = sums.orbit_block(s)
            if block is None:
                continue
            exps, coeffs, owner, count = block
            xkeys = monomial_array(space.dim - m, d - s) @ weights[m:]
            shift = np.arange(len(xkeys))[:, None]
            rows.append((nrows + owner * len(xkeys) + shift).ravel())
            keys.append((exps @ weights + xkeys[:, None]).ravel())
            values.append(np.broadcast_to(coeffs, (len(xkeys), len(coeffs)))
                          .ravel())
            nrows += count * len(xkeys)
    elif len(monos):
        # the nonzero transfers of the monomials
        sums = [f for f in transfer(list(map(space.monomial, monos.tolist())),
                                    group) if f]
        if sums:
            exps, coeffs, owner = _stack(sums)
            rows.append(owner)
            keys.append(exps @ weights)
            values.append(coeffs)
            nrows = len(sums)
    matrix = _scatter(monos, weights, nrows, rows, keys, values,
                      _matrix_dtype(field))
    return monos, weights, rref_field(matrix, field)[0]


def transfer_image_basis(group: MatrixGroup, space: VariableSpace, D: int,
                         m_split=None) -> TransferImage:
    sums = None
    if m_split is not None and group.is_enumerated:
        sums = TranslationSums(group, space, m_split)
    bases, reduced = {}, {}
    for d in range(D + 1):
        bases[d], reduced[d] = transfer_image_degree(
            group, space, d, m_split=m_split, sums=sums)
    return TransferImage(group, space, sums, bases, reduced)


def principal_transfer_check(image: TransferImage, tau: Polynomial
                             ) -> VerificationReport:
    """Every image basis element is exactly divisible by tau, and tau itself
    lies in the image row space at its degree, tested against the reduced
    rows of that degree (`in_reduced_row_space`); past the image's degree
    bound those rows are built from the image's own group and sums."""
    params = {"tau_degree": tau.degree()}
    for d, polys in sorted(image.bases.items()):
        for poly in polys:
            if not tau.divides(poly):
                return VerificationReport(
                    "transfer_principal", params, "fail",
                    witness=f"image element of degree {d} not divisible: "
                            f"{_difference_witness(poly)}")
    dtau = tau.degree()
    reduced = image.reduced.get(dtau)
    if reduced is None:
        monos, weights, reduced = _reduced_transfers(
            image.group, image.space, dtau, sums=image.sums)
    else:
        monos, weights = _monomial_keys(image.space.dim, dtau)
    exps, coeffs = _term_arrays(tau)
    vector = _scatter(monos, weights, 1, [np.zeros_like(coeffs)],
                      [exps @ weights], [coeffs], _matrix_dtype(image.space.field))
    if not in_reduced_row_space(vector, reduced, image.space.field)[0]:
        return VerificationReport("transfer_principal", params, "fail",
                                  witness="tau is not attained in the image "
                                          f"row space at degree {dtau}")
    return VerificationReport("transfer_principal", params, "pass")


# -- invariant dimensions and Hilbert series --

MAX_KERNEL_MONOMIALS = 20000
# Bound on n times the entries of one S^(d-1)(g), the size of the arrays a
# degree step builds; the bundled scenarios and the benchmark reach 423,840.
MAX_STEP_ENTRIES = 10 ** 6


class SymmetricPowers:
    """The symmetric powers S^d(g) of a group's generators, built one degree
    on from the last, so that one instance serves every degree of a Hilbert
    check.

    Row k of S^d(g) is the image under g of the k-th degree-d monomial (the
    variable x_i goes to the linear form with row i of g, as in
    `Polynomial.act`).  Writing the monomial as x_i e, with x_i its first
    variable, its image is (row i of g) times the image of e:

        S^d(g)[x_i e] = sum_j g[i, j] x_j S^(d-1)(g)[e].

    So a degree step gathers the parent rows' entries, scatters each through
    the "multiply by x_j" index map of every j with g[i, j] != 0, multiplies
    its value by g[i, j] (`FieldSpec.multiply`), and sums equal positions
    (`_combine_keys`).  Each S^d(g) is a COO triple (rows, cols, values)
    sorted by row and column, its values int64 coefficient indices, the same
    for every GF(q).  The degree-d monomials are the distinct products
    x_j e of the degree-(d-1) ones, lexicographically descending, so that
    the leading column of a kernel row is its lex-greatest monomial; at
    degree 30 of the Sylow subgroup of Sp4(F3) that halves the time of the
    elimination against ascending order.

    `MAX_KERNEL_MONOMIALS` bounds the monomials of any degree asked for
    (`at`), before any array of that degree is built, and
    `MAX_STEP_ENTRIES` bounds n times the entries of each S^(d-1)(g) before
    the step to degree d, so that a dense generator reports `skipped`
    instead of filling memory."""

    def __init__(self, group: MatrixGroup):
        self.field = group.field
        self.n = group.n
        self._mats = list(group.generator_rows)
        self._reset()

    def _reset(self):
        self.degree = 0
        self._exps = np.zeros((1, self.n), dtype=np.int64)
        zero, one = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
        self._powers = [(zero, zero, one) for _ in self._mats]

    def at(self, d: int):
        """(K, powers): the number K of degree-d monomials and, for each
        generator, S^d(g) as (rows, cols, values).  Raises BudgetExceeded
        when K is over MAX_KERNEL_MONOMIALS or a step is over
        MAX_STEP_ENTRIES."""
        size = math.comb(self.n + d - 1, d)
        if size > MAX_KERNEL_MONOMIALS:
            raise BudgetExceeded(
                f"degree {d} needs {size} monomials, over the "
                f"{MAX_KERNEL_MONOMIALS} budget")
        if not size or not self._mats:
            return size, []
        if d < self.degree:
            self._reset()
        while self.degree < d:
            entries = self.n * max(len(rows) for rows, _, _ in self._powers)
            if entries > MAX_STEP_ENTRIES:
                raise BudgetExceeded(
                    f"degree {self.degree + 1} needs {entries} symmetric-power "
                    f"entries, over the {MAX_STEP_ENTRIES} budget")
            self._step()
        return size, self._powers

    def _step(self):
        n, field = self.n, self.field
        moved = (self._exps[:, None, :] + np.eye(n, dtype=np.int64)) \
            .reshape(-1, n)
        # lex descending: the last lexsort key, column 0, sorts first
        order = np.lexsort(-moved[:, ::-1].T)
        moved = moved[order]
        fresh = np.ones(len(moved), dtype=bool)
        fresh[1:] = (moved[1:] != moved[:-1]).any(axis=1)
        exps = moved[fresh]
        times = np.empty(len(moved), dtype=np.int64)
        times[order] = np.cumsum(fresh) - 1
        times = times.reshape(len(self._exps), n)
        size = len(exps)
        first = np.argmax(exps > 0, axis=1)
        parent = np.empty(size, dtype=np.int64)
        a, j = np.nonzero(first[times] == np.arange(n))
        parent[times[a, j]] = a
        powers = []
        for g, (rows, cols, values) in zip(self._mats, self._powers):
            counts = np.bincount(rows, minlength=len(self._exps))
            starts = np.cumsum(counts) - counts
            seg = counts[parent]
            owner = np.repeat(np.arange(size), seg)
            # entry t of the parent row of row m sits at starts[parent[m]] + t
            src = np.arange(len(owner)) + np.repeat(
                starts[parent] - (np.cumsum(seg) - seg), seg)
            e, j = np.nonzero(g[first[owner]])
            src, owner = src[e], owner[e]
            keys, sums = _combine_keys(
                owner * size + times[cols[src], j],
                field.multiply(g[first[owner], j], values[src]), field)
            powers.append((keys // size, keys % size, sums))
        self._exps, self._powers = exps, powers
        self.degree += 1


def invariant_dimension(group: MatrixGroup, d: int,
                        powers: SymmetricPowers = None) -> int:
    """Dimension of the degree-d homogeneous invariants: K minus the rank of
    the stacked maps S^d(g) - I over the K monomials of degree d.

    The rank is taken over F_p on the transposed stack, one row per
    generator and monomial (`linalg.fp_expand_coo`, `sparse_rank_mod_p`);
    the GF(q) rank is the F_p rank divided by r.  `powers` (built here when
    not given) carries the symmetric powers shared with other degrees."""
    if d == 0:
        return 1
    if powers is None:
        powers = SymmetricPowers(group)
    size, blocks = powers.at(d)
    if not blocks:
        return size
    field = group.field
    diagonal = np.arange(size)
    minus_one = np.full(size, field.neg(1))
    rows, cols, digits = [], [], []
    for gi, (k, c, values) in enumerate(blocks):
        keys, values = _combine_keys(
            np.concatenate((c * size + k, diagonal * (size + 1))),
            np.concatenate((values, minus_one)), field)
        rows.append(keys // size + gi * size)
        cols.append(keys % size)
        digits.append(field.digits(values))
    rank = sparse_rank_mod_p(*fp_expand_coo(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(digits),
        field), field.p)
    return size - rank // field.r


class HilbertClaim:
    """Hilbert series of a claimed complete-intersection (or polynomial)
    structure: prod(1-t^e_j) / prod(1-t^d_i)."""

    def __init__(self, generator_degrees, relation_degrees=()):
        self.generator_degrees = sorted(generator_degrees)
        self.relation_degrees = sorted(relation_degrees or [])

    def series(self, bound: int):
        coeffs = [0] * (bound + 1)
        coeffs[0] = 1
        for e in self.relation_degrees:
            if e <= bound:
                for k in range(bound, e - 1, -1):
                    coeffs[k] -= coeffs[k - e]
        for d in self.generator_degrees:
            for k in range(d, bound + 1):
                coeffs[k] += coeffs[k - d]
        return coeffs

    def consistent(self, bound: int):
        """Index of the first negative coefficient, or None."""
        for k, c in enumerate(self.series(bound)):
            if c < 0:
                return k
        return None


def hilbert_check(claim: HilbertClaim, group: MatrixGroup,
                  D: int) -> VerificationReport:
    params = {"generators": claim.generator_degrees,
              "relations": claim.relation_degrees, "D": D}
    bad = claim.consistent(D)
    if bad is not None:
        return VerificationReport("hilbert", params, "fail",
                                  witness=f"series coefficient negative at "
                                          f"degree {bad}")
    series = claim.series(D)
    powers = SymmetricPowers(group)
    for d in range(D + 1):
        actual = invariant_dimension(group, d, powers)
        if actual != series[d]:
            return VerificationReport(
                "hilbert", params, "fail",
                witness=f"degree {d}: claimed dimension {series[d]}, "
                        f"invariant dimension {actual}")
    return VerificationReport("hilbert", params, "pass")


def degree_product_check(fam: GeneratorFamily,
                         group: MatrixGroup = None) -> VerificationReport:
    """Nakajima-style certificate: the degree product of a claimed polynomial
    generating set must equal the group order."""
    if fam.structure != "polynomial_algebra":
        raise ValueError("degree product certificate needs a polynomial claim")
    group = group or fam.group
    prod = fam.degree_product()
    order = group.order()
    params = {"family": fam.name, **fam.params}
    if prod == order:
        return VerificationReport("degree_product", params, "pass")
    return VerificationReport("degree_product", params, "fail",
                              witness=f"degree product {prod} != group order "
                                      f"{order}")


# -- the identity suite --

def _check_u_lem(m, k, i, j, q):
    field_q = q
    sp = symplectic_space_from_q(q, m)
    qq = sp.field.q
    lhs = sp.zero()
    for s in range(1, k + 1):
        lhs = lhs + sp.variable(f"x{s}") ** (qq ** i) * \
            n_k(sp.variable(f"y{s}"), k, m, q) ** (qq ** j)
    ell = 2 * m - k
    rhs = sp.zero()
    for l2 in range(ell + 1):
        idx = ell - i - l2 + j
        xp = xi_power(m, q, idx, i)
        if xp.is_zero():
            continue
        rhs = rhs + xp * partial_dickson(l2, ell, m, q) ** (qq ** j)
    return lhs, rhs


def symplectic_space_from_q(q, m):
    return symplectic_space(_as_field(q), m)


def _nbar(sp, k, form):
    """prod over the F_q-span of x1..xk of (form - u); the span is symmetric
    under negation, so this is the plain orbit product."""
    return orbit_product(form, span_basis(
        [sp.variable(f"x{jj}") for jj in range(1, k + 1)]))


def _xibar(m, k, i, q):
    sp = symplectic_space_from_q(q, m)
    qq = sp.field.q
    acc = sp.zero()
    for j in range(k + 1, m + 1):
        nx = _nbar(sp, k, sp.variable(f"x{j}"))
        ny = _nbar(sp, k, sp.variable(f"y{j}"))
        acc = acc + nx * ny ** (qq ** i) - ny * nx ** (qq ** i)
    return acc


def _check_xib(m, i, q):
    """k = 1 specialization: xibar_i = xi_i^q - xi_(i+1) x1^(q-1)
    - xi_(i-1)^q x1^((q-1)q^i) + xi_i x1^((q-1)(q^i+1))."""
    sp = symplectic_space_from_q(q, m)
    qq = sp.field.q
    x1 = sp.variable("x1")
    lhs = _xibar(m, 1, i, q)
    rhs = (xi_power(m, q, i, 1)
           - xi_power(m, q, i + 1, 0) * x1 ** (qq - 1)
           - xi_power(m, q, i - 1, 1) * x1 ** ((qq - 1) * qq ** i)
           + xi_power(m, q, i, 0) * x1 ** ((qq - 1) * (qq ** i + 1)))
    return lhs, rhs


def _check_xib_general(k, m, i, q):
    """The double-sum expansion of xibar_i over all pairs, read through the
    xi_0 = 0 and xi_(-a) conventions."""
    sp = symplectic_space_from_q(q, m)
    qq = sp.field.q
    lhs = _xibar(m, k, i, q)
    rhs = sp.zero()
    for l2 in range(k + 1):
        for s in range(k + 1):
            idx = l2 - s + i
            if idx == 0:
                continue
            xp = xi_power(m, q, idx, k - l2)
            rhs = rhs + xp * partial_dickson(l2, k, m, q) * \
                partial_dickson(s, k, m, q) ** (qq ** i)
    return lhs, rhs


def _check_eapg(m, q):
    sp = symplectic_space_from_q(q, m)
    lhs = xi(m, q, m)
    rhs = sp.zero()
    for j in range(1, m + 1):
        rhs = rhs + sp.variable(f"x{j}") * n_k(sp.variable(f"y{j}"), m, m, q)
    for i in range(1, m):
        rhs = rhs - xi(m, q, i) * partial_dickson(m - i, m, m, q)
    return lhs, rhs


def _check_ck_sp4(q):
    sp = symplectic_space_from_q(q, 2)
    qq = sp.field.q
    xi1, xi2, xi3 = xi(2, q, 1), xi(2, q, 2), xi(2, q, 3)
    names = symplectic_l_names(2)
    d14 = dickson_in(sp, names, 1)
    d24 = dickson_in(sp, names, 2)
    lhs = xi3 ** qq + d14 * xi2 ** qq + d24 * xi1 ** qq
    rhs = xi1 * (xi1 ** (qq ** 2 + 1) - xi2 ** (qq + 1) + xi1 ** qq * xi3) ** (qq - 1)
    return lhs, rhs


def u4_gluing(p):
    """U2 x_M U2 over F_p with M the full 2 x 2 hom module: the glued
    unipotent group of the transfer example and its identities."""
    field = build_field(p)
    return glue(unipotent_upper(2, field), unipotent_upper(2, field),
                full_hom_module(2, 2, field))


def _check_wilkerson_d33(p):
    gluing = u4_gluing(p)
    sp = gluing_space(gluing.field, 2, 2)
    y1 = sp.variable("y1")
    psi_v = psi_substitute(y1 ** (p - 1), gluing)
    d33 = dickson_in(sp, ["x1", "x2", "y1"], 3)
    d22 = dickson_in(sp, ["x1", "x2"], 2)
    return d33, -(d22 * psi_v)


def _check_transfer_delta(p, sign=-1):
    """tau psi(u) psi(v) = sign * delta with tau = d_{2,2}^2,
    u = d_{1,1}(x1), v = d_{1,1}(y1), delta = d_{1,1} d_{2,2} d_{3,3}."""
    gluing = u4_gluing(p)
    sp = gluing_space(gluing.field, 2, 2)
    tau = dickson_in(sp, ["x1", "x2"], 2) ** 2
    u = dickson_in(sp, ["x1"], 1)
    v = dickson_in(sp, ["y1"], 1)
    delta = dickson_in(sp, ["x1"], 1) * dickson_in(sp, ["x1", "x2"], 2) * \
        dickson_in(sp, ["x1", "x2", "y1"], 3)
    lhs = tau * psi_substitute(u, gluing) * psi_substitute(v, gluing)
    rhs = delta.scale(sign)
    return lhs, rhs


def _check_nk_expansion(k, m, q):
    field = _as_field(q)
    base = symplectic_space(field, m)
    ext = VariableSpace(field, list(base.names) + ["T"])
    T = ext.variable("T")
    ell = 2 * m - k
    lhs = subspace_product(ext, symplectic_l_names(m)[:ell], T)
    qq = field.q
    rhs = ext.zero()
    for j in range(ell + 1):
        rhs = rhs + T ** (qq ** (ell - j)) * dickson_in(
            ext, symplectic_l_names(m)[:ell], j)
    notes = None
    if field.r > 1:
        p_rhs = ext.zero()
        for j in range(ell + 1):
            p_rhs = p_rhs + T ** (field.p ** (ell - j)) * dickson_in(
                ext, symplectic_l_names(m)[:ell], j)
        if p_rhs != lhs:
            notes = ("p-power exponent reading fails for r > 1; "
                     "the q-power reading is the verified one")
    return lhs, rhs, notes


def _check_para_action(q):
    field = _as_field(q)
    sp = gluing_space(field, 2, 2)
    y1, y2, x1, x2 = (sp.variable(v) for v in ("y1", "y2", "x1", "x2"))
    qq = field.q
    N1y1 = orbit_product(y1, span_basis([x1, x2]))
    N2y2 = orbit_product(y2, span_basis([x2]))
    g = np.eye(4, dtype=np.int64)
    g[0, 1] = 1
    lhs = N1y1.act(g)
    d12 = dickson_in(sp, ["x1", "x2"], 1)
    rhs = N1y1 + N2y2 ** qq + (d12 + x2 ** (qq * (qq - 1))) * N2y2
    return lhs, rhs


def _check_utilde(m, q, j):
    sp = symplectic_space_from_q(q, m)
    qq = sp.field.q
    lhs = u_tilde(m, q, j)
    rhs = sp.zero()
    if j == 0:
        for i in range(1, m + 1):
            rhs = rhs + xi_power(m, q, i, 0) * partial_dickson(m - i, m, m, q)
    elif j > 0:
        for i in range(0, m - j):
            rhs = rhs + xi_power(m, q, m - i - j, j) * partial_dickson(i, m, m, q)
        for i in range(m - j + 1, m + 1):
            rhs = rhs - xi_power(m, q, i + j - m, m - i) * \
                partial_dickson(i, m, m, q)
    else:
        a = -j
        for i in range(0, m + 1):
            rhs = rhs + xi_power(m, q, m + a - i, 0) * \
                partial_dickson(i, m, m, q) ** (qq ** a)
    return lhs, rhs


def _check_xi31_gl1(m, q):
    sp = symplectic_space_from_q(q, m)
    qq = sp.field.q
    x1 = sp.variable("x1")
    n1y1 = n_k(sp.variable("y1"), 1, m, q)
    lhs1 = x1 * n1y1
    rhs1 = sp.zero()
    for l2 in range(2 * m):
        xp = xi_power(m, q, 2 * m - 1 - l2, 0)
        if xp.is_zero():
            continue
        rhs1 = rhs1 + xp * partial_dickson(l2, 2 * m - 1, m, q)
    diff1 = lhs1 - rhs1
    if not diff1.is_zero():
        return lhs1, rhs1
    lhs2 = dickson_in(sp, symplectic_l_names(m), 1)
    rhs2 = partial_dickson(1, 2 * m - 1, m, q) ** qq - n1y1 ** (qq - 1)
    return lhs2, rhs2


def _check_dickson_routes(n, q):
    """Three independent routes to the Dickson invariants of x1..xn: the
    q-linearized recursion, the Moore-determinant quotients, and the
    literal product over the F_q-span, prod (T + v) = sum_i T^(q^(n-i)) d_i
    (`subspace_product`)."""
    field = _as_field(q)
    names = [f"x{i}" for i in range(1, n + 1)]
    sp = VariableSpace(field, names + ["T"])
    T = sp.variable("T")
    total = sp.zero()
    for i in range(n + 1):
        a = dickson_in(sp, names, i)
        b = dickson_via_moore(sp, names, i)
        if a != b:
            return a, b
        total = total + T ** (field.q ** (n - i)) * a
    return subspace_product(sp, names, T), total


IDENTITY_CHECKS = {
    "u_lem": (_check_u_lem, ("m", "k", "i", "j", "q")),
    "xib": (_check_xib, ("m", "i", "q")),
    "xib_general": (_check_xib_general, ("k", "m", "i", "q")),
    "eapg_relation": (_check_eapg, ("m", "q")),
    "ck_sp4": (_check_ck_sp4, ("q",)),
    "wilkerson_d33": (_check_wilkerson_d33, ("p",)),
    "transfer_delta": (_check_transfer_delta, ("p", "sign")),
    "nk_expansion": (_check_nk_expansion, ("k", "m", "q")),
    "para_action": (_check_para_action, ("q",)),
    "utilde_rewrite": (_check_utilde, ("m", "q", "j")),
    "xi31_gl1": (_check_xi31_gl1, ("m", "q")),
    "dickson_routes": (_check_dickson_routes, ("n", "q")),
}


def identity_suite(name: str, params: dict) -> VerificationReport:
    """Run one named exact identity check; both sides expand fully."""
    if name not in IDENTITY_CHECKS:
        raise ValueError(f"unknown identity {name!r}; known: "
                         f"{sorted(IDENTITY_CHECKS)}")
    fn, argnames = IDENTITY_CHECKS[name]
    kwargs = {}
    for a in argnames:
        if a in params:
            kwargs[a] = params[a]
    missing = [a for a in argnames if a not in kwargs and a != "sign"]
    if missing:
        raise ValueError(f"identity {name} missing parameters {missing}")
    out = fn(**kwargs)
    notes = None
    if len(out) == 3:
        lhs, rhs, notes = out
    else:
        lhs, rhs = out
    return _identity_report(name, params, lhs, rhs, notes=notes)
