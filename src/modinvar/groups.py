"""Matrix groups over GF(q): constructors, closure enumeration, order formulas
and bilinear/quadratic form preservation.

The symplectic convention is pinned once: ordered basis e1..em, fm..f1 with
the form matrix J = [[0, Q], [-Q, 0]] where Q is the k-by-k anti-diagonal
identity.  All symplectic constructors use it.
"""

from __future__ import annotations

import contextvars
import itertools
import math

import numpy as np

from modinvar.gfq import FieldSpec, Scalar, build_field
from modinvar.linalg import rref_field
from modinvar.mvpoly import Polynomial, fixed_by

# The budgets a run may set, at their defaults; `checks.run_check` sets a
# check's (`run_budgets`), and every read of one goes through RUN_BUDGETS.
DEFAULT_CAP = 10 ** 6
BUDGET_DEFAULTS = {"cap": DEFAULT_CAP, "degree_bound": 12}
RUN_BUDGETS = contextvars.ContextVar("run_budgets", default=BUDGET_DEFAULTS)

# Bound on the entries of one batched product array; keeps the working set of
# a closure or an order computation small whatever the group order.
CHUNK_ENTRIES = 1 << 14

# The closure maps rows through one lookup table per generator only while
# the row space F^n has at most this many vectors (`_row_table`).
TABLE_ROWS = 1 << 16


class BudgetExceeded(RuntimeError):
    """A computation would exceed its budget (an enumeration cap, a monomial
    count); `checks.run_check` reports it as skipped."""


class ClaimRefuted(AssertionError):
    """A certificate disproved a stated claim (an enumerated count against a
    claimed order, a generator against the form it should preserve);
    `checks.run_check` reports it as fail."""


class NotEnumeratedError(RuntimeError):
    """Operation requires a fully enumerated group."""


def run_budgets(budgets: dict) -> dict:
    """The defaults overridden by budgets; ValueError unless each is a known
    budget with a positive integer value."""
    for name, value in budgets.items():
        if type(value) is not int or value < 1 or name not in BUDGET_DEFAULTS:
            raise ValueError(f"bad budget {name}={value!r}: the budgets are "
                             f"{sorted(BUDGET_DEFAULTS)}, positive integers")
    return {**BUDGET_DEFAULTS, **budgets}


def field_from_order(q: int) -> FieldSpec:
    """GF(q) for a prime power q."""
    p = 2
    while p * p <= q and q % p:
        p += 1 if p == 2 else 2
    if q % p:
        p = q
    r = 0
    qq = q
    while qq > 1:
        if qq % p:
            raise ValueError(f"q = {q} is not a prime power")
        qq //= p
        r += 1
    return build_field(p, r)


# -- tuple matrices (entries are field element indices) --

def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))

def mat_mul(field, A, B):
    """A @ B entry by entry in the field's scalar arithmetic: the oracle of
    the batched `index_matmul`, called only by `GroupElement.__mul__`,
    `GroupElement.apply` and `gluing.semidirect_mul`."""
    mul, add = field.mul, field.add
    Bcols = tuple(zip(*B))
    out = []
    for row in A:
        orow = []
        for col in Bcols:
            s = 0
            for a, b in zip(row, col):
                if a and b:
                    s = add(s, mul(a, b))
            orow.append(s)
        out.append(tuple(orow))
    return tuple(out)


def format_matrix(field, A) -> str:
    return ";".join(",".join(field.format_scalar(a) for a in row) for row in A)


def parse_matrix(field: FieldSpec, text: str):
    """Inverse of `format_matrix`: rows separated by ';', entries by ','.
    Rows must have equal length; the matrix need not be square."""
    rows = []
    for rtext in text.strip().split(";"):
        rows.append(tuple(field.parse_scalar(e) for e in rtext.split(",")))
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("matrix text rows differ in length")
    return tuple(rows)


# -- batched kernel over F_p --
#
# An n x k index matrix is written over F_p as `FieldSpec.expand`: the
# r x r block of entry a has row j holding the digits of t^j a, so row 0 of
# each block row holds the digits of that row (`FieldSpec.digits`).
# Expanding is a ring homomorphism, so a product A B is read as the digit
# rows of A times the expansion of B: its rows are the digits of the rows
# of A B, which `FieldSpec.indices` folds back.  A prime field is the case
# r = 1.  The indices below p are the elements of the prime subfield F_p,
# with the same index, so matrices whose entries all lie below p are
# multiplied as matrices over F_p (r = 1), r^3 times fewer flops
# (`_working_field`).

def _index_dtype(field):
    """Smallest unsigned dtype holding q - 1, big-endian so that the bytes of
    an index row sort as the row does."""
    return np.min_scalar_type(field.q - 1).newbyteorder(">")


def _working_field(field, rows):
    """The field to multiply the index array `rows` over: the prime subfield
    F_p when r > 1 and every entry lies below p, else the field itself."""
    if field.r > 1 and int(np.max(rows, initial=0)) < field.p:
        return build_field(field.p)
    return field


def fp_dtype(field, n):
    """The dtype of the F_p forms in a product whose GF(q) sums have n
    terms: float64 while every sum of nr products of residues stays below
    2^53, where BLAS products are exact; Python ints beyond that."""
    return np.float64 if n * field.r * (field.p - 1) ** 2 < 2 ** 53 else object


def _matmul_mod(a, b, p):
    """a @ b mod p for arrays over F_p in one `fp_dtype`, as exact
    integers.  Float remainder is slow, so float64 products are reduced as
    int64."""
    prod = a @ b
    if prod.dtype != object:
        prod = prod.astype(np.int64)
    prod %= p
    return prod


def index_matmul(field, a, b):
    """a @ b over GF(q) for (..., n, k) and (..., k, l) index arrays,
    broadcast over the leading axes, as (..., n, l) int64 indices: one
    matmul mod p of the digit rows of a (row 0 of each block row of its F_p
    form) and the F_p form of b (`FieldSpec.expand`), in the `fp_dtype`
    of the k terms of a sum.  The rows of the result are the digits of the
    rows of a b (`FieldSpec.indices`).  `mat_mul` is its scalar oracle."""
    a, b = np.asarray(a), np.asarray(b)
    *lead, k = a.shape
    dtype = fp_dtype(field, k)
    rows = field.digits(a).reshape(*lead, k * field.r).astype(dtype)
    prod = _matmul_mod(rows, field.expand(b, dtype), field.p)
    return field.indices(prod.reshape(*prod.shape[:-1], b.shape[-1],
                                      field.r))


def _digit_matmul(field, a, b):
    """a @ b over GF(q) for (N, i, j, r) and (N, j, k, r) digit arrays
    (`FieldSpec.digits`): each entry product is the product of the digit
    polynomials reduced by the modulus (`FieldSpec.reduce`, as in
    `FieldSpec.multiply`).  This is the field's own arithmetic, not the
    F_p form of `FieldSpec.expand`, so the two can check each other: it
    stays as the oracle of `checks.check_semidirect_law`."""
    r = field.r
    conv = np.einsum("nijs,njkt->nikst", a, b)
    coeffs = np.zeros(conv.shape[:3] + (2 * r - 1,), dtype=np.int64)
    for s in range(r):
        coeffs[..., s:s + r] += conv[..., s, :]
    return field.reduce(coeffs)


def _keys(rows):
    """One opaque byte key per index matrix; keys sort as the matrices do.
    Empty (0 x 0) matrices get one zero index each, so that `_rows` can
    view the keys in the index dtype."""
    rows = np.ascontiguousarray(rows).reshape(len(rows), -1)
    if not rows.shape[1]:
        return np.zeros(len(rows), dtype=(np.void, rows.dtype.itemsize))
    return rows.view(np.dtype((np.void, rows[0].nbytes))).ravel()


def _rows(field, keys, *shape):
    """The index arrays of N keys as one (N, *shape) view."""
    return keys.view(_index_dtype(field))[:len(keys) * math.prod(shape)] \
        .reshape(len(keys), *shape)


def _sorted_unique(keys):
    """The distinct keys in sorted order.  (np.unique would import numpy.ma,
    about 1.5 MB, on its first call.)"""
    keys = np.sort(keys, kind="stable")
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    return keys[fresh]


def _contains(keys, probe):
    """Mask of the probe keys found in the sorted key array."""
    pos = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
    return keys[pos] == probe


def _digit_codec(base, n, dtype):
    """(encode, decode, code dtype) between (..., n) arrays of base-`base`
    digits and their codes, which compare as the digit rows do: a row of
    field indices (base q) to its row code, or a matrix's row codes (base
    q^n) to its closure key.

    While base^n <= 2^63 a code is the int64 that reads the digits first
    most significant, stored in the smallest big-endian unsigned code
    dtype; decode divides it out again.  Above that a code is the bytes of
    the digits in `dtype`, which sort as the row does for a big-endian or
    void `dtype`, and decode views it."""
    if base ** n <= 2 ** 63:
        place = base ** np.arange(n - 1, -1, -1, dtype=np.int64)

        def encode(rows):
            return rows @ place

        def decode(codes):
            return codes.astype(np.int64)[..., None] // place % base
        return encode, decode, np.min_scalar_type(base ** n - 1) \
            .newbyteorder(">")
    code = np.dtype((np.void, n * dtype.itemsize))

    def encode(rows):
        return np.ascontiguousarray(rows.astype(dtype)).view(code)[..., 0]

    def decode(codes):
        return np.ascontiguousarray(codes).view(dtype).reshape(*codes.shape, n)
    return encode, decode, code


def _row_products(work, gens, codes, dtype=np.int64):
    """The (k, m) row codes of v.g for each of the k n x n index matrices g
    of `gens` and each of the m row codes v, in `dtype` (void codes stay
    void): one `index_matmul` per chunk of about CHUNK_ENTRIES products.
    The closure's row-image step where F^n is too large for tables, and
    the builder and test oracle of those tables (`_row_table`)."""
    k, n = gens.shape[:2]
    encode, decode, code = _digit_codec(work.q, n, _index_dtype(work))
    out = np.empty((k, len(codes)), dtype=code if code.kind == "V" else dtype)
    step = max(1, CHUNK_ENTRIES // (k * n * work.r))
    for start in range(0, len(codes), step):
        out[:, start:start + step] = encode(
            index_matmul(work, decode(codes[start:start + step]), gens))
    return out


def _row_table(work, gens, found):
    """T[s, v], the row code of v.g_s for every row code v of F^n, F the
    working field, as a (k, q^n) array of the smallest unsigned dtype; None
    where F^n has more than TABLE_ROWS vectors, or more than the n * found
    rows of the `found` matrices the closure holds so far.  A matrix times
    g_s is its rows each mapped v -> v.g_s, so a lookup in T[s] replaces
    the arithmetic (the permutation g_s induces on F^n).

    The tables cost as many row products as mapping q^n rows, so a group
    whose rows do not outnumber the vectors of F^n (a cyclic group in
    F_2^16, say) is closed without them, and a larger one is given them
    once it has found that many rows: at most about twice the row products
    of the cheaper route."""
    n = gens.shape[1]
    size = work.q ** n
    if size > TABLE_ROWS or size > n * found:
        return None
    return _row_products(work, gens, np.arange(size),
                         np.min_scalar_type(size - 1))


def _row_images(work, gens, table, which, rows):
    """The (m, n) row codes of each matrix of the (m, n) row code array
    `rows` times its generator gens[which[t]]: gathered from the tables
    (`_row_table`) where the closure has built them, else formed by one
    `_row_products` call under every generator named, from which each
    matrix's own images are picked (so rows that name different
    generators are each formed under all of them).  The closure's one
    row-image step."""
    if table is not None:
        return table[which[:, None], rows]
    named = np.flatnonzero(np.bincount(which))
    images = _row_products(work, gens[named], rows.ravel()) \
        .reshape(len(named), *rows.shape)
    return images[np.searchsorted(named, which), np.arange(len(rows))]


def _first_of_each(keys):
    """The positions of the first occurrence of each distinct key."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return order[first]


def _closure(field, n, generators, cap, name="group"):
    """Sorted byte keys (`_keys`, in the field's index dtype) of the group
    generated by n x n index matrices; with none, or with n = 0, the
    identity alone.

    A matrix is held as its n row codes (`_digit_codec` in base q), and a
    matrix times a generator is its rows each mapped to their images under
    it (`_row_images`), a piece of about CHUNK_ENTRIES images at a time.

    The group is built as right cosets (Dimino's algorithm).  The first
    stage is <g_0>, its powers formed one product at a time; stage i then
    closes <g_0..g_i> as cosets D.x of the group D found before it, and
    skips g_i if D holds it.  A coset D.x is held as its block, D's
    matrices times x in the order of D's keys, and the products x.t of its
    representative with each generator t kept so far.  A product not in
    the group yet names a new coset D.(x.t): its block is the block of D.x
    mapped through t, formed in one row-image step with the products of
    x.t with every kept generator.  Wave by wave, the products of the
    cosets found last are tested against the group's sorted keys and the
    new cosets formed, a batch of about CHUNK_ENTRIES entries at a time; a
    coset formed twice in one batch is known by its smallest key, and the
    later products are tested against each batch's blocks before theirs
    are formed, so each element is formed about once.  The keys found are
    merged into the group's once per wave.  Raises BudgetExceeded as soon
    as a power or a batch takes the count past cap.

    The images are gathered from one table per generator (`_row_table`)
    from the first wave at which the group found so far has at least as
    many rows as F^n has vectors, where F^n has at most TABLE_ROWS vectors;
    before that, and always for a larger F^n, they are formed by
    `index_matmul` (`_row_products`).  F is the prime subfield when every
    generator entry lies in it (`_working_field`).  The group's keys are
    int64 where a matrix fits in one, else the bytes of the row codes
    (`_digit_codec` in base q^n); those become byte keys of the entries a
    chunk at a time at the end, the entries gathered from a table of every
    row code's entries where tables were built, and divided out otherwise.
    """
    dtype = _index_dtype(field)
    if n == 0 or not len(generators):  # the trivial group
        return _keys(np.eye(n, dtype=dtype)[None])
    gens = np.array(generators, dtype=np.int64).reshape(len(generators), n, n)
    work = _working_field(field, gens)
    encode_row, decode_row, code = _digit_codec(work.q, n, _index_dtype(work))
    encode, decode, _ = _digit_codec(work.q ** n, n, code)
    store = code if code.kind == "V" else code.newbyteorder("=")
    piece = max(1, CHUNK_ENTRIES // n)
    table = None
    gen_rows = encode_row(gens).astype(store)
    gen_keys = encode(gen_rows)
    one = encode(encode_row(np.eye(n, dtype=np.int64))[None])
    seen, kept = one, []
    for i in range(len(gens)):
        if _contains(seen, gen_keys[i:i + 1])[0]:
            continue
        kept.append(i)
        active = np.array(kept, dtype=np.min_scalar_type(len(gens)))
        if len(kept) == 1:  # the first stage, <g_i>, is the powers of g_i
            power, powers = gen_rows[i:i + 1], [one, gen_keys[i:i + 1]]
            while (powers[-1] != one)[0]:
                if len(powers) > cap:
                    raise BudgetExceeded(f"{name} exceeds cap {cap}")
                if table is None:
                    table = _row_table(work, gens, len(powers))
                power = _row_images(work, gens, table, active, power)
                powers.append(encode(power))
            seen = np.sort(np.concatenate(powers[:-1]), kind="stable")
            continue
        # product c is representative c % count times generator
        # active[c // count], with key probes[c] and row codes reps[c];
        # D, in the order of its keys, has the generators as products
        size, a = len(seen), len(active)
        frontier = np.empty((1, size, n), dtype=store)
        for start in range(0, size, piece):
            frontier[0, start:start + piece] = decode(seen[start:start + piece])
        probes, reps = gen_keys[active], gen_rows[active]
        batch = max(1, CHUNK_ENTRIES // (n * (size + a)))
        while True:
            count = len(frontier)
            todo = np.flatnonzero(~_contains(seen, probes))
            if not len(todo):
                break
            found, cosets, fresh = len(seen), [], []
            while len(todo):
                take, todo = todo[:batch], todo[batch:]
                # the new cosets' blocks, then their representatives (the
                # products) times every kept generator
                c, m = len(take), len(take) * size
                rows = np.empty((m + a * c, n), dtype=store)
                which = np.empty(len(rows), dtype=active.dtype)
                rows[:m].reshape(c, size, n)[:] = frontier[take % count]
                which[:m].reshape(c, size)[:] = active[take // count, None]
                rows[m:].reshape(a, c, n)[:] = reps[take]
                which[m:].reshape(a, c)[:] = active[:, None]
                keys = np.empty(len(rows), dtype=seen.dtype)
                for start in range(0, len(rows), piece):
                    part = rows[start:start + piece]  # mapped in place
                    part[:] = _row_images(work, gens, table,
                                          which[start:start + piece], part)
                    keys[start:start + piece] = encode(part)
                block, new = keys[:m].reshape(c, size), slice(None)
                if c > 1:  # a coset's smallest key names it
                    block = np.sort(block, axis=1)
                    new = _first_of_each(block[:, 0])
                    block = block[new]
                block = np.sort(block.ravel(), kind="stable")
                found += len(block)
                if found > cap:
                    raise BudgetExceeded(f"{name} exceeds cap {cap}")
                cosets.append((rows[:m].reshape(c, size, n)[new],
                               keys[m:].reshape(a, c)[:, new],
                               rows[m:].reshape(a, c, n)[:, new]))
                fresh.append(block)
                if len(todo):
                    todo = todo[~_contains(block, probes[todo])]
            frontier = np.concatenate([b for b, _, _ in cosets])
            probes = np.concatenate([k for _, k, _ in cosets], axis=1).ravel()
            reps = np.concatenate([r for _, _, r in cosets],
                                  axis=1).reshape(-1, n)
            cosets.clear()
            seen = np.concatenate([seen, *fresh])
            fresh.clear()
            # in place: a stable sort merges the sorted runs in linear time
            seen.sort(kind="stable")
            if table is None:
                table = _row_table(work, gens, len(seen))
    # the byte keys of `_keys`, one chunk of decoded rows at a time; where
    # tables were built (n |G| >= q^n), the entries of a row are gathered
    # from the (q^n, n) table of every row code's entries, which costs no
    # more than dividing out those of every key
    entries = decode_row(np.arange(work.q ** n)).astype(dtype) \
        if table is not None else None
    out = np.empty(len(seen), dtype=(np.void, n * n * dtype.itemsize))
    step = max(1, CHUNK_ENTRIES // (n * n))
    for start in range(0, len(seen), step):
        codes = decode(seen[start:start + step])
        out[start:start + step] = _keys(
            entries[codes] if entries is not None
            else decode_row(codes).astype(dtype))
    return out


def _index_rows(matrices, m, n, what="generator"):
    """The (N, m, n) int64 index array of N m x n matrices, given as an
    index array-like or as GroupElements, read through `.matrix` as
    `Polynomial.act` reads them; ValueError for a matrix of another
    shape."""
    if not isinstance(matrices, np.ndarray):
        matrices = [getattr(a, "matrix", a) for a in matrices]
    rows = np.array(matrices, dtype=np.int64)
    if not rows.size and rows.ndim < 3:  # no matrices, or empty ones
        rows = rows.reshape(len(rows), m, n)
    if rows.shape[1:] != (m, n):
        raise ValueError(f"{what} dimension mismatch")
    return rows


def _identities(count, n):
    """count copies of the n x n identity, one (count, n, n) int64 array to
    place blocks into."""
    return np.eye(n, dtype=np.int64)[None].repeat(count, axis=0)


def index_inverse(field, a):
    """A^-1 for an n x n index array A: the right half of the reduced row
    echelon form of [A | I]; ValueError("matrix is singular") if A has no
    inverse."""
    n = len(a)
    reduced, pivots = rref_field(
        np.hstack([np.asarray(a, dtype=np.int64).reshape(n, n),
                   np.eye(n, dtype=np.int64)]), field)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return reduced[:, n:].astype(np.int64)


def _row_elements(field, n, rows):
    """GroupElements of an (N, n, n) index array, converted a chunk at a
    time."""
    step = max(1, CHUNK_ENTRIES // max(1, n * n))
    trusted = GroupElement._trusted
    out = []
    for start in range(0, len(rows), step):
        out.extend(trusted(field, tuple(map(tuple, m)))
                   for m in rows[start:start + step].tolist())
    return out


def element_orders(field, matrices):
    """Multiplicative order of each invertible n x n index matrix (a sequence
    of matrices or an (N, n, n) index array): the least k with A^k = I, from
    batched powers over F_p, over the prime subfield itself when every entry
    lies in it (`_working_field`)."""
    if not len(matrices):
        return []
    rows = np.asarray(matrices)
    n = len(rows[0])
    rows = rows.reshape(len(rows), n, n)
    field = _working_field(field, rows)
    nr = n * field.r
    eye = np.eye(nr, dtype=fp_dtype(field, n))
    step = max(1, CHUNK_ENTRIES // max(1, nr * nr))
    orders = []
    for start in range(0, len(rows), step):
        base = field.expand(rows[start:start + step], eye.dtype)
        found = np.zeros(len(base), dtype=np.int64)
        todo = np.arange(len(base))
        power, k = base, 1
        while len(todo):
            done = (power == eye).all(axis=(1, 2))
            found[todo[done]] = k
            todo, power = todo[~done], power[~done]
            power = _matmul_mod(power, base[todo], field.p)
            k += 1
        orders.extend(found.tolist())
    return orders


class GroupElement:
    """An invertible matrix over a FieldSpec, hashable by its entries."""

    __slots__ = ("field", "matrix", "_inv")

    def __init__(self, field: FieldSpec, matrix, check: bool = True):
        matrix = tuple(tuple(field.scalar(e).index if isinstance(e, (Scalar, str))
                             else e for e in row) for row in matrix)
        if check and len(rref_field(matrix, field)[1]) != len(matrix):
            raise ValueError("matrix is singular")
        self.field = field
        self.matrix = matrix
        self._inv = None

    @classmethod
    def _trusted(cls, field: FieldSpec, matrix) -> "GroupElement":
        """An element of a tuple of tuples of indices, taken as it is."""
        g = cls.__new__(cls)
        g.field = field
        g.matrix = matrix
        g._inv = None
        return g

    @property
    def n(self):
        return len(self.matrix)

    def __mul__(self, other):
        """The product in scalar arithmetic (`mat_mul`): the oracle of the
        batched products, which go through `index_matmul`."""
        if not isinstance(other, GroupElement):
            return NotImplemented
        if other.field != self.field:
            raise ValueError("elements over different fields")
        return GroupElement(self.field, mat_mul(self.field, self.matrix, other.matrix),
                            check=False)

    def inverse(self) -> "GroupElement":
        """The inverse matrix (`index_inverse`)."""
        if self._inv is None:
            self._inv = GroupElement._trusted(self.field, tuple(map(
                tuple, index_inverse(self.field, self.matrix).tolist())))
        return self._inv

    def is_identity(self) -> bool:
        return self.matrix == identity_matrix(self.n)

    def order(self) -> int:
        return element_orders(self.field, [self.matrix])[0]

    def apply(self, vector):
        """g.v for a column vector of field indices or scalars.  The test
        oracle of the right action: evaluate(f.act(g), v) must equal
        evaluate(f, g.apply(v)) at every point v."""
        column = tuple((x.index if isinstance(x, Scalar) else x,) for x in vector)
        return tuple(row[0] for row in mat_mul(self.field, self.matrix, column))

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and self.field == other.field and self.matrix == other.matrix)

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return format_matrix(self.field, self.matrix)


class MatrixGroup:
    """A matrix group given by generators, optionally fully enumerated.

    The generators are kept as one (k, n, n) int64 index array,
    `generator_rows`, from the constructor to the closure; the constructor
    reads any index array-like, GroupElements through `.matrix`.
    `generators`, the GroupElement list in the same order, is built on
    first access and cached.

    Constructors return generators with a claimed order; `enumerate()`,
    the only enumeration, certifies that claim: a count that differs raises
    ClaimRefuted.  `elements=`, the (N, n, n) index matrices of a subset
    picked by a predicate, is only for those subsets
    (`stabilizer_of_polynomial`, `gluing.singular_form_group`).

    Enumeration closes the generators as right cosets in numpy
    (`_closure`): each generator not yet in the group found so far, D,
    adds the cosets D.x it reaches, each formed once as the block of a
    known coset mapped through a generator, by lookups in one table per
    generator of the row space F^n (or by `index_matmul` where F^n is too
    large); only the coset representatives' products with the generators
    are tested against the group.  The group is kept as sorted int64 keys,
    the entries as base-q digits, where a matrix fits in one, else as byte
    keys of the row codes (both `_digit_codec`), and images come in chunks
    of at most about CHUNK_ENTRIES entries.

    An enumerated group stores only the sorted byte keys of its index
    matrices (`keys`; `rows()` views them as an (N, n, n) array), so the
    canonical order does not depend on generator order, the order is the key
    count and membership is a binary search.  `elements`, the GroupElement
    list in that order, is built on first access and cached; it is None
    before enumeration.
    """

    def __init__(self, field: FieldSpec, n: int, generators, name: str = "",
                 elements=None, claimed_order=None):
        self.field = field
        self.n = n
        self.generator_rows = _index_rows(generators, n, n)
        self.name = name
        self.claimed_order = claimed_order
        self.keys = None
        self._generators = None
        self._elements = None
        if elements is not None:
            rows = _index_rows(elements, n, n, "element")
            self._set_keys(_sorted_unique(
                _keys(rows.astype(_index_dtype(field)))))

    def _set_keys(self, keys):
        """Store the sorted, distinct keys of the whole group once they
        certify the claimed order; a refuted claim stores nothing, so the
        next enumeration refutes it again."""
        if self.claimed_order is not None and len(keys) != self.claimed_order:
            raise ClaimRefuted(
                f"{self.name or 'group'}: enumerated order {len(keys)} "
                f"!= claimed order {self.claimed_order}")
        self.keys = keys

    @property
    def generators(self):
        """The generators as GroupElements, in the order of
        `generator_rows`."""
        if self._generators is None:
            self._generators = _row_elements(self.field, self.n,
                                             self.generator_rows)
        return self._generators

    @property
    def is_enumerated(self) -> bool:
        return self.keys is not None

    @property
    def elements(self):
        """The GroupElements in canonical order, or None before enumeration."""
        if self._elements is None and self.keys is not None:
            self._elements = _row_elements(self.field, self.n, self.rows())
        return self._elements

    def rows(self):
        """The (N, n, n) index matrices of the enumerated group, in canonical
        order."""
        if self.keys is None:
            raise NotEnumeratedError(f"{self.name or 'group'} is not enumerated")
        return _rows(self.field, self.keys, self.n, self.n)

    def identity(self) -> GroupElement:
        return GroupElement(self.field, identity_matrix(self.n), check=False)

    def enumerate(self, cap: int = None) -> "MatrixGroup":
        """The group, closed once: a group already enumerated is returned
        as it is, unless its order exceeds cap (the run's cap when None),
        which raises the BudgetExceeded the closure would have raised."""
        cap = RUN_BUDGETS.get()["cap"] if cap is None else cap
        if cap < 1:
            raise ValueError("cap must be positive")
        name = self.name or "group"
        if self.keys is None:
            self._set_keys(_closure(self.field, self.n, self.generator_rows,
                                    cap, name))
        elif len(self.keys) > cap:
            raise BudgetExceeded(f"{name} exceeds cap {cap}")
        return self

    def order(self) -> int:
        if self.keys is not None:
            return len(self.keys)
        if self.claimed_order is not None:
            return self.claimed_order
        raise NotEnumeratedError(f"{self.name or 'group'} has unknown order")

    def __contains__(self, g):
        if self.keys is None:
            raise NotEnumeratedError("membership requires enumeration")
        m = g.matrix if isinstance(g, GroupElement) else g
        if len(m) != self.n or any(len(row) != self.n for row in m) or \
                any(not 0 <= e < self.field.q for row in m for e in row):
            return False
        probe = _keys(np.array(m, dtype=_index_dtype(self.field))
                      .reshape(1, self.n, self.n))
        return bool(_contains(self.keys, probe)[0])

    def __len__(self):
        return self.order()

    def __repr__(self):
        state = f"order {len(self.keys)}" if self.keys is not None else \
            f"{len(self.generator_rows)} generators"
        return f"MatrixGroup({self.name or 'unnamed'}, dim {self.n}, {state})"


def minimal_generators(field, rows):
    """Greedy small generating set of an enumerated group, given as an
    (N, n, n) index array; returned as a (k, n, n) int64 index array.

    Walks the matrices in canonical order and keeps each one not yet in the
    subgroup generated by those kept, until that subgroup is all of them.
    The matrices must form a group: each re-closure is capped at their
    number.
    """
    rows = np.asarray(rows)
    n = rows.shape[1]
    target = _keys(rows.astype(_index_dtype(field)))
    ordered = np.argsort(target, kind="stable")
    target = target[ordered]
    everything = _sorted_unique(target)
    identity = (rows[ordered] == np.eye(n, dtype=np.int64)).all(axis=(1, 2))
    picked = []
    inside = np.zeros(len(target), dtype=bool)
    for i in range(len(target)):
        if inside[i] or identity[i]:
            continue
        picked.append(ordered[i])
        closed = _closure(field, n, rows[picked], len(everything))
        if np.array_equal(closed, everything):
            break
        inside = _contains(closed, target)
    return rows[picked].astype(np.int64)


# -- order formulas --

def gl_order(n: int, q: int) -> int:
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out

def sp_order(m: int, q: int) -> int:
    out = q ** (m * m)
    for i in range(1, m + 1):
        out *= q ** (2 * i) - 1
    return out

def usp_order(m: int, q: int) -> int:
    return q ** (m * m)

def pk_order(m: int, k: int, q: int) -> int:
    return q ** (2 * k * (m - k) + k * (k + 1) // 2)

def gk_order(m: int, k: int, q: int) -> int:
    return gl_order(k, q) * sp_order(m - k, q) * pk_order(m, k, q)

def stabilizer_sp_order(m: int, k: int, q: int) -> int:
    return sp_order(m - k, q) * pk_order(m, k, q)

def unipotent_order(n: int, q: int) -> int:
    return q ** (n * (n - 1) // 2)

def parabolic_gl_order(partition, q: int) -> int:
    out = 1
    off = 0
    sizes = list(partition)
    for ni in sizes:
        out *= gl_order(ni, q)
    total = sum(sizes)
    cross = (total * total - sum(ni * ni for ni in sizes)) // 2
    return out * q ** cross


# -- constructors --

def trivial_group(field: FieldSpec, n: int) -> MatrixGroup:
    return MatrixGroup(field, n, [], name="trivial", claimed_order=1).enumerate()


def gl_group(n: int, field: FieldSpec) -> MatrixGroup:
    """GL_n via a transvection, an n-cycle and a primitive scalar block."""
    q = field.q
    eye = np.eye(n, dtype=np.int64)
    gens = []
    if n > 1:
        transvection = eye.copy()
        transvection[0, 1] = 1
        gens += [transvection, np.roll(eye, 1, axis=0)]
    if q > 2:
        scalar = eye.copy()
        scalar[0, 0] = field.primitive_element().index
        gens.append(scalar)
    return MatrixGroup(field, n, gens, name=f"GL{n}(F{q})",
                       claimed_order=gl_order(n, q))


def unipotent_upper(n: int, field: FieldSpec) -> MatrixGroup:
    """Upper-triangular unipotent group, superdiagonal transvections over an
    F_p-basis of the field."""
    basis = [b.index for b in field.fp_basis()]
    steps = max(n - 1, 0)
    gens = _identities(steps * len(basis), n)
    i = np.arange(len(gens)) // len(basis)
    gens[np.arange(len(gens)), i, i + 1] = basis * steps
    return MatrixGroup(field, n, gens, name=f"U({n},F{field.q})",
                       claimed_order=unipotent_order(n, field.q))


def symplectic_j(m: int, field: FieldSpec):
    """The pinned form matrix [[0, Q], [-Q, 0]] on basis e1..em, fm..f1, as
    an index array."""
    Q = np.eye(m, dtype=np.int64)[::-1]
    J = np.zeros((2 * m, 2 * m), dtype=np.int64)
    J[:m, m:] = Q
    J[m:, :m] = field.neg(1) * Q
    return J


def _check_symplectic(field, gens, m, name):
    """Raise ClaimRefuted for the first generator A of the (k, 2m, 2m) index
    array with A^T J A != J (`form_preserved` of the pinned form)."""
    bad = ~form_preserved(gens, FormSpec("alternating", field,
                                         gram=symplectic_j(m, field)))
    if bad.any():
        first = gens[np.argmax(bad)].tolist()
        raise ClaimRefuted(f"{name}: generator fails A^T J A = J:\n"
                           f"{format_matrix(field, first)}")
    return gens


# With Q the anti-identity, Q X reverses the rows of X and X Q its columns.
# The block builders take and return stacks of index arrays.

def _embed_gl_block(field, A, m, k):
    """diag(A, I_(2m-2k), Q_k (A^-1)^T Q_k) as 2m x 2m matrices, for each
    k x k matrix A of the (N, k, k) array: the corner is (A^-1)^T reversed
    both ways."""
    M = _identities(len(A), 2 * m)
    M[:, :k, :k] = A
    for corner, a in zip(M[:, 2 * m - k:, 2 * m - k:], A):
        corner[:] = index_inverse(field, a).T[::-1, ::-1]
    return M


def _embed_sp_block(B, m, k):
    """diag(I_k, B, I_k) for each (2m-2k) x (2m-2k) matrix B of the stack."""
    M = _identities(len(B), 2 * m)
    M[:, k:2 * m - k, k:2 * m - k] = B
    return M


def _pk_assemble(field, m, k, B1, B2, A):
    """P_k block matrices, one per (B1, B2, A) of three equally long stacks
    of (m-k) x k, (m-k) x k and k x k index arrays, with
    C1 = -Q_k B2^T Q_(m-k) and C2 = Q_k B1^T Q_(m-k), forced by the
    symplectic relations: transposes reversed both ways."""
    n = 2 * m
    M = _identities(len(A), n)
    M[:, :k, n - k:] = A
    M[:, :k, k:m] = field.negate(B2.transpose(0, 2, 1)[:, ::-1, ::-1])
    M[:, :k, m:n - k] = B1.transpose(0, 2, 1)[:, ::-1, ::-1]
    M[:, k:m, n - k:] = B1
    M[:, m:n - k, n - k:] = B2
    return M


def p_k_subgroup(m: int, k: int, field: FieldSpec) -> MatrixGroup:
    """The unipotent radical P_k of the type-k maximal parabolic: one
    generator per free parameter (an entry of B1, of B2 or of the symmetric
    S in A = Q_k S) and F_p-basis element, with claimed order `pk_order`.
    `enumerate()` closes them, and its order check certifies that they
    generate P_k."""
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    q = field.q
    basis = np.array([b.index for b in field.fp_basis()], dtype=np.int64)
    nb = len(basis)
    # for each entry (i, j) of B and basis element b, B1 = b E_ij and then
    # B2 = b E_ij; with B1 = 0 or B2 = 0, A = 0 solves the symplectic
    # relations
    count = (m - k) * k * nb
    t = np.arange(count)
    B = np.zeros((count, m - k, k), dtype=np.int64)
    B[t, t // (k * nb), t // nb % k] = basis[t % nb]
    zB, zA = np.zeros_like(B), np.zeros((count, k, k), dtype=np.int64)
    pairs = np.stack([_pk_assemble(field, m, k, B, zB, zA),
                      _pk_assemble(field, m, k, zB, B, zA)], axis=1)
    # each entry i <= j of the symmetric S, times each basis element
    i, j = np.repeat(np.triu_indices(k), nb, axis=1)
    t = np.arange(len(i))
    S = np.zeros((len(t), k, k), dtype=np.int64)
    S[t, i, j] = S[t, j, i] = basis[t % nb]
    zB = np.zeros((len(t), m - k, k), dtype=np.int64)
    # A = Q_k S: the rows of S reversed
    gens = np.concatenate([pairs.reshape(2 * count, 2 * m, 2 * m),
                           _pk_assemble(field, m, k, zB, zB, S[:, ::-1])])
    _check_symplectic(field, gens, m, f"P_{k}")
    return MatrixGroup(field, 2 * m, gens, name=f"P{k}(m={m},F{q})",
                       claimed_order=pk_order(m, k, q))


def sp_group(m: int, field: FieldSpec) -> MatrixGroup:
    """Sp_2m(F_q): embedded GL_m generators, P_m generators and the Weyl lift
    swapping e_m and f_m (with a sign)."""
    q = field.q
    n = 2 * m
    W = np.eye(n, dtype=np.int64)
    W[m - 1, m - 1] = W[m, m] = 0
    W[m, m - 1] = field.neg(1)   # e_m -> -f_m
    W[m - 1, m] = 1              # f_m -> e_m
    gens = np.concatenate([
        _embed_gl_block(field, gl_group(m, field).generator_rows, m, m),
        p_k_subgroup(m, m, field).generator_rows, W[None]])
    _check_symplectic(field, gens, m, f"Sp{2*m}")
    return MatrixGroup(field, n, gens, name=f"Sp{2*m}(F{q})",
                       claimed_order=sp_order(m, q))


def usp_group(m: int, field: FieldSpec) -> MatrixGroup:
    """Upper-triangular unipotent symplectic matrices, a Sylow p-subgroup."""
    gens = np.concatenate([
        _embed_gl_block(field, unipotent_upper(m, field).generator_rows, m, m),
        p_k_subgroup(m, m, field).generator_rows])
    _check_symplectic(field, gens, m, f"USp{2*m}")
    return MatrixGroup(field, 2 * m, gens, name=f"USp{2*m}(F{field.q})",
                       claimed_order=usp_order(m, field.q))


def _sp_block_generators(m, k, field):
    """The generators of Sp_(2m-2k) in the middle block (none when k = m)."""
    if m == k:
        return np.zeros((0, 2 * m, 2 * m), dtype=np.int64)
    return _embed_sp_block(sp_group(m - k, field).generator_rows, m, k)


def stabilizer_sp(m: int, k: int, field: FieldSpec) -> MatrixGroup:
    """Pointwise stabilizer of span(e_1..e_k) in Sp_2m: Sp_(2m-2k) |x P_k."""
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    gens = np.concatenate([_sp_block_generators(m, k, field),
                           p_k_subgroup(m, k, field).generator_rows])
    _check_symplectic(field, gens, m, f"Sp{2*m}_U{k}")
    return MatrixGroup(field, 2 * m, gens, name=f"Sp{2*m}(F{field.q})_U{k}",
                       claimed_order=stabilizer_sp_order(m, k, field.q))


def parabolic_g_k(m: int, k: int, field: FieldSpec) -> MatrixGroup:
    """The maximal parabolic (GL_k x Sp_(2m-2k)) |x P_k of Sp_2m."""
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    gens = np.concatenate([
        _embed_gl_block(field, gl_group(k, field).generator_rows, m, k),
        _sp_block_generators(m, k, field),
        p_k_subgroup(m, k, field).generator_rows])
    _check_symplectic(field, gens, m, f"G{k}")
    return MatrixGroup(field, 2 * m, gens, name=f"G{k}(m={m},F{field.q})",
                       claimed_order=gk_order(m, k, field.q))


def _keeps_values(field, rows, f):
    """Mask of the n x n index matrices g with f(g.e_j) = f(e_j) for every
    basis vector e_j, where g.e_j is column j of g.  f is evaluated once on
    all q^n points, the point v at index sum_i v_i q^(n-1-i), so the test is
    one gather of f's values at the columns' indices, a chunk of about
    CHUNK_ENTRIES entries at a time, with no field arithmetic."""
    n, q = rows.shape[1], field.q
    values = np.array([f.evaluate(v).index
                       for v in itertools.product(range(q), repeat=n)])
    place = q ** np.arange(n - 1, -1, -1)
    basis = values[place]  # e_j is at index q^(n-1-j)
    step = max(1, CHUNK_ENTRIES // (n * n))
    keep = np.empty(len(rows), dtype=bool)
    for start in range(0, len(rows), step):
        columns = place @ rows[start:start + step]
        keep[start:start + step] = (values[columns] == basis).all(axis=1)
    return keep


def stabilizer_of_polynomial(group: MatrixGroup, f: Polynomial) -> MatrixGroup:
    """{g in G | f.g = f} for an enumerated G.

    f.g = f implies f(g.v) = f(v) for every v in F_q^n, since f.g sends x_i
    to sum_j g[i][j] x_j (`Polynomial.act`).  The sound prefilter
    `_keeps_values` tests that at the basis vectors, the columns of g (a
    base, as in backtrack search), and the survivors are checked exactly,
    all of them by one `mvpoly.fixed_by` call, which acts on f by the whole
    stack through the job driver `mvpoly._act_blocks` and compares each
    block of images with f on packed keys as it comes (`_substitute` is its
    oracle, and through `mvpoly._act_substitute` its route only where the
    packed keys would reach PACKED_KEY_LIMIT or the space has no
    variables)."""
    if not group.is_enumerated:
        raise NotEnumeratedError("stabilizer needs an enumerated group")
    field, rows = group.field, group.rows()
    candidates = rows[_keeps_values(field, rows, f)]
    fixed = candidates[fixed_by([f], candidates)[0]]
    gens = minimal_generators(field, fixed) if len(fixed) > 1 else []
    return MatrixGroup(field, group.n, gens, name=f"Stab({group.name})",
                       elements=fixed)


# -- forms --

class FormSpec:
    """A bilinear, hermitian or quadratic form; the Gram matrix of a
    bilinear or hermitian one is read once into an (n, n) index array."""

    KINDS = ("alternating", "symmetric", "hermitian", "quadratic")

    def __init__(self, kind: str, field: FieldSpec, gram=None, quadratic=None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown form kind {kind!r}")
        self.kind = kind
        self.field = field
        self.gram = None
        self.quadratic = None
        if kind == "quadratic":
            if quadratic is None or quadratic.degree() != 2 or not quadratic.is_homogeneous():
                raise ValueError("quadratic form needs a homogeneous degree-2 polynomial")
            self.quadratic = quadratic
            self.dim = quadratic.space.dim
            return
        self.dim = len(gram)
        self.gram = G = np.array(
            [[field.scalar(e).index if isinstance(e, (Scalar, str)) else e
              for e in row] for row in gram],
            dtype=np.int64).reshape(self.dim, self.dim)
        if kind == "alternating":
            if (G.T != field.negate(G)).any() or G.diagonal().any():
                raise ValueError("alternating Gram must be skew with zero diagonal")
        elif kind == "symmetric":
            if (G.T != G).any():
                raise ValueError("symmetric Gram must equal its transpose")
        elif kind == "hermitian":
            if field.r % 2:
                raise ValueError("hermitian forms need a square field order")
            if (self._twist(G).T != G).any():
                raise ValueError("hermitian Gram must be conjugate-symmetric")

    def _twist(self, rows):
        """Each entry of an index array raised to the power p^(r/2)."""
        return self.field.power(rows, self.field.p ** (self.field.r // 2))

    def congruent(self, rows) -> np.ndarray:
        """The Gram matrices A^T G A of a bilinear or hermitian form in the
        bases of the columns of the index matrices A in `rows`, broadcast
        over their leading axes (A^T twisted entrywise for a hermitian
        form), with the products of all of them formed together
        (`index_matmul`)."""
        field, rows = self.field, np.asarray(rows, dtype=np.int64)
        left = self._twist(rows) if self.kind == "hermitian" else rows
        return index_matmul(field, index_matmul(
            field, left.swapaxes(-1, -2), self.gram), rows)

    def moved(self, P) -> "FormSpec":
        """The form in the basis of the columns of an invertible index
        matrix P, whose value at y is the form's value at P y: the Gram
        matrix `congruent(P)`, or for a quadratic form f its action f.P
        (x_j -> sum_i P[j, i] x_i, `Polynomial.act`)."""
        if self.kind == "quadratic":
            return FormSpec("quadratic", self.field,
                            quadratic=self.quadratic.act(P))
        return FormSpec(self.kind, self.field, gram=self.congruent(P))

    def polar_gram(self) -> np.ndarray:
        """Gram matrix of the (polarized) bilinear form, an index array: for
        a quadratic form C + C^T, where C holds the coefficient of x_i x_j
        (i <= j) at (i, j), so that c x_i^2 gives 2c on the diagonal."""
        if self.kind != "quadratic":
            return self.gram
        field, n, terms = self.field, self.dim, self.quadratic._terms
        exps = np.array(list(terms), dtype=np.int64).reshape(len(terms), n)
        C = np.zeros((n, n), dtype=np.int64)
        C[exps.argmax(axis=1), n - 1 - exps[:, ::-1].argmax(axis=1)] = \
            list(terms.values())
        return field.indices((field.digits(C) + field.digits(C.T)) % field.p)


def form_preserved(rows, form: FormSpec) -> np.ndarray:
    """Mask of the n x n index matrices A in `rows` that preserve the form:
    A^T G A = G for its Gram matrix G (`FormSpec.congruent`, with A^T
    twisted entrywise for a hermitian form); f.A = f for a quadratic form f,
    for all A by one `mvpoly.fixed_by` call, a bounded block per kernel call
    and comparison (`Polynomial._substitute` is its oracle, and through
    `mvpoly._act_substitute` its route only where the packed keys would
    reach PACKED_KEY_LIMIT or the space has no variables)."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.shape[1:] != (form.dim, form.dim):
        raise ValueError("dimension mismatch between element and form")
    if form.kind == "quadratic":
        return fixed_by([form.quadratic], rows)[0]
    return (form.congruent(rows) == form.gram).all(axis=(1, 2))


def o3_sylow_generators(field: FieldSpec):
    """Unipotent generators [[1,2c,c^2],[0,1,c],[0,0,1]] preserving
    x2^2-x1*x3, one per F_p-basis element c, as a (k, 3, 3) index array."""
    basis = [b.index for b in field.fp_basis()]
    gens = _identities(len(basis), 3)
    for g, c in zip(gens, basis):
        g[0, 1:] = field.mul(field.add(1, 1), c), field.mul(c, c)
        g[1, 2] = c
    return gens


def o4_plus_sylow_generators(field: FieldSpec):
    """Unipotent generators of the Sylow subgroup preserving x2*x3-x1*x4,
    two per F_p-basis element c, as a (k, 4, 4) index array."""
    cs = [cc for b in field.fp_basis() for cc in ((b.index, 0), (0, b.index))]
    gens = _identities(len(cs), 4)
    for g, (c1, c2) in zip(gens, cs):
        g[0, 1:] = c1, c2, field.mul(c1, c2)
        g[1:3, 3] = c2, c1
    return gens


def product_group(G1: MatrixGroup, G2: MatrixGroup, name="") -> MatrixGroup:
    """Block-diagonal realization of G1 x G2."""
    if G1.field != G2.field:
        raise ValueError("factors over different fields")
    k1, n1 = len(G1.generator_rows), G1.n
    gens = _identities(k1 + len(G2.generator_rows), n1 + G2.n)
    gens[:k1, :n1, :n1] = G1.generator_rows
    gens[k1:, n1:, n1:] = G2.generator_rows
    order = None
    try:
        order = G1.order() * G2.order()
    except NotEnumeratedError:
        pass
    return MatrixGroup(G1.field, n1 + G2.n, gens,
                       name=name or f"{G1.name}x{G2.name}", claimed_order=order)
