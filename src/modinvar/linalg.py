"""Row reduction over GF(q), all of it through one numpy kernel over F_p.

`rref_mod_p` holds the only elimination loop.  GF(p^r) is an r-dimensional
F_p-space with basis 1, t, ..., t^(r-1), so a GF(q) index row v is written
over F_p as the r rows t^j v (j < r), column (k, x) holding digit x of
(t^j v)_k: the F_p form `FieldSpec.expand`, the one the group products
read too (`FieldSpec` owns every F_p coordinate).  If R is the GF(q) reduced
row echelon form, with pivots c_i, the rows t^j R_i are reduced over F_p
with pivots c_i r + j and span the same F_p-space, so by uniqueness they are
its F_p rref.  The rows whose pivot column is divisible by r, folded back
into indices (`FieldSpec.indices`), are R exactly, and the GF(q) rank is the
F_p rank divided by r.  A prime field is the case r = 1.  Pivoting is
deterministic: scan columns left to right, take the first unprocessed row
with a nonzero entry.

Sparse matrices (the kernel stacks of `analysis.invariant_dimension`, well
under 1 % nonzero) take another route to their rank.  `fp_expand_coo` is
`FieldSpec.expand` on COO entries of GF(q) indices, and
`sparse_rank_mod_p` is structured elimination in the sense of LaMacchia and
Odlyzko ("Solving large sparse linear systems over finite fields", CRYPTO
'90).  Rows and columns with a single entry are pivots found without
arithmetic and are pruned in numpy, repeatedly.  The core left is
transposed if it is taller than wide, since rows beyond the rank cost a
full reduction each and end as zero.  Its rows are inserted sparsest first
(ties by leading column) into an echelon form keyed by leading column; each
new row is reduced by the pivots its leading entries hit, and only a row
that survives as a new pivot is normalised.
For odd p a row is a {column: residue} dict of Python ints, so p may be of
any size.  For p = 2 it is a bitset, one Python int with one bit per
column, the first column in the highest bit: its leading column is read off
its `bit_length()`, a reduction is one XOR, and there is nothing to
normalise.  Both row types give the same pivots.  A dict row holds only
its nonzero entries; a bitset holds one bit for each column left after
pruning.  No back-substitution is done, since only the rank is wanted.  The
dense `rref_mod_p` rank is the test oracle of both row types.
"""

from __future__ import annotations

import heapq

import numpy as np

from modinvar.gfq import FieldSpec


def _residue_dtype(p: int):
    """Smallest signed dtype holding (p-1)^2 + p, so that residues mod p and
    every intermediate of an elimination or expansion step fit; Python ints
    beyond int64."""
    bound = (p - 1) ** 2 + p
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(object)


def _wide_dtype(p: int):
    """`_residue_dtype` widened to int64, so that sums of many residues fit
    as well."""
    return np.promote_types(_residue_dtype(p), np.int64)


def fp_expand_coo(rows, cols, values, field: FieldSpec):
    """`FieldSpec.expand` for a sparse GF(q) matrix with the index
    values[e] at (rows[e], cols[e]).  Returns the nonzero entries (rows,
    cols, residues) of its (m r, n r) form over F_p: row i r + j, column
    k r + x holds digit x of t^j times entry (i, k)."""
    r = field.r
    blocks = field.expand(np.asarray(values)[:, None, None],
                          _wide_dtype(field.p))
    e, j, x = np.nonzero(blocks)
    return (np.asarray(rows, dtype=np.int64)[e] * r + j,
            np.asarray(cols, dtype=np.int64)[e] * r + x, blocks[e, j, x])


def sparse_rank_mod_p(rows, cols, values, p: int) -> int:
    """Rank mod a prime p of the sparse matrix with entries values[e] at
    (rows[e], cols[e]); positions are distinct.

    First the pruning steps of structured elimination, in numpy, until
    neither applies: a row with one entry is a pivot, so its column is
    cleared from every other row; a column with one entry makes its row a
    pivot, so the row is dropped.  The core left is transposed when it has
    more nonzero rows than columns (rank A = rank A^T), so that at most as
    many rows as columns go in.  Then echelon insertion of the rows left.
    Rows go in by (nonzero count, leading column), sparsest first, so that
    the pivots stay short.  Each row is reduced by the pivot of its leading
    column until its leading column is free, where it becomes the pivot,
    or until it vanishes.  Stops once every column holds a pivot.

    For odd p the rows are {column: residue} dicts of Python ints, a heap
    of the row's columns yields the leading one, and a new pivot is
    normalised to a leading 1.  For p = 2 they are bitsets (`_f2_rank`)."""
    values = np.asarray(values) % p
    keep = np.flatnonzero(values)
    rows = np.asarray(rows, dtype=np.int64)[keep]
    cols = np.asarray(cols, dtype=np.int64)[keep]
    values = values[keep]
    rank = 0
    while len(rows):
        cleared = np.zeros(cols.max() + 1, dtype=bool)
        cleared[cols[np.bincount(rows)[rows] == 1]] = True
        lone = (np.bincount(cols)[cols] == 1) & ~cleared[cols]
        dropped = np.zeros(rows.max() + 1, dtype=bool)
        dropped[rows[lone]] = True
        found = int(cleared.sum() + dropped.sum())
        if not found:
            break
        rank += found
        keep = ~cleared[cols] & ~dropped[rows]
        rows, cols, values = rows[keep], cols[keep], values[keep]
    if np.count_nonzero(np.bincount(rows)) > \
            np.count_nonzero(np.bincount(cols)):
        # rank A = rank A^T: eliminate along the shorter side, since the
        # rows beyond the rank reduce to zero at full cost
        rows, cols = cols, rows
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    fresh = np.diff(rows, prepend=-1) != 0
    starts = np.flatnonzero(fresh)
    ends = np.append(starts[1:], len(rows))
    insert = np.lexsort((cols[starts], ends - starts))
    used = np.bincount(cols) > 0
    full = int(np.count_nonzero(used))
    if p == 2:
        # rows and columns renumbered 0, 1, ... in order, so that the
        # bitsets are no wider than the columns left
        return rank + _f2_rank(np.cumsum(fresh) - 1,
                               np.cumsum(used)[cols] - 1, insert, full)
    starts, ends = starts[insert].tolist(), ends[insert].tolist()
    cols, values = cols.tolist(), values[order].tolist()
    pivots = {}
    for start, end in zip(starts, ends):
        row = dict(zip(cols[start:end], values[start:end]))
        heap = cols[start:end]  # sorted, so already a heap
        while heap:
            lead = heapq.heappop(heap)
            f = row.get(lead)
            if f is None:  # cancelled earlier
                continue
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(f, -1, p)
                if inv != 1:
                    row = {c: v * inv % p for c, v in row.items()}
                pivots[lead] = row
                break
            for c, v in pivot.items():
                if c in row:
                    v = (row[c] - f * v) % p
                    if v:
                        row[c] = v
                    else:
                        del row[c]
                else:
                    row[c] = -f * v % p
                    heapq.heappush(heap, c)
        if len(pivots) == full:
            break
    return rank + len(pivots)


def _f2_rank(rows, cols, insert, width: int) -> int:
    """The echelon insertion of `sparse_rank_mod_p` over F_2, on bitset
    rows.  Entries come sorted by row, then column, with rows numbered
    0, 1, ... and columns below width; rows go in in the order insert.

    Row i is the Python int of bits = 8 ceil(width / 8) bits with bit
    bits - 1 - c set for each entry (i, c): the first column is the highest
    bit, so a row's leading column is bits minus its `bit_length()`, read
    in constant time, and pivots are keyed by that length.  Reducing a row
    by a pivot is an XOR, and a row whose leading column is free becomes
    that column's pivot as it is.  The rows are packed into one big-endian
    byte buffer in numpy, and each is read into an int when its turn
    comes."""
    nbytes = (width + 7) // 8
    byte = rows * nbytes + (cols >> 3)
    first = np.flatnonzero(np.diff(byte, prepend=-1))
    packed = np.zeros(len(insert) * nbytes, dtype=np.uint8)
    packed[byte[first]] = np.bitwise_or.reduceat(
        np.right_shift(0x80, cols & 7).astype(np.uint8), first)
    packed = packed.tobytes()
    pivots = {}
    for i in insert.tolist():
        row = int.from_bytes(packed[i * nbytes:(i + 1) * nbytes], "big")
        while row:
            lead = row.bit_length()
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            row ^= pivot
        if len(pivots) == width:
            break
    return len(pivots)


def rref_mod_p(A, p: int):
    """Reduced row echelon form of an integer matrix mod a prime p.

    Returns (reduced, pivots); reduced has zero rows dropped.  The work is
    done in `_residue_dtype(p)`, on one copy of A reduced mod p.  Columns
    that are zero in every row are never scanned: row operations keep them
    zero.
    """
    dtype = _residue_dtype(p)
    A = (np.asarray(A) % p).astype(dtype, copy=False)
    nrows = len(A)
    rank = 0
    pivots = []
    for col in np.flatnonzero(A.any(axis=0)).tolist():
        if rank == nrows:
            break
        nz = np.flatnonzero(A[rank:, col])
        if nz.size == 0:
            continue
        pivot = rank + int(nz[0])
        if pivot != rank:
            A[[rank, pivot]] = A[[pivot, rank]]
        # the pivot row is zero left of col, so only columns from col on move
        inv = pow(int(A[rank, col]), -1, p)
        if inv != 1:
            A[rank, col:] = A[rank, col:] * inv % p
        factors = A[:, col].copy()
        factors[rank] = 0
        hit = np.flatnonzero(factors)
        if hit.size:
            A[hit, col:] = (A[hit, col:]
                            - np.outer(factors[hit], A[rank, col:])) % p
        pivots.append(col)
        rank += 1
    return A[:rank], pivots


def rref_field(rows, field: FieldSpec):
    """Reduced row echelon form over a FieldSpec, through `rref_mod_p`.

    rows: m x n element indices.  Returns (reduced, pivots): an array of the
    nonzero reduced index rows, in the smallest unsigned dtype holding q - 1,
    and their pivot columns.
    """
    r = field.r
    rows = np.asarray(rows)
    if rows.ndim == 1:  # no rows at all
        rows = rows.reshape(0, 0)
    reduced, fp_pivots = rref_mod_p(
        field.expand(rows, _residue_dtype(field.p)), field.p)
    keep = [i for i, c in enumerate(fp_pivots) if c % r == 0]
    out = field.indices(
        reduced[keep].reshape(len(keep), reduced.shape[1] // r, r))
    return (out.astype(np.min_scalar_type(field.q - 1)),
            [fp_pivots[i] // r for i in keep])


def in_reduced_row_space(vectors, reduced, field: FieldSpec) -> np.ndarray:
    """Mask of the GF(q) index rows `vectors` that lie in the row space of
    `reduced`, the reduced row echelon form of `rref_field`.  Over F_p the
    rows t^j R_i of its expansion are reduced too, with pivots c_i r + j
    (see the module docstring), so the digits of a vector are in their span
    exactly when subtracting, for each pivot, the vector's digit there times
    that row leaves zero.  Only the rows at pivots where some vector is
    nonzero are widened for the sum."""
    p, r = field.p, field.r
    vectors = np.asarray(vectors)
    coords = field.digits(vectors).reshape(
        len(vectors), vectors.shape[-1] * r).astype(_wide_dtype(p))
    if len(reduced):
        pivots = np.argmax(np.asarray(reduced) != 0, axis=1)
        coeffs = coords[:, (pivots[:, None] * r + np.arange(r)).ravel()]
        hit = np.flatnonzero(coeffs.any(axis=0))
        rows = field.expand(reduced, coords.dtype)[hit]
        coords = (coords - coeffs[:, hit] @ rows) % p
    return ~coords.any(axis=1)


def in_row_space(vector, rows, field: FieldSpec) -> bool:
    """Whether vector lies in the GF(q) row space of rows."""
    return bool(in_reduced_row_space([vector], rref_field(rows, field)[0],
                                     field)[0])


def nullspace_field(matrix, field: FieldSpec) -> np.ndarray:
    """Basis of {v | M v = 0}, an index row for each free column c of the
    reduced form R of M, in column order: 1 at c and -R[i, c] at the pivot
    of row i."""
    reduced, pivots = rref_field(matrix, field)
    free = np.ones(reduced.shape[1], dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((len(free), reduced.shape[1]), dtype=reduced.dtype)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = field.negate(reduced[:, free].T)
    return basis
