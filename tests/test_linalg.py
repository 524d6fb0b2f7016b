"""Row reduction over GF(q) through the F_p kernel, against a scalar
reference; the sparse rank against the dense one."""

import numpy as np
from hypothesis import given, settings, strategies as st

from modinvar.gfq import FieldSpec, build_field
from modinvar.linalg import (_residue_dtype, fp_expand_coo,
                             in_reduced_row_space, in_row_space,
                             nullspace_field, rref_field, rref_mod_p,
                             sparse_rank_mod_p)


def naive_rref_field(rows, field):
    """Scalar Gauss-Jordan elimination over a FieldSpec, one entry at a time.

    This is the pure-Python `rref_field` that `linalg` used before every
    GF(q) reduction went through `rref_mod_p`; it is kept here only as the
    cross-check oracle.  Returns (reduced rows as lists, pivots).
    """
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        if inv != 1:
            rows[rank] = [field.mul(inv, a) for a in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rr, pr = rows[r], rows[rank]
                rows[r] = [field.sub(a, field.mul(c, b)) for a, b in zip(rr, pr)]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank], pivots


def mat_vec(field, rows, v):
    out = []
    for row in rows:
        acc = 0
        for a, b in zip(row, v):
            acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return out


DIFF_FIELDS = [build_field(2), build_field(3), build_field(5),
               build_field(2, 2), build_field(2, 3), build_field(3, 2),
               build_field(2, 4), build_field(3, 3)]


@st.composite
def index_matrices(draw):
    """0-6 rows of width 1-7 over one small field, with zero rows and
    repeated rows mixed in."""
    field = draw(st.sampled_from(DIFF_FIELDS))
    width = draw(st.integers(min_value=1, max_value=7))
    row = st.lists(st.integers(min_value=0, max_value=field.q - 1),
                   min_size=width, max_size=width)
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["any", "any", "zero", "repeat"]))
        if kind == "zero":
            rows.append([0] * width)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append(draw(row))
    return field, width, rows


@settings(max_examples=300, deadline=None)
@given(index_matrices())
def test_rref_field_matches_scalar_elimination(case):
    field, width, rows = case
    reduced, pivots = rref_field(rows, field)
    expected, expected_pivots = naive_rref_field(rows, field)
    assert reduced.tolist() == expected
    assert pivots == expected_pivots
    if rows:
        assert reduced.shape == (len(expected), width)


def list_nullspace(rows, field):
    """The Python-list loop `nullspace_field` ran: for each free column of
    the reduced form, 1 there and the negated column entries at the
    pivots; the oracle of its vectors and their order."""
    reduced, pivots = rref_field(rows, field)
    basis = []
    for fc in [c for c in range(len(rows[0])) if c not in pivots]:
        v = [0] * len(rows[0])
        v[fc] = 1
        for row, pc in zip(reduced, pivots):
            v[pc] = field.neg(int(row[fc]))
        basis.append(v)
    return basis


@settings(max_examples=100, deadline=None)
@given(index_matrices())
def test_nullspace_field_is_the_kernel(case):
    """M v = 0 for every basis vector, ncols - rank of them, independent,
    and the vectors, in order, of the list loop the array code replaced."""
    field, width, rows = case
    basis = nullspace_field(rows, field)
    if not rows:
        assert basis.shape == (0, 0)
        return
    assert basis.tolist() == list_nullspace(rows, field)
    assert len(basis) == width - len(naive_rref_field(rows, field)[1])
    for v in basis.tolist():
        assert mat_vec(field, rows, v) == [0] * len(rows)
    if len(basis):
        assert len(rref_field(basis, field)[1]) == len(basis)


def test_in_row_space_members_and_non_members():
    F4 = build_field(2, 2)
    rows = [[1, 2, 0], [0, 0, 1]]
    # a GF(4)-combination: 3 * row0 + 2 * row1
    member = [F4.add(F4.mul(3, a), F4.mul(2, b)) for a, b in zip(*rows)]
    assert in_row_space(member, rows, F4)
    assert in_row_space([0, 0, 0], rows, F4)
    assert not in_row_space([0, 1, 0], rows, F4)
    assert not in_row_space([1, 3, 0], rows, F4)
    assert in_row_space([0, 0, 0], [], F4)
    assert not in_row_space([0, 1, 0], [], F4)


@settings(max_examples=200, deadline=None)
@given(index_matrices(), st.data())
def test_in_row_space_matches_the_rank_test(case, data):
    """One reduction and a subtraction along the pivots, against the two
    ranks `in_row_space` used to compare; the vector is drawn at random or
    as a combination of the rows."""
    field, width, rows = case
    entry = st.integers(min_value=0, max_value=field.q - 1)
    if rows and data.draw(st.booleans()):
        vector = [0] * width
        for row in rows:
            c = data.draw(entry)
            vector = [field.add(v, field.mul(c, a)) for v, a in zip(vector, row)]
    else:
        vector = data.draw(st.lists(entry, min_size=width, max_size=width))
    rank = len(naive_rref_field(rows, field)[1])
    expected = len(naive_rref_field(rows + [vector], field)[1]) == rank
    assert in_row_space(vector, rows, field) == expected
    if rows:
        reduced = rref_field(rows, field)[0]
        assert in_reduced_row_space([vector], reduced, field).tolist() == \
            [expected]


@settings(max_examples=150, deadline=None)
@given(index_matrices(), st.data())
def test_in_reduced_row_space_mask_matches_each_row(case, data):
    """The batched membership mask against `in_row_space` row by row, on
    vectors drawn at random and as combinations of the rows."""
    field, width, rows = case
    entry = st.integers(min_value=0, max_value=field.q - 1)
    vectors = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        vector = data.draw(st.lists(entry, min_size=width, max_size=width))
        if rows and data.draw(st.booleans()):
            vector = [0] * width
            for row in rows:
                c = data.draw(entry)
                vector = [field.add(v, field.mul(c, a))
                          for v, a in zip(vector, row)]
        vectors.append(vector)
    mask = in_reduced_row_space(np.array(vectors).reshape(len(vectors), width),
                                rref_field(rows, field)[0], field)
    assert mask.tolist() == [in_row_space(v, rows, field) for v in vectors]


def test_in_row_space_over_a_prime_field():
    F5 = build_field(5)
    rows = [[1, 2, 3, 4], [0, 1, 1, 1]]
    assert in_row_space([2, 0, 2, 4], rows, F5)  # 2*row0 - 4*row1
    assert not in_row_space([0, 0, 0, 1], rows, F5)


def test_empty_input():
    F9 = build_field(3, 2)
    reduced, pivots = rref_field([], F9)
    assert reduced.shape[0] == 0 and pivots == []
    reduced, pivots = rref_field([[0, 0, 0], [0, 0, 0]], F9)
    assert reduced.shape == (0, 3) and pivots == []
    assert nullspace_field([], F9).shape == (0, 0)
    reduced, pivots = rref_mod_p(np.zeros((0, 4), dtype=np.int64), 3)
    assert reduced.shape == (0, 4) and pivots == []


def test_rref_over_a_prime_above_two_to_the_32():
    """Only the pivots are inverted, and residues this large are reduced as
    Python ints."""
    field = FieldSpec(4294967311)
    rows = [[1, 2, 0], [3, 4, 5], [4, 6, 5], [field.neg(2), field.neg(4), 0]]
    reduced, pivots = rref_field(rows, field)
    expected, expected_pivots = naive_rref_field(rows, field)
    assert reduced.tolist() == expected
    assert pivots == expected_pivots
    assert rref_mod_p(np.array([[1, 2], [3, 4]]), 4294967311)[1] == [0, 1]


def test_fp_expand_is_multiplication_by_powers_of_t():
    F8 = build_field(2, 3)
    t = F8.p
    rows = [[5, 0, 7], [1, 6, 3]]
    expanded = F8.expand(rows, _residue_dtype(F8.p))
    assert expanded.shape == (6, 9)
    for i, row in enumerate(rows):
        for j in range(F8.r):
            tj = F8.pow(t, j)
            digits = [d for a in row for d in F8._digits(F8.mul(tj, a))]
            assert expanded[i * F8.r + j].tolist() == digits


def test_fp_expand_of_a_prime_field_is_the_matrix():
    """Over GF(p) the F_p expansion (`FieldSpec.expand`) is the index
    matrix itself, in the dtype asked for, as its one-digit rows are."""
    for field in (build_field(3), build_field(251), FieldSpec(4294967311)):
        rows = [[0, 1, 2], [field.neg(1), 2, 0]]
        dtype = _residue_dtype(field.p)
        expanded = field.expand(rows, dtype)
        assert expanded.dtype == dtype
        assert expanded.tolist() == field.digits(rows).reshape(2, 3) \
            .tolist() == rows


@st.composite
def sparse_matrices(draw):
    """A sparse matrix mod p as (dense array, p): up to 9 x 9, each entry
    nonzero with a drawn density, repeated rows mixed in; p includes a prime
    above 2^32, whose residues need Python ints."""
    p = draw(st.sampled_from([2, 3, 5, 7, 4294967311]))
    m = draw(st.integers(min_value=0, max_value=9))
    n = draw(st.integers(min_value=1, max_value=9))
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
    entry = st.integers(min_value=1, max_value=p - 1)
    rows = []
    for _ in range(m):
        if rows and draw(st.booleans()):
            rows.append(list(draw(st.sampled_from(rows))))
            continue
        mask = draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))
        rows.append([draw(entry) if x < density else 0 for x in mask])
    return np.array(rows, dtype=object).reshape(m, n), p


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_sparse_rank_matches_dense_rank(case):
    A, p = case
    rows, cols = np.nonzero(A != 0)
    expected = len(rref_mod_p(A, p)[1]) if A.shape[0] else 0
    assert sparse_rank_mod_p(rows, cols, A[rows, cols], p) == expected


def test_sparse_rank_prunes_and_eliminates():
    """Singleton rows and columns are pruned; the 3-cycle of differences
    that is left has rank 2, found by elimination."""
    A = np.array([[1, 0, 0, 0, 0],
                  [1, 1, 0, 0, 0],
                  [0, 0, 1, 2, 0],
                  [0, 0, 0, 1, 2],
                  [0, 0, 2, 0, 1]])
    rows, cols = np.nonzero(A)
    assert sparse_rank_mod_p(rows, cols, A[rows, cols], 3) == 4
    assert sparse_rank_mod_p(rows, cols, A[rows, cols], 3) == \
        len(rref_mod_p(A, 3)[1])
    assert sparse_rank_mod_p([], [], [], 5) == 0


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.booleans(),
       st.integers(min_value=2, max_value=12),
       st.integers(min_value=1, max_value=30),
       st.sampled_from([0.05, 0.2, 0.5]), st.integers(0, 2 ** 32 - 1))
def test_sparse_rank_of_tall_and_wide_cores(p, tall, short, extra, density,
                                            seed):
    """Matrices with at least two entries in every row and column, so that
    nothing is pruned and the core is the whole matrix, taller than wide
    (it is eliminated as its transpose) or wider than tall.  Both, and
    their transposes, have the dense rank."""
    rng = np.random.default_rng(seed)
    shape = (short + extra, short) if tall else (short, short + extra)
    A = np.where(rng.random(shape) < density,
                 rng.integers(1, p, shape), 0)
    for axis, size in enumerate(shape):
        other = shape[1 - axis]
        for i in range(size):
            cells = rng.choice(other, size=2, replace=False)
            index = (i, cells) if axis == 0 else (cells, i)
            A[index] = rng.integers(1, p, 2)
    expected = len(rref_mod_p(A, p)[1])
    for M in (A, A.T):
        rows, cols = np.nonzero(M)
        assert sparse_rank_mod_p(rows, cols, M[rows, cols], p) == expected


@st.composite
def f2_matrices(draw):
    """A 0/1 matrix over F_2 of up to 40 x 200, so that its bitset rows are
    wider than 64 bits.  Its rows are random at a drawn density, repeats of
    earlier rows, or the rows e_a + e_b of a cycle of columns, which keep
    two entries in every row and column of the cycle and so survive the
    pruning."""
    m = draw(st.integers(min_value=0, max_value=40))
    n = draw(st.integers(min_value=1, max_value=200))
    density = draw(st.sampled_from([0.01, 0.05, 0.2, 0.6]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    while len(rows) < m:
        kind = draw(st.sampled_from(["random", "repeat", "cycle"]))
        if kind == "repeat" and rows:
            rows.append(rows[draw(st.integers(0, len(rows) - 1))].copy())
        elif kind == "cycle" and n >= 2:
            length = draw(st.integers(min_value=2, max_value=min(n, 12)))
            ring = rng.choice(n, size=length, replace=False)
            for a, b in zip(ring, np.roll(ring, -1)):
                row = np.zeros(n, dtype=np.int64)
                row[[a, b]] = 1
                rows.append(row)
        else:
            rows.append((rng.random(n) < density).astype(np.int64))
    return np.array(rows[:m], dtype=np.int64).reshape(m, n)


@settings(max_examples=200, deadline=None)
@given(f2_matrices())
def test_f2_bitset_rank_matches_dense_rank(A):
    rows, cols = np.nonzero(A)
    expected = len(rref_mod_p(A, 2)[1]) if A.shape[0] else 0
    assert sparse_rank_mod_p(rows, cols, A[rows, cols], 2) == expected


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([build_field(2, 2), build_field(2, 3),
                        build_field(2, 4)]),
       st.integers(min_value=0, max_value=12),
       st.integers(min_value=1, max_value=30),
       st.sampled_from([0.05, 0.2, 0.6]), st.integers(0, 2 ** 32 - 1))
def test_f2_bitset_rank_of_gf2r_stacks(field, m, n, density, seed):
    """A sparse GF(2^r) matrix written over F_2 by `fp_expand_coo`, as the
    Hilbert checks over GF(4) write theirs: its F_2 rank is the dense one,
    r times the GF(2^r) rank."""
    rng = np.random.default_rng(seed)
    A = np.where(rng.random((m, n)) < density,
                 rng.integers(1, field.q, (m, n)), 0)
    i, k = np.nonzero(A)
    R, C, V = fp_expand_coo(i, k, A[i, k], field)
    rank = sparse_rank_mod_p(R, C, V, 2)
    assert rank == (len(rref_mod_p(field.expand(A, np.int64), 2)[1])
                    if m else 0)
    assert rank == field.r * (len(rref_field(A, field)[1]) if m else 0)


@settings(max_examples=100, deadline=None)
@given(index_matrices())
def test_fp_expand_coo_matches_fp_expand(case):
    field, width, rows = case
    A = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    i, k = np.nonzero(A)
    R, C, V = fp_expand_coo(i, k, A[i, k], field)
    dense = np.zeros((len(rows) * field.r, width * field.r), dtype=np.int64)
    dense[R, C] = V
    assert (V != 0).all()
    assert (dense == field.expand(A, np.int64)).all()


def test_fp_expand_coo_drops_zero_entries():
    """Over GF(p) an entry expands to itself, so a zero entry is dropped;
    over GF(4) an entry a expands to the nonzero digits of a and t a."""
    R, C, V = fp_expand_coo([0, 1, 2, 3], [3, 2, 1, 0], [0, 2, 0, 4],
                            build_field(5, 1))
    assert R.tolist() == [1, 3] and C.tolist() == [2, 0]
    assert V.tolist() == [2, 4]
    # 1 = (1, 0) and t 1 = (0, 1); 2 = t = (0, 1) and t t = t + 1 = (1, 1)
    R, C, V = fp_expand_coo([0, 1, 1], [0, 0, 1], [1, 0, 2],
                            build_field(2, 2))
    assert list(zip(R.tolist(), C.tolist(), V.tolist())) == [
        (0, 0, 1), (1, 1, 1), (2, 3, 1), (3, 2, 1), (3, 3, 1)]
