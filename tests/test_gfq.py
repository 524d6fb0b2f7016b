import itertools
import random
import tracemalloc
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modinvar.gfq import (FieldMismatchError, FieldSpec, build_field,
                          enumerate_field, frobenius, is_prime,
                          _poly_is_irreducible, _poly_mul_mod_p, _poly_rem)
from modinvar.groups import _index_dtype

SMALL_QS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 3)]


def test_build_field_basic():
    assert build_field(2, 1).q == 2
    assert build_field(3, 1).q == 3
    F4 = build_field(2, 2)
    assert F4.q == 4
    # t^2 + t + 1, coefficients low-degree first
    assert F4.modulus == (1, 1, 1)


def test_gf4_modulus_is_unique_irreducible_quadratic():
    # exhaustive oracle: t^2+t+1 is the only monic irreducible quadratic
    irreducible = [m for m in itertools.product(range(2), repeat=2)
                   if _poly_is_irreducible([m[0], m[1], 1], 2)]
    assert irreducible == [(1, 1)]


def test_build_field_errors():
    with pytest.raises(ValueError):
        build_field(4, 1)
    with pytest.raises(ValueError):
        build_field(6, 2)
    with pytest.raises(ValueError):
        build_field(3, 0)


def test_explicit_modulus_override():
    F9 = build_field(3, 2, modulus=(2, 2, 1))
    a = F9.scalar([0, 1])
    assert (a * a).coeffs == tuple(F9._digits(F9.parse_scalar("1+t")))
    with pytest.raises(ValueError):
        build_field(2, 2, modulus=(0, 0, 1))  # t^2 is reducible


def test_prime_field_arithmetic():
    F3 = build_field(3)
    two = F3.scalar(2)
    assert two.inverse() == two  # 2*2 = 4 = 1
    assert (two + two) == F3.scalar(1)
    assert (-two) == F3.scalar(1)


def test_gf4_multiplication():
    F4 = build_field(2, 2)
    t = F4.scalar([0, 1])
    assert (t * t) == F4.scalar([1, 1])  # t^2 = t + 1 mod t^2+t+1


def test_inversion_of_zero():
    F3 = build_field(3)
    with pytest.raises(ZeroDivisionError):
        F3.zero().inverse()


def test_mixed_fields_error():
    a = build_field(2).one()
    b = build_field(3).one()
    with pytest.raises(FieldMismatchError):
        _ = a + b


@pytest.mark.parametrize("p,r", SMALL_QS)
def test_enumerate_field(p, r):
    F = build_field(p, r)
    elems = enumerate_field(F)
    assert len(elems) == F.q
    assert len(set(elems)) == F.q
    assert elems[0] == F.zero()
    assert elems[1] == F.one()


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
def test_field_axioms_exhaustive(p, r):
    """Associativity, distributivity and inverses for every q <= 9 triple."""
    F = build_field(p, r)
    if F.q > 9:
        pytest.skip("exhaustive triple check limited to q <= 9")
    elems = enumerate_field(F)
    for a, b, c in itertools.product(elems, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for a in elems:
        assert a + (-a) == F.zero()
        if not a.is_zero():
            assert a * a.inverse() == F.one()


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
def test_fermat_property(p, r):
    F = build_field(p, r)
    for a in enumerate_field(F):
        assert a ** F.q == a


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_frobenius_additive(p, r):
    F = build_field(p, r)
    for a, b in itertools.product(enumerate_field(F), repeat=2):
        assert frobenius(a + b) == frobenius(a) + frobenius(b)


def test_frobenius_fixed_on_prime_field():
    F5 = build_field(5)
    for a in enumerate_field(F5):
        assert frobenius(a) == a
    assert frobenius(build_field(2, 2).zero()).is_zero()


def test_frobenius_gf4():
    F4 = build_field(2, 2)
    t = F4.scalar([0, 1])
    assert frobenius(t) == t * t == F4.scalar([1, 1])


def test_large_exponents_no_overflow():
    F3 = build_field(3)
    a = F3.scalar(2)
    q = 3
    assert a ** (q ** 8) == a  # q-power towers act as Frobenius iterates
    assert a ** (q ** 16 - 1) == F3.one()


def test_scalar_text_roundtrip():
    F9 = build_field(3, 2)
    for a in enumerate_field(F9):
        assert F9.scalar(F9.format_scalar(a.index)) == a
    F7 = build_field(7)
    assert F7.format_scalar(5) == "5"
    assert F7.parse_scalar("-2") == 5


def test_primitive_element():
    for p, r in [(2, 2), (3, 1), (5, 1), (3, 2)]:
        F = build_field(p, r)
        g = F.primitive_element()
        seen = set()
        a = F.one()
        for _ in range(F.q - 1):
            a = a * g
            seen.add(a)
        assert len(seen) == F.q - 1


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def digit_add(field, a, b):
    """Digit-by-digit addition on the integers, the oracle of the addition
    table and of `FieldSpec.add` above TABLE_LIMIT (through `_digits` and
    `_index`); `digit_neg` is the same for negation."""
    p = field.p
    s, shift = 0, 1
    while a or b:
        s += ((a % p + b % p) % p) * shift
        a //= p
        b //= p
        shift *= p
    return s


def digit_neg(field, a):
    p = field.p
    s, shift = 0, 1
    while a:
        s += ((p - a % p) % p) * shift
        a //= p
        shift *= p
    return s


@pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2),
                                 (3, 3)])
def test_add_neg_sub_tables_match_digit_loop(p, r):
    F = build_field(p, r)
    assert F._add_table is not None and F._neg_table is not None
    for a in range(F.q):
        assert F.neg(a) == digit_neg(F, a)
        for b in range(F.q):
            assert F.add(a, b) == digit_add(F, a, b)
            assert F.sub(a, b) == digit_add(F, a, digit_neg(F, b))


def test_digit_loop_above_table_limit():
    F = build_field(2, 10)
    assert F._add_table is None
    rng = random.Random(4)
    for _ in range(200):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        assert F.add(a, b) == digit_add(F, a, b)
        assert F.neg(a) == digit_neg(F, a)


@pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3),
                                 (2, 8), (2, 9)])
def test_tables_match_digit_polynomial_products(p, r):
    """The numpy-built tables against the digit-polynomial product reduced
    by the modulus, pair by pair (the way they were filled before)."""
    F = FieldSpec(p, r)
    mod = list(F.modulus)
    digits = [F._digits(a) for a in range(F.q)]
    for a in range(F.q):
        row = F._mul_table[a]
        for b in range(a, F.q):
            prod = _poly_rem(_poly_mul_mod_p(digits[a], digits[b], p), mod, p)
            expected = F._index(prod + [0] * (r - len(prod)))
            assert row[b] == F._mul_table[b][a] == expected
        if a:
            assert row[F._inv_table[a]] == 1
    assert F._inv_table[0] == 0
    assert all(type(c) is int for c in F._mul_table[F.q - 1])


# -- the F_p coordinate layer against the scalar digits and products --

@st.composite
def index_pairs(draw):
    """A field (GF(2^10) above TABLE_LIMIT) and two equal-shaped index
    arrays of up to 3 x 4 elements."""
    field = build_field(*draw(st.sampled_from(
        [(2, 1), (257, 1), (2, 2), (2, 3), (3, 2), (3, 3), (2, 10)])))
    shape = draw(st.sampled_from([(0,), (1,), (5,), (3, 4)]))
    size = int(np.prod(shape))
    entries = st.lists(st.integers(0, field.q - 1), min_size=size,
                       max_size=size)
    return (field, np.array(draw(entries), dtype=np.int64).reshape(shape),
            np.array(draw(entries), dtype=np.int64).reshape(shape))


@settings(max_examples=150, deadline=None)
@given(index_pairs())
def test_digits_indices_and_regular_match_the_scalar_field(case):
    F, a, b = case
    digits = F.digits(a)
    assert digits.dtype == np.int64 and digits.shape == a.shape + (F.r,)
    assert digits.reshape(-1, F.r).tolist() == [F._digits(x)
                                                for x in a.ravel().tolist()]
    assert (F.indices(digits) == a).all()
    # the big-endian index views the closure decodes
    assert (F.digits(a.astype(_index_dtype(F))) == digits).all()
    # digits on another axis, and as Python ints
    assert (F.indices(np.moveaxis(digits, -1, 0), axis=0) == a).all()
    assert (F.indices(digits.astype(object)) == a).all()
    product = (F.regular(digits) @ F.digits(b)[..., None])[..., 0] % F.p
    assert F.indices(product).tolist() == np.vectorize(F.mul, otypes=[
        np.int64])(a, b).tolist()


def test_indices_fold_uint8_digit_rows_in_int64():
    """Narrow digit rows fold into int64 indices: at q = 512 the indices
    pass 255, which uint8 digits cannot hold."""
    F = build_field(2, 9)
    rows = F.digits(np.arange(F.q)).astype(np.uint8)
    folded = F.indices(rows)
    assert folded.dtype == np.int64
    assert folded.tolist() == list(range(F.q))


# -- the array arithmetic against the scalar field --

# prime fields on both sides of the residue-product limit 2^31, fields with
# tables (q <= TABLE_LIMIT) and GF(3^6) and GF(2^10) without
ARRAY_FIELDS = [(2, 1), (3, 1), (2 ** 31 - 1, 1), (2 ** 31 + 11, 1), (2, 2),
                (3, 2), (2, 9), (3, 6), (2, 10)]


@st.composite
def array_operands(draw):
    """A field of ARRAY_FIELDS and two index arrays whose shapes broadcast
    against each other, empty ones among them."""
    field = build_field(*draw(st.sampled_from(ARRAY_FIELDS)))
    shape_a, shape_b = draw(st.sampled_from(
        [((0,), (0,)), ((0,), (1,)), ((5,), (5,)), ((3, 1), (4,)),
         ((1, 4), (3, 1)), ((2, 3), ())]))

    def indices(shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(
            st.sampled_from([0, 1, field.p - 1, field.q - 1])
            | st.integers(0, field.q - 1), min_size=size, max_size=size)),
            dtype=np.int64).reshape(shape)

    return field, indices(shape_a), indices(shape_b)


@settings(max_examples=200, deadline=None)
@given(array_operands(), st.integers(0, 2 * 3 ** 6))
def test_array_arithmetic_matches_the_scalar_field(case, e):
    """`multiply`, `power` and `negate` elementwise, broadcast, against the
    scalar `mul`, `pow` and `neg`; `run_sums` of the runs of a against the
    scalar `add`."""
    F, a, b = case
    scalar = np.vectorize(lambda x, y: F.mul(int(x), int(y)),
                          otypes=[np.int64])
    product = F.multiply(a, b)
    assert product.dtype == np.int64
    assert product.shape == np.broadcast_shapes(a.shape, b.shape)
    assert product.tolist() == (scalar(a, b) if product.size else
                                product).tolist()
    powers = F.power(a, e)
    assert powers.dtype == np.int64 and powers.shape == a.shape
    assert powers.ravel().tolist() == [F.pow(x, e) for x in a.ravel().tolist()]
    assert F.negate(a).tolist() == np.vectorize(
        lambda x: F.neg(int(x)), otypes=[np.int64])(a).tolist()
    flat = a.ravel()
    # runs of equal parity; the first one starts at 0
    starts = np.flatnonzero(np.diff(flat % 2, prepend=-1))
    bounds = starts.tolist() + [len(flat)]
    sums = [reduce(F.add, flat[lo:hi].tolist(), 0)
            for lo, hi in zip(bounds, bounds[1:])]
    assert F.run_sums(flat, starts).tolist() == sums


def test_multiply_routes_by_the_field():
    """Fields with tables gather from `_mul_array`; GF(3^6) and GF(2^10),
    which have none, multiply through the modulus reduction `reduce`, the
    one `groups._digit_matmul` uses too."""
    every = np.arange(9)
    for p, r in ((3, 2), (3, 6), (2, 10)):
        F = build_field(p, r)
        with mock.patch.object(FieldSpec, "reduce", autospec=True,
                               side_effect=FieldSpec.reduce) as spy:
            product = F.multiply(every[:, None], every)
        assert spy.call_count == (F._mul_array is None)
        assert product.tolist() == [[F.mul(a, b) for b in range(9)]
                                    for a in range(9)]


@pytest.mark.parametrize("p,r", [(2, 1), (509, 1), (2, 2), (3, 2), (2, 8),
                                 (2, 9), (3, 5), (7, 3)])
def test_tables_match_the_convolution_route(p, r):
    """The multiplication table, built by float64 matmuls of digits with
    the regular matrices, is the product of the convolution route that
    fields without tables take, and the inverse table inverts."""
    F = FieldSpec(p, r)
    every = np.arange(F.q)
    with mock.patch.object(F, "_mul_array", None):
        convolved = F.multiply(every[:, None], every)
    assert np.array_equal(F._mul_array, convolved)
    assert F._mul_table == convolved.tolist()
    assert [F.mul(a, F.inv(a)) for a in range(1, F.q)] == [1] * (F.q - 1)


def test_tables_are_built_in_row_blocks():
    """The transient memory of building the GF(512) tables (the peak less
    what the field keeps) stays below the (q, r, q) int64 array of the
    regular-representation product that built them before."""
    p, r = 2, 9
    tracemalloc.start()
    try:
        F = FieldSpec(p, r)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert F._mul_array.shape == (F.q, F.q)
    assert peak - kept < F.q * r * F.q * 8
