import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from modinvar import mvpoly
from modinvar.gfq import build_field
from modinvar.groups import GroupElement, gl_group
from modinvar.mvpoly import (InexactDivisionError, ParseError, Polynomial,
                             SpaceMismatchError, VariableSpace,
                             balanced_product, format_polynomial, grevlex_key,
                             monomial_array, monomials_of_degree,
                             parse_polynomial, x_space)

F2 = build_field(2)
F3 = build_field(3)
F4 = build_field(2, 2)
F9 = build_field(3, 2)


def space(field, *names):
    return VariableSpace(field, names)


def random_poly(rng, sp, max_terms=6, max_deg=4):
    out = sp.zero()
    for _ in range(rng.randrange(max_terms + 1)):
        e = tuple(rng.randrange(max_deg) for _ in range(sp.dim))
        out = out + sp.monomial(e, rng.randrange(1, sp.field.q))
    return out


def test_char2_frobenius_square():
    sp = space(F2, "x1", "x2")
    x1, x2 = sp.variables()
    assert (x1 + x2) ** 2 == x1 ** 2 + x2 ** 2


def test_char3_frobenius_cube():
    sp = space(F3, "y1", "x1")
    y1, x1 = sp.variables()
    assert (y1 + x1) ** 3 == y1 ** 3 + x1 ** 3


def test_mul_identity():
    sp = space(F3, "x1", "x2")
    f = parse_polynomial(sp, "x1^2 + 2*x2")
    assert f * sp.one() == f
    assert f * sp.zero() == sp.zero()


def test_equality_with_an_int_that_is_not_a_field_index():
    """As for Scalar, an int outside 0..q-1 of GF(p^r) compares unequal
    instead of raising."""
    x1 = space(F4, "x1", "x2").variable("x1")
    assert not x1 == 7
    assert x1 != 7
    assert space(F4, "x1").constant(3) == 3
    assert F4.scalar(1) != 7


def test_coefficient_indices_are_guarded():
    """A coefficient index must lie in 1..q-1.  Over GF(5) an index of 5
    was accepted, and then `fixed_by` (residues mod 5) and `act` (table
    lookups) disagreed on which GL2(F5) elements fix it, 4 against 0."""
    F5 = build_field(5)
    sp = space(F5, "x1", "x2")
    for bad in ({(4, 8): 5}, {(4, 8): 0}, {(4, 8): 1, (0, 1): 0},
                {(1, 0): -1}):
        with pytest.raises(ValueError, match=r"1\.\.4"):
            Polynomial(sp, bad)
    f = Polynomial(sp, {(4, 8): 4})
    mats = gl_group(2, F5).enumerate().rows()
    fixed = mvpoly.fixed_by([f], mats)[0]
    assert fixed.tolist() == [f.act(g.tolist()) == f for g in mats]
    assert fixed.sum() == 16  # the diagonal matrices: a^4 = d^8 = 1


def test_exponent_keys_are_guarded():
    """An exponent key must be a tuple of dim nonnegative ints.  A short
    key printed as x1 but differed from it, a negative exponent printed
    as x1 with degree 0, and a long key had degree 7 but gave x1^3 times
    x1."""
    sp = x_space(F3, 2)
    for bad in ({(1,): 1}, {(1, -1): 1}, {(2, 0, 5): 1}, {(1, 0): 1, 7: 1},
                {(1.0, 0): 1}, {(np.int64(1), 0): 1}):
        with pytest.raises(ValueError, match="tuples of 2 nonnegative ints"):
            Polynomial(sp, bad)
    with pytest.raises(ValueError, match="tuples of 2"):
        sp.monomial((1,))
    x1 = sp.variable("x1")
    assert sp.monomial((1, 0)) == x1 and Polynomial(sp, {(1, 0): 1}) == x1


def test_degree_sentinel():
    sp = space(F2, "x1")
    assert sp.zero().degree() == -1
    assert sp.one().degree() == 0
    assert sp.variable("x1").degree() == 1


def test_pow_matches_repeated_multiplication():
    sp = space(F3, "x1", "x2")
    f = parse_polynomial(sp, "x1 + 2*x2 + x1*x2")
    acc = sp.one()
    for k in range(7):
        assert f ** k == acc
        acc = acc * f


def test_frobenius_power_equals_naive():
    sp = space(F9, "x1", "x2")
    x1, x2 = sp.variables()
    f = x1 + x2.scale(F9.scalar([1, 1]))
    naive = sp.one()
    for _ in range(9):
        naive = naive * f
    assert f ** 9 == naive


def test_exact_divide_factorization():
    sp = space(F2, "x1", "x2")
    x1, x2 = sp.variables()
    f = x1 ** 2 * x2 + x1 * x2 ** 2
    assert f.exact_divide(x1 + x2) == x1 * x2
    assert f.exact_divide(f) == sp.one()
    with pytest.raises(InexactDivisionError):
        x1.exact_divide(x2)
    with pytest.raises(ZeroDivisionError):
        x1.exact_divide(sp.zero())


@pytest.mark.parametrize("field", [F2, F3, F9])
def test_exact_divide_random_products(field):
    rng = random.Random(7)
    sp = space(field, "x1", "x2", "x3")
    for _ in range(25):
        f = random_poly(rng, sp)
        g = random_poly(rng, sp)
        if g.is_zero():
            continue
        assert (f * g).exact_divide(g) == f


def test_substitute_identity_and_simple():
    sp = space(F3, "y1", "x1")
    y1, x1 = sp.variables()
    f = y1 ** 2
    assert f.substitute({}) == f
    assert f.substitute({"y1": x1}) == x1 ** 2
    assert y1.substitute({"y1": y1 ** 2 + x1}) == y1 ** 2 + x1


def test_substitute_mixed_space_error():
    sp = space(F3, "y1", "x1")
    other = space(F2, "y1", "x1")
    with pytest.raises((SpaceMismatchError, Exception)):
        sp.variable("y1").substitute({"y1": other.variable("x1")})


# -- the substitution kernel against the composition it replaced --

def compose_oracle(f: Polynomial, assignment: dict) -> Polynomial:
    """`substitute` before the kernel merged with the action's: every
    variable gets an image (unassigned ones their namesake in the target
    space), and each term's image is added to the running sum."""
    images = {f.space.position(name): img for name, img in assignment.items()}
    target = next(iter(assignment.values())).space if assignment else f.space
    for i, name in enumerate(f.space.names):
        images.setdefault(i, target.variable(name))
    acc = target.zero()
    for e, c in f._terms.items():
        term = target.constant(c)
        for fct in sorted((images[i] ** ei for i, ei in enumerate(e) if ei),
                          key=len):
            term = term * fct
        acc = acc + term
    return acc


@st.composite
def small_poly(draw, sp, max_terms=6, max_exp=3):
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * sp.dim),
        st.integers(min_value=1, max_value=sp.field.q - 1),
        max_size=max_terms))
    return Polynomial(sp, terms)


SUBSTITUTION_FIELDS = (F2, F3, F4, F9)


@pytest.mark.parametrize("field", SUBSTITUTION_FIELDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_sub_matches_adding_the_negation(field, data):
    """f - g and the reference f + (-g) give the same terms in the same
    insertion order, and a difference with itself or a shared term
    cancels."""
    sp = space(field, "x", "y")
    f = data.draw(small_poly(sp, max_exp=2))
    g = data.draw(small_poly(sp, max_exp=2)) + f.scale(data.draw(
        st.integers(0, field.q - 1)))
    for a, b in ((f, g), (g, f), (f, f)):
        assert list((a - b)._terms.items()) == list((a + (-b))._terms.items())
    assert not f - f


@st.composite
def same_space_assignment(draw):
    """A polynomial and images for a subset of its variables, in its own
    space (the shape of the action's images: fixed variables unassigned)."""
    sp = space(draw(st.sampled_from(SUBSTITUTION_FIELDS)), "x1", "x2", "x3")
    f = draw(small_poly(sp, max_terms=12, max_exp=4))
    names = draw(st.lists(st.sampled_from(sp.names), unique=True))
    return f, {name: draw(small_poly(sp)) for name in names}


@st.composite
def lift_assignment(draw):
    """A polynomial in y1, y2 and images in the space y1, y2, x1, x2: the
    namesake lift of the parabolic-family check, or random images, with
    any variable left unassigned lifted to its namesake."""
    field = draw(st.sampled_from(SUBSTITUTION_FIELDS))
    source = space(field, "y1", "y2")
    target = space(field, "y1", "y2", "x1", "x2")
    f = draw(small_poly(source, max_terms=12, max_exp=4))
    names = draw(st.lists(st.sampled_from(source.names), unique=True,
                          min_size=1))
    lift = draw(st.booleans())
    return f, {name: target.variable(name) if lift
               else draw(small_poly(target)) for name in names}


@settings(max_examples=80, deadline=None)
@given(st.one_of(same_space_assignment(), lift_assignment()))
def test_substitute_matches_composition(case):
    f, assignment = case
    got = f.substitute(assignment)
    want = compose_oracle(f, assignment)
    assert got.space == want.space
    assert got._terms == want._terms


def test_substitute_kernel_needs_every_image_across_spaces():
    sp = space(F3, "y1", "x1")
    other = space(F3, "y1", "x1", "x2")
    with pytest.raises(ValueError):
        sp.variable("y1")._substitute(other, {0: other.variable("x2")})


def test_act_identity_and_permutation():
    sp = space(F3, "x1", "x2")
    x1, x2 = sp.variables()
    ident = GroupElement(F3, ((1, 0), (0, 1)))
    swap = GroupElement(F3, ((0, 1), (1, 0)))
    f = x1 ** 2 + x1 * x2
    assert f.act(ident) == f
    assert x1.act(swap) == x2


def test_act_dimension_mismatch():
    sp = space(F3, "x1", "x2")
    g = GroupElement(F3, ((1,),))
    with pytest.raises(ValueError):
        sp.variable("x1").act(g)


def evaluate_oracle_points(field, dim):
    return itertools.product(range(field.q), repeat=dim)


def test_act_transvection_pointwise_oracle():
    """act is pinned by evaluate(f.g, v) == evaluate(f, g.v) on all points."""
    sp = space(F2, "y1", "y2")
    g = GroupElement(F2, ((1, 1), (0, 1)))  # g.e2 = e2 + e1
    y1 = sp.variable("y1")
    fy = y1.act(g)
    for v in evaluate_oracle_points(F2, 2):
        assert fy.evaluate(v) == y1.evaluate(g.apply(v))


@pytest.mark.parametrize("field,dim", [(F2, 2), (F3, 2), (F2, 3)])
def test_act_evaluation_consistency_random(field, dim):
    rng = random.Random(99)
    sp = space(field, *[f"z{i}" for i in range(dim)])
    for _ in range(10):
        f = random_poly(rng, sp)
        mat = None
        while mat is None:
            cand = tuple(tuple(rng.randrange(field.q) for _ in range(dim))
                         for _ in range(dim))
            try:
                g = GroupElement(field, cand)
                mat = cand
            except ValueError:
                continue
        fg = f.act(g)
        for v in evaluate_oracle_points(field, dim):
            assert fg.evaluate(v) == f.evaluate(g.apply(v))


def test_act_is_right_action_and_algebra_map():
    rng = random.Random(3)
    sp = space(F3, "z0", "z1")
    elems = []
    for cand in itertools.product(range(3), repeat=4):
        try:
            elems.append(GroupElement(F3, (cand[:2], cand[2:])))
        except ValueError:
            pass
    assert len(elems) == 48
    for _ in range(15):
        f = random_poly(rng, sp)
        h = random_poly(rng, sp)
        g1, g2 = rng.choice(elems), rng.choice(elems)
        assert f.act(g1 * g2) == f.act(g1).act(g2)
        assert (f * h).act(g1) == f.act(g1) * h.act(g1)
        assert f.act(g1).degree() == f.degree()


def test_parse_examples():
    sp = space(F2, "x1", "x2")
    f = parse_polynomial(sp, "x1^2*x2 + x1*x2^2")
    assert len(f) == 2
    assert format_polynomial(f) == "x1^2*x2 + x1*x2^2"
    assert format_polynomial(sp.zero()) == "0"


def test_parse_signs_and_coefficients():
    sp = space(F3, "x1", "x2")
    f = parse_polynomial(sp, "-x1 + 2*x2 - x1")
    assert f == sp.variable("x1") + sp.variable("x2").scale(2)
    # repeated monomials combine, and a cancelled term is not stored
    assert parse_polynomial(sp, "x1 + x1") == sp.variable("x1").scale(2)
    assert parse_polynomial(sp, "x1 + 2*x1").is_zero()
    assert parse_polynomial(sp, "x1 + 2*x1 + x2")._terms == {(0, 1): 1}
    g = parse_polynomial(space(F4, "x1"), "(1+t)*x1^2")
    assert g.coefficient((2,)) == F4.scalar([1, 1])


def test_parse_error_position():
    sp = space(F2, "x1")
    with pytest.raises(ParseError):
        parse_polynomial(sp, "x1 + + x1")
    with pytest.raises(ParseError):
        parse_polynomial(sp, "bogus")


@st.composite
def poly_strategy(draw, field=F9, names=("x1", "x2", "x3")):
    sp = VariableSpace(field, names)
    n_terms = draw(st.integers(min_value=0, max_value=50))
    out = sp.zero()
    for _ in range(n_terms):
        e = tuple(draw(st.integers(min_value=0, max_value=6))
                  for _ in range(len(names)))
        c = draw(st.integers(min_value=1, max_value=field.q - 1))
        out = out + sp.monomial(e, c)
    return out


@settings(max_examples=40, deadline=None)
@given(poly_strategy())
def test_text_roundtrip_random(f):
    assert parse_polynomial(f.space, format_polynomial(f)) == f


def test_balanced_product_equals_sequential():
    rng = random.Random(1)
    sp = space(F3, "x1", "x2")
    factors = [random_poly(rng, sp, max_terms=3, max_deg=2) + sp.one()
               for _ in range(9)]
    seq = sp.one()
    for f in factors:
        seq = seq * f
    assert balanced_product(factors, sp) == seq


def test_monomials_of_degree():
    sp = space(F2, "x1", "x2", "x3")
    mons = monomials_of_degree(sp, 2)
    assert len(mons) == 6
    assert len(set(mons)) == 6
    assert all(sum(e) == 2 for e in mons)


def recursive_monomials(n, d):
    """The recursive generator and sort that `monomials_of_degree` replaced,
    kept as its oracle."""
    def rec(remaining, slots):
        if slots == 1:
            yield (remaining,)
            return
        for first in range(remaining, -1, -1):
            for rest in rec(remaining - first, slots - 1):
                yield (first,) + rest

    return sorted(rec(d, n), key=grevlex_key)


def test_monomials_of_no_variables():
    sp = VariableSpace(F3, [])
    assert monomials_of_degree(sp, 0) == [()]
    assert monomials_of_degree(sp, 2) == []


@pytest.mark.parametrize("n", range(1, 6))
def test_monomials_of_degree_match_the_recursive_generator(n):
    sp = VariableSpace(F3, [f"z{i}" for i in range(n)])
    for d in range(13):
        mons = monomials_of_degree(sp, d)
        assert mons == recursive_monomials(n, d)
        assert all(type(a) is int for e in mons for a in e)
        keys = monomial_array(n, d) @ (d + 1) ** np.arange(n)
        assert (np.diff(keys) > 0).all()


def test_grevlex_leading_term():
    sp = space(F2, "x1", "x2")
    f = parse_polynomial(sp, "x1^2*x2 + x1*x2^2")
    e, c = f.leading_term()
    assert e == (2, 1)


def test_text_roundtrip_of_a_large_polynomial():
    rng = random.Random(5)
    sp = space(F3, "x1", "x2", "x3")
    f = Polynomial(sp, {e: rng.randrange(1, 3)
                        for d in range(15) for e in monomials_of_degree(sp, d)})
    assert len(f) >= 500
    assert parse_polynomial(sp, format_polynomial(f))._terms == f._terms


# -- the numpy product against the scalar dict loop --

def scalar_product(a: Polynomial, b: Polynomial) -> dict:
    """The scalar dict-loop product, kept as the oracle of `__mul__`."""
    field = a.space.field
    out = {}
    for e1, c1 in a._terms.items():
        for e2, c2 in b._terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = field.add(out.get(e, 0), field.mul(c1, c2))
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


# residue products in int64 up to 2^31 - 1, in Python ints past 2^31
MUL_PRIMES = (2, 3, 5, 7, 2 ** 31 - 1, 2 ** 31 + 11)
# extension fields with tables (up to q = 512 = 2^9) and without
MUL_FIELDS = tuple(build_field(p) for p in MUL_PRIMES) + tuple(
    build_field(p, r) for p, r in ((2, 2), (2, 3), (3, 2), (5, 2), (2, 9),
                                   (3, 6), (2, 10)))


@st.composite
def product_operands(draw, min_terms=8, max_terms=40, max_exp=12):
    field = draw(st.sampled_from(MUL_FIELDS))
    n = draw(st.integers(min_value=1, max_value=5))
    sp = VariableSpace(field, [f"x{i}" for i in range(n)])
    terms = st.dictionaries(
        st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * n),
        st.integers(min_value=1, max_value=field.q - 1),
        min_size=min_terms, max_size=max_terms)
    return Polynomial(sp, draw(terms)), Polynomial(sp, draw(terms))


@settings(max_examples=60, deadline=None)
@given(product_operands())
def test_numpy_product_matches_dict_loop(operands):
    a, b = operands
    assert len(a) * len(b) >= mvpoly.NUMPY_MIN_PRODUCTS
    assert (a * b)._terms == scalar_product(a, b)
    assert (b * a)._terms == scalar_product(a, b)


@settings(max_examples=30, deadline=None)
@given(product_operands(), st.integers(min_value=1, max_value=200))
def test_numpy_product_over_several_chunks(operands, chunk):
    a, b = operands
    with mock.patch.object(mvpoly, "NUMPY_CHUNK", chunk):
        assert (a * b)._terms == scalar_product(a, b)


@settings(max_examples=15, deadline=None)
@given(product_operands(min_terms=64, max_terms=80, max_exp=80),
       st.integers(min_value=0, max_value=2 ** 31 - 2))
def test_constant_times_large_polynomial(operands, c):
    a, _ = operands
    c %= a.space.field.q
    k = a.space.constant(c)
    assert (k * a)._terms == scalar_product(k, a)
    assert (a * k)._terms == a.scale(c)._terms


@pytest.mark.parametrize("p", MUL_PRIMES)
def test_numpy_product_cancellation(p):
    # (x1^k - x2^k) / (x1 - x2) * (x1 - x2): every cross term cancels
    sp = space(build_field(p), "x1", "x2")
    x1, x2 = sp.variables()
    k = 100
    quotient = Polynomial(sp, {(j, k - 1 - j): 1 for j in range(k)})
    for chunk in (mvpoly.NUMPY_CHUNK, 7):
        with mock.patch.object(mvpoly, "NUMPY_CHUNK", chunk):
            assert quotient * (x1 - x2) == x1 ** k - x2 ** k
    if p > 40:
        return
    # (x1 + x2)^(n - 1) * (x1 + x2) with n a power of p: every middle
    # coefficient is a binomial that vanishes mod p
    n = p ** next(k for k in range(1, 7) if p ** k >= 40)
    f = Polynomial(sp, {(j, n - 1 - j): math.comb(n - 1, j) % p
                        for j in range(n)})
    assert len(f) == n
    assert f * (x1 + x2) == x1 ** n + x2 ** n


def test_large_operands_span_several_chunks():
    rng = random.Random(11)
    sp = space(F3, "x1", "x2", "x3")
    a = Polynomial(sp, {tuple(rng.randrange(30) for _ in range(3)):
                        rng.randrange(1, 3) for _ in range(400)})
    b = Polynomial(sp, {tuple(rng.randrange(30) for _ in range(3)):
                        rng.randrange(1, 3) for _ in range(400)})
    assert len(a) * len(b) > 2 * mvpoly.NUMPY_CHUNK
    assert (a * b)._terms == scalar_product(a, b)


@pytest.mark.parametrize("field", [build_field(2 ** 31 - 1), F9])
def test_product_memory_is_bounded_by_the_output(field):
    """No `_combine_keys` call of a product gets more keys than a fixed
    multiple of NUMPY_CHUNK plus the product's terms, however many term
    pairs the product has: f * f sends its k^2 pairs to 2k - 1 terms (no
    cancellation over the large prime), f * (x1 - x2) its 2k pairs to 2.
    The terms of f are stored out of order."""
    sp = space(field, "x1", "x2")
    x1, x2 = sp.variables()
    k, chunk = 200, 16
    js = list(range(k))
    random.Random(4).shuffle(js)
    f = Polynomial(sp, {(j, k - 1 - j): 1 for j in js})
    combine = mvpoly._combine_keys
    for a, b in ((f, f), (f, x1 - x2)):
        sizes = []

        def spy(keys, coeffs, field):
            sizes.append(len(keys))
            return combine(keys, coeffs, field)

        with mock.patch.object(mvpoly, "NUMPY_CHUNK", chunk), \
                mock.patch.object(mvpoly, "_combine_keys", spy):
            product = a * b
        assert product._terms == scalar_product(a, b)
        bound = 3 * (chunk + len(product))
        assert len(a) * len(b) > 5 * bound
        assert len(sizes) > len(a) * len(b) // chunk
        assert max(sizes) <= bound, (field, len(product), max(sizes))


def argsort_combine(keys, coeffs, p):
    """The combine `mvpoly._combine_keys` replaced, kept here only as its
    oracle: sum the coefficients of equal keys mod p, a coefficient being a
    residue or a row of base-p digits (coeffs of shape (len, r)) summed
    digit-wise, and drop the sums whose digits are all zero."""
    if not len(keys):
        return keys, coeffs
    order = np.argsort(keys)
    keys, coeffs = keys[order], coeffs[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = (np.add.reduceat(coeffs, starts) % p).astype(coeffs.dtype,
                                                         copy=False)
    keep = (sums != 0).reshape(len(sums), -1).any(axis=1)
    return keys[starts][keep], sums[keep]


# GF(2), GF(3), GF(2^31 - 1) and GF(2^31 + 11); GF(4), GF(8), GF(9) and
# GF(512) with tables, GF(3^6) without
COMBINE_FIELDS = (F2, F3, build_field(2 ** 31 - 1), build_field(2 ** 31 + 11),
                  F4, build_field(2, 3), F9, build_field(2, 9),
                  build_field(3, 6))


def word_limit(field):
    """The bound below which `_combine_keys` packs a key and its index
    into one int64 word: 2^(63 - b), b = (q - 1).bit_length()."""
    return 1 << (63 - (field.q - 1).bit_length())


@st.composite
def combine_inputs(draw):
    """(field, keys, coefficient indices): keys drawn from a few values
    near 0 or near the word limit (on both sides of it), some entries
    followed by their negation so that runs cancel, and the arrays
    sometimes empty, in a narrow coefficient dtype or with object keys."""
    field = draw(st.sampled_from(COMBINE_FIELDS))
    base = draw(st.sampled_from([0, word_limit(field) - 4]))
    entries = draw(st.lists(st.tuples(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=field.q - 1), st.booleans()),
        max_size=40))
    keys, coeffs = [], []
    for k, c, cancel in entries:
        keys.append(base + k)
        coeffs.append(c)
        if cancel:
            keys.append(base + k)
            coeffs.append(field.neg(c))
    keys = np.array(keys, dtype=np.int64)
    coeffs = np.array(coeffs, dtype=draw(st.sampled_from(
        [np.int64, np.min_scalar_type(field.q - 1)])))
    if draw(st.booleans()):
        keys = keys.astype(object)
    return field, keys, coeffs


@settings(max_examples=200, deadline=None)
@given(combine_inputs())
def test_combine_keys_matches_argsort_oracle(case):
    field, keys, coeffs = case
    got_keys, got = mvpoly._combine_keys(keys, coeffs, field)
    want_keys, want = argsort_combine(
        keys, field.digits(coeffs.astype(np.int64)), field.p)
    assert got_keys.tolist() == want_keys.tolist()
    assert got.tolist() == field.indices(want).tolist()


@pytest.mark.parametrize("field", COMBINE_FIELDS)
def test_combine_keys_sorts_words_below_the_limit(field):
    """Keys below 2^(63 - b) share a word with their index and are sorted
    by one `np.sort`, with no `argsort`; a key at the limit, or object
    keys, take the `argsort` route.  Both give the oracle's sums."""
    limit = word_limit(field)
    coeffs = np.array([1, field.neg(1), 1, 0], dtype=np.int64)
    calls = []
    argsort = np.argsort

    def spy(*args, **kwargs):
        calls.append(len(args[0]))
        return argsort(*args, **kwargs)

    for keys, wide in (([5, 5, 3, 3], False),
                       ([limit - 1, limit - 1, 0, 0], False),
                       ([limit, limit, 0, 0], True)):
        for dtype in (np.int64, object):
            array = np.array(keys, dtype=dtype)
            calls.clear()
            with mock.patch.object(np, "argsort", spy):
                got_keys, got = mvpoly._combine_keys(array, coeffs, field)
            assert bool(calls) == (wide or dtype is object)
            want_keys, want = argsort_combine(array, field.digits(coeffs),
                                              field.p)
            assert got_keys.tolist() == want_keys.tolist() == [min(keys)]
            assert got.tolist() == field.indices(want).tolist()


def test_radix_overflow_falls_back_to_dict_loop():
    rng = random.Random(2)
    F5 = build_field(5)
    sp = space(F5, "a", "b", "c", "d")
    a = Polynomial(sp, {tuple(rng.randrange(2 ** 20) for _ in range(4)):
                        rng.randrange(1, 5) for _ in range(10)})
    b = Polynomial(sp, {tuple(rng.randrange(2 ** 20) for _ in range(4)):
                        rng.randrange(1, 5) for _ in range(10)})
    assert mvpoly._mul_packed(a._terms, b._terms, F5, 4) is None
    assert (a * b)._terms == scalar_product(a, b)
    # exponents beyond int64 fall back too
    sp = space(F5, "a")
    a = Polynomial(sp, {(2 ** 70 + j,): 1 for j in range(10)})
    assert mvpoly._mul_packed(a._terms, a._terms, F5, 1) is None
    assert (a * a)._terms == scalar_product(a, a)


def test_uniform_keys_past_the_limit_fall_back_to_dict_loop():
    """Twenty variables, each factor's terms of degree 4 with exponents 0
    or 1: one radix per variable (3, the largest exponent sum plus one)
    would pack the product below PACKED_KEY_LIMIT, but the family layout's
    one radix above the total degree, 9, needs 9^20 > 2^62."""
    rng = random.Random(6)
    F5 = build_field(5)
    n = 20
    sp = space(F5, *[f"x{i}" for i in range(n)])

    def operand():
        return Polynomial(sp, {
            tuple(int(i in picks) for i in range(n)): rng.randrange(1, 5)
            for picks in (rng.sample(range(n), 4) for _ in range(10))})

    a, b = operand(), operand()
    assert len(a) * len(b) >= mvpoly.NUMPY_MIN_PRODUCTS
    per_variable = [max(e[i] for e in a._terms) + max(e[i] for e in b._terms)
                    + 1 for i in range(n)]
    assert math.prod(per_variable) < mvpoly.PACKED_KEY_LIMIT <= 9 ** n
    assert mvpoly._mul_packed(a._terms, b._terms, F5, n) is None
    assert (a * b)._terms == scalar_product(a, b)


def test_product_dispatch():
    """numpy runs for every product of at least NUMPY_MIN_PRODUCTS term
    pairs, whatever the field: with tables, without (GF(3^6), GF(2^10)) or
    with residue products past int64 (2^31 + 11)."""
    big_p = 2 ** 31 + 11

    def operand(field, n_terms):
        sp = space(field, "x1", "x2")
        return Polynomial(sp, {(j, 2 * j): 1 for j in range(n_terms)})

    cases = [(F3, 8, 8, True), (F3, 2, 8, False), (F4, 8, 8, True),
             (F4, 2, 8, False), (build_field(2, 9), 8, 8, True),
             (build_field(3, 6), 8, 8, True),
             (build_field(3, 6), 2, 8, False),
             (build_field(2, 10), 8, 8, True),
             (build_field(big_p), 8, 8, True),
             (build_field(big_p), 2, 8, False)]
    for field, la, lb, packed in cases:
        a, b = operand(field, la), operand(field, lb)
        with mock.patch.object(mvpoly, "_mul_packed",
                               wraps=mvpoly._mul_packed) as spy:
            product = a * b
        assert spy.called == packed, field
        assert product._terms == scalar_product(a, b)


# -- the action on stacks of matrices against substitution --

# GF(2^10) has no tables; 2^31 + 11 multiplies in Python ints
ACT_FIELDS = (build_field(2), build_field(3), build_field(2, 2),
              build_field(5), build_field(2, 3), build_field(3, 2),
              build_field(2, 10), build_field(2 ** 31 + 11))


def substituted(f, g):
    """f.g by `Polynomial.substitute`: x_i -> sum_j g[i][j] x_j."""
    xs = f.space.variables()
    return f.substitute({name: sum((x.scale(int(c)) for x, c in zip(xs, row)),
                                   f.space.zero())
                         for name, row in zip(f.space.names, g)})


def unpacked(family, space, radix, count):
    """The polynomials of a packed family's outputs 0..count-1."""
    keys, coeffs = family
    size = radix ** space.dim
    owner = (keys // size).astype(np.int64).tolist()
    exps = mvpoly._unpack(keys % size, radix, space.dim).tolist()
    out = [{} for _ in range(count)]
    for o, e, c in zip(owner, exps, coeffs.tolist()):
        out[o][tuple(e)] = c
    return [Polynomial(space, terms) for terms in out]


@st.composite
def action_stacks(draw):
    """Polynomials (the zero one among them) whose exponents reach p^2 and
    beyond, so that the Frobenius digits run, and a stack of 0-3 matrices:
    random, identity, monomial and singular ones.  Over the large prime
    only the exponents up to 2 are drawn, whose keys stay packed."""
    field = draw(st.sampled_from(ACT_FIELDS))
    p, q = field.p, field.q
    n = draw(st.integers(0, 4))
    sp = VariableSpace(field, [f"x{i}" for i in range(n)])
    exponent = st.sampled_from([e for e in (
        0, 1, 2, p - 1, p, p + 1, p * p, p * p + 1, 2 * p * p + p - 1,
        p ** 3 - 1) if e < 1000])
    terms = st.dictionaries(st.tuples(*[exponent] * n),
                            st.integers(1, q - 1), max_size=6)
    polys = [Polynomial(sp, t)
             for t in draw(st.lists(terms, min_size=1, max_size=3))]
    entry = st.integers(0, q - 1)
    mats = []
    for kind in draw(st.lists(st.sampled_from(
            ["random", "identity", "monomial", "singular"]), max_size=3)):
        g = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n)),
                     dtype=np.int64).reshape(n, n)
        if kind == "identity":
            g = np.eye(n, dtype=np.int64)
        elif kind == "monomial":  # a permutation with nonzero scalars
            g = np.eye(n, dtype=np.int64)[draw(st.permutations(range(n)))] \
                * np.array([draw(st.integers(1, q - 1)) for _ in range(n)],
                           dtype=np.int64)[:, None]
        elif kind == "singular" and n:
            g[draw(st.integers(0, n - 1))] = 0
        mats.append(g)
    return sp, polys, np.array(mats, dtype=np.int64).reshape(len(mats), n, n)


# Largest sum of `image_bound` over the (polynomial, matrix) pairs of one
# drawn action stack that the kernel test checks against substitution.
IMAGE_LIMIT = 5000


def image_bound(f, g):
    """At most this many terms in f.g: per term, the smaller of the
    monomials of its degree and the product over rows i and base-p digits
    e_ik of e_i of C(nnz_i + e_ik - 1, e_ik), the terms of l_i^(e_ik)."""
    n, p = len(g), f.space.field.p
    nnz = [int(np.count_nonzero(row)) for row in g]
    total = 0
    for e in f._terms:
        product = 1
        for ei, width in zip(e, nnz):
            while ei:
                ei, digit = divmod(ei, p)
                product *= math.comb(width + digit - 1, digit) if digit else 1
        total += min(product, math.comb(n + sum(e) - 1, sum(e)) if n else 1)
    return total


def driven(space, family, picks, which, mats, radix):
    """The packed family whose output j is (output picks[j] of
    family).mats[which[j]], gathered block by block from `_act_blocks`."""
    blocks = [(np.zeros(0, dtype=np.int64),) * 2] + [
        acted for *_, acted in mvpoly._act_blocks(
            space, family, picks, which, np.arange(len(picks)), mats,
            radix)]
    return tuple(np.concatenate(part) for part in zip(*blocks))


@settings(max_examples=150, deadline=None)
@given(action_stacks(), st.sampled_from([1, 7, 64, mvpoly.NUMPY_CHUNK]))
def test_act_kernel_matches_substitution(stack, chunk):
    """Every output of the driver `_act_blocks` over all (polynomial,
    matrix) jobs is f.substitute({x_i: row i of g}), on the packed route
    (small chunks, and so many blocks, included) and on the
    `_act_substitute` route, which returns the same arrays from every term
    tagged with every matrix at once; acting again on the packed outputs
    gives (f.g).h, and `fixed_by` and `Polynomial.act` (`_substitute`)
    agree with them."""
    sp, polys, mats = stack
    # the oracles substitute in pure Python: keep the images near desk size
    assume(sum(image_bound(f, g) for f in polys for g in mats) <= IMAGE_LIMIT)
    k = len(mats)
    radix = max(0, *(f.degree() for f in polys)) + 1
    family = mvpoly._family(polys, radix)
    picks = np.repeat(np.arange(len(polys)), k)
    which = np.tile(np.arange(k), len(polys))
    expected = [substituted(f, g) for f in polys for g in mats]
    again = [b for _ in polys for b in range(k)][::-1]
    # images of images stay small; the oracle runs at the default chunk
    twice_expected = [substituted(f, mats[b]) for f, b in zip(
        expected, again)] if sum(map(len, expected)) <= 200 else None
    # outside the patch: `act` multiplies, and NUMPY_CHUNK bounds products
    assert [f.act(g) for f in polys for g in mats] == expected
    with mock.patch.object(mvpoly, "NUMPY_CHUNK", chunk):
        acted = driven(sp, family, picks, which, mats, radix)
        assert unpacked(acted, sp, radix, len(expected)) == expected
        if twice_expected is not None:
            twice = driven(sp, acted, np.arange(len(expected)),
                           np.array(again, dtype=np.int64), mats, radix)
            assert unpacked(twice, sp, radix, len(expected)) == \
                twice_expected
        assert mvpoly.fixed_by(polys, mats).ravel().tolist() == \
            [expected[a * k + b] == f for a, f in enumerate(polys)
             for b in range(k)]
    exps, coeffs, poly = mvpoly._stack(polys)
    tagged = np.repeat(np.arange(k), len(coeffs))  # every term, every matrix
    oracle = mvpoly._act_substitute(sp, np.tile(exps, (k, 1)),
                                    np.tile(coeffs, k), mats, tagged,
                                    np.tile(poly, k) * k + tagged, radix)
    assert acted[0].tolist() == oracle[0].tolist()
    assert acted[1].tolist() == oracle[1].tolist()


def test_act_kernel_empty_inputs():
    """An empty stack, the zero polynomial and no terms at all."""
    sp = space(F3, "x", "y")
    f = parse_polynomial(sp, "x^9*y + 2*y^4")
    none = np.zeros((0, 2, 2), dtype=np.int64)
    assert mvpoly.fixed_by([f, sp.zero()], none).shape == (2, 0)
    assert mvpoly.fixed_by([sp.zero()], np.eye(2, dtype=np.int64)[None]).all()
    assert sp.zero().act(((1, 1), (0, 1))) == sp.zero()
    empty = np.zeros(0, dtype=np.int64)
    for keys in mvpoly._act_packed(sp, np.zeros((0, 2), dtype=np.int64),
                                   empty, none, empty, empty, 1):
        assert len(keys) == 0


@pytest.mark.parametrize("field", [build_field(2, 10),
                                   build_field(2 ** 31 + 11),
                                   build_field(3, 6)])
def test_act_kernel_runs_packed_over_every_field(field):
    """GF(2^10) and GF(3^6) have no tables and 2^31 + 11 multiplies in
    Python ints: the kernel behind the transfer sum and `fixed_by` still
    runs `_act_packed`, never `_act_substitute`, with the substitution's
    result."""
    sp = space(field, "x", "y")
    f = Polynomial(sp, {(i, 13 - i): i + 1 for i in range(14)})
    g = np.array([[3, 1], [1, field.q - 1]], dtype=np.int64)
    stack = np.stack([g, np.eye(2, dtype=np.int64)])
    with mock.patch.object(mvpoly, "_act_substitute",
                           wraps=mvpoly._act_substitute) as fallback, \
            mock.patch.object(mvpoly, "_act_packed",
                              wraps=mvpoly._act_packed) as packed:
        assert mvpoly._act_sum([f], stack)[0] == substituted(f, g) + f
        assert mvpoly.fixed_by([f], stack).tolist() == [[False, True]]
    assert fallback.call_count == 0
    assert packed.call_count == 2


def test_act_kernel_falls_back_beyond_the_key_limit():
    """Keys of degree 40 in 12 variables reach 41^12 > 2^62: the kernel
    behind the transfer sum and `fixed_by` runs `_act_substitute`, whose
    keys are Python ints."""
    sp = space(F2, *[f"x{i}" for i in range(12)])
    xs = sp.variables()
    f = sum((x ** 40 for x in xs), sp.zero()) + xs[0] * xs[1]
    g = np.eye(12, dtype=np.int64)
    g[0, 1] = g[3, 7] = 1
    stack = np.stack([g, np.eye(12, dtype=np.int64)])
    with mock.patch.object(mvpoly, "_act_substitute",
                           wraps=mvpoly._act_substitute) as spy:
        assert mvpoly._act_sum([f], stack)[0] == substituted(f, g) + f
        assert mvpoly.fixed_by([f], stack).tolist() == [[False, True]]
    assert spy.call_count == 2


def test_act_by_one_matrix_is_the_substitution():
    """`Polynomial.act` substitutes the row images and makes no kernel
    call, however many terms f has; stacks still run the kernel."""
    sp = space(F3, "x", "y", "z")
    f = Polynomial(sp, {(i, 2 * i % 5, 9 - i): 1 + i % 2 for i in range(10)})
    f = f + f.frobenius()
    g = np.array([[1, 2, 0], [0, 1, 1], [2, 0, 1]], dtype=np.int64)
    with mock.patch.object(mvpoly, "_act_packed",
                           wraps=mvpoly._act_packed) as spy:
        assert f.act(g) == substituted(f, g)
        assert spy.call_count == 0
        assert mvpoly._act_sum([f], g[None])[0] == substituted(f, g)
    assert spy.call_count == 1
