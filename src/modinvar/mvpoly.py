"""Sparse multivariate polynomials over GF(q) with the right group action.

Terms are stored as a map from exponent tuples to nonzero coefficient indices
of the underlying field.  The monomial order is graded reverse lexicographic
with respect to the variable order of the space; it fixes serialization,
equality of text forms and the division algorithm.

Powers use the Frobenius shortcut f^(p*e) = frobenius(f)^e, which keeps
q-power exponents (ubiquitous in orbit products and Dickson invariants) cheap
and exact.

Large products run in numpy on packed exponents (Monagan & Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007) over every field, in memory that grows with the output;
small products and exponents whose packed keys would reach PACKED_KEY_LIMIT
run the scalar dict loop.  Like terms are summed on (key, coefficient index)
pairs packed into int64 words, one sort of the words per combine
(`_combine_keys`).  The right action runs on the same packed keys, for the
terms of several polynomials and a whole stack of matrices, a bounded block
of (term, matrix) jobs per kernel call (`_act_blocks`, `_act_packed`); the
dict-based `_substitute` acts by one matrix (`Polynomial.act`) and is the
kernel's fallback and oracle.  Coefficients are multiplied, negated and
summed by the field's array arithmetic (`FieldSpec.multiply`, `power`,
`negate`, `run_sums`), which alone chooses how for each field.
"""

from __future__ import annotations

import heapq
import math
from functools import reduce
from itertools import chain

import numpy as np

from modinvar.gfq import FieldMismatchError, FieldSpec, Scalar

# Products of at least this many term pairs go to numpy;
# below it the dict loop is faster (8x8 terms: 97 us against 107 us).
NUMPY_MIN_PRODUCTS = 64
# Term products formed at once by the numpy product, bounding its memory.
NUMPY_CHUNK = 1 << 16
# Packed exponent keys (and their sums) must stay below this.
PACKED_KEY_LIMIT = 1 << 62


class SpaceMismatchError(ValueError):
    """Operands live in different variable spaces."""


class InexactDivisionError(ArithmeticError):
    """exact_divide found a nonzero remainder."""


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class VariableSpace:
    """An ordered tuple of variable names over a fixed field.

    The order is part of equality; it drives the grevlex comparisons and the
    alignment between variables and matrix rows in the group action.
    """

    def __init__(self, field: FieldSpec, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        self.field = field
        self.names = names
        self.dim = len(names)
        self._pos = {v: i for i, v in enumerate(names)}

    def position(self, name: str) -> int:
        return self._pos[name]

    def __eq__(self, other):
        return self is other or (isinstance(other, VariableSpace)
                                 and self.field == other.field
                                 and self.names == other.names)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((self.field, self.names))

    def __repr__(self):
        return f"VariableSpace({self.field!r}, {list(self.names)})"

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        c = self.field.scalar(c)
        if c.index == 0:
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.dim: c.index})

    def variable(self, name: str) -> "Polynomial":
        e = [0] * self.dim
        e[self.position(name)] = 1
        return Polynomial(self, {tuple(e): 1})

    def variables(self):
        return [self.variable(v) for v in self.names]

    def monomial(self, exponents, coeff=1) -> "Polynomial":
        c = self.field.scalar(coeff)
        if c.index == 0:
            return Polynomial(self, {})
        return Polynomial(self, {tuple(exponents): c.index})


def symplectic_space(field: FieldSpec, m: int) -> VariableSpace:
    """Dual variables y1..ym, xm..x1 matching the pinned symplectic basis."""
    names = [f"y{i}" for i in range(1, m + 1)] + [f"x{i}" for i in range(m, 0, -1)]
    return VariableSpace(field, names)


def gluing_space(field: FieldSpec, m: int, n: int) -> VariableSpace:
    """Dual variables y1..ym (first factor) then x1..xn (second factor)."""
    names = [f"y{i}" for i in range(1, m + 1)] + [f"x{i}" for i in range(1, n + 1)]
    return VariableSpace(field, names)


def x_space(field: FieldSpec, n: int) -> VariableSpace:
    return VariableSpace(field, [f"x{i}" for i in range(1, n + 1)])


def grevlex_key(exponents):
    """Sort key: ascending order of keys is descending grevlex order."""
    return (-sum(exponents), tuple(exponents[::-1]))


class Polynomial:
    """Immutable sparse polynomial; zero coefficients are never stored."""

    __slots__ = ("space", "_terms", "_hash")

    def __init__(self, space: VariableSpace, terms: dict):
        """The polynomial of an exponent tuple -> coefficient index dict;
        ValueError for an index outside 1..q-1, which the field's tables
        and the packed kernels would read differently, and for a key that
        is not a tuple of space.dim nonnegative ints, which would print as
        one monomial and multiply as another."""
        if terms and not (0 < min(terms.values())
                          and max(terms.values()) < space.field.q):
            raise ValueError(
                f"coefficient indices must lie in 1..{space.field.q - 1}")
        if not all(type(e) is tuple and len(e) == space.dim
                   and all(type(x) is int and x >= 0 for x in e)
                   for e in terms):
            raise ValueError(f"exponent keys must be tuples of {space.dim} "
                             "nonnegative ints")
        self.space = space
        self._terms = terms
        self._hash = None

    @classmethod
    def _trusted(cls, space: VariableSpace, terms: dict) -> "Polynomial":
        """A polynomial of a term dict formed by field arithmetic, unchecked."""
        f = cls.__new__(cls)
        f.space, f._terms, f._hash = space, terms, None
        return f

    # -- inspection --

    def sorted_terms(self):
        return sorted(self._terms.items(), key=lambda item: grevlex_key(item[0]))

    def coefficient(self, exponents) -> Scalar:
        return Scalar(self.space.field, self._terms.get(tuple(exponents), 0))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def degree(self) -> int:
        """Total degree; -1 is the sentinel degree of the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self._terms}
        return len(degs) <= 1

    def leading_term(self):
        """(exponents, Scalar) largest under grevlex; None for zero."""
        if not self._terms:
            return None
        e = min(self._terms, key=grevlex_key)
        return e, Scalar(self.space.field, self._terms[e])

    def variables_used(self):
        used = set()
        for e in self._terms:
            for i, ei in enumerate(e):
                if ei:
                    used.add(self.space.names[i])
        return used

    # -- ring operations --

    def _check(self, other):
        if isinstance(other, (int, Scalar)):
            return self.space.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.space != self.space:
            if other.space.field != self.space.field:
                raise FieldMismatchError("polynomials over different fields")
            raise SpaceMismatchError("polynomials in different variable spaces")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.space.field
        out = dict(self._terms)
        for e, c in other._terms.items():
            _add_term(field, out, e, c)
        return Polynomial._trusted(self.space, out)

    __radd__ = __add__

    def __neg__(self):
        neg = self.space.field.neg
        return Polynomial._trusted(
            self.space, {e: neg(c) for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        """Product.  With at least NUMPY_MIN_PRODUCTS term pairs it runs
        in numpy (`_mul_packed`), over every field; small products and
        exponents whose packed keys would reach PACKED_KEY_LIMIT run the
        scalar dict loop below."""
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return Polynomial(self.space, {})
        field = self.space.field
        if len(a) * len(b) >= NUMPY_MIN_PRODUCTS:
            out = _mul_packed(a, b, field, self.space.dim)
            if out is not None:
                return Polynomial._trusted(self.space, out)
        mul, add = field.mul, field.add
        out = {}
        get = out.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(int.__add__, e1, e2))
                s = add(get(e, 0), mul(c1, c2))
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return Polynomial._trusted(self.space, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = self.space.field.scalar(c)
        if c.index == 0:
            return Polynomial(self.space, {})
        mul = self.space.field.mul
        return Polynomial._trusted(
            self.space, {e: mul(v, c.index) for e, v in self._terms.items()})

    def frobenius(self) -> "Polynomial":
        """f^p, exact in characteristic p: scale exponents, power coefficients."""
        field = self.space.field
        p = field.p
        frob = field.frobenius
        return Polynomial._trusted(self.space,
                                   {tuple(ei * p for ei in e): frob(c)
                                    for e, c in self._terms.items()})

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        if e == 0:
            return self.space.one()
        p = self.space.field.p
        base = self
        while e % p == 0 and e > 0:
            base = base.frobenius()
            e //= p
        out = None
        sq = base
        while e:
            if e & 1:
                out = sq if out is None else out * sq
            e >>= 1
            if e:
                sq = sq * sq
        return out

    # -- division, substitution, evaluation, action --

    def exact_divide(self, g: "Polynomial") -> "Polynomial":
        """h with self = g*h, else InexactDivisionError; ZeroDivisionError on g=0."""
        g = self._check(g)
        if not g:
            raise ZeroDivisionError("polynomial division by zero")
        field = self.space.field
        lt_g = min(g._terms, key=grevlex_key)
        c_g_inv = field.inv(g._terms[lt_g])
        rem = dict(self._terms)
        quo = {}
        mul, neg = field.mul, field.neg
        while rem:
            lt = min(rem, key=grevlex_key)
            diff = tuple(map(int.__sub__, lt, lt_g))
            if any(d < 0 for d in diff):
                raise InexactDivisionError(
                    f"leading term {lt} not divisible by {lt_g}")
            c = mul(rem[lt], c_g_inv)
            quo[diff] = c
            for e2, c2 in g._terms.items():
                _add_term(field, rem, tuple(map(int.__add__, diff, e2)),
                          neg(mul(c, c2)))
        return Polynomial._trusted(self.space, quo)

    def divides(self, other: "Polynomial") -> bool:
        try:
            other.exact_divide(self)
            return True
        except InexactDivisionError:
            return False

    def substitute(self, assignment: dict) -> "Polynomial":
        """Compose with variable -> Polynomial; unassigned variables map to
        themselves.  Images must live in one common space."""
        space = self.space
        target = None
        images = {}
        for name, img in assignment.items():
            if name not in space._pos:
                raise ValueError(f"unknown variable {name!r}")
            if not isinstance(img, Polynomial):
                img = space.constant(img)
            if target is None:
                target = img.space
            elif img.space != target:
                raise SpaceMismatchError("substitution images in mixed spaces")
            images[space.position(name)] = img
        if target is None:
            target = space
        if target.field != space.field:
            raise FieldMismatchError("substitution into a different field")
        if target != space:
            for i, name in enumerate(space.names):
                if i not in images:
                    images[i] = target.variable(name)
        return self._substitute(target, images)

    def _substitute(self, target: VariableSpace, images: dict) -> "Polynomial":
        """The image in `target` under variable position -> Polynomial.  A
        variable without an image keeps its exponent, so `target` must be
        this space unless every variable has one; skipping fixed variables
        pays off for transvection-style generators, which move only a couple
        of rows."""
        space = self.space
        same = target == space
        if not same and len(images) < space.dim:
            raise ValueError("variables without an image need the same space")
        field = space.field
        cache = {}

        def power(i, e):
            key = (i, e)
            got = cache.get(key)
            if got is None:
                got = cache[key] = images[i] ** e
            return got

        mul = field.mul
        zero = (0,) * target.dim
        out = {}
        for e, c in self._terms.items():
            fixed = tuple(0 if i in images else ei for i, ei in enumerate(e)) \
                if same else zero
            factors = [power(i, ei) for i, ei in enumerate(e)
                       if ei and i in images]
            if factors:
                prod = reduce(lambda u, v: u * v, sorted(factors, key=len))
                image = [(tuple(map(int.__add__, fixed, e2)), mul(c, c2))
                         for e2, c2 in prod._terms.items()]
            else:
                image = [(fixed, c)]
            for e3, c3 in image:
                _add_term(field, out, e3, c3)
        return Polynomial._trusted(target, out)

    def evaluate(self, point) -> Scalar:
        """Value at a point given as scalars (or ints) per variable."""
        field = self.space.field
        vals = [field.scalar(v).index for v in point]
        if len(vals) != self.space.dim:
            raise ValueError("point has wrong length")
        total = 0
        for e, c in self._terms.items():
            v = c
            for i, ei in enumerate(e):
                if ei:
                    v = field.mul(v, field.pow(vals[i], ei))
                    if not v:
                        break
            total = field.add(total, v)
        return Scalar(field, total)

    def act(self, g) -> "Polynomial":
        """Right action by a group element: the variable with coefficient row
        c goes to the linear form with row c.[g], by `_substitute` of the
        row images (`_row_images`).  Stacks of matrices run the packed
        kernel (`_act_blocks`) instead; the tests hold the two together."""
        matrix = getattr(g, "matrix", g)
        n = self.space.dim
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError(
                f"matrix dimension {len(matrix)} does not match {n} variables")
        return self._substitute(self.space, _row_images(self.space, [
            [c.index if isinstance(c, Scalar) else int(c) for c in row]
            for row in matrix]))

    # -- text form and equality --

    def __repr__(self):
        return format_polynomial(self)

    def __eq__(self, other):
        if isinstance(other, (int, Scalar)):
            try:
                other = self.space.constant(other)
            except ValueError:
                return NotImplemented
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.space == other.space and self._terms == other._terms

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.space, frozenset(self._terms.items())))
        return self._hash


def _add_term(field: FieldSpec, terms: dict, e: tuple, c: int):
    """terms[e] += c in place, dropping the term when it cancels."""
    s = field.add(terms.get(e, 0), c)
    if s:
        terms[e] = s
    else:
        terms.pop(e, None)


def _dict_arrays(terms, n):
    """The exponents (an int64 (len, n) array) and coefficient indices of a
    term dict; `_term_dict` is the way back."""
    flat = np.fromiter(chain.from_iterable(terms), dtype=np.int64,
                       count=len(terms) * n)
    return (flat.reshape(len(terms), n),
            np.fromiter(terms.values(), dtype=np.int64, count=len(terms)))


def _combine_keys(keys, coeffs, field: FieldSpec):
    """Sum the GF(q) coefficient indices (residues over GF(p)) of equal
    nonnegative keys; drop the zero sums.  Returns the distinct keys,
    ascending, and their sums as indices.

    With b = (q - 1).bit_length(), a key and its index share one int64 word
    key * 2^b + index whenever the largest key is below 2^(63 - b): one
    `np.sort` of the words orders the keys and carries the indices along,
    and a shift and a mask split them again.  Wider keys (object arrays,
    or keys from 2^(63 - b) up, as p near 2^31 or radix^n near
    PACKED_KEY_LIMIT give) and object coefficients are sorted by `argsort`
    and two gathers instead.  The runs of equal keys are summed by
    `FieldSpec.run_sums`."""
    if not len(keys):
        return keys, coeffs
    b = (field.q - 1).bit_length()
    if keys.dtype != object and coeffs.dtype != object and b < 63 and \
            int(keys.max()) < 1 << (63 - b):
        words = keys << b  # then in place: no third array of this length
        words |= coeffs
        words.sort()
        coeffs = words & ((1 << b) - 1)
        words >>= b
        keys = words
    else:
        order = np.argsort(keys)
        keys, coeffs = keys[order], coeffs[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = field.run_sums(coeffs, starts)
    keep = sums != 0
    return keys[starts[keep]], sums[keep]


def _mul_packed(a, b, field: FieldSpec, n):
    """Product of two term dicts over GF(q) as a term dict, or None when
    the packed keys would reach PACKED_KEY_LIMIT.  `a` is the operand with
    fewer terms.

    Exponent vectors are packed into int64 keys sum_j e_j radix^j, the
    layout of the packed families (`_key_weights`), with the radix above
    the product's total degree, so key sums are exponent sums.  The
    coefficient products are indices (`FieldSpec.multiply`), which
    `_combine_keys` sums.

    Term pairs are formed at most NUMPY_CHUNK at a time: all of a against a
    block of b's terms in lex order, the first variable most significant
    (a block of a against one term of b when a has more terms than that),
    each chunk combined on its own and the chunk results folded into a
    running sum (`_folded`).  Without cancellation every term of a running
    sum is a term of the product, so peak memory grows with the output plus
    NUMPY_CHUNK; terms that cancel between chunks are held until they do."""
    radix = max(map(sum, a)) + max(map(sum, b)) + 1
    if radix ** n >= PACKED_KEY_LIMIT:
        return None
    (ea, ca), (eb, cb) = _dict_arrays(a, n), _dict_arrays(b, n)
    weights = _key_weights(radix, n)
    ka, kb = ea @ weights, eb @ weights
    order = np.argsort(eb @ weights[::-1])  # x_1 first: merges more per chunk
    kb, cb = kb[order], cb[order]
    rows = min(len(a), NUMPY_CHUNK)
    cols = max(1, NUMPY_CHUNK // rows)
    keys, coeffs = _folded((_combine_keys(
        (ka[t:t + rows, None] + kb[s:s + cols]).ravel(),
        field.multiply(ca[t:t + rows, None], cb[s:s + cols]).ravel(), field)
        for s in range(0, len(b), cols) for t in range(0, len(a), rows)),
        field)
    return _term_dict(_unpack(keys, radix, n), coeffs)


def _fold(parts, field: FieldSpec):
    """One (keys, coefficient indices) pair summing the combined parts."""
    if len(parts) == 1:
        return parts[0]
    return _combine_keys(np.concatenate([k for k, _ in parts]),
                         np.concatenate([c for _, c in parts]), field)


def _folded(parts, field: FieldSpec):
    """The sum of a nonempty iterable of combined (keys, coefficient
    indices) parts, taken in as they come: the pending parts are folded
    into the running sum whenever their total size passes both NUMPY_CHUNK
    and the running sum's size, so the folds sort at most twice the keys of
    the parts they take in, and the largest array holds about twice the
    running sum plus twice NUMPY_CHUNK."""
    held, running, pending = [], 0, 0  # after a fold, held[0] is the sum
    for part in parts:
        held.append(part)
        pending += len(part[0])
        if pending > max(NUMPY_CHUNK, running):
            held = [_fold(held, field)]
            running, pending = len(held[0][0]), 0
    return _fold(held, field)


# -- the action on stacks of matrices, on packed keys --
#
# A packed family holds several polynomials in one (keys, coefficients)
# pair: term e of output o has the key o * radix^n + sum_j e_j radix^j, and
# the keys ascend, so each output is a contiguous run.  The radix exceeds
# every total degree, so no exponent carries into the next place.

def _key_weights(radix, n):
    """The place values radix^j of the packed keys of n variables: int64,
    or Python ints (an object array) where radix^n passes int64."""
    fits = radix ** n < 1 << 63
    return np.array([radix ** j for j in range(n)],
                    dtype=np.int64 if fits else object)


def _row_images(space: VariableSpace, matrix) -> dict:
    """Variable position -> the linear form with that row of the index
    matrix (x_i goes to sum_j matrix[i][j] x_j); identity rows get no
    image, so `_substitute` keeps those variables as they are."""
    unit = (0,) * space.dim
    images = {}
    for i, row in enumerate(matrix):
        terms = {unit[:j] + (1,) + unit[j + 1:]: c
                 for j, c in enumerate(row) if c}
        if terms != {unit[:i] + (1,) + unit[i + 1:]: 1}:
            images[i] = Polynomial(space, terms)
    return images


def _act_packed(space: VariableSpace, exps, coeffs, mats, which, owner,
                radix):
    """The right action on terms by a stack of matrices, summed per output.

    Term t (exponents exps[t], coefficient index coeffs[t]) is acted on by
    the index matrix mats[which[t]], and its image is added to output
    owner[t].  Returns the outputs as a packed family (keys, coefficient
    indices); radix must exceed the total degree of every term.

    Row i of a matrix sends x_i to the linear form l_i = sum_j g_ij x_j.  A
    row with at most one nonzero entry a (at column j) sends x_i^e to
    a^e x_j^e, which is one shift of the key.  Every other row goes through
    the Frobenius shortcut of `Polynomial.__pow__`: with e_ik the base-p
    digits of e_i, x^e.g = prod_i prod_k (sum_j frob^k(g_ij) x_j^(p^k))^(e_ik),
    so q-power exponents stay cheap; frob^k(g) is g raised to the p-th power
    k times (`FieldSpec.power`).  All (term, matrix) pairs advance together,
    one linear factor per step; equal (pair, key) entries are merged by
    `_combine_keys` once a step leaves more than NUMPY_CHUNK of them, and at
    the end.  Coefficients multiply as in `_mul_packed`, by
    `FieldSpec.multiply`.

    Pairs go in chunks whose merged partial products hold at most about
    NUMPY_CHUNK entries (at least one pair each), bounded per pair by the
    monomials of its degree and by prod C(nnz_i + e_ik - 1, e_ik) over its
    factors, so a step forms at most n times NUMPY_CHUNK entries, or n
    times one pair's bound when that alone is more.  The chunk results fold
    into a running sum (`_folded`).  Its one caller, `_act_blocks`,
    hands it a block of jobs whose terms stay within NUMPY_CHUNK, with only
    the matrices they name, so the input arrays, and the arrays
    `_flat_rows` forms from them, stay near NUMPY_CHUNK rows too.

    Only the inputs numpy cannot take go to `_act_substitute`, which is
    also the oracle: keys that would reach PACKED_KEY_LIMIT and spaces
    without variables (whose terms are constants)."""
    field, n = space.field, space.dim
    size = radix ** n
    if not len(coeffs):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if not n or size * (int(owner.max()) + 1) >= PACKED_KEY_LIMIT:
        return _act_substitute(space, exps, coeffs, mats, which, owner, radix)
    p, r = field.p, field.r
    mats = np.asarray(mats, dtype=np.int64)
    weights = _key_weights(radix, n)
    forms = [mats]  # forms[m, k, i, j] = frob^k(g_ij) of matrix m
    for _ in range(1, r):
        forms.append(field.power(forms[-1], p))
    forms = np.stack(forms, axis=1)
    keys0, scale, moved = _flat_rows(exps, coeffs, mats, which, weights,
                                     field)
    live = np.flatnonzero(scale)
    if not len(live):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)

    # the other rows: one step per base-p digit unit of their exponents
    top, places = int(moved.max()), 1
    while p ** places <= top:
        places += 1
    shifts = [p ** k for k in range(places)]
    digits = np.empty(moved.shape + (places,), dtype=np.min_scalar_type(
        min(p - 1, top)))
    for k, shift in enumerate(shifts):
        digits[..., k] = moved // shift % p
    del moved
    shifts = np.array(shifts, dtype=np.int64)
    steps = digits.sum(axis=(1, 2), dtype=np.int64)
    stops = _chunk_stops(exps, mats, which, digits, live, radix,
                         PACKED_KEY_LIMIT // size)
    code = np.arange(n * places, dtype=np.min_scalar_type(n * places))

    def chunk_sums(chunk):
        """The combined images of one chunk of live terms, per output."""
        chunk = chunk[np.argsort(-steps[chunk], kind="stable")]
        count = steps[chunk]  # descending
        order = np.repeat(np.arange(len(chunk)), count)
        factors = np.zeros((len(chunk), count[0]), dtype=code.dtype)
        factors[order, np.arange(len(order)) - (np.cumsum(count) - count)[
            order]] = np.repeat(np.tile(code, len(chunk)),
                                digits[chunk].ravel())
        mat = which[chunk]
        # entries stay grouped by pair, ascending, and are merged only once
        # they pass NUMPY_CHUNK, so a step needs no sort
        keys = np.arange(len(chunk)) * size + keys0[chunk]
        values = scale[chunk]
        done = []
        active = len(chunk)
        for s in range(count[0]):
            if count[active - 1] <= s:  # pairs done: set their entries apart
                active = np.count_nonzero(count > s)
                cut = np.searchsorted(keys, active * size)
                done.append((keys[cut:], values[cut:]))
                keys, values = keys[:cut], values[:cut]
            pair = keys // size
            i, k = np.divmod(factors[pair, s], places)
            form = forms[mat[pair], k % r, i]
            hit = form != 0
            keys = (keys[:, None] + shifts[k][:, None] * weights)[hit]
            values = field.multiply(values[:, None], form)[hit]
            if len(keys) > NUMPY_CHUNK:
                keys, values = _combine_keys(keys, values, field)
        done.append((keys, values))
        keys = np.concatenate([k for k, _ in done])
        return _combine_keys(owner[chunk][keys // size] * size + keys % size,
                             np.concatenate([v for _, v in done]), field)

    return _folded(map(chunk_sums, np.split(live, stops[:-1])), field)


def _flat_rows(exps, coeffs, mats, which, weights, field: FieldSpec):
    """The part of `_act_packed` done by the rows with at most one nonzero
    entry a (a is the row's sum), which send x_i^e to a^e x_j^e: the key
    shift and the coefficient of every term's image under those rows, and
    the exponents left for the other rows.  a = 1 needs no power."""
    nonzero = mats != 0
    flat = nonzero.sum(axis=2)[which] <= 1
    fixed = np.where(flat, exps, 0)
    lead = nonzero.argmax(axis=2)  # the column of a row's one entry
    keys0 = (fixed * weights[lead[which]]).sum(axis=1)
    base = np.where(flat, mats.sum(axis=2)[which], 1)
    fixed[base == 1] = 0
    scale = coeffs
    if fixed.any():
        scale = reduce(field.multiply, field.power(base, fixed).T, coeffs)
    return keys0, scale, np.where(flat, 0, exps)


def _chunk_stops(exps, mats, which, digits, live, radix, most):
    """The ends of `_act_packed`'s chunks of the live terms, in order: each
    holds at least one term and at most `most`, and as many more as keep
    the sum of their bounds within NUMPY_CHUNK.  A term's bound is the
    smaller of the monomials of its degree and the product over its factor
    digits e_ik of C(nnz_i + e_ik - 1, e_ik), the terms of l_i^(e_ik)."""
    n = exps.shape[1]
    if len(live) <= most and len(live) * math.comb(
            n + radix - 2, n - 1) <= NUMPY_CHUNK:
        return [len(live)]  # under the bound of the largest degree
    grow = np.arange(1, radix)
    # monomials[a, d] = C(a + d - 1, d), the monomials of degree d in a
    # variables (1 at d = 0, so the rows without factors count once)
    monomials = np.hstack((np.ones((n + 1, 1)), np.cumprod(
        (np.arange(n + 1)[:, None] - 1 + grow) / grow, axis=1)))
    spread = (mats != 0).sum(axis=2)[which]
    factors = np.ones(len(exps))
    for k in range(digits.shape[2]):
        factors *= monomials[spread, digits[..., k]].prod(axis=1)
    bound = np.minimum(factors, monomials[n, exps.sum(axis=1)])[live]
    ends, stops = np.cumsum(bound), [0]
    while stops[-1] < len(live):
        start = stops[-1]
        stop = int(np.searchsorted(ends, ends[start] - bound[start]
                                   + NUMPY_CHUNK, side="right"))
        stops.append(min(max(stop, start + 1), start + most))
    return stops[1:]


def _act_substitute(space: VariableSpace, exps, coeffs, mats, which, owner,
                    radix):
    """`_act_packed` by `_substitute`, the polynomial of each (output,
    matrix) pair at a time: its route where the packed keys do not fit
    int64 or the space has no variables, and its oracle.  The keys are Python ints (an object
    array) where they pass int64."""
    field, n = space.field, space.dim
    groups = {}
    for e, c, m, o in zip(map(tuple, exps.tolist()), coeffs.tolist(),
                          which.tolist(), owner.tolist()):
        _add_term(field, groups.setdefault((o, m), {}), e, c)
    sums = {}
    for (o, m), terms in groups.items():
        image = Polynomial._trusted(space, terms)._substitute(
            space, _row_images(space, np.asarray(mats[m]).tolist()))
        out = sums.setdefault(o, {})
        for e, c in image._terms.items():
            _add_term(field, out, e, c)
    size = radix ** n
    weights = [radix ** j for j in range(n)]
    terms = sorted((o * size + sum(map(int.__mul__, e, weights)), c)
                   for o, out in sums.items() for e, c in out.items())
    big = terms and terms[-1][0] >= 1 << 63
    return (np.array([k for k, _ in terms], dtype=object if big else np.int64),
            np.array([c for _, c in terms], dtype=np.int64))


def _act_sum(polys, mats) -> list:
    """The sums of f.g over the stack of index matrices mats, for each f of
    polys (of one space) in order: the transfer (`analysis.transfer`).
    Every (polynomial, matrix) pair is a job of `_act_blocks`,
    matrix-major, and the block results fold into a running sum
    (`_folded`)."""
    if not polys or not len(mats):
        return [f.space.zero() for f in polys]
    space, field = polys[0].space, polys[0].space.field
    radix = max(0, *(f.degree() for f in polys)) + 1
    picks = np.tile(np.arange(len(polys)), len(mats))
    blocks = _act_blocks(space, _family(polys, radix), picks,
                         np.repeat(np.arange(len(mats)), len(polys)), picks,
                         mats, radix)
    keys, coeffs = _folded((out for *_, out in blocks), field)
    exps = _unpack(keys, radix, space.dim)
    bounds = _starts(keys, len(polys), radix ** space.dim).tolist()
    return [Polynomial._trusted(space, _term_dict(exps[a:b], coeffs[a:b]))
            for a, b in zip(bounds, bounds[1:])]


def _act_blocks(space: VariableSpace, family, picks, which, owner, mats,
                radix):
    """The right action on a packed family, job by job: job j adds (output
    picks[j] of family).mats[which[j]] to output owner[j].  The jobs go in
    order, a block at a time: as many jobs as keep their terms within
    NUMPY_CHUNK, and at least one.  A block's terms are gathered
    (`_select`) for one `_act_packed` call, which gets only the matrices
    the block names, re-indexed, so that no array of the call grows with
    the whole stack.  Yields (first job, end job, the block's outputs as a
    packed family) per block."""
    n = space.dim
    keys, coeffs = family
    starts = _starts(keys, int(picks.max(initial=-1)) + 1, radix ** n)
    # before[j]: the terms of the jobs before job j
    before = np.append(0, np.cumsum(np.diff(starts)[picks]))
    first = 0
    while first < len(picks):
        stop = max(first + 1, int(np.searchsorted(
            before, before[first] + NUMPY_CHUNK, side="right")) - 1)
        job, at = _select(starts, picks[first:stop])
        used = np.flatnonzero(np.bincount(which[first:stop]))
        yield first, stop, _act_packed(
            space, _unpack(keys[at], radix, n).astype(np.int64), coeffs[at],
            mats[used], np.searchsorted(used, which[first:stop][job]),
            owner[first:stop][job], radix)
        first = stop


def _family(polys, radix):
    """The packed family of polys (of one space): output i holds polys[i]."""
    exps, coeffs, owner = _stack(polys)
    n = exps.shape[1]
    keys = _place(owner, radix ** n) + exps @ _key_weights(radix, n)
    order = np.argsort(keys, kind="stable")
    return keys[order], coeffs[order]


def _stack(polys):
    """The terms of several polynomials of one space: (exponents,
    coefficient indices, the index of each term's polynomial)."""
    exps, coeffs = zip(*(_dict_arrays(f._terms, f.space.dim) for f in polys))
    return (np.concatenate(exps), np.concatenate(coeffs),
            np.repeat(np.arange(len(polys)), [len(f) for f in polys]))


def _unpack(keys, radix, n):
    """The exponents ((len, n) array) of packed keys, outputs dropped."""
    return keys[:, None] // _key_weights(radix, n) % radix


def _term_dict(exps, coeffs):
    """The term dict of exponent rows and their coefficient indices."""
    columns = exps.T.tolist()
    return dict(zip(zip(*columns) if columns else [()] * len(coeffs),
                    coeffs.tolist()))


def _starts(keys, count, size):
    """Where each output 0..count-1 of a packed family starts, and where
    output count - 1 ends."""
    return np.searchsorted(keys, _place(np.arange(count + 1), size))


def _select(starts, picks):
    """The terms of outputs picks[j] of a packed family whose outputs start
    at `starts` (`_starts`), j by j: (j, the term's index in the family)."""
    lens = starts[picks + 1] - starts[picks]
    job = np.repeat(np.arange(len(picks)), lens)
    return job, (np.arange(len(job)) - (np.cumsum(lens) - lens)[job]
                 + starts[picks][job])


def _place(owner, size):
    """owner * size: int64, or Python ints (an object array) where the
    largest would pass int64."""
    if len(owner) and (int(owner.max()) + 1) * size >= 1 << 63:
        owner = owner.astype(object)
    return owner * size


def _differ(field: FieldSpec, a, b, size, first, stop):
    """Mask of the outputs first..stop-1 at which two packed families of
    those outputs differ: the outputs with a term left in a - b."""
    keys, _ = _combine_keys(np.concatenate([a[0], b[0]]),
                            np.concatenate([a[1], field.negate(b[1])]), field)
    return np.bincount((keys // size).astype(np.int64) - first,
                       minlength=stop - first) > 0


def _differing(space: VariableSpace, family, picks, which, mats, radix,
               target, aims):
    """Mask over the jobs j at which (output picks[j] of family).mats[
    which[j]] differs from output aims[j] of the packed family target.
    Job j of `_act_blocks` owns output j, and each block is compared with
    its targets as it comes, one `_differ` each, so that the compared
    arrays stay as bounded as the kernel's."""
    size = radix ** space.dim
    keys, coeffs = target
    starts = _starts(keys, int(aims.max(initial=-1)) + 1, size)
    failed = np.zeros(len(picks), dtype=bool)
    for first, stop, acted in _act_blocks(space, family, picks, which,
                                          np.arange(len(picks)), mats,
                                          radix):
        job, at = _select(starts, aims[first:stop])
        failed[first:stop] = _differ(
            space.field, acted,
            (_place(job + first, size) + keys[at] % size, coeffs[at]),
            size, first, stop)
    return failed


def fixed_by(polys, mats) -> np.ndarray:
    """(len(polys), len(mats)) mask of f.g = f, for f in polys (of one
    space) and g in the stack of index matrices mats.  Every (polynomial,
    matrix) pair is a job of `_act_blocks`, polynomial-major, and each
    block of images is compared with the f it came from on packed keys
    (`_differing`)."""
    if not polys or not len(mats):
        return np.ones((len(polys), len(mats)), dtype=bool)
    space = polys[0].space
    radix = max(0, *(f.degree() for f in polys)) + 1
    family = _family(polys, radix)
    picks = np.repeat(np.arange(len(polys)), len(mats))
    return ~_differing(space, family, picks,
                       np.tile(np.arange(len(mats)), len(polys)), mats,
                       radix, family, picks).reshape(len(polys), len(mats))


def compatibility_failures(polys, mats, poly, a, b, c) -> np.ndarray:
    """Mask over the pairs j at which (f.g).h != f.(gh), with f =
    polys[poly[j]] (polynomials of one space), g = mats[a[j]], h =
    mats[b[j]] and gh = mats[c[j]].  `_act_blocks` forms f.g for every
    (polynomial, element) that a pair names as its g or its gh, once each,
    then (f.g).h for every pair from those images, and each block of
    (f.g).h is compared with its f.(gh) on packed keys as it comes
    (`_differing`)."""
    space = polys[0].space
    radix = max(0, *(f.degree() for f in polys)) + 1
    # output i of acted is f.g for the (polynomial, element) named[i]
    count = len(mats)
    left, right = poly * count + a, poly * count + c
    named = np.zeros(len(polys) * count, dtype=bool)
    named[left] = named[right] = True
    named = np.flatnonzero(named)
    acted = [np.concatenate(part) for part in zip(*(
        out for *_, out in _act_blocks(
            space, _family(polys, radix), named // count,
            named % count, np.arange(len(named)), mats, radix)))]
    return _differing(space, acted, np.searchsorted(named, left), b, mats,
                      radix, acted, np.searchsorted(named, right))


def balanced_product(factors, space: VariableSpace) -> Polynomial:
    """Product accumulated smallest-pair-first to bound intermediate sizes."""
    polys = [f for f in factors]
    if not polys:
        return space.one()
    heap = [(len(f), i, f) for i, f in enumerate(polys)]
    heapq.heapify(heap)
    counter = len(polys)
    while len(heap) > 1:
        _, _, a = heapq.heappop(heap)
        _, _, b = heapq.heappop(heap)
        c = a * b
        heapq.heappush(heap, (len(c), counter, c))
        counter += 1
    return heap[0][2]


# -- parsing --

def format_polynomial(f: Polynomial) -> str:
    if f.is_zero():
        return "0"
    field = f.space.field
    parts = []
    for e, c in f.sorted_terms():
        factors = []
        ctext = field.format_scalar(c)
        is_constant_term = not any(e)
        if c != 1 or is_constant_term:
            if "+" in ctext:
                ctext = f"({ctext})"
            factors.append(ctext)
        for i, ei in enumerate(e):
            if ei == 1:
                factors.append(f.space.names[i])
            elif ei > 1:
                factors.append(f"{f.space.names[i]}^{ei}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def parse_polynomial(space: VariableSpace, text: str) -> Polynomial:
    """Inverse of format_polynomial; also accepts '-' separators."""
    field = space.field
    out = {}
    pos = 0
    n = len(text)

    def skip_ws(i):
        while i < n and text[i].isspace():
            i += 1
        return i

    pos = skip_ws(pos)
    if pos == n:
        raise ParseError("empty polynomial text", pos)
    first = True
    while pos < n:
        sign = 1
        pos = skip_ws(pos)
        if not first or (pos < n and text[pos] in "+-"):
            if pos >= n or text[pos] not in "+-":
                raise ParseError("expected '+' or '-'", pos)
            if text[pos] == "-":
                sign = -1
            pos = skip_ws(pos + 1)
        first = False
        coeff = 1
        exps = [0] * space.dim
        saw_factor = False
        while True:
            pos = skip_ws(pos)
            if pos < n and text[pos] == "(":
                close = text.find(")", pos)
                if close < 0:
                    raise ParseError("unbalanced parenthesis", pos)
                coeff = field.mul(coeff, field.parse_scalar(text[pos:close + 1]))
                pos = close + 1
            elif pos < n and (text[pos].isalnum() or text[pos] == "_"):
                start = pos
                while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                    pos += 1
                token = text[start:pos]
                power = 1
                if pos < n and text[pos] == "^":
                    pos += 1
                    pstart = pos
                    while pos < n and text[pos].isdigit():
                        pos += 1
                    if pos == pstart:
                        raise ParseError("expected exponent digits", pos)
                    power = int(text[pstart:pos])
                if token in space._pos:
                    exps[space.position(token)] += power
                elif token == "t" or token.isdigit():
                    base = field.parse_scalar(token)
                    coeff = field.mul(coeff, field.pow(base, power))
                else:
                    raise ParseError(f"unknown symbol {token!r}", start)
            else:
                if not saw_factor:
                    raise ParseError("expected a term", pos)
                break
            saw_factor = True
            pos = skip_ws(pos)
            if pos < n and text[pos] == "*":
                pos += 1
                continue
            break
        if sign < 0:
            coeff = field.neg(coeff)
        _add_term(field, out, tuple(exps), coeff)
        pos = skip_ws(pos)
    return Polynomial._trusted(space, out)


def monomial_array(n: int, d: int) -> np.ndarray:
    """The exponents of all monomials of degree d in n variables as an int64
    (count, n) array, grevlex-descending: for a fixed degree that is
    ascending in e[n-1], then in e[n-2], and so on, so that the packed keys
    sum_i e_i (d + 1)^i increase along the rows.

    The compositions of d are grown one variable at a time: a row with r
    left to place spawns the rows with 0, 1, ..., r in the next variable,
    and the last variable takes what is left; one `lexsort` orders them."""
    if n == 0:
        return np.zeros((int(d == 0), 0), dtype=np.int64)
    exps = np.zeros((1, 0), dtype=np.int64)
    left = np.array([d], dtype=np.int64)
    for _ in range(n - 1):
        spawn = np.repeat(np.arange(len(exps)), left + 1)
        first = np.cumsum(left + 1) - (left + 1)
        value = np.arange(len(spawn)) - first[spawn]
        exps = np.column_stack((exps[spawn], value))
        left = left[spawn] - value
    exps = np.column_stack((exps, left))
    return exps[np.lexsort(exps.T)]


def monomials_of_degree(space: VariableSpace, d: int):
    """All exponent tuples of total degree d, grevlex-descending: the rows
    of `monomial_array` as tuples.  No module calls it; it stays as a test
    oracle, the monomial list that the dense invariant-dimension and
    transfer routes of the tests run over."""
    return list(map(tuple, monomial_array(space.dim, d).tolist()))
