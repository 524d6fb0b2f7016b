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
vectors", CASC 2007) over every field with tables (q <= gfq.TABLE_LIMIT) and
every prime field with p < 2^31, in memory that grows with the output; small
products and the remaining fields run the scalar dict loop.
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
# Coefficient products of residues below this prime bound fit in int64.
NUMPY_PRIME_LIMIT = 1 << 31
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

    def __init__(self, field: FieldSpec, names, convention: str = "generic"):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        self.field = field
        self.names = names
        self.convention = convention
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
    return VariableSpace(field, names, convention="symplectic")


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
        self.space = space
        self._terms = terms
        self._hash = None

    # -- inspection --

    @property
    def terms(self):
        """Exponent tuple -> Scalar, a copy in canonical (grevlex) order."""
        f = self.space.field
        return {e: Scalar(f, c) for e, c in self.sorted_terms()}

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
        add = field.add
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = add(out.get(e, 0), c)
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return Polynomial(self.space, out)

    __radd__ = __add__

    def __neg__(self):
        neg = self.space.field.neg
        return Polynomial(self.space, {e: neg(c) for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        """Product.  With at least NUMPY_MIN_PRODUCTS term pairs over a
        field with tables (q <= gfq.TABLE_LIMIT) or a prime field with
        p < 2^31 it runs in numpy (`_mul_packed`); small products, GF(p^r)
        with r > 1 over gfq.TABLE_LIMIT, p >= 2^31 and exponents whose
        packed keys would reach 2^62 run the scalar dict loop below."""
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return Polynomial(self.space, {})
        field = self.space.field
        if len(a) * len(b) >= NUMPY_MIN_PRODUCTS and (
                field._mul_array is not None
                or field.r == 1 and field.p < NUMPY_PRIME_LIMIT):
            out = _mul_packed(a, b, field, self.space.dim)
            if out is not None:
                return Polynomial(self.space, out)
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
        return Polynomial(self.space, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = self.space.field.scalar(c)
        if c.index == 0:
            return Polynomial(self.space, {})
        mul = self.space.field.mul
        return Polynomial(self.space, {e: mul(v, c.index) for e, v in self._terms.items()})

    def frobenius(self) -> "Polynomial":
        """f^p, exact in characteristic p: scale exponents, power coefficients."""
        field = self.space.field
        p = field.p
        frob = field.frobenius
        return Polynomial(self.space,
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
        mul, add, neg = field.mul, field.add, field.neg
        while rem:
            lt = min(rem, key=grevlex_key)
            diff = tuple(map(int.__sub__, lt, lt_g))
            if any(d < 0 for d in diff):
                raise InexactDivisionError(
                    f"leading term {lt} not divisible by {lt_g}")
            c = mul(rem[lt], c_g_inv)
            quo[diff] = c
            for e2, c2 in g._terms.items():
                e = tuple(map(int.__add__, diff, e2))
                s = add(rem.get(e, 0), neg(mul(c, c2)))
                if s:
                    rem[e] = s
                elif e in rem:
                    del rem[e]
        return Polynomial(self.space, quo)

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

        add, mul = field.add, field.mul
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
                s = add(out.get(e3, 0), c3)
                if s:
                    out[e3] = s
                elif e3 in out:
                    del out[e3]
        return Polynomial(target, out)

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
        c goes to the linear form with row c.[g]."""
        matrix = getattr(g, "matrix", g)
        n = self.space.dim
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError(
                f"matrix dimension {len(matrix)} does not match {n} variables")
        images = {}
        for i in range(n):
            row = matrix[i]
            terms = {}
            for j, c in enumerate(row):
                idx = c.index if isinstance(c, Scalar) else int(c)
                if idx:
                    e = [0] * n
                    e[j] = 1
                    terms[tuple(e)] = idx
            e = [0] * n
            e[i] = 1
            if terms != {tuple(e): 1}:  # the fixed variables get no image
                images[i] = Polynomial(self.space, terms)
        if not images:
            return self
        return self._substitute(self.space, images)

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


def _exponent_array(terms, n):
    """The exponent tuples of a term dict as an int64 (len, n) array."""
    flat = np.fromiter(chain.from_iterable(terms), dtype=np.int64,
                       count=len(terms) * n)
    return flat.reshape(len(terms), n)


def _combine_keys(keys, coeffs, p):
    """Sum the coefficients of equal keys mod p; drop the zero sums.  A
    coefficient may be a row of base-p digits (coeffs of shape (len, r)),
    summed digit-wise; it is dropped when every digit is zero.  The sums
    keep the dtype of coeffs, which must hold every residue mod p."""
    order = np.argsort(keys)
    keys, coeffs = keys[order], coeffs[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = (np.add.reduceat(coeffs, starts) % p).astype(coeffs.dtype,
                                                         copy=False)
    keep = (sums != 0).reshape(len(sums), -1).any(axis=1)
    return keys[starts][keep], sums[keep]


def _mul_packed(a, b, field: FieldSpec, n):
    """Product of two term dicts over GF(q), with q <= gfq.TABLE_LIMIT or
    q = p < NUMPY_PRIME_LIMIT, as a term dict, or None when the packed keys
    would reach PACKED_KEY_LIMIT.  `a` is the operand with fewer terms.

    Exponent vectors are packed into int64 keys in a mixed radix whose digit
    for each variable exceeds the largest exponent of that variable in the
    product, so key sums are exponent sums.  Over GF(p) a coefficient product
    is a residue product; over GF(p^r) it is a gather from the field's
    multiplication table, turned into a row of base-p digits, which
    `_combine_keys` sums digit-wise; the digit rows become indices once, at
    the end.

    Term pairs are formed at most NUMPY_CHUNK at a time: all of a against a
    block of b's terms in key order (a block of a against one term of b when
    a has more terms than that), each chunk combined on its own.  The pending
    chunk results are folded into the running sum whenever their total size
    passes both NUMPY_CHUNK and the running sum's size, so the folds sort at
    most twice the keys of the chunk results they take in, and the largest
    array holds about twice the running sum plus twice NUMPY_CHUNK.  Without cancellation every term of a running
    sum is a term of the product, so peak memory grows with the output plus
    NUMPY_CHUNK; terms that cancel between chunks are held until they do."""
    try:
        ea, eb = _exponent_array(a, n), _exponent_array(b, n)
    except OverflowError:
        return None
    radix = [x + y + 1 for x, y in zip(ea.max(axis=0).tolist(),
                                       eb.max(axis=0).tolist())]
    if math.prod(radix) >= PACKED_KEY_LIMIT:
        return None
    weights = [1] * n
    for i in range(n - 1, 0, -1):
        weights[i - 1] = weights[i] * radix[i]
    weights = np.array(weights, dtype=np.int64)
    ka, kb = ea @ weights, eb @ weights
    ca = np.fromiter(a.values(), dtype=np.int64, count=len(a))
    cb = np.fromiter(b.values(), dtype=np.int64, count=len(b))
    order = np.argsort(kb)
    kb, cb = kb[order], cb[order]
    p = field.p
    if field.r == 1:
        def products(x, y):
            return (x[:, None] * y % p).ravel()
    else:
        table, digits = field._mul_array, field._digit_array

        def products(x, y):
            return digits[table[x[:, None], y].ravel()]
    rows = min(len(a), NUMPY_CHUNK)
    cols = max(1, NUMPY_CHUNK // rows)
    parts, running, pending = [], 0, 0  # after a fold, parts[0] is the sum
    for s in range(0, len(b), cols):
        for t in range(0, len(a), rows):
            parts.append(_combine_keys(
                (ka[t:t + rows, None] + kb[s:s + cols]).ravel(),
                products(ca[t:t + rows], cb[s:s + cols]), p))
            pending += len(parts[-1][0])
            if pending > max(NUMPY_CHUNK, running):
                parts = [_fold(parts, p)]
                running, pending = len(parts[0][0]), 0
    keys, coeffs = _fold(parts, p)
    if field.r > 1:
        coeffs = field.indices(coeffs)
    exps = keys[:, None] // weights % np.array(radix, dtype=np.int64)
    return dict(zip(zip(*exps.T.tolist()), coeffs.tolist()))


def _fold(parts, p):
    """One (keys, coefficients) pair summing the combined parts."""
    if len(parts) == 1:
        return parts[0]
    return _combine_keys(np.concatenate([k for k, _ in parts]),
                         np.concatenate([c for _, c in parts]), p)


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
    return Polynomial(space, out)


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
