"""Exact arithmetic in the finite field GF(p^r).

Elements are residue vectors with respect to the power basis 1, t, ..., t^(r-1)
of GF(p)[t] modulo a monic irreducible polynomial.  Internally an element is a
single integer index in [0, q): the base-p digits of the index are the
coordinates, so index 0 is the zero element and index 1 is the identity.  For
small fields (q <= 512) all arithmetic is table driven, except addition and
negation over prime fields, which reduce mod p.  The multiplication table is
also kept as a numpy array, from which `FieldSpec.multiply` gathers.

`FieldSpec.digits`, `indices` and `expand` are the one place where GF(p^r)
is written over F_p for numpy: base-p digits of index arrays, and a GF(q)
index matrix as the F_p matrix whose r x r block of entry a has row j
holding the digits of t^j a.  Products, element orders, group closure and
row reduction all work over F_p through them.

`FieldSpec.multiply`, `power`, `negate` and `run_sums` are the GF(q)
arithmetic on index arrays, and the one place that picks a route by the
shape of the field; the polynomial product and action, the symmetric powers
and the group constructors call them and never branch on the field.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

TABLE_LIMIT = 512
# Products of residues below this prime bound fit in int64.
RESIDUE_LIMIT = 1 << 31


class FieldMismatchError(ValueError):
    """Raised when operands belong to different fields."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _poly_mul_mod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_rem(a, m, p):
    # a, m lists of residues, m monic
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    del a[dm:]
    return a


def _base_p_digits(i, p, r):
    """The r base-p digits of the int i, lowest first."""
    out = []
    for _ in range(r):
        i, d = divmod(i, p)
        out.append(d)
    return out


def _poly_is_irreducible(m, p):
    """Trial division of the monic polynomial m by all lower-degree monics."""
    r = len(m) - 1
    if r == 1:
        return True
    for d in range(1, r // 2 + 1):
        for idx in range(p ** d):
            if not any(_poly_rem(m, _base_p_digits(idx, p, d) + [1], p)):
                return False
    return True


def _smallest_irreducible(p, r):
    """Lexicographically smallest monic irreducible of degree r over GF(p).

    Candidate constant-through-top coefficient vectors are compared
    low-degree-first, which is exactly the base-p counter order below.
    """
    if r == 1:
        return (0, 1)
    for idx in range(p ** r):
        m = _base_p_digits(idx, p, r) + [1]
        if _poly_is_irreducible(m, p):
            return tuple(m)
    raise AssertionError("no irreducible polynomial found")


class FieldSpec:
    """The field GF(p^r) with a pinned modulus.

    Immutable; two FieldSpec objects compare equal when (p, r, modulus)
    agree, and scalars of equal fields interoperate.
    """

    def __init__(self, p: int, r: int = 1, modulus=None):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if r < 1:
            raise ValueError(f"r = {r} must be positive")
        self.p = p
        self.r = r
        self.q = p ** r
        if modulus is None:
            modulus = _smallest_irreducible(p, r)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != r + 1 or modulus[r] != 1:
                raise ValueError("modulus must be monic of degree r")
            if r > 1 and not _poly_is_irreducible(list(modulus), p):
                raise ValueError("modulus is reducible")
        self.modulus = modulus
        # row s holds the digits of t^s mod the modulus, s < 2r - 1
        powers = [_poly_rem([0] * s + [1], list(modulus), p)
                  for s in range(2 * r - 1)]
        self._powers = np.array([rem + [0] * (r - len(rem))
                                 for rem in powers], dtype=np.int64)
        # row j of _companion[i] holds the digits of t^(i+j): the transposed
        # i-th power of the companion matrix of the modulus
        self._companion = self._powers[
            np.add.outer(np.arange(r), np.arange(r))]
        self._place = p ** np.arange(r, dtype=np.int64)
        self._add_table = None
        self._neg_table = None
        self._mul_table = None
        self._inv_table = None
        self._mul_array = None
        if self.q <= TABLE_LIMIT:
            self._build_tables()

    # -- index-level arithmetic (used by the polynomial layer) --

    def _digits(self, i):
        return _base_p_digits(i, self.p, self.r)

    def _index(self, digits):
        i = 0
        for c in reversed(digits):
            i = i * self.p + (c % self.p)
        return i

    def digits(self, indices) -> np.ndarray:
        """(..., r) int64 base-p digits of an index array, lowest first.
        Over a prime field the index is its one digit, with no division."""
        indices = np.asarray(indices, dtype=np.int64)[..., None]
        return indices if self.r == 1 else indices // self._place % self.p

    def indices(self, digits, axis: int = -1) -> np.ndarray:
        """The indices of base-p digit arrays, digit x at position x of
        `axis`: the inverse of `digits`.  Folded Horner-style in int64, or
        in Python ints where the digits are objects; over a prime field the
        result may be a view of `digits`."""
        digits = np.asarray(digits)
        head = (slice(None),) * (axis % digits.ndim)
        out = digits[head + (self.r - 1,)].astype(
            object if digits.dtype == object else np.int64, copy=False)
        for x in range(self.r - 2, -1, -1):
            out = out * self.p + digits[head + (x,)]
        return out

    def expand(self, indices, dtype) -> np.ndarray:
        """The F_p form of (..., n, k) index arrays, in `dtype`: row j of
        block row i of the (..., n r, k r) result holds the digits of t^j
        times row i, so row 0 holds the digits of row i.  The block of a is
        sum_i digit_i(a) times the transposed i-th companion power; GF(q)
        being commutative, this is a ring homomorphism, so products, powers
        and row reduction all read it.  Over GF(p) the array itself."""
        r = self.r
        if r == 1:
            return np.asarray(indices).astype(dtype)
        blocks = np.tensordot(self.digits(indices), self._companion,
                              axes=1) % self.p
        *lead, n, k, _, _ = blocks.shape
        return blocks.swapaxes(-3, -2).reshape(*lead, n * r, k * r) \
            .astype(dtype)

    def multiply(self, a, b) -> np.ndarray:
        """a b for broadcast index arrays, as int64 indices.  Over GF(p) the
        residue product (in Python ints from p = RESIDUE_LIMIT, whose
        products pass int64); over GF(p^r) a gather from the
        multiplication table where the field has one, and otherwise the
        convolution of the digit polynomials reduced by the modulus
        (`reduce`)."""
        p, r = self.p, self.r
        if r == 1:
            if p < RESIDUE_LIMIT:
                return np.asarray(a, dtype=np.int64) * \
                    np.asarray(b, dtype=np.int64) % p
            return (np.asarray(a, dtype=object) * np.asarray(b, dtype=object)
                    % p).astype(np.int64)
        if self._mul_array is not None:
            return self._mul_array[a, b]
        x, y = self.digits(a), self.digits(b)
        conv = np.zeros(np.broadcast_shapes(x.shape, y.shape)[:-1]
                        + (2 * r - 1,), dtype=np.int64)
        for s in range(r):
            conv[..., s:s + r] += x[..., s, None] * y
        return self.indices(self.reduce(conv))

    def reduce(self, coeffs) -> np.ndarray:
        """The (..., r) digits of (..., 2r - 1) int64 coefficient arrays of
        products of digit polynomials, reduced by the monic modulus: one
        matmul of the residues with the digits of t^s.  Over GF(p) only the
        residue, as numpy runs the matmul one tiny product per row."""
        if self.r == 1:
            return coeffs % self.p
        return coeffs % self.p @ self._powers % self.p

    def power(self, a, e) -> np.ndarray:
        """a^e for broadcast index and nonnegative int64 exponent arrays, as
        int64 indices, by repeated squaring through `multiply` (a^0 = 1)."""
        a, e = np.asarray(a, dtype=np.int64), np.asarray(e, dtype=np.int64)
        out = np.ones(np.broadcast_shapes(a.shape, e.shape), dtype=np.int64)
        while e.any():
            out = np.where(e & 1, self.multiply(out, a), out)
            e, a = e >> 1, self.multiply(a, a)
        return out

    def negate(self, a) -> np.ndarray:
        """-a for an index array, as int64 indices: digit by digit mod p."""
        return self.indices(-self.digits(a) % self.p)

    def run_sums(self, a, starts) -> np.ndarray:
        """The sums of the runs a[starts[i]:starts[i + 1]] of an index array
        (the last run to the end), `np.reduceat` style.  In characteristic 2
        the bits of an index are its base-2 digits, so a sum is the XOR of
        the indices, for every r; over GF(p) it is the residue sum mod p;
        over odd p^r the digits are summed mod p and folded back."""
        p = self.p
        if p == 2:
            return np.bitwise_xor.reduceat(a, starts)
        if self.r == 1:
            return np.add.reduceat(a, starts) % p
        return self.indices(np.add.reduceat(self.digits(a), starts) % p)

    def _build_tables(self):
        """Multiplication, inverse, and (r > 1) addition and negation tables
        as nested lists, built in numpy a block of q/8 rows at a time, so
        that no temporary array holds more than about q^2 r / 4 entries.
        The products are one float64 matmul per block: the digits of a c
        are sum_s digit_s(a) times the digits of t^s c, row s of the
        `expand` form of c, and these sums of r products of residues stay
        far below 2^53 for every q <= TABLE_LIMIT, so they are exact.  The
        sums go digit by digit.

        The numpy multiplication table (`_mul_array`, q x q int64 indices)
        is kept for `multiply`."""
        p, q, r = self.p, self.q, self.r
        every = np.arange(q)
        digits = self.digits(every)
        # row s holds the digits of t^s c for every c, c-major
        shifts = self.expand(every[None], np.float64)
        step = max(1, q // 8)
        mul, add = [], []
        for start in range(0, q, step):
            block = digits[start:start + step]
            products = (block @ shifts).astype(np.int64)
            mul.append(self.indices(products.reshape(-1, q, r) % p))
            if r > 1:  # prime fields add with % p
                add.append(self.indices((block[:, None] + digits) % p)
                           .tolist())
        mul = np.concatenate(mul)
        self._mul_table = mul.tolist()
        self._inv_table = np.argmax(mul == 1, axis=1).tolist()
        if r > 1:
            self._add_table = [row for rows in add for row in rows]
            self._neg_table = self.negate(every).tolist()
        self._mul_array = mul

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.r == 1:
            return (a + b) % p
        if self._add_table is not None:
            return self._add_table[a][b]
        return self._index(list(map(int.__add__, self._digits(a),
                                    self._digits(b))))

    def neg(self, a: int) -> int:
        p = self.p
        if self.r == 1:
            return (-a) % p
        if self._neg_table is not None:
            return self._neg_table[a]
        return self._index([-c for c in self._digits(a)])

    def sub(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a][b]
        prod = _poly_mul_mod_p(self._digits(a), self._digits(b), self.p)
        return self._index(_poly_rem(prod, list(self.modulus), self.p))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero")
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        e %= self.q - 1
        out, base = 1, a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    # -- scalar objects --

    def zero(self) -> "Scalar":
        return Scalar(self, 0)

    def one(self) -> "Scalar":
        return Scalar(self, 1)

    def scalar(self, value) -> "Scalar":
        """Coerce an int (mod p for prime fields, index otherwise), a
        coefficient list or a text form to a Scalar."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatchError("scalar from a different field")
            return Scalar(self, value.index)
        if isinstance(value, str):
            return Scalar(self, self.parse_scalar(value))
        if isinstance(value, (list, tuple)):
            if len(value) > self.r:
                raise ValueError("too many coordinates")
            return Scalar(self, self._index(list(value) + [0] * (self.r - len(value))))
        if isinstance(value, int):
            if self.r == 1:
                return Scalar(self, value % self.p)
            if not 0 <= value < self.q:
                raise ValueError(f"index {value} out of range for GF({self.q})")
            return Scalar(self, value)
        raise TypeError(f"cannot coerce {value!r} to GF({self.q})")

    def elements(self):
        return [Scalar(self, i) for i in range(self.q)]

    def primitive_element(self) -> "Scalar":
        """Smallest-index generator of the multiplicative group."""
        target = self.q - 1
        for i in range(1, self.q):
            a, n = i, 1
            while a != 1:
                a = self.mul(a, i)
                n += 1
            if n == target:
                return Scalar(self, i)
        raise AssertionError("no primitive element found")

    def fp_basis(self):
        """The power basis 1, t, ..., t^(r-1) as scalars."""
        return [Scalar(self, self.p ** k) for k in range(self.r)]

    # -- text form --

    def format_scalar(self, a: int) -> str:
        if self.r == 1:
            return str(a)
        digits = self._digits(a)
        parts = []
        for k, c in enumerate(digits):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                v = "t" if k == 1 else f"t^{k}"
                parts.append(v if c == 1 else f"{c}*{v}")
        return "+".join(parts) if parts else "0"

    def parse_scalar(self, text: str) -> int:
        text = text.strip()
        if text.startswith("(") and text.endswith(")"):
            text = text[1:-1]
        total = 0
        for part in text.replace("-", "+-").split("+"):
            part = part.strip()
            if not part:
                continue
            sign = 1
            if part.startswith("-"):
                sign, part = -1, part[1:].strip()
            coeff, power = 1, 0
            for factor in part.split("*"):
                factor = factor.strip()
                if factor.startswith("t"):
                    power = 1 if factor == "t" else int(factor[2:])
                elif factor:
                    coeff = int(factor)
            if power >= self.r:
                raise ValueError(f"power t^{power} out of range in {text!r}")
            digit = (sign * coeff) % self.p
            total = self.add(total, digit * self.p ** power)
        return total

    def __eq__(self, other):
        # fields are interned by `_cached_field`, so equal ones are mostly one
        return self is other or (
            isinstance(other, FieldSpec)
            and (self.p, self.r, self.modulus) == (other.p, other.r,
                                                   other.modulus))

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((self.p, self.r, self.modulus))

    def __repr__(self):
        if self.r == 1:
            return f"GF({self.p})"
        return f"GF({self.q}; {self.format_modulus()})"

    def format_modulus(self) -> str:
        parts = []
        for k, c in enumerate(self.modulus):
            if not c:
                continue
            v = "1" if k == 0 else ("t" if k == 1 else f"t^{k}")
            parts.append(v if (c == 1 and k > 0) else (str(c) if k == 0 else f"{c}*{v}"))
        return "+".join(parts)


class Scalar:
    """An element of a FieldSpec; immutable and hashable."""

    __slots__ = ("field", "index")

    def __init__(self, field: FieldSpec, index: int):
        self.field = field
        self.index = index

    @property
    def coeffs(self):
        return tuple(self.field._digits(self.index))

    def is_zero(self) -> bool:
        return self.index == 0

    def _match(self, other):
        if isinstance(other, int):
            return self.field.scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if other.field != self.field:
            raise FieldMismatchError(
                f"mixed fields GF({self.field.q}) and GF({other.field.q})")
        return other

    def __add__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.add(self.index, other.index))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, self.field.neg(self.index))

    def __sub__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.sub(self.index, other.index))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.mul(self.index, other.index))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.mul(self.index, self.field.inv(other.index)))

    def __pow__(self, e):
        return Scalar(self.field, self.field.pow(self.index, e))

    def inverse(self) -> "Scalar":
        return Scalar(self.field, self.field.inv(self.index))

    def frobenius(self) -> "Scalar":
        """The p-power map a -> a^p."""
        return Scalar(self.field, self.field.frobenius(self.index))

    def __eq__(self, other):
        if isinstance(other, int):
            try:
                other = self.field.scalar(other)
            except ValueError:
                return NotImplemented
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field == other.field and self.index == other.index

    def __hash__(self):
        return hash((self.index, self.field.q, self.field.modulus))

    def __repr__(self):
        return self.field.format_scalar(self.index)


@lru_cache(maxsize=None)
def _cached_field(p, r, modulus):
    return FieldSpec(p, r, modulus)


def build_field(p: int, r: int = 1, modulus=None) -> FieldSpec:
    """GF(p^r) with the lex-smallest irreducible modulus unless one is given."""
    if modulus is not None:
        modulus = tuple(modulus)
    return _cached_field(p, r, modulus)


def enumerate_field(field: FieldSpec):
    """All q elements, zero first, one second, in coordinate order."""
    return field.elements()


def frobenius(a: Scalar) -> Scalar:
    return a.frobenius()
