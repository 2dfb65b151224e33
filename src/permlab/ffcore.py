"""Finite fields GF(p^n) with deterministic construction.

The modulus is the lexicographically first monic irreducible polynomial of
the requested degree: candidate coefficient tuples are read as base-p
integers (constant term least significant) and irreducibility is decided by
Ben-Or's test, gcd(f, x^(p^i) - x) = 1 for every i <= n/2, with x^(p^i) mod f
reached by repeated p-th powers.

Each field precomputes discrete exp/log tables over a fixed multiplicative
generator, digit tables for addition in odd characteristic with n > 1, and
the element sets of all proper subfields, and is immutable afterwards.  The
exp table is built by doubling: exp[L:2L] = exp[:L] * g^L, where multiplying
by the constant g^L is GF(p)-linear, so it is a few table gathers per
element: the index's base-p digits are cut into chunks, each chunk is looked
up in a table of the element indices (chunk * p^offset) * g^L built from the
n basis rows x^i * g^L, and the reads are summed by the field's own add (xor
for p = 2).  Both characteristics run one loop over slices of at most 2^14
elements, each written straight into its part of the table, so the
doubling makes no block-sized temporary.  No chunk table is larger than
the block it serves, except that a table has at least one digit (p
entries).  The log table is its inverse permutation.  Each table is kept
once and read only; exp and log are int32: every entry is an element
index or a log below the order, and FieldCtx refuses orders above
MAX_ORDER = 2^31 - 1.

Addition in odd characteristic with n > 1 is a digit-wise sum, and its
tables are built first, as the exp table's doubling adds with them: pack[x]
holds x's base-p digits in bit fields of (2p-1).bit_length() bits, so
a + b = unpack(pack[a] + pack[b]) and a - b = unpack(pack[a] + P - pack[b]),
P with p in every field, where the unpack tables read the fields mod p back
as an index; zero needs no special case.  FieldCtx._add_arr is that add on
arrays, for the doubling and for the bulk layer alike.  Products and powers
are exp[log a + log b] and exp[e * log a] mod order-1 (log[0] = -1 is a
placeholder, so an operand 0 is handled apart).  The scalar Element path
reads the same tables, exp, log and pack through memoryviews, which index
to Python ints; the bulk layer gathers log[x] once, does the exponent
arithmetic in place in int64 (e * log a passes 2^31) and zeroes the
operand-zero positions after the exp gather, which it writes back into that
int64 array: pow_const, mul_scalar and mul return int64 value arrays, which
index without a cast, and add and sub the unpack tables' int32.  Its
gathers go through ndarray.take, which reads an int32
index array (an exp slice, or a value read straight off a table) without
the slower cast path of fancy indexing.  The shift image x^(p^i) - x, which
every shift form and trace fibre starts from, is built once per field and
kept read only (_Bulk.shift_base), and so is the relative trace onto each
subfield (_Bulk.trace).

Elements are identified by a canonical index: the element with coefficient
tuple (c0, ..., c_{n-1}) has index sum(c_i * p**i).  Index 0 is zero and
index 1 is one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

import numpy as np

__all__ = [
    "DEFAULT_SIZE_CAP",
    "Element",
    "FieldCtx",
    "MAX_ORDER",
    "get_field",
    "is_prime",
    "make_field",
    "prime_power",
]

DEFAULT_SIZE_CAP = 1 << 22
MAX_ORDER = 2**31 - 1       # the largest order whose indices the int32 tables hold
_SLICE = 1 << 14            # elements per slice of an exp-table doubling block


def _prime_factors(m: int) -> tuple[int, ...]:
    """Distinct prime factors of m, ascending."""
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        out.append(m)
    return tuple(out)


def is_prime(m: int) -> bool:
    return m > 1 and _prime_factors(m) == (m,)


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p**k, p prime and k >= 1; ValueError otherwise."""
    fac = _prime_factors(q)
    if len(fac) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    p, k = fac[0], 0
    while q > 1:
        q //= p
        k += 1
    return p, k


def _digits(value: int, p: int, n: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        value, r = divmod(value, p)
        out.append(r)
    return tuple(out)


def _mul_mod(a: list[int], b: list[int], f: tuple[int, ...], p: int) -> list[int]:
    """a * b mod the monic f over Z_p; coefficient lists of length deg f,
    constant term first."""
    n = len(f) - 1
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for k in range(2 * n - 2, n - 1, -1):
        c = prod[k] % p
        if c:
            for j in range(n):
                prod[k - n + j] -= c * f[j]
    return [v % p for v in prod[:n]]


def _coprime(a: list[int], b: list[int], p: int) -> bool:
    """gcd(a, b) = 1 over Z_p, for a != 0, by Euclid on coefficient lists
    (constant term first)."""
    a, b = list(a), list(b)
    while any(b):
        while not b[-1]:
            b.pop()
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):         # a -= (lead a / lead b) x^off b
            c = a.pop() * inv % p
            off = len(a) - len(b) + 1
            for j in range(len(b) - 1):
                a[off + j] = (a[off + j] - c * b[j]) % p
        a, b = b, a
    return not any(a[1:])


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Ben-Or's test: the monic f of degree n >= 2 is irreducible over Z_p
    iff gcd(f, x^(p^i) - x) = 1 for every i <= n/2.  x^(p^i) mod f comes
    from x^(p^(i-1)) by one p-th power."""
    n = len(f) - 1
    x = [0, 1] + [0] * (n - 2)
    h = x
    for _ in range(n // 2):
        acc = h                         # h^p, square and multiply
        for bit in bin(p)[3:]:
            acc = _mul_mod(acc, acc, f, p)
            if bit == "1":
                acc = _mul_mod(acc, h, f, p)
        h = acc
        if not _coprime(f, [(u - v) % p for u, v in zip(h, x)], p):
            return False
    return True


def _first_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically first monic irreducible of degree n over Z_p: the
    first candidate, in base-p order of its low coefficients, that passes
    Ben-Or's test (at n = 1 that is x)."""
    for low in range(p**n):
        cand = _digits(low, p, n) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise RuntimeError("no irreducible polynomial found")  # unreachable


def _spans(n: int, most: int) -> list[tuple[int, int]]:
    """range(n) cut into the fewest runs of at most `most` positions, as
    even as possible: (start, width) pairs."""
    count = -(-n // most)
    cuts = [n * i // count for i in range(count + 1)]
    return [(lo, hi - lo) for lo, hi in zip(cuts, cuts[1:])]


def _width(unit: int, size: int) -> int:
    """The most positions of `unit` values each that a table of at most
    size entries covers."""
    w = 0
    while unit ** (w + 1) <= size:
        w += 1
    return w


@dataclass(frozen=True)
class Element:
    """A field element; value is fully determined by (field, index)."""

    field: "FieldCtx"
    index: int

    @property
    def coeffs(self) -> tuple[int, ...]:
        return _digits(self.index, self.field.p, self.field.n)

    def __bool__(self) -> bool:
        return self.index != 0

    def _coerce(self, other):
        if isinstance(other, Element):
            return other
        if isinstance(other, int):
            return self.field.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self.field.add(self, o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self.field.sub(self, o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self.field.sub(o, self)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self.field.mul(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self.field.div(self, o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self.field.div(o, self)

    def __neg__(self):
        return self.field.neg(self)

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        return self.field.pow(self, e)

    def __repr__(self) -> str:
        f = self.field
        return f"Element(GF({f.p}^{f.n}), {self.index})"


class _Bulk:
    """Vectorized index arithmetic over one field; lazily built, read only.
    The whole-field index ramp xs is built on first use: deciding a
    trinomial never reads it."""

    def __init__(self, field: "FieldCtx"):
        self.field = field
        self.Q = field.order
        self.p = field.p
        self.n = field.n
        self.exp = field._exp_arr
        self.log = field._log_arr

    @cached_property
    def xs(self) -> np.ndarray:
        """Every element index in order, int64, read only."""
        xs = np.arange(self.Q, dtype=np.int64)
        xs.flags.writeable = False
        return xs

    def add(self, a, b):
        """a + b elementwise; numpy scalars broadcast on either side."""
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.n == 1:
            return (a + b) % self.p
        return self.field._add_arr(a, b)

    def sub(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.n == 1:
            return (a - b) % self.p
        return self.field._add_arr(a, b, minus=True)

    def _from_logs(self, t, zero):
        """exp[t mod (Q-1)], written back into the fresh int64 log array t,
        with 0 where the mask zero holds (log[0] = -1 left t meaningless
        there).  take's wrap mode reduces t, which lies within a few
        multiples of Q-1, without a division."""
        t[...] = self.exp.take(t, mode="wrap")
        t[zero] = 0
        return t

    def pow_const(self, arr, e: int):
        """arr**e elementwise for a fixed exponent e >= 1 (0**e = 0)."""
        t = np.multiply(self.log.take(arr), e % (self.Q - 1), dtype=np.int64)
        t %= self.Q - 1
        return self._from_logs(t, arr == 0)

    def pow_outer(self, logs, es):
        """x**e for every exponent e in the int64 array es (rows) and every
        point x given by its log in logs (columns, -1 for x = 0 and 0**e = 0;
        each e >= 1): one exp gather for the whole 2-D table, which is int32
        like exp."""
        M = self.Q - 1
        t = np.multiply.outer(es % M, logs.astype(np.int64))
        t %= M
        out = self.exp.take(t)
        out[:, logs < 0] = 0
        return out

    def frob(self, arr, psteps: int):
        return self.pow_const(arr, pow(self.p, psteps, self.Q - 1))

    def shift_base(self, pstep: int):
        """x^(p^pstep) - x over the whole field, built once per context and
        read only: every shift x^(p^pstep) - x + d is this plus d."""
        def build():
            out = self.sub(self.frob(self.xs, pstep), self.xs)
            out.flags.writeable = False
            return out
        return self.field.cached(("shift_base", pstep), build)

    def trace(self, base: int):
        """Relative trace onto GF(p^base) over the whole field, the sum of
        x^(p^(base*i)) for i < n/base; built once per context, read only."""
        if base < 1 or self.n % base:
            raise ValueError(f"trace target degree {base} does not divide {self.n}")

        def build():
            out = self.xs.copy()
            for i in range(1, self.n // base):
                out = self.add(out, self.frob(self.xs, base * i))
            out.flags.writeable = False
            return out
        return self.field.cached(("trace", base), build)

    def mul_scalar(self, c_idx: int, arr):
        if c_idx == 0:
            return np.zeros_like(arr)
        if c_idx == 1:
            return arr.copy()
        t = np.add(self.log.take(arr), self.log.item(c_idx), dtype=np.int64)
        return self._from_logs(t, arr == 0)

    def mul(self, a, b):
        """a * b elementwise; arrays broadcast against each other."""
        t = np.add(self.log.take(a), self.log.take(b), dtype=np.int64)
        return self._from_logs(t, (a == 0) | (b == 0))


class FieldCtx:
    """GF(p^n) as Z_p[x]/(modulus).  Build through make_field()."""

    def __init__(self, p: int, n: int, cap: int = DEFAULT_SIZE_CAP):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p!r}")
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"extension degree must be a positive integer, got {n!r}")
        order = p**n
        if order > cap:
            raise ValueError(f"field order {p}^{n} = {order} exceeds size cap {cap}")
        if order > MAX_ORDER:
            raise ValueError(f"field order {p}^{n} = {order} exceeds {MAX_ORDER}, "
                             f"the largest order the int32 tables index")
        self.p = p
        self.n = n
        self.order = order
        self.modulus = _first_irreducible(p, n)
        self._init_mul()
        self._init_digits()
        self._init_tables()
        self._init_subfields()
        self._cache: dict = {}

    # -- construction helpers ------------------------------------------------

    def _init_mul(self):
        p, n = self.p, self.n
        if n == 1:
            self._mul_raw = lambda a, b: (a * b) % p
        elif p == 2:
            mint = 0
            for i, c in enumerate(self.modulus):
                if c:
                    mint |= 1 << i
            def mul2(a: int, b: int, mint=mint, n=n) -> int:
                acc = 0
                while b:
                    if b & 1:
                        acc ^= a
                    a <<= 1
                    b >>= 1
                top = acc.bit_length()
                while top > n:
                    acc ^= mint << (top - 1 - n)
                    top = acc.bit_length()
                return acc
            self._mul_raw = mul2
        else:
            # the product mod the modulus that Ben-Or's test uses, on digits
            def mul_digits(a: int, b: int, p=p, n=n, f=self.modulus) -> int:
                idx = 0
                for v in reversed(_mul_mod(_digits(a, p, n), _digits(b, p, n), f, p)):
                    idx = idx * p + v
                return idx
            self._mul_raw = mul_digits

    def _pow_raw(self, a: int, e: int) -> int:
        acc = 1
        while e:
            if e & 1:
                acc = self._mul_raw(acc, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return acc

    def _times_const(self, arr, c: int, out) -> None:
        """out = arr * c elementwise.  x -> x * c is GF(p)-linear, so for
        n > 1 the product is a sum over chunks of the index's base-p digits:
        chunk v at digit offset o contributes the table entry (v * p^o) * c,
        an element index.  Each table is built from the basis rows x^i * c a
        digit at a time, adding on that digit's p multiples, and is as wide
        as a table no larger than the block allows, but at least one digit.
        The reads are summed by the field's own add (xor for p = 2), a slice
        of at most _SLICE elements at a time, straight into out."""
        p, n, size = self.p, self.n, arr.size
        if n == 1:
            np.remainder(np.multiply(arr, c, dtype=np.int64), p, out=out)
            return
        add = np.bitwise_xor if p == 2 else self._add_arr
        # multiples[i, v] = v * x^i * c, doubling the count of v each round
        rows = np.array([self._mul_raw(p**i, c) for i in range(n)], dtype=np.int32)[:, None]
        multiples = np.zeros((n, 1), dtype=np.int32)
        while multiples.shape[1] < p:
            step = add(multiples[:, -1:], rows)
            multiples = np.concatenate([multiples, add(
                multiples[:, :p - multiples.shape[1]], step)], axis=1)
        chunks = []
        for lo, w in _spans(n, max(1, _width(p, size))):
            table = multiples[lo]
            for digit in multiples[lo + 1:lo + w]:
                table = add(digit[:, None], table).ravel()
            chunks.append((p**lo, p**w if lo + w < n else 0, table))
        for start in range(0, size, _SLICE):
            part = arr[start:start + _SLICE]
            acc = None
            for div, mod, table in chunks:
                key = part // div if div > 1 else part
                read = table.take(key % mod if mod else key)
                acc = read if acc is None else add(acc, read)
            out[start:start + part.size] = acc

    def _init_tables(self):
        p, n, Q = self.p, self.n, self.order
        gen = 1
        if Q > 2:
            fac = _prime_factors(Q - 1)
            # for n > 1 the indices below p are constants, never primitive
            gen = next(cand for cand in range(p if n > 1 else 2, Q)
                       if all(self._pow_raw(cand, (Q - 1) // f) != 1 for f in fac))
        self.generator_index = gen
        # the first n powers one product each: a doubling step takes n
        # products for its basis rows however short its block
        exp = np.empty(Q - 1, dtype=np.int32)
        exp[0] = 1
        size = min(n, Q - 1)
        for i in range(1, size):
            exp[i] = self._mul_raw(int(exp[i - 1]), gen)
        while size < Q - 1:
            block = min(size, Q - 1 - size)
            self._times_const(exp[:block], self._mul_raw(int(exp[size - 1]), gen),
                              exp[size:size + block])
            size += block
        # log is exp's inverse permutation, scattered through an intp index
        # (an int32 one goes through numpy's casting path) a block at a
        # time, so no whole-field index or ramp is made
        log = np.full(Q, -1, dtype=np.int32)
        for lo in range(0, Q - 1, 1 << 16):
            hi = min(Q - 1, lo + (1 << 16))
            log[exp[lo:hi].astype(np.intp)] = np.arange(lo, hi, dtype=np.int32)
        exp.flags.writeable = False
        log.flags.writeable = False
        self._exp_arr = exp
        self._log_arr = log
        # the scalar path reads the same buffers; indexing a memoryview
        # yields Python ints, so Element.index stays an int
        self._exp = memoryview(exp)
        self._log = memoryview(log)

    def _init_digits(self):
        """The addition tables of odd p with n > 1 (module docstring).  pack
        is built digit by digit as an outer sum, with no division; it is
        uint32 where n fields fit in 32 bits, else int64.  Unpack table
        entry v is the sum of (field j of v mod p) * p^(lo + j) over a group
        of fields from lo, as many as a table of at most max(order, 2^16)
        int32 entries covers; the top group comes first.  None for p = 2
        and for n = 1."""
        p, n = self.p, self.n
        self._pack_arr = self._unpack_arr = self._pack = self._pack_p = None
        if p == 2 or n == 1:
            return
        bits = (2 * p - 1).bit_length()
        dtype = np.uint32 if n * bits <= 32 else np.int64
        pack = np.zeros(1, dtype=dtype)
        for i in range(n):          # index d * p^i + (lower digits)
            pack = np.add.outer(np.arange(p, dtype=dtype) << bits * i, pack).ravel()
        field_mod_p = np.arange(1 << bits) % p
        unpack = []
        for lo, w in reversed(_spans(n, _width(1 << bits, max(self.order, 1 << 16)))):
            table = np.zeros(1, dtype=np.int32)
            for j in range(w):
                table = np.add.outer((field_mod_p * p ** (lo + j)).astype(np.int32),
                                     table).ravel()
            table.flags.writeable = False
            unpack.append((bits * lo, table))
        pack.flags.writeable = False
        self._pack_arr = pack
        self._unpack_arr = tuple(unpack)
        self._pack_p = sum(p << bits * i for i in range(n))
        self._pack = memoryview(pack)

    def _init_subfields(self):
        """Element index sets of every proper subfield GF(p^m), m | n."""
        Q = self.order
        sub: dict[int, frozenset[int]] = {}
        for m in range(1, self.n):
            if self.n % m:
                continue
            d = self.p**m - 1
            stride = (Q - 1) // d
            sub[m] = frozenset([0] + [self._exp[t * stride] for t in range(d)])
        self._subfields = sub

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.n == other.n
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.modulus))

    def __repr__(self) -> str:
        return f"FieldCtx(GF({self.p}^{self.n}))"

    # -- element plumbing ----------------------------------------------------

    def _check(self, a: Element) -> None:
        # identity first: the structural __eq__ is the slow path, kept for
        # an equal field built separately
        if not isinstance(a, Element) or (a.field is not self and a.field != self):
            raise ValueError(f"operand {a!r} does not belong to {self!r}")

    def element_at(self, index: int) -> Element:
        if not isinstance(index, int) or not 0 <= index < self.order:
            raise ValueError(f"element index {index!r} out of range [0, {self.order})")
        return Element(self, index)

    def scalar(self, v: int) -> Element:
        return Element(self, v % self.p)

    @property
    def zero(self) -> Element:
        return Element(self, 0)

    @property
    def one(self) -> Element:
        return Element(self, 1)

    def elements(self) -> Iterator[Element]:
        for i in range(self.order):
            yield Element(self, i)

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        self._check(a)
        self._check(b)
        return Element(self, self._add_idx(a.index, b.index))

    def sub(self, a: Element, b: Element) -> Element:
        self._check(a)
        self._check(b)
        return Element(self, self._add_idx(a.index, self._neg_idx(b.index)))

    def neg(self, a: Element) -> Element:
        self._check(a)
        return Element(self, self._neg_idx(a.index))

    def mul(self, a: Element, b: Element) -> Element:
        self._check(a)
        self._check(b)
        return Element(self, self._mul_idx(a.index, b.index))

    def div(self, a: Element, b: Element) -> Element:
        self._check(a)
        self._check(b)
        if b.index == 0:
            raise ZeroDivisionError("division by the zero element")
        return self.mul(a, self.inv(b))

    def inv(self, b: Element) -> Element:
        self._check(b)
        if b.index == 0:
            raise ZeroDivisionError("zero element has no inverse")
        return self.pow(b, -1)

    def pow(self, a: Element, e: int) -> Element:
        """a**e = exp[e * log a mod (order-1)] for a != 0; 0**e = 0 for e > 0."""
        self._check(a)
        if not isinstance(e, int):
            raise ValueError(f"exponent must be an integer, got {e!r}")
        if a.index == 0:
            if e == 0:
                raise ValueError("0**0 is undefined")
            if e < 0:
                raise ZeroDivisionError("negative power of the zero element")
            return self.zero
        return Element(self, self._exp[self._log[a.index] * e % (self.order - 1)])

    def _add_arr(self, a, b, minus: bool = False):
        """a + b, or a - b with minus, elementwise for odd p with n > 1;
        numpy scalars and arrays broadcast.  One integer add of the packed
        digits (each field a_i + p - b_i of a difference lies in [1, 2p - 1]:
        no borrow), then one unpack-table gather per group of fields, the top
        group first, as it needs no mask."""
        pack = self._pack_arr
        if minus:
            s = pack.take(a) + self._pack_p - pack.take(b)
        else:
            s = pack.take(a) + pack.take(b)
        (shift, table), *low = self._unpack_arr
        out = table.take(s >> shift if shift else s)
        for shift, table in low:
            out += table.take((s >> shift if shift else s) & (table.size - 1))
        return out

    def _unpack_idx(self, s: int) -> int:
        """_add_arr's unpack for one packed sum, as a Python int."""
        return sum(table.item(s >> shift & table.size - 1) for shift, table in self._unpack_arr)

    def _add_idx(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.n == 1:
            return (a + b) % self.p
        return self._unpack_idx(self._pack[a] + self._pack[b])

    def _neg_idx(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.n == 1:
            return (-a) % self.p
        return self._unpack_idx(self._pack_p - self._pack[a])

    def _mul_idx(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    # -- structure maps ------------------------------------------------------

    def frobenius(self, a: Element, i: int) -> Element:
        """a ** (p**i); frobenius(., n) is the identity."""
        self._check(a)
        if not isinstance(i, int) or i < 0:
            raise ValueError(f"frobenius iteration count must be >= 0, got {i!r}")
        if a.index == 0:
            return a
        return self.pow(a, pow(self.p, i, self.order - 1))

    def trace_to_subfield(self, a: Element, m: int) -> Element:
        """Relative trace onto GF(p^m): sum of frobenius(a, i*m) for i < n/m."""
        self._check(a)
        if m < 1 or self.n % m:
            raise ValueError(f"trace target degree {m} does not divide {self.n}")
        acc = self.zero
        for i in range(self.n // m):
            acc = self.add(acc, self.frobenius(a, i * m))
        return acc

    def is_in_subfield(self, a: Element, m: int) -> bool:
        """True iff a lies in GF(p^m), i.e. frobenius(a, m) = a."""
        self._check(a)
        if m < 1 or self.n % m:
            raise ValueError(f"subfield degree {m} does not divide {self.n}")
        if m == self.n:
            return True
        return a.index in self._subfields[m]

    def subfield_indices(self, m: int) -> frozenset[int]:
        if m < 1 or self.n % m:
            raise ValueError(f"subfield degree {m} does not divide {self.n}")
        if m == self.n:
            return frozenset(range(self.order))
        return self._subfields[m]

    def mu_subgroup(self, d: int) -> frozenset[Element]:
        """The d-th roots of unity {x : x**d = 1}; requires d | order-1."""
        if d < 1 or (self.order - 1) % d:
            raise ValueError(f"mu order {d} does not divide {self.order - 1}")
        stride = (self.order - 1) // d
        return frozenset(Element(self, self._exp[t * stride]) for t in range(d))

    def cached(self, key, build):
        """build(), computed once per context under key and kept as long as
        the context lives."""
        try:
            return self._cache[key]
        except KeyError:
            return self._cache.setdefault(key, build())

    def bulk(self) -> _Bulk:
        return self.cached("bulk", lambda: _Bulk(self))


def make_field(p: int, n: int, cap: int = DEFAULT_SIZE_CAP) -> FieldCtx:
    """Construct GF(p^n); deterministic for fixed (p, n)."""
    return FieldCtx(p, n, cap)


def get_field(p: int, n: int, cap: int = DEFAULT_SIZE_CAP) -> FieldCtx:
    """Cached make_field, one context per GF(p^n) whatever the cap; contexts
    are immutable so sharing is safe.  A call whose p^n passes cap goes to
    make_field uncached, which refuses it before building anything."""
    if isinstance(p, int) and isinstance(n, int) and p**n > cap:
        return make_field(p, n, cap)
    return _cached_field(p, n)


@lru_cache(maxsize=None)
def _cached_field(p: int, n: int) -> FieldCtx:
    return make_field(p, n, MAX_ORDER)
