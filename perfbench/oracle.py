"""Finite-field arithmetic independent of permlab, for checking its outputs.

Elements use permlab's public encoding: the element with coefficient tuple
(c0, ..., c_{n-1}) over GF(p) has index sum(c_i * p**i), taken modulo the
modulus a report states (constant term first).  All arithmetic goes through
sympy.polys.galoistools, so a fault in permlab's exp/log tables or bulk
kernels cannot hide here.  Maps take and return element indices.
"""

from __future__ import annotations

from sympy.polys import galoistools as gt
from sympy.polys.domains import ZZ


class GF:
    def __init__(self, p: int, modulus):
        self.p = p
        self.n = len(modulus) - 1
        self.order = p**self.n
        self.mod = gt.gf_strip([int(c) % p for c in reversed(modulus)])

    def irreducible(self) -> bool:
        """The stated modulus is monic of degree n and irreducible over GF(p)."""
        return (len(self.mod) == self.n + 1 and self.mod[0] == 1
                and gt.gf_irreducible_p(self.mod, self.p, ZZ))

    def poly(self, idx: int) -> list:
        if not 0 <= idx < self.order:
            raise ValueError(f"index {idx} outside GF({self.p}^{self.n})")
        digits = []
        for _ in range(self.n):
            idx, r = divmod(idx, self.p)
            digits.append(r)
        return gt.gf_strip(digits[::-1])

    def index(self, poly: list) -> int:
        idx = 0
        for c in poly:
            idx = idx * self.p + c
        return idx

    def add(self, a, b):
        return gt.gf_add(a, b, self.p, ZZ)

    def sub(self, a, b):
        return gt.gf_sub(a, b, self.p, ZZ)

    def mul(self, a, b):
        return gt.gf_rem(gt.gf_mul(a, b, self.p, ZZ), self.mod, self.p, ZZ)

    def pow(self, a, e: int):
        """a**e for e >= 1 (0**e = 0)."""
        return gt.gf_pow_mod(a, e, self.mod, self.p, ZZ) if a else []

    def _g(self, terms, x):
        acc = []
        for coeff, e in terms:
            term = self.poly(coeff)
            acc = self.add(acc, term if e == 0 else self.mul(term, self.pow(x, e)))
        return acc

    def trinomial(self, c: int, s: int, qk: int):
        """x -> c*x - x^s + x^(qk*s), qk = q^k."""
        def f(x: int) -> int:
            X = self.poly(x)
            val = self.sub(self.mul(self.poly(c), X), self.pow(X, s))
            return self.index(self.add(val, self.pow(X, qk * s)))
        return f

    def shift_form(self, c: int, s: int, qk: int, delta: int):
        """x -> (x^qk - x + delta)^s + c*x."""
        def f(x: int) -> int:
            X = self.poly(x)
            t = self.add(self.sub(self.pow(X, qk), X), self.poly(delta))
            return self.index(self.add(self.pow(t, s), self.mul(self.poly(c), X)))
        return f

    def companion_h(self, terms, c: int, qk: int):
        """x -> g(x)^qk - g(x) + c*x, g = sum of coeff * x^e over terms."""
        def f(x: int) -> int:
            X = self.poly(x)
            gx = self._g(terms, X)
            return self.index(self.add(self.sub(self.pow(gx, qk), gx),
                                       self.mul(self.poly(c), X)))
        return f

    def companion_f(self, terms, c: int, qk: int, delta: int):
        """x -> g(x^qk - x + delta) + c*x."""
        def f(x: int) -> int:
            X = self.poly(x)
            t = self.add(self.sub(self.pow(X, qk), X), self.poly(delta))
            return self.index(self.add(self._g(terms, t), self.mul(self.poly(c), X)))
        return f


def is_collision(fn, a: int, b: int) -> bool:
    """(a, b) is a genuine witness that fn is not injective."""
    return a != b and fn(a) == fn(b)
