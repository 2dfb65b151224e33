"""Scalar and formula oracles the tests check the bulk engines against.

The scalar evaluator reads a map one point at a time through Element
arithmetic: no exp gathers, no log order, no blocks.  make_fn_trinomial and
make_fn_delta build the paper's two map shapes as FnSpec objects for it.
log_order_u_by_division is the h pass's u built with two % per term and
block, the formula the divide-free build replaced.  first_collision is the
whole-table witness search that the prefix search replaced.
"""

from typing import Optional

import numpy as np

from permlab.ffcore import Element, FieldCtx
from permlab.permcheck import (BLOCK, FnSpec, _trinomial_g, compose_f, compose_h,
                               make_gspec)


def make_fn_trinomial(field: FieldCtx, c: Element, s: int, k: int = 1,
                      qdeg: Optional[int] = None) -> FnSpec:
    """x -> c*x - x^s + x^((q^k)*s) over GF(q^m), q = p^qdeg: the h side of
    g = x^s."""
    return compose_h(_trinomial_g(field, s, qdeg), c, k)


def make_fn_delta(field: FieldCtx, c: Element, s: int, k: int, delta: Element,
                  qdeg: Optional[int] = None) -> FnSpec:
    """x -> (x^(q^k) - x + delta)^s + c*x over GF(q^m), q = p^qdeg: the f
    side of g = x^s."""
    if not isinstance(s, int) or s < 1:
        raise ValueError(f"exponent must be a positive integer, got {s!r}")
    return compose_f(make_gspec(field, [(field.one, s)], qdeg), c, k, delta)


def eval_terms(field: FieldCtx, terms, x: Element) -> Element:
    """g(x) for g as merged (coefficient index, exponent) terms."""
    acc = field.zero
    for ci, e in terms:
        coeff = field.element_at(ci)
        if e == 0:
            acc = field.add(acc, coeff)
        else:
            acc = field.add(acc, field.mul(coeff, field.pow(x, e)))
    return acc


def evaluate(fn: FnSpec, x: Element) -> Element:
    """fn(x) by scalar field operations."""
    field = fn.field
    field._check(x)
    if fn.side == "g":
        return eval_terms(field, fn.terms, x)
    cx = field.mul(field.element_at(fn.c), x)
    if fn.side == "h":
        gx = eval_terms(field, fn.terms, x)
        return field.add(field.sub(field.frobenius(gx, fn.pstep), gx), cx)
    if fn.side == "f":
        t = field.add(field.sub(field.frobenius(x, fn.pstep), x), field.element_at(fn.delta))
        return field.add(eval_terms(field, fn.terms, t), cx)
    raise ValueError(f"unknown map side {fn.side!r}")


def log_order_u_by_division(field: FieldCtx, terms, pstep: int) -> np.ndarray:
    """permcheck._log_order_u by its formula read literally: per block and
    term, L = (log a + e*t) mod (order-1) and F*L mod (order-1) by %."""
    bulk = field.bulk()
    M = field.order - 1
    F = pow(field.p, pstep, M)
    g0 = field.element_at(sum(ci for ci, e in terms if e == 0))
    u0 = field.sub(field.frobenius(g0, pstep), g0).index
    u = np.empty(field.order, dtype=np.int32)
    u[0] = u0
    powers = [(bulk.log.item(ci), e % M) for ci, e in terms if e]
    if not powers:
        u[1:] = u0
        return u
    ts = np.arange(min(M, BLOCK), dtype=np.int64)
    for lo in range(0, M, BLOCK):
        hi = min(M, lo + BLOCK)
        acc = None
        for lc, e in powers:
            L = ts[:hi - lo] * e
            L += (lc + lo * e) % M
            L %= M
            gx = bulk.exp.take(L)
            L *= F
            L %= M
            term = bulk.sub(bulk.exp.take(L), gx)
            acc = term if acc is None else bulk.add(acc, term)
        u[1 + lo:1 + hi] = bulk.add(acc, np.int64(u0)) if u0 else acc
    return u


def first_collision(outs: np.ndarray) -> Optional[tuple[int, int]]:
    """(a, b) for the value table outs over all Q points: b is the smallest
    point whose value an earlier point holds, a the first point holding it;
    None where outs takes no value twice.  One np.minimum.at pass records
    each value's first point over the whole table."""
    Q = outs.size
    idx = np.arange(Q, dtype=np.int64)
    first = np.full(Q, Q, dtype=np.int64)
    np.minimum.at(first, outs, idx)
    late = np.flatnonzero(first[outs] != idx)
    if not late.size:
        return None
    b = int(late[0])
    return int(first[outs[b]]), b
