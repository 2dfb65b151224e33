"""Bridge between frobenius-difference maps and shifted-argument maps.

For a polynomial g over GF(q^m), a step 0 < k < m, a shift delta and a
coefficient c, the two companion maps are

    h(x) = g(x)^(q^k) - g(x) + c*x
    f(x) = g(x^(q^k) - x + delta) + c*x

When c lies in GF(q^l)* with l = gcd(k, m) and h permutes the field, f
permutes the field for EVERY delta, with explicit inverse

    x = c^(-1) * (alpha - g(h^(-1)(alpha^(q^k) - alpha + c*delta))).

invert_f evaluates that formula over the whole field at once, from the
field's cached shift image x^(q^k) - x and h's dense inverse, and answers
each alpha from the resulting f^(-1) table; the last table stays in one
module-level slot, so a sweep over alpha pays one bulk pass.

When additionally g has coefficients in GF(q), k = 1 and c = 1, the converse
holds as well: f permutes iff h does.  The proof mechanism is the commuting
square phi(f(x)) = h(phi(x)) with phi(x) = x^q - x + delta, which maps the
field onto the single trace fiber {y : Tr(y) = Tr(delta)}; both directions
are checkable here (prop4_check).

prop2_check and prop4_check each make one call of permcheck's
pair_verdicts, the engine verify uses too, which decides h and every delta
from one u = g^(q^k) - g; the reports read its rows (Verdicts.rows).
prop4_check's square compares two other evaluators of g on tables of its
own: h's from u (exp gathers of Frobenius), f_delta's from g's direct powers.

quadratic_form_solutions handles the side computation used by the quartic
trinomial family: the nonzero solution set of x^(2q^2) +/- x^(q^2+1) + x^2
is empty unless 3 | q, in which case it is exactly {x : x^(q^2-1) = +/-1}.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ffcore import Element, FieldCtx
from .permcheck import (BLOCK, DELTA_EXHAUSTIVE_CAP, FnSpec, GSpec, PermVerdict,
                        _eval_terms_all, _require_coeff_domain, _resolve_view,
                        build_inverse_table, compose_h, evaluate_all, pair_verdicts)

__all__ = [
    "CosetSet",
    "DELTA_SAMPLES",
    "DEFAULT_SEED",
    "Prop2Report",
    "Prop4Report",
    "QuadFormReport",
    "invert_f",
    "pick_deltas",
    "prop2_check",
    "prop4_check",
    "quadratic_form_solutions",
    "trace_coset",
]

# delta sets: exhaustive up to DELTA_EXHAUSTIVE_CAP, seeded sample beyond it
DELTA_SAMPLES = 64
DEFAULT_SEED = 1


def pick_deltas(field: FieldCtx, cap: int = DELTA_EXHAUSTIVE_CAP,
                samples: int = DELTA_SAMPLES,
                seed: int = DEFAULT_SEED) -> tuple[tuple[int, ...], bool]:
    """Delta indices to sweep, and whether they are every element: all of
    them when the field is small enough, otherwise a seeded sample (always
    containing 0 and 1), which is exhaustive only if it draws them all."""
    if field.order <= cap:
        return tuple(range(field.order)), True
    rng = random.Random(seed)
    picked = set(rng.sample(range(field.order), samples))
    picked.update((0, 1))
    return tuple(sorted(picked)), len(picked) == field.order


@dataclass(frozen=True)
class Prop2Report:
    """One-direction transfer: h permutes => f permutes for every delta."""

    h_verdict: PermVerdict
    f_results: tuple          # ((delta index, PermVerdict), ...)
    deltas_exhaustive: bool

    @property
    def f_all_permute(self) -> bool:
        return all(v.is_permutation for _, v in self.f_results)

    @property
    def implication_holds(self) -> bool:
        return (not self.h_verdict.is_permutation) or self.f_all_permute

    @property
    def failing_deltas(self) -> tuple[int, ...]:
        return tuple(d for d, v in self.f_results if not v.is_permutation)


def _pair_fields(g: GSpec, c: Element, k: int, deltas: Optional[tuple[int, ...]]) -> dict:
    """Prop2Report's fields, which Prop4Report shares, from one call of
    permcheck.pair_verdicts over deltas (pick_deltas' sweep when None)."""
    fld = g.field
    if deltas is None:
        deltas = pick_deltas(fld)[0]
    h, f = pair_verdicts(g, k, [c], deltas)
    return dict(h_verdict=h.rows(fld)[0], f_results=tuple(zip(deltas, f.rows(fld))),
                deltas_exhaustive=len(set(deltas)) == fld.order)


def prop2_check(g: GSpec, c: Element, k: int,
                deltas: Optional[tuple[int, ...]] = None) -> Prop2Report:
    """Verify the h => f transfer for the given g, c, k over a delta sweep.

    c is required to lie in GF(q^gcd(k, m))* as in the statement.  deltas,
    a tuple of delta indices, overrides pick_deltas' sweep.
    """
    return Prop2Report(**_pair_fields(g, c, k, deltas))


def _f_inverse_table(g: GSpec, c: Element, k: int, delta: Element,
                     h_inverse: np.ndarray) -> np.ndarray:
    """f's inverse over the whole field, position alpha -> f^(-1)(alpha), by
    Prop. 2's formula x = c^(-1)(alpha - g(h^(-1)(alpha^(q^k) - alpha + c*delta)))
    read off the field's cached shift image and h's dense inverse."""
    fld = g.field
    bulk = fld.bulk()
    w = bulk.add(bulk.shift_base(g.qdeg * k),
                 np.int64(fld._mul_idx(c.index, delta.index)))
    out = bulk.sub(bulk.xs, _eval_terms_all(bulk, g.terms, h_inverse.take(w)))
    return out if c.index == 1 else bulk.mul_scalar(fld.inv(c).index, out)


def _checked_h_inverse(h: FnSpec, h_inverse) -> np.ndarray:
    """The caller's h_inverse as an index array, after checking that it
    inverts h: h_inverse[h(x)] = x at every x.  With Q entries that makes h
    a bijection and every entry h's preimage, so no range check is needed."""
    inv = np.asarray(h_inverse)
    xs = h.field.bulk().xs
    if (inv.shape != xs.shape or inv.dtype.kind not in "iu"
            or not np.array_equal(inv[evaluate_all(h)], xs)):
        raise ValueError("h_inverse is not the inverse table of h")
    return inv


# The last f^(-1) table invert_f built: (g, c index, k, delta index), the
# caller's h_inverse object (None when invert_f built h's inverse itself),
# and the table.  One slot, so at most one table is alive at a time.
_F_INVERSE = None


def invert_f(g: GSpec, c: Element, k: int, delta: Element, alpha: Element,
             h_inverse: Optional[np.ndarray] = None) -> Element:
    """Preimage of alpha under f by the closed formula
    x = c^(-1)(alpha - g(h^(-1)(alpha^(q^k) - alpha + c*delta))).

    h must permute the field.  The formula is evaluated once over the whole
    field and the table kept in a single slot, keyed on (g, c, k, delta)
    and on the identity of h_inverse, so a sweep over alpha costs one bulk
    pass and then one lookup per call; the next call with another key
    replaces it.  Filling the slot builds h's dense inverse when h_inverse
    is None, and otherwise checks the supplied table against h once (a table
    that does not invert h raises ValueError).  A caller who edits
    h_inverse in place must pass a new array: the same object is not
    checked again.
    """
    global _F_INVERSE
    fld = g.field
    _resolve_view(fld, g.qdeg, k)
    _require_coeff_domain(g, c, k)
    fld._check(delta)
    fld._check(alpha)
    key = (g, c.index, k, delta.index)
    slot = _F_INVERSE
    if slot is None or slot[0] != key or slot[1] is not h_inverse:
        _F_INVERSE = None           # the old table goes before the next is built
        h = compose_h(g, c, k)
        h_inv = (build_inverse_table(h) if h_inverse is None
                 else _checked_h_inverse(h, h_inverse))
        slot = _F_INVERSE = (key, h_inverse, _f_inverse_table(g, c, k, delta, h_inv))
    return fld.element_at(int(slot[2][alpha.index]))


@dataclass(frozen=True)
class CosetSet:
    """One additive trace fiber S = {x : Tr(x) = alpha} inside GF(q^m)."""

    field: FieldCtx
    qdeg: int
    alpha: int               # trace value index (element of GF(q))
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def trace_coset(field: FieldCtx, delta: Element, qdeg: int = 1) -> CosetSet:
    """The image of x -> x^q - x + delta, q = p^qdeg, as a CosetSet.

    Computes the image directly and also as the fiber of the relative trace
    onto GF(q) above Tr(delta); the two routes must agree (x^q - x has
    kernel exactly GF(q), so its image is the trace-zero set of size
    order/q), and a mismatch raises.
    """
    field._check(delta)
    _resolve_view(field, qdeg)
    bulk = field.bulk()
    shifted = bulk.add(bulk.shift_base(qdeg), np.int64(delta.index))
    image = np.flatnonzero(np.bincount(shifted, minlength=field.order))
    tr = bulk.trace(qdeg)
    alpha = int(tr[delta.index])
    fiber = np.flatnonzero(tr == alpha)
    if not np.array_equal(image, fiber):
        raise AssertionError("shift image disagrees with its trace fiber")
    return CosetSet(field=field, qdeg=qdeg, alpha=alpha,
                    members=tuple(int(i) for i in image))


@dataclass(frozen=True)
class Prop4Report(Prop2Report):
    """Both-direction equivalence for g over GF(q), k = 1, c = 1.

    The statement quantifies over the shift: h permutes the field if and
    only if f_delta permutes it for EVERY delta.  A single delta is not
    enough for the forward direction: f_delta being bijective only forces h
    to be bijective on the one trace fiber containing the shifted image, and
    h can still fail elsewhere (g = x^2 over GF(9) gives such a delta).
    Prop2Report's fields and h => f direction come with it.
    """

    # phi o f_delta == h o phi for every swept delta, checked at the first
    # swept delta of each Tr-fiber (prop4_check carries it to the rest)
    commutes_all: bool
    fibers_stable: bool       # h maps every Tr-fiber onto GF(q) into itself

    @property
    def iff_holds(self) -> bool:
        return self.f_all_permute == self.h_verdict.is_permutation


def prop4_check(g: GSpec, deltas: Optional[tuple[int, ...]] = None) -> Prop4Report:
    """Verify (f_delta permutes for all delta) <=> (h permutes), with k = 1
    and c = 1 and g over GF(q), plus the commuting square
    phi o f_delta = h o phi through the trace fiber of each delta.  h and
    every f_delta come from one pair_verdicts call; the square compares h's
    table from u with f_delta's from g's direct powers."""
    fld = g.field
    if g.coeff_subdeg > g.qdeg or g.qdeg % g.coeff_subdeg:
        raise ValueError(
            f"g has coefficients of degree {g.coeff_subdeg}; the equivalence "
            f"needs them inside GF({fld.p}^{g.qdeg})")
    fields = _pair_fields(g, fld.one, 1, deltas)
    bulk = fld.bulk()
    tr = bulk.trace(g.qdeg)
    ho = evaluate_all(compose_h(g, fld.one, 1))
    gx = _eval_terms_all(bulk, g.terms, bulk.xs)
    # For any b, f_(d + b^q - b)(x) = f_d(x + b) - b, so the square at
    # d + b^q - b is the square at d with x shifted by b.  Those are the
    # deltas of d's trace fiber (x^q - x maps onto the trace-zero set), so
    # each fiber's first swept delta covers it: a row each, BLOCK // Q rows a block.
    swept = np.array([d for d, _ in fields["f_results"]], dtype=np.int64)
    probes = swept[np.unique(tr[swept], return_index=True)[1], None]
    shift = bulk.shift_base(g.qdeg)         # phi(x) - delta = x^q - x

    def square(d):
        phi = bulk.add(shift, d)
        return np.array_equal(bulk.add(shift.take(bulk.add(gx.take(phi), bulk.xs)), d),
                              ho.take(phi))

    per = max(1, BLOCK // fld.order)
    return Prop4Report(**fields,
                       commutes_all=all(square(probes[lo:lo + per])
                                        for lo in range(0, probes.size, per)),
                       fibers_stable=bool(np.array_equal(tr[ho], tr)))


@dataclass(frozen=True)
class QuadFormReport:
    """Nonzero solutions of x^(2q^2) + sign*x^(q^2+1) + x^2 = 0 in GF(q^4)."""

    sign: int
    solutions: frozenset
    predicted: frozenset

    @property
    def consistent(self) -> bool:
        return self.solutions == self.predicted


def quadratic_form_solutions(field: FieldCtx, qdeg: int, sign: int) -> QuadFormReport:
    """Solve the binary form directly and compare with the closed rule:
    no nonzero solutions unless 3 | q, else exactly {x : x^(q^2-1) = sign*1}."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if qdeg < 1 or field.n != 4 * qdeg:
        raise ValueError(f"need a GF(q^4) view; {qdeg} * 4 != {field.n}")
    q = field.p**qdeg
    bulk = field.bulk()
    xs = bulk.xs
    a = bulk.pow_const(xs, 2 * q * q)
    b = bulk.pow_const(xs, q * q + 1)
    d = bulk.pow_const(xs, 2)
    mid = b if sign > 0 else bulk.mul_scalar(field._neg_idx(1), b)
    vals = bulk.add(bulk.add(a, mid), d)
    sols = frozenset(int(i) for i in np.flatnonzero(vals == 0) if i)
    if q % 3:
        predicted = frozenset()
    else:
        target = 1 if sign > 0 else field._neg_idx(1)
        pw = bulk.pow_const(xs, q * q - 1)
        predicted = frozenset(int(i) for i in np.flatnonzero(pw == target) if i)
    return QuadFormReport(sign=sign, solutions=sols, predicted=predicted)
