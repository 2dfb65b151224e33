"""Map descriptors over a finite field and exhaustive bijectivity checks.

Every map is one side of the companion pair (g, c, k, d) over GF(q^m),
q = p^qdeg, with g a polynomial held as merged (coefficient, exponent)
terms:

  g   x -> g(x)                          exponent sums, Lemma 1
  h   x -> g(x)^(q^k) - g(x) + c*x       a trinomial is h with g = x^s
  f   x -> g(x^(q^k) - x + d) + c*x      a shift form is f with g = x^s

The Frobenius step k counts in q-units.  Exponents are stored reduced into
[1, order-1] (a positive exponent that is a multiple of order-1 reduces to
order-1, keeping 0 -> 0 intact); exponent 0 is the constant term.  With
g = x^s and s a multiple of order-1, h is pointwise c*x.

Bulk evaluation of the f side adds d to the field's cached shift image
x^(q^k) - x (ffcore's _Bulk.shift_base), so a sweep over d does not
recompute it.

The engines work in log order: position 0 is x = 0 and position 1+t is
x = gamma^t for the field generator gamma.  c*x at gamma^t is
exp[log c + t], the exp table rolled by log c, so a block of it is a
contiguous slice (_cx_block), and both sides of the pair are a log-order
table plus c*x: h = u + c*x with u = g^(q^k) - g, and f_d = G_d + c*x with
G_d(x) = g(x^(q^k) - x + d).  One kernel serves both: _hits marks the
values that each row of a table plus c*x takes, and _index_order scatters
one row plus c*x into element-index order.  Frobenius is additive, so u
is, at gamma^t, a sum over g's terms a*x^e of exp[F*L] - exp[L] with
L = log a + e*t and F = q^k (mod order-1): exp gathers only, built once
per (g, k) in fixed blocks.  h_verdicts permutes a c whose u + c*x hits
every value; only a failing c scatters its table, where is_permutation
finds the first-collision witness.  evaluate_all's h side is u plus that
scatter.

The trace-fibre lemma ties the two sides together.  Let l = gcd(k, m), c
in GF(q^l)*, phi_d(x) = x^(q^k) - x + d and Tr the relative trace of
GF(q^m) onto GF(q^l).  Then phi_d(f_d(x)) = h(phi_d(x)) + (1-c)d, and
f_d(x + a) = f_d(x) + c*a for a in GF(q^l); phi_d maps the field q^l-to-one
onto the fibre T_d = {y : Tr(y) = Tr(d)}.  So f_d sends each coset
x + GF(q^l) onto a whole coset, two cosets land on the same one exactly when
h collides on their phi_d images, and

    image deficit of f_d = order - q^l * |h(T_d)|.

Tr(h(y)) = c*Tr(y), as Tr(z^(q^k)) = Tr(z) when l | k, so h maps T_d into
the fibre above c*Tr(d), and |h(T_d)| is the number of hit values there:
one bincount of the trace over a c's hits gives every d's deficit.
f_verdicts, the f side's engine, decides f_d that way for many c of
GF(q^l)* (another c raises ValueError) and an integer array of delta
indices, with brute force as its cross-check; verify's shift forms,
transform.prop2_check and transform.prop4_check all go through _shift_rows,
and the two transform checks read h's verdict and value table off the same
u.  Brute force checks the first listed delta of each fibre, its probe: one
np.unique of the deltas' trace values finds every probe, once per call.
Only c*x depends on c, so G_d is evaluated once per probe for all c, in
blocks of at most BLOCK elements, and one _hits per (block, c) decides every
probe of the block.  The deficit is constant across a fibre, as
f_(d + b^(q^k) - b)(x) = f_d(x + b) - c*b, so the other deltas of a
failing fibre need only their witness, the first collision in index
order, which is that of the probe's table read at x + b.  It is decided
by the points up to its second element, so _first_collisions finds it on
a prefix of the field, for a block of deltas at a time, and doubles the
prefix for the deltas without a repeat there.  is_permutation takes its
witness from the same search, and every witness either engine reports by
brute force or a prefix search is evaluated afresh from Frobenius at both
its points (_confirm_witnesses).

The mu route decides h by Lemma 1 (Park-Lee 2001, Zieve 2009) where g is
canonical: GF(q^2), k odd and every term a*x^e of g with e = 1 + i(q-1).
Then h(x) = x*H(x^(q-1)) with H(z) = c + sum of a^q z^(1+qi) - a z^i, and h
permutes iff H has no root on mu_(q+1) and z*H(z)^(q-1) permutes mu_(q+1):
q+1 points per c, not q^2.  _mu_verdicts evaluates H at z_j =
gamma^(j(q-1)) as one 2-D table, a row per c, and _mu_permutes decides
every row by one bincount of j + log H(z_j) mod q+1.  h_verdicts runs it
first and keeps brute force as its cross-check: every c on fields of at
most DELTA_EXHAUSTIVE_CAP points, above that the first c and every c the
mu route fails, which also gives that c's witness; lemma1_check's
reduction side is the same kernel.

trinomial_hits finds the exponents s whose trinomial c*x - x^s + x^(q^k s)
permutes the field.  A map that repeats a value on the first B points
(B = prefix_size(order), about 4*sqrt(order)) is proven to fail, so blocks
of exponents are first evaluated on those points alone, as one 2-D table
each, and only the exponents without such a repeat get the full check
(h_verdicts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .ffcore import Element, FieldCtx

__all__ = [
    "DELTA_EXHAUSTIVE_CAP",
    "FnSpec",
    "GSpec",
    "Lemma1Result",
    "PermVerdict",
    "build_inverse_table",
    "compose_f",
    "compose_h",
    "evaluate_all",
    "f_verdicts",
    "h_verdicts",
    "is_permutation",
    "lemma1_check",
    "make_fn_exponent_sum",
    "make_gspec",
    "trinomial_hits",
]


def reduce_exponent(e: int, order: int) -> int:
    """Reduce a nonzero exponent into [1, order-1] preserving the power map."""
    if order == 2:
        return 1
    return (e - 1) % (order - 1) + 1


@dataclass(frozen=True)
class FnSpec:
    field: FieldCtx
    side: str               # "g" (g alone), "h" or "f"
    terms: tuple = ()       # g as merged ((coeff index, exponent), ...)
    c: int = 0              # coefficient index of the linear term (h, f)
    pstep: int = 0          # Frobenius iterations in p-units (= qdeg * kstep)
    delta: int = -1         # shift index (f), -1 when absent
    qdeg: int = 0           # q = p^qdeg, recorded for reporting
    kstep: int = 0          # Frobenius step in q-units, recorded for reporting


@dataclass(frozen=True)
class PermVerdict:
    is_permutation: bool
    witness: Optional[tuple[Element, Element]]
    image_deficit: int


_PERMUTES = PermVerdict(True, None, 0)


def _resolve_view(field: FieldCtx, qdeg: Optional[int], k: int = 1) -> int:
    """Validate the GF(q^m) view (q = p^qdeg, m >= 2) and the Frobenius step
    1 <= k < m; return qdeg, which defaults to half the extension degree."""
    if qdeg is None:
        if field.n % 2:
            raise ValueError("default view needs an even extension degree; pass qdeg")
        qdeg = field.n // 2
    if not isinstance(qdeg, int) or qdeg < 1 or field.n % qdeg or qdeg == field.n:
        raise ValueError(f"base degree {qdeg} must properly divide {field.n}")
    m = field.n // qdeg
    if not isinstance(k, int) or not 1 <= k < m:
        raise ValueError(f"frobenius step {k} out of range [1, {m - 1}] for GF(q^{m})")
    return qdeg


def _merge_terms(field: FieldCtx, terms) -> tuple:
    """(coefficient Element, integer exponent) pairs as ((coeff index, e), ...)
    sorted by e.  Nonzero exponents reduce into [1, order-1] (negative ones
    too), 0 is the constant term, and equal reduced exponents merge, which
    preserves the map on the field though not the formal polynomial."""
    merged: dict[int, Element] = {}
    for coeff, e in terms:
        field._check(coeff)
        if not isinstance(e, int):
            raise ValueError(f"exponent must be an integer, got {e!r}")
        e_red = 0 if e == 0 else reduce_exponent(e, field.order)
        cur = merged.get(e_red)
        merged[e_red] = coeff if cur is None else field.add(cur, coeff)
    return tuple((c.index, e) for e, c in sorted(merged.items()) if c.index)


@dataclass(frozen=True)
class GSpec:
    """Polynomial g as merged (coefficient index, exponent) terms over field,
    with the GF(q^m) view (q = p^qdeg) it will be composed under."""

    field: FieldCtx
    terms: tuple
    qdeg: int
    coeff_subdeg: int   # smallest d | n with every coefficient in GF(p^d)

    @property
    def m(self) -> int:
        return self.field.n // self.qdeg


def make_gspec(field: FieldCtx, terms, qdeg: Optional[int] = None) -> GSpec:
    """Build a GSpec from (coefficient Element, exponent >= 0) pairs; the
    exponents reduce and merge as in make_fn_exponent_sum."""
    qdeg = _resolve_view(field, qdeg)
    terms = tuple(terms)
    for _, e in terms:
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"g exponents must be integers >= 0, got {e!r}")
    tm = _merge_terms(field, terms)
    sub = next(d for d in range(1, field.n + 1) if field.n % d == 0
               and all(ci in field.subfield_indices(d) for ci, _ in tm))
    return GSpec(field=field, terms=tm, qdeg=qdeg, coeff_subdeg=sub)


def _companion(g: GSpec, side: str, c: Element, k: int, delta: int = -1) -> FnSpec:
    _resolve_view(g.field, g.qdeg, k)
    g.field._check(c)
    if c.index == 0:
        raise ValueError("linear coefficient c must be nonzero")
    return FnSpec(field=g.field, side=side, terms=g.terms, c=c.index,
                  pstep=g.qdeg * k, delta=delta, qdeg=g.qdeg, kstep=k)


def compose_h(g: GSpec, c: Element, k: int) -> FnSpec:
    """h(x) = g(x)^(q^k) - g(x) + c*x as a checkable map."""
    return _companion(g, "h", c, k)


def compose_f(g: GSpec, c: Element, k: int, delta: Element) -> FnSpec:
    """f(x) = g(x^(q^k) - x + delta) + c*x as a checkable map."""
    g.field._check(delta)
    return _companion(g, "f", c, k, delta.index)


def _trinomial_g(field: FieldCtx, s: int, qdeg: Optional[int]) -> GSpec:
    """g = x^s of a trinomial; refuses an s whose x^s is constant off 0."""
    if not isinstance(s, int) or s < 1:
        raise ValueError(f"exponent must be a positive integer, got {s!r}")
    if field.order > 2 and s % (field.order - 1) == 0:
        raise ValueError("exponent is a multiple of order-1; power term degenerates")
    return make_gspec(field, [(field.one, s)], qdeg)


def make_fn_exponent_sum(field: FieldCtx, terms) -> FnSpec:
    """x -> sum of coeff * x^e.  Negative e is reduced mod order-1; e = 0 is a
    constant term.  Terms with equal reduced exponents merge."""
    return FnSpec(field=field, side="g", terms=_merge_terms(field, terms))


def _eval_terms_all(bulk, terms, arr: np.ndarray) -> np.ndarray:
    """g over an index array.  The sum starts from the first term, and the
    power and the coefficient product are skipped when they are 1: on the
    largest fields each extra pass costs a whole-field array."""
    acc = None
    for ci, e in terms:
        if e == 0:
            term = np.full_like(arr, ci)
        else:
            term = arr if e == 1 else bulk.pow_const(arr, e)
            if ci != 1:
                term = bulk.mul_scalar(ci, term)
        acc = term if acc is None else bulk.add(acc, term)
    return np.zeros_like(arr) if acc is None else acc


def evaluate_all(fn: FnSpec) -> np.ndarray:
    """Index array of fn over the whole field, position x -> fn(x)."""
    bulk = fn.field.bulk()
    xs = bulk.xs
    if fn.side == "g":
        out = _eval_terms_all(bulk, fn.terms, xs)
        return out.copy() if out is xs else out
    if fn.side == "h":
        u = _log_order_u(fn.field, fn.terms, fn.pstep)
        return _index_order(bulk, u, bulk.log.item(fn.c))
    if fn.side != "f":
        raise ValueError(f"unknown map side {fn.side!r}")
    t = bulk.add(bulk.shift_base(fn.pstep), np.int64(fn.delta))
    return bulk.add(_eval_terms_all(bulk, fn.terms, t),
                    xs if fn.c == 1 else bulk.mul_scalar(fn.c, xs))


BLOCK = 1 << 14     # elements per temporary block: a slice of a log-order
                    # table, or a 2-D table of the prefix screen
# brute force checks every instance on fields up to this order: every delta
# of a shift form, every c of a trinomial the mu route decides
DELTA_EXHAUSTIVE_CAP = 1 << 14


def _log_order_u(field: FieldCtx, terms, pstep: int) -> np.ndarray:
    """u = g^(p^pstep) - g in log order: u[0] = u(0), u[1+t] = u(gamma^t)
    for the field generator gamma.  Frobenius is additive, so a term a*x^e
    of g adds exp[F*L] - exp[L] at gamma^t, L = log a + e*t mod order-1 and
    F = p^pstep: two exp gathers per term, no log gather, no zero masks.  A
    constant term adds u(0) everywhere.  Built BLOCK positions at a
    time, so no temporary is as large as u, and u is int32 like the tables
    (the exponent arithmetic stays int64: e*t and F*L pass 2^31).  No
    division in the loop: the ramps e*t and F*e*t mod order-1 are made once,
    each block adds its reduced offsets log a + lo*e and F times that, and
    take's wrap mode reduces the sums, which are below 2*(order-1)."""
    bulk = field.bulk()
    M = field.order - 1
    F = pow(field.p, pstep, M)
    # g(0) is the constant term's coefficient; merged terms hold at most one
    g0 = field.element_at(sum(ci for ci, e in terms if e == 0))
    u0 = field.sub(field.frobenius(g0, pstep), g0).index
    u = np.empty(field.order, dtype=np.int32)
    u[0] = u0
    ts = np.arange(min(M, BLOCK), dtype=np.int64)
    ramps = [(bulk.log.item(ci), e, ts * e % M) for ci, e in terms if e]
    if not ramps:
        u[1:] = u0
        return u
    ramps = [(lc, e, et, et * F % M) for lc, e, et in ramps]
    for lo in range(0, M, BLOCK):
        n = min(M, lo + BLOCK) - lo
        acc = None
        for lc, e, et, fet in ramps:
            off = (lc + lo * e) % M
            term = bulk.sub(bulk.exp.take(fet[:n] + F * off % M, mode="wrap"),
                            bulk.exp.take(et[:n] + off, mode="wrap"))
            acc = term if acc is None else bulk.add(acc, term)
        u[1 + lo:1 + lo + n] = bulk.add(acc, np.int64(u0)) if u0 else acc
    return u


def _cx_block(bulk, lc: int, lo: int, hi: int) -> np.ndarray:
    """c*x at gamma^lo .. gamma^(hi-1) for c = gamma^lc: c*x at gamma^t is
    exp[lc + t], so this is a contiguous slice of the exp table rolled by
    lc, wrapping at most once round it."""
    M = bulk.Q - 1
    a = (lc + lo) % M
    b = a + hi - lo
    return bulk.exp[a:b] if b <= M else np.concatenate((bulk.exp[a:], bulk.exp[:b - M]))


def _hits(bulk, T: np.ndarray, lc: int) -> np.ndarray:
    """One bool mask per row of the 2-D log-order table T: the values that
    row plus c*x takes, c = gamma^lc (c*0 = 0 at position 0).  The columns
    go in blocks of at most BLOCK elements, and row r marks its values at
    r*Q + value through an int64 index (an int32 one scatters through
    numpy's slower casting path); a single row needs no offset."""
    rows, Q = T.shape
    M = Q - 1
    hits = np.zeros((rows, Q), dtype=bool)
    flat = hits.reshape(-1)
    off = np.arange(0, rows * Q, Q, dtype=np.int64) if rows > 1 else 0
    flat[T[:, 0] + off] = True
    step = max(1, BLOCK // rows)
    for lo in range(0, M, step):
        hi = min(M, lo + step)
        v = bulk.add(T[:, 1 + lo:1 + hi], _cx_block(bulk, lc, lo, hi))
        flat[v + off[:, None] if rows > 1 else v.astype(np.int64, copy=False)] = True
    return hits


def _index_order(bulk, row: np.ndarray, lc: int) -> np.ndarray:
    """The value table of row + c*x, c = gamma^lc, in element-index order,
    for the 1-D log-order table row: its blocks scattered through exp.  The
    index and the values are int64, as a scatter that casts either is
    slower."""
    M = bulk.Q - 1
    out = np.empty(bulk.Q, dtype=np.int64)
    out[0] = row[0]
    for lo in range(0, M, BLOCK):
        hi = min(M, lo + BLOCK)
        v = bulk.add(row[1 + lo:1 + hi], _cx_block(bulk, lc, lo, hi))
        out[bulk.exp[lo:hi].astype(np.int64)] = v.astype(np.int64, copy=False)
    return out


def _mu_values(bulk, d: int, terms) -> np.ndarray:
    """H(z) = sum of a*z^e over terms, given as (log a, e) pairs, at
    z_j = gamma^(j(order-1)/d) for j = 0 .. d-1, the points of mu_d: one exp
    gather per term at log a + e*j*(order-1)/d."""
    M = bulk.Q - 1
    logz = np.arange(d, dtype=np.int64) * (M // d)
    acc = None
    for la, e in terms:
        term = bulk.exp.take((logz * (e % M) + la) % M)
        acc = term if acc is None else bulk.add(acc, term)
    return np.zeros(d, dtype=np.int64) if acc is None else acc


def _mu_permutes(bulk, d: int, r: int, H: np.ndarray) -> np.ndarray:
    """For each row of H, the values H(z_j) at the points z_j of mu_d as
    _mu_values orders them: True where z -> z^r * H(z)^((order-1)/d)
    permutes mu_d.  It does iff H has no zero on the row and j + log H(z_j)
    (in units of (order-1)/d, so mod d) is distinct over j: one offset
    bincount for all rows."""
    rows = H.shape[0]
    key = bulk.log.take(H) + r * np.arange(d)  # int64; log -1 at a zero, masked below
    key %= d
    key += d * np.arange(rows)[:, None]
    seen = np.bincount(key.ravel(), minlength=rows * d).reshape(rows, d)
    return (seen == 1).all(axis=1) & (H != 0).all(axis=1)


def _mu_verdicts(g: GSpec, k: int, c_idx) -> Optional[np.ndarray]:
    """The mu route's verdict (module docstring) on h = g^(q^k) - g + c*x
    for each c index in c_idx, or None where g is not canonical; H's rows
    are exp gathers and one add."""
    fld = g.field
    q = fld.p**g.qdeg
    if g.m != 2 or k % 2 == 0 or not all(e and (e - 1) % (q - 1) == 0 for _, e in g.terms):
        return None
    bulk = fld.bulk()
    M = fld.order - 1
    neg = 0 if fld.p == 2 else M // 2          # log(-1)
    terms = []
    for ci, e in g.terms:
        i = (e - 1) // (q - 1)
        la = bulk.log.item(ci)
        terms += [(la * q % M, 1 + q * i), ((la + neg) % M, i)]
    H = bulk.add(_mu_values(bulk, q + 1, terms)[None, :],
                 np.array(c_idx, dtype=np.int64)[:, None])
    return _mu_permutes(bulk, q + 1, 1, H)


def h_verdicts(g: GSpec, k: int, cs) -> list[tuple[PermVerdict, str]]:
    """(verdict, route) of h = g^(q^k) - g + c*x for each c in cs, in order;
    each verdict equals is_permutation(compose_h(g, c, k)).  Brute force
    ("brute") builds u = g^(q^k) - g once and marks each c's values of u +
    c*x (_hits): a c that hits every value permutes, and only a failing c
    scatters its table into index order (_index_order), where
    is_permutation finds its witness, which _confirm_witnesses evaluates
    afresh.  Where the mu route applies, brute force checks the c the
    module docstring names, the mu route alone decides the rest ("mu"), and
    a c where the two routes disagree raises RuntimeError."""
    fns = [compose_h(g, c, k) for c in cs]
    mu = _mu_verdicts(g, k, [fn.c for fn in fns])
    if mu is None or g.field.order <= DELTA_EXHAUSTIVE_CAP:
        brute = list(range(len(fns)))
    else:
        brute = [j for j in range(len(fns)) if j == 0 or not mu[j]]
    rows = [(_PERMUTES, "mu")] * len(fns)
    bulk = g.field.bulk()
    u = _log_order_u(g.field, g.terms, g.qdeg * k)
    failed = []
    for j in brute:
        fn = fns[j]
        lc = bulk.log.item(fn.c)
        verdict = (_PERMUTES if _hits(bulk, u[None, :], lc).all()
                   else is_permutation(fn, outs=_index_order(bulk, u, lc)))
        if mu is not None and mu[j] != verdict.is_permutation:
            raise RuntimeError(f"mu route and brute force disagree at step {k}, c {fn.c}: "
                               f"image deficit {verdict.image_deficit} by brute force")
        if not verdict.is_permutation:
            failed.append((fn.c, *(e.index for e in verdict.witness)))
        rows[j] = (verdict, "brute")
    if failed:
        _confirm_witnesses(g, k, *np.array(failed, dtype=np.int64).T)
    return rows


def is_permutation(fn: FnSpec, outs: Optional[np.ndarray] = None) -> PermVerdict:
    """Exhaustive scan: one bincount of the value table gives the image
    deficit (order minus the number of values hit).  Only a failing map
    pays for the witness search, and its witness is the first collision in
    element-index order (smallest second preimage, then its earliest mate),
    found by _first_collisions on prefixes of the table.  Pass outs to
    reuse an already computed value table."""
    field = fn.field
    if outs is None:
        outs = evaluate_all(fn)
    Q = field.order
    deficit = Q - int(np.count_nonzero(np.bincount(outs, minlength=Q)))
    if deficit == 0:
        return PermVerdict(True, None, 0)
    a, b = _first_collisions(lambda rows, n: outs[None, :n], 1, Q)
    return PermVerdict(False, (field.element_at(a.item(0)), field.element_at(b.item(0))), deficit)


def prefix_size(order: int) -> int:
    """Points the trinomial screen evaluates: about 4*sqrt(order), enough
    that a map with random-looking values repeats one there with
    probability about 1 - e^-8."""
    return min(order, 4 * math.isqrt(order) + 4)


def prefix_survivors(field: FieldCtx, c: Element, s_values, k: int = 1,
                     qdeg: Optional[int] = None) -> np.ndarray:
    """Boolean mask over s_values: True where c*x - x^s + x^((q^k)*s) takes
    distinct values on the points of index 0 .. prefix_size(order)-1.  A
    False entry is proven not to permute (two of those points collide).
    Blocks of exponents are evaluated as one 2-D table each, a row per s."""
    qdeg = _resolve_view(field, qdeg, k)
    field._check(c)
    if c.index == 0:
        raise ValueError("linear coefficient c must be nonzero")
    s_arr = np.asarray(s_values, dtype=np.int64)
    if (s_arr < 1).any():
        raise ValueError("exponents must be positive integers")
    bulk = field.bulk()
    Q = field.order
    B = prefix_size(Q)
    logs = bulk.log[:B]
    cx = bulk.mul_scalar(c.index, np.arange(B)).astype(np.int32)  # like pow_outer's
    qk = pow(field.p, qdeg * k, Q - 1)
    rows = max(1, BLOCK // B)
    keep = np.empty(s_arr.size, dtype=bool)
    for lo in range(0, s_arr.size, rows):
        s_blk = s_arr[lo:lo + rows]
        xs = bulk.pow_outer(logs, s_blk)
        h = bulk.add(bulk.sub(bulk.pow_outer(logs, s_blk * qk), xs), cx)
        h.sort(axis=1)
        keep[lo:lo + rows] = ~(h[:, 1:] == h[:, :-1]).any(axis=1)
    return keep


def trinomial_hits(field: FieldCtx, c: Element, s_values, k: int = 1,
                   qdeg: Optional[int] = None) -> tuple[list[int], int]:
    """The s in s_values (in their order) whose trinomial
    c*x - x^s + x^((q^k)*s) permutes the field, and how many full checks
    that took.  Exact: prefix_survivors drops the s whose map collides on
    the prefix, and h_verdicts decides every survivor."""
    s_arr = np.asarray(s_values, dtype=np.int64)
    survivors = s_arr[prefix_survivors(field, c, s_arr, k, qdeg)].tolist()
    hits = [s for s in survivors if h_verdicts(
        _trinomial_g(field, s, qdeg), k, [c])[0][0].is_permutation]
    return hits, len(survivors)


def _require_coeff_domain(g: GSpec, c: Element, k: int) -> None:
    """Refuse a c outside GF(q^l), l = gcd(k, m): the trace-fibre lemma and
    the transfer between h and f (Prop. 2) need c there."""
    ell = math.gcd(k, g.m)
    if not g.field.is_in_subfield(c, g.qdeg * ell):
        raise ValueError(
            f"coefficient must lie in GF({g.field.p}^{g.qdeg * ell}) "
            f"(= GF(q^gcd(k,m))), got index {c.index}")


def _trace_deficits(g: GSpec, c: Element, k: int, hits: np.ndarray,
                    delta_idx: np.ndarray) -> np.ndarray:
    """Image deficit of f_d = g(x^(q^k) - x + d) + c*x at each d in
    delta_idx, from the mask hits of the values h = compose_h(g, c, k)
    takes (the lemma in the module docstring): h maps the trace fibre of d
    into the one above c*Tr(d).  A c outside GF(q^l), l = gcd(k, m), where
    the lemma does not apply, raises ValueError."""
    _require_coeff_domain(g, c, k)
    base = g.qdeg * math.gcd(k, g.m)
    fld = g.field
    bulk = fld.bulk()
    tr = bulk.trace(base)
    distinct = np.bincount(tr[hits], minlength=fld.order)    # |h(T)| per trace
    return fld.order - fld.p**base * distinct[bulk.mul_scalar(c.index, tr[delta_idx])]


def _table_collisions(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) per row of the 2-D value table vals, by is_permutation's rule:
    b is the smallest column whose value an earlier column holds and a is
    the first column holding it; b = vals.shape[1], and a is meaningless,
    where a row repeats no value.  One sort of value * 2^w + column, with
    2^w >= n columns, ranks each row by value, then column, so every column
    after the first of its value follows an equal value; shifts and masks
    split the keys without a division.  The keys are int64: value * 2^w
    passes 2^31 on the largest fields."""
    rows, n = vals.shape
    w = (n - 1).bit_length()
    key = np.left_shift(vals, w, dtype=np.int64)
    key |= np.arange(n)
    key.sort(axis=1)
    col = key[:, 1:] & ((1 << w) - 1)
    key >>= w
    b = np.where(key[:, 1:] == key[:, :-1], col, n).min(axis=1, initial=n)
    r = np.arange(rows)
    a = (vals == vals[r, np.minimum(b, n - 1), None]).argmax(axis=1)
    return a, b


def _first_collisions(rows_at, count: int, Q: int) -> tuple[np.ndarray, np.ndarray]:
    """The first collision (a, b) in index order of each of count value
    tables over Q points: b is the smallest point whose value an earlier
    point holds, and a the first point holding it; b = Q where a table
    takes no value twice.  rows_at(rows, n) gives the tables of the int64
    index array rows on the points 0 .. n-1 as one 2-D array.  A collision
    is decided by the points up to b, so the tables are read on their first
    n = prefix_size(Q) points, in blocks of at most BLOCK elements, and the
    rows without a repeat there are read again with n doubled, up to Q."""
    a = np.zeros(count, dtype=np.int64)
    b = np.full(count, Q, dtype=np.int64)
    todo = np.arange(count)
    n = prefix_size(Q)
    while todo.size:
        step = max(1, BLOCK // n)
        for lo in range(0, todo.size, step):
            rows = todo[lo:lo + step]
            a[rows], b[rows] = _table_collisions(rows_at(rows, n))
        if n == Q:
            break
        todo = todo[b[todo] == n]
        n = min(Q, 2 * n)
    return a, b


def _delta_array(fld: FieldCtx, delta_idx) -> np.ndarray:
    """delta_idx, an integer sequence or array, as int64 indices of fld."""
    delta_idx = np.asarray(delta_idx, dtype=np.int64)
    if delta_idx.size and not 0 <= delta_idx.min() <= delta_idx.max() < fld.order:
        raise ValueError(f"delta indices must lie in [0, {fld.order})")
    return delta_idx


def _shift_preimage(bulk, pstep: int) -> np.ndarray:
    """pre[y] = an x with x^(p^pstep) - x = y, for every y in that shift's
    image (0 elsewhere); int32 like the tables, built once per context and
    read only."""
    def build():
        pre = np.zeros(bulk.Q, dtype=np.int32)
        pre[bulk.shift_base(pstep)] = bulk.xs
        pre.flags.writeable = False
        return pre
    return bulk.field.cached(("shift_preimage", pstep), build)


def _g_rows(bulk, terms, shift_log: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """G_d = g(x^(q^k) - x + d) in log order, one row per d in the int64
    array deltas, given x^(q^k) - x in log order as shift_log."""
    return _eval_terms_all(bulk, terms, bulk.add(shift_log, deltas[:, None]))


def _translate_witnesses(g: GSpec, k: int, c_idx: int, probe: int, table: np.ndarray,
                         ds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first collision (a, b) in index order of f_d = g(x^(q^k) - x + d)
    + c*x at each delta index d in the int64 array ds, all in the trace
    fibre of the delta probe, given probe's value table in index order.
    f_(probe + phi(b))(x) = f_probe(x + b) - c*b, phi(b) = b^(q^k) - b, so
    f_d's table is table[x + b] less a constant, for b = phi^-1(d - probe):
    _first_collisions reads those translates on prefixes.  A translate that
    takes no value twice raises RuntimeError: the fibre it was asked of
    fails."""
    bulk = g.field.bulk()
    Q = bulk.Q
    off = _shift_preimage(bulk, g.qdeg * k)[bulk.sub(ds, np.int64(probe))]
    xs = bulk.xs
    a, b = _first_collisions(lambda rows, n: table[bulk.add(xs[:n], off[rows, None])],
                             ds.size, Q)
    missing = np.flatnonzero(b == Q)
    if missing.size:
        raise RuntimeError(
            f"fibre route and brute force disagree at step {k}, c {c_idx}, "
            f"delta {ds[missing[0]]}: f_d takes no value twice")
    return a, b


def _confirm_witnesses(g: GSpec, k: int, c_idx: np.ndarray, a: np.ndarray, b: np.ndarray,
                       d_idx: Optional[np.ndarray] = None) -> None:
    """Evaluate the map directly at both points of each witness (a, b) of
    the rows given as parallel int64 arrays: f_d = g(x^(q^k) - x + d) + c*x
    for the (c, d) rows, or h = g^(q^k) - g + c*x for the c rows when d_idx
    is None.  One vectorized pass from Frobenius, which reads no value
    table; a pair that is not a collision of two points raises
    RuntimeError."""
    bulk = g.field.bulk()
    pstep = g.qdeg * k
    x = np.stack((a, b))        # the rows broadcast against both points
    if d_idx is None:
        gx = _eval_terms_all(bulk, g.terms, x)
        y = bulk.sub(bulk.frob(gx, pstep), gx)
    else:
        y = _eval_terms_all(bulk, g.terms, bulk.add(bulk.sub(bulk.frob(x, pstep), x), d_idx))
    fa, fb = bulk.add(y, bulk.mul(c_idx, x))
    bad = np.flatnonzero((fa != fb) | (a == b))
    if bad.size:
        j = bad[0]
        at, name = ("", "h") if d_idx is None else (f", delta {d_idx[j]}", "f_d")
        raise RuntimeError(
            f"witness check failed at step {k}, c {c_idx[j]}{at}: "
            f"{name}({a[j]}) = {fa[j]}, {name}({b[j]}) = {fb[j]}")


def f_verdicts(g: GSpec, k: int, cs, delta_idx) -> list[tuple[PermVerdict, str]]:
    """(verdict, route) of f_d = g(x^(q^k) - x + d) + c*x for each c in cs
    and each delta index d in delta_idx (an integer sequence or array),
    c-major; each verdict equals is_permutation(compose_f(g, c, k, d)).
    Every c must lie in GF(q^l)*, l = gcd(k, m), where the trace-fibre lemma
    holds; another c raises ValueError (compose_f with is_permutation
    decides a single f_d at any c).  u = g^(q^k) - g is built once, and
    _shift_rows decides the deltas from it."""
    return _shift_rows(g, k, list(cs), _delta_array(g.field, delta_idx),
                       _log_order_u(g.field, g.terms, g.qdeg * k))


def _shift_rows(g: GSpec, k: int, cs: list, delta_idx: np.ndarray, u: np.ndarray,
                on_probe=None) -> list[tuple[PermVerdict, str]]:
    """f_verdicts' (verdict, route) rows, c-major, for the int64 delta
    indices delta_idx, given u = g^(q^k) - g in log order.

    The first delta of each trace fibre, in the order given, is its probe,
    and brute force ("brute") decides the probes.  G_d = g(x^(q^k) - x + d)
    is the same for every c, so it is evaluated once per probe, in log order
    and in blocks of at most BLOCK elements (one row when the field is
    larger), and _hits marks each c's values of a block's rows at once.
    The rest of a fibre has its probe's deficit, by the translate identity:
    the fibre route ("fibre") decides them when it is 0, and when it is not
    ("prefix") _translate_witnesses finds their witnesses in the probe's
    table.  Only a failing probe, or one on_probe asks for, is scattered
    into index order (_index_order), one table at a time;
    on_probe(d index, f_d's value table) is called with each probe.  Each
    c's fibre deficits (_trace_deficits, from the hits of u + c*x) must
    equal brute force's, or RuntimeError is raised, and _confirm_witnesses
    checks every witness reported.  A c outside GF(q^l), l = gcd(k, m),
    raises ValueError."""
    c_idx = [compose_h(g, c, k).c for c in cs]
    for c in cs:
        _require_coeff_domain(g, c, k)
    if not c_idx:
        return []
    fld = g.field
    bulk = fld.bulk()
    Q = fld.order
    lcs = [bulk.log.item(c) for c in c_idx]
    _, first, which = np.unique(bulk.trace(g.qdeg * math.gcd(k, g.m))[delta_idx],
                                return_index=True, return_inverse=True)
    order = np.argsort(which, kind="stable")        # positions, fibre by fibre
    cuts = np.concatenate(([0], np.cumsum(np.bincount(which))))
    probes = np.sort(first)     # positions, in the order given
    shift_log = np.zeros(Q, dtype=np.int32)     # x^(q^k) - x in log order
    shift_log[1:] = bulk.shift_base(g.qdeg * k)[bulk.exp]
    deficit = np.zeros((len(cs), first.size), dtype=np.int64)    # per c and fibre
    found = [[] for _ in cs]    # (probe, fibre positions, a, b) per failing fibre
    per = max(1, BLOCK // Q)
    for lo in range(0, probes.size, per):
        blk = probes[lo:lo + per]
        G = _g_rows(bulk, g.terms, shift_log, delta_idx[blk])
        for ci, lc in enumerate(lcs):
            deficit[ci, which[blk]] = dfc = Q - np.count_nonzero(_hits(bulk, G, lc), axis=1)
            for j in range(blk.size) if on_probe else np.flatnonzero(dfc):
                p = blk.item(j)
                table = _index_order(bulk, G[j], lc)
                if on_probe:
                    on_probe(delta_idx.item(p), table)
                if dfc[j]:
                    mem = order[cuts[which[p]]:cuts[which[p] + 1]]
                    found[ci].append((p, mem, *_translate_witnesses(
                        g, k, c_idx[ci], delta_idx.item(p), table, delta_idx[mem])))
                del table           # one index-order table alive at a time
        del G                       # before the next block's
    del shift_log
    if any(found):
        cat = [np.concatenate(col) for col in zip(*(
            (np.full(m.size, c), a, b, delta_idx[m])
            for c, fc in zip(c_idx, found) for _, m, a, b in fc))]
        _confirm_witnesses(g, k, *cat)
    el = lru_cache(maxsize=None)(fld.element_at)    # witness points recur
    fails = {}                  # one PermVerdict per (a, b, deficit)
    permuting = [(_PERMUTES, "fibre")] * delta_idx.size
    for j in probes.tolist():
        permuting[j] = (_PERMUTES, "brute")
    out = []
    for ci, c in enumerate(cs):
        fibre = _trace_deficits(g, c, k, _hits(bulk, u[None, :], lcs[ci])[0], delta_idx)
        brute = deficit[ci, which]      # each delta has its probe's: the translate identity
        bad = np.flatnonzero(fibre != brute)
        if bad.size:
            j = bad[0]
            raise RuntimeError(
                f"fibre route and brute force disagree at step {k}, "
                f"c {c_idx[ci]}, delta {delta_idx[j]}: image deficit {fibre[j]} "
                f"vs {brute[j]}")
        rows_c = permuting.copy()
        for p, mem, a, b in found[ci]:
            dp = brute.item(p)
            for j, x, y in zip(mem.tolist(), a.tolist(), b.tolist()):
                v = fails.get((x, y, dp))
                if v is None:
                    v = fails[x, y, dp] = PermVerdict(False, (el(x), el(y)), dp)
                rows_c[j] = (v, "brute" if j == p else "prefix")
        out += rows_c
    return out


def _pair_verdicts(g: GSpec, c: Element, k: int, delta_idx, on_probe=None):
    """(h's verdict, h's value table ho in index order, f_verdicts(g, k,
    [c], delta_idx)) from one u = g^(q^k) - g: both sides of the companion
    pair.  h's witness is confirmed as h_verdicts confirms it, and
    on_probe(ho, d index, f_d's value table) is called with each probe
    _shift_rows decides."""
    delta_idx = _delta_array(g.field, delta_idx)
    fn = compose_h(g, c, k)
    bulk = g.field.bulk()
    u = _log_order_u(g.field, g.terms, fn.pstep)
    ho = _index_order(bulk, u, bulk.log.item(fn.c))
    h_v = is_permutation(fn, outs=ho)
    if not h_v.is_permutation:
        _confirm_witnesses(g, k, *np.array([[fn.c, *(e.index for e in h_v.witness)]]).T)
    rows = _shift_rows(g, k, [c], delta_idx, u, on_probe and (lambda i, fo: on_probe(ho, i, fo)))
    return h_v, ho, rows


def build_inverse_table(fn: FnSpec) -> np.ndarray:
    """Dense inverse lookup: table[fn(x)] = x.  Raises if fn is not bijective."""
    outs = evaluate_all(fn)
    Q = fn.field.order
    inv = np.full(Q, -1, dtype=np.int64)
    inv[outs] = np.arange(Q, dtype=np.int64)
    if (inv < 0).any():
        raise ValueError("map is not a permutation; inverse table undefined")
    return inv


@dataclass(frozen=True)
class Lemma1Result:
    """Multiplicative-coset reduction of x^r * h(x^((Q-1)/d)) over GF(Q)."""

    gcd_ok: bool
    mu_permuted: bool
    brute_is_permutation: bool
    assembled: FnSpec

    @property
    def reduction_verdict(self) -> bool:
        return self.gcd_ok and self.mu_permuted

    @property
    def consistent(self) -> bool:
        return self.reduction_verdict == self.brute_is_permutation


def lemma1_assemble(field: FieldCtx, r: int, h_terms, d: int) -> FnSpec:
    """Expand x^r * h(x^((Q-1)/d)) into an exponent sum over GF(Q)."""
    Q = field.order
    e = (Q - 1) // d
    out = []
    for coeff, he in h_terms:
        he_red = 0 if he == 0 else reduce_exponent(he, Q)
        out.append((coeff, r + he_red * e))
    return make_fn_exponent_sum(field, out)


def lemma1_check(field: FieldCtx, r: int, h_terms, d: int) -> Lemma1Result:
    """Check both sides of the coset reduction.

    gcd_ok:      gcd(r, (Q-1)/d) = 1
    mu_permuted: x -> x^r * h(x)^((Q-1)/d) maps mu_d onto mu_d, decided by
                 the mu-route kernel (_mu_values, _mu_permutes)
    and the brute-force verdict of the assembled full-field map, so callers
    can confirm the two routes agree.
    """
    Q = field.order
    if d < 1 or (Q - 1) % d:
        raise ValueError(f"d = {d} does not divide {Q - 1}")
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"r must be a positive integer, got {r!r}")
    gcd_ok = math.gcd(r, (Q - 1) // d) == 1
    bulk = field.bulk()
    H = _mu_values(bulk, d, [(bulk.log.item(ci), e) for ci, e in _merge_terms(field, h_terms)])
    mu_permuted = bool(_mu_permutes(bulk, d, r, H[None, :])[0])
    assembled = lemma1_assemble(field, r, h_terms, d)
    brute = is_permutation(assembled)
    return Lemma1Result(gcd_ok, mu_permuted, brute.is_permutation, assembled)
