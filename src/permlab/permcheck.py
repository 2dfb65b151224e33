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

Bulk evaluation of the h side works in log order: position 0 is x = 0 and
position 1+t is x = gamma^t for the field generator gamma.  Frobenius is
additive, so u = g^(q^k) - g is, at gamma^t, a sum over g's terms a*x^e of
exp[F*L] - exp[L] with L = log a + e*t and F = q^k (mod order-1): exp
gathers only.  c*x at gamma^t is exp[log c + t], the exp table rolled by
log c, a contiguous copy.  Only c*x depends on c, so _h_passes builds u
once per (g, k), in fixed blocks, and for every c marks the values u + c*x
hits.  Both engines read that one pass.  h_verdicts permutes a c that hits
every value; only a failing c scatters its table into element-index order,
where is_permutation finds the first-collision witness.  evaluate_all's h
side is the same evaluation plus that scatter.

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
f_verdicts, the f side's engine, decides f_d that way for many c and an
integer array of delta indices, with brute force as its cross-check;
verify's shift forms, transform.prop2_check and transform.prop4_check all
go through it, and the two transform checks read h's verdict and value
table off the same pass.  Brute force checks the first listed delta of
each fibre, its probe: one np.unique of the deltas' trace values finds
every probe.  The deficit is constant across a fibre, as
f_(d + b^(q^k) - b)(x) = f_d(x + b) - c*b, so the other deltas of a
failing fibre need only their witness, the first collision in index
order.  It is decided by the points up to its second element, so
_first_collisions finds it on a prefix of the field, for a block of
deltas at a time, and doubles the prefix for the deltas without a repeat
there.  is_permutation takes its witness from the same search.

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
        return _index_order_h(bulk, _log_order_u(fn.field, fn.terms, fn.pstep), fn.c)
    if fn.side != "f":
        raise ValueError(f"unknown map side {fn.side!r}")
    return _f_table(bulk, fn.terms, fn.pstep, fn.c, np.array([fn.delta]), bulk.Q)[0]


def _f_table(bulk, terms, pstep: int, c_idx: int, deltas: np.ndarray,
             n: int) -> np.ndarray:
    """f_d = g(x^(q^k) - x + d) + c*x (q^k = p^pstep) on the points of index
    0 .. n-1, one row per d in the int64 array deltas: the whole field for
    evaluate_all, a prefix for the witness search."""
    t = bulk.add(bulk.shift_base(pstep)[:n], deltas[:, None])
    out = _eval_terms_all(bulk, terms, t)
    del t
    xs = np.arange(n, dtype=np.int64)
    return bulk.add(out, xs if c_idx == 1 else bulk.mul_scalar(c_idx, xs))


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


def _h_blocks(bulk, u: np.ndarray, c_idx: int):
    """(lo, hi, h at gamma^lo .. gamma^(hi-1)) for h = u + c*x, a block at a
    time.  c*x at gamma^t is exp[log c + t]: a contiguous slice of exp,
    wrapping once round the table.  Each block is int64: an int32 index
    array scatters through numpy's slower casting path."""
    M = bulk.Q - 1
    lc = bulk.log.item(c_idx)
    for lo in range(0, M, BLOCK):
        hi = min(M, lo + BLOCK)
        a = (lc + lo) % M
        b = a + hi - lo
        cx = bulk.exp[a:b] if b <= M else np.concatenate((bulk.exp[a:], bulk.exp[:b - M]))
        yield lo, hi, bulk.add(u[1 + lo:1 + hi], cx).astype(np.int64, copy=False)


def _index_order_h(bulk, u: np.ndarray, c_idx: int) -> np.ndarray:
    """The value table of h = u + c*x in element-index order: the log-order
    blocks scattered through exp, and h(0) = u(0)."""
    outs = np.empty(bulk.Q, dtype=np.int64)
    outs[0] = u[0]
    for lo, hi, h in _h_blocks(bulk, u, c_idx):
        outs[bulk.exp[lo:hi].astype(np.int64)] = h
    return outs


def _h_passes(g: GSpec, k: int, cs):
    """For each c in cs, in order: (compose_h(g, c, k), u, hits).
    u = g^(q^k) - g is built once in log order (_log_order_u), each c adds
    its c*x block by block, and hits marks the values h = u + c*x takes.
    hits is one buffer refilled for each c, valid until the next item, so a
    single mask is ever allocated."""
    fns = [compose_h(g, c, k) for c in cs]
    bulk = g.field.bulk()
    u = _log_order_u(g.field, g.terms, g.qdeg * k)
    hits = np.empty(bulk.Q, dtype=bool)
    for fn in fns:
        hits.fill(False)
        hits[u[0]] = True
        for _, _, h in _h_blocks(bulk, u, fn.c):
            hits[h] = True
        yield fn, u, hits


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
    ("brute") reads it off one _h_passes pass: a c that hits every value
    permutes, and only a failing c scatters its table into index order,
    where is_permutation finds its witness.  Where the mu route applies,
    brute force checks the c the module docstring names, the mu route alone
    decides the rest ("mu"), and a c where the two routes disagree raises
    RuntimeError."""
    cs = list(cs)
    mu = _mu_verdicts(g, k, [compose_h(g, c, k).c for c in cs])
    if mu is None or g.field.order <= DELTA_EXHAUSTIVE_CAP:
        brute = list(range(len(cs)))
    else:
        brute = [j for j in range(len(cs)) if j == 0 or not mu[j]]
    rows = [(_PERMUTES, "mu")] * len(cs)
    for j, (fn, u, hits) in zip(brute, _h_passes(g, k, [cs[j] for j in brute])):
        verdict = (_PERMUTES if np.count_nonzero(hits) == hits.size
                   else is_permutation(fn, outs=_index_order_h(fn.field.bulk(), u, fn.c)))
        if mu is not None and mu[j] != verdict.is_permutation:
            raise RuntimeError(f"mu route and brute force disagree at step {k}, c {fn.c}: "
                               f"image deficit {verdict.image_deficit} by brute force")
        rows[j] = (verdict, "brute")
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


def _trace_deficits(g: GSpec, c: Element, k: int, hits: np.ndarray,
                    delta_idx: np.ndarray) -> Optional[np.ndarray]:
    """Image deficit of f_d = g(x^(q^k) - x + d) + c*x at each d in
    delta_idx, from the mask hits of the values h = compose_h(g, c, k)
    takes (the lemma in the module docstring): h maps the trace fibre of d
    into the one above c*Tr(d).  None when c is not in GF(q^l),
    l = gcd(k, m), where the lemma does not apply."""
    base = g.qdeg * math.gcd(k, g.m)
    fld = g.field
    if not fld.is_in_subfield(c, base):
        return None
    bulk = fld.bulk()
    tr = bulk.trace(base)
    distinct = np.bincount(tr[hits], minlength=fld.order)    # |h(T)| per trace
    return fld.order - fld.p**base * distinct[bulk.mul_scalar(c.index, tr[delta_idx])]


def _table_collisions(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) per row of the 2-D value table vals, by is_permutation's rule:
    b is the smallest column whose value an earlier column holds and a is
    the first column holding it; b = vals.shape[1], and a is meaningless,
    where a row repeats no value.  One sort of value * n + column ranks each
    row by value, then column, so every column after the first of its
    value follows an equal value.  The keys are int64: value * n passes
    2^31 on the largest fields."""
    rows, n = vals.shape
    key = np.multiply(vals, n, dtype=np.int64)
    key += np.arange(n)
    key.sort(axis=1)
    val, col = np.divmod(key, n)
    b = np.where(val[:, 1:] == val[:, :-1], col[:, 1:], n).min(axis=1, initial=n)
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


def _prefix_witnesses(g: GSpec, c: Element, k: int,
                      delta_idx: np.ndarray) -> list[tuple[Element, Element]]:
    """The first-collision witness of f_d = g(x^(q^k) - x + d) + c*x at each
    d in delta_idx, equal to is_permutation(compose_f(g, c, k, d)).witness,
    from _first_collisions on prefix tables of f.  Only failing f_d have
    one: an f_d that takes no value twice raises RuntimeError, as the fibre
    route said it fails."""
    fld = g.field
    bulk = fld.bulk()
    a, b = _first_collisions(
        lambda rows, n: _f_table(bulk, g.terms, g.qdeg * k, c.index, delta_idx[rows], n),
        delta_idx.size, fld.order)
    missing = np.flatnonzero(b == fld.order)
    if missing.size:
        raise RuntimeError(
            f"fibre route and brute force disagree at step {k}, c {c.index}, "
            f"delta {delta_idx[missing[0]]}: f_d takes no value twice")
    el = fld.element_at
    return [(el(i), el(j)) for i, j in zip(a.tolist(), b.tolist())]


def f_verdicts(g: GSpec, k: int, cs, delta_idx) -> list[tuple[PermVerdict, str]]:
    """(verdict, route) of f_d = g(x^(q^k) - x + d) + c*x for each c in cs
    and each delta index d in delta_idx (an integer sequence or array),
    c-major; each verdict equals is_permutation(compose_f(g, c, k, d)).  One
    _h_passes pass gives, per c, every delta's image deficit
    (_trace_deficits), and _f_rows decides the deltas from it."""
    delta_idx = np.asarray(delta_idx, dtype=np.int64)
    return [row for c, (_, _, hits) in zip(cs, _h_passes(g, k, cs))
            for row in _f_rows(g, c, k, delta_idx, hits)]


def _f_rows(g: GSpec, c: Element, k: int, delta_idx: np.ndarray,
            hits: np.ndarray, on_probe=None) -> list[tuple[PermVerdict, str]]:
    """f_verdicts' (verdict, route) rows for one c and the int64 delta
    indices delta_idx, given the mask hits of the values h takes.

    The first delta of each trace fibre, in the order given, is its probe.
    Brute force ("brute") checks, in order, the probes and every delta
    whose deficit differs from its probe's; a deficit that differs from
    brute force's raises RuntimeError.  The rest of a fibre has its probe's
    deficit, by the translate identity: the fibre route ("fibre") decides
    them when it is 0, and when it is not ("prefix") the deficit stands and
    _prefix_witnesses finds the witnesses, all of the c's at once.  With c
    outside GF(q^l) every delta is brute-forced.  on_probe(d index, f_d's
    value table) is called with each probe's table before the next is
    made."""
    fld = g.field
    if delta_idx.size and not 0 <= delta_idx.min() <= delta_idx.max() < fld.order:
        raise ValueError(f"delta indices must lie in [0, {fld.order})")
    fibre = _trace_deficits(g, c, k, hits, delta_idx)
    probe = np.zeros(delta_idx.size, dtype=bool)
    if fibre is None:
        brute = ~probe
    else:
        tr = fld.bulk().trace(g.qdeg * math.gcd(k, g.m))
        _, first, which = np.unique(tr[delta_idx], return_index=True, return_inverse=True)
        probe[first] = True
        brute = probe | (fibre != fibre[first][which])
    rows = [(_PERMUTES, "fibre")] * delta_idx.size
    for j in np.flatnonzero(brute).tolist():
        i = delta_idx.item(j)
        fd = compose_f(g, c, k, fld.element_at(i))
        outs = evaluate_all(fd)
        verdict = is_permutation(fd, outs=outs)
        rows[j] = (verdict, "brute")
        if fibre is not None and verdict.image_deficit != fibre.item(j):
            raise RuntimeError(
                f"fibre route and brute force disagree at step {k}, "
                f"c {c.index}, delta {i}: image deficit {fibre.item(j)} "
                f"vs {verdict.image_deficit}")
        if probe.item(j) and on_probe is not None:
            on_probe(i, outs)
        del outs            # one f_d table alive at a time
    if fibre is not None:
        prefix = np.flatnonzero(~brute & (fibre != 0))
        for j, w in zip(prefix.tolist(), _prefix_witnesses(g, c, k, delta_idx[prefix])):
            rows[j] = (PermVerdict(False, w, fibre.item(j)), "prefix")
    return rows


def _pair_verdicts(g: GSpec, c: Element, k: int, delta_idx, on_probe=None):
    """(h's verdict, h's value table ho in index order, f_verdicts(g, k,
    [c], delta_idx)) from one _h_passes pass: both sides of the companion
    pair from one u.  on_probe(ho, d index, f_d's value table) is called
    with each probe _f_rows makes."""
    (fn, u, hits), = _h_passes(g, k, [c])
    ho = _index_order_h(fn.field.bulk(), u, fn.c)
    rows = _f_rows(g, c, k, np.asarray(delta_idx, dtype=np.int64), hits,
                   on_probe and (lambda i, fo: on_probe(ho, i, fo)))
    return is_permutation(fn, outs=ho), ho, rows


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
