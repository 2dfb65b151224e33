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

The engine works in log order: position 0 is x = 0 and position 1+t is
x = gamma^t for the field generator gamma.  c*x at gamma^t is
exp[log c + t], the exp table rolled by log c, so a block of it is a
contiguous slice, and both sides of the pair are a log-order table plus
c*x: h = u + c*x with u = g^(q^k) - g, and f_d = G_d + c*x with
G_d(x) = g(x^(q^k) - x + d).  One kernel serves both: _hits marks the
values that each row of a table plus c*x takes, and _index_order scatters
one row plus c*x into element-index order.  u is exp gathers alone, as
Frobenius is additive (_log_order_u), and evaluate_all's h side is u
scattered by _index_order.  u at gamma^t depends on t only through e*t
mod order-1 for the exponents e of g, so it is periodic with period
P = (order-1)/D, D = gcd(order-1, every e), and it is built over one
period only: position 0, then W positions, W the smallest multiple of P
that is at least min(BLOCK, order-1).  Both readers take position 1+t at
1 + t mod W.  As W >= BLOCK or W = order-1, a block of positions wraps
round W at most once, as a block of c*x wraps round the exp table, and
one helper (_cyclic) makes both reads.  W = order-1 where D = 1 or the
field has at most BLOCK + 1 points, and G_d's rows always span the field.

One engine, pair_verdicts, decides both sides for a list of c: it builds u
once, and for each c marks the values of u + c*x once.  h permutes where
every value is hit; only a failing c scatters its table, where
_first_collisions finds the first-collision witness.  Given deltas, the same
mask gives every delta's image deficit by the lemma below, and a probe pass
checks those deficits against brute force.  Each side comes back as one
Verdicts: numpy columns of a row per instance, the f side c-major, written
by array operations; verify, trinomial_hits and transform's checks read
it directly, and Verdicts.rows is the only place a witness becomes
Elements.

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
one bincount of the trace over a c's hits gives every d's deficit
(_trace_deficits).  The engine decides f_d that way for c in GF(q^l)*
(another c raises ValueError) and an integer array of delta indices, with
brute force as its cross-check.
Brute force checks the first listed delta of each fibre, its probe: one
np.unique of the deltas' trace values finds every probe, once per call.
Only c*x depends on c, so G_d is evaluated once per probe for all c, in
blocks of at most BLOCK elements, and one _hits per (block, c) decides every
probe of the block.  The deficit is constant across a fibre, as
f_(d + b^(q^k) - b)(x) = f_d(x + b) - c*b, so the other deltas of a
failing fibre need only their witness, the first collision in index
order, which is that of the probe's table read at x + b: _first_collisions
finds it on prefixes of the field.  is_permutation and a failing h take
their witness from the same search, and every witness the engine reports
is evaluated afresh from Frobenius at both its points (_confirm_witnesses).

The mu route decides h by Lemma 1 (Park-Lee 2001, Zieve 2009) where g is
canonical: GF(q^2), k odd and every term a*x^e of g with e = 1 + i(q-1).
Then h(x) = x*H(x^(q-1)) with H(z) = c + sum of a^q z^(1+qi) - a z^i, and h
permutes iff H has no root on mu_(q+1) and z*H(z)^(q-1) permutes mu_(q+1):
q+1 points per c, not q^2.  _mu_verdicts evaluates H at z_j =
gamma^(j(q-1)) as one 2-D table, a row per c, and _mu_permutes decides
every row by one bincount of j + log H(z_j) mod q+1.  pair_verdicts runs
it first and keeps brute force as its cross-check: every c when it is given
deltas (each c's mask is marked anyway) or on fields of at most
DELTA_EXHAUSTIVE_CAP points, above that the first c and every c the mu
route fails, which also gives that c's witness; lemma1_check's reduction
side is the same kernel.

trinomial_hits finds the exponents s whose trinomial c*x - x^s + x^(q^k s)
permutes the field.  A map that repeats a value on the first B points
(B = prefix_size(order), about 4*sqrt(order)) is proven to fail, so blocks
of exponents are first evaluated on those points alone, as one 2-D table
each, and only the exponents without such a repeat get the full check
(pair_verdicts' permutes column).
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
    "ROUTES",
    "Verdicts",
    "build_inverse_table",
    "compose_f",
    "compose_h",
    "evaluate_all",
    "is_permutation",
    "lemma1_check",
    "make_fn_exponent_sum",
    "make_gspec",
    "pair_verdicts",
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
    pstep: int = 0          # Frobenius step in p-units: x -> x^(p^pstep) = x^(q^k)
    delta: int = -1         # shift index (f), -1 when absent


@dataclass(frozen=True)
class PermVerdict:
    is_permutation: bool
    witness: Optional[tuple[Element, Element]]
    image_deficit: int


_PERMUTES = PermVerdict(True, None, 0)

ROUTES = ("brute", "mu", "fibre", "prefix")     # the names of Verdicts.route's codes
_BRUTE, _MU, _FIBRE, _PREFIX = range(len(ROUTES))


@dataclass(frozen=True)
class Verdicts:
    """One side of the companion pair as equal-length columns, a row per
    instance: permutes, image deficit, witness (a, b) as indices (-1 for
    none) and the deciding route's code; and mu, whether the mu route
    decided every row too (the h side of a canonical g; never the f side)."""

    permutes: np.ndarray
    deficit: np.ndarray
    a: np.ndarray
    b: np.ndarray
    route: np.ndarray
    mu: bool

    @classmethod
    def of(cls, deficit: np.ndarray, route: np.ndarray, mu: bool = False) -> Verdicts:
        """Rows of these deficits and route codes, with no witness yet."""
        n = deficit.size
        return cls(deficit == 0, deficit, np.full(n, -1), np.full(n, -1), route, mu)

    def rows(self, field: FieldCtx) -> list[PermVerdict]:
        """One verdict per row: the one place a witness becomes Elements of
        field, one per distinct point."""
        a, b = self.a.tolist(), self.b.tolist()
        el = {x: field.element_at(x) for x in {*a, *b} - {-1}}
        return [_PERMUTES if x < 0 else PermVerdict(False, (el[x], el[y]), dfc)
                for x, y, dfc in zip(a, b, self.deficit.tolist())]


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
                  pstep=g.qdeg * k, delta=delta)


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
    """u = g^(p^pstep) - g in log order over one period: u[0] = u(0), and
    u[1+t] = u(gamma^t) for the field generator gamma and 0 <= t < W.  u at
    gamma^t depends on t only through e*t mod order-1 for the exponents e
    of g, so it has period P = (order-1)/D, D = gcd(order-1, every e), and
    W is the smallest multiple of P that is at least min(BLOCK, order-1): a
    reader takes position 1+t at 1 + t mod W (_cyclic), so a block of at
    most BLOCK positions wraps round W at most once.  W = order-1 where
    D = 1 or order-1 <= BLOCK.

    Frobenius is additive, so a term a*x^e of g adds exp[F*L] - exp[L] at
    gamma^t, L = log a + e*t mod order-1 and F = p^pstep: two exp gathers
    per term, no log gather, no zero masks.  A constant term adds u(0)
    everywhere.  Built BLOCK positions at a time, so no temporary is as
    large as u, and u is int32 like the tables (the exponent arithmetic
    stays int64: e*t and F*L pass 2^31).  No division in the loop: the
    ramps e*t and F*e*t mod order-1 are made once, each block adds its
    reduced offsets log a + lo*e and F times that, and take's wrap mode
    reduces the sums, which are below 2*(order-1)."""
    bulk = field.bulk()
    M = field.order - 1
    F = pow(field.p, pstep, M)
    P = M // math.gcd(M, *(e for _, e in terms))
    W = -(-min(BLOCK, M) // P) * P
    # g(0) is the constant term's coefficient; merged terms hold at most one
    g0 = field.element_at(sum(ci for ci, e in terms if e == 0))
    u0 = field.sub(field.frobenius(g0, pstep), g0).index
    u = np.empty(1 + W, dtype=np.int32)
    u[0] = u0
    ramps = []
    for ci, e in terms:
        if e:
            et = np.arange(min(W, BLOCK), dtype=np.int64)
            et *= e
            et %= M
            ramps.append((bulk.log.item(ci), e, et, et * F % M))
    if not ramps:
        u[1:] = u0
        return u
    for lo in range(0, W, BLOCK):
        n = min(W, lo + BLOCK) - lo
        acc = None
        for lc, e, et, fet in ramps:
            off = (lc + lo * e) % M
            term = bulk.sub(bulk.exp.take(fet[:n] + F * off % M, mode="wrap"),
                            bulk.exp.take(et[:n] + off, mode="wrap"))
            acc = term if acc is None else bulk.add(acc, term)
        u[1 + lo:1 + lo + n] = bulk.add(acc, np.int64(u0)) if u0 else acc
    return u


def _cyclic(table: np.ndarray, a: int, n: int) -> np.ndarray:
    """n entries along the last axis of the cyclic table from position a,
    for 0 <= a < W and n <= W, W its length: a slice, or two joined where
    they wrap round W (at most once).  c*x at gamma^t is exp[lc + t] for
    c = gamma^lc, the exp table rolled by lc, and a log-order row holds
    position 1+t at 1 + t mod W (_log_order_u), so a block of either is
    such a read."""
    W = table.shape[-1]
    b = a + n
    if b <= W:
        return table[..., a:b]
    return np.concatenate((table[..., a:], table[..., :b - W]), axis=-1)


def _hits(bulk, T: np.ndarray, lc: int) -> np.ndarray:
    """One bool mask per row of the 2-D log-order table T: the values that
    row plus c*x takes, c = gamma^lc (c*0 = 0 at position 0).  T holds
    position 0 and one period of W positions, read at 1 + t mod W
    (_log_order_u; W = order-1 for G_d's rows), so Q is the field's, not
    T's width.  The columns go in blocks of at most BLOCK elements, each
    wrapping round W at most once, and row r marks its values at
    r*Q + value through an int64 index (an int32 one scatters through
    numpy's slower casting path)."""
    rows, W = T.shape[0], T.shape[1] - 1
    Q = bulk.Q
    M = Q - 1
    hits = np.zeros((rows, Q), dtype=bool)
    flat = hits.reshape(-1)
    off = np.arange(0, rows * Q, Q, dtype=np.int64)
    flat[T[:, 0] + off] = True
    step = max(1, BLOCK // rows)
    for lo in range(0, M, step):
        n = min(M, lo + step) - lo
        v = bulk.add(_cyclic(T[:, 1:], lo % W, n), _cyclic(bulk.exp, (lc + lo) % M, n))
        flat[v + off[:, None]] = True
    return hits


def _index_order(bulk, row: np.ndarray, lc: int) -> np.ndarray:
    """The value table of row + c*x, c = gamma^lc, in element-index order,
    for the 1-D log-order table row of position 0 and one period, read at
    1 + t mod W as _hits reads it: its blocks scattered through exp.  The
    index and the values are int64, as a scatter that casts either is
    slower."""
    M = bulk.Q - 1
    W = row.size - 1
    out = np.empty(bulk.Q, dtype=np.int64)
    out[0] = row[0]
    for lo in range(0, M, BLOCK):
        n = min(M, lo + BLOCK) - lo
        v = bulk.add(_cyclic(row[1:], lo % W, n), _cyclic(bulk.exp, (lc + lo) % M, n))
        out[bulk.exp[lo:lo + n].astype(np.int64)] = v.astype(np.int64, copy=False)
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


def is_permutation(fn: FnSpec) -> PermVerdict:
    """Exhaustive scan: one bincount of fn's value table (evaluate_all)
    gives the image deficit (order minus the number of values hit).  Only a
    failing map pays for the witness search, and its witness is the first
    collision in element-index order (smallest second preimage, then its
    earliest mate), found by _first_collisions on prefixes of the table."""
    field = fn.field
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


def _exponent_array(s_values) -> np.ndarray:
    """s_values as an int64 array; a non-integer or non-positive exponent
    raises ValueError, as _trinomial_g's does, instead of being truncated."""
    s_arr = np.asarray(s_values)
    if s_arr.size and (s_arr.dtype.kind not in "iu" or (s_arr < 1).any()):
        raise ValueError("exponents must be positive integers")
    return s_arr.astype(np.int64, copy=False)


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
    s_arr = _exponent_array(s_values)
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
    the prefix, and pair_verdicts decides every survivor.  An s that is a
    multiple of order-1 raises ValueError before any screening."""
    s_arr = _exponent_array(s_values)
    bad = s_arr[s_arr % (field.order - 1) == 0]
    if bad.size:
        _trinomial_g(field, bad.item(0), qdeg)      # raises: x^s is constant off 0
    survivors = s_arr[prefix_survivors(field, c, s_arr, k, qdeg)].tolist()
    hits = [s for s in survivors
            if pair_verdicts(_trinomial_g(field, s, qdeg), k, [c])[0].permutes[0]]
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
    off = _shift_preimage(bulk, g.qdeg * k).take(bulk.sub(ds, np.int64(probe)))
    xs = bulk.xs
    a, b = _first_collisions(lambda rows, n: table.take(bulk.add(xs[:n], off[rows, None])),
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


def pair_verdicts(g: GSpec, k: int, cs, delta_idx=None) -> tuple[Verdicts, Verdicts]:
    """Both sides of the companion pair for each c in cs, from one u =
    g^(q^k) - g, by the method of the module docstring: (h, f).  h has a
    row per c, in order, and f a row per c and delta index d in delta_idx
    (an integer sequence or array), c-major, or none when delta_idx is
    None: is_permutation's verdicts on compose_h(g, c, k) and
    compose_f(g, c, k, d).  Non-integer delta indices, or with deltas a c
    outside GF(q^l)*, l = gcd(k, m), raise ValueError.

    h's rows are "mu" or "brute": brute force, which runs at every c when
    deltas are given, takes a row that the mu route decided too, and h.mu
    records that the mu route decided every row.  f's probes, the first
    delta of each trace fibre in the order given, are "brute", the rest
    "fibre" where the deficit is 0, else "prefix".  Disagreeing routes, and
    a witness _confirm_witnesses refutes, raise RuntimeError."""
    c_idx = np.array([compose_h(g, c, k).c for c in cs], dtype=np.int64)    # checks each c
    fld = g.field
    Q = fld.order
    if delta_idx is not None:
        delta_idx = np.asarray(delta_idx)
        if delta_idx.size and (delta_idx.dtype.kind not in "iu"
                               or not 0 <= delta_idx.min() <= delta_idx.max() < Q):
            raise ValueError(f"delta indices must be integers in [0, {Q})")
        delta_idx = delta_idx.astype(np.int64, copy=False)
        for c in cs:
            _require_coeff_domain(g, c, k)
    none = Verdicts.of(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int8))
    if not c_idx.size:
        return none, none
    bulk = fld.bulk()
    lcs = bulk.log.take(c_idx).tolist()
    u = _log_order_u(fld, g.terms, g.qdeg * k)
    mu = _mu_verdicts(g, k, c_idx)
    every = delta_idx is not None or mu is None or Q <= DELTA_EXHAUSTIVE_CAP
    h_deficit = np.zeros(c_idx.size, dtype=np.int64)
    h_route = np.full(c_idx.size, _MU, dtype=np.int8)
    fibre, failed = [], []
    for j, lc in enumerate(lcs):
        if not (every or j == 0 or not mu[j]):
            continue
        hit = _hits(bulk, u[None, :], lc)[0]
        if delta_idx is not None:
            fibre.append(_trace_deficits(g, cs[j], k, hit, delta_idx))
        h_deficit[j] = dfc = Q - np.count_nonzero(hit)
        h_route[j] = _BRUTE
        if mu is not None and mu[j] != (dfc == 0):
            raise RuntimeError(f"mu route and brute force disagree at step {k}, c {c_idx[j]}: "
                               f"image deficit {dfc} by brute force")
        if dfc:
            ho = _index_order(bulk, u, lc)
            a, b = _first_collisions(lambda rows, n: ho[None, :n], 1, Q)
            failed.append((j, a.item(0), b.item(0)))
            del ho
    del hit                     # before the probes' tables
    h = Verdicts.of(h_deficit, h_route, mu is not None)
    if failed:
        j, a, b = np.array(failed, dtype=np.int64).T
        _confirm_witnesses(g, k, c_idx[j], a, b)
        h.a[j], h.b[j] = a, b
    if delta_idx is None:
        return h, none
    D = delta_idx.size
    _, first, which = np.unique(bulk.trace(g.qdeg * math.gcd(k, g.m))[delta_idx],
                                return_index=True, return_inverse=True)
    order = np.argsort(which, kind="stable")        # positions, fibre by fibre
    cuts = np.concatenate(([0], np.cumsum(np.bincount(which))))
    probes = np.sort(first)     # positions, in the order given
    shift_log = np.zeros(Q, dtype=np.int32)     # x^(q^k) - x in log order
    shift_log[1:] = bulk.shift_base(g.qdeg * k)[bulk.exp]
    deficit = np.zeros((c_idx.size, first.size), dtype=np.int64)   # per c and fibre
    found = []      # (rows, a, b) per failing fibre: its deltas' rows and witnesses
    per = max(1, BLOCK // Q)
    for lo in range(0, probes.size, per):
        blk = probes[lo:lo + per]
        G = _g_rows(bulk, g.terms, shift_log, delta_idx[blk])
        for ci, lc in enumerate(lcs):
            deficit[ci, which[blk]] = dfc = Q - np.count_nonzero(_hits(bulk, G, lc), axis=1)
            for j in np.flatnonzero(dfc):
                p = blk.item(j)
                mem = order[cuts[which[p]]:cuts[which[p] + 1]]
                found.append((ci * D + mem, *_translate_witnesses(
                    g, k, c_idx[ci], delta_idx.item(p), _index_order(bulk, G[j], lc),
                    delta_idx[mem])))
        del G                       # before the next block's
    del shift_log
    brute = deficit[:, which]       # each delta has its probe's: the translate identity
    route = np.where(brute != 0, _PREFIX, _FIBRE).astype(np.int8)
    route[:, probes] = _BRUTE
    f = Verdicts.of(brute.ravel(), route.ravel())
    if found:
        rows, a, b = map(np.concatenate, zip(*found))
        _confirm_witnesses(g, k, c_idx[rows // D], a, b, delta_idx[rows % D])
        f.a[rows], f.b[rows] = a, b
    bad = np.argwhere(np.array(fibre).reshape(brute.shape) != brute)
    if bad.size:
        ci, j = bad[0]
        raise RuntimeError(
            f"fibre route and brute force disagree at step {k}, "
            f"c {c_idx[ci]}, delta {delta_idx[j]}: image deficit {fibre[ci][j]} "
            f"vs {brute[ci, j]}")
    return h, f


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
    if not isinstance(d, int) or d < 1 or (Q - 1) % d:
        raise ValueError(f"d must be a positive integer dividing {Q - 1}, got {d!r}")
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"r must be a positive integer, got {r!r}")
    gcd_ok = math.gcd(r, (Q - 1) // d) == 1
    bulk = field.bulk()
    H = _mu_values(bulk, d, [(bulk.log.item(ci), e) for ci, e in _merge_terms(field, h_terms)])
    mu_permuted = bool(_mu_permutes(bulk, d, r, H[None, :])[0])
    assembled = lemma1_assemble(field, r, h_terms, d)
    brute = is_permutation(assembled)
    return Lemma1Result(gcd_ok, mu_permuted, brute.is_permutation, assembled)
