"""Catalog of permutation-map families over GF(q^2) and GF(q^4).

Every entry describes one published family: either a trinomial
c*x - x^s + x^((q^k)*s) or a delta form (x^(q^k) - x + delta)^s + c*x,
together with the rule producing its exponent s, the admissible coefficient
set, and the (p, k) parameters it applies to.  Entry ids (thm5, lem15-3,
table1-r9, ...) are the stable public vocabulary used by the CLI and the
reports.

Each shift-form family built on a trinomial it cites (thm11-thm14 on thm5,
thm6, thm7, thm10; thm18-* on lem15-*/lem16-*) is derived from that entry: it
shares the trinomial's applicability gate, exponent rules, shape and steps,
takes the trinomial's coefficient conditions restricted to GF(q)* (the
transfer, Prop. 2, needs c there), and carries only its own notes.  The
table1 rows cite trinomials too but state their own residue-route exponents;
a row with no condition variants of its own takes its trinomial's conditions
on GF(q)* the same way.

Fractional exponents follow the canonical rewrite s = i*(q - 1) + 1 with i
taken modulo q + 1: canonical_exponent() resolves i given as a fraction by
modular inversion of the denominator.  Families printed with a closed
fractional formula also carry that formula so the two routes can be checked
against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

from .ffcore import DEFAULT_SIZE_CAP, Element, FieldCtx, prime_power
from .permcheck import FnSpec, compose_f, compose_h, make_gspec, reduce_exponent

__all__ = [
    "CoeffCondition",
    "FamilySpec",
    "InapplicableError",
    "applicable",
    "canonical_exponent",
    "default_parameters",
    "family_manifest",
    "instantiate",
    "lookup",
    "modular_fraction",
    "omega_set",
    "registry",
    "resolve_exponent",
    "valid_coefficients",
]


class InapplicableError(ValueError):
    """The family is not defined at the requested field parameters."""


def canonical_exponent(i_num: int, i_den: int, q: int) -> int:
    """s = i*(q-1) + 1 with i = i_num/i_den taken modulo q + 1.

    Requires gcd(i_den, q+1) = 1.  The result lies in [1, q^2 - 1]; for a
    plain integer i it agrees with i*(q-1) + 1 reduced mod q^2 - 1.
    """
    if not isinstance(i_den, int) or i_den < 1:
        raise ValueError(f"denominator must be a positive integer, got {i_den!r}")
    if math.gcd(i_den, q + 1) != 1:
        raise ValueError(f"denominator {i_den} is not invertible modulo q+1 = {q + 1}")
    i_star = (i_num * pow(i_den, -1, q + 1)) % (q + 1)
    return reduce_exponent(i_star * (q - 1) + 1, q * q)


def modular_fraction(num: int, den: int, mod: int) -> int:
    """num/den reduced modulo mod: exact integer division when den | num,
    otherwise by modular inverse (requires gcd(den, mod) = 1)."""
    if den < 1:
        raise ValueError(f"denominator must be positive, got {den!r}")
    if num % den == 0:
        return (num // den) % mod
    if math.gcd(den, mod) != 1:
        raise ValueError(f"{num}/{den} is neither exact nor invertible mod {mod}")
    return (num * pow(den, -1, mod)) % mod


def omega_set(fld: FieldCtx, sub_deg: Optional[int] = None) -> frozenset[Element]:
    """Coefficients c in GF(2^sub_deg) for which x^3 + x + c has no root there.

    Computed as the complement of the image of x -> x^3 + x over the subfield
    (the image has index 2 inside the additive group, so roughly half the
    subfield is returned; 0 is always excluded since x^3 + x vanishes at 0).
    """
    if fld.p != 2:
        raise ValueError("omega sets are defined in characteristic 2 only")
    if sub_deg is None:
        sub_deg = fld.n
    members = sorted(i for i in fld.subfield_indices(sub_deg))
    image = set()
    for i in members:
        x = fld.element_at(i)
        image.add(fld.add(fld.mul(fld.mul(x, x), x), x).index)
    return frozenset(fld.element_at(i) for i in members if i not in image)


def _omega_cached(fld: FieldCtx, sub_deg: int) -> frozenset[Element]:
    """omega_set(fld, sub_deg), built once per field context."""
    return fld.cached(("omega", sub_deg), lambda: omega_set(fld, sub_deg))


@dataclass(frozen=True)
class CoeffCondition:
    """Admissibility predicate for the linear coefficient c.

    kind:   power_unity | omega
    domain: "field*"  nonzero elements of the whole field
            "base*"   nonzero elements of GF(q)
    power_unity checks (sign*base / c)^exp = 1: c^exp = 1 at base = sign = 1,
    so c = 1 is exp = 1 and c in GF(p^d)* is exp = p^d - 1; omega checks
    membership of the Omega set of GF(q).
    """

    kind: str
    domain: str = "field*"
    base: int = 1
    sign: int = 1
    exp: int = 1

    def __post_init__(self):
        if self.kind not in ("power_unity", "omega"):
            raise ValueError(f"unknown condition kind {self.kind!r}")
        if self.domain not in ("field*", "base*"):
            raise ValueError(f"unknown coefficient domain {self.domain!r}")

    def describe(self) -> str:
        a = f"{'-' if self.sign < 0 else ''}{self.base}"
        if self.kind == "omega":
            text = "x^3 + x + c has no root in GF(q)"
        elif self.exp == 1:
            text = f"c = {a}"
        elif a == "1":
            text = f"c^{self.exp} = 1"
        else:
            text = f"({a}/c)^{self.exp} = 1"
        return text + (", c in GF(q)*" if self.domain == "base*" else "")

    def holds(self, fld: FieldCtx, qdeg: int, c: Element) -> bool:
        if c.index == 0 or (self.domain == "base*" and not fld.is_in_subfield(c, qdeg)):
            return False
        if self.kind == "omega":
            return c in _omega_cached(fld, qdeg)
        t = fld.div(fld.scalar(self.sign * self.base), c)
        return fld.pow(t, self.exp).index == 1

    def candidates(self, fld: FieldCtx, qdeg: int) -> tuple[Element, ...]:
        """The full admissible set, smallest index first.

        Computed directly from the condition structure (unity conditions via
        the matching root-of-unity subgroup of the domain; the Omega set lies
        in GF(q)); holds() re-derives membership pointwise, so the two routes
        cross-check each other in the tests.
        """
        if self.kind == "omega":
            pool = [e.index for e in _omega_cached(fld, qdeg)]
        else:
            # (a/c)^exp = 1  <=>  c = a/u for a root of unity u of order d;
            # a lies in the prime field, so c is in GF(q) exactly when u is
            size = fld.p**qdeg if self.domain == "base*" else fld.order
            d = math.gcd(self.exp, size - 1)
            a = fld.scalar(self.sign * self.base)
            pool = [fld.div(a, u).index for u in fld.mu_subgroup(d)]
        return tuple(fld.element_at(i) for i in sorted(pool) if i)


# rule signature conventions:
#   applies(p, k, kprime) -> bool          q = p^k
#   s_rule(q, kprime)     -> raw exponent  (reduced centrally)
#   cond_rule(q, k, kprime) -> CoeffCondition  (a shift form's: _on_base(rule))
#   i_pair(q, kprime)     -> (num, den)    canonical-rewrite cross-check

@dataclass(frozen=True)
class FamilySpec:
    fid: str
    form: str                 # "trinomial" | "delta_form"
    shape: str                # "square" | "quartic"
    applies_desc: str
    s_desc: str
    applies: Callable[[int, int, int], bool]
    s_rules: tuple            # ((tag, s_rule), ...), primary first
    conds: tuple              # ((tag, cond_rule), ...), primary first
    i_pairs: tuple = ()       # ((tag, i_pair), ...) matching s_rules by position
    steps: tuple[int, ...] = (1,)   # Frobenius step variants in q-units, primary first
    uses_kprime: bool = False
    cross: tuple[str, ...] = ()
    notes: str = ""

    @property
    def m(self) -> int:
        """Extension degree over GF(q): 2 for GF(q^2), 4 for GF(q^4)."""
        return 2 if self.shape == "square" else 4

    def qdeg_for(self, fld: FieldCtx) -> int:
        if fld.n % self.m:
            raise InapplicableError(
                f"{self.fid} needs a degree divisible by {self.m}, got GF({fld.p}^{fld.n})")
        return fld.n // self.m


def _cond_one(q, k, kp):
    return CoeffCondition("power_unity")


def _is_odd(p, k, kp):
    return p != 2


def _q18(p, k, kp):
    return p != 2 and (p**k) % 8 in (1, 5)


def _q13(p, k, kp):
    return (p**k) % 3 == 1


def _even(parity):
    if parity == "any":
        return lambda p, k, kp: p == 2
    want = 0 if parity == "even" else 1
    return lambda p, k, kp: p == 2 and k % 2 == want


def _gcd_minus(p, k, kp):
    return p == 2 and kp >= 1 and math.gcd(2**kp - 1, 2**k + 1) == 1


def _gcd_plus(p, k, kp):
    return p == 2 and kp >= 1 and math.gcd(2**kp + 1, 2**k + 1) == 1


def _cond_thm5(q, k, kp):
    sign = -1 if q % 8 == 1 else 1
    return CoeffCondition("power_unity", base=2, sign=sign, exp=(q + 1) // 2)


def _cond_thm6(q, k, kp):
    sign = -1 if q % 8 == 5 else 1
    return CoeffCondition("power_unity", base=2, sign=sign, exp=(q + 1) // 2)


def _cond_cube(q, k, kp):
    return CoeffCondition("power_unity", exp=3)


def _cond_power_q13(q, k, kp):
    return CoeffCondition("power_unity", exp=(q + 1) // 3)


def _cond_omega(q, k, kp):
    return CoeffCondition("omega")


def _cond_sub_half(q, k, kp):
    return CoeffCondition("power_unity", exp=2 ** (k // 2) - 1)


def _cond_sub_gcd(q, k, kp):
    return CoeffCondition("power_unity", exp=2 ** math.gcd(kp, k) - 1)


def _cond_lem15_1(q, k, kp):
    if k % 2 == 0:
        return _cond_one(q, k, kp)
    return _cond_cube(q, k, kp)


def _on_base(rule):
    """rule's condition restricted to GF(q)*.  A shift form built on a
    trinomial admits that trinomial's c within GF(q)* only: the transfer
    (Prop. 2) at Frobenius step q^j needs c in GF(q^gcd(j, m))*, which is
    GF(q)* at j = 1."""
    return lambda q, k, kp: replace(rule(q, k, kp), domain="base*")


def _s_canonical(num_den):
    """s_rule computing the canonical rewrite of i = num/den."""
    def rule(q, kp):
        num, den = num_den(q, kp)
        return canonical_exponent(num, den, q)
    return rule


def _build_registry() -> tuple[FamilySpec, ...]:
    fams: list[FamilySpec] = []

    # ---- trinomials over GF(q^2) and GF(q^4), odd characteristic ----------
    fams.append(FamilySpec(
        fid="thm5", form="trinomial", shape="square",
        applies_desc="q odd, q = 1 or 5 (mod 8)",
        s_desc="s = (3q^2 + 2q - 1)/4",
        applies=_q18,
        s_rules=(("s", lambda q, kp: (3 * q * q + 2 * q - 1) // 4),),
        conds=(("", _cond_thm5),),
        cross=("thm11",),
        notes="condition is (-2/c)^((q+1)/2) = 1 for q = 1 (mod 8), "
              "(2/c)^((q+1)/2) = 1 for q = 5 (mod 8)"))
    fams.append(FamilySpec(
        fid="thm6", form="trinomial", shape="square",
        applies_desc="q odd, q = 1 or 5 (mod 8)",
        s_desc="s = (q + 1)^2 / 4",
        applies=_q18,
        s_rules=(("s", lambda q, kp: (q + 1) ** 2 // 4),),
        conds=(("", _cond_thm6),),
        cross=("thm12",),
        notes="case pairing is mirrored against thm5: (-2/c) applies at "
              "q = 5 (mod 8), (2/c) at q = 1 (mod 8)"))
    fams.append(FamilySpec(
        fid="thm7", form="trinomial", shape="square",
        applies_desc="q = 1 (mod 3)",
        s_desc="s = (q^2 + q + 1)/3",
        applies=_q13,
        s_rules=(("s", lambda q, kp: (q * q + q + 1) // 3),),
        conds=(("", _cond_one),),
        cross=("thm13",)))
    fams.append(FamilySpec(
        fid="thm10", form="trinomial", shape="quartic",
        applies_desc="q odd",
        s_desc="s = q^3 + q^2 - q",
        applies=_is_odd,
        s_rules=(("s", lambda q, kp: q**3 + q * q - q),),
        conds=(("", _cond_one),),
        steps=(2,),
        cross=("thm14",)))

    # ---- delta forms derived from the above, odd characteristic -----------
    def cited(base_id):
        """Trinomial base_id and its conditions, tags kept, on GF(q)*."""
        base = next(f for f in fams if f.fid == base_id)
        return base, tuple((tag, _on_base(rule)) for tag, rule in base.conds)

    def derive(fid, base_id, note, steps=None):
        """The shift form (x^(q^k) - x + delta)^s + c*x built from trinomial
        base_id: its gate, exponent rules, shape, steps and c conditions."""
        base, conds = cited(base_id)
        fams.append(replace(
            base, fid=fid, form="delta_form", conds=conds,
            steps=steps or base.steps, notes=note,
            cross=(base_id,) + tuple(c for c in base.cross if c.startswith("table1"))))

    derive("thm11", "thm5",
           "c = -2 for q = 1 (mod 8), c = 2 for q = 5 (mod 8)")
    derive("thm12", "thm6",
           "c = 2 for q = 1 (mod 8), c = -2 for q = 5 (mod 8)")
    derive("thm13", "thm7", "")
    derive("thm14", "thm10",
           "printed with inner step q; the composition route from thm10 "
           "dictates inner step q^2, so both variants are verified", steps=(2, 1))

    # ---- known even-characteristic trinomials over GF(2^(2k)) -------------
    def _ipair_const(num, den):
        return lambda q, kp: (num, den)

    fams.append(FamilySpec(
        fid="lem15-1", form="trinomial", shape="square",
        applies_desc="q = 2^k", s_desc="s = 2q - 1",
        applies=_even("any"),
        s_rules=(("s", lambda q, kp: 2 * q - 1),),
        conds=(("", _cond_lem15_1),),
        i_pairs=(("i=2", _ipair_const(2, 1)),),
        cross=("thm18-1", "table1-r1"),
        notes="c = 1 for k even, c^3 = 1 for k odd"))
    fams.append(FamilySpec(
        fid="lem15-2", form="trinomial", shape="square",
        applies_desc="q = 2^k, k even", s_desc="s = (3q - 2)(q^2 + q + 1)/3",
        applies=_even("even"),
        s_rules=(("s", lambda q, kp: modular_fraction(
            (3 * q - 2) * (q * q + q + 1), 3, q * q - 1)),),
        conds=(("", _cond_cube),),
        i_pairs=(("i=4/3", _ipair_const(4, 3)),),
        cross=("thm18-2", "table1-r7")))
    fams.append(FamilySpec(
        fid="lem15-3", form="trinomial", shape="square",
        applies_desc="q = 2^k, k odd", s_desc="s = (q + 4)/5",
        applies=_even("odd"),
        s_rules=(("s", lambda q, kp: modular_fraction(q + 4, 5, q * q - 1)),),
        conds=(("", _cond_cube),),
        i_pairs=(("i=1/5", _ipair_const(1, 5)),),
        cross=("thm18-3", "table1-r5")))
    fams.append(FamilySpec(
        fid="lem15-4", form="trinomial", shape="square",
        applies_desc="q = 2^k", s_desc="s = (3q + 1)/4",
        applies=_even("any"),
        s_rules=(("s", lambda q, kp: modular_fraction(3 * q + 1, 4, q * q - 1)),),
        conds=(("", _cond_omega),),
        i_pairs=(("i=3/4", _ipair_const(3, 4)),),
        cross=("thm18-4", "table1-r6")))
    fams.append(FamilySpec(
        fid="lem15-5", form="trinomial", shape="square",
        applies_desc="q = 2^k", s_desc="s = (q + 6)/7",
        applies=_even("any"),
        s_rules=(("s", lambda q, kp: modular_fraction(q + 6, 7, q * q - 1)),),
        conds=(("", _cond_one),),
        i_pairs=(("i=1/7", _ipair_const(1, 7)),),
        cross=("thm18-5", "table1-r8")))
    fams.append(FamilySpec(
        fid="lem15-6", form="trinomial", shape="square",
        applies_desc="q = 2^k, k odd", s_desc="s = (q^2 + 3q + 2)/6",
        applies=_even("odd"),
        s_rules=(("s", lambda q, kp: (q * q + 3 * q + 2) // 6),),
        conds=(("", _cond_power_q13),),
        i_pairs=(("i=(q+4)/6", lambda q, kp: ((q + 4) // 6, 1)),),
        cross=("thm18-6", "table1-r9")))
    fams.append(FamilySpec(
        fid="lem15-7", form="trinomial", shape="square",
        applies_desc="q = 2^k, k even", s_desc="s = (q^2 - 2q + 4)/3",
        applies=_even("even"),
        s_rules=(("s", lambda q, kp: (q * q - 2 * q + 4) // 3),),
        conds=(("", _cond_one),),
        i_pairs=(("i=(q-1)/3", lambda q, kp: ((q - 1) // 3, 1)),),
        cross=("thm18-7", "table1-r10")))
    fams.append(FamilySpec(
        fid="lem15-8", form="trinomial", shape="square",
        applies_desc="q = 2^k, k even, Q = 2^(k/2)",
        s_desc="s = (Q^3 + Q^2 - Q + 1)/2",
        applies=_even("even"),
        s_rules=(("s", lambda q, kp: modular_fraction(
            _half_q(q) ** 3 + _half_q(q) ** 2 - _half_q(q) + 1, 2, q * q - 1)),),
        conds=(("", _cond_sub_half),),
        i_pairs=(("i=(Q+1)/2", lambda q, kp: (_half_q(q) + 1, 2)),),
        cross=("thm18-8", "table1-r11"),
        notes="c ranges over GF(2^(k/2))*"))
    fams.append(FamilySpec(
        fid="lem16-1", form="trinomial", shape="square",
        applies_desc="q = 2^k, gcd(2^k' - 1, 2^k + 1) = 1",
        s_desc="s = -(q - 1)/(2^k' - 1) + 1, the fraction taken mod q + 1",
        applies=_gcd_minus,
        s_rules=(("s", lambda q, kp: canonical_exponent(-1, 2**kp - 1, q)),),
        conds=(("", _cond_sub_gcd),),
        i_pairs=(("i=-1/(2^k'-1)", lambda q, kp: (-1, 2**kp - 1)),),
        uses_kprime=True,
        cross=("thm18-9", "table1-r12"),
        notes="coefficient domain GF(2^k')* intersect GF(q); reading the "
              "fraction as integer division gives a different, wrong map "
              "whenever 2^k' - 1 divides q - 1 nontrivially"))
    fams.append(FamilySpec(
        fid="lem16-2", form="trinomial", shape="square",
        applies_desc="q = 2^k, gcd(2^k' + 1, 2^k + 1) = 1",
        s_desc="s = (q - 1)/(2^k' + 1) + 1, the fraction taken mod q + 1",
        applies=_gcd_plus,
        s_rules=(("s", lambda q, kp: canonical_exponent(1, 2**kp + 1, q)),),
        conds=(("", _cond_sub_gcd),),
        i_pairs=(("i=1/(2^k'+1)", lambda q, kp: (1, 2**kp + 1)),),
        uses_kprime=True,
        cross=("thm18-10", "table1-r13"),
        notes="c = 0 is rejected even though lem16-1 excludes it explicitly "
              "and this case does not: the companion-map inverse divides by c"))

    # ---- even-characteristic delta forms (coefficients in GF(q)) ----------
    derive("thm18-1", "lem15-1", "c = 1 for every k")
    derive("thm18-2", "lem15-2", "c in GF(q) with c^3 = 1")
    derive("thm18-3", "lem15-3", "")
    derive("thm18-4", "lem15-4", "")
    derive("thm18-5", "lem15-5", "")
    derive("thm18-6", "lem15-6",
           "kept at c = 1; table1-r9 carries the wider unity variant")
    derive("thm18-7", "lem15-7", "")
    derive("thm18-8", "lem15-8", "")
    derive("thm18-9", "lem16-1",
           "c = 0 is rejected: the companion-map inverse divides by c")
    derive("thm18-10", "lem16-2",
           "c = 0 is rejected: the companion-map inverse divides by c")

    # ---- consolidated delta-form table over GF(2^(2k)) ---------------------
    def row(fid, adesc, applies, ivars, conds=None, uses_kp=False, cross=(), notes=""):
        """A Table 1 shift form; a row that cites a trinomial first in cross
        and states no conditions of its own takes that trinomial's."""
        s_rules = tuple((tag, _s_canonical(pair)) for tag, pair in ivars)
        conds = conds or cited(cross[0])[1]
        fams.append(FamilySpec(
            fid=fid, form="delta_form", shape="square",
            applies_desc=adesc, s_desc="s = i*(q - 1) + 1",
            applies=applies, s_rules=s_rules, conds=conds,
            i_pairs=tuple(ivars), uses_kprime=uses_kp, cross=cross, notes=notes))

    row("table1-r1", "k even", _even("even"),
        (("i=2", _ipair_const(2, 1)), ("i=-1", _ipair_const(-1, 1))),
        cross=("lem15-1", "thm18-1"))
    row("table1-r2", "any k", _even("any"),
        (("i=0", _ipair_const(0, 1)), ("i=1", _ipair_const(1, 1))),
        (("", _cond_one),))
    row("table1-r3", "any k", _even("any"),
        (("i=1/2", _ipair_const(1, 2)),),
        (("", _cond_one),))
    row("table1-r4", "k even", _even("even"),
        (("i=1/3", _ipair_const(1, 3)), ("i=2/3", _ipair_const(2, 3))),
        (("", _cond_one),))
    row("table1-r5", "k odd", _even("odd"),
        (("i=1/5", _ipair_const(1, 5)), ("i=4/5", _ipair_const(4, 5))),
        cross=("lem15-3", "thm18-3"))
    row("table1-r6", "any k", _even("any"),
        (("i=1/4", _ipair_const(1, 4)), ("i=3/4", _ipair_const(3, 4))),
        cross=("lem15-4", "thm18-4"))
    row("table1-r7", "k even", _even("even"),
        (("i=1/(q-2)", lambda q, kp: (1, q - 2)),
         ("i=-4/(q-2)", lambda q, kp: (-4, q - 2))),
        cross=("lem15-2", "thm18-2"))
    row("table1-r8", "any k", _even("any"),
        (("i=1/7", _ipair_const(1, 7)), ("i=6/7", _ipair_const(6, 7))),
        cross=("lem15-5", "thm18-5"),
        notes="when 3 | k the residue route diverges from lem15-5's exact "
              "quotient and stops permuting; runs at such k fail with "
              "witnesses instead of silently swapping rules")
    row("table1-r9", "k odd", _even("odd"),
        (("i=(q+4)/6", lambda q, kp: ((q + 4) // 6, 1)),
         ("i=(2-q)/6", lambda q, kp: ((2 - q) // 6, 1))),
        (("unity", _on_base(_cond_power_q13)), ("c=1", _cond_one)),
        cross=("lem15-6", "thm18-6"),
        notes="the unity condition only holds within GF(q)*: cube roots of "
              "unity outside GF(q) satisfy c^((q+1)/3) = 1 yet break the "
              "shift form, though not the underlying trinomial")
    row("table1-r10", "k even", _even("even"),
        (("i=(q-1)/3", lambda q, kp: ((q - 1) // 3, 1)),
         ("i=(4-q)/3", lambda q, kp: ((4 - q) // 3, 1))),
        cross=("lem15-7", "thm18-7"))
    row("table1-r11", "k even", _even("even"),
        (("i=(Q+1)/2", lambda q, kp: (_half_q(q) + 1, 2)),
         ("i=(1-Q)/2", lambda q, kp: (1 - _half_q(q), 2))),
        cross=("lem15-8", "thm18-8"))
    row("table1-r12", "gcd(2^k' - 1, 2^k + 1) = 1", _gcd_minus,
        (("i=-1/(2^k'-1)", lambda q, kp: (-1, 2**kp - 1)),
         ("i=2^k'/(2^k'-1)", lambda q, kp: (2**kp, 2**kp - 1))),
        uses_kp=True, cross=("lem16-1", "thm18-9"))
    row("table1-r13", "gcd(2^k' + 1, 2^k + 1) = 1", _gcd_plus,
        (("i=1/(2^k'+1)", lambda q, kp: (1, 2**kp + 1)),
         ("i=2^k'/(2^k'+1)", lambda q, kp: (2**kp, 2**kp + 1))),
        uses_kp=True, cross=("lem16-2", "thm18-10"))

    return tuple(fams)


def _half_q(q: int) -> int:
    """2^(k/2) for q = 2^k with k even."""
    k = q.bit_length() - 1
    if q != 1 << k or k % 2:
        raise InapplicableError(f"q = {q} is not an even power of 2")
    return 1 << (k // 2)


@lru_cache(maxsize=1)
def registry() -> tuple[FamilySpec, ...]:
    return _build_registry()


def lookup(fid: str) -> FamilySpec:
    for fam in registry():
        if fam.fid == fid:
            return fam
    raise KeyError(f"unknown family id {fid!r}")


def applicable(fid: str, p: int, k: int, kprime: int = 1) -> bool:
    """True when the family is defined for q = p^k (and auxiliary k')."""
    fam = lookup(fid)
    return bool(fam.applies(p, k, kprime))


def _field_params(fam: FamilySpec, fld: FieldCtx, kprime: int) -> tuple[int, int]:
    """(q, k) of the field under the family's shape; InapplicableError when
    the family is not defined there."""
    qdeg = fam.qdeg_for(fld)
    if not fam.applies(fld.p, qdeg, kprime):
        raise InapplicableError(f"{fam.fid} does not apply at q = {fld.p}^{qdeg}")
    return fld.p**qdeg, qdeg


def valid_coefficients(fid: str, fld: FieldCtx, kprime: int = 1,
                       cond_variant: int = 0) -> tuple[Element, ...]:
    """All admissible c for the family over fld, sorted by canonical index:
    the condition's structural pool, each c checked pointwise by holds().
    A c that fails the check raises RuntimeError: the two routes disagree."""
    fam = lookup(fid)
    q, qdeg = _field_params(fam, fld, kprime)
    tag, rule = fam.conds[cond_variant]
    cond = rule(q, qdeg, kprime)
    cs = cond.candidates(fld, qdeg)
    for c in cs:
        if not cond.holds(fld, qdeg, c):
            raise RuntimeError(f"{fid} q={q} condition {tag!r}: c index {c.index} of "
                               f"the structural pool fails the pointwise check "
                               f"of {cond.describe()}")
    return cs


def resolve_exponent(fid: str, q: int, kprime: int = 1, variant: int = 0) -> int:
    """The family's s-variant at base order q, reduced modulo its own field
    order minus one (q^2 - 1 for square shape, q^4 - 1 for quartic)."""
    fam = lookup(fid)
    return reduce_exponent(fam.s_rules[variant][1](q, kprime), q**fam.m)


def instantiate(fid: str, fld: FieldCtx, c: Element, delta: Optional[Element] = None,
                *, kprime: int = 1, step: Optional[int] = None, variant: int = 0,
                cond_variant: int = 0) -> FnSpec:
    """Build the family's FnSpec for a concrete coefficient (and delta): the
    h side (trinomials) or f side (delta forms) of g = x^s.

    The coefficient must satisfy the family condition; delta is required for
    delta forms and rejected for trinomials.  step selects among the declared
    Frobenius-step variants (primary first).
    """
    fam = lookup(fid)
    q, qdeg = _field_params(fam, fld, kprime)
    cond = fam.conds[cond_variant][1](q, qdeg, kprime)
    if not cond.holds(fld, qdeg, c):
        raise ValueError(f"coefficient {c!r} violates {fid} condition {cond.describe()}")
    if step is None:
        step = fam.steps[0]
    elif step not in fam.steps:
        raise ValueError(f"{fid} declares steps {fam.steps}, got {step}")
    if fam.form == "trinomial" and delta is not None:
        raise ValueError(f"{fid} is a trinomial family; delta is not accepted")
    if fam.form == "delta_form" and delta is None:
        raise ValueError(f"{fid} is a delta-form family; delta is required")
    s = resolve_exponent(fid, q, kprime, variant)
    g = make_gspec(fld, [(fld.one, s)], qdeg=qdeg)
    if fam.form == "trinomial":
        return compose_h(g, c, step)
    return compose_f(g, c, step, delta)


def default_parameters(fid: str, count: int = 2, cap: int = DEFAULT_SIZE_CAP,
                       kprime: int = 1) -> list[tuple[int, int]]:
    """Smallest `count` applicable (p, k) pairs with field order within cap."""
    fam = lookup(fid)
    found: list[tuple[int, int]] = []
    q = 1
    while len(found) < count:
        q += 1
        if q**fam.m > cap:
            break
        try:
            p, k = prime_power(q)
        except ValueError:
            continue
        if fam.applies(p, k, kprime):
            found.append((p, k))
    return found


def family_manifest() -> list[dict]:
    """Machine-readable catalog dump, one dict per family."""
    out = []
    for fam in registry():
        out.append({
            "id": fam.fid,
            "form": fam.form,
            "shape": fam.shape,
            "applies": fam.applies_desc,
            "s_rule": fam.s_desc,
            "s_variants": [tag for tag, _ in fam.s_rules],
            "conditions": [tag or "default" for tag, _ in fam.conds],
            "steps": list(fam.steps),
            "uses_kprime": fam.uses_kprime,
            "cross": list(fam.cross),
            "notes": fam.notes,
        })
    return out
