import json
import math
import re

import pytest

from permlab.ffcore import FieldCtx, prime_power
from permlab.families import (
    InapplicableError,
    applicable,
    canonical_exponent,
    default_parameters,
    family_manifest,
    instantiate,
    lookup,
    modular_fraction,
    omega_set,
    registry,
    resolve_exponent,
    valid_coefficients,
)
from permlab.permcheck import (
    is_permutation,
    reduce_exponent,
)
from scalar_oracle import evaluate, make_fn_delta, make_fn_trinomial

_FIELDS = {}


def field(p, n):
    if (p, n) not in _FIELDS:
        _FIELDS[(p, n)] = FieldCtx(p, n)
    return _FIELDS[(p, n)]


# ---------------------------------------------------------------------------
# canonical exponent rewriting
# ---------------------------------------------------------------------------

def test_canonical_exponent_frozen_values():
    assert canonical_exponent(2, 1, 4) == 7      # integer i: 2(q-1)+1
    assert canonical_exponent(1, 5, 8) == 15     # inverse(5) mod 9 = 2
    assert canonical_exponent(-1, 1, 4) == 13    # i = -1 wraps to q


def test_canonical_exponent_integer_agrees_with_plain_formula():
    for q in (2, 4, 8, 16):
        for i in range(-3, 6):
            want = (i * (q - 1) + 1 - 1) % (q * q - 1) + 1
            assert canonical_exponent(i, 1, q) == want


def test_canonical_exponent_rejects_shared_factor():
    with pytest.raises(ValueError):
        canonical_exponent(1, 3, 8)   # gcd(3, 9) = 3
    with pytest.raises(ValueError):
        canonical_exponent(1, 0, 4)


def test_canonical_exponent_respects_mu_subgroup_identity():
    # two i differing by q+1 give the same power map on GF(q^2)
    for q in (4, 8):
        f = field(2, 2 * int(math.log2(q)))
        for i in (1, 2, 3):
            s1 = canonical_exponent(i, 1, q)
            s2 = canonical_exponent(i + q + 1, 1, q)
            for x in list(f.elements())[::5]:
                assert f.pow(x, s1) == f.pow(x, s2)


def test_modular_fraction_both_branches():
    assert modular_fraction(6, 3, 100) == 2          # exact division
    assert modular_fraction(1, 3, 17) == 6           # 3 * 6 = 18 = 1 mod 17
    with pytest.raises(ValueError):
        modular_fraction(1, 3, 9)                    # neither exact nor coprime


# ---------------------------------------------------------------------------
# omega sets
# ---------------------------------------------------------------------------

def test_omega_frozen_small_fields():
    assert {e.index for e in omega_set(field(2, 2))} == {1}
    assert {e.index for e in omega_set(field(2, 1))} == {1}


def test_omega_complement_size():
    for n in (1, 2, 3, 4):
        f = field(2, n)
        image = {f.add(f.mul(f.mul(x, x), x), x).index for x in f.elements()}
        om = omega_set(f)
        assert len(om) == f.order - len(image)
        assert all(e.index not in image for e in om)


def test_omega_rejects_odd_characteristic():
    with pytest.raises(ValueError):
        omega_set(field(3, 2))


def test_omega_condition_builds_once_per_field_context(monkeypatch):
    import permlab.families as fam_mod

    calls = []

    def counted(fld, sub_deg=None):
        calls.append(sub_deg)
        return omega_set(fld, sub_deg)

    monkeypatch.setattr(fam_mod, "omega_set", counted)
    cond = fam_mod.CoeffCondition("omega")
    for f in (FieldCtx(2, 6), FieldCtx(2, 6)):    # fresh contexts build afresh
        pool = cond.candidates(f, 3)
        assert {c for c in f.elements() if cond.holds(f, 3, c)} == set(pool)
        assert set(pool) == omega_set(f, 3) and len(pool) > 1
    assert calls == [3, 3]


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

def test_registry_is_complete_and_unique():
    fams = registry()
    assert len(fams) == 41
    ids = [f.fid for f in fams]
    assert len(set(ids)) == 41
    for prefix, count in [("thm18-", 10), ("lem15-", 8), ("lem16-", 2),
                          ("table1-r", 13)]:
        assert sum(i.startswith(prefix) for i in ids) == count
    for fam in fams:
        assert fam.form in ("trinomial", "delta_form")
        assert fam.shape in ("square", "quartic")
        assert fam.s_rules and fam.conds


def test_lookup_unknown_id():
    with pytest.raises(KeyError):
        lookup("thm99")


def test_cross_references_resolve():
    ids = {f.fid for f in registry()}
    for fam in registry():
        for ref in fam.cross:
            assert ref in ids, (fam.fid, ref)


def test_applicability_gates():
    assert applicable("thm7", 7, 1)
    assert not applicable("thm7", 5, 1)
    assert applicable("thm5", 3, 2)        # q = 9 = 1 mod 8
    assert applicable("thm5", 5, 1)        # q = 5 = 5 mod 8
    assert not applicable("thm5", 7, 1)    # 7 = 7 mod 8
    assert applicable("lem16-2", 2, 2, kprime=1)   # gcd(3, 5) = 1
    assert not applicable("lem16-2", 2, 1, kprime=1)  # gcd(3, 3) = 3
    assert not applicable("table1-r1", 2, 1)  # k must be even
    assert applicable("table1-r1", 2, 2)
    assert not applicable("thm10", 2, 1)   # odd q only


# ---------------------------------------------------------------------------
# exponent rules (frozen against brute-force-validated sweeps)
# ---------------------------------------------------------------------------

FROZEN_S = [
    ("thm5", 9, 0, 65),
    ("thm5", 5, 0, 21),
    ("thm6", 5, 0, 9),
    ("thm7", 7, 0, 19),
    ("thm7", 13, 0, 61),
    ("thm10", 3, 0, 33),
    ("thm10", 5, 0, 145),
    ("thm14", 3, 0, 33),
    ("lem15-1", 4, 0, 7),
    ("lem15-6", 8, 0, 15),      # exact division (q+4)/6 = 2, s = 2q - 1
    ("table1-r9", 8, 0, 15),
    ("table1-r9", 8, 1, 57),    # i = (2-q)/6 = -1 wraps to q
    ("table1-r11", 16, 0, 166),
    ("table1-r11", 16, 1, 106),
    ("table1-r7", 16, 0, 166),  # r7 and r11 coincide at q = 16
    ("table1-r7", 16, 1, 106),
]


def test_resolve_exponent_frozen():
    for fid, q, variant, want in FROZEN_S:
        assert resolve_exponent(fid, q, variant=variant) == want, (fid, q)


def test_resolve_exponent_kprime_families():
    # inverse(3) mod 17 = 6: lem16-1 i = -6 -> 11, lem16-2 i = 6
    assert resolve_exponent("lem16-1", 16, kprime=2) == 11 * 15 + 1
    assert resolve_exponent("lem16-2", 16, kprime=1) == 6 * 15 + 1
    assert resolve_exponent("lem16-1", 4, kprime=1) == 13   # i = -1 -> q
    # the delta forms inherit the same exponents
    assert resolve_exponent("thm18-9", 16, kprime=2) == 166
    assert resolve_exponent("thm18-10", 16, kprime=1) == 91


def test_quartic_families_reduce_by_q4():
    # the exponent must NOT collapse mod q^2 - 1 (s = 33 > 8 for q = 3)
    assert resolve_exponent("thm10", 3) == 33
    assert resolve_exponent("thm14", 5) == 145


def test_fractional_rule_matches_closed_formula():
    """i-route rows land on s = i*(q-1) + 1 with integer i; closed
    formulas stay in range but are NOT all expressible that way."""
    canonical = ["table1-r3", "table1-r5", "table1-r8", "table1-r12"]
    for fid in canonical:
        fam = lookup(fid)
        for q in (4, 8):
            if not fam.applies(2, q.bit_length() - 1, 1):
                continue
            for v in range(len(fam.s_rules)):
                s = resolve_exponent(fid, q, variant=v)
                assert 1 <= s < q * q
                assert (s - 1) % (q - 1) == 0
    for fid, q in [("lem15-3", 8), ("lem15-5", 8), ("lem15-7", 4)]:
        for v in range(len(lookup(fid).s_rules)):
            s = resolve_exponent(fid, q, variant=v)
            assert 1 <= s < q * q


def test_exact_and_residue_exponent_readings_diverge():
    """(q+6)/7 at q = 8: the literal quotient 2 permutes, the mod-(q+1)
    residue route lands on 29 (conjugate 43) and does not.  The two
    readings split exactly when 7 | q - 1, i.e. 3 | k; the catalog keeps
    whichever rule its family actually satisfies, so lem15-5 resolves to
    2 here while table1-r8 resolves to 29 and honestly fails if run."""
    q = 8
    assert resolve_exponent("lem15-5", q) == 2
    assert resolve_exponent("table1-r8", q, variant=0) == 29
    assert resolve_exponent("table1-r8", q, variant=1) == 43
    # 2 is not i*(q-1)+1 for any integer i, so the residue route cannot
    # reach it; brute force says it is the only reading that works.
    assert (2 - 1) % (q - 1) != 0
    fld = field(2, 6)
    one = fld.one
    for s, want in [(2, True), (29, False), (43, False), (7, False)]:
        fn = make_fn_trinomial(fld, one, s, qdeg=3)
        verdict = is_permutation(fn)
        assert verdict.is_permutation is want
        if not want:
            assert verdict.witness is not None
            a, b = verdict.witness
            assert evaluate(fn, a) == evaluate(fn, b)
    # same split carries to the additive form: f = (x^q - x + d)^s + x
    for d_idx in range(fld.order):
        fn = make_fn_delta(fld, one, 2, 1, fld.element_at(d_idx), qdeg=3)
        assert is_permutation(fn).is_permutation
    # s = 29 survives a few deltas (d = 0 among them) but not all of them
    assert is_permutation(
        make_fn_delta(fld, one, 29, 1, fld.zero, qdeg=3)).is_permutation
    assert not is_permutation(
        make_fn_delta(fld, one, 29, 1, fld.element_at(2), qdeg=3)).is_permutation


def test_i_pairs_cross_check_the_exponent_rules():
    """Each family that prints its exponent as a fraction carries the
    fraction as an i_pair, and the canonical rewrite s = i*(q-1) + 1 of that
    i must land on the family's own s-rule: every s-variant at the first 8
    applicable q, at k' = 1, 2, 3 where the family takes k'.  The only
    splits are lem15-5 and its delta form thm18-5 at 3 | k, where (q+6)/7
    is the literal quotient, not the mod-(q+1) residue (see the test above)."""
    compared, split = 0, set()
    for fam in registry():
        assert len(fam.i_pairs) in (0, len(fam.s_rules)), fam.fid
        for v, (_, pair) in enumerate(fam.i_pairs):
            for kp in ((1, 2, 3) if fam.uses_kprime else (1,)):
                for p, k in default_parameters(fam.fid, count=8, kprime=kp):
                    q = p**k
                    compared += 1
                    s = resolve_exponent(fam.fid, q, kprime=kp, variant=v)
                    if s != canonical_exponent(*pair(q, kp), q):
                        split.add((fam.fid, q))
    assert compared == 388
    assert split == {("lem15-5", 8), ("lem15-5", 64), ("thm18-5", 8), ("thm18-5", 64)}


def test_table1_exponent_variants_are_frobenius_twins():
    """The two exponent variants of each Table 1 row satisfy
    s2 = q*s1 (mod q^2 - 1), i.e. i2 = 1 - i1 (mod q + 1): the (qs, c) <->
    (s, -c) symmetry, with -c = c in characteristic 2.  Checked on the
    i_pairs through canonical_exponent and on resolve_exponent, at every
    applicable q = 2^k <= 2^11 and k' <= 5 where the row takes k'."""
    checked = 0
    for fam in registry():
        if not fam.fid.startswith("table1-r") or len(fam.i_pairs) != 2:
            continue
        (_, first), (_, second) = fam.i_pairs
        for k in range(1, 12):
            q, M = 2**k, 4**k - 1
            for kp in (range(1, 6) if fam.uses_kprime else (1,)):
                if not fam.applies(2, k, kp):
                    continue
                (n1, d1), (n2, d2) = first(q, kp), second(q, kp)
                s1 = resolve_exponent(fam.fid, q, kprime=kp, variant=0)
                s2 = resolve_exponent(fam.fid, q, kprime=kp, variant=1)
                assert s1 == canonical_exponent(n1, d1, q), (fam.fid, q, kp)
                assert s2 == canonical_exponent(n2, d2, q), (fam.fid, q, kp)
                assert s2 == canonical_exponent(d1 - n1, d1, q), (fam.fid, q, kp)
                assert s2 % M == q * s1 % M, (fam.fid, q, kp)
                checked += 1
    assert checked == 143


# ---------------------------------------------------------------------------
# coefficient conditions: structural pool vs pointwise predicate
# ---------------------------------------------------------------------------

def test_valid_coefficient_counts_frozen():
    assert len(valid_coefficients("thm5", field(3, 4))) == 5   # (q+1)/2
    assert len(valid_coefficients("thm5", field(5, 2))) == 3
    assert len(valid_coefficients("thm6", field(5, 2))) == 3
    assert len(valid_coefficients("thm6", field(3, 4))) == 5
    assert [c.index for c in valid_coefficients("thm7", field(7, 2))] == [1]
    assert [c.index for c in valid_coefficients("thm13", field(7, 2))] == [1]


def test_dual_route_condition_filtering():
    """candidates() pools must equal a full-field pointwise scan."""
    cases = [
        ("thm5", field(3, 4), 0),
        ("thm6", field(5, 2), 0),
        ("thm11", field(3, 4), 0),
        ("table1-r6", field(2, 2), 0),     # omega
        ("table1-r7", field(2, 4), 0),     # cube roots inside GF(q)
        ("table1-r9", field(2, 2), 0),     # unity inside GF(q)
        ("table1-r9", field(2, 2), 1),     # the c = 1 variant
        ("table1-r11", field(2, 4), 0),    # subfield GF(2^(k/2))
        ("lem15-4", field(2, 4), 0),
        ("lem15-1", field(2, 2), 0),       # cube roots over the whole field
        ("lem15-1", field(2, 6), 0),
        ("lem15-2", field(2, 4), 0),
        ("lem15-3", field(2, 6), 0),
        ("thm7", field(7, 2), 0),          # c = 1
        ("thm18-1", field(2, 4), 0),
    ]
    pinned = {
        ("lem15-1", 4): [1, 2, 3],
        ("lem15-1", 64): [1, 58, 59],
        ("lem15-2", 16): [1, 6, 7],
        ("lem15-3", 64): [1, 58, 59],
        ("thm7", 49): [1],
        ("thm18-1", 16): [1],
    }
    for fid, fld, ci in cases:
        fam = lookup(fid)
        qdeg = fam.qdeg_for(fld)
        q = fld.p**qdeg
        cond = fam.conds[ci][1](q, qdeg, 1)
        base = fld.subfield_indices(qdeg)
        brute = {
            c.index
            for c in fld.elements()
            if c.index and (cond.domain == "field*" or c.index in base)
            and cond.holds(fld, qdeg, c)
        }
        got = [c.index for c in valid_coefficients(fid, fld, cond_variant=ci)]
        assert set(got) == brute, (fid, ci)
        assert got == pinned.get((fid, fld.order), got), (fid, fld.order)


def test_pool_outside_the_condition_raises_and_exits_4(tmp_path, monkeypatch, capsys):
    """valid_coefficients cross-checks the structural pool against holds():
    a pool with one stray index raises, naming family, q, condition tag and
    c, instead of trimming it, and verify exits 4 on it."""
    from permlab.cli import main
    from permlab.families import CoeffCondition
    pool = CoeffCondition.candidates

    def stray(self, fld, qdeg):
        return pool(self, fld, qdeg) + (fld.element_at(2),)
    monkeypatch.setattr(CoeffCondition, "candidates", stray)
    with pytest.raises(RuntimeError, match=r"thm7 q=7 condition '': c index 2 "):
        valid_coefficients("thm7", field(7, 2))
    assert main(["verify", "--family", "thm7", "--q", "7",
                 "--out", str(tmp_path / "out.json")]) == 4
    assert "c index 2" in capsys.readouterr().err


def test_thm5_condition_sign_depends_on_congruence():
    # q = 9 = 1 mod 8 uses -2/c; q = 5 uses 2/c; both must contain c with
    # the right unity pullback and never c = 0
    for q, p, n in [(9, 3, 4), (5, 5, 2)]:
        cs = valid_coefficients("thm5", field(p, n))
        assert all(c.index for c in cs)
        assert len(cs) == (q + 1) // 2


@pytest.mark.parametrize("fid, p, n, text", [
    ("thm5", 3, 4, "(-2/c)^5 = 1"),             # q = 9 = 1 (mod 8)
    ("thm5", 5, 2, "(2/c)^3 = 1"),
    ("lem15-2", 2, 4, "c^3 = 1"),
    ("lem15-4", 2, 4, "x^3 + x + c has no root in GF(q)"),
    ("lem15-8", 2, 8, "c in GF(2^2)*"),
], ids=["thm5-q9", "thm5-q5", "lem15-2", "lem15-4", "lem15-8"])
def test_condition_describe_states_the_condition(fid, p, n, text):
    """describe() states each condition kind, both power_unity forms among
    them, and instantiate's refusal of a c outside the condition quotes
    it."""
    f = field(p, n)
    fam = lookup(fid)
    qdeg = fam.qdeg_for(f)
    cond = fam.conds[0][1](p**qdeg, qdeg, 1)
    assert cond.describe() == text
    bad = next(c for c in f.elements() if c.index and not cond.holds(f, qdeg, c))
    with pytest.raises(ValueError, match=re.escape(f"violates {fid} condition {text}")):
        instantiate(fid, f, bad)


def test_valid_coefficients_inapplicable_field():
    with pytest.raises(InapplicableError):
        valid_coefficients("thm7", field(5, 2))


# ---------------------------------------------------------------------------
# instantiation
# ---------------------------------------------------------------------------

def test_instantiate_thm7_gf49():
    f = field(7, 2)
    fn = instantiate("thm7", f, f.one)
    # the h side of g = x^19 over GF(7^2) with q = 7, k = 1; the Frobenius
    # image of x^19 is x^(7*19 mod 48) = x^37
    assert fn.side == "h" and fn.terms == ((1, 19),)
    assert fn.pstep == 1
    assert reduce_exponent(f.p**fn.pstep * 19, f.order) == 37
    assert is_permutation(fn).is_permutation


def test_instantiate_thm18_1_gf16():
    # (x^4 + x)^7 + x over GF(16): q = 4, s = 2q - 1
    f = field(2, 4)
    fn = instantiate("thm18-1", f, f.one, f.zero)
    assert fn.side == "f" and fn.terms == ((1, 7),) and fn.pstep == 2 and fn.delta == 0
    for x in list(f.elements())[:6]:
        inner = f.add(f.frobenius(x, 2), x)      # char 2: -x = x
        want = f.add(f.pow(inner, 7) if inner.index else f.zero, x)
        assert evaluate(fn, x) == want
    assert is_permutation(fn).is_permutation


def test_instantiate_rejects_bad_coefficient():
    f = field(7, 2)
    with pytest.raises(ValueError):
        instantiate("thm7", f, f.scalar(2))   # thm7 wants c = 1
    with pytest.raises(ValueError):
        instantiate("thm7", f, f.one, f.one)  # trinomials take no delta
    with pytest.raises(ValueError):
        instantiate("thm13", f, f.one)        # delta forms need delta


def test_instantiate_inapplicable_field():
    with pytest.raises(InapplicableError):
        instantiate("thm7", field(5, 2), field(5, 2).one)


def test_degenerate_exponent_falls_back_to_linear_sum():
    # lem15-1 at q = 2: s = 3 = order - 1 over GF(4); g = x^3 is 0/1-valued,
    # so g^q - g vanishes and h is exactly the linear map cx
    f = field(2, 2)
    fn = instantiate("lem15-1", f, f.one)
    assert fn.side == "h" and fn.terms == ((1, 3),)
    assert all(evaluate(fn, x) == x for x in f.elements())
    assert is_permutation(fn).is_permutation


def test_instantiate_step_variants():
    f = field(3, 4)
    primary = instantiate("thm14", f, f.one, f.zero)
    alt = instantiate("thm14", f, f.one, f.zero, step=1)
    assert primary.pstep == 2 and alt.pstep == 1
    with pytest.raises(ValueError):
        instantiate("thm14", f, f.one, f.zero, step=3)


# ---------------------------------------------------------------------------
# default parameters and the manifest
# ---------------------------------------------------------------------------

def test_default_parameters_smallest_two():
    assert default_parameters("thm7") == [(2, 2), (7, 1)]
    assert default_parameters("thm5") == [(5, 1), (3, 2)]
    assert default_parameters("thm10") == [(3, 1), (5, 1)]
    assert default_parameters("table1-r1") == [(2, 2), (2, 4)]
    # cap cuts the list short rather than erroring
    assert default_parameters("thm10", cap=100) == [(3, 1)]


def test_manifest_is_serializable_and_complete():
    m = family_manifest()
    assert len(m) == 41
    assert json.loads(json.dumps(m, sort_keys=True)) == m
    keys = {"id", "form", "shape", "applies", "s_rule", "s_variants",
            "conditions", "steps", "uses_kprime", "cross", "notes"}
    for entry in m:
        assert set(entry) == keys
    by_id = {e["id"]: e for e in m}
    assert by_id["thm14"]["steps"] == [2, 1]
    assert by_id["table1-r9"]["conditions"] == ["unity", "c=1"]
    assert by_id["thm18-9"]["notes"]    # the c = 0 exclusion is flagged
    assert by_id["lem16-1"]["uses_kprime"]


def test_shift_forms_share_their_trinomial_rules():
    """thm11-thm14 and thm18-* are the shift forms built on the trinomial
    each cites first: same gate, exponents, shape, descriptions and i_pairs
    at every q with q^m <= 2^16 (k' = 1, 2, 3 where used), and the same
    steps except thm14's extra step-1 variant.  The table1 rows also cite
    trinomials but carry their own residue-route rules, so they are not
    selected."""
    derived = ["thm11", "thm12", "thm13", "thm14"] + [f"thm18-{i}" for i in range(1, 11)]
    compared = 0
    for fid in derived:
        fam = lookup(fid)
        base = lookup(fam.cross[0])
        assert (fam.form, base.form) == ("delta_form", "trinomial"), fid
        assert (fam.shape, fam.s_desc, fam.applies_desc, fam.i_pairs, fam.uses_kprime) == (
            base.shape, base.s_desc, base.applies_desc, base.i_pairs, base.uses_kprime), fid
        assert fam.steps == ((2, 1) if fid == "thm14" else base.steps), fid
        assert len(fam.s_rules) == len(base.s_rules), fid
        for q in range(2, 1 << 16):
            if q**fam.m > 1 << 16:
                break
            try:
                p, k = prime_power(q)
            except ValueError:
                continue
            for kp in ((1, 2, 3) if fam.uses_kprime else (1,)):
                assert fam.applies(p, k, kp) == base.applies(p, k, kp), (fid, q, kp)
                if not fam.applies(p, k, kp):
                    continue
                compared += 1
                for v in range(len(fam.s_rules)):
                    assert (resolve_exponent(fid, q, kp, v)
                            == resolve_exponent(base.fid, q, kp, v)), (fid, q, kp, v)
    assert compared == 179
    for fid, base_id in [("thm11", "thm5"), ("thm12", "thm6"),
                         ("thm13", "thm7"), ("thm14", "thm10")]:
        assert lookup(fid).s_rules is lookup(base_id).s_rules


def test_lem16_matches_table_rows():
    """The k'-indexed trinomials and their table rows share exponents."""
    for q, kp in [(4, 1), (16, 1), (16, 2)]:
        if applicable("lem16-1", 2, int(math.log2(q)), kprime=kp):
            assert (resolve_exponent("lem16-1", q, kprime=kp)
                    == resolve_exponent("table1-r12", q, kprime=kp))
        if applicable("lem16-2", 2, int(math.log2(q)), kprime=kp):
            assert (resolve_exponent("lem16-2", q, kprime=kp)
                    == resolve_exponent("table1-r13", q, kprime=kp))
