"""Acceptance gate: ten standalone criteria, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every criterion re-derives its own data end to end; nothing here
reuses fixtures from the unit suites.
"""

import functools
import math
import random
import time

from permlab.cli import (
    RunConfig,
    build_report,
    run_family_verification,
    run_to_stable,
    smallest_table1_k,
    stable_json,
)
from permlab.ffcore import FieldCtx
from permlab.permcheck import (
    compose_f,
    is_permutation,
    lemma1_check,
    make_fn_exponent_sum,
    make_gspec,
)
from permlab.families import (
    instantiate,
    lookup,
    resolve_exponent,
    valid_coefficients,
)
from permlab.transform import (
    invert_f,
    pick_deltas,
    prop2_check,
    prop4_check,
    quadratic_form_solutions,
)
from scalar_oracle import evaluate

_FIELDS = {}


def field(p, n):
    if (p, n) not in _FIELDS:
        _FIELDS[(p, n)] = FieldCtx(p, n)
    return _FIELDS[(p, n)]


def field_for(fid, q):
    """The verification field a family uses at ground q."""
    p, k = _split(q)
    mult = 4 if lookup(fid).shape == "quartic" else 2
    return field(p, mult * k)


def _split(q):
    for p in (2, 3, 5, 7, 11, 13, 17):
        if q % p == 0:
            k = round(math.log(q, p))
            assert p**k == q
            return p, k
    raise AssertionError(q)


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                note = fn(*args, **kwargs)
            except BaseException as exc:
                dt = time.perf_counter() - t0
                print(f"{label}: FAIL ({dt:.2f}s) - {exc}", flush=True)
                raise
            dt = time.perf_counter() - t0
            print(f"{label}: PASS ({dt:.2f}s)"
                  + (f" - {note}" if note else ""), flush=True)
        return wrapper
    return deco


def _sweep(fid, q):
    """(coefficient, verdict) for every valid c of a square trinomial family."""
    fld = field_for(fid, q)
    return [(c, is_permutation(instantiate(fid, fld, c)))
            for c in valid_coefficients(fid, fld)]


# ---------------------------------------------------------------------------
# 1 + 2: square-trinomial coefficient sweeps
# ---------------------------------------------------------------------------

@criterion("C1 congruence-paired coefficient sweep")
def test_c1_every_stated_coefficient_permutes():
    t0 = time.perf_counter()
    total = 0
    for q in (9, 17, 5, 13):
        swept = _sweep("thm5", q)
        assert len(swept) == (q + 1) // 2
        for c, verdict in swept:
            assert verdict.is_permutation, (q, c.index)
        total += len(swept)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"{elapsed:.2f}s exceeds the 5 s budget"
    return f"{total} coefficients across q in (9, 17, 5, 13), zero failures"


@criterion("C2 mirrored-condition sweep")
def test_c2_mirrored_family_failures_surface():
    failures = []
    total = 0
    for q in (9, 17, 5, 13):
        for c, verdict in _sweep("thm6", q):
            total += 1
            if not verdict.is_permutation:
                failures.append((q, c.index, verdict.witness))
    # failures are listed, never patched away; none are expected
    assert not failures, f"failing (q, c, witness): {failures}"
    return f"{total} coefficients, zero failures"


# ---------------------------------------------------------------------------
# 3: the (q^2 + q + 1)/3 family plus its proof identities
# ---------------------------------------------------------------------------

@criterion("C3 third-power-sum family and unit-circle identities")
def test_c3_family_and_mu_identities():
    for q in (7, 13, 25):
        fld = field_for("thm7", q)
        s = resolve_exponent("thm7", q)
        assert s == (q * q + q + 1) // 3
        (c,) = valid_coefficients("thm7", fld)
        fn = instantiate("thm7", fld, c)
        assert is_permutation(fn).is_permutation, q

        u = (q + 2) // 3
        assert math.gcd(u, q + 1) == 1
        mu = fld.mu_subgroup(q + 1)
        assert len(mu) == q + 1
        for x in mu:
            # exponents live mod q+1 on the unit circle
            a = fld.pow(x, (1 - u) % (q + 1))
            b = fld.pow(x, u % (q + 1))
            inner = fld.sub(fld.add(fld.one, a), b)
            assert inner.index != 0, (q, x.index)
            g = fld.mul(x, fld.pow(inner, q - 1))
            assert g == fld.pow(x, u % (q + 1)), (q, x.index)
    return "q in (7, 13, 25); no inner root on mu_(q+1); restriction is x^u"


# ---------------------------------------------------------------------------
# 4: the quartic trinomial and its orbit structure
# ---------------------------------------------------------------------------

@criterion("C4 quartic trinomial (pointwise identity on S+; "
           "S- maps by sign flip, not pointwise identity)")
def test_c4_quartic_family_and_structure():
    t0 = time.perf_counter()
    for q in (3, 5, 7):
        fld = field_for("thm10", q)
        (c,) = valid_coefficients("thm10", fld)
        fn = instantiate("thm10", fld, c)
        assert is_permutation(fn).is_permutation, q

        rep_p = quadratic_form_solutions(fld, _split(q)[1], +1)
        rep_m = quadratic_form_solutions(fld, _split(q)[1], -1)
        assert rep_p.consistent and rep_m.consistent, q
        want = 8 if q == 3 else 0
        assert len(rep_p.solutions) == want, q
        assert len(rep_m.solutions) == want, q

        if q == 3:
            s_plus, s_minus = rep_p.solutions, rep_m.solutions
            for i in s_plus:
                assert evaluate(fn, fld.element_at(i)) == fld.element_at(i)
            # the unique preimage of alpha in S- is -alpha: the pointwise
            # f(a) = a reading fails there, the setwise permutation holds
            for i in s_minus:
                a = fld.element_at(i)
                img = evaluate(fn, a)
                assert img == fld.sub(fld.zero, a)
                assert img.index in s_minus
            t_set = set(range(1, fld.order)) - s_plus - s_minus
            for i in t_set:
                assert evaluate(fn, fld.element_at(i)).index in t_set
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"{elapsed:.2f}s exceeds the 30 s budget"
    return ("q in (3, 5, 7) exhaustive; solution counts 8/8 then 0/0; "
            "q=3 orbit structure checked")


# ---------------------------------------------------------------------------
# 5: shifted-argument forms, every delta
# ---------------------------------------------------------------------------

@criterion("C5 shifted forms over every delta")
def test_c5_delta_forms_exhaustive():
    plan = [("thm11", 5), ("thm12", 5), ("thm13", 7),
            ("thm14", 3), ("thm14", 5), ("thm14", 7)]
    step_votes = {}
    for fid, q in plan:
        fam = lookup(fid)
        fld = field_for(fid, q)
        for c in valid_coefficients(fid, fld):
            for step in fam.steps:
                ok = all(
                    is_permutation(
                        instantiate(fid, fld, c,
                                    delta=fld.element_at(d), step=step)
                    ).is_permutation
                    for d in range(fld.order))
                if fid == "thm14":
                    step_votes.setdefault(step, []).append(ok)
                    if step == fam.steps[0]:
                        assert ok, (fid, q, step)
                else:
                    assert ok, (fid, q, step)
    passing = sorted(s for s, v in step_votes.items() if all(v))
    failing = sorted(s for s, v in step_votes.items() if not any(v))
    assert passing == [2] and failing == [1]
    return ("thm11/thm12 at q=5, thm13 at q=7, thm14 at q in (3, 5, 7); "
            "thm14 inner-power step 2 passes, step 1 fails at every q")


# ---------------------------------------------------------------------------
# 6: the thirteen catalogued rows
# ---------------------------------------------------------------------------

@criterion("C6 catalogued rows at smallest admissible k")
def test_c6_table_rows():
    t0 = time.perf_counter()
    cfg = RunConfig()
    runs = []
    for row in range(1, 14):
        fid = f"table1-r{row}"
        k = smallest_table1_k(row, cfg.kprime)
        runs.append(run_family_verification(fid, 2**k, cfg))
    bad = [r.family for r in runs if run_to_stable(r)["summary"]["failed"]]
    assert not bad, f"failing rows: {bad}"
    assert all(r.deltas_exhaustive for r in runs)
    # exercise the sampled-delta policy on a 2^16 field with a family
    # that stays valid there
    big = field(2, 16)
    deltas, exhaustive = pick_deltas(big)
    assert not exhaustive and len(deltas) >= 64
    (c,) = valid_coefficients("thm18-1", big)
    for d in deltas:
        fn = instantiate("thm18-1", big, c, delta=big.element_at(d))
        assert is_permutation(fn).is_permutation, d
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"{elapsed:.2f}s exceeds the 2 min budget"
    n_inst = sum(run_to_stable(r)["summary"]["instances"] for r in runs)
    return (f"13/13 rows pass ({n_inst} instances, deltas exhaustive); "
            f"sampled policy exercised on 2^16 ({len(deltas)} deltas)")


# ---------------------------------------------------------------------------
# 7: multiplicative-coset reduction, randomized iff
# ---------------------------------------------------------------------------

@criterion("C7 coset reduction agrees with brute force")
def test_c7_randomized_reduction():
    rng = random.Random(90021)
    pool = [field(*pn) for pn in
            [(2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 4),
             (5, 2), (7, 2), (13, 2), (3, 5), (5, 3), (2, 8)]]
    agree = both_true = 0
    for _ in range(200):
        fld = rng.choice(pool)
        Q = fld.order
        divisors = [d for d in range(1, Q) if (Q - 1) % d == 0]
        d = rng.choice(divisors)
        r = rng.randrange(1, Q - 1)
        h_terms = [(fld.element_at(rng.randrange(1, Q)), rng.randrange(0, 6))
                   for _ in range(rng.randint(1, 3))]
        res = lemma1_check(fld, r, h_terms, d)
        assert res.consistent, (fld, r, h_terms, d)
        agree += 1
        both_true += res.reduction_verdict
    assert agree == 200
    return f"200/200 verdicts agree ({both_true} permutation cases)"


# ---------------------------------------------------------------------------
# 8: transfer machinery
# ---------------------------------------------------------------------------

@criterion("C8 companion-map transfer, equivalence, closed inverse")
def test_c8_transfer_suite():
    # one-direction transfer: randomized g over five fields
    rng = random.Random(515253)
    violations = 0
    nonvacuous = 0
    for p, n in [(3, 2), (5, 2), (7, 2), (2, 4), (2, 6)]:
        fld = field(p, n)
        for _ in range(100):
            terms = [(fld.element_at(rng.randrange(1, fld.order)),
                      rng.randrange(0, fld.order - 1))
                     for _ in range(rng.randint(1, 3))]
            g = make_gspec(fld, terms, qdeg=1)
            k = rng.randrange(1, fld.n)
            sub = [i for i in fld.subfield_indices(math.gcd(k, fld.n)) if i]
            c = fld.element_at(rng.choice(sub))
            rep = prop2_check(g, c, k)
            violations += not rep.implication_holds
            nonvacuous += rep.h_verdict.is_permutation
    assert violations == 0
    assert nonvacuous > 20

    # both-direction equivalence: every monomial over GF(9) and GF(25)
    for p in (3, 5):
        fld = field(p, 2)
        for e in range(1, fld.order - 1):
            rep = prop4_check(make_gspec(fld, [(fld.one, e)], qdeg=1))
            assert rep.iff_holds and rep.commutes_all, (p, e)

    # closed-form inverse round-trips, exhaustive over the field
    f49 = field(7, 2)
    g = make_gspec(f49, [(f49.one, 19)], qdeg=1)
    for d_idx in (0, 1, 30):
        d = f49.element_at(d_idx)
        ff = compose_f(g, f49.one, 1, d)
        for i in range(f49.order):
            alpha = evaluate(ff, f49.element_at(i))
            assert invert_f(g, f49.one, 1, d, alpha) == f49.element_at(i)
    return ("500 randomized transfers with zero violations "
            f"({nonvacuous} non-vacuous); monomial equivalence exhaustive "
            "on GF(9)/GF(25); inverse round-trips on GF(49)")


# ---------------------------------------------------------------------------
# 9: negative controls
# ---------------------------------------------------------------------------

@criterion("C9 non-permutations rejected with valid witnesses")
def test_c9_negative_controls():
    f7 = field(7, 1)
    cube = make_fn_exponent_sum(f7, [(f7.one, 3)])
    v = is_permutation(cube)
    assert not v.is_permutation and v.witness is not None
    a, b = v.witness
    assert a != b and evaluate(cube, a) == evaluate(cube, b)
    assert v.image_deficit == 4

    odd_fields = [(3, 2), (5, 2), (7, 2), (13, 2), (17, 2),
                  (3, 4), (5, 4), (7, 4)]
    for p, n in odd_fields:
        fld = field(p, n)
        sq = make_fn_exponent_sum(fld, [(fld.one, 2)])
        v = is_permutation(sq)
        assert not v.is_permutation
        a, b = v.witness
        assert a != b and evaluate(sq, a) == evaluate(sq, b)
        assert v.image_deficit == (fld.order - 1) // 2
    return f"x^3 over GF(7) and x^2 over {len(odd_fields)} odd fields"


# ---------------------------------------------------------------------------
# 10: determinism
# ---------------------------------------------------------------------------

@criterion("C10 seeded runs emit byte-identical stable sections")
def test_c10_byte_identical_reports():
    def one_pass():
        cfg = RunConfig(seed=1)
        runs = [run_family_verification("thm18-1", 256, cfg),
                run_family_verification("thm5", 9, cfg)]
        return stable_json(build_report(runs, cfg, "verify", 0.0)).encode()

    first, second = one_pass(), one_pass()
    assert first == second
    assert b'"deltas_exhaustive": false' in first   # the seed really matters
    return f"two runs, {len(first)} stable bytes each, identical"
