import math
import random

import numpy as np
import pytest

from permlab import permcheck, transform
from permlab.ffcore import FieldCtx
from permlab.permcheck import (
    DELTA_EXHAUSTIVE_CAP,
    build_inverse_table,
    compose_f,
    compose_h,
    evaluate_all,
    is_permutation,
    make_fn_exponent_sum,
    make_gspec,
    pair_verdicts,
)
from permlab.transform import (
    DELTA_SAMPLES,
    invert_f,
    pick_deltas,
    prop2_check,
    prop4_check,
    quadratic_form_solutions,
    trace_coset,
)
from scalar_oracle import evaluate, make_fn_delta, make_fn_trinomial

_FIELDS = {}


def field(p, n):
    if (p, n) not in _FIELDS:
        _FIELDS[(p, n)] = FieldCtx(p, n)
    return _FIELDS[(p, n)]


def g_fn(g):
    """g alone as a checkable map, for scalar and bulk reads of g."""
    return make_fn_exponent_sum(g.field, [(g.field.element_at(ci), e) for ci, e in g.terms])


# ---------------------------------------------------------------------------
# g construction
# ---------------------------------------------------------------------------

def test_make_gspec_merges_and_reduces():
    f = field(3, 2)
    two = f.element_at(2)
    g = make_gspec(f, [(f.one, 3), (f.one, 11), (two, 0)], qdeg=1)
    # 11 = 3 mod 8 so the two cubic terms merge to coefficient 2
    assert g.terms == ((2, 0), (2, 3))
    assert g.qdeg == 1 and g.m == 2
    x = f.element_at(5)
    want = f.add(two, f.mul(two, f.pow(x, 3)))
    assert evaluate(g_fn(g), x) == want


def test_make_gspec_default_view_splits_evenly():
    f = field(2, 4)
    g = make_gspec(f, [(f.one, 2)])
    assert g.qdeg == 2 and g.m == 2
    with pytest.raises(ValueError):
        make_gspec(field(2, 3), [(field(2, 3).one, 1)])   # odd degree, no qdeg
    with pytest.raises(ValueError):
        make_gspec(f, [(f.one, 1)], qdeg=3)
    with pytest.raises(ValueError):
        make_gspec(f, [(f.one, 1)], qdeg=4)               # must be proper
    with pytest.raises(ValueError):
        make_gspec(f, [(f.one, -2)], qdeg=1)


def test_make_gspec_coefficient_degree():
    f = field(3, 4)
    in_base = make_gspec(f, [(f.element_at(2), 5)], qdeg=1)
    assert in_base.coeff_subdeg == 1
    wide = make_gspec(f, [(f.element_at(7), 5)], qdeg=1)
    assert wide.coeff_subdeg > 1


def test_cancelling_terms_leave_empty_g():
    f = field(5, 2)
    four = f.element_at(4)   # -1
    g = make_gspec(f, [(f.one, 3), (four, 3)], qdeg=1)
    assert g.terms == ()
    assert evaluate(g_fn(g), f.element_at(7)) == f.zero


# ---------------------------------------------------------------------------
# composed maps agree with the direct constructors
# ---------------------------------------------------------------------------

def test_compose_h_monomial_equals_trinomial():
    # g = x^s turns h into c*x - x^s + x^(q s)
    f = field(7, 2)
    g = make_gspec(f, [(f.one, 19)], qdeg=1)
    h = compose_h(g, f.one, 1)
    tri = make_fn_trinomial(f, f.one, 19, qdeg=1)
    assert np.array_equal(evaluate_all(h), evaluate_all(tri))
    assert is_permutation(h).is_permutation


def test_compose_f_monomial_equals_delta_form():
    f = field(5, 2)
    d = f.element_at(8)
    g = make_gspec(f, [(f.one, 9)], qdeg=1)
    ff = compose_f(g, f.one, 1, d)
    direct = make_fn_delta(f, f.one, 9, 1, d, qdeg=1)
    assert np.array_equal(evaluate_all(ff), evaluate_all(direct))


def test_compose_f_identity_g_is_shifted_frobenius():
    # g = x: f(x) = x^q - x + delta + x = x^q + delta
    f = field(3, 2)
    d = f.element_at(4)
    g = make_gspec(f, [(f.one, 1)], qdeg=1)
    ff = compose_f(g, f.one, 1, d)
    for i in range(f.order):
        x = f.element_at(i)
        assert evaluate(ff, x) == f.add(f.frobenius(x, 1), d)
    assert is_permutation(ff).is_permutation


def test_compose_validation():
    f = field(3, 2)
    g = make_gspec(f, [(f.one, 2)], qdeg=1)
    with pytest.raises(ValueError):
        compose_h(g, f.one, 0)
    with pytest.raises(ValueError):
        compose_h(g, f.one, 2)     # k must stay below m
    with pytest.raises(ValueError):
        compose_h(g, f.zero, 1)
    with pytest.raises(ValueError):
        compose_f(g, f.zero, 1, f.one)


# ---------------------------------------------------------------------------
# delta sweep policy
# ---------------------------------------------------------------------------

def test_pick_deltas_exhaustive_small():
    f = field(7, 2)
    ds, exhaustive = pick_deltas(f)
    assert exhaustive and ds == tuple(range(49))
    # above the cap, a seeded sample that draws every element is exhaustive
    # too, and one that draws fewer is not
    f = field(2, 4)
    assert pick_deltas(f, cap=8, samples=16) == (tuple(range(16)), True)
    ds, exhaustive = pick_deltas(f, cap=8, samples=8)
    assert not exhaustive and len(ds) < 16


def test_pick_deltas_sampled_large():
    f = field(2, 15)
    assert f.order > DELTA_EXHAUSTIVE_CAP
    ds, exhaustive = pick_deltas(f)
    assert not exhaustive
    assert DELTA_SAMPLES <= len(ds) <= DELTA_SAMPLES + 2
    assert 0 in ds and 1 in ds
    assert ds == tuple(sorted(ds))
    assert ds == pick_deltas(f)[0]                 # same seed, same picks
    assert ds != pick_deltas(f, seed=99)[0]


# ---------------------------------------------------------------------------
# h => f transfer
# ---------------------------------------------------------------------------

def test_prop2_positive_monomial():
    f = field(7, 2)
    g = make_gspec(f, [(f.one, 19)], qdeg=1)
    rep = prop2_check(g, f.one, 1)
    assert rep.h_verdict.is_permutation
    assert rep.deltas_exhaustive and len(rep.f_results) == 49
    assert rep.f_all_permute and rep.implication_holds
    assert rep.failing_deltas == ()


def test_prop2_vacuous_when_h_fails():
    f = field(3, 2)
    g = make_gspec(f, [(f.one, 2)], qdeg=1)
    rep = prop2_check(g, f.one, 1)
    assert not rep.h_verdict.is_permutation
    assert rep.implication_holds        # nothing claimed when h fails
    assert rep.failing_deltas == (1, 4, 7)


def test_prop2_coefficient_domain_enforced():
    # k = 1, m = 4 forces c into the base field GF(2)
    f = field(2, 4)
    g = make_gspec(f, [(f.one, 3)], qdeg=1)
    with pytest.raises(ValueError):
        prop2_check(g, f.element_at(2), 1)
    # k = 2 widens the domain to GF(4) = {0, 1, 6, 7} here
    assert f.is_in_subfield(f.element_at(6), 2)
    rep = prop2_check(g, f.element_at(6), 2)
    assert rep.implication_holds


def test_prop2_explicit_delta_override():
    f = field(7, 2)
    g = make_gspec(f, [(f.one, 19)], qdeg=1)
    rep = prop2_check(g, f.one, 1, deltas=(0, 1, 5))
    assert len(rep.f_results) == 3 and not rep.deltas_exhaustive
    full = prop2_check(g, f.one, 1, deltas=tuple(range(49)))
    assert full.deltas_exhaustive


def test_prop2_randomized_never_violated():
    rng = random.Random(20240817)
    fields = [field(3, 2), field(5, 2), field(7, 2), field(2, 4), field(2, 6)]
    checked = 0
    for trial in range(40):
        f = rng.choice(fields)
        qdeg = 1
        m = f.n
        nterms = rng.randint(1, 3)
        terms = [(f.element_at(rng.randrange(1, f.order)),
                  rng.randrange(0, f.order - 1)) for _ in range(nterms)]
        g = make_gspec(f, terms, qdeg=qdeg)
        k = rng.randrange(1, m)
        import math
        sub = f.subfield_indices(qdeg * math.gcd(k, m))
        c = f.element_at(rng.choice([i for i in sub if i]))
        rep = prop2_check(g, c, k)
        assert rep.implication_holds, (f, terms, k, c.index)
        checked += rep.h_verdict.is_permutation
    assert checked >= 3   # the sweep must exercise the non-vacuous branch


# every view GF(q^m) of GF(2^4), GF(2^6), GF(3^4), GF(5^2) and GF(7^2), q =
# p^qdeg, at every Frobenius step 1 <= k < m
PROP2_CASES = [(p, n, qdeg, k) for p, n in [(2, 4), (2, 6), (3, 4), (5, 2), (7, 2)]
               for qdeg in range(1, n) if n % qdeg == 0
               for k in range(1, n // qdeg)]


def _prop2_draw(f, qdeg, k, anchored, rng):
    """g and c for prop2_check.  An anchored g = a*x^e has e a multiple of
    (Q-1)/(q^l-1), so g maps into GF(q^l), h = c*x and every f_d permutes;
    otherwise g is a random binomial."""
    m = f.n // qdeg
    ql = f.p ** (qdeg * math.gcd(k, m))
    if anchored:
        terms = [(f.element_at(rng.randrange(1, f.p)),
                  rng.randrange(1, ql) * ((f.order - 1) // (ql - 1)))]
    else:
        terms = [(f.element_at(rng.randrange(1, f.order)),
                  rng.randrange(1, f.order - 1)) for _ in range(2)]
    sub = f.subfield_indices(qdeg * math.gcd(k, m))
    return make_gspec(f, terms, qdeg=qdeg), f.element_at(rng.choice([i for i in sub if i]))


def _verdict_key(v):
    wit = None if v.witness is None else (v.witness[0].index, v.witness[1].index)
    return v.is_permutation, v.image_deficit, wit


@pytest.mark.parametrize("p, n, qdeg, k", PROP2_CASES)
@pytest.mark.parametrize("anchored", [True, False])
def test_prop2_f_results_match_per_delta_brute_force(p, n, qdeg, k, anchored):
    """prop2_check decides f through the fibre engine; the per-delta
    is_permutation loop it replaced stays here as the oracle, compared on
    verdict, image deficit and witness at every delta."""
    f = field(p, n)
    g, c = _prop2_draw(f, qdeg, k, anchored, random.Random(f"{p}-{n}-{qdeg}-{k}"))
    rep = prop2_check(g, c, k)
    assert [d for d, _ in rep.f_results] == list(range(f.order))
    want = [_verdict_key(is_permutation(compose_f(g, c, k, f.element_at(d))))
            for d in range(f.order)]
    assert [_verdict_key(v) for _, v in rep.f_results] == want
    if anchored:
        assert rep.h_verdict.is_permutation and rep.f_all_permute


@pytest.mark.parametrize("check", [lambda g: prop2_check(g, g.field.one, 1), prop4_check],
                         ids=["prop2_check", "prop4_check"])
@pytest.mark.parametrize("p, s, plant", [
    # x^19 over GF(49): every f_d permutes; a nonzero deficit planted at 0
    (7, 19, lambda d: d.__setitem__(0, 1)),
    # x^2 over GF(9) fails at deltas 1, 4, 7; every deficit planted as 0,
    # which only the probe of each fibre can catch
    (3, 2, lambda d: d.fill(0)),
])
def test_prop2_planted_fibre_deficit_raises(monkeypatch, p, s, plant, check):
    f = field(p, 2)
    g = make_gspec(f, [(f.one, s)], qdeg=1)
    real = permcheck._trace_deficits

    def planted(*args):
        out = real(*args)
        plant(out)
        return out

    monkeypatch.setattr(permcheck, "_trace_deficits", planted)
    with pytest.raises(RuntimeError, match="disagree"):
        check(g)


# ---------------------------------------------------------------------------
# closed-form inverse
# ---------------------------------------------------------------------------

def test_invert_f_round_trip_exhaustive():
    f = field(7, 2)
    g = make_gspec(f, [(f.one, 19)], qdeg=1)
    h_inv = build_inverse_table(compose_h(g, f.one, 1))
    for d_idx in (0, 1, 23):
        d = f.element_at(d_idx)
        ff = compose_f(g, f.one, 1, d)
        for i in range(f.order):
            alpha = evaluate(ff, f.element_at(i))
            back = invert_f(g, f.one, 1, d, alpha, h_inverse=h_inv)
            assert back == f.element_at(i)


def test_invert_f_wide_step_and_coefficient():
    # k = 2 over GF(16): c may come from GF(4)*
    f = field(2, 4)
    g = make_gspec(f, [(f.one, 5)], qdeg=1)
    cs = [f.element_at(i) for i in f.subfield_indices(2) if i]
    assert len(cs) == 3
    for c in cs:
        assert is_permutation(compose_h(g, c, 2)).is_permutation
        d = f.element_at(9)
        ff = compose_f(g, c, 2, d)
        outs = evaluate_all(ff)
        assert is_permutation(ff).is_permutation
        for i in range(f.order):
            alpha = f.element_at(int(outs[i]))
            assert invert_f(g, c, 2, d, alpha) == f.element_at(i)


def test_invert_f_rejects_out_of_domain_coefficient():
    f = field(2, 4)
    g = make_gspec(f, [(f.one, 5)], qdeg=1)
    with pytest.raises(ValueError):
        invert_f(g, f.element_at(2), 1, f.zero, f.one)


def scalar_invert_f(g, c, k, delta, alpha, h_inverse):
    """The per-point closed formula invert_f evaluated before its bulk table
    (about a dozen scalar field operations per alpha), kept as an oracle."""
    fld = g.field
    w = fld.add(fld.sub(fld.frobenius(alpha, g.qdeg * k), alpha), fld.mul(c, delta))
    y = fld.element_at(int(h_inverse[w.index]))
    return fld.div(fld.sub(alpha, evaluate(g_fn(g), y)), c)


def _views(n):
    """(qdeg, k) of every GF(q) view of GF(p^n) and every step."""
    return [(qd, k) for qd in range(1, n) if n % qd == 0 for k in range(1, n // qd)]


def _anchored(g, sub):
    return set(evaluate_all(g_fn(g)).tolist()) <= sub


def _permuting_pairs(f, qdeg, k):
    """(g, c) with h permuting, for every c in GF(q^l)*: two anchored g
    (values in GF(q^l), so h = c*x) at every c, then the first three
    monomials and two seeded binomials off GF(q^l) a brute-force scan finds,
    each at the c where its h permutes.  Returns (anchored, scanned)."""
    Q = f.order
    sub = f.subfield_indices(qdeg * math.gcd(k, f.n // qdeg))
    cs = [f.element_at(i) for i in sorted(sub) if i]
    norm = (Q - 1) // len(cs)                     # x^norm maps into GF(q^l)
    anchored, scanned = [], []
    for terms in ([(f.one, norm)], [(cs[-1], 2 * norm), (cs[0], 0)]):
        g = make_gspec(f, terms, qdeg)
        assert _anchored(g, sub)
        anchored += [(g, c) for c in cs]
    rng = random.Random(Q * 100 + qdeg * 10 + k)
    draws = ([[(f.one, s)] for s in range(1, Q - 1)],
             [[(f.one, rng.randrange(1, Q - 1)),
               (f.element_at(rng.randrange(1, Q)), rng.randrange(1, Q - 1))]
              for _ in range(300)])
    for found, candidates in zip((3, 2), draws):
        for terms in candidates:
            g = make_gspec(f, terms, qdeg)
            if not g.terms or _anchored(g, sub):
                continue
            hits = [c for c, ok in zip(cs, pair_verdicts(g, k, cs)[0].permutes.tolist()) if ok]
            scanned += [(g, c) for c in hits]
            found -= bool(hits)
            if not found:
                break
    return anchored, scanned


@pytest.mark.parametrize("p, n", [(2, 4), (2, 6), (3, 4), (5, 2), (7, 2)])
def test_f_inverse_table_is_the_inverse_of_f(p, n):
    """Third route to f^(-1): the bulk closed formula equals the dense
    inverse of f's value table, in every view, at every step and every c in
    GF(q^l)*, at delta = 0 and one delta in every trace fibre onto GF(q^l);
    the per-point formula agrees on sampled alpha."""
    f = field(p, n)
    rng = random.Random(p * 100 + n)
    scanned_pairs = 0
    for qdeg, k in _views(n):
        tr = f.bulk().trace(qdeg * math.gcd(k, n // qdeg))
        _, last = np.unique(tr[::-1], return_index=True)
        deltas = [f.zero] + [f.element_at(f.order - 1 - int(i)) for i in last]
        anchored, scanned = _permuting_pairs(f, qdeg, k)
        scanned_pairs += len(scanned)
        for g, c in anchored + scanned:
            h_inv = build_inverse_table(compose_h(g, c, k))
            for d in deltas:
                table = transform._f_inverse_table(g, c, k, d, h_inv)
                assert np.array_equal(table, build_inverse_table(compose_f(g, c, k, d))), \
                    (qdeg, k, g.terms, c, d)
                for a in rng.sample(range(f.order), 4):
                    assert scalar_invert_f(g, c, k, d, f.element_at(a), h_inv).index == table[a]
    assert scanned_pairs


def _slot_cases():
    """(g, c, k, delta, h^(-1)) over three fields, two deltas each, every h
    permuting.  g = x at c = 1 appears over GF(9) and over GF(49): two keys
    that differ only in the field."""
    cases = []
    for (p, n), terms, k, cs in (((7, 2), [(1, 3), (1, 9)], 1, (3, 5)),
                                 ((7, 2), [(1, 1)], 1, (1, 3)),
                                 ((3, 2), [(1, 1)], 1, (1,)),
                                 ((2, 4), [(1, 5)], 2, (6, 7))):
        f = field(p, n)
        g = make_gspec(f, [(f.element_at(ci), e) for ci, e in terms], 1)
        for c in map(f.element_at, cs):
            h_inv = build_inverse_table(compose_h(g, c, k))
            cases += [(g, c, k, f.element_at(di), h_inv) for di in (0, 5)]
    return cases


def test_invert_f_slot_serves_interleaved_keys_and_tables():
    """Calls that alternate between fields, c, deltas, and h_inverse given as
    None, as a table, or as an equal but distinct copy of it all return the
    per-point formula's preimage."""
    rng = random.Random(15)
    cases = _slot_cases()
    for _ in range(400):
        g, c, k, d, h_inv = rng.choice(cases)
        alpha = g.field.element_at(rng.randrange(g.field.order))
        supplied = rng.choice((None, h_inv, h_inv.copy()))
        assert (invert_f(g, c, k, d, alpha, h_inverse=supplied)
                == scalar_invert_f(g, c, k, d, alpha, h_inv))


def test_invert_f_sweep_fills_the_slot_once(monkeypatch):
    """A full alpha sweep with h_inverse supplied evaluates the formula once
    and never rebuilds h's inverse."""
    f = field(7, 2)
    g = make_gspec(f, [(f.one, 19)], qdeg=1)
    d = f.element_at(23)
    h_inv = build_inverse_table(compose_h(g, f.one, 1))
    monkeypatch.setattr(transform, "_F_INVERSE", None)
    fills, builds = [], []
    for name, calls in (("_f_inverse_table", fills), ("build_inverse_table", builds)):
        real = getattr(transform, name)
        monkeypatch.setattr(transform, name,
                            lambda *a, real=real, calls=calls: calls.append(a) or real(*a))
    back = [invert_f(g, f.one, 1, d, alpha, h_inverse=h_inv).index for alpha in f.elements()]
    assert np.array_equal(evaluate_all(compose_f(g, f.one, 1, d))[back], np.arange(f.order))
    assert len(fills) == 1 and builds == []


def test_invert_f_refuses_bad_input_and_keeps_no_poisoned_slot():
    f, other = field(7, 2), field(2, 4)
    g = make_gspec(f, [(f.one, 19)], qdeg=1)
    d = f.element_at(23)
    h_inv = build_inverse_table(compose_h(g, f.one, 1))
    outs = evaluate_all(compose_f(g, f.one, 1, d))
    g_bad = make_gspec(f, [(f.one, 2)], qdeg=1)
    assert not is_permutation(compose_h(g_bad, f.one, 1)).is_permutation
    swapped = h_inv.copy()
    swapped[[3, 4]] = swapped[[4, 3]]
    bad_calls = [
        lambda: invert_f(g_bad, f.one, 1, d, f.one),                    # h not bijective
        lambda: invert_f(g_bad, f.one, 1, d, f.one, h_inverse=h_inv),   # ... h_inverse for another h
        lambda: invert_f(g, f.one, 1, d, other.one, h_inverse=h_inv),   # foreign alpha
        lambda: invert_f(g, f.one, 1, other.one, f.one, h_inverse=h_inv),   # foreign delta
        lambda: invert_f(g, f.element_at(8), 1, d, f.one),              # c outside GF(7)
    ] + [lambda bogus=bogus: invert_f(g, f.one, 1, d, f.one, h_inverse=bogus)
         for bogus in (swapped, h_inv[:-1], h_inv.astype(float), h_inv + f.order,
                       h_inv - f.order, np.zeros(f.order, dtype=np.int64))]
    rng = random.Random(7)
    for bad in bad_calls:
        with pytest.raises(ValueError):
            bad()
        for supplied in (h_inv, None):
            x = rng.randrange(f.order)
            assert invert_f(g, f.one, 1, d, f.element_at(int(outs[x])),
                            h_inverse=supplied) == f.element_at(x)


# ---------------------------------------------------------------------------
# trace fibers
# ---------------------------------------------------------------------------

def test_trace_coset_sizes_and_membership():
    f = field(3, 4)
    cs = trace_coset(f, f.zero, qdeg=1)
    assert cs.size == 27 and cs.alpha == 0
    assert 0 in cs.members
    cs2 = trace_coset(f, f.zero, qdeg=2)
    assert cs2.size == 9
    cs3 = trace_coset(field(2, 6), field(2, 6).element_at(5), qdeg=3)
    assert cs3.size == 8


def test_trace_coset_image_is_shift_invariant():
    # delta and delta' with equal trace give the same fiber
    f = field(7, 2)
    base = trace_coset(f, f.element_at(3), qdeg=1)
    twin = None
    for i in range(f.order):
        cand = trace_coset(f, f.element_at(i), qdeg=1)
        if i != 3 and cand.alpha == base.alpha:
            twin = cand
            break
    assert twin is not None and twin.members == base.members


def test_trace_coset_partitions_field():
    f = field(3, 2)
    seen = {}
    for i in range(f.order):
        cs = trace_coset(f, f.element_at(i), qdeg=1)
        seen.setdefault(cs.alpha, set()).update(cs.members)
    assert sorted(seen) == [0, 1, 2]
    assert sum(len(v) for v in seen.values()) == f.order
    assert set.union(*seen.values()) == set(range(f.order))


def test_trace_coset_validation():
    f = field(3, 4)
    with pytest.raises(ValueError):
        trace_coset(f, f.zero, qdeg=3)
    with pytest.raises(ValueError):
        trace_coset(f, f.zero, qdeg=4)
    with pytest.raises(ValueError):
        trace_coset(f, field(3, 2).zero, qdeg=1)


# ---------------------------------------------------------------------------
# the k = 1, c = 1 equivalence
# ---------------------------------------------------------------------------

def test_prop4_identity_g():
    f = field(3, 2)
    g = make_gspec(f, [(f.one, 1)], qdeg=1)
    rep = prop4_check(g)
    assert rep.h_verdict.is_permutation and rep.f_all_permute
    assert rep.iff_holds and rep.commutes_all and rep.fibers_stable


def test_prop4_single_delta_is_not_enough():
    """g = x^2 over GF(9): 6 of 9 shifts permute while h does not, so any
    per-delta reading of the equivalence is false; quantified over all
    deltas it holds."""
    f = field(3, 2)
    g = make_gspec(f, [(f.one, 2)], qdeg=1)
    rep = prop4_check(g)
    assert not rep.h_verdict.is_permutation
    passing = [d for d, v in rep.f_results if v.is_permutation]
    assert passing == [0, 2, 3, 5, 6, 8]
    assert not rep.f_all_permute
    assert rep.iff_holds
    assert rep.commutes_all and rep.fibers_stable


def test_prop4_rejects_wide_coefficients():
    f = field(3, 4)
    g = make_gspec(f, [(f.element_at(7), 2)], qdeg=1)
    assert g.coeff_subdeg > 1
    with pytest.raises(ValueError):
        prop4_check(g)


def test_prop4_exhaustive_monomial_slice():
    # a slice of the exponent range; the acceptance gate runs it in full
    f = field(3, 2)
    for e in range(1, 20):
        g = make_gspec(f, [(f.one, e)], qdeg=1)
        rep = prop4_check(g)
        assert rep.iff_holds and rep.commutes_all and rep.fibers_stable, e


# every GF(q) view of GF(2^4), GF(2^6), GF(3^4), GF(5^2) and GF(7^2), q = p^qdeg
PROP4_VIEWS = [(p, n, qdeg) for p, n in [(2, 4), (2, 6), (3, 4), (5, 2), (7, 2)]
               for qdeg in range(1, n) if n % qdeg == 0]


def _prop4_draw(f, qdeg, kind, rng):
    """g over GF(q) for prop4_check.  An anchored x^e has e a multiple of
    (Q-1)/(q-1), so g maps into GF(q) and h = x permutes; otherwise a random
    monomial, or a random binomial with coefficients in GF(q)."""
    q = f.p ** qdeg
    if kind == "anchored":
        terms = [(f.one, rng.randrange(1, q) * ((f.order - 1) // (q - 1)))]
    elif kind == "monomial":
        terms = [(f.one, rng.randrange(1, f.order - 1))]
    else:
        sub = sorted(f.subfield_indices(qdeg) - {0})
        terms = [(f.element_at(rng.choice(sub)), rng.randrange(1, f.order - 1))
                 for _ in range(2)]
    return make_gspec(f, terms, qdeg=qdeg)


def _prop4_brute(g):
    """The per-delta loop prop4_check replaced: h's value table, then at
    every delta f_delta's verdict from its own table and the commuting
    square phi o f_delta == h o phi."""
    f = g.field
    bulk = f.bulk()
    ho = evaluate_all(compose_h(g, f.one, 1))
    verdicts, squares = [], []
    for d in range(f.order):
        f_fn = compose_f(g, f.one, 1, f.element_at(d))
        fo = evaluate_all(f_fn)
        verdicts.append(is_permutation(f_fn))
        phi_xs = bulk.add(bulk.shift_base(g.qdeg), np.int64(d))
        phi_fo = bulk.add(bulk.sub(bulk.frob(fo, g.qdeg), fo), np.int64(d))
        squares.append(bool(np.array_equal(phi_fo, ho[phi_xs])))
    tr = bulk.trace(g.qdeg)
    return (is_permutation(compose_h(g, f.one, 1)), verdicts, all(squares),
            bool(np.array_equal(tr[ho], tr)))


@pytest.mark.parametrize("p, n, qdeg", PROP4_VIEWS)
@pytest.mark.parametrize("kind", ["anchored", "monomial", "binomial"])
def test_prop4_f_results_match_per_delta_brute_force(p, n, qdeg, kind):
    """prop4_check decides h and every f_delta through the fibre engine and
    checks the square once per trace fibre; the per-delta loop it replaced
    stays here as the oracle, compared on verdict, image deficit and
    witness at every delta."""
    f = field(p, n)
    g = _prop4_draw(f, qdeg, kind, random.Random(f"{p}-{n}-{qdeg}-{kind}"))
    rep = prop4_check(g)
    h_v, f_vs, commutes, stable = _prop4_brute(g)
    assert [d for d, _ in rep.f_results] == list(range(f.order))
    assert rep.deltas_exhaustive
    assert [_verdict_key(v) for _, v in rep.f_results] == [_verdict_key(v) for v in f_vs]
    assert _verdict_key(rep.h_verdict) == _verdict_key(h_v)
    assert rep.commutes_all == commutes
    assert rep.fibers_stable == stable
    assert rep.iff_holds
    if kind == "anchored":
        assert rep.h_verdict.is_permutation and rep.f_all_permute


def test_prop4_evaluates_f_once_per_trace_fibre(monkeypatch):
    """Anchored x^28 over GF(3^6) with q = 27: every f_delta permutes, so the
    engine evaluates f only at the probe of each of the 27 trace fibres, a
    row of G_d = g(x^q - x + d) each, every probe once, and scatters none
    of them; the commuting square scatters h's table alone."""
    f = field(3, 6)
    g = make_gspec(f, [(f.one, 28)], qdeg=3)
    rows, scattered = [], []
    real, real_i = permcheck._g_rows, permcheck._index_order
    monkeypatch.setattr(permcheck, "_g_rows",
                        lambda *args: rows.extend(args[3].tolist()) or real(*args))
    monkeypatch.setattr(permcheck, "_index_order",
                        lambda bulk, row, lc: scattered.append(lc) or real_i(bulk, row, lc))
    rep = prop4_check(g)
    assert rep.f_all_permute and rep.commutes_all and rep.deltas_exhaustive
    tr = f.bulk().trace(3)
    assert len(rows) == len(set(rows)) == len(set(tr[rows].tolist())) == 27
    # h's table, for the square, adds c*x = x (log 0) as it scatters
    assert scattered == [0]


def _swapped(real, a, b):
    """real with entries a and b of its result swapped."""
    def corrupt(*args):
        out = real(*args).copy()
        out[[a, b]] = out[[b, a]]
        return out
    return corrupt


@pytest.mark.parametrize("p, n, qdeg, e", [(3, 6, 3, 5), (3, 6, 3, 91), (3, 6, 3, 28),
                                           (2, 10, 5, 5), (2, 10, 5, 91),
                                           (5, 4, 2, 5), (5, 4, 2, 91)])
@pytest.mark.parametrize("corrupted", ["g", "h", "u"])
def test_a_corrupt_evaluator_breaks_the_square(monkeypatch, p, n, qdeg, e, corrupted):
    """The square compares two evaluators of g: h's table from u, by exp
    gathers of Frobenius, and f_delta's from g's direct powers over the
    field.  Swapping the entries at 0 and gamma of either table, g's ("g")
    or h's ("h"), makes commutes_all False; swapping two of u ("u"),
    which the engine reads too, makes commutes_all False or the engine
    raise.  Anchored x^28 over GF(3^6) maps into GF(27), where the square
    holds for every g table and u is 0, so swapping g's or u's entries
    keeps it True."""
    f = field(p, n)
    g = make_gspec(f, [(f.one, e)], qdeg=qdeg)
    assert prop4_check(g).commutes_all
    module, name = {"g": (transform, "_eval_terms_all"), "h": (transform, "evaluate_all"),
                    "u": (permcheck, "_log_order_u")}[corrupted]
    monkeypatch.setattr(module, name, _swapped(getattr(module, name), 0, f.bulk().exp[1]))
    try:
        commutes = prop4_check(g).commutes_all
    except RuntimeError:
        assert corrupted == "u" and e != 28
        return
    assert commutes == (corrupted != "h" and e == 28)


@pytest.mark.parametrize("p, s, h_tables", [(7, 19, 0), (3, 2, 1)])
def test_prop2_scatters_h_only_when_it_fails(monkeypatch, p, s, h_tables):
    """prop2_check reads h's verdict off the mask of its values: h's
    index-order table is built only for a failing h's witness (x^2 over
    GF(9)), and never for a permuting one (x^19 over GF(49)).  h's tables
    are the scatters made before the first row of G_d is built."""
    f = field(p, 2)
    g = make_gspec(f, [(f.one, s)], qdeg=1)
    events = []
    real, real_g = permcheck._index_order, permcheck._g_rows
    monkeypatch.setattr(permcheck, "_index_order",
                        lambda bulk, row, lc: events.append(lc) or real(bulk, row, lc))
    monkeypatch.setattr(permcheck, "_g_rows",
                        lambda *args: events.append("G") or real_g(*args))
    rep = prop2_check(g, f.one, 1)
    assert rep.h_verdict.is_permutation == (h_tables == 0)
    assert events.index("G") == h_tables


# ---------------------------------------------------------------------------
# the binary-form side computation
# ---------------------------------------------------------------------------

def test_quadratic_form_counts():
    rep_p = quadratic_form_solutions(field(3, 4), 1, +1)
    rep_m = quadratic_form_solutions(field(3, 4), 1, -1)
    assert rep_p.consistent and rep_m.consistent
    assert len(rep_p.solutions) == 8 and len(rep_m.solutions) == 8
    assert not rep_p.solutions & rep_m.solutions
    for p in (5, 7):
        rep = quadratic_form_solutions(field(p, 4), 1, +1)
        assert rep.consistent and rep.solutions == frozenset()


def test_quadratic_form_characterization():
    # the predicted set really is {x != 0 : x^(q^2-1) = sign * 1}
    f = field(3, 4)
    rep = quadratic_form_solutions(f, 1, +1)
    for idx in rep.solutions:
        assert f.pow(f.element_at(idx), 8) == f.one
    rep_m = quadratic_form_solutions(f, 1, -1)
    minus_one = f.sub(f.zero, f.one)
    for idx in rep_m.solutions:
        assert f.pow(f.element_at(idx), 8) == minus_one


def test_quadratic_form_nine():
    rep = quadratic_form_solutions(field(3, 8), 2, +1)
    assert rep.consistent and len(rep.solutions) == 80


def test_quadratic_form_validation():
    with pytest.raises(ValueError):
        quadratic_form_solutions(field(3, 4), 1, 0)
    with pytest.raises(ValueError):
        quadratic_form_solutions(field(3, 2), 1, 1)
    with pytest.raises(ValueError):
        quadratic_form_solutions(field(3, 4), 2, 1)
