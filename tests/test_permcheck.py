import inspect
import json
import math
import random
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permlab import cli, permcheck, transform
from permlab.ffcore import FieldCtx, prime_power
from permlab.permcheck import (
    ROUTES,
    build_inverse_table,
    compose_f,
    compose_h,
    evaluate_all,
    is_permutation,
    lemma1_assemble,
    lemma1_check,
    make_fn_exponent_sum,
    make_gspec,
    pair_verdicts,
    prefix_size,
    prefix_survivors,
    reduce_exponent,
    trinomial_hits,
)
from permlab.transform import prop2_check, prop4_check
from scalar_oracle import (evaluate, first_collision, log_order_u_by_division, make_fn_delta,
                           make_fn_trinomial)

_FIELDS = {}


def field(p, n):
    if (p, n) not in _FIELDS:
        _FIELDS[(p, n)] = FieldCtx(p, n)
    return _FIELDS[(p, n)]


# ---------------------------------------------------------------------------
# exponent reduction
# ---------------------------------------------------------------------------

def test_reduce_exponent_range_and_fixed_points():
    assert reduce_exponent(1, 49) == 1
    assert reduce_exponent(48, 49) == 48
    assert reduce_exponent(49, 49) == 1
    assert reduce_exponent(96, 49) == 48
    assert reduce_exponent(1, 2) == 1
    assert reduce_exponent(133, 49) == 37   # 7 * 19 for the q = 7 trinomial


def test_reduce_exponent_preserves_power_map():
    f = field(3, 2)
    for e in range(1, 40):
        r = reduce_exponent(e, f.order)
        assert 1 <= r <= f.order - 1
        for x in f.elements():
            assert f.pow(x, e) == f.pow(x, r)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def test_trinomial_frozen_exponents_q7():
    f = field(7, 2)
    fn = make_fn_trinomial(f, f.one, 19)
    assert fn.side == "h" and fn.terms == ((1, 19),)
    assert fn.pstep == 1
    assert reduce_exponent(f.p**fn.pstep * 19, f.order) == 37
    assert is_permutation(fn).is_permutation


def test_trinomial_frozen_exponents_quartic_q3():
    # the quartic shape uses the q^2 Frobenius: x^33 maps to x^(9*33 mod 80)
    f = field(3, 4)
    fn = make_fn_trinomial(f, f.one, 33, k=2, qdeg=1)
    assert fn.side == "h" and fn.terms == ((1, 33),)
    assert fn.pstep == 2
    assert reduce_exponent(f.p**fn.pstep * 33, f.order) == 57
    assert is_permutation(fn).is_permutation


def test_trinomial_rejects_degenerate_exponent():
    f = field(3, 2)
    with pytest.raises(ValueError):
        make_fn_trinomial(f, f.one, 8)    # 8 = order - 1: x^8 is 0/1-valued
    with pytest.raises(ValueError):
        make_fn_trinomial(f, f.one, 16)
    with pytest.raises(ValueError):
        make_fn_trinomial(f, f.zero, 3)


def test_trinomial_evaluation_matches_formula():
    f = field(5, 2)
    c = f.element_at(7)
    fn = make_fn_trinomial(f, c, 9)
    for x in f.elements():
        want = f.add(f.sub(f.mul(c, x), f.pow(x, 9)), f.pow(x, 5 * 9))
        assert evaluate(fn, x) == want


def test_delta_evaluation_matches_formula():
    f = field(3, 2)
    c, d = f.one, f.element_at(5)
    fn = make_fn_delta(f, c, 7, 1, d)
    for x in f.elements():
        inner = f.add(f.sub(f.frobenius(x, 1), x), d)
        want = f.add(f.pow(inner, 7), f.mul(c, x))
        assert evaluate(fn, x) == want


def test_exponent_sum_merges_and_cancels():
    f = field(3, 2)
    two = f.scalar(2)
    fn = make_fn_exponent_sum(f, [(f.one, 5), (f.one, 5)])
    assert fn.terms == ((two.index, 5),)
    # exponents equal after reduction mod order-1 must merge too
    fn2 = make_fn_exponent_sum(f, [(f.one, 3), (f.one, 11)])
    assert fn2.terms == ((two.index, 3),)
    # exact cancellation leaves the zero map
    fn3 = make_fn_exponent_sum(f, [(f.one, 4), (two, 4)])
    assert fn3.terms == ()
    assert evaluate(fn3, f.element_at(5)) == f.zero


def test_exponent_sum_constant_and_negative_terms():
    f = field(7, 1)
    fn = make_fn_exponent_sum(f, [(f.scalar(3), 0), (f.one, -1)])
    # x^-1 over GF(7) reduces to x^5
    for x in f.elements():
        want = f.add(f.scalar(3), f.pow(x, 5))
        assert evaluate(fn, x) == want


# ---------------------------------------------------------------------------
# every constructor against its textbook formula, written with Element
# operators only and evaluated at every point
# ---------------------------------------------------------------------------

def _assert_matches(fn, formula):
    outs = evaluate_all(fn)
    fld = fn.field
    for i in range(fld.order):
        assert outs[i] == formula(fld.element_at(i)).index, i


def _power(x, e):
    # x**0 is the constant 1, also at x = 0
    return x**e if e else x.field.one


@pytest.mark.parametrize("p, n", [(2, 6), (3, 4), (5, 2), (7, 2)])
def test_constructors_match_textbook_formulas(p, n):
    f = field(p, n)
    Q = f.order
    rng = random.Random(p * 100 + n)
    for qdeg in (d for d in range(1, n) if n % d == 0):
        q = p**qdeg
        for k in range(1, n // qdeg):
            for _ in range(3):
                c = f.element_at(rng.randrange(1, Q))
                d = f.element_at(rng.randrange(Q))
                s = rng.choice([e for e in range(1, Q) if e % (Q - 1)])
                _assert_matches(
                    make_fn_trinomial(f, c, s, k=k, qdeg=qdeg),
                    lambda x: c * x - x**s + x**(q**k * s))
                _assert_matches(
                    make_fn_delta(f, c, s, k, d, qdeg=qdeg),
                    lambda x: (x**(q**k) - x + d)**s + c * x)
                # binomial g, one exponent degenerate (s = 0 mod Q-1)
                a = f.element_at(rng.randrange(1, Q))
                b = f.element_at(rng.randrange(1, Q))
                e1 = rng.randrange(0, 2 * Q)
                e2 = rng.choice([Q - 1, 2 * (Q - 1), rng.randrange(1, 2 * Q)])
                g = make_gspec(f, [(a, e1), (b, e2)], qdeg=qdeg)

                def gx(x):
                    return a * _power(x, e1) + b * _power(x, e2)
                _assert_matches(
                    compose_h(g, c, k),
                    lambda x: gx(x)**(q**k) - gx(x) + c * x)
                _assert_matches(
                    compose_f(g, c, k, d),
                    lambda x: gx(x**(q**k) - x + d) + c * x)


def test_degenerate_monomial_h_is_the_linear_map():
    # g = x^(Q-1) is 0 at 0 and 1 elsewhere, so g^(q^k) - g vanishes
    for p, n in [(2, 6), (3, 4), (5, 2), (7, 2)]:
        f = field(p, n)
        c = f.element_at(f.order - 2)
        for e in (f.order - 1, 3 * (f.order - 1)):
            h = compose_h(make_gspec(f, [(f.one, e)], qdeg=n // 2), c, 1)
            _assert_matches(h, lambda x: c * x)


# ---------------------------------------------------------------------------
# scalar vs vector evaluation
# ---------------------------------------------------------------------------

def test_evaluate_all_matches_pointwise():
    f = field(3, 4)
    fns = [
        make_fn_trinomial(f, f.element_at(2), 17, k=1, qdeg=2),
        make_fn_trinomial(f, f.one, 33, k=2, qdeg=1),
        make_fn_delta(f, f.one, 33, 2, f.element_at(9), qdeg=1),
        make_fn_exponent_sum(f, [(f.element_at(4), 3), (f.one, 0),
                                 (f.scalar(2), 78)]),
    ]
    for fn in fns:
        outs = evaluate_all(fn)
        assert outs.shape == (f.order,)
        for i in range(0, f.order, 5):
            assert outs[i] == evaluate(fn, f.element_at(i)).index


# ---------------------------------------------------------------------------
# permutation verdicts
# ---------------------------------------------------------------------------

def test_rejects_cube_gf7_with_frozen_witness():
    f = field(7, 1)
    v = is_permutation(make_fn_exponent_sum(f, [(f.one, 3)]))
    assert not v.is_permutation
    assert (v.witness[0].index, v.witness[1].index) == (1, 2)
    assert v.image_deficit == 4
    # witness is a genuine collision
    assert f.pow(v.witness[0], 3) == f.pow(v.witness[1], 3)


def test_rejects_square_with_frozen_witnesses():
    f7 = field(7, 1)
    v = is_permutation(make_fn_exponent_sum(f7, [(f7.one, 2)]))
    assert (not v.is_permutation
            and (v.witness[0].index, v.witness[1].index) == (3, 4)
            and v.image_deficit == 3)
    f9 = field(3, 2)
    v9 = is_permutation(make_fn_exponent_sum(f9, [(f9.one, 2)]))
    assert (v9.witness[0].index, v9.witness[1].index) == (1, 2)
    assert v9.image_deficit == 4


def test_accepts_identity_and_frobenius():
    f = field(2, 4)
    ident = make_fn_exponent_sum(f, [(f.one, 1)])
    frob = make_fn_exponent_sum(f, [(f.one, 2)])
    for fn in (ident, frob):
        v = is_permutation(fn)
        assert v.is_permutation and v.witness is None and v.image_deficit == 0


def oracle_verdict(outs):
    """(image deficit, witness) by a plain scan: the deficit is the number of
    values missed, the witness the first repeat met in index order together
    with the earliest index holding the same value."""
    first, witness = {}, None
    for i, v in enumerate(outs):
        if v not in first:
            first[v] = i
        elif witness is None:
            witness = (first[v], i)
    return len(outs) - len(set(outs)), witness


@pytest.mark.parametrize("p, n", [(2, 6), (3, 4), (7, 2)])
def test_is_permutation_matches_python_oracle_every_swept_exponent(p, n):
    """Every exponent `sweep` visits (c = 1) plus a random c and a shift form
    per exponent."""
    f = field(p, n)
    rng = random.Random(p * 100 + n)
    verdicts = set()
    for s in range(1, f.order - 1):
        c = f.element_at(rng.randrange(1, f.order))
        delta = f.element_at(rng.randrange(f.order))
        for fn in (make_fn_trinomial(f, f.one, s), make_fn_trinomial(f, c, s),
                   make_fn_delta(f, c, s, 1, delta)):
            deficit, witness = oracle_verdict(evaluate_all(fn).tolist())
            v = is_permutation(fn)
            assert v.is_permutation == (deficit == 0), (s, fn)
            assert v.image_deficit == deficit, (s, fn)
            got = None if v.witness is None else tuple(e.index for e in v.witness)
            assert got == witness, (s, fn)
            verdicts.add(deficit == 0)
    assert verdicts == {True, False}


def test_witness_is_always_a_real_collision():
    rng = random.Random(424242)
    f = field(5, 2)
    for _ in range(40):
        nterms = rng.randint(1, 3)
        terms = [(f.element_at(rng.randrange(1, f.order)),
                  rng.randrange(0, f.order)) for _ in range(nterms)]
        fn = make_fn_exponent_sum(f, terms)
        v = is_permutation(fn)
        if v.is_permutation:
            assert v.witness is None
            assert v.image_deficit == 0
        else:
            a, b = v.witness
            assert a.index != b.index
            assert evaluate(fn, a) == evaluate(fn, b)
            assert v.image_deficit >= 1


# ---------------------------------------------------------------------------
# trace-fibre route: _trace_deficits against brute force at every delta
# ---------------------------------------------------------------------------

# (p, n, qdeg) views; each runs every Frobenius step 1 <= k < m
FIBRE_VIEWS = [(2, 4, 1), (2, 4, 2), (2, 6, 2), (2, 6, 3), (3, 4, 1), (3, 4, 2),
               (5, 2, 1), (7, 2, 1)]
FIBRE_CASES = [(p, n, qdeg, k) for p, n, qdeg in FIBRE_VIEWS
               for k in range(1, n // qdeg)]


def _lemma_base(n, qdeg, k):
    """Degree over GF(p) of GF(q^l), l = gcd(k, m)."""
    return qdeg * math.gcd(k, n // qdeg)


def _engine_deficits(g, c, k):
    """_trace_deficits at every delta, read off the hits of u + c*x, as
    pair_verdicts reads them."""
    bulk = g.field.bulk()
    u = permcheck._log_order_u(g.field, g.terms, g.qdeg * k)
    hits = permcheck._hits(bulk, u[None, :], bulk.log.item(c.index))[0]
    return permcheck._trace_deficits(g, c, k, hits, np.arange(g.field.order))


def _brute_deficits(g, c, k):
    f = g.field
    return [is_permutation(compose_f(g, c, k, f.element_at(d))).image_deficit
            for d in range(f.order)]


@pytest.mark.parametrize("p, n, qdeg, k", FIBRE_CASES)
def test_fibre_deficits_match_brute_force_every_delta(p, n, qdeg, k):
    """Monomials x^s, a g that maps into GF(q^l) (so h = c*x and every f_d
    permutes) and a random binomial, at several c in GF(q^l)*."""
    f = field(p, n)
    Q = f.order
    base = _lemma_base(n, qdeg, k)
    rng = random.Random(Q * 10 + qdeg * 3 + k)
    sub = sorted(f.subfield_indices(base) - {0})
    anchored = [(f.element_at(rng.choice(sub)),
                 rng.randint(1, p**base - 1) * ((Q - 1) // (p**base - 1)))]
    binomial = [(f.element_at(rng.randrange(1, Q)), rng.randrange(Q))
                for _ in range(2)]
    gs = [make_gspec(f, [(f.one, s)], qdeg) for s in rng.sample(range(1, Q - 1), 3)]
    gs += [make_gspec(f, anchored, qdeg), make_gspec(f, binomial, qdeg)]
    seen = set()
    for g in gs:
        for ci in sorted({1, rng.choice(sub), sub[-1]}):
            c = f.element_at(ci)
            got = _engine_deficits(g, c, k)
            assert got.shape == (Q,)
            want = _brute_deficits(g, c, k)
            assert got.tolist() == want, (g.terms, ci)
            seen.update(d == 0 for d in want)
    assert seen == {True, False}


@pytest.mark.parametrize("p, n, qdeg, k", FIBRE_CASES)
def test_fibre_deficits_refuse_c_outside_the_lemma(p, n, qdeg, k):
    """The lemma needs c in GF(q^l): _trace_deficits and pair_verdicts with
    deltas raise ValueError for any other c, before any brute force."""
    f = field(p, n)
    inside = f.subfield_indices(_lemma_base(n, qdeg, k))
    g = make_gspec(f, [(f.one, 3)], qdeg)
    outside = [i for i in range(1, f.order) if i not in inside]
    for ci in outside[:3] + outside[-3:]:
        c = f.element_at(ci)
        with pytest.raises(ValueError, match="coefficient must lie in GF"):
            _engine_deficits(g, c, k)
        with pytest.raises(ValueError, match="coefficient must lie in GF"):
            pair_verdicts(g, k, [f.one, c], range(f.order))
    assert _engine_deficits(g, f.one, k).shape == (f.order,)


@settings(max_examples=60)
@given(case=st.sampled_from(FIBRE_CASES), data=st.data())
def test_fibre_deficits_agree_on_random_binomial_g(case, data):
    p, n, qdeg, k = case
    f = field(p, n)
    Q = f.order
    sub = sorted(f.subfield_indices(_lemma_base(n, qdeg, k)) - {0})
    terms = [(f.element_at(data.draw(st.integers(1, Q - 1))),
              data.draw(st.integers(0, 2 * Q))) for _ in range(2)]
    g = make_gspec(f, terms, qdeg)
    c = f.element_at(data.draw(st.sampled_from(sub)))
    assert _engine_deficits(g, c, k).tolist() == _brute_deficits(g, c, k)


@pytest.mark.parametrize("argv, plant", [
    # a permuting family: a nonzero deficit planted at delta 0
    (["--family", "thm18-4", "--q", "4"], lambda d: d.__setitem__(0, 1)),
    # table1-r8 at q = 8 fails (exit 1): every deficit planted as 0
    (["--family", "table1-r8", "--q", "8"], lambda d: d.fill(0)),
])
def test_verify_exits_4_when_the_routes_disagree(tmp_path, monkeypatch, capsys,
                                                 argv, plant):
    real = permcheck._trace_deficits

    def planted(*args):
        out = real(*args)
        plant(out)
        return out

    monkeypatch.setattr(permcheck, "_trace_deficits", planted)
    assert cli.main(["verify", *argv, "--out", str(tmp_path / "o.json")]) == 4
    err = capsys.readouterr().err
    assert "fibre route and brute force disagree" in err and argv[1] in err


def _same_columns(v, w):
    """Whether two Verdicts hold equal columns and the same mu."""
    return all(np.array_equal(x, y) for x, y in zip(vars(v).values(), vars(w).values()))


def test_f_verdicts_routes_and_times():
    """x^3 over GF(4^2) at c = 1 fails on 2 of the 4 trace fibres: brute
    force checks one probe of each fibre, the prefix search finds the
    witnesses of the other 6 failing deltas, and the fibre route decides
    the other 6 permuting ones.  A c outside GF(4) raises ValueError, and
    compose_f with is_permutation still decides its f_d.  pair_verdicts' f
    side has one row per delta; the engine keeps no clock and takes no
    out-list, as its caller times the call.  A range, a list and an int64
    array of delta indices give the same columns, and an index outside the
    field raises."""
    f = field(2, 4)
    g = make_gspec(f, [(f.one, 3)], 2)
    deltas = range(f.order)
    _, got = pair_verdicts(g, 1, [f.one], deltas)
    assert got.rows(f) == [is_permutation(compose_f(g, f.one, 1, d)) for d in f.elements()]
    assert Counter(ROUTES[r] for r in got.route.tolist()) == {"brute": 4, "fibre": 6, "prefix": 6}
    assert got.permutes.size == len(deltas)
    outside = f.element_at(2)
    with pytest.raises(ValueError, match=r"GF\(2\^2\).*got index 2"):
        pair_verdicts(g, 1, [outside], deltas)
    assert not is_permutation(compose_f(g, outside, 1, f.zero)).is_permutation
    assert list(inspect.signature(pair_verdicts).parameters) == ["g", "k", "cs", "delta_idx"]
    # any integer sequence of delta indices gives the same columns
    for same in (list(deltas), np.arange(f.order, dtype=np.int64)):
        assert _same_columns(pair_verdicts(g, 1, [f.one], same)[1], got)
    for bad in ([f.order], [3, -1]):
        with pytest.raises(ValueError, match="delta indices"):
            pair_verdicts(g, 1, [f.one], bad)
    assert not hasattr(permcheck, "time")
    assert pair_verdicts(g, 1, [f.one], [])[1].permutes.size == 0
    assert pair_verdicts(g, 1, [], deltas)[1].permutes.size == 0


def test_f_verdicts_many_c_equal_their_single_c_calls():
    """Rows come c-major, and each c's rows are those of its own call, for
    calls of several c of GF(q^l)*, a c repeated, that share the rows of
    G_d, and for deltas with repeats."""
    for p, n, qdeg, s in [(7, 2, 1, 19), (2, 4, 2, 3), (3, 4, 1, 10)]:
        f = field(p, n)
        g = make_gspec(f, [(f.one, s)], qdeg)
        inside = sorted(f.subfield_indices(qdeg) - {0})
        picks = (inside[-1], inside[0], inside[-1], inside[len(inside) // 2])
        cs = [f.element_at(i) for i in picks]
        deltas = list(range(0, f.order, 2)) + [4, 2, 4]
        _, got = pair_verdicts(g, 1, cs, deltas)
        each = [pair_verdicts(g, 1, [c], deltas)[1] for c in cs]
        for col in ("permutes", "deficit", "a", "b", "route"):
            assert np.array_equal(getattr(got, col),
                                  np.concatenate([getattr(v, col) for v in each])), col
        assert got.permutes.size == len(cs) * len(deltas)
        assert {ROUTES[r] for r in got.route.tolist()} == {"brute", "fibre", "prefix"}
        assert set(got.permutes.tolist()) == {True, False}


@settings(max_examples=60)
@given(case=st.sampled_from(FIBRE_CASES), canonical=st.booleans(), data=st.data())
def test_pair_verdicts_columns_hold_a_row_per_instance(case, canonical, data):
    """One pair_verdicts call with deltas decides both sides, for a
    canonical g (exponents 1 + i(q-1) over GF(q^2), where the mu route
    cross-checks h) and for a random binomial, at one to three c of
    GF(q^l)* and a delta list with repeats.  Every h row is brute-forced.
    On both sides the columns have a row per instance, a row permutes
    exactly where its deficit is 0 and exactly there has no witness
    (a = b = -1), a failing row's witness has a < b, and rows() gives one
    verdict per row; h.mu is set exactly where g is canonical, and f.mu
    never."""
    p, n, qdeg, k = case
    f = field(p, n)
    Q, q = f.order, p**qdeg
    canonical = canonical and n == 2 * qdeg
    coeff = lambda: f.element_at(data.draw(st.integers(1, Q - 1)))  # noqa: E731
    if canonical:
        terms = [(coeff(), 1 + data.draw(st.integers(0, q)) * (q - 1))
                 for _ in range(data.draw(st.integers(1, 2)))]
    else:
        terms = [(coeff(), data.draw(st.integers(0, 2 * Q))) for _ in range(2)]
    g = make_gspec(f, terms, qdeg)
    inside = sorted(f.subfield_indices(_lemma_base(n, qdeg, k)) - {0})
    cs = [f.element_at(i) for i in data.draw(st.lists(st.sampled_from(inside),
                                                      min_size=1, max_size=3))]
    deltas = data.draw(st.lists(st.integers(0, Q - 1), min_size=1, max_size=30))
    h, f_side = permcheck.pair_verdicts(g, k, cs, deltas)
    assert {ROUTES[r] for r in h.route.tolist()} == {"brute"}
    mu = permcheck._mu_verdicts(g, k, [1]) is not None
    assert mu or not canonical
    assert h.mu is mu and f_side.mu is False
    for side, n in ((h, len(cs)), (f_side, len(cs) * len(deltas))):
        assert side.permutes.size == n
        assert all(col.shape == (n,) for col in (side.permutes, side.deficit, side.a, side.b,
                                                 side.route))
        assert [v.is_permutation for v in side.rows(f)] == side.permutes.tolist()
        assert np.array_equal(side.permutes, side.deficit == 0)
        assert np.array_equal(side.permutes, (side.a == -1) & (side.b == -1))
        fail = ~side.permutes
        assert (0 <= side.a[fail]).all() and (side.a[fail] < side.b[fail]).all()


@settings(max_examples=60)
@given(case=st.sampled_from([c for c in FIBRE_CASES if c[:2] in {(3, 4), (2, 6), (7, 2)}]),
       data=st.data())
def test_f_verdicts_on_shuffled_deltas_with_repeats_match_brute_force(case, data):
    """A shuffled delta index list with repeats, for a g = x^s or a random
    binomial and one to three c, each inside or outside GF(q^l): a call
    with a c outside raises ValueError, and the call with the c inside
    alone gives rows whose verdicts (image deficit and witness) are brute
    force's at each (c, delta).  The first listed delta of each trace fibre
    is brute-forced as its probe, and every later one is decided from its
    fibre's deficit."""
    p, n, qdeg, k = case
    f = field(p, n)
    Q = f.order
    base = _lemma_base(n, qdeg, k)
    inside = f.subfield_indices(base)
    terms = [(f.one, data.draw(st.integers(1, Q - 2)))]
    if data.draw(st.booleans()):
        terms.append((f.element_at(data.draw(st.integers(1, Q - 1))), data.draw(st.integers(0, Q))))
    g = make_gspec(f, terms, qdeg)
    c_in = data.draw(st.lists(st.booleans(), min_size=1, max_size=3))
    cs = [f.element_at(data.draw(st.sampled_from(
        sorted(inside - {0}) if i else sorted(set(range(1, Q)) - inside)))) for i in c_in]
    picked = data.draw(st.lists(st.integers(0, Q - 1), min_size=1, max_size=40))
    repeats = data.draw(st.lists(st.sampled_from(picked), min_size=1, max_size=10))
    deltas = data.draw(st.permutations(picked + repeats))
    if not all(c_in):
        with pytest.raises(ValueError, match="coefficient must lie in GF"):
            pair_verdicts(g, k, cs, deltas)
        cs = [c for c, ok in zip(cs, c_in) if ok]
    _, got = pair_verdicts(g, k, cs, deltas)
    rows, routes = got.rows(f), [ROUTES[r] for r in got.route.tolist()]
    assert len(rows) == len(cs) * len(deltas)
    tr = f.bulk().trace(base)
    for ci, c in enumerate(cs):
        c_rows = range(ci * len(deltas), (ci + 1) * len(deltas))
        brute = {d: is_permutation(compose_f(g, c, k, f.element_at(d))) for d in set(deltas)}
        assert [rows[j] for j in c_rows] == [brute[d] for d in deltas]
        seen = set()
        for d, j in zip(deltas, c_rows):
            v, route = rows[j], routes[j]
            if tr[d] not in seen:
                assert route == "brute"
            else:
                assert route == ("fibre" if v.is_permutation else "prefix")
            seen.add(tr[d])


@settings(max_examples=60)
@given(data=st.data())
def test_first_collisions_equal_is_permutation_witnesses(data):
    """Random value tables over GF(2^8) with collisions planted at b, where
    b includes the ends of the first prefixes (B - 1, B, 2B - 1, 2B) and the
    last point: each row's first collision is the whole-table search's, a
    row without one reaches Q, and no block read exceeds BLOCK elements
    (BLOCK shrunk so that blocks hold two rows, then one)."""
    f = field(2, 8)
    Q, B = f.order, prefix_size(f.order)
    ends = st.sampled_from([B - 1, B, 2 * B - 1, 2 * B, Q - 1])
    tables = []
    for _ in range(data.draw(st.integers(1, 5))):
        t = np.array(data.draw(st.permutations(range(Q))), dtype=np.int64)
        for b, a in data.draw(st.lists(st.tuples(ends | st.integers(1, Q - 1),
                                                 st.integers(0, Q - 1)), max_size=3)):
            t[b] = t[a % b]
        tables.append(t)
    tables = np.array(tables)
    reads = []

    def rows_at(rows, n):
        reads.append((rows.size, n))
        return tables[rows, :n]

    with mock.patch.object(permcheck, "BLOCK", 2 * B + 10):
        a, b = permcheck._first_collisions(rows_at, len(tables), Q)
    for t, ai, bi in zip(tables, a.tolist(), b.tolist()):
        assert (ai, bi) == (first_collision(t) or (ai, Q))
    assert all(rows * n <= 2 * B + 10 or rows == 1 for rows, n in reads)
    widths = sorted({n for _, n in reads})
    assert widths == [min(Q, B << i) for i in range(len(widths))]


def test_translate_witnesses_match_brute_force_and_refuse_a_permuting_f():
    """x^2 over GF(9) fails at deltas 1, 4 and 7, one trace fibre, where the
    translates of f_1's table give is_permutation's witnesses; x^19 over
    GF(49) permutes at every delta, so searching the translates of f_0's
    table for witnesses raises."""
    f = field(3, 2)
    g = make_gspec(f, [(f.one, 2)], 1)
    table = evaluate_all(compose_f(g, f.one, 1, f.element_at(1)))
    a, b = permcheck._translate_witnesses(g, 1, 1, 1, table, np.array([1, 4, 7]))
    assert list(zip(a.tolist(), b.tolist())) == [
        tuple(e.index for e in is_permutation(compose_f(g, f.one, 1, f.element_at(d))).witness)
        for d in (1, 4, 7)]
    f = field(7, 2)
    g = make_gspec(f, [(f.one, 19)], 1)
    fibre = np.flatnonzero(f.bulk().trace(1) == 0)[[3, 1]]
    table = evaluate_all(compose_f(g, f.one, 1, f.zero))
    with pytest.raises(RuntimeError, match=f"disagree.*delta {fibre[0]}:"):
        permcheck._translate_witnesses(g, 1, 1, 0, table, fibre)


@pytest.mark.parametrize("deltas", [(0.7, 1.2, True), [2.0], ["3"], ("0", "1"),
                                    [True, False], np.array([1.5])])
def test_non_integer_delta_indices_raise(deltas):
    """Delta indices are integers: floats, strings and bools raise
    ValueError from the engine and from prop2_check, instead of being
    truncated to an integer and decided there.  An empty sweep (float64 to
    np.asarray) and unsigned indices pass."""
    f = field(3, 2)
    g = make_gspec(f, [(f.one, 2)], 1)
    with pytest.raises(ValueError, match="delta indices must be integers"):
        pair_verdicts(g, 1, [f.one], deltas)
    with pytest.raises(ValueError, match="delta indices must be integers"):
        prop2_check(g, f.one, 1, deltas=deltas)
    assert pair_verdicts(g, 1, [f.one], [])[1].permutes.size == 0
    assert pair_verdicts(g, 1, [f.one], ())[1].permutes.size == 0
    assert _same_columns(pair_verdicts(g, 1, [f.one], np.array([3, 0], dtype=np.uint8))[1],
                         pair_verdicts(g, 1, [f.one], [3, 0])[1])


def _misplaced_preimage(monkeypatch):
    """Plant a wrong translate: every shift preimage moved by one place, so
    the translated tables are no longer f_d's."""
    real = permcheck._shift_preimage
    monkeypatch.setattr(permcheck, "_shift_preimage",
                        lambda bulk, pstep: np.roll(real(bulk, pstep), 1))


def test_failing_probes_above_block_match_brute_force(monkeypatch):
    """GF(2^16) as GF(256^2), g = x^7, two c of GF(256)*, three deltas from
    each of three trace fibres: the field is four BLOCKs, so each probe's
    G_d is one row that _hits reads in column blocks, and each failing
    probe's table is scattered by _index_order, which adds that c's c*x to
    the probe's row of G, once per probe and failing c.  Each c whose h
    fails has its h table scattered first, for h's witness.  Verdicts (deficits and witnesses)
    are is_permutation(compose_f(...))'s, the first delta of each fibre is
    "brute", and its mates are "fibre" or "prefix"."""
    f = field(2, 16)
    Q = f.order
    assert Q == 4 * permcheck.BLOCK
    g = make_gspec(f, [(f.one, 7)], 8)
    tr = f.bulk().trace(8)
    ds = [d for t in np.unique(tr)[[0, 1, 5]].tolist()
          for d in np.flatnonzero(tr == t)[[100, 0, 7]].tolist()]
    cs = [f.one, f.element_at(max(f.subfield_indices(8)))]
    lcs = [f.bulk().log.item(c.index) for c in cs]
    h_fails = [lc for c, lc in zip(cs, lcs)
               if not is_permutation(compose_h(g, c, 1)).is_permutation]
    g_rows, scattered = [], []
    real_g, real_i = permcheck._g_rows, permcheck._index_order
    monkeypatch.setattr(permcheck, "_g_rows",
                        lambda *args: g_rows.append(real_g(*args).shape) or real_g(*args))
    monkeypatch.setattr(permcheck, "_index_order",
                        lambda bulk, row, lc: scattered.append((row.shape, lc))
                        or real_i(bulk, row, lc))
    _, got = pair_verdicts(g, 1, cs, ds)
    want = [is_permutation(compose_f(g, c, 1, f.element_at(d))) for c in cs for d in ds]
    assert got.rows(f) == want
    routes = [ROUTES[r] for r in got.route.tolist()]
    assert routes == [("brute" if j % 3 == 0 else "fibre" if v.is_permutation else "prefix")
                      for j, v in enumerate(want)]
    assert set(routes) == {"brute", "fibre", "prefix"}
    assert g_rows == [(1, Q)] * 3
    failing_probes = sum(not v.is_permutation for v in want[::3])
    assert failing_probes >= 2 and h_fails
    # the probes go one block each, and in a block c by c
    assert scattered == [((Q,), lc) for lc in h_fails] + [
        ((Q,), lcs[ci]) for p in range(0, len(ds), 3) for ci in range(len(cs))
        if not want[ci * len(ds) + p].is_permutation]


def test_a_wrong_translate_fails_the_witness_check(monkeypatch):
    """Every reported witness is evaluated afresh, from Frobenius, at both
    its points: witnesses read off a wrongly translated table raise, naming
    the step, c and delta."""
    f = field(3, 2)
    g = make_gspec(f, [(f.one, 2)], 1)
    assert not pair_verdicts(g, 1, [f.one], range(f.order))[1].permutes.all()
    _misplaced_preimage(monkeypatch)
    with pytest.raises(RuntimeError, match=r"witness check failed at step 1, c 1, delta \d+: "):
        pair_verdicts(g, 1, [f.one], range(f.order))


@pytest.mark.parametrize("argv", [["verify", "--family", "thm14", "--q", "3"],
                                  ["table1", "--row", "8", "--k", "3"]])
def test_verify_exits_4_on_a_wrong_witness(tmp_path, monkeypatch, capsys, argv):
    _misplaced_preimage(monkeypatch)
    assert cli.main([*argv, "--out", str(tmp_path / "o.json")]) == 4
    err = capsys.readouterr().err
    assert "witness check failed" in err and argv[2] in err


def test_a_wrong_h_table_fails_the_witness_check(tmp_path, monkeypatch, capsys):
    """A failing h's witness, from pair_verdicts' h side with or without
    the deltas that prop2_check passes, is evaluated afresh from Frobenius
    at both its points: witnesses read off a wrongly scattered table (every
    value moved by one place) raise, naming the step and c, and sweep exits
    4."""
    f = field(2, 6)
    g = make_gspec(f, [(f.one, 7)], 3)
    c = f.element_at(14)                    # in GF(8)
    (v,) = pair_verdicts(g, 1, [c])[0].rows(f)
    assert not v.is_permutation and prop2_check(g, c, 1).h_verdict == v
    real = permcheck._index_order
    monkeypatch.setattr(permcheck, "_index_order",
                        lambda bulk, row, lc: np.roll(real(bulk, row, lc), 1))
    with pytest.raises(RuntimeError, match=r"witness check failed at step 1, c 14: h\(\d+\) = "):
        pair_verdicts(g, 1, [c, f.one])
    with pytest.raises(RuntimeError, match=r"witness check failed at step 1, c 14: h\("):
        prop2_check(g, c, 1)
    assert cli.main(["sweep", "--q", "8", "--out", str(tmp_path / "o.json")]) == 4
    assert "witness check failed" in capsys.readouterr().err


@pytest.mark.parametrize("p, s, probe, later, deficit", [
    # x^19 over GF(49) permutes at every delta: a nonzero deficit planted at
    # 7, past the probe 0 of its trace fibre
    (7, 19, 0, 7, 7),
    # x^2 over GF(9) fails with deficit 6 on the fibre of 1, 4 and 7: a
    # different deficit planted at 4, past the probe 1
    (3, 2, 1, 4, 3),
])
def test_planted_deficit_past_the_probe_raises(monkeypatch, p, s, probe, later, deficit):
    f = field(p, 2)
    g = make_gspec(f, [(f.one, s)], 1)
    tr = f.bulk().trace(1)
    assert tr[probe] not in tr[:probe] and tr[later] == tr[probe] and later > probe
    real = permcheck._trace_deficits

    def planted(*args):
        out = real(*args)
        out[later] = deficit
        return out

    monkeypatch.setattr(permcheck, "_trace_deficits", planted)
    with pytest.raises(RuntimeError, match=f"disagree.*delta {later}:"):
        pair_verdicts(g, 1, [f.one], range(f.order))


@pytest.mark.parametrize("n_c", [1, 3, 15])
def test_engines_build_u_once_per_call(monkeypatch, n_c):
    """Both engines build u = g^(q^k) - g once per call of pair_verdicts,
    whatever the number of c (those of GF(4)*, repeated), and prop2_check
    and prop4_check decide h and every f_d from one u; prop4_check builds
    exactly one more, outside the engine, for h's table in its square.
    u + c*x is marked once per c (a one-row _hits call; the 4 trace fibres'
    probes are one 4-row table): by f calls and the transform checks for
    every c, as each c's mask gives both h's verdict and the fibre
    deficits, and by a call without deltas for each c it brute-forces."""
    f = field(2, 4)
    g = make_gspec(f, [(f.one, 3)], 2)
    inside = sorted(f.subfield_indices(2) - {0})
    cs = [f.element_at(inside[i % len(inside)]) for i in range(n_c)]
    calls, outside, marked, engine = [], [], [], []
    real, real_hits, real_pv = permcheck._log_order_u, permcheck._hits, permcheck.pair_verdicts

    def pair_verdicts(*args):
        engine.append(args)
        try:
            return real_pv(*args)
        finally:
            engine.pop()

    monkeypatch.setattr(permcheck, "pair_verdicts", pair_verdicts)
    monkeypatch.setattr(transform, "pair_verdicts", pair_verdicts)
    monkeypatch.setattr(permcheck, "_log_order_u",
                        lambda *args: (calls if engine else outside).append(args) or real(*args))
    monkeypatch.setattr(permcheck, "_hits", lambda bulk, T, lc: (
        T.shape[0] == 1 and marked.append(lc)) or real_hits(bulk, T, lc))
    h, _ = permcheck.pair_verdicts(g, 1, cs)
    assert len(calls) == 1
    assert len(marked) == np.count_nonzero(h.route == ROUTES.index("brute")) == n_c
    permcheck.pair_verdicts(g, 1, cs, range(f.order))
    assert len(calls) == 2 and len(marked) == 2 * n_c
    prop2_check(g, f.one, 1)
    assert len(calls) == 3 and len(marked) == 2 * n_c + 1 and not outside
    prop4_check(g)
    assert len(calls) == 4 and len(marked) == 2 * n_c + 2 and len(outside) == 1


@pytest.mark.parametrize("p, n, qdeg, k", FIBRE_CASES)
@settings(max_examples=8)
@given(data=st.data())
def test_h_maps_trace_fibres_by_c(p, n, qdeg, k, data):
    """Tr(h(y)) = c*Tr(y) for c in GF(q^l)*, Tr onto GF(q^l): the identity
    _trace_deficits rests on, checked by scalar arithmetic at every y."""
    f = field(p, n)
    Q = f.order
    base = _lemma_base(n, qdeg, k)
    terms = [(f.element_at(data.draw(st.integers(1, Q - 1))),
              data.draw(st.integers(0, 2 * Q)))
             for _ in range(data.draw(st.integers(1, 3)))]
    c = f.element_at(data.draw(st.sampled_from(
        sorted(f.subfield_indices(base) - {0}))))
    h = compose_h(make_gspec(f, terms, qdeg), c, k)
    for y in f.elements():
        assert (f.trace_to_subfield(evaluate(h, y), base)
                == c * f.trace_to_subfield(y, base)), (terms, c, y)


@pytest.mark.parametrize("p, n, qdeg, k", FIBRE_CASES)
@settings(max_examples=8)
@given(data=st.data())
def test_f_translates_along_its_trace_fibre(p, n, qdeg, k, data):
    """f_(d + b^(q^k) - b)(x) = f_d(x + b) - c*b for every c, d and b,
    checked by scalar arithmetic at every x.  The d + b^(q^k) - b fill d's
    trace fibre, so prop4_check's commuting square at one delta of a fibre
    is the square at every other, with x shifted by b."""
    f = field(p, n)
    Q = f.order
    terms = [(f.element_at(data.draw(st.integers(1, Q - 1))),
              data.draw(st.integers(0, 2 * Q)))
             for _ in range(data.draw(st.integers(1, 3)))]
    g = make_gspec(f, terms, qdeg)
    c = f.element_at(data.draw(st.integers(1, Q - 1)))
    d, b = (f.element_at(data.draw(st.integers(0, Q - 1))) for _ in range(2))
    f_d = compose_f(g, c, k, d)
    f_moved = compose_f(g, c, k, f.frobenius(b, qdeg * k) - b + d)
    for x in f.elements():
        assert evaluate(f_moved, x) == evaluate(f_d, x + b) - c * b, (terms, c, d, b, x)


# ---------------------------------------------------------------------------
# pair_verdicts' h side: one log-order u = g^(q^k) - g shared by every c,
# against the scalar path at every point
# ---------------------------------------------------------------------------

# (p, n, qdeg) views of GF(2^4), GF(2^6), GF(3^2), GF(3^4), GF(5^2), GF(7^2);
# each runs every Frobenius step 1 <= k < m
H_VIEWS = [(2, 4, 1), (2, 4, 2), (2, 6, 1), (2, 6, 2), (2, 6, 3), (3, 2, 1),
           (3, 4, 1), (3, 4, 2), (5, 2, 1), (7, 2, 1)]
H_CASES = [(p, n, qdeg, k) for p, n, qdeg in H_VIEWS for k in range(1, n // qdeg)]


def _scalar_u(g, k):
    """u = g^(q^k) - g at every point by scalar evaluate: h at c = 1, less x."""
    h1 = compose_h(g, g.field.one, k)
    return [evaluate(h1, x) - x for x in g.field.elements()]


def _scalar_verdict(u, c):
    """(permutes, image deficit, witness index pair) of h = u + c*x from
    scalar arithmetic at every point and the plain-scan oracle."""
    deficit, witness = oracle_verdict(
        [(ux + c * x).index for x, ux in zip(c.field.elements(), u)])
    return deficit == 0, deficit, witness


def _verdict_tuple(v):
    wit = None if v.witness is None else tuple(e.index for e in v.witness)
    return v.is_permutation, v.image_deficit, wit


def _h_gs(f, qdeg):
    """A monomial x^(2q - 1), a g with a constant and an x term beside it
    (the x term merges with c*x in h), and the degenerate x^(Q-1), for which
    h = c*x."""
    q = f.p**qdeg
    a, b = f.element_at(2), f.element_at(f.order - 1)
    return [make_gspec(f, [(f.one, 2 * q - 1)], qdeg),
            make_gspec(f, [(a, 1), (b, 0), (f.one, q + 2)], qdeg),
            make_gspec(f, [(f.one, f.order - 1)], qdeg)]


@pytest.mark.parametrize("p, n, qdeg, k", H_CASES)
def test_h_verdicts_match_scalar_path_every_c(p, n, qdeg, k):
    f = field(p, n)
    cs = [f.element_at(i) for i in range(1, f.order)]
    seen = set()
    for gi, g in enumerate(_h_gs(f, qdeg)):
        got = [_verdict_tuple(v) for v in pair_verdicts(g, k, cs)[0].rows(f)]
        u = _scalar_u(g, k)
        for c, v in zip(cs, got):
            assert v == _scalar_verdict(u, c), (gi, c)
            assert v == _verdict_tuple(is_permutation(compose_h(g, c, k))), (gi, c)
        if gi == 2:
            assert all(v[0] for v in got)        # h = c*x
        seen |= {v[0] for v in got}
    assert seen == {True, False}


@settings(max_examples=80)
@given(case=st.sampled_from(H_CASES), data=st.data())
def test_h_verdicts_agree_on_random_binomial_g(case, data):
    p, n, qdeg, k = case
    f = field(p, n)
    Q = f.order
    terms = [(f.element_at(data.draw(st.integers(1, Q - 1))),
              data.draw(st.integers(0, 2 * Q))) for _ in range(2)]
    g = make_gspec(f, terms, qdeg)
    idx = data.draw(st.lists(st.integers(1, Q - 1), min_size=1, max_size=4,
                             unique=True))
    cs = [f.element_at(i) for i in idx]
    got = [_verdict_tuple(v) for v in pair_verdicts(g, k, cs)[0].rows(f)]
    u = _scalar_u(g, k)
    assert got == [_scalar_verdict(u, c) for c in cs]


def test_h_verdicts_scatter_only_failing_c(monkeypatch):
    """A permuting c is decided from its log-order blocks alone; only a
    failing c is scattered into index order, and searched there for its
    witness, once."""
    f = field(2, 6)
    g = _h_gs(f, 3)[0]
    cs = [f.element_at(i) for i in range(1, f.order)]
    want = pair_verdicts(g, 1, cs)[0].permutes.tolist()
    assert set(want) == {True, False}
    scattered, searched = [], []
    real_i, real_s = permcheck._index_order, permcheck._first_collisions
    monkeypatch.setattr(permcheck, "_index_order",
                        lambda bulk, row, lc: scattered.append(lc) or real_i(bulk, row, lc))
    monkeypatch.setattr(permcheck, "_first_collisions",
                        lambda *args: searched.append(args[1]) or real_s(*args))
    assert pair_verdicts(g, 1, cs)[0].permutes.tolist() == want
    log = f.bulk().log
    assert scattered == [log.item(c.index) for c, ok in zip(cs, want) if not ok]
    assert searched == [1] * len(scattered)


def test_h_verdicts_times_and_refusals():
    """One h row per c, and no f row without deltas; the engine keeps no
    clock and takes no out-list, as its caller times the call."""
    f = field(2, 4)
    g = make_gspec(f, [(f.one, 7)], 2)
    cs = [f.one, f.element_at(6), f.element_at(9)]
    h, f_side = pair_verdicts(g, 1, cs)
    assert (h.permutes.size, f_side.permutes.size) == (3, 0)
    assert list(inspect.signature(pair_verdicts).parameters) == ["g", "k", "cs", "delta_idx"]
    assert not hasattr(permcheck, "time")
    assert pair_verdicts(g, 1, [])[0].permutes.size == 0
    with pytest.raises(ValueError):
        pair_verdicts(g, 1, [f.one, f.zero])
    with pytest.raises(ValueError):
        pair_verdicts(g, 2, [f.one])                # k out of range for m = 2


@pytest.mark.parametrize("p, n, qdeg, k", H_CASES)
def test_evaluate_all_h_equals_scalar_evaluate_every_point(p, n, qdeg, k):
    f = field(p, n)
    rng = random.Random(p * 1000 + n * 10 + k)
    extra = make_gspec(f, [(f.element_at(rng.randrange(1, f.order)),
                            rng.randrange(0, 3 * f.order)) for _ in range(3)], qdeg)
    for g in _h_gs(f, qdeg) + [extra, make_gspec(f, [(f.scalar(1), 0)], qdeg)]:
        h = compose_h(g, f.element_at(rng.randrange(1, f.order)), k)
        outs = evaluate_all(h)
        assert outs.tolist() == [evaluate(h, x).index for x in f.elements()]


@settings(max_examples=60)
@given(case=st.sampled_from(H_CASES), data=st.data())
def test_h_is_additive_in_g_and_c(case, data):
    """h of (g1 + g2, c1 + c2) is h of (g1, c1) plus h of (g2, c2): the
    log-order u rests on Frobenius being additive."""
    p, n, qdeg, k = case
    f = field(p, n)
    Q = f.order
    draw_el = lambda: f.element_at(data.draw(st.integers(1, Q - 1)))  # noqa: E731
    t1 = [(draw_el(), data.draw(st.integers(0, Q))) for _ in range(2)]
    t2 = [(draw_el(), data.draw(st.integers(0, Q))) for _ in range(2)]
    c1 = draw_el()
    c2 = f.element_at(data.draw(st.integers(1, Q - 1).filter(
        lambda i: i != (-c1).index)))
    h12 = evaluate_all(compose_h(make_gspec(f, t1 + t2, qdeg), c1 + c2, k))
    h1 = evaluate_all(compose_h(make_gspec(f, t1, qdeg), c1, k))
    h2 = evaluate_all(compose_h(make_gspec(f, t2, qdeg), c2, k))
    assert h12.tolist() == [(f.element_at(a) + f.element_at(b)).index
                            for a, b in zip(h1.tolist(), h2.tolist())]


def test_permuting_trinomial_never_builds_the_index_ramp():
    """Deciding a permuting trinomial reads blocks of exp and an arange of
    its own block length only: the whole-field ramp _Bulk.xs stays unbuilt."""
    f = FieldCtx(2, 16)
    g = make_gspec(f, [(f.one, 2 * 256 - 1)], 8)
    h, _ = pair_verdicts(g, 1, [f.one])
    assert h.rows(f) == [permcheck._PERMUTES] and h.route.tolist() == [ROUTES.index("brute")]
    assert "xs" not in f.bulk().__dict__
    assert np.array_equal(f.bulk().xs, np.arange(f.order))
    assert "xs" in f.bulk().__dict__


def test_failing_h_leaves_no_index_ramp_behind():
    """A failing h's witness search ranks the points with a transient
    arange: after it, on a field of several blocks, _Bulk.xs is still
    unbuilt, and the witness is the scalar oracle's first repeat."""
    f = FieldCtx(2, 16)
    c = f.element_at(3)
    (v,) = pair_verdicts(make_gspec(f, [(f.one, 7)], 8), 1, [c])[0].rows(f)
    assert not v.is_permutation and f.order > permcheck.BLOCK
    assert "xs" not in f.bulk().__dict__
    want = _first_repeat(make_fn_trinomial(f, c, 7, 1, 8), range(f.order))
    assert tuple(e.index for e in v.witness) == want


def test_first_collisions_key_passes_2_31_at_the_cap():
    """A collision planted at the last column of a GF(2^22)-wide int32
    table is found, though its sort key value * Q + column passes 2^31."""
    Q = 1 << 22
    table = np.arange(Q, dtype=np.int32)
    table[Q - 1] = 12345
    assert 12345 * Q + Q - 1 > 2**31
    a, b = permcheck._first_collisions(
        lambda rows, n: np.broadcast_to(table[:n], (rows.size, n)), 1, Q)
    assert (a.tolist(), b.tolist()) == ([12345], [Q - 1])


def test_h_verdicts_witness_at_the_cap_matches_scalar_oracle():
    """At GF(2^22), a failing h's witness is the first repeat that scalar
    evaluate meets scanning the points in index order."""
    f = field(2, 22)
    c = f.element_at(3)
    (v,) = pair_verdicts(make_gspec(f, [(f.one, 7)], 11), 1, [c])[0].rows(f)
    assert not v.is_permutation
    want = _first_repeat(make_fn_trinomial(f, c, 7, 1, 11), range(f.order))
    assert tuple(e.index for e in v.witness) == want == (1264, 2065)


def test_log_order_u_memory_stays_bounded():
    """u over GF(2^16) is int32, like the tables, and built in blocks: the
    traced peak (1.1 MB now against 0.25 MB for u) stays under 1.5 MB,
    where building it whole adds five whole-field temporaries (3.7 MB)."""
    f = field(2, 16)
    g = make_gspec(f, [(f.one, 255), (f.element_at(3), 1), (f.element_at(5), 0)], 8)
    f.bulk()
    tracemalloc.start()
    try:
        u = permcheck._log_order_u(f, g.terms, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.dtype == np.int32 and u.size == f.order
    assert peak < 1.5 * 2**20, peak


def test_one_period_u_memory_stays_bounded():
    """x^1023 over GF(2^18) has D = gcd(2^18 - 1, 1023) = 3, so u holds
    position 0 and one period, 1 + (2^18 - 1)/3 int32 entries.  The traced
    peak of building it (0.94 MB now) stays under u plus five int64 blocks
    (the term's two ramps, a block's gather index, its gathers and their
    difference: 0.99 MB), below the 1 MB that u over the whole field takes
    alone; building the whole field peaked at 1.77 MB."""
    f = field(2, 18)
    g = make_gspec(f, [(f.one, 1023)], 9)
    f.bulk()
    tracemalloc.start()
    try:
        u = permcheck._log_order_u(f, g.terms, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.dtype == np.int32 and u.size == 1 + (f.order - 1) // 3
    assert peak < u.nbytes + 5 * 8 * permcheck.BLOCK < 4 * f.order, peak


def _period(f, g):
    """u's period in log order: (order-1)/D, D = gcd(order-1, every exponent)."""
    M = f.order - 1
    return M // math.gcd(M, *(e for _, e in g.terms))


def _unrolled(u, M):
    """u at every position 0 .. M: position 1+t read at 1 + t mod W."""
    return np.concatenate((u[:1], u[1:][np.arange(M) % (u.size - 1)]))


@pytest.mark.parametrize("p, n, qdeg", [(2, 16, 8), (3, 10, 5), (7, 6, 3), (5, 8, 4)])
def test_divide_free_log_order_u_equals_the_formula(p, n, qdeg):
    """_log_order_u reduces its ramps once, gathers through take's wrap
    mode and builds one period; on fields of several blocks, with several
    terms and a constant term, u read at 1 + t mod W at every t equals the
    formula with two % per term and block over the whole field.  W is the
    least multiple of the period P that is at least BLOCK; the exponent
    sets give P = order-1 or another P >= BLOCK, a P < BLOCK (a binomial
    x^(D*r), x^D with a constant term) and P = 1 (x^(order-1))."""
    f = field(p, n)
    M = f.order - 1
    B = permcheck.BLOCK
    assert M > 2 * B
    rng = random.Random(p * 100 + n)
    el = lambda: f.element_at(rng.randrange(1, f.order))  # noqa: E731
    terms = [(el(), rng.randrange(1, 3 * f.order)) for _ in range(3)] + [
        (f.element_at(rng.randrange(2, f.order)), 0)]
    divs = [d for d in range(2, M + 1) if M % d == 0]
    sets = [terms, terms[:1], [(f.one, M)], [(f.one, M), terms[-1]]]
    sets += [[(el(), D * rng.randrange(1, 50)), (el(), D), terms[-1]]
             for D in (divs[0], next(d for d in divs if M // d < B))]
    periods = set()
    for ts in sets:
        g = make_gspec(f, ts, qdeg)
        P = _period(f, g)
        periods.add(P)
        for k in range(1, n // qdeg):
            u = permcheck._log_order_u(f, g.terms, qdeg * k)
            W = u.size - 1
            assert W % P == 0 and B <= W < B + P, (g.terms, W)
            want = log_order_u_by_division(f, g.terms, qdeg * k)
            assert u.dtype == want.dtype and np.array_equal(_unrolled(u, M), want), (g.terms, k)
    assert 1 in periods and any(1 < P < B for P in periods)
    assert any(B <= P < M for P in periods)


@pytest.mark.parametrize("p, n, qdeg, D", [(2, 16, 8, 3), (2, 16, 8, 5), (2, 16, 8, 255),
                                           (3, 10, 5, 2), (3, 10, 5, 488),
                                           (5, 8, 4, 3), (5, 8, 4, 1248)])
def test_one_period_u_reads_wrap_like_the_whole_table(p, n, qdeg, D):
    """On fields of several blocks, for g = x^(D*r) and a binomial with a
    constant term whose exponents have gcd D with order-1 (the period P =
    (order-1)/D is at least BLOCK or below it), each reader of the
    one-period u agrees with a whole-field brute force at every point:
    evaluate_all's h table against g's direct powers through Frobenius; h's
    verdicts, and the first-collision witness of every failing c (read by
    _index_order); the mask _hits marks, so _trace_deficits at every delta,
    and brute-force deficits of f_d at a few deltas."""
    f = field(p, n)
    Q, M = f.order, f.order - 1
    assert M % D == 0 and M > 2 * permcheck.BLOCK
    rng = random.Random(p * 1000 + D)
    bulk = f.bulk()
    el = lambda: f.element_at(rng.randrange(1, Q))  # noqa: E731
    r = next(r for r in range(rng.randrange(2, 50), M) if math.gcd(r, M // D) == 1)
    gs = [make_gspec(f, [(f.one, D * r)], qdeg),
          make_gspec(f, [(el(), D * rng.randrange(1, 50)), (el(), D), (el(), 0)], qdeg)]
    q_elems = sorted(f.subfield_indices(qdeg) - {0})
    cs = [f.one] + [f.element_at(rng.choice(q_elems)) for _ in range(2)]
    deltas = np.array(rng.sample(range(Q), 3), dtype=np.int64)
    failing = 0
    for g in gs:
        assert _period(f, g) == M // D
        gx = permcheck._eval_terms_all(bulk, g.terms, bulk.xs)
        y = bulk.sub(bulk.frob(gx, qdeg), gx)
        u = permcheck._log_order_u(f, g.terms, qdeg)
        assert u.size - 1 < M
        for c, v in zip(cs, pair_verdicts(g, 1, cs)[0].rows(f)):
            want = bulk.add(y, bulk.mul_scalar(c.index, bulk.xs))
            assert np.array_equal(evaluate_all(compose_h(g, c, 1)), want), (g.terms, c)
            seen = np.bincount(want, minlength=Q) > 0
            assert v.image_deficit == Q - np.count_nonzero(seen)
            assert v.is_permutation == (v.image_deficit == 0)
            if v.witness is not None:
                failing += 1
                assert tuple(e.index for e in v.witness) == first_collision(want)
            hits = permcheck._hits(bulk, u[None, :], bulk.log.item(c.index))[0]
            assert np.array_equal(hits, seen), (g.terms, c)
            got = permcheck._trace_deficits(g, c, 1, hits, np.arange(Q))
            assert np.array_equal(got, permcheck._trace_deficits(g, c, 1, seen, np.arange(Q)))
            for d in deltas.tolist():
                fd = is_permutation(compose_f(g, c, 1, f.element_at(d)))
                assert got[d] == fd.image_deficit, (g.terms, c, d)
    assert failing


# ---------------------------------------------------------------------------
# the mu route: Lemma 1 on mu_(q+1) for canonical g over GF(q^2)
# ---------------------------------------------------------------------------

MU_QS = [2, 3, 4, 5, 7, 8, 9]


@pytest.mark.parametrize("q", MU_QS)
def test_mu_route_matches_brute_every_canonical_s_and_c(q):
    """Every canonical s = 1 + i(q-1), i = 0 .. q, and every c in GF(q^2)*:
    the mu route's verdict is brute force's.  Where H(z) = c - z^i +
    z^(1+qi) has a root on mu_(q+1) (scalar arithmetic), h fails; c outside
    GF(q) permutes for some s."""
    p, k = prime_power(q)
    f = field(p, 2 * k)
    cs = list(f.elements())[1:]
    mu = f.mu_subgroup(q + 1)
    rooted, outside_hits = 0, 0
    for i in range(q + 1):
        g = make_gspec(f, [(f.one, 1 + i * (q - 1))], k)
        got = permcheck._mu_verdicts(g, 1, [c.index for c in cs]).tolist()
        want = [is_permutation(compose_h(g, c, 1)).is_permutation for c in cs]
        assert got == want, i
        roots = {(f.pow(z, i) - f.pow(z, 1 + q * i)).index for z in mu}
        rooted += sum(c.index in roots for c in cs)
        assert not any(ok for c, ok in zip(cs, got) if c.index in roots)
        outside_hits += sum(ok for c, ok in zip(cs, got) if not f.is_in_subfield(c, k))
    assert rooted and outside_hits


@settings(max_examples=60)
@given(q=st.sampled_from(MU_QS + [16, 25, 27]), data=st.data())
def test_mu_route_matches_brute_on_random_canonical_g(q, data):
    """g with up to three canonical terms and random coefficients."""
    p, k = prime_power(q)
    f = field(p, 2 * k)
    Q = f.order
    terms = [(f.element_at(data.draw(st.integers(1, Q - 1))),
              1 + data.draw(st.integers(0, 2 * q + 2)) * (q - 1))
             for _ in range(data.draw(st.integers(1, 3)))]
    g = make_gspec(f, terms, k)
    cs = [f.element_at(i) for i in data.draw(st.lists(
        st.integers(1, Q - 1), min_size=1, max_size=6, unique=True))]
    got = permcheck._mu_verdicts(g, 1, [c.index for c in cs]).tolist()
    assert got == [is_permutation(compose_h(g, c, 1)).is_permutation for c in cs]


def test_mu_route_applies_to_canonical_g_over_gf_q2_only():
    f = field(3, 4)
    assert permcheck._mu_verdicts(make_gspec(f, [(f.one, 17)], 2), 1, [1]) is not None
    for g, k in [(make_gspec(f, [(f.one, 3)], 2), 1),            # 3 != 1 mod 8
                 (make_gspec(f, [(f.one, 17), (f.one, 0)], 2), 1),  # a constant term
                 (make_gspec(f, [(f.one, 3)], 1), 1),             # GF(3^4) as m = 4
                 (make_gspec(f, [(f.one, 5)], 1), 2)]:
        assert permcheck._mu_verdicts(g, k, [1]) is None, (g.terms, k)


def _gf_poly(index, p):
    """An element index as a sympy galoistools polynomial over Z_p: its
    base-p digits, highest degree first, [] for zero."""
    digits = []
    while index:
        index, r = divmod(index, p)
        digits.append(r)
    return digits[::-1]


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 16])
def test_mu_route_matches_an_independent_galoistools_oracle(q):
    """On sampled (i, a, c), g = a*x^(1 + i(q-1)) over GF(q^2): mu_(q+1) is
    the set of y^(q-1), and h permutes iff z -> z*H(z)^(q-1) maps mu_(q+1)
    onto itself, H(z) = c + a^q z^(1+qi) - a z^i, all in sympy's galoistools
    modulo the field's modulus, with no permlab table.  The mu route's
    verdict is that one, and both verdicts occur."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_add, gf_mul, gf_pow_mod, gf_rem, gf_sub

    p, qdeg = prime_power(q)
    f = field(p, 2 * qdeg)
    mod = list(reversed(f.modulus))
    power = lambda x, e: tuple(gf_pow_mod(list(x), e, mod, p, ZZ))  # noqa: E731
    mu = {power(_gf_poly(y, p), q - 1) for y in range(1, f.order)}
    assert len(mu) == q + 1
    rng = random.Random(q)
    seen = set()
    for _ in range(24):
        i = rng.randrange(q + 1)
        a_idx, c_idx = (rng.randrange(1, f.order) for _ in range(2))
        a = _gf_poly(a_idx, p)
        aq = list(power(a, q))
        image = set()
        for z in mu:
            hz = gf_add(_gf_poly(c_idx, p), gf_sub(
                gf_rem(gf_mul(aq, list(power(z, 1 + q * i)), p, ZZ), mod, p, ZZ),
                gf_rem(gf_mul(a, list(power(z, i)), p, ZZ), mod, p, ZZ), p, ZZ), p, ZZ)
            image.add(tuple(gf_rem(gf_mul(list(z), list(power(hz, q - 1)), p, ZZ),
                                   mod, p, ZZ)))
        want = image == mu
        g = make_gspec(f, [(f.element_at(a_idx), 1 + i * (q - 1))], qdeg)
        assert permcheck._mu_verdicts(g, 1, [c_idx]).tolist() == [want], (i, a_idx, c_idx)
        seen.add(want)
    assert seen == {True, False}


def test_h_verdicts_mu_routes_above_the_cap():
    """GF(2^16), q = 256, s = 1 + 2(q-1): brute force checks the first c and
    every c the mu route fails, with today's witnesses; the others are
    "mu".  A non-canonical s stays all "brute"."""
    f = field(2, 16)
    assert f.order > permcheck.DELTA_EXHAUSTIVE_CAP
    g = make_gspec(f, [(f.one, 2 * 256 - 1)], 8)
    cs = [f.element_at(i) for i in (5, 1, 2, 3, 4, 6, 7, 8)]
    mu = permcheck._mu_verdicts(g, 1, [c.index for c in cs]).tolist()
    assert set(mu[1:]) == {True, False}
    h, _ = pair_verdicts(g, 1, cs)
    want = [is_permutation(compose_h(g, c, 1)) for c in cs]
    assert [_verdict_tuple(v) for v in h.rows(f)] == [_verdict_tuple(v) for v in want]
    assert ([ROUTES[r] for r in h.route.tolist()]
            == ["brute"] + ["mu" if ok else "brute" for ok in mu[1:]])
    assert h.permutes.size == len(cs) and h.mu
    h7, _ = pair_verdicts(make_gspec(f, [(f.one, 7)], 8), 1, cs[:3])
    assert h7.route.tolist() == [ROUTES.index("brute")] * 3 and not h7.mu


@pytest.mark.parametrize("p, n, qdeg, s", [
    (3, 4, 2, 17),          # 81 points, canonical: every c brute-forced
    (2, 6, 3, 5),           # 64 points, not canonical
    (2, 16, 8, 511),        # above the cap, canonical: the mu route decides
    (2, 16, 8, 7),          # above the cap, not canonical
])
def test_h_verdicts_rows_are_verdict_and_route(p, n, qdeg, s):
    """Each h row's verdict is is_permutation(compose_h(g, c, k)), and its
    route is "mu" exactly for a permuting c after the first of a canonical
    g above DELTA_EXHAUSTIVE_CAP, "brute" otherwise."""
    f = field(p, n)
    g = make_gspec(f, [(f.one, s)], qdeg)
    cs = [f.element_at(i) for i in (5, 1, 2, 3, 4, 6, 7, 8)]
    mu_applies = permcheck._mu_verdicts(g, 1, [1]) is not None
    want = []
    for j, c in enumerate(cs):
        v = is_permutation(compose_h(g, c, 1))
        mu = mu_applies and f.order > permcheck.DELTA_EXHAUSTIVE_CAP and j > 0
        want.append((v, "mu" if mu and v.is_permutation else "brute"))
    h, _ = pair_verdicts(g, 1, cs)
    assert h.rows(f) == [v for v, _ in want]
    assert [ROUTES[r] for r in h.route.tolist()] == [r for _, r in want]
    above = f.order > permcheck.DELTA_EXHAUSTIVE_CAP
    assert ({r for _, r in want} == {"brute", "mu"}) == (mu_applies and above)


def test_h_verdicts_brute_checks_every_c_up_to_the_cap(monkeypatch):
    """On GF(2^14) every c is brute-forced as well; a mu verdict planted
    wrong at any c, or at a permuting c above the cap, raises."""
    f = field(2, 14)
    assert f.order == permcheck.DELTA_EXHAUSTIVE_CAP
    g = make_gspec(f, [(f.one, 1 + 2 * 127)], 7)
    cs = [f.element_at(i) for i in range(1, 9)]
    assert pair_verdicts(g, 1, cs)[0].route.tolist() == [ROUTES.index("brute")] * len(cs)
    real = permcheck._mu_verdicts

    def planted(*args):
        out = real(*args)
        out[-1] = not out[-1]
        return out
    monkeypatch.setattr(permcheck, "_mu_verdicts", planted)
    with pytest.raises(RuntimeError, match=f"mu route and brute force disagree at step 1, c {cs[-1].index}"):
        pair_verdicts(g, 1, cs)


@pytest.mark.parametrize("at", [0, -1])
def test_f_verdicts_exit_when_mu_and_brute_disagree_on_h(monkeypatch, at):
    """A shift form's call decides h too: for the canonical g = x^(2q-1) over
    GF(8^2), a mu verdict planted wrong at the first or the last c of GF(8)*
    raises from pair_verdicts with deltas, which otherwise agrees with brute
    force."""
    f = field(2, 6)
    g = make_gspec(f, [(f.one, 2 * 8 - 1)], 3)
    cs = [f.element_at(i) for i in sorted(f.subfield_indices(3) - {0})]
    real = permcheck._mu_verdicts
    assert real(g, 1, [c.index for c in cs]) is not None
    assert pair_verdicts(g, 1, cs, range(f.order))[1].rows(f) == [
        is_permutation(compose_f(g, c, 1, d)) for c in cs for d in f.elements()]

    def planted(*args):
        out = real(*args)
        out[at] = not out[at]
        return out
    monkeypatch.setattr(permcheck, "_mu_verdicts", planted)
    with pytest.raises(RuntimeError, match=f"mu route and brute force disagree at step 1, "
                                           f"c {cs[at].index}:"):
        pair_verdicts(g, 1, cs, range(f.order))


@pytest.mark.parametrize("argv, at", [
    # every c brute-checked on GF(81): a wrong verdict planted at the last c
    (["--family", "thm5", "--q", "9"], -1),
    # lem15-1 over GF(2^18): a permuting c planted as failing is brute-checked
    (["--family", "lem15-1", "--q", "512"], -1),
    # and the first c, brute-checked whatever the mu route says
    (["--family", "lem15-1", "--q", "512"], 0),
])
def test_verify_exits_4_when_mu_and_brute_disagree(tmp_path, monkeypatch, capsys,
                                                   argv, at):
    real = permcheck._mu_verdicts

    def planted(*args):
        out = real(*args)
        out[at] = not out[at]
        return out

    monkeypatch.setattr(permcheck, "_mu_verdicts", planted)
    assert cli.main(["verify", *argv, "--out", str(tmp_path / "o.json")]) == 4
    err = capsys.readouterr().err
    assert "mu route and brute force disagree" in err and argv[1] in err


def test_verify_lem15_1_q512_takes_the_mu_route(tmp_path):
    """GF(2^18) with 3 values of c: brute force checks the first, the mu
    route alone decides the other 2."""
    out = tmp_path / "o.json"
    assert cli.main(["verify", "--family", "lem15-1", "--q", "512", "--out", str(out)]) == 0
    run = json.loads(out.read_text())["timings"]["runs"][0]
    assert run["routes"] == {"fibre": 0, "prefix": 0, "brute": 1, "mu": 2}
    assert [form["instances"] for form in run["forms"]] == [3]


# ---------------------------------------------------------------------------
# inverse tables
# ---------------------------------------------------------------------------

def test_build_inverse_table_round_trip():
    f = field(7, 2)
    fn = make_fn_trinomial(f, f.one, 19)
    inv = build_inverse_table(fn)
    outs = evaluate_all(fn)
    assert np.array_equal(inv[outs], np.arange(f.order))
    assert np.array_equal(outs[inv], np.arange(f.order))


def test_build_inverse_table_refuses_non_permutation():
    f = field(7, 1)
    with pytest.raises(ValueError):
        build_inverse_table(make_fn_exponent_sum(f, [(f.one, 3)]))


# ---------------------------------------------------------------------------
# multiplicative-coset reduction (iff with the brute-force verdict)
# ---------------------------------------------------------------------------

def test_lemma1_frozen_examples():
    # x^3 * h(x^2) over GF(9), h = 1 + y: d = 4, e = 2
    f = field(3, 2)
    res = lemma1_check(f, 3, [(f.one, 0), (f.one, 1)], 4)
    assert res.consistent
    # the monomial case h = 1: x^r permutes iff gcd(r, Q-1) = 1
    res2 = lemma1_check(f, 3, [(f.one, 0)], 1)
    assert res2.consistent
    assert res2.brute_is_permutation == (math.gcd(3, 8) == 1)


def test_lemma1_assembly_expands_exponents():
    f = field(3, 2)
    fn = lemma1_assemble(f, 2, [(f.one, 0), (f.one, 1)], 4)
    # x^2 * (1 + x^2) = x^2 + x^4
    assert fn.terms == ((1, 2), (1, 4))


def test_lemma1_iff_randomized():
    """Reduction verdict == brute force on 200 seeded cases, Q <= 2^10."""
    pool = [(2, 4), (2, 6), (2, 8), (2, 10), (3, 2), (3, 4), (3, 5),
            (5, 2), (5, 3), (7, 2), (11, 2), (13, 2), (17, 2), (19, 2),
            (23, 2), (29, 2), (31, 2), (3, 6), (5, 4), (7, 3)]
    rng = random.Random(1729)
    checked = 0
    while checked < 200:
        p, n = pool[rng.randrange(len(pool))]
        f = field(p, n)
        Q = f.order
        divisors = [d for d in range(1, Q) if (Q - 1) % d == 0]
        d = divisors[rng.randrange(len(divisors))]
        r = rng.randint(1, 12)
        h_terms = [(f.element_at(rng.randrange(1, Q)), rng.randrange(0, 7))
                   for _ in range(rng.randint(1, 3))]
        res = lemma1_check(f, r, h_terms, d)
        assert res.consistent, (p, n, r, d, h_terms)
        checked += 1


@pytest.mark.parametrize("p, n", [(2, 6), (3, 4), (5, 2), (7, 2), (2, 8)])
def test_lemma1_mu_side_matches_the_scalar_loop(p, n):
    """mu_permuted from the mu-route kernel equals the scalar loop over
    mu_subgroup(d): x^r * h(x)^((Q-1)/d) at each x, a zero of h mapping to
    0, onto the set mu_d."""
    f = field(p, n)
    Q = f.order
    rng = random.Random(p * 10 + n)
    seen = set()
    for d in [d for d in range(1, Q) if (Q - 1) % d == 0]:
        for _ in range(6):
            r = rng.randint(1, 12)
            h_terms = [(f.element_at(rng.randrange(1, Q)), rng.randrange(-3, 2 * d))
                       for _ in range(rng.randint(1, 3))]
            h_fn = make_fn_exponent_sum(f, h_terms)
            mu = f.mu_subgroup(d)
            image = set()
            for x in mu:
                hx = evaluate(h_fn, x)
                image.add((x**r * hx**((Q - 1) // d)).index if hx.index else 0)
            want = image == {x.index for x in mu}
            assert lemma1_check(f, r, h_terms, d).mu_permuted == want, (d, r, h_terms)
            seen.add(want)
    assert seen == {True, False}


def test_lemma1_rejects_bad_divisor():
    f = field(3, 2)
    with pytest.raises(ValueError):
        lemma1_check(f, 1, [(f.one, 0)], 3)   # 3 does not divide 8


# ---------------------------------------------------------------------------
# sweep screen: prefix exits, then the full check on the survivors
# ---------------------------------------------------------------------------

SCREEN_QS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64]


def _sweep_field(q):
    p, k = prime_power(q)
    return field(p, 2 * k), k


def _brute_hits(f, c, qdeg):
    return [s for s in range(1, f.order - 1)
            if is_permutation(make_fn_trinomial(f, c, s, 1, qdeg)).is_permutation]


def _screen_cs(f, q):
    """c = 1 everywhere; c = Q-1 (the last index) and a seeded random c up
    to q = 32."""
    if q > 32:
        return [f.one]
    rng = random.Random(q)
    return [f.one, f.element_at(f.order - 1),
            f.element_at(rng.randrange(2, f.order - 1))]


@pytest.mark.parametrize("q", SCREEN_QS)
def test_trinomial_hits_match_brute_force_every_exponent(q):
    f, qdeg = _sweep_field(q)
    ss = range(1, f.order - 1)
    for c in _screen_cs(f, q):
        hits, full_checks = trinomial_hits(f, c, ss, 1, qdeg)
        assert hits == _brute_hits(f, c, qdeg), (q, c)
        survivors = int(prefix_survivors(f, c, ss, 1, qdeg).sum())
        assert full_checks == survivors >= len(hits)


def _first_repeat(fn, points):
    """The first pair (a, b), a < b, of points with equal values by scalar
    evaluate, or None."""
    seen = {}
    for x in points:
        v = evaluate(fn, fn.field.element_at(x)).index
        if v in seen:
            return seen[v], x
        seen[v] = x
    return None


@pytest.mark.parametrize("q, sample", [(q, None) for q in (2, 3, 4, 5, 7, 8, 9, 16)]
                         + [(25, 100), (64, 120)])
def test_every_prefix_exit_is_a_real_collision(q, sample):
    """The screen's mask is exactly 'no repeat on the prefix' by scalar
    evaluate: every exit has two prefix points with one value, every
    survivor has none (all exponents, or a seeded sample of each kind)."""
    f, qdeg = _sweep_field(q)
    B = prefix_size(f.order)
    ss = np.arange(1, f.order - 1)
    rng = random.Random(q)
    exits = 0
    for c in _screen_cs(f, q):
        keep = prefix_survivors(f, c, ss, 1, qdeg)
        picked = [ss[keep].tolist(), ss[~keep].tolist()]
        if sample:
            picked = [rng.sample(part, min(sample, len(part))) for part in picked]
        for survives, part in zip((True, False), picked):
            for s in part:
                fn = make_fn_trinomial(f, c, s, 1, qdeg)
                pair = _first_repeat(fn, range(B))
                assert (pair is None) == survives, (q, c, s)
                if pair:
                    a, b = (f.element_at(x) for x in pair)
                    assert evaluate(fn, a) == evaluate(fn, b)
                    exits += 1
    assert exits or q <= 3


@pytest.mark.parametrize("q", [2, 3])
def test_prefix_covering_the_field_is_the_full_verdict(q):
    f, qdeg = _sweep_field(q)
    assert prefix_size(f.order) == f.order
    ss = range(1, f.order - 1)
    for c in f.elements():
        if c.index:
            keep = prefix_survivors(f, c, ss, 1, qdeg).tolist()
            hits = _brute_hits(f, c, qdeg)
            assert keep == [s in hits for s in ss], c
            assert trinomial_hits(f, c, ss, 1, qdeg) == (hits, len(hits))


def test_prefix_screen_memory_stays_bounded():
    """The screen works in fixed-size blocks: over GF(128^2) its traced peak
    stays far below one table of every exponent on the prefix (66 MB)."""
    f, qdeg = _sweep_field(128)
    f.bulk()
    tracemalloc.start()
    try:
        hits, _ = trinomial_hits(f, f.one, range(1, f.order - 1), 1, qdeg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(hits) == 152
    assert peak < 8 * 2**20, peak


def test_trinomial_screen_refuses_what_make_fn_trinomial_refuses():
    f, qdeg = _sweep_field(8)
    for ss in ([0, 5], [-3]):
        with pytest.raises(ValueError):
            prefix_survivors(f, f.one, ss, 1, qdeg)
    with pytest.raises(ValueError):
        trinomial_hits(f, f.zero, [5], 1, qdeg)
    with pytest.raises(ValueError):
        trinomial_hits(f, f.one, [5], 2, qdeg)                # k out of range
    with pytest.raises(ValueError):
        trinomial_hits(f, f.one, [f.order - 1], 1, qdeg)      # x^s is constant


def test_trinomial_hits_refuses_a_degenerate_exponent_before_screening(monkeypatch):
    """An s that is a multiple of order-1, where h = c*x, raises
    _trinomial_g's error before the prefix screen runs on any exponent."""
    f = field(2, 4)

    def screen(*args):
        raise AssertionError("screened")
    monkeypatch.setattr(permcheck, "prefix_survivors", screen)
    for ss in ([3, 15], [30], np.array([7, 45, 2])):
        with pytest.raises(ValueError, match="exponent is a multiple of order-1; power term"):
            trinomial_hits(f, f.one, ss, 1, 2)
    with pytest.raises(ValueError, match="exponent is a multiple of order-1; power term"):
        make_fn_trinomial(f, f.one, 15, 1, 2)
