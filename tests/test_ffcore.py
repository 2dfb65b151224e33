import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from permlab.ffcore import (_SLICE, DEFAULT_SIZE_CAP, MAX_ORDER, Element, FieldCtx,
                            _Bulk, _digits, _first_irreducible, get_field, is_prime,
                            make_field)


# ---------------------------------------------------------------------------
# modulus selection
# ---------------------------------------------------------------------------

# Lexicographically-first monic irreducibles, coefficient tuples constant
# first.  Cross-checked below by an independent product scan, and once by
# hand (x^4 + 1 factors over GF(3); x^4 + x + 2 does not).
FROZEN_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (5, 2): (2, 0, 1),
    (7, 2): (1, 0, 1),
    (13, 2): (2, 0, 1),
    (17, 2): (3, 0, 1),
}


def poly_mul_mod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def all_monic_polys(p, deg):
    for packed in range(p**deg):
        coeffs, t = [], packed
        for _ in range(deg):
            coeffs.append(t % p)
            t //= p
        yield coeffs + [1]


def is_irreducible_by_products(poly, p):
    """No monic factorization deg(a), deg(b) >= 1 reproduces poly."""
    n = len(poly) - 1
    for da in range(1, n // 2 + 1):
        for a in all_monic_polys(p, da):
            for b in all_monic_polys(p, n - da):
                if poly_mul_mod_p(a, b, p) == list(poly):
                    return False
    return True


def test_modulus_frozen_values():
    for (p, n), want in FROZEN_MODULI.items():
        assert FieldCtx(p, n).modulus == want


def test_modulus_is_irreducible_independent_scan():
    for (p, n), mod in FROZEN_MODULI.items():
        if p**n > 300:
            continue  # product scan is quartic in the order; keep it small
        assert is_irreducible_by_products(mod, p), (p, n)


def test_modulus_is_lexicographically_first():
    # every smaller monic polynomial (same degree, base-p tuple order) splits
    for p, n in [(3, 2), (2, 4), (5, 2)]:
        fld = FieldCtx(p, n)
        found = fld.modulus
        for cand in all_monic_polys(p, n):
            cand_t = tuple(cand)
            if cand_t == found:
                break
            assert not is_irreducible_by_products(cand_t, p), (
                f"GF({p}^{n}) skipped irreducible {cand_t}")


def test_modulus_matches_sympy_for_every_field_up_to_the_cap():
    """Every GF(p^n), n >= 2, p^n <= 2^22 (400 fields): sympy accepts the
    chosen modulus and rejects every lexicographically smaller monic
    candidate (2,801 of them)."""
    fields = [(p, n) for p in range(2, 2049) if is_prime(p)
              for n in range(2, 23) if p**n <= DEFAULT_SIZE_CAP]
    assert len(fields) == 400
    smaller = 0
    for p, n in fields:
        mod = _first_irreducible(p, n)
        assert len(mod) == n + 1 and mod[-1] == 1
        assert gf_irreducible_p(list(reversed(mod)), p, ZZ), (p, n)
        low = sum(c * p**i for i, c in enumerate(mod[:n]))
        for cand in range(low):
            assert not gf_irreducible_p(
                [1, *reversed(_digits(cand, p, n))], p, ZZ), (p, n, cand)
        smaller += low
    assert smaller == 2801


def poly_rem(num, den, p):
    """Remainder of num by the monic den; coefficient lists, constant first."""
    rem = list(num)
    dd = len(den) - 1
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            for j in range(dd + 1):
                rem[i - dd + j] = (rem[i - dd + j] - c * den[j]) % p
    return rem[:dd]


def first_irreducible_by_trial_division(p, n):
    """The first monic candidate of degree n, in base-p order of its low
    coefficients, that no monic polynomial of degree 1..n//2 divides."""
    if n == 1:
        return (0, 1)
    divisors = [tuple(d) for deg in range(1, n // 2 + 1)
                for d in all_monic_polys(p, deg)]
    for cand in all_monic_polys(p, n):
        if all(any(poly_rem(cand, d, p)) for d in divisors):
            return tuple(cand)


def test_ben_or_search_matches_trial_division_up_to_2_12():
    """Every GF(p^n) with p^n <= 2^12: the Ben-Or search picks the modulus
    that trial division by every low-degree monic polynomial picks."""
    fields = [(p, n) for p in range(2, 1 << 12) if is_prime(p)
              for n in range(1, 13) if p**n <= 1 << 12]
    assert (2, 12) in fields and (3, 7) in fields and (4093, 1) in fields
    for p, n in fields:
        assert _first_irreducible(p, n) == first_irreducible_by_trial_division(p, n), (p, n)


def test_gf81_reduction_matches_hand_computation():
    # modulus x^4 + x + 2 over GF(3): x^4 = -x - 2 = 2x + 1
    f = FieldCtx(3, 4)
    x = f.element_at(3)          # coeffs (0,1,0,0)
    x4 = f.mul(f.mul(x, x), f.mul(x, x))
    assert x4.index == 2 * 3 + 1  # 2x + 1 -> index 7


# ---------------------------------------------------------------------------
# element indexing
# ---------------------------------------------------------------------------

def test_index_round_trip():
    f = FieldCtx(5, 2)
    for i in range(f.order):
        assert f.element_at(i).index == i


def test_scalar_embedding():
    f = FieldCtx(7, 2)
    assert f.zero.index == 0
    assert f.one.index == 1
    assert f.scalar(9).index == 2   # 9 mod 7
    assert f.scalar(-1).index == 6


def test_element_at_range_check():
    f = FieldCtx(3, 2)
    with pytest.raises(ValueError):
        f.element_at(9)
    with pytest.raises(ValueError):
        f.element_at(-1)


# ---------------------------------------------------------------------------
# field axioms (seeded random + exhaustive on the smallest fields)
# ---------------------------------------------------------------------------

def test_axioms_exhaustive_gf9():
    f = FieldCtx(3, 2)
    els = list(f.elements())
    for a in els:
        assert f.add(a, f.zero) == a
        assert f.mul(a, f.one) == a
        assert f.add(a, f.neg(a)) == f.zero
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_axioms_random_larger_fields():
    rng = random.Random(20240811)
    for p, n in [(3, 4), (2, 6), (13, 2)]:
        f = FieldCtx(p, n)
        for _ in range(200):
            a = f.element_at(rng.randrange(f.order))
            b = f.element_at(rng.randrange(f.order))
            c = f.element_at(rng.randrange(f.order))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))


def test_inverse_and_division():
    f = FieldCtx(3, 4)
    for i in range(1, f.order):
        a = f.element_at(i)
        assert f.mul(a, f.inv(a)) == f.one
    with pytest.raises(ZeroDivisionError):
        f.inv(f.zero)
    with pytest.raises(ZeroDivisionError):
        f.div(f.one, f.zero)


def test_dual_route_multiplication():
    """Log-table product equals schoolbook polynomial product mod modulus."""
    f = FieldCtx(3, 2)
    p = f.p

    def poly_of(idx):
        return [idx % p, idx // p]

    def idx_of(poly):
        return poly[0] + p * poly[1]

    for i in range(f.order):
        for j in range(f.order):
            prod = poly_mul_mod_p(poly_of(i), poly_of(j), p)
            # reduce by x^2 = -1 (modulus x^2 + 1)
            while len(prod) > 2:
                hi = prod.pop()
                prod[-2] = (prod[-2] - hi) % p
            while len(prod) < 2:
                prod.append(0)
            got = f.mul(f.element_at(i), f.element_at(j))
            assert got.index == idx_of(prod)


def test_pow_agrees_with_repeated_mul():
    f = FieldCtx(2, 4)
    rng = random.Random(7)
    for _ in range(50):
        a = f.element_at(rng.randrange(1, f.order))
        e = rng.randrange(0, 40)
        acc = f.one
        for _ in range(e):
            acc = f.mul(acc, a)
        assert f.pow(a, e) == acc


# ---------------------------------------------------------------------------
# generator, subgroups, subfields
# ---------------------------------------------------------------------------

def test_generator_has_full_order():
    for p, n in [(3, 2), (2, 4), (7, 2)]:
        f = FieldCtx(p, n)
        g = f.element_at(f.generator_index)
        seen = set()
        a = f.one
        for _ in range(f.order - 1):
            seen.add(a.index)
            a = f.mul(a, g)
        assert len(seen) == f.order - 1


def test_mu_subgroup_gf7():
    f = FieldCtx(7, 1)
    assert sorted(e.index for e in f.mu_subgroup(3)) == [1, 2, 4]
    assert sorted(e.index for e in f.mu_subgroup(2)) == [1, 6]
    assert sorted(e.index for e in f.mu_subgroup(6)) == [1, 2, 3, 4, 5, 6]


def test_mu_subgroup_sizes():
    f = FieldCtx(3, 2)
    for d in (1, 2, 4, 8):
        assert len(f.mu_subgroup(d)) == d
    with pytest.raises(ValueError):
        f.mu_subgroup(3)  # 3 does not divide 8


def test_subfield_indices_frozen():
    f9 = FieldCtx(3, 2)
    assert sorted(f9.subfield_indices(1)) == [0, 1, 2]
    f81 = FieldCtx(3, 4)
    assert sorted(f81.subfield_indices(2)) == [0, 1, 2, 42, 43, 44, 75, 76, 77]
    assert sorted(f81.subfield_indices(1)) == [0, 1, 2]
    assert len(f81.subfield_indices(4)) == 81


def test_subfield_is_multiplicatively_closed():
    f = FieldCtx(2, 4)
    sub = f.subfield_indices(2)
    for i in sub:
        for j in sub:
            a, b = f.element_at(i), f.element_at(j)
            assert f.mul(a, b).index in sub
            assert f.add(a, b).index in sub


def test_is_in_subfield_matches_fixed_points():
    # GF(p^m) inside GF(p^n) is exactly the fixed set of x -> x^(p^m)
    f = FieldCtx(2, 6)
    for m in (1, 2, 3):
        fixed = {e.index for e in f.elements()
                 if f.frobenius(e, m) == e}
        assert fixed == set(f.subfield_indices(m))


# ---------------------------------------------------------------------------
# Frobenius and trace
# ---------------------------------------------------------------------------

def test_frobenius_is_additive_and_multiplicative():
    f = FieldCtx(3, 4)
    rng = random.Random(99)
    for _ in range(100):
        a = f.element_at(rng.randrange(f.order))
        b = f.element_at(rng.randrange(f.order))
        fa, fb = f.frobenius(a, 1), f.frobenius(b, 1)
        assert f.frobenius(f.add(a, b), 1) == f.add(fa, fb)
        assert f.frobenius(f.mul(a, b), 1) == f.mul(fa, fb)


def test_frobenius_power_is_pth_power():
    f = FieldCtx(5, 2)
    for e in f.elements():
        assert f.frobenius(e, 1) == f.pow(e, 5)
        assert f.frobenius(e, 2) == e


def test_trace_lands_in_subfield_and_is_surjective():
    f = FieldCtx(3, 4)
    for m in (1, 2):
        sub = f.subfield_indices(m)
        hit = set()
        for e in f.elements():
            t = f.trace_to_subfield(e, m)
            assert t.index in sub
            hit.add(t.index)
        assert hit == set(sub)


def test_trace_fiber_sizes_gf81_to_gf3():
    f = FieldCtx(3, 4)
    counts = {}
    for e in f.elements():
        t = f.trace_to_subfield(e, 1).index
        counts[t] = counts.get(t, 0) + 1
    assert counts == {0: 27, 1: 27, 2: 27}


PROPERTY_FIELDS = [(2, 6), (3, 4), (5, 2), (7, 2)]


@settings(max_examples=80)
@given(pn=st.sampled_from(PROPERTY_FIELDS), data=st.data())
def test_frobenius_is_additive_and_multiplicative_scalar_and_bulk(pn, data):
    f = FieldCtx(*pn)
    i = data.draw(st.integers(0, 2 * f.n))
    idx = st.lists(st.integers(0, f.order - 1), min_size=1, max_size=16)
    a_idx = data.draw(idx)
    b_idx = data.draw(st.lists(st.integers(0, f.order - 1),
                               min_size=len(a_idx), max_size=len(a_idx)))
    for ai, bi in zip(a_idx, b_idx):
        a, b = f.element_at(ai), f.element_at(bi)
        fa, fb = f.frobenius(a, i), f.frobenius(b, i)
        assert f.frobenius(a + b, i) == fa + fb
        assert f.frobenius(a - b, i) == fa - fb
        assert f.frobenius(a * b, i) == fa * fb
    bulk = f.bulk()
    A = np.array(a_idx, dtype=np.int64)
    B = np.array(b_idx, dtype=np.int64)
    fA, fB = bulk.frob(A, i), bulk.frob(B, i)
    assert np.array_equal(bulk.frob(bulk.add(A, B), i), bulk.add(fA, fB))
    assert np.array_equal(bulk.frob(bulk.sub(A, B), i), bulk.sub(fA, fB))
    assert np.array_equal(bulk.frob(bulk.mul(A, B), i), bulk.mul(fA, fB))
    assert fA.tolist() == [f.frobenius(f.element_at(a), i).index for a in a_idx]


@settings(max_examples=80)
@given(pn=st.sampled_from(PROPERTY_FIELDS + [(3, 6), (13, 2), (5, 1)]), data=st.data())
def test_field_axioms_scalar_and_bulk(pn, data):
    """Commutativity, associativity, distributivity of mul over add, and
    (a - b) + b = a, on drawn triples through the scalar Element path and
    the bulk layer, which must agree."""
    f = FieldCtx(*pn)
    triples = data.draw(st.lists(st.tuples(*[st.integers(0, f.order - 1)] * 3),
                                 min_size=1, max_size=16))
    A, B, C = np.array(triples, dtype=np.int64).T
    for ai, bi, ci in triples:
        a, b, c = f.element_at(ai), f.element_at(bi), f.element_at(ci)
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a and a + (-a) == f.zero
    bulk = f.bulk()
    add, mul = bulk.add, bulk.mul
    assert np.array_equal(add(A, B), add(B, A)) and np.array_equal(mul(A, B), mul(B, A))
    assert np.array_equal(add(add(A, B), C), add(A, add(B, C)))
    assert np.array_equal(mul(mul(A, B), C), mul(A, mul(B, C)))
    assert np.array_equal(mul(A, add(B, C)), add(mul(A, B), mul(A, C)))
    assert np.array_equal(add(bulk.sub(A, B), B), A)
    assert add(A, B).tolist() == [(f.element_at(x) + f.element_at(y)).index
                                  for x, y in zip(A.tolist(), B.tolist())]


TRACE_CASES = [(p, n, base) for p, n in PROPERTY_FIELDS
               for base in range(1, n + 1) if n % base == 0]


@settings(max_examples=40)
@given(case=st.sampled_from(TRACE_CASES), data=st.data())
def test_bulk_trace_is_onto_its_subfield_and_linear_over_it(case, data):
    """_Bulk.trace(base) takes every value of GF(p^base), each equally often,
    and nothing else; and Tr(a*x + y) = a*Tr(x) + Tr(y) for a in GF(p^base)."""
    p, n, base = case
    f = FieldCtx(p, n)
    bulk = f.bulk()
    tr = bulk.trace(base)
    sub = sorted(f.subfield_indices(base))
    counts = np.bincount(tr, minlength=f.order)
    assert set(np.flatnonzero(counts).tolist()) == set(sub)
    assert set(counts[sub].tolist()) == {f.order // len(sub)}
    a = data.draw(st.sampled_from(sub))
    x = np.array(data.draw(st.lists(st.integers(0, f.order - 1), min_size=1,
                                    max_size=16)), dtype=np.int64)
    y = np.array(data.draw(st.lists(st.integers(0, f.order - 1),
                                    min_size=x.size, max_size=x.size)),
                 dtype=np.int64)
    lhs = tr[bulk.add(bulk.mul_scalar(a, x), y)]
    assert np.array_equal(lhs, bulk.add(bulk.mul_scalar(a, tr[x]), tr[y]))


# ---------------------------------------------------------------------------
# bulk (vectorized) arithmetic vs scalar route
# ---------------------------------------------------------------------------

def test_bulk_matches_scalar_ops():
    f = FieldCtx(3, 4)
    b = f.bulk()
    xs = np.arange(f.order, dtype=np.int64)
    rng = random.Random(5)
    ys = np.array([rng.randrange(f.order) for _ in range(f.order)],
                  dtype=np.int64)
    add = b.add(xs, ys)
    sub = b.sub(xs, ys)
    mul = b.mul(xs, ys)
    for i in range(0, f.order, 7):
        x, y = f.element_at(int(xs[i])), f.element_at(int(ys[i]))
        assert add[i] == f.add(x, y).index
        assert sub[i] == f.sub(x, y).index
        assert mul[i] == f.mul(x, y).index


def test_bulk_pow_and_frob():
    f = FieldCtx(2, 4)
    b = f.bulk()
    xs = np.arange(f.order, dtype=np.int64)
    p3 = b.pow_const(xs, 3)
    fr = b.frob(xs, 2)
    for i in range(f.order):
        e = f.element_at(i)
        assert p3[i] == f.pow(e, 3).index
        assert fr[i] == f.frobenius(e, 2).index


def test_bulk_mul_scalar():
    f = FieldCtx(7, 2)
    b = f.bulk()
    xs = np.arange(f.order, dtype=np.int64)
    c = f.element_at(10)
    got = b.mul_scalar(c.index, xs)
    for i in range(0, f.order, 5):
        assert got[i] == f.mul(c, f.element_at(i)).index


# ---------------------------------------------------------------------------
# exp/log tables: the doubling build vs the scalar chain and sympy
# ---------------------------------------------------------------------------

def scalar_tables(f):
    """(generator, exp, log) by the scalar chain cur -> _mul_raw(cur, g): the
    generator is the smallest index >= 2 whose chain first returns to 1 after
    order - 1 steps."""
    Q = f.order
    if Q == 2:
        return 1, [1], [-1, 0]
    for gen in range(2, Q):
        exp, cur = [], 1
        while True:
            exp.append(cur)
            cur = f._mul_raw(cur, gen)
            if cur == 1:
                break
        if len(exp) == Q - 1:
            break
    log = [-1] * Q
    for i, e in enumerate(exp):
        log[e] = i
    return gen, exp, log


def small_field_params(limit):
    for p in range(2, limit + 1):
        if not all(p % d for d in range(2, int(p**0.5) + 1)):
            continue
        n = 1
        while p**n <= limit:
            yield p, n
            n += 1


def test_tables_match_scalar_chain_every_small_field():
    params = list(small_field_params(1 << 12)) + [(2, 16), (3, 9)]
    assert (2, 12) in params and (3, 7) in params and (4093, 1) in params
    for p, n in params:
        f = FieldCtx(p, n)
        gen, exp, log = scalar_tables(f)
        assert f.generator_index == gen, (p, n)
        assert f._exp.tolist() == exp, (p, n)
        assert f._log.tolist() == log, (p, n)
        assert f._exp_arr.tolist() == exp and f._log_arr.tolist() == log, (p, n)


@pytest.fixture(scope="module")
def large_fields():
    """The cap in characteristic 2, a wide odd-p extension, and the two odd-p
    fields nearest the cap, where e * log a and the n = 1 products of the
    table build pass 2^31 while the tables themselves are int32."""
    return [FieldCtx(2, 22), FieldCtx(5, 8), FieldCtx(2039, 2), FieldCtx(4194301, 1)]


def test_tables_chain_at_seeded_positions_large_fields(large_fields):
    rng = random.Random(22)
    for f in large_fields:
        Q, g = f.order, f.generator_index
        exp, log = f._exp_arr, f._log_arr
        assert np.array_equal(np.sort(exp), np.arange(1, Q))
        assert log[0] == -1
        for i in [0, Q - 2] + [rng.randrange(Q - 1) for _ in range(300)]:
            assert f._mul_raw(int(exp[i]), g) == int(exp[(i + 1) % (Q - 1)])
            assert log[exp[i]] == i
            assert f._exp[i] == exp[i] and f._log[f._exp[i]] == i


# (p, n) -> generator: odd n with uneven chunks, 13 digits, one digit per
# chunk, a prime field near the cap, and blocks smaller than any table
EDGE_FIELDS = {(2, 21): 2, (3, 13): 3, (2039, 2): 2044, (4194301, 1): 7,
               (2, 1): 1, (3, 1): 2, (2, 2): 2}


@pytest.mark.parametrize("pn", list(EDGE_FIELDS), ids=lambda pn: f"GF({pn[0]}^{pn[1]})")
def test_tables_chain_at_seeded_positions_edge_fields(pn):
    """exp and log against the scalar _mul_raw chain, and 1 + g^i by the
    digit tables against the digit-wise oracle, every position of the tiny
    fields and seeded positions of the large ones."""
    f = FieldCtx(*pn)
    p, n, Q = f.p, f.n, f.order
    assert f.generator_index == EDGE_FIELDS[pn]
    exp, log = f._exp_arr, f._log_arr
    assert exp[0] == 1 and log[0] == -1
    assert np.array_equal(np.sort(exp), np.arange(1, Q))
    rng = random.Random(sum(pn))
    positions = range(Q - 1) if Q < 1000 else (
        [0, 1, Q - 2] + [rng.randrange(Q - 1) for _ in range(300)])
    for i in positions:
        e = int(exp[i])
        assert f._mul_raw(e, f.generator_index) == int(exp[(i + 1) % (Q - 1)]), (pn, i)
        assert log[e] == i, (pn, i)
        assert f._add_idx(e, 1) == int(digitwise(e, 1, p, n, 1)), (pn, i)
    assert (f._pack_arr is None) == (p == 2 or n == 1)


def test_tables_match_sympy_powers(large_fields):
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_pow_mod

    rng = random.Random(8)
    fields = [FieldCtx(p, n) for p, n in [(2, 8), (3, 5), (7, 3), (13, 2)]]
    for f in fields + large_fields:
        p, n, Q = f.p, f.n, f.order
        mod = list(reversed(f.modulus))                 # highest degree first
        g = list(reversed(f.element_at(f.generator_index).coeffs))
        for i in [0, 1, Q - 2] + [rng.randrange(Q - 1) for _ in range(40)]:
            want = gf_pow_mod(g, i, mod, p, ZZ)
            want = [0] * (n - len(want)) + [int(c) for c in want]
            assert f.element_at(f._exp[i]).coeffs == tuple(reversed(want)), (p, n, i)


SLICED_FIELDS = [(2, n) for n in range(1, 23)] + [(3, 11), (5, 8), (3, 13)]


@pytest.mark.parametrize("pn", SLICED_FIELDS, ids=lambda pn: f"GF({pn[0]}^{pn[1]})")
def test_tables_chain_at_every_slice_end(pn, monkeypatch):
    """Each doubling block is multiplied a slice of at most _SLICE elements
    at a time: at the first and last position of every slice of every
    block, exp steps by one factor g and log inverts it, and exp is a
    permutation of 1..Q-1."""
    blocks = []
    times_const = FieldCtx._times_const

    def spy(self, arr, c, out):
        blocks.append(((out.ctypes.data - arr.ctypes.data) // out.itemsize, out.size))
        return times_const(self, arr, c, out)
    monkeypatch.setattr(FieldCtx, "_times_const", spy)
    f = FieldCtx(*pn)
    Q, g = f.order, f.generator_index
    exp, log = f._exp_arr, f._log_arr
    assert Q == 2 or blocks[-1][0] + blocks[-1][1] == Q - 1, pn
    if Q > 4 * _SLICE:
        assert max(size for _, size in blocks) > _SLICE, pn
    for offset, size in blocks:
        for start in range(0, size, _SLICE):
            for i in (offset + start, offset + min(start + _SLICE, size) - 1):
                assert f._mul_raw(int(exp[i]), g) == exp[(i + 1) % (Q - 1)], (pn, i)
                assert log[exp[i]] == i, (pn, i)
    counts = np.bincount(exp, minlength=Q)
    assert counts[0] == 0 and (counts[1:] == 1).all(), pn


# (p, n) -> (generator, sha256 of exp, sha256 of log): the tables are fixed
# by the modulus and the generator, so any change to how they are built must
# keep these bytes
TABLE_DIGESTS = {
    (2, 22): (2, "19bb50c5b9d62b3c31f5af7718a05fd962c303fdc054aea962df665afba17a77",
              "4ade05a2604541b379faf126d422d887c2542b7121c9d1fc16d5e4b72e7f65eb"),
    (2, 17): (2, "e4f2e9711acdc86451c30683012cb37dc620ceff8c78a3dedfe22f46711513ad",
              "6f6cef4b4c0a4b3e7215a268c5843bfe21b5c29511a73e7f46e927873ae882c1"),
    (5, 8): (6, "80bf9390da5b13d791d01ebd1f0fc4b0d5d4fc3b726a655c307bef12b8c96238",
             "961c0efc1d8014b53a85782ca7171c9429b6679e1b7f80c407be21362dab4615"),
    (3, 13): (3, "f6ec896a8208790cd0fa5a6d438dc73df2a3ddd208caa6eaab93201b66dc4f26",
              "78c3fa9eac52b3b044444d9e933841b985f3718f874db376f5514bad385c8569"),
    (13, 4): (17, "13a89694c60207d40e121442fa00b393073f01dbdba9bb1ec7d92fe5647e0dce",
              "b67b6e0c92c7f8c45a11de01d3505655c19262bf0837cff2538bcc711fcf42f0"),
    (2039, 2): (2044, "88c2a6a1510389c6ce30c72e77395cd1c5d4350dd824910e8b33bdcaec0e7298",
                "9374cef5af2c8e1ba21eb41cd32736f161f6e765f841640b6be4c0946df8a562"),
}


@pytest.mark.parametrize("pn", list(TABLE_DIGESTS), ids=lambda pn: f"GF({pn[0]}^{pn[1]})")
def test_tables_match_pinned_digests(pn):
    f = FieldCtx(*pn)
    assert (f.generator_index, hashlib.sha256(f._exp_arr.tobytes()).hexdigest(),
            hashlib.sha256(f._log_arr.tobytes()).hexdigest()) == TABLE_DIGESTS[pn]


@pytest.mark.parametrize("p, n", [(2, 20), (3, 12)])
def test_build_memory_stays_bounded(p, n):
    """Beside the tables it keeps (exp, log and the digit tables), a build
    holds only a slice's temporaries and the log scatter's block: the
    traced peak less the kept tables (0.75 MB now) stays under 1.5 MB,
    where multiplying GF(2^20)'s last block in one piece adds several
    2 MB temporaries."""
    tracemalloc.start()
    try:
        f = FieldCtx(p, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = f._exp_arr.nbytes + f._log_arr.nbytes
    if f._pack_arr is not None:
        kept += f._pack_arr.nbytes + sum(table.nbytes for _, table in f._unpack_arr)
    assert peak - kept < 1.5 * 2**20, peak - kept


def digitwise(a, b, p, n, sign):
    """a + sign*b by adding base-p digits mod p."""
    out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
    for i in range(n):
        out += (a // p**i % p + sign * (b // p**i % p)) % p * p**i
    return out


ODD_EXTENSIONS = [(p, n) for p, n in small_field_params(1 << 12) if p > 2 and n > 1]


def test_bulk_add_sub_all_pairs_odd_extensions():
    """Digit-wise add and sub against the oracle on every pair of every odd
    field with n > 1 and order at most 2^12, a block of rows at a time."""
    assert (3, 7) in ODD_EXTENSIONS and (61, 2) in ODD_EXTENSIONS and len(ODD_EXTENSIONS) == 29
    for p, n in ODD_EXTENSIONS:
        f = FieldCtx(p, n)
        b = f.bulk()
        Q = f.order
        ys = np.arange(Q)
        for lo in range(0, Q, 256):
            xs = np.arange(lo, min(Q, lo + 256))[:, None]
            assert np.array_equal(b.add(xs, ys), digitwise(xs, ys, p, n, 1)), (p, n, lo)
            assert np.array_equal(b.sub(xs, ys), digitwise(xs, ys, p, n, -1)), (p, n, lo)


def test_bulk_add_sub_seeded_pairs_large_fields():
    """Seeded pairs where the pack table is int64 (GF(3^13)), fills 32 bits
    (GF(5^8)), and where the unpack tables are two uneven groups (GF(7^7))
    or one field each (GF(2039^2)): zero operands, a = -b, a = b, numpy
    scalars on either side, and out=."""
    rng = np.random.default_rng(10)
    for p, n in [(3, 13), (5, 8), (7, 7), (2039, 2)]:
        f = FieldCtx(p, n)
        b = f.bulk()
        xs = rng.integers(0, f.order, 20000)
        ys = rng.integers(0, f.order, 20000)
        xs[:50] = 0                                   # zero left operand
        ys[50:100] = 0                                # zero right operand
        xs[100:110] = ys[100:110] = 0
        ys[110:200] = digitwise(0, xs[110:200], p, n, -1)   # a = -b
        ys[200:250] = xs[200:250]                     # a = b
        want = digitwise(xs, ys, p, n, 1)
        assert np.array_equal(b.add(xs, ys), want), (p, n)
        assert np.array_equal(b.sub(xs, ys), digitwise(xs, ys, p, n, -1)), (p, n)
        assert (b.add(xs[110:200], ys[110:200]) == 0).all()
        for c in [0, 1, p - 1, int(rng.integers(f.order))]:
            s = np.int64(c)
            assert np.array_equal(b.add(xs, s), digitwise(xs, s, p, n, 1)), (p, n, c)
            assert np.array_equal(b.add(s, xs), digitwise(xs, s, p, n, 1)), (p, n, c)
            assert np.array_equal(b.sub(s, xs), digitwise(s, xs, p, n, -1)), (p, n, c)
            assert np.array_equal(b.sub(xs, s), digitwise(xs, s, p, n, -1)), (p, n, c)
            assert b.add(s, s) == digitwise(c, c, p, n, 1) and b.sub(s, s) == 0, (p, n, c)


def scalar_add_sub_neg(f, xs, ys):
    """(a + b, a - b, -a) index lists through the scalar Element path."""
    pairs = [(f.element_at(a), f.element_at(b)) for a, b in zip(xs, ys)]
    return ([f.add(a, b).index for a, b in pairs],
            [f.sub(a, b).index for a, b in pairs],
            [f.neg(a).index for a, _ in pairs])


def test_scalar_add_sub_neg_all_pairs_small_fields():
    for p, n in [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]:
        f = FieldCtx(p, n)
        a_all, b_all = (g.ravel() for g in np.meshgrid(np.arange(f.order), np.arange(f.order)))
        add, sub, neg = scalar_add_sub_neg(f, a_all.tolist(), b_all.tolist())
        assert add == digitwise(a_all, b_all, p, n, 1).tolist(), (p, n)
        assert sub == digitwise(a_all, b_all, p, n, -1).tolist(), (p, n)
        assert neg == digitwise(0, a_all, p, n, -1).tolist(), (p, n)


def test_scalar_add_sub_neg_every_element_odd_extensions():
    """Every element of every odd field with n > 1 and order at most 2^12
    as the left operand, against 0, its negative and two seeded partners."""
    rng = np.random.default_rng(11)
    for p, n in ODD_EXTENSIONS:
        f = FieldCtx(p, n)
        xs = np.tile(np.arange(f.order), 4)
        ys = rng.integers(0, f.order, xs.size)
        ys[:f.order] = 0
        ys[f.order:2 * f.order] = digitwise(0, xs[:f.order], p, n, -1)
        add, sub, neg = scalar_add_sub_neg(f, xs.tolist(), ys.tolist())
        assert add == digitwise(xs, ys, p, n, 1).tolist(), (p, n)
        assert sub == digitwise(xs, ys, p, n, -1).tolist(), (p, n)
        assert neg == digitwise(0, xs, p, n, -1).tolist(), (p, n)


def test_scalar_add_sub_neg_seeded_pairs_large_fields():
    rng = np.random.default_rng(12)
    for p, n in [(3, 10), (3, 13), (5, 8), (7, 7), (2039, 2)]:
        f = FieldCtx(p, n)
        xs = rng.integers(0, f.order, 3000)
        ys = rng.integers(0, f.order, 3000)
        xs[:20] = 0                                   # zero left operand
        ys[20:40] = 0                                 # zero right operand
        xs[40:45] = ys[40:45] = 0
        ys[45:100] = digitwise(0, xs[45:100], p, n, -1)     # a = -b
        ys[100:150] = xs[100:150]                     # a = b
        add, sub, neg = scalar_add_sub_neg(f, xs.tolist(), ys.tolist())
        assert add == digitwise(xs, ys, p, n, 1).tolist(), (p, n)
        assert sub == digitwise(xs, ys, p, n, -1).tolist(), (p, n)
        assert neg == digitwise(0, xs, p, n, -1).tolist(), (p, n)
        assert all(isinstance(i, int) for i in add + sub + neg)


def test_scalar_pow_inv_frobenius_match_pow_raw_every_point():
    """pow, inv and frobenius from the tables against _pow_raw, the
    square-and-multiply chain over _mul_raw that the generator search uses."""
    for p, n in [(2, 1), (3, 1), (13, 1), (2, 4), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2)]:
        f = FieldCtx(p, n)
        Q = f.order
        for e in (0, 1, 2, -1, -5, Q - 1, Q, 3 * (Q - 1) + 2):
            for a in range(1, Q):
                want = f._pow_raw(a, e) if e >= 0 else f._pow_raw(f._pow_raw(a, Q - 2), -e)
                got = f.pow(f.element_at(a), e)
                assert got.index == want and isinstance(got.index, int), (p, n, e, a)
            if e > 0:
                assert f.pow(f.zero, e) == f.zero
            else:
                with pytest.raises(ValueError if e == 0 else ZeroDivisionError):
                    f.pow(f.zero, e)
        for a in range(1, Q):
            assert f.inv(f.element_at(a)).index == f._pow_raw(a, Q - 2), (p, n, a)
        with pytest.raises(ZeroDivisionError):
            f.inv(f.zero)
        for i in range(2 * n + 1):
            assert [f.frobenius(x, i).index for x in f.elements()] == [
                f._pow_raw(a, p**i) for a in range(Q)], (p, n, i)


def test_one_shared_digit_table_per_field(monkeypatch):
    """The pack table and the unpack tables are built once per context and
    read only; pack is uint32 where n fields of (2p-1).bit_length() bits fit
    in 32 bits, else int64, and every unpack table is int32 with at most
    max(order, 2^16) entries.  Odd p with n > 1 has one array add: the
    exp-table doubling sums its chunk reads with it, and bulk add and sub
    are one call of it each; a bulk view keeps no tables of its own."""
    import permlab.ffcore as ffcore
    assert not hasattr(ffcore, "_lookup") and not hasattr(_Bulk, "_unpack")
    calls = []
    shared_add = FieldCtx._add_arr

    def counted(self, *args, **kwargs):
        calls.append((self.p, self.n))
        return shared_add(self, *args, **kwargs)
    monkeypatch.setattr(FieldCtx, "_add_arr", counted)
    for p, n in [(3, 2), (3, 6), (3, 13), (5, 3), (5, 8), (7, 2), (7, 7), (2039, 2)]:
        calls.clear()
        f = FieldCtx(p, n)
        if (p, n) in [(3, 6), (5, 8), (2039, 2)]:
            assert calls and set(calls) == {(p, n)}, (p, n)     # the build adds
        pack = f._pack_arr
        bits = (2 * p - 1).bit_length()
        assert pack.dtype == (np.uint32 if n * bits <= 32 else np.int64), (p, n)
        assert not pack.flags.writeable and pack.size == f.order
        xs = np.arange(f.order, dtype=np.int64)
        assert np.array_equal(pack, sum(xs // p**i % p << bits * i for i in range(n))), (p, n)
        assert np.shares_memory(pack, np.asarray(f._pack))  # the scalar path reads these too
        b = f.bulk()
        assert f.bulk() is b and not hasattr(b, "pack") and not hasattr(b, "unpack")
        calls.clear()
        assert b.add(xs[:5], xs[1:6]).tolist() == [
            f._add_idx(i, i + 1) for i in range(5)]
        assert b.sub(xs[:5], xs[1:6]).tolist() == [
            f._add_idx(i, f._neg_idx(i + 1)) for i in range(5)]
        assert calls == [(p, n)] * 2, (p, n)
        assert len(f._unpack_arr) == -(-n // max(
            w for w in range(1, n + 1) if 1 << bits * w <= max(f.order, 1 << 16))), (p, n)
        for _, table in f._unpack_arr:
            assert table.dtype == np.int32 and not table.flags.writeable
            assert table.size <= max(f.order, 1 << 16), (p, n)
    calls.clear()
    for p, n in [(2, 1), (2, 6), (7, 1)]:
        f = FieldCtx(p, n)
        assert f._pack_arr is None and f._unpack_arr is None
        f.bulk().add(np.arange(f.order), np.arange(f.order))
    assert calls == []


def test_bulk_power_kernels_every_point_small_fields():
    """pow_const, mul_scalar and mul against scalar pow/mul at every point,
    zero and exponents that are multiples of order-1 included; inputs stay
    untouched (the kernels work in place on their own log arrays)."""
    for p, n in [(2, 1), (3, 1), (13, 1), (2, 4), (2, 6), (3, 4), (5, 2), (7, 2)]:
        f = FieldCtx(p, n)
        b = f.bulk()
        Q, M = f.order, f.order - 1
        els = list(f.elements())
        xs = np.arange(Q, dtype=np.int64)
        for e in sorted({1, 2, 3, p, max(M - 1, 1), M, 2 * M, 3 * M + 5}):
            assert b.pow_const(xs, e).tolist() == [f.pow(x, e).index for x in els], (p, n, e)
        for c in els:
            want = [f.mul(c, x).index for x in els]
            assert b.mul_scalar(c.index, xs).tolist() == want, (p, n, c)
        a_all, b_all = (g.ravel() for g in np.meshgrid(xs, xs))
        want = [f.mul(els[i], els[j]).index for i, j in zip(a_all.tolist(), b_all.tolist())]
        assert b.mul(a_all, b_all).tolist() == want, (p, n)
        assert b.mul(xs, np.int64(0)).tolist() == [0] * Q
        assert np.array_equal(xs, np.arange(Q))


def test_bulk_power_kernels_seeded_positions_large_fields(large_fields):
    """pow_const, mul_scalar, mul, add/sub, frob and pow_outer against the
    scalar path at seeded positions of the fields at the cap, where the
    exponent arithmetic passes 2^31 over int32 tables; int32 operands (an
    exp slice, the tables' own dtype) give the same values."""
    rng = random.Random(23)
    for f in large_fields:
        b = f.bulk()
        Q = f.order
        assert b.exp.dtype == b.log.dtype == np.int32
        xs = np.array([0, 1, Q - 1] + [rng.randrange(Q) for _ in range(200)], dtype=np.int64)
        ys = np.array([rng.randrange(Q) for _ in range(xs.size)], dtype=np.int64)
        ys[:5] = 0
        ys[5:10] = xs[5:10]
        els = [f.element_at(i) for i in xs.tolist()]
        yels = [f.element_at(i) for i in ys.tolist()]
        es = (2, 3, f.p ** (f.n // 2), Q - 2, Q - 1, Q + 5)
        for e in es:
            want = [f.pow(x, e).index for x in els]
            assert b.pow_const(xs, e).tolist() == want, (f, e)
            assert b.pow_const(xs.astype(np.int32), e).tolist() == want, (f, e)
        table = b.pow_outer(b.log[xs], np.array(es, dtype=np.int64))
        assert table.tolist() == [[f.pow(x, e).index for x in els] for e in es], f
        c = rng.randrange(2, Q)
        assert b.mul_scalar(c, xs).tolist() == [f.mul(f.element_at(c), x).index for x in els]
        want = [f.mul(x, y).index for x, y in zip(els, yels)]
        assert b.mul(xs, ys).tolist() == want, f
        assert b.add(xs, ys).tolist() == [f.add(x, y).index for x, y in zip(els, yels)], f
        assert b.sub(xs, ys).tolist() == [f.sub(x, y).index for x, y in zip(els, yels)], f
        assert b.add(xs.astype(np.int32), ys.astype(np.int32)).tolist() == [
            f.add(x, y).index for x, y in zip(els, yels)], f
        for i in range(1, f.n + 1):
            assert b.frob(xs, i).tolist() == [f.frobenius(x, i).index for x in els], (f, i)


def test_shift_base_is_read_only_and_built_once(monkeypatch):
    for p, n, pstep in [(2, 4, 1), (2, 6, 2), (3, 4, 2), (5, 2, 1), (3, 2, 1)]:
        f = FieldCtx(p, n)
        b = f.bulk()
        base = b.shift_base(pstep)
        assert np.array_equal(base, b.sub(b.frob(b.xs, pstep), b.xs))
        assert base.tolist() == [f.sub(f.frobenius(x, pstep), x).index for x in f.elements()]
        assert not base.flags.writeable
        with pytest.raises(ValueError):
            base[0] = 1

        def rebuilt(*args):
            raise AssertionError("shift image rebuilt")

        monkeypatch.setattr(b, "frob", rebuilt)
        assert b.shift_base(pstep) is base
        monkeypatch.undo()
        other = FieldCtx(p, n).bulk().shift_base(pstep)
        assert other is not base and np.array_equal(other, base)


def test_trace_table_is_read_only_built_once_and_matches_scalar(monkeypatch):
    for p, n in [(2, 4), (2, 6), (3, 4), (5, 2), (7, 2), (3, 2), (2, 1)]:
        f = FieldCtx(p, n)
        b = f.bulk()
        for base in (d for d in range(1, n + 1) if n % d == 0):
            tr = b.trace(base)
            assert tr.tolist() == [f.trace_to_subfield(x, base).index
                                   for x in f.elements()], (p, n, base)
            assert not tr.flags.writeable
            with pytest.raises(ValueError):
                tr[0] = 1

            def rebuilt(*args):
                raise AssertionError("trace table rebuilt")

            monkeypatch.setattr(b, "frob", rebuilt)
            monkeypatch.setattr(b, "add", rebuilt)
            assert b.trace(base) is tr
            monkeypatch.undo()
            other = FieldCtx(p, n).bulk().trace(base)
            assert other is not tr and np.array_equal(other, tr)
    for bad in (0, 3, 5):
        with pytest.raises(ValueError):
            FieldCtx(2, 4).bulk().trace(bad)


# ---------------------------------------------------------------------------
# construction guards
# ---------------------------------------------------------------------------

def test_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        FieldCtx(6, 2)
    with pytest.raises(ValueError):
        FieldCtx(1, 3)


def test_rejects_order_above_cap():
    with pytest.raises(ValueError):
        FieldCtx(2, 5, cap=16)
    assert make_field(2, 4, cap=16).order == 16


@pytest.mark.parametrize("p, n", [(2, 31), (3, 20), (2147483659, 1)])
def test_rejects_order_int32_tables_cannot_index(p, n, monkeypatch):
    """An order above 2^31 - 1 is refused whatever the cap, before the
    modulus search or any table is built."""
    assert MAX_ORDER == 2**31 - 1 < p**n

    def built(*args):
        raise AssertionError("field construction started")

    monkeypatch.setattr(FieldCtx, "_init_tables", built)
    monkeypatch.setattr("permlab.ffcore._first_irreducible", built)
    with pytest.raises(ValueError, match="int32"):
        FieldCtx(p, n, cap=2**40)


def test_cap_default_allows_desk_scale():
    assert DEFAULT_SIZE_CAP >= 1 << 16


def test_get_field_builds_one_context_per_field():
    """However the cap is spelled, and whatever cap at or above the order is
    passed, get_field returns the one cached context; a cap below the order
    still raises FieldCtx's error, and make_field still builds afresh."""
    f = get_field(2, 4)
    for same in (get_field(2, 4, DEFAULT_SIZE_CAP), get_field(2, 4, cap=DEFAULT_SIZE_CAP),
                 get_field(2, 4, 16), get_field(2, 4, cap=MAX_ORDER)):
        assert same is f
    with pytest.raises(ValueError, match=r"field order 2\^4 = 16 exceeds size cap 15"):
        get_field(2, 4, 15)
    with pytest.raises(ValueError, match="exceeds size cap"):
        get_field(2, 23)
    with pytest.raises(ValueError, match="characteristic must be prime"):
        get_field(4, 2)
    fresh = make_field(2, 4)
    assert fresh is not f and fresh == f
    assert get_field(2, 4) is f


def test_element_operators_coerce_ints_and_match_the_field_methods():
    """Element's int coercion and its reflected and division operators each
    give the FieldCtx method's result; a non-integer power raises TypeError."""
    f = FieldCtx(5, 2)
    e = f.element_at(7)
    assert e + 3 == 3 + e == f.add(e, f.scalar(3))
    assert 3 - e == f.sub(f.scalar(3), e) and e - 3 == f.sub(e, f.scalar(3))
    assert 3 * e == f.mul(f.scalar(3), e)
    assert e / 2 == f.div(e, f.scalar(2))
    assert 2 / e == f.div(f.scalar(2), e)
    assert (2 / e) * e == f.scalar(2)
    assert not bool(f.zero) and bool(f.one) and bool(e)
    assert e ** 3 == f.pow(e, 3)
    with pytest.raises(TypeError):
        e ** 1.5
    with pytest.raises(TypeError):
        e + 1.5


def test_field_equality_and_element_guard():
    f1, f2 = FieldCtx(3, 2), FieldCtx(3, 2)
    other = FieldCtx(5, 2)
    assert f1 == f2
    a = f1.element_at(4)
    b = other.element_at(4)
    with pytest.raises(ValueError):
        f1.add(a, b)


def test_element_guard_identity_fast_path(monkeypatch):
    """An element of the field itself is accepted without the structural
    comparison; one of an equal field built separately is still accepted
    through it, and one of another field, or a non-element, is refused."""
    f1, f2, other = FieldCtx(3, 2), FieldCtx(3, 2), FieldCtx(3, 4)
    calls = []
    real = FieldCtx.__eq__
    monkeypatch.setattr(FieldCtx, "__eq__", lambda s, o: calls.append(o) or real(s, o))
    f1._check(f1.element_at(4))
    assert calls == []
    f1._check(f2.element_at(4))
    assert calls
    assert f1.add(f1.element_at(4), f2.element_at(5)) == f1.add(f1.element_at(4),
                                                                f1.element_at(5))
    for bad in (other.element_at(4), 4, None):
        with pytest.raises(ValueError, match="does not belong"):
            f1._check(bad)
