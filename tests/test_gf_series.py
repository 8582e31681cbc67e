import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkshapes.gf import GF, field, is_prime, least_irreducible
from bkshapes.series import Mat2, PrecisionError, ScaleError, Series


def test_is_prime_matches_sympy():
    from sympy import isprime

    assert [n for n in range(-3, 20000) if is_prime(n) != isprime(n)] == []
    # strong pseudoprimes to the bases 2, 3, 5, 7, to the first 9 primes and to the first
    # 12, Carmichael numbers, large primes, and odd numbers below the Miller-Rabin limit
    hard = [3215031751, 3825123056546413051, 318665857834031151167461,
            561, 1105, 1729, 41041, 825265, 321197185,
            2**61 - 1, 10**18 + 9, 10**24 + 7]
    rng = random.Random("is-prime")
    hard += [rng.randrange(10**6, 10**24) | 1 for _ in range(2000)]
    assert [n for n in hard if is_prime(n) != isprime(n)] == []


def test_is_prime_is_fast_at_the_boundary():
    start = time.perf_counter()
    assert is_prime(10**14 + 31)
    assert time.perf_counter() - start < 0.01


def test_is_prime_refuses_at_and_above_its_limit():
    from sympy import isprime

    from bkshapes.gf import _MR_LIMIT

    assert is_prime(_MR_LIMIT - 2) == isprime(_MR_LIMIT - 2)
    for n in (_MR_LIMIT, _MR_LIMIT + 2, 10**40):
        with pytest.raises(ValueError, match=f"the limit is {_MR_LIMIT}$"):
            is_prime(n)


def test_least_irreducible_degree2_mod3():
    # x^2 + 1 is the first irreducible in packed order over F_3
    assert least_irreducible(3, 2) == (1, 0, 1)


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (5, 2), (3, 4)])
def test_field_axioms(p, m):
    F = field(p, m)
    q = F.q
    sample = range(q) if q <= 30 else list(range(10)) + [q - 1, q // 2, q // 3]
    for a, b in itertools.product(sample, repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a, b, c in itertools.product(sample[:8], repeat=3):
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


def test_dot_matches_scalar_loop():
    F = field(3, 2)
    xs = np.array([1, 5, 7, 0, 3], dtype=F.dtype)
    ys = np.array([2, 8, 1, 4, 6], dtype=F.dtype)
    acc = 0
    for x, y in zip(xs, ys):
        acc = F.add(acc, F.mul(int(x), int(y)))
    assert F.dot(xs, ys) == acc


ORACLE_FIELDS = [(p, m) for p in (2, 3, 5, 7) for m in range(1, 10) if p**m <= 729]


@pytest.mark.parametrize("p,m", ORACLE_FIELDS)
def test_tables_match_sympy(p, m):
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p, gf_mul, gf_rem, gf_strip

    F = field(p, m)
    q = F.q
    modulus = [ZZ(c) for c in reversed(F.poly)]
    assert gf_irreducible_p(modulus, p, ZZ)

    def to_poly(code):  # sympy lists run from the leading coefficient down
        return gf_strip([ZZ((code // p**j) % p) for j in reversed(range(m))])

    def to_code(poly):
        return sum(int(c) * p**j for j, c in enumerate(reversed(poly)))

    powers = p ** np.arange(m)
    digits = (np.arange(q)[:, None] // powers) % p
    assert np.array_equal(F.ADD, ((digits[:, None, :] + digits[None, :, :]) % p) @ powers)
    assert np.array_equal(F.NEG, ((-digits) % p) @ powers)
    # products a * x^j from sympy; F_p-linearity in b fixes MUL[a, b] from them
    by_xj = np.array([[to_code(gf_rem(gf_mul(to_poly(a), to_poly(p**j), p, ZZ), modulus, p, ZZ))
                       for j in range(m)] for a in range(q)])
    assert np.array_equal(F.MUL[:, powers], by_xj)
    by_xj_digits = (by_xj[:, :, None] // powers) % p
    assert np.array_equal(F.MUL, (np.einsum("bj,ajk->abk", digits, by_xj_digits) % p) @ powers)
    nonzero = np.arange(1, q)
    assert F.INV[0] == 0 and np.all(F.MUL[nonzero, F.INV[nonzero]] == 1)


def test_f9_defining_polynomial_is_not_primitive():
    # x^2 + 1 over F_3: its root x (code 3) has order 4, not 8
    F = field(3, 2)
    x2 = F.mul(3, 3)
    assert x2 == F.neg(1) and F.mul(x2, x2) == 1
    assert (3, 2) in ORACLE_FIELDS


def _S(F, scale, val, coeffs, prec=None):
    return Series(F, scale, val, coeffs, prec)


def test_series_examples():
    F = field(3)
    v = Series.monomial(F, "v", 1, 1)
    one = Series.one(F, "v")
    vm1 = Series.monomial(F, "v", 1, -1)
    assert (vm1 + one) * v == one + v
    inv = (one + v).inverse(3)
    assert inv == _S(F, "v", 0, [1, 2, 1], 3)
    assert (one + v).frobenius() == one + Series.monomial(F, "v", 1, 3)


def test_inverse_against_multiplication_oracle():
    F = field(3, 2)
    rng = np.random.default_rng(11)
    for _ in range(25):
        coeffs = rng.integers(0, 9, size=10)
        coeffs[0] = rng.integers(1, 9)
        s = _S(F, "v", int(rng.integers(-3, 4)), list(map(int, coeffs)))
        inv = s.inverse(24)
        prod = s * inv
        assert prod.coefficient(0) == 1
        for e in range(prod.val, min(prod.prec, 20)):
            assert prod.coefficient(e) == (1 if e == 0 else 0)


def test_inverse_errors():
    F = field(3)
    with pytest.raises(ZeroDivisionError):
        Series.zero(F, "v").inverse()
    with pytest.raises(PrecisionError):
        Series.zero(F, "v", prec=5).inverse()
    for s in (_S(F, "v", 1, [1, 2]), _S(F, "v", 1, [1, 2], prec=6)):
        with pytest.raises(PrecisionError):
            s.inverse(0)
    # an exact monomial inverts exactly, whatever the term count
    assert Series.monomial(F, "v", 2, 3).inverse(4) == Series.monomial(F, "v", 2, -3)
    assert Series.monomial(F, "v", 2, 3).inverse().prec is None


def test_precision_tracking():
    F = field(3)
    a = _S(F, "v", 0, [1, 1], prec=4)
    b = _S(F, "v", 2, [2], prec=6)
    assert (a * b).prec == 6  # min(4 + 2, 6 + 0)
    assert (a + b).prec == 4
    with pytest.raises(PrecisionError):
        a.coefficient(5)
    assert a.coefficient(3) == 0
    # a zero known below prec is O(v**prec), so O(v) * O(v) is known below v**2
    F9 = field(3, 2)
    fuzzy, v = _S(F9, "v", 0, [], prec=1), Series.monomial(F9, "v", 1, 1)
    assert (fuzzy * fuzzy).prec == 2 and (fuzzy.shift(3) * fuzzy).prec == 5
    assert (fuzzy * v).prec == (v * fuzzy).prec == 2
    # an exact zero factor makes the product exactly zero, however little the other knows
    assert (Series.zero(F9, "v") * fuzzy).prec is None
    assert (fuzzy.shift(-4) * Series.zero(F9, "v")).prec is None
    det = Mat2(v, fuzzy, fuzzy, Series.one(F9, "v")).det()
    assert det == v and det.prec == 2


def test_frobenius_precision_and_support():
    F = field(3)
    s = _S(F, "v", -1, [1, 0, 2], prec=5)
    fs = s.frobenius()
    assert fs.val == -3 and [int(c) for c in fs.coeffs] == [1, 0, 0, 0, 0, 0, 2]
    assert fs.prec == 15


def test_scale_discipline():
    F = field(3)
    u = Series.monomial(F, "u", 1, 1)
    v = Series.monomial(F, "v", 1, 1)
    with pytest.raises(ScaleError):
        u + v
    assert v.to_u(8) == Series.monomial(F, "u", 1, 8)
    assert Series.monomial(F, "u", 2, 16).to_v(8) == Series.monomial(F, "v", 2, 2)
    with pytest.raises(ScaleError):
        Series.monomial(F, "u", 1, 3).to_v(8)


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=60)
def test_series_ring_identities(a0, a1, b0):
    F = field(3, 2)
    a = _S(F, "v", 0, [a0, a1])
    b = _S(F, "v", 1, [b0, a0])
    c = _S(F, "v", -1, [1, a1])
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - a).is_zero()


@pytest.mark.parametrize("p,m", ORACLE_FIELDS)
def test_convolve_matches_schoolbook(p, m):
    from bkshapes import _kernels

    F = field(p, m)

    def schoolbook(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = F.add(out[i + j], F.mul(int(x), int(y)))
        return out

    rng = np.random.default_rng(7)
    zeros = np.zeros(3, dtype=F.dtype)
    top = np.full(9, F.q - 1, dtype=F.dtype)  # every digit p - 1
    for la, lb in [(1, 1), (1, 13), (13, 1), (2, 2), (5, 9), (30, 24)]:
        a = rng.integers(0, F.q, size=la).astype(F.dtype)
        b = rng.integers(0, F.q, size=lb).astype(F.dtype)
        padded = np.concatenate([zeros[:2], a, zeros])
        for x, y in [(a, b), (padded, b), (b, padded), (zeros[:1], b), (top, b), (top, top)]:
            got = _kernels.convolve(x, y, F.ADD, F.MUL)
            assert got.dtype == x.dtype
            assert [int(c) for c in got] == schoolbook(x, y)


def _rowwise_convolve(a, b, add, mul):
    """One MUL row per coefficient of a, summed through ADD (no packing, no floats)."""
    out = np.zeros(len(a) + len(b) - 1, dtype=a.dtype)
    for i, ai in enumerate(a):
        seg = out[i : i + len(b)]
        seg[:] = add[seg, mul[ai, b]]
    return out


@pytest.mark.parametrize("p,m", [(4093, 1), (2, 12)])
def test_convolve_long_product_is_exact(p, m):
    # operands of code q - 1 (every digit p - 1) give the largest partial sums
    from bkshapes import _kernels

    F = field(p, m)
    rng = np.random.default_rng(3)
    top = np.full(2048, F.q - 1, dtype=F.dtype)
    rand = rng.integers(0, F.q, size=2000).astype(F.dtype)
    for a, b in [(top, top), (rand, top[:2000])]:
        got = _kernels.convolve(a, b, F.ADD, F.MUL)
        assert np.array_equal(got, _rowwise_convolve(a, b, F.ADD, F.MUL))

    # signed two-term entries sum their slots unreduced, so the subtracted term
    # can leave sums of either sign and of twice the size of one product's
    def conv(x, y, off=0):
        return np.concatenate([np.zeros(off, dtype=F.dtype), _rowwise_convolve(x, y, F.ADD, F.MUL)])

    def sub(x, y):
        n = max(len(x), len(y))
        x, y = (np.concatenate([z, np.zeros(n - len(z), dtype=F.dtype)]) for z in (x, y))
        return F.ADD[x, F.NEG[y]]

    a, b, c, d = top, top, top, np.full(2048, 1, dtype=F.dtype)
    entries = [[(1, 0, 3, 0), (-1, 1, 2, 0)], [(-1, 1, 2, 0)], [(1, 1, 2, 0), (-1, 0, 3, 7)]]
    got = _kernels.sum_products([a, b, c, d], entries, F.MUL)
    zero = np.zeros(0, dtype=F.dtype)
    assert np.array_equal(got[0], sub(conv(a, d), conv(b, c)))
    assert np.array_equal(got[1], sub(zero, conv(b, c)))
    assert np.array_equal(got[2], sub(conv(b, c), conv(a, d, 7)))
    # the first entry on a stack of two, and m + 1 rows against one coefficient,
    # whose m live digits are fewer calls than the rows
    stacked = _kernels.sum_products([np.stack([x, x]) for x in (a, b, c, d)], entries[:1], F.MUL)
    assert np.array_equal(stacked[0], np.stack([got[0], got[0]]))
    edge, wide = np.full((m + 1, 1), F.q - 1, dtype=F.dtype), np.tile(top, (m + 1, 1))
    got = _kernels.sum_products([edge, wide], [[(1, 0, 1, 0), (-1, 1, 0, 3)]], F.MUL)[0]
    assert np.array_equal(got, np.tile(sub(conv(edge[0], top), conv(top, edge[0], 3)), (m + 1, 1)))


def _per_row_sum_products(codes, entries, mul):
    """`_kernels.sum_products` by one np.convolve per stack row and term: the reference for stacks.

    It shares only the plan's digit table and folding matrix with the kernel.
    """
    from bkshapes import _kernels

    plan = _kernels._plan(mul)
    w = plan.width
    rows = [np.atleast_2d(c) for c in codes]
    spelled = [plan.digits[c].reshape(len(c), -1) for c in rows]
    sizes = [max([off + codes[i].shape[-1] + codes[k].shape[-1] - 1 for _, i, k, off in terms],
                 default=0) for terms in entries]
    slots, pos = np.zeros((len(rows[0]), (sum(sizes) + 1) * w)), 0
    for terms, size in zip(entries, sizes):
        for sign, i, k, off in terms:
            at = (pos + off) * w
            for row, u, v in zip(slots, spelled[i], spelled[k]):
                prod = np.convolve(u, v)
                row[at : at + len(prod)] += sign * prod
        pos += size
    folded = slots[:, : sum(sizes) * w].reshape(-1, w) @ plan.fold
    out = (folded.astype(np.int64) % plan.p @ plan.powers).astype(codes[0].dtype)
    out = out.reshape(len(slots), sum(sizes))
    return [out[:, end - size : end].reshape(codes[0].shape[:-1] + (size,))
            for size, end in zip(sizes, itertools.accumulate(sizes))]


@pytest.mark.parametrize("p,m", ORACLE_FIELDS)
def test_stacked_sum_products_match_the_per_row_reference(p, m, monkeypatch):
    """Stacks of N members, the shorter operand on either side, signed terms with offsets.

    Each term is formed by one np.convolve per row or one multiply-add
    per live digit of its shorter operand, whichever makes fewer calls;
    both ways are exercised on stacks, and a 1-D product is one row.
    """
    from bkshapes import _kernels

    F = field(p, m)
    rng = np.random.default_rng(100 * p + m)
    convolve, calls, used = np.convolve, [], set()
    monkeypatch.setattr(np, "convolve", lambda *args: calls.append(1) or convolve(*args))
    for N in (1, 2, 4, 50):
        for la, lb in [(la, 14 - la) for la in range(1, 14)] + [(45, 70)]:
            a, d = rng.integers(0, F.q, size=(2, N, la)).astype(F.dtype)
            b, c = rng.integers(0, F.q, size=(2, N, lb)).astype(F.dtype)
            off = int(rng.integers(0, 5))
            entries = [[(1, 0, 1, 0), (-1, 2, 3, off)], [], [(-1, 1, 0, off)], [(1, 3, 3, 2)]]
            for codes in ([a, b, c, d], [a[0], b[0], c[0], d[0]]):
                del calls[:]
                got = _kernels.sum_products(codes, entries, F.MUL)
                used.add((codes[0].ndim, len(calls) > 0))
                want = _per_row_sum_products(codes, entries, F.MUL)
                assert len(got) == len(want)
                for g, r in zip(got, want):
                    assert g.dtype == r.dtype and g.shape == r.shape and np.array_equal(g, r)
    assert used == {(1, True), (2, True), (2, False)}


def test_stacked_mat2_product_makes_no_per_row_call(monkeypatch):
    """A 50-member Mat2 product at (3,2), drawn as verify draws it, makes no per-row call."""
    from bkshapes.randgen import code_matrices, draw_unit_matrices

    F = field(3, 2)
    rng = random.Random("no-per-row-call")
    A, B = (code_matrices(F, draw_unit_matrices(rng, F, 4, 50)) for _ in range(2))
    convolve, calls = np.convolve, []
    monkeypatch.setattr(np, "convolve", lambda *args: calls.append(1) or convolve(*args))
    prod = A * B
    assert calls == []
    monkeypatch.undo()
    for n in range(50):
        for got, want in zip(prod.e, (A.member(n) * B.member(n)).e):
            _assert_member(got, n, want)


def _inverse_by_division(s, n):
    """First n coefficients of 1/s by the division recurrence, one F.dot per term."""
    F = s.field
    a = np.zeros(n, dtype=F.dtype)
    take = min(n, len(s.coeffs))
    a[:take] = s.coeffs[:take]
    inv0 = F.inv(int(a[0]))
    out = np.zeros(n, dtype=F.dtype)
    out[0] = inv0
    for k in range(1, n):
        kk = min(k, take - 1)
        acc = F.dot(a[1 : kk + 1], out[k - kk : k][::-1]) if kk >= 1 else 0
        out[k] = F.mul(F.neg(inv0), acc)
    return [int(c) for c in out]


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 4), (5, 2), (7, 1)])
def test_inverse_matches_division_recurrence(p, m):
    from bkshapes.series import DEFAULT_PRECISION

    F = field(p, m)
    rng = np.random.default_rng(p * 10 + m)
    cases = []  # (series, terms, expected n)
    for _ in range(12):
        length = int(rng.integers(2, 40))
        coeffs = rng.integers(0, F.q, size=length)
        coeffs[[0, -1]] = rng.integers(1, F.q, size=2)  # not a monomial
        val = int(rng.integers(-5, 6))
        exact = _S(F, "v", val, list(map(int, coeffs)))
        cases += [(exact, None, DEFAULT_PRECISION), (exact, 1, 1), (exact, 2, 2), (exact, 37, 37)]
        for known in (1, 3, length, length + 20):
            bounded = _S(F, "v", val, list(map(int, coeffs)), prec=val + known)
            cases += [(bounded, None, known), (bounded, 5, min(known, 5)), (bounded, 100, known)]
    for s, terms, n in cases:
        inv = s.inverse(terms)
        assert inv.val == -s.val and inv.prec == -s.val + n
        assert [inv.coefficient(-s.val + k) for k in range(n)] == _inverse_by_division(s, n)


@given(st.integers(0, 8), st.integers(0, 8), st.integers(1, 8))
@settings(max_examples=40)
def test_frobenius_is_multiplicative(a1, b0, b1):
    F = field(3, 2)
    a = _S(F, "v", -1, [1, a1])
    b = _S(F, "v", 2, [b0, b1])
    assert (a * b).frobenius() == a.frobenius() * b.frobenius()


def test_mat2_algebra():
    F = field(3, 2)
    one = Series.one(F, "v")
    v = Series.monomial(F, "v", 1, 1)
    z = Series.zero(F, "v")
    M = Mat2(one + v, v, z, one)
    Minv = M.inverse(16)
    prod = M * Minv
    assert prod[0, 0].coefficient(0) == 1 and prod[1, 1].coefficient(0) == 1
    assert prod[0, 1].is_zero() and prod[1, 0].is_zero()
    assert M.det() == (one + v)


def _diag_monomials(F, exps):
    zero = Series.zero(F, "v")
    x0, x1 = (Series.monomial(F, "v", 1, e) for e in exps)
    return Mat2(x0, zero, zero, x1)


def _random_entry(rng, F, bounded):
    if rng.random() < 0.2:
        return Series.zero(F, "v", rng.randrange(-2, 6) if bounded else None)
    val = rng.randrange(-3, 4)
    coeffs = [rng.randrange(F.q) for _ in range(rng.randrange(1, 6))]
    prec = val + rng.randrange(0, 8) if bounded else None
    return Series(F, "v", val, coeffs, prec)


def _assert_matches_product(got, want):
    """Entries agree with the product and are known at least as far."""
    for s, t in zip(got.e, want.e):
        assert s == t
        assert s.prec is None or (t.prec is not None and s.prec >= t.prec)
        if t.prec is None:
            assert s.val == t.val and np.array_equal(s.coeffs, t.coeffs)


@pytest.mark.parametrize("bounded", [False, True])
@pytest.mark.parametrize("p,m", [(3, 2), (5, 2)])
def test_shifted_and_swapped_match_monomial_products(p, m, bounded):
    F = field(p, m)
    rng = random.Random(f"shifted-{p}-{m}-{bounded}")
    one, zero = Series.one(F, "v"), Series.zero(F, "v")
    swap = Mat2(zero, one, one, zero)
    ident = Mat2(one, zero, zero, one)
    for _ in range(200):
        M = Mat2(*(_random_entry(rng, F, bounded) for _ in range(4)))
        rows = (rng.randrange(-3, 4), rng.randrange(-3, 4))
        cols = (rng.randrange(-3, 4), rng.randrange(-3, 4))
        want = _diag_monomials(F, rows) * M * _diag_monomials(F, cols)
        _assert_matches_product(M.shifted(rows=rows, cols=cols), want)
        _assert_matches_product(M.shifted(cols=cols), M * _diag_monomials(F, cols))
        _assert_matches_product(M.shifted(rows=rows), _diag_monomials(F, rows) * M)
        for swap_rows, swap_cols in itertools.product((False, True), repeat=2):
            want = (swap if swap_rows else ident) * M * (swap if swap_cols else ident)
            _assert_matches_product(M.swapped(swap_rows, swap_cols), want)


def _reference_mul(x, y):
    """The product rule entry by entry: table-driven coefficients, no packing.

    Each factor's prec plus the least exponent the other can have a term at
    bounds the product's prec; a zero known below prec is O(x**prec), and
    an exact zero factor makes the product exactly zero.
    """
    F = x.field
    if any(s.is_zero() and s.prec is None for s in (x, y)):
        return Series.zero(F, x.scale)

    def least(s):
        return s.prec if s.is_zero() and s.prec is not None else s.val

    prec = None
    for bound in (None if x.prec is None else x.prec + least(y),
                  None if y.prec is None else y.prec + least(x)):
        if bound is not None:
            prec = bound if prec is None else min(prec, bound)
    if x.is_zero() or y.is_zero():
        return Series.zero(F, x.scale, prec)
    out = _rowwise_convolve(x.coeffs, y.coeffs, F.ADD, F.MUL)
    return Series(F, x.scale, x.val + y.val, out, prec)


def _oracle_entry(rng, F, scale, bounded):
    if bounded is None:  # exact or prec-bounded, entry by entry
        bounded = rng.random() < 0.5
    roll = rng.random()
    prec = rng.randrange(-4, 12) if bounded else None
    if roll < 0.15:
        return Series.zero(F, scale, prec)
    val = rng.randrange(-4, 5)
    n = 1 if roll < 0.35 else rng.randrange(2, 9)
    coeffs = [rng.randrange(1, F.q)] + [rng.randrange(F.q) for _ in range(n - 1)]
    if n > 1 and rng.random() < 0.5:
        coeffs[-1] = rng.randrange(1, F.q)
    return Series(F, scale, val, coeffs, prec)


def _assert_same_series(got, want):
    assert (got.val, got.prec, got.scale) == (want.val, want.prec, want.scale)
    assert got.coeffs.dtype == want.coeffs.dtype
    assert [int(c) for c in got.coeffs] == [int(c) for c in want.coeffs]


@pytest.mark.parametrize("p,m", ORACLE_FIELDS + [(2, 12)])
def test_fused_products_match_entrywise_formulas(p, m):
    """Mat2 product, determinant, inverse and Series product against their formulas.

    The reference forms each product on its own with `_reference_mul` and
    sums through Series addition, as a*x + b*z, a*d - b*c, d*dinv and
    -(b*dinv); the fused kernel must give equal coefficients, val and prec.
    """
    F = field(p, m)
    rng = random.Random(f"fused-{p}-{m}")
    mul = _reference_mul
    for trial in range(64):
        # from trial 48 on, exact entries (exact zeros among them) meet prec-bounded ones
        scale, bounded = ("u", "v")[trial % 2], trial % 4 >= 2 if trial < 48 else None
        M = Mat2(*(_oracle_entry(rng, F, scale, bounded) for _ in range(4)))
        N = Mat2(*(_oracle_entry(rng, F, scale, bounded) for _ in range(4)))
        a, b, c, d = M.e
        x, y, z, w = N.e
        want = [mul(a, x) + mul(b, z), mul(a, y) + mul(b, w),
                mul(c, x) + mul(d, z), mul(c, y) + mul(d, w)]
        for got, ref in zip((M * N).e, want):
            _assert_same_series(got, ref)
        det = mul(a, d) - mul(b, c)
        _assert_same_series(M.det(), det)
        _assert_same_series(a * x, mul(a, x))
        try:
            dinv = det.inverse(12)
        except ArithmeticError as exc:
            with pytest.raises(type(exc)):
                M.inverse(12)
            continue
        want = [mul(d, dinv), -mul(b, dinv), -mul(c, dinv), mul(a, dinv)]
        for got, ref in zip(M.inverse(12).e, want):
            _assert_same_series(got, ref)


def _unit_test_entry(rng, F, bounded):
    """An entry that is zero, of val 0, positive val or negative val, exact or prec-bounded."""
    roll = rng.random()
    prec = rng.randrange(-3, 6) if bounded else None
    if roll < 0.15:
        return Series.zero(F, "v", prec)
    val = 0 if roll < 0.7 else rng.randrange(1, 4) if roll < 0.9 else rng.randrange(-3, 0)
    coeffs = [rng.randrange(1, F.q)] + [rng.randrange(F.q) for _ in range(rng.randrange(0, 4))]
    return Series(F, "v", val, coeffs, prec)


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (2, 3)])
def test_has_unit_det_matches_det(p, m):
    """The constant-term unit test decides every matrix as det() does."""
    F = field(p, m)
    rng = random.Random(f"unit-det-{p}-{m}")
    seen = set()
    for trial in range(600):
        M = Mat2(*(_unit_test_entry(rng, F, trial % 2 == 1) for _ in range(4)))
        det = M.det()
        want = not det.is_zero() and det.val == 0
        assert M.has_unit_det() == want, M
        prec_cut = det.prec is not None and det.prec <= 0
        seen.add((want, any(s.val < 0 for s in M.e), prec_cut))
    # units and non-units, the negative-val fallback and a determinant known below 0 all occur
    assert {(True, False, False), (False, False, False), (False, True, False),
            (False, False, True)} <= seen
    assert any(want for want, negative, _ in seen if negative)


def _stack_member(rng, F, bounded, nonzero=False):
    """A series of val -3..3 and 0..8 coefficients, exact or known below an exponent >= 5."""
    prec = rng.randrange(5, 15) if bounded else None
    n = rng.randrange(1 if nonzero else 0, 9)
    if n == 0:
        return Series.zero(F, "v", prec)
    coeffs = [rng.randrange(1, F.q)] + [rng.randrange(F.q) for _ in range(n - 1)]
    return Series(F, "v", rng.randrange(-3, 4), coeffs, prec)


def _assert_member(stack, n, single):
    """Member n of a stack result equals the one-member result where both are known.

    An exact stack result is exact for every member.  A bounded one may be
    known further than the one-member result on a zero member, whose
    shared val is that of the stack, not 0.
    """
    got = stack.member(n)
    assert got.agrees_with(single), (n, got, single)
    if stack.prec is None:
        assert single.prec is None and got.val == single.val


@pytest.mark.parametrize("p,m", ORACLE_FIELDS)
def test_stack_matches_each_member(p, m):
    """Every stacked operation gives, member by member, the one-member result.

    Members differ in val and length, some are zero, and a bounded stack
    mixes precisions; the stack's shared val and prec are the least of
    its members', so each member is compared within that prec.
    """
    F = field(p, m)
    rng = random.Random(f"stack-{p}-{m}")
    N = 5
    for bounded in (False, True):
        members = [_stack_member(rng, F, bounded) for _ in range(N)]
        S = Series.stack(members)
        assert S.prec == min([s.prec for s in members if s.prec is not None], default=None)
        for n, s in enumerate(members):
            _assert_member(S, n, s)
            _assert_member(S.frobenius(), n, S.member(n).frobenius())
        units = Series.stack([_stack_member(rng, F, bounded, nonzero=True) for _ in range(N)])
        for terms in range(1, 49):
            inv = units.inverse(terms)
            for n in range(N):
                _assert_member(inv, n, units.member(n).inverse(terms))
        for _ in range(6):
            A, B = (Mat2.stack([Mat2(*(_stack_member(rng, F, bounded) for _ in range(4)))
                                for _ in range(N)]) for _ in range(2))
            prod, det = A * B, A.det()
            unit = A.has_unit_det()
            rows = (rng.randrange(-3, 4), rng.randrange(-3, 4))
            cols = (rng.randrange(-3, 4), rng.randrange(-3, 4))
            moved = A.shifted(rows=rows, cols=cols)
            flips = [A.swapped(r, c) for r, c in itertools.product((False, True), repeat=2)]
            for n in range(N):
                An, Bn = A.member(n), B.member(n)
                for got, want in zip(prod.e, (An * Bn).e):
                    _assert_member(got, n, want)
                _assert_member(det, n, An.det())
                # the stack decides exponent 0 of a determinant it knows there
                if det.prec is None or det.prec > 0:
                    assert unit[n] == An.has_unit_det()
                else:
                    assert not unit[n]
                for got, want in zip(moved.e, An.shifted(rows=rows, cols=cols).e):
                    _assert_member(got, n, want)
                for (r, c), flip in zip(itertools.product((False, True), repeat=2), flips):
                    for got, want in zip(flip.e, An.swapped(r, c).e):
                        _assert_member(got, n, want)
                for s in A.e:
                    assert s.is_integral()[n] == s.member(n).is_integral()


def _least_exponent(s):
    """The least exponent of a nonzero coefficient of a one-member series, None for zero."""
    nz = np.nonzero(s.coeffs)[0]
    return s.val + int(nz[0]) if len(nz) else None


@pytest.mark.parametrize("p,m", [(3, 2), (5, 1)])
def test_has_val_is_the_least_exponent_held(p, m):
    """has_val(e) holds exactly when e is the least exponent of a nonzero coefficient, per member."""
    F = field(p, m)
    rng = random.Random(f"has-val-{p}-{m}")
    for bounded in (False, True):
        members = [_stack_member(rng, F, bounded) for _ in range(6)]
        S = Series.stack(members)
        for e in range(-5, 14):
            want = [_least_exponent(s) == e for s in members]
            assert [s.has_val(e) for s in members] == want
            assert S.has_val(e).tolist() == want


def test_has_val_far_from_the_held_coefficients_allocates_nothing():
    """The answer comes from the coefficients held, never from a window down to val or up to e."""
    import tracemalloc

    F = field(3, 1)
    low, high = Series(F, "u", -(10**12), [1]), Series(F, "u", 10**12, [1])
    S = Series.stack([low, Series(F, "u", 2 - 10**12, [1, 1])])
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        got = (low.has_val(0), low.has_val(-(10**12)), high.has_val(0), high.has_val(10**12),
               S.has_val(2 - 10**12).tolist(), S.has_val(10**12).tolist())
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert got == (False, True, False, True, [False, True], [False, False])
    assert peak < 1 << 20


def test_stack_refuses_mixed_members():
    F9, F25 = field(3, 2), field(5, 2)
    one = Series.one(F9, "v")
    with pytest.raises(ScaleError):
        Series.stack([one, one, Series.one(F9, "u")])
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        Series.stack([one, Series.one(F25, "v")])
    with pytest.raises(ValueError, match="single series"):
        Series.stack([Series.stack([one, one])] * 2)
    # a field equal to the members' but built apart is the same field
    S = Series.stack([Series(F9, "v", 2, [1, 2]), Series.zero(F9, "v"), Series(GF(3, 2), "v", -1, [5])])
    assert (S.val, S.coeffs.tolist()) == (-1, [[0, 0, 0, 1, 2], [0, 0, 0, 0, 0], [5, 0, 0, 0, 0]])
    zeros = Series.stack([Series.zero(F9, "v", prec=4), Series.zero(F9, "v")])
    assert (zeros.val, zeros.coeffs.shape, zeros.prec) == (0, (2, 0), 4)
