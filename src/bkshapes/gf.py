"""Small finite fields F_{p^m} with table-driven arithmetic.

Elements are integer codes in [0, p**m): the code of sum(c_j * x**j) is
sum(c_j * p**j) where x is a root of the defining polynomial.  The defining
polynomial is the lexicographically least monic irreducible of degree m
over F_p, ordering candidates by the packed integer of their lower
coefficients (constant term least significant); this keeps every run of
every build reproducible with no external tables.

Addition and multiplication are full q-by-q lookup tables, so fields are
only constructed for q up to MAX_TABLE_Q.  Array-valued operations accept
numpy arrays of codes and broadcast through the tables.

The tables are built with numpy passes, not element by element.  ADD is
assembled one digit at a time.  MUL and INV come from the exp/log (Zech
logarithm) tables of a primitive element g, the least code whose powers
run through every nonzero element (the root x itself need not be
primitive: over F_9, x^2 + 1 has a root of order 4):
MUL[g^i, g^j] = g^(i+j mod q-1) and INV[g^i] = g^(-i mod q-1).  The tables
depend only on the defining polynomial, not on which g is used.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_TABLE_Q = 4096


# Miller-Rabin with the first 13 primes as bases is exact below the least strong
# pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError for n at or above _MR_LIMIT, where it is not exact."""
    if n >= _MR_LIMIT:
        raise ValueError(f"cannot decide whether {n} is prime: the limit is {_MR_LIMIT}")
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1:
            continue
        for _ in range(s):  # b**(d * 2**r) for r < s must reach n - 1
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    # remainder of num by monic den, coefficient lists with index = degree
    num = [c % p for c in num]
    dd = len(den) - 1
    while len(num) > dd:
        lead = num[-1]
        if lead:
            shift = len(num) - 1 - dd
            for j, c in enumerate(den):
                num[shift + j] = (num[shift + j] - lead * c) % p
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return num


def _all_monic(p: int, deg: int):
    for packed in range(p**deg):
        coeffs = []
        n = packed
        for _ in range(deg):
            coeffs.append(n % p)
            n //= p
        yield coeffs + [1]


def _is_irreducible(poly: list[int], p: int) -> bool:
    deg = len(poly) - 1
    if deg == 1:
        return True
    if poly[0] == 0:
        return False
    for d in range(1, deg // 2 + 1):
        for cand in _all_monic(p, d):
            if not _poly_mod(list(poly), cand, p):
                return False
    return True


def least_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Coefficients (degree-ascending, monic) of the chosen defining polynomial."""
    for poly in _all_monic(p, m):
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError("no irreducible polynomial found")  # pragma: no cover


class GF:
    """F_{p^m} with precomputed add/mul/inv tables over integer codes."""

    def __init__(self, p: int, m: int = 1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if m < 1:
            raise ValueError(f"field degree must be at least 1, got {m}")
        q = p**m
        if q > MAX_TABLE_Q:
            raise ValueError(f"field size {q} exceeds table limit {MAX_TABLE_Q}")
        self.p = p
        self.m = m
        self.q = q
        self.poly = least_irreducible(p, m)

        dtype = np.int16 if q < 2**15 else np.int32
        codes = np.arange(q)
        digits = np.zeros((q, m), dtype=dtype)
        n = codes.copy()
        for j in range(m):
            digits[:, j] = n % p
            n //= p
        self._digits = digits
        powers = p ** np.arange(m, dtype=np.int64)
        self._powers = powers

        # ADD one digit at a time: a code below p^(j+1) is a_j*p^j + a' with
        # a' < p^j, so that table is the p-by-p block array whose (a_j, b_j)
        # block is ((a_j + b_j) % p)*p^j plus the table below p^j.
        addp = ((np.arange(p)[:, None] + np.arange(p)) % p).astype(dtype)
        add = np.zeros((1, 1), dtype=dtype)
        for j in range(m):
            k = p**j
            add = (addp[:, None, :, None] * k + add[None, :, None, :]).reshape(k * p, k * p)
        self.ADD = add
        self.NEG = (((-digits) % p) @ powers).astype(dtype)

        exp = self._exp_table()
        order = q - 1
        # MUL[g^i, g^j] = g^(i+j mod q-1): a Hankel matrix in log order,
        # scattered back to code order; row and column 0 stay zero.
        hankel = np.lib.stride_tricks.sliding_window_view(np.concatenate([exp, exp[:-1]]), order)
        mul = np.zeros((q, q), dtype=dtype)
        mul[np.ix_(exp, exp)] = hankel
        self.MUL = mul

        inv = np.zeros(q, dtype=dtype)
        inv[exp] = exp[-np.arange(order) % order]
        self.INV = inv
        self.dtype = dtype

    def _exp_table(self) -> np.ndarray:
        """Codes of g^0, ..., g^(q-2) for the least primitive code g.

        Multiplying by g is linear over F_p: c*g = sum_j g_j * (c*x^j), and
        c*x shifts the digits of c up one place and folds the top digit back
        with the monic defining polynomial.
        """
        p, m, q = self.p, self.m, self.q
        digits = self._digits.astype(np.int64)
        shifted = np.zeros_like(digits)
        shifted[:, 1:] = digits[:, :-1]
        low = np.asarray(self.poly[:m], dtype=np.int64)
        times_x = ((shifted - digits[:, -1:] * low) % p) @ self._powers
        by_xj = np.empty((m, q, m), dtype=np.int64)  # digits of c*x^j
        idx = np.arange(q)
        for j in range(m):
            by_xj[j] = digits[idx]
            idx = times_x[idx]
        for g in range(1, q):
            times_g = ((np.tensordot(digits[g], by_xj, axes=1) % p) @ self._powers).tolist()
            orbit = [1]
            c = times_g[1]
            while c != 1:
                orbit.append(c)
                c = times_g[c]
            if len(orbit) == q - 1:
                return np.array(orbit, dtype=np.intp)
        raise AssertionError("no primitive element found")  # pragma: no cover

    # -- scalar helpers ------------------------------------------------
    def add(self, a: int, b: int) -> int:
        return int(self.ADD[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.ADD[a, self.NEG[b]])

    def neg(self, a: int) -> int:
        return int(self.NEG[a])

    def mul(self, a: int, b: int) -> int:
        return int(self.MUL[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self.INV[a])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def dot(self, xs, ys) -> int:
        """Code of sum_i xs[i]*ys[i] for arrays of codes (digitwise summation)."""
        if len(xs) == 0:
            return 0
        prods = self.MUL[np.asarray(xs), np.asarray(ys)]
        dsum = self._digits[prods].sum(axis=0) % self.p
        return int(dsum @ self._powers)

    def element_digits(self, a: int) -> tuple[int, ...]:
        return tuple(int(c) for c in self._digits[a])

    def __repr__(self):
        return f"GF({self.p}^{self.m})"

    def __eq__(self, other):
        return isinstance(other, GF) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self):
        return hash((self.p, self.m))


@lru_cache(maxsize=None)
def field(p: int, m: int = 1) -> GF:
    return GF(p, m)

