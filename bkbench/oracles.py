"""Layer oracles independent of the program, run after a round's timed part.

For every finite field the round built:
- the defining polynomial is irreducible and the least such in packed
  order (lower coefficients as base-p digits), by sympy.polys.galoistools;
- ADD is digitwise addition mod p; MUL agrees with sympy on every product
  a * x^j and is F_p-linear in the second factor, which pins down the whole
  table; INV inverts under that MUL;
- a seeded sample of `_kernels.convolve` products and `Series.inverse`
  results matches schoolbook products of digit polynomials reduced by the
  sympy polynomial.
"""

from __future__ import annotations

import gc
import random

import numpy as np
from sympy import ZZ
from sympy.polys.galoistools import gf_add, gf_irreducible_p, gf_mul, gf_rem


def least_irreducible(p, m):
    """Monic, degree-ascending coefficients of the least irreducible of degree m."""
    for packed in range(p**m):
        low = [(packed // p**j) % p for j in range(m)]
        poly = low + [1]
        if gf_irreducible_p([ZZ(c) for c in reversed(poly)], p, ZZ):
            return tuple(poly)
    raise AssertionError(f"no irreducible polynomial of degree {m} over F_{p}")


class Arith:
    """F_{p^m} by schoolbook polynomial arithmetic, elements as integer codes."""

    def __init__(self, p, m):
        self.p, self.m = p, m
        self.poly = least_irreducible(p, m)
        self._mod = [ZZ(c) for c in reversed(self.poly)]

    def desc(self, code):
        digits = [(code // self.p**j) % self.p for j in range(self.m)]
        while digits and digits[-1] == 0:
            digits.pop()
        return [ZZ(c) for c in reversed(digits)]

    def code(self, desc):
        return sum(int(c) * self.p**j for j, c in enumerate(reversed(desc)))

    def mul_desc(self, a, b):
        return gf_rem(gf_mul(a, b, self.p, ZZ), self._mod, self.p, ZZ)

    def convolve(self, a, b):
        a, b = [self.desc(int(x)) for x in a], [self.desc(int(x)) for x in b]
        out = [[] for _ in range(len(a) + len(b) - 1)]
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = gf_add(out[i + j], self.mul_desc(x, y), self.p, ZZ)
        return [self.code(c) for c in out]


def check_field(F):
    """Failures (strings) of one field's polynomial and tables."""
    p, m, q = F.p, F.m, F.q
    ar = Arith(p, m)
    if tuple(F.poly) != ar.poly:
        return [f"GF({p}^{m}): polynomial {F.poly} is not the least irreducible {ar.poly}"]
    fails = []
    powers = p ** np.arange(m)
    digits = (np.arange(q)[:, None] // powers) % p
    add = ((digits[:, None, :] + digits[None, :, :]) % p) @ powers
    if not np.array_equal(np.asarray(F.ADD, dtype=np.int64), add):
        fails.append(f"GF({p}^{m}): ADD table differs from digitwise addition")
    # column x^j of MUL from sympy; linearity in the second factor gives the rest
    by_x = np.array([[ar.code(ar.mul_desc(ar.desc(a), ar.desc(p**j))) for j in range(m)]
                     for a in range(q)])
    by_x_digits = (by_x[:, :, None] // powers) % p                  # a, j, k
    mul = (np.einsum("bj,ajk->abk", digits, by_x_digits) % p) @ powers
    if not np.array_equal(np.asarray(F.MUL, dtype=np.int64), mul):
        fails.append(f"GF({p}^{m}): MUL table differs from polynomial products")
    inv = np.asarray(F.INV, dtype=np.int64)
    if not np.all(mul[np.arange(1, q), inv[1:]] == 1):
        fails.append(f"GF({p}^{m}): INV table does not invert")
    return fails


def check_series(F, seed, products=3, inverses=2, terms=16):
    """Seeded `_kernels.convolve` and `Series.inverse` samples against schoolbook."""
    from bkshapes import _kernels
    from bkshapes.series import Series

    ar = Arith(F.p, F.m)
    rng = random.Random(f"oracle/{seed}/{F.p}/{F.m}")
    fails = []
    for _ in range(products):
        a = np.array([rng.randrange(F.q) for _ in range(rng.randrange(1, 25))], dtype=F.dtype)
        b = np.array([rng.randrange(F.q) for _ in range(rng.randrange(1, 25))], dtype=F.dtype)
        got = [int(c) for c in _kernels.convolve(a, b, F.ADD, F.MUL)]
        if got != ar.convolve(a, b):
            fails.append(f"GF({F.p}^{F.m}): convolve differs from schoolbook")
    for _ in range(inverses):
        coeffs = [rng.randrange(1, F.q)] + [rng.randrange(F.q) for _ in range(rng.randrange(1, 12))]
        g = Series(F, "v", 0, coeffs).inverse(terms)
        inv = [g.coefficient(k) for k in range(terms)]
        if ar.convolve(coeffs, inv)[:terms] != [1] + [0] * (terms - 1):
            fails.append(f"GF({F.p}^{F.m}): Series.inverse is not an inverse to {terms} terms")
    return fails


def run(seed):
    from bkshapes.gf import GF

    fields = sorted({(o.p, o.m): o for o in gc.get_objects() if isinstance(o, GF)}.items())
    fails = []
    for _, F in fields:
        fails += check_field(F) + check_series(F, seed)
    return {"fields": [list(k) for k, _ in fields], "failures": fails}
