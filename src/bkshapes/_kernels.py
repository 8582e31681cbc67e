"""Hot inner loop: coefficient convolution over table-driven finite fields.

``convolve`` multiplies two polynomials whose coefficients are field codes
of F_{p^m} (the code of sum(c_j x^j) is sum(c_j p^j)) with one exact
numpy convolution, by Kronecker substitution (von zur Gathen and Gerhard,
*Modern Computer Algebra*, ch. 8):

- Each code is spelled as its m base-p digits, and coefficient i of an
  operand fills the slot of positions i*w .. i*w+m-1 of one long integer
  vector, with slot width w = 2m-1.  Digit j of a_i times digit k of b_l
  lands at (i+l)*w + j+k with j+k <= 2m-2 < w, so the digit products of
  different output coefficients never share a position.
- One ``np.convolve`` of the two vectors, in float64 (numpy's dot path),
  gives every slot sum.  A position sums at most min(len a, len b)*m
  products of digits below p, so every partial sum is an integer below
  min(len a, len b)*m*(p-1)^2, far below 2^53, and the result is exact
  for any product the program forms (over GF(4093), the worst field
  within the table limit, both operands would need about 5*10^8
  coefficients to reach 2^53).
- Reducing mod p gives the digits of the product in F_p[x] at degrees
  0..2m-2; the precomputed digits of x^d mod the defining polynomial fold
  them back to m digits, which repack as codes.

The plan (digit table and folding matrix) is worked out from the MUL
table alone, once per table object: q = len(MUL), p is the least prime
dividing q, and x is the code p, so x^d = MUL[x^(d-1), p].  A product
with a length-1 operand is a single row lookup in MUL instead.
"""

from __future__ import annotations

import weakref

import numpy as np

BACKEND = "numpy"


class _Plan:
    """Kronecker packing data of one field, read off its MUL table."""

    __slots__ = ("p", "width", "digits", "fold", "powers")

    def __init__(self, mul):
        q = len(mul)
        p = next(d for d in range(2, q + 1) if q % d == 0)
        m = 1
        while p**m < q:
            m += 1
        w = 2 * m - 1
        powers = p ** np.arange(m)
        # digits[c, j] is digit j of code c; columns m..w-1 stay zero as slot padding
        self.digits = np.zeros((q, w))
        self.digits[:, :m] = (np.arange(q)[:, None] // powers) % p
        # fold[d] holds the digits of x^d reduced mod the defining polynomial
        xd = [1]
        for _ in range(1, w):
            xd.append(int(mul[xd[-1], p]))
        self.fold = self.digits[xd, :m]
        self.p = p
        self.width = w
        self.powers = powers.astype(np.float64)


_PLANS: dict[int, tuple] = {}


def _plan(mul) -> _Plan:
    hit = _PLANS.get(id(mul))
    if hit is not None and hit[0]() is mul:
        return hit[1]
    plan = _Plan(mul)
    _PLANS[id(mul)] = (weakref.ref(mul), plan)
    return plan


def convolve(a, b, add, mul):
    """Product coefficients of the polynomials with code arrays ``a`` and ``b``.

    ``add`` is unused: sums are formed digitwise inside the one convolution.
    """
    if len(a) == 1:
        return mul[a[0], b].astype(a.dtype)
    if len(b) == 1:
        return mul[a, b[0]].astype(a.dtype)
    plan = _plan(mul)
    n, w = len(a) + len(b) - 1, plan.width
    slots = np.convolve(plan.digits[a].ravel(), plan.digits[b].ravel())[: n * w]
    # fmod equals % on these nonnegative integers, and is cheaper on floats
    digits = np.fmod(np.fmod(slots.reshape(n, w), plan.p) @ plan.fold, plan.p)
    return (digits @ plan.powers).astype(a.dtype)
