"""Hot inner loop: sums of polynomial products over table-driven finite fields.

``sum_products`` forms, for each of several output entries, a signed sum
of products of polynomials whose coefficients are field codes of F_{p^m}
(the code of sum(c_j x^j) is sum(c_j p^j)), with one exact numpy
convolution per product and one reduction for all entries together, by
Kronecker substitution (von zur Gathen and Gerhard, *Modern Computer
Algebra*, ch. 8).  A 2x2 matrix product is four entries of two terms, a
determinant one entry of two terms of opposite sign.

- Each code is spelled as its m base-p digits, and coefficient i of an
  operand fills the slot of positions i*w .. i*w+m-1 of one long integer
  vector, with slot width w = 2m-1.  Digit j of a_i times digit k of b_l
  lands at (i+l)*w + j+k with j+k <= 2m-2 < w, so the digit products of
  different output coefficients never share a position.  All operands are
  spelled with one lookup in the digit table.
- One ``np.convolve`` of two such vectors, in float64 (numpy's dot path),
  gives every slot sum of one product.  The packed product is linear
  before its reduction mod p, so each term is added to, or subtracted
  from, its entry's slots (shifted by whole slots for its offset) and the
  sums are reduced only once.
- The fold is linear too: the slot sums, times the precomputed digits of
  x^d mod the defining polynomial (d = 0..2m-2), fold back to m digit
  sums per coefficient.  These exact integers are converted to int64,
  reduced mod p (a floor remainder, so the negative sums that subtracted
  terms leave land in [0, p) as well) and repacked as codes.  All entries
  are folded, reduced and repacked together.
- Exactness: a position of one product sums at most min(len a, len b)*m
  products of digits below p, and the fold multiplies by at most
  w*(p-1), and only when m >= 2, where p < 64.  So every sum is an integer
  of absolute value far below 2^53 for any product the program forms:
  over GF(4093), the worst field within the table limit, the operands of
  a two-term entry would need about 2.7*10^8 coefficients to reach 2^53.

The plan (digit table and folding matrix) is worked out from the MUL
table alone, once per table object: q = len(MUL), p is the least prime
dividing q, and x is the code p, so x^d = MUL[x^(d-1), p].
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
        self.powers = powers


_PLANS: dict[int, tuple] = {}


def _plan(mul) -> _Plan:
    hit = _PLANS.get(id(mul))
    if hit is not None and hit[0]() is mul:
        return hit[1]
    plan = _Plan(mul)
    _PLANS[id(mul)] = (weakref.ref(mul), plan)
    return plan


def _spell(plan, codes) -> list:
    """The slot vector of each code array, from one digit-table lookup."""
    w = plan.width
    digits = plan.digits[np.concatenate(codes)].ravel()
    spelled, start = [], 0
    for c in codes:
        spelled.append(digits[start : start + len(c) * w])
        start += len(c) * w
    return spelled


def _reduce(plan, slots, n: int, dtype):
    """Codes of the first n coefficients from their (unreduced, signed) slot sums."""
    folded = slots[: n * plan.width].reshape(n, plan.width) @ plan.fold
    return (folded.astype(np.int64) % plan.p @ plan.powers).astype(dtype)


def sum_products(codes, entries, mul):
    """Code arrays of sum(sign * codes[i] * codes[k] * x**off) for each entry.

    ``codes`` is a list of code arrays of one dtype, each term's operands
    nonempty; each entry is a list of terms (sign, i, k, off) with sign +1
    or -1 and off >= 0.  An entry's array runs up to the top degree of its
    longest term, and an entry with no terms gives an empty array.
    """
    plan = _plan(mul)
    w = plan.width
    spelled = _spell(plan, codes)
    sizes = [max([off + len(codes[i]) + len(codes[k]) - 1 for _, i, k, off in terms], default=0)
             for terms in entries]
    n = sum(sizes)
    # a product vector runs w-1 zero positions past its last slot, hence one spare slot
    slots = np.zeros((n + 1) * w)
    pos = 0
    for terms, size in zip(entries, sizes):
        for sign, i, k, off in terms:
            prod = np.convolve(spelled[i], spelled[k])
            at = (pos + off) * w
            if sign > 0:
                slots[at : at + len(prod)] += prod
            else:
                slots[at : at + len(prod)] -= prod
        pos += size
    out = _reduce(plan, slots, n, codes[0].dtype)
    pos, arrays = 0, []
    for size in sizes:
        arrays.append(out[pos : pos + size])
        pos += size
    return arrays


def convolve(a, b, add, mul):
    """Product coefficients of the polynomials with code arrays ``a`` and ``b``.

    ``add`` is unused: sums are formed digitwise inside the one convolution,
    which is folded directly, with no slot buffer.
    """
    plan = _plan(mul)
    x, y = _spell(plan, [a, b])
    return _reduce(plan, np.convolve(x, y), len(a) + len(b) - 1, a.dtype)
