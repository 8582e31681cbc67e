"""Hot inner loop: sums of polynomial products over table-driven finite fields.

``sum_products`` forms, for each of several output entries, a signed sum
of products of polynomials whose coefficients are field codes of F_{p^m}
(the code of sum(c_j x^j) is sum(c_j p^j)), with exact float64 digit
products and one reduction for all entries together, by Kronecker
substitution (von zur Gathen and Gerhard, *Modern Computer Algebra*,
ch. 8).  A 2x2 matrix product is four entries of two terms, a
determinant one entry of two terms of opposite sign, and a series
product (``convolve``) one entry of one term.

- Each code is spelled as its m base-p digits, and coefficient i of an
  operand fills the slot of positions i*w .. i*w+m-1 of one long integer
  vector, with slot width w = 2m-1.  Digit j of a_i times digit k of b_l
  lands at (i+l)*w + j+k with j+k <= 2m-2 < w, so the digit products of
  different output coefficients never share a position.  All operands are
  spelled with one lookup in the digit table.
- The convolution of two such vectors gives every slot sum of one
  product.  Each term takes the loop with fewer numpy calls: one
  ``np.convolve`` per stack row (N calls), or one multiply-add over the
  stack per live digit of its shorter operand (La*m calls: the digit at
  c*w + j, j < m, times the other vector, added at that shift; padding
  is skipped).  The packed product is linear before its reduction mod p,
  so each term is added to, or subtracted from, its entry's slots.
- The fold is linear too: the slot sums, times the precomputed digits of
  x^d mod the defining polynomial (d = 0..2m-2), fold back to m digit
  sums per coefficient.  These exact integers are converted to int64,
  reduced mod p (a floor remainder, so the negative sums that subtracted
  terms leave land in [0, p) as well) and repacked as codes.  All entries
  are folded, reduced and repacked together.
- Exactness: a position of one product sums at most min(len a, len b)*m
  products of digits below p, and the fold multiplies by at most
  w*(p-1), and only when m >= 2, where p < 64.  Both loops add the same
  integer products, in different orders, and no partial sum exceeds the
  sum of its position's absolute products; so every sum in either order
  is an integer far below 2^53, exact in float64, for any product the
  program forms: over GF(4093), the worst field within the table limit,
  a two-term entry would need about 2.7*10^8 coefficients to reach 2^53.

Code arrays may carry a leading stack axis, (N, L) for N polynomials (a
1-D array is a stack of one): a stack is spelled once, multiplied into
one slot buffer and folded and reduced once; a digit step's temporary
holds N*Lb*w floats, so temporaries grow with N*(La+Lb).

The plan (digit table and folding matrix) is worked out from the MUL
table alone, once per table object: q = len(MUL), p is the least prime
dividing q, and x is the code p, so x^d = MUL[x^(d-1), p].
"""

from __future__ import annotations

import itertools
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
    """The (N, L*w) slot vectors of each (N, L) code array, from one digit-table lookup."""
    w = plan.width
    digits = plan.digits.take(np.concatenate(codes, axis=-1), axis=0)
    digits = digits.reshape(digits.shape[:-2] + (digits.shape[-2] * w,))
    spelled, start = [], 0
    for c in codes:
        spelled.append(digits[:, start : start + c.shape[-1] * w])
        start += c.shape[-1] * w
    return spelled


def _reduce(plan, slots, n: int, dtype):
    """Codes (N, n) of the first n coefficients from their (unreduced, signed) slot sums."""
    folded = slots[:, : n * plan.width].reshape(-1, plan.width) @ plan.fold
    return (folded.astype(np.int64) % plan.p @ plan.powers).astype(dtype).reshape(len(slots), n)


def sum_products(codes, entries, mul):
    """Code arrays of sum(sign * codes[i] * codes[k] * x**off) for each entry.

    ``codes`` is a list of code arrays of one dtype and one stack shape
    (all 1-D, or all (N, L_i)), each term's operands nonempty; each entry
    is a list of terms (sign, i, k, off) with sign +1 or -1 and off >= 0.
    An entry's array has the operands' stack shape and runs up to the top
    degree of its longest term; an entry with no terms gives an empty array.
    """
    plan = _plan(mul)
    w, m = plan.width, len(plan.powers)
    spelled = _spell(plan, [np.atleast_2d(c) for c in codes])
    sizes = [max([off + codes[i].shape[-1] + codes[k].shape[-1] - 1 for _, i, k, off in terms],
                 default=0) for terms in entries]
    n, pos = sum(sizes), 0
    # a product vector runs w-1 zero positions past its last slot, hence one spare slot
    slots = np.zeros((len(spelled[0]), (n + 1) * w))
    for terms, size in zip(entries, sizes):
        for sign, i, k, off in terms:
            at, add = (pos + off) * w, np.add if sign > 0 else np.subtract
            u, v = sorted((spelled[i], spelled[k]), key=lambda s: s.shape[1])
            if len(slots) <= u.shape[1] // w * m:  # one np.convolve per row is fewer calls
                for row, x, y in zip(slots, u, v):
                    seg = row[at : at + x.size + y.size - 1]
                    add(seg, np.convolve(x, y), out=seg)
            else:  # one multiply-add over the stack per live digit of the shorter operand
                for d in (c + j for c in range(0, u.shape[1], w) for j in range(m)):
                    seg = slots[:, at + d : at + d + v.shape[1]]
                    add(seg, u[:, d : d + 1] * v, out=seg)
        pos += size
    out = _reduce(plan, slots, n, codes[0].dtype)
    return [out[:, end - size : end].reshape(codes[0].shape[:-1] + (size,))
            for size, end in zip(sizes, itertools.accumulate(sizes))]


def convolve(a, b, add, mul):
    """Product coefficients of the polynomials with code arrays ``a`` and ``b``.

    Both are 1-D, or both (N, L) stacks multiplied member by member: the
    one-entry, one-term case of `sum_products`.  ``add`` is unused.
    """
    return sum_products([a, b], (((1, 0, 1, 0),),), mul)[0]
