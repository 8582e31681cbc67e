"""Exact arithmetic of tame characters as exponent residues.

A character of the inertia group (equivalently, of the unit group of a
finite field with p**m elements) is pinned down by a single exponent
residue modulo p**m - 1 with respect to the level-m fundamental character
indexed by 0.  Products of fundamental characters collapse to one residue
via the relation "character at index i+1, raised to p, equals the
character at index i", which gives index i the weight p**((-i) % m).

Everything here is plain integer arithmetic; residues may exceed machine
words, so no numpy.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul


class NormDescentError(ArithmeticError):
    """A character that was expected to factor through the norm does not."""


@lru_cache(maxsize=None)
def collapse_weights(p: int, m: int) -> tuple[int, ...]:
    """The weight p**((-i) % m) of each index i of Z/mZ; index 0 gets 1 (p**m is 1 mod p**m - 1)."""
    return tuple(p ** ((-i) % m) for i in range(m))


def collapse_exponents(entries, p: int, m: int) -> int:
    """Collapse an exponent tuple indexed by Z/mZ to a residue in [0, p**m - 1).

    Returns sum_i entries[i] * p**(m - i) reduced mod p**m - 1 (the index-0
    weight is 1 because p**m is 1 modulo p**m - 1).
    """
    if m < 1:
        raise ValueError("level must be >= 1")
    if len(entries) != m:
        raise ValueError(f"expected {m} entries, got {len(entries)}")
    return sum(map(mul, entries, collapse_weights(p, m))) % (p**m - 1)


def digit_tuple(residue: int, p: int, m: int) -> tuple[int, ...]:
    """The unique tuple in [0, p-1]^m, never all p-1, collapsing to ``residue``.

    Inverse of :func:`collapse_exponents` on canonical representatives.
    """
    r = residue % (p**m - 1)
    # index i carries weight w = p**((-i) % m): its digit is that of w in r
    return tuple([r // w % p for w in collapse_weights(p, m)])


def factor_through_norm(residue: int, p: int, f: int) -> int | None:
    """Descend a level-2f exponent residue through the norm to level f, if possible.

    The pullback through the norm multiplies exponents by 1 + p**f, which is
    injective on residues mod p**f - 1.  A residue descends exactly when its
    canonical representative mod p**(2f) - 1 is divisible by p**f + 1 as an
    integer; the result, already below p**f - 1, is then unique.  Returns
    None when no descent exists.
    """
    q = p**f
    r = residue % (q * q - 1)
    return None if r % (q + 1) else r // (q + 1)


def lambda_membership(entries, p: int, f: int) -> bool:
    """Whether an integer tuple gives the trivial product of level-f characters.

    These tuples form the translation lattice used for comparing Hodge types;
    membership means the collapse residue vanishes.
    """
    return collapse_exponents([a % (p**f - 1) for a in entries], p, f) == 0


def solve_twist_chain(d, p: int, m: int) -> tuple[int, ...]:
    """Solve nu[i] = p*nu[i-1] - d[i] around Z/mZ; unique when solvable.

    Solvable exactly when collapse_exponents(d) == 0, in which case the
    solution is the integer tuple with
    ``d[i] == mu-part`` absorbed as ``nu[i] - p*nu[i-1] == -d[i]``.
    """
    if len(d) != m:
        raise ValueError(f"expected {m} entries")
    mod = p**m - 1
    # nu[m] == p**m * nu[0] - sum(p**(m-i) d[i], i=1..m) with d[m] = d[0];
    # p**(m-i) is the collapse weight of index i mod m
    acc = sum(map(mul, d, collapse_weights(p, m)))
    if acc % mod != 0:
        raise ValueError("chain has no integral solution: collapse is nonzero")
    nu0 = acc // mod
    nu = [nu0]
    for i in range(1, m):
        nu.append(p * nu[-1] - d[i])
    assert p * nu[-1] - d[0] == nu0
    return tuple(nu)


def level_f_lift_residue(residue: int, p: int, f: int, fprime: int) -> int:
    """Exponent at level fprime of the level-f character with given exponent.

    For fprime == f this is the identity; for fprime == 2f the level-f
    fundamental character at index i is the product of the level-2f ones at
    indices i and i+f, so the exponent is multiplied by 1 + p**f.
    """
    if fprime == f:
        return residue % (p**f - 1)
    if fprime == 2 * f:
        return (residue * (1 + p**f)) % (p ** (2 * f) - 1)
    raise ValueError("level must be f or 2f")
