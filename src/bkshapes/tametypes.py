"""Tame inertial types, profiles, and the weight recipe.

A non-scalar tame type is an ordered pair of level-f' characters (eta,
eta'); principal series when f' = f, cuspidal when f' = 2f and eta' is the
p**f power of eta.  To each type and each profile J one attaches the
integer tuples s_J, t_J, a descended twist character Theta_J, and (for
good profiles) a Serre weight.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .charexp import (
    NormDescentError,
    collapse_exponents,
    collapse_weights,
    digit_tuple,
    factor_through_norm,
    level_f_lift_residue,
)

PRINCIPAL = "principal-series"
CUSPIDAL = "cuspidal"


class ScalarTypeError(ValueError):
    """The pair of characters defines a scalar type."""


@dataclass(frozen=True)
class TameType:
    """A non-scalar tame type; equality, hashing and repr use the five fields.

    The derived data is set once, at construction: ``fprime`` (the level
    f'), ``estep`` (p**f' - 1), ``gamma`` (the digits of eta/eta'), ``mu``
    (the digits of eta') and ``ell_prime`` (ell'_i = (eta' - eta)*p**i mod
    estep, never 0, so ell_i = estep - ell'_i).  The recipe reads s_J, t_J
    and the collapse of t_J off gamma alone (`_recipe_row`).
    """

    p: int
    f: int
    kind: str
    eta: int        # exponent of eta at level f', canonical representative
    eta_prime: int  # exponent of eta' at level f'

    def __post_init__(self):
        if self.kind not in (PRINCIPAL, CUSPIDAL):
            raise ValueError(f"unknown kind {self.kind!r}")
        p, f, kind = self.p, self.f, self.kind
        fp = f if kind == PRINCIPAL else 2 * f
        ep = p**fp - 1
        eta, eta_prime = self.eta % ep, self.eta_prime % ep
        d = eta_prime - eta
        # the class is frozen: one update sets the reduced fields, the hash and the derived data
        vars(self).update(
            eta=eta, eta_prime=eta_prime, _hash=hash((p, f, kind, eta, eta_prime)),
            fprime=fp, estep=ep, gamma=digit_tuple(-d, p, fp), mu=digit_tuple(eta_prime, p, fp),
            ell_prime=tuple([d * p**i % ep for i in range(fp)]),
        )
        self._validate()

    def __hash__(self):
        return self._hash

    def _validate(self):
        if self.eta == self.eta_prime:
            raise ScalarTypeError("eta == eta', scalar type rejected")
        if self.kind == CUSPIDAL and self.eta_prime != self.eta * self.p**self.f % self.estep:
            raise ValueError("cuspidal pair must satisfy eta' = eta**(p^f)")

    def twist(self, c: int) -> "TameType":
        """Twist both characters by the level-f character with exponent c."""
        lift = level_f_lift_residue(c, self.p, self.f, self.fprime)
        return TameType(self.p, self.f, self.kind, self.eta + lift, self.eta_prime + lift)

    def key(self) -> tuple:
        return (self.p, self.f, self.kind, self.eta, self.eta_prime)


def make_type(p: int, f: int, kind: str, eta: int, eta_prime: int) -> TameType:
    return TameType(p, f, kind, eta, eta_prime)


def type_from_gamma(p: int, f: int, kind: str, gamma, eta_prime: int = 0) -> TameType:
    """Build a type with the requested gamma digits.

    For principal series, eta_prime is taken as given and eta is solved
    from the collapse of gamma.  For cuspidal types the ratio constraint
    determines eta up to finitely many choices; we take the least solution
    and then twist eta' into the cuspidal relation (eta_prime is ignored,
    as it is forced).
    """
    gamma = tuple(gamma)
    if len(gamma) != f:
        raise ValueError(f"need {f} gamma entries")
    if any(not 0 <= g <= p - 1 for g in gamma):
        raise ValueError("gamma entries must lie in [0, p-1]")
    if kind == PRINCIPAL:
        ratio = collapse_exponents(gamma, p, f)
        if ratio == 0:
            raise ScalarTypeError("gamma collapses to the trivial ratio")
        return TameType(p, f, PRINCIPAL, (eta_prime + ratio) % (p**f - 1), eta_prime)
    ext = gamma + tuple(p - 1 - g for g in gamma)
    ratio = collapse_exponents(ext, p, 2 * f)
    q = p**f
    # eta * (1 - p^f) = ratio mod p^{2f}-1; the ratio is always a multiple
    # of p^f - 1 and never zero for a paired gamma tuple
    assert ratio % (q - 1) == 0 and ratio != 0
    k = (-(ratio // (q - 1))) % (q + 1)
    assert k != 0
    return TameType(p, f, CUSPIDAL, k, k * q)


def enumerate_types(p: int, f: int, kinds=(PRINCIPAL, CUSPIDAL)):
    """All non-scalar tame types at (p, f), by exponent pairs."""
    out = []
    if PRINCIPAL in kinds:
        ep = p**f - 1
        for k in range(ep):
            for kp in range(ep):
                if k != kp:
                    out.append(TameType(p, f, PRINCIPAL, k, kp))
    if CUSPIDAL in kinds:
        ep = p ** (2 * f) - 1
        q = p**f
        for k in range(ep):
            if (k * q) % ep != k:
                out.append(TameType(p, f, CUSPIDAL, k, k * q))
    return out


# -- profiles ------------------------------------------------------------

def check_profile(tau: TameType, members) -> frozenset:
    """The members reduced into Z/f'Z; a cuspidal profile holds exactly one of i, i+f."""
    fp, f = tau.fprime, tau.f
    mask = 0
    for i in members:
        mask |= 1 << int(i % fp)
    # bits i < f and i + f differ for every i: the mask's low half is its high half's complement
    full = (1 << f) - 1
    if tau.kind == CUSPIDAL and (mask ^ mask >> f) & full != full:
        raise ValueError(f"{sorted(_mask_set(mask))} is not a valid profile for a {tau.kind} type")
    return _mask_set(mask)


def profile_at(tau: TameType, mask: int) -> frozenset:
    """Profile number mask < 2^f: its set bits i < f, and in the cuspidal case i + f for each unset i."""
    if tau.kind == CUSPIDAL:
        mask |= (2**tau.f - 1 ^ mask) << tau.f
    return _mask_set(mask & ~(-1 << tau.fprime))


@lru_cache(maxsize=None)
def _mask_set(mask: int) -> frozenset:
    """The set of the bit positions of a mask >= 0; equal profiles and bad sets are this one object."""
    return frozenset([i for i in range(mask.bit_length()) if mask >> i & 1])


def enumerate_profiles(tau: TameType) -> list[frozenset]:
    """All 2^f profiles, by number: subsets for principal series, pairings for cuspidal."""
    return [profile_at(tau, mask) for mask in range(2**tau.f)]


def profile_mask(tau: TameType, J: frozenset) -> int:
    return sum([1 << i for i in J])


def is_transition(J: frozenset, i: int, n: int) -> bool:
    """Exactly one of i-1, i lies in J (indices mod n)."""
    return (((i - 1) % n) in J) != ((i % n) in J)


# -- the recipe ------------------------------------------------------------

class ProfileData(NamedTuple):
    """What the recipe attaches to a (type, profile) pair: s_J, t_J, Theta_J and the bad set.

    The twist chain and the cuspidal matching exponent belong to the descent
    construction (`phimod.twist_chain`), not to the recipe.  A named tuple,
    since one is built on every miss of the recipe cache.
    """

    tau: TameType
    J: frozenset
    s: tuple[int, ...]        # indexed by Z/f'Z, f-periodic
    t: tuple[int, ...]        # indexed by Z/f'Z
    theta: tuple[int, ...]    # digits of the level-f exponent of Theta_J, length f
    bad_set: frozenset        # embeddings in Z/fZ with s = -1

    @property
    def in_P_tau(self) -> bool:
        return not self.bad_set


def profile_data(tau: TameType, J) -> ProfileData:
    """The recipe of (tau, J), from an LRU cache keyed by the type and J."""
    return _profile_data_cached(tau, check_profile(tau, J))


def _recipe_cases(p: int, gamma: tuple[int, ...]) -> tuple:
    """Per index, (s_i, t_i) for (i-1 in J, i in J) = (0,0), (0,1), (1,0), (1,1)."""
    return tuple(((g, 0), (g - 1, 0), (p - 2 - g, g + 1), (p - 1 - g, g)) for g in gamma)


@lru_cache(maxsize=None)
def _recipe_row(p: int, f: int, gamma: tuple[int, ...], J: frozenset) -> tuple:
    """s_J, t_J, the bad set and the collapse sum of t_J, read off the case table of gamma.

    They depend on a type only through gamma, so every type with the same
    gamma shares one row per profile: at most 2 p^f gammas times 2^f profiles
    at each (p, f).
    """
    in_J = [i in J for i in range(len(gamma))]
    s, t = zip(*[cases[2 * in_J[i - 1] + in_J[i]] for i, cases in enumerate(_recipe_cases(p, gamma))])
    bad = _mask_set(sum([1 << i for i in range(f) if s[i] == -1]))
    return s, t, bad, sum(map(mul, t, collapse_weights(p, len(gamma))))


def _profile_data(tau: TameType, J: frozenset) -> ProfileData:
    """The recipe: the type's row by gamma, and Theta_J; `verify`'s recipe-bounds checks what it gives."""
    p, f = tau.p, tau.f
    s, t, bad, t_sum = _recipe_row(p, f, tau.gamma, J)
    # Theta_J at level f' is eta' times the collapse of t; it must descend
    # through the norm in the cuspidal case.
    lift = (tau.eta_prime + t_sum) % tau.estep
    if tau.kind == PRINCIPAL:
        theta_res = lift
    else:
        theta_res = factor_through_norm(lift, p, f)
        if theta_res is None:
            raise NormDescentError(
                "Theta_J does not factor through the norm; recipe invariant broken"
            )
    return ProfileData(tau, J, s, t, digit_tuple(theta_res, p, f), bad)


_profile_data_cached = lru_cache(maxsize=65536)(_profile_data)


def raw_hodge_pairs(s, theta) -> tuple[tuple[int, int], ...]:
    """The pairs (1 - theta_i, -s_i - theta_i) of the recipe's s and Theta digits, one per i < f."""
    return tuple([(1 - th, -x - th) for th, x in zip(theta, s)])


# -- Serre weights -----------------------------------------------------------

@dataclass(frozen=True)
class SerreWeight:
    """Normalized weight: per-embedding twists t and symmetric powers s."""

    p: int
    t: tuple[int, ...]
    s: tuple[int, ...]

    def __post_init__(self):
        p = self.p
        if not all(0 <= x <= p - 1 for x in self.t) or all(x == p - 1 for x in self.t):
            raise ValueError("twist tuple must be the canonical representative")
        if not all(0 <= x <= p - 1 for x in self.s):
            raise ValueError("symmetric powers out of range")

    def hodge_pairs(self) -> tuple[tuple[int, int], ...]:
        """The labeled weight pairs {-s-t, 1-t} attached to this weight."""
        return raw_hodge_pairs(self.s, self.t)


class BadProfileError(ValueError):
    """The profile has a bad embedding, so no honest Serre weight exists."""


def serre_weight(tau: TameType, J) -> SerreWeight:
    pd = profile_data(tau, J)
    if not pd.in_P_tau:
        raise BadProfileError(
            f"profile {sorted(pd.J)} has bad embeddings {sorted(pd.bad_set)}"
        )
    return SerreWeight(tau.p, pd.theta, pd.s[: tau.f])


def jordan_holder_weights(tau: TameType) -> set[SerreWeight]:
    """The set of weights attached to good profiles, deduplicated."""
    out = set()
    for J in enumerate_profiles(tau):
        pd = profile_data(tau, J)
        if pd.in_P_tau:
            out.add(serre_weight(tau, J))
    return out
