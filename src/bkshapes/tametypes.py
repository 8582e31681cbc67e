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

from .charexp import (
    NormDescentError,
    collapse_exponents,
    collapse_weights,
    digit_tuple,
    factor_through_norm,
    level_f_lift_residue,
    solve_twist_chain,
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
    (the digits of eta'), ``weights`` (the collapse weights at level f')
    and ``cases``, the recipe's (s_i, t_i) at each index i in the four
    cases ``cases[i][2 * (i-1 in J) + (i in J)]``.
    """

    p: int
    f: int
    kind: str
    eta: int        # exponent of eta at level f', canonical representative
    eta_prime: int  # exponent of eta' at level f'

    def __post_init__(self):
        if self.kind not in (PRINCIPAL, CUSPIDAL):
            raise ValueError(f"unknown kind {self.kind!r}")
        fp = self.f if self.kind == PRINCIPAL else 2 * self.f
        ep = self.p**fp - 1
        eta, eta_prime = self.eta % ep, self.eta_prime % ep
        set_ = object.__setattr__
        set_(self, "eta", eta)
        set_(self, "eta_prime", eta_prime)
        set_(self, "fprime", fp)
        set_(self, "estep", ep)
        set_(self, "gamma", digit_tuple((eta - eta_prime) % ep, self.p, fp))
        set_(self, "mu", digit_tuple(eta_prime, self.p, fp))
        set_(self, "weights", collapse_weights(self.p, fp))
        self._validate()
        set_(self, "cases", _recipe_cases(self.p, self.gamma))

    def _validate(self):
        p, fp, ep = self.p, self.fprime, self.estep
        if self.eta == self.eta_prime:
            raise ScalarTypeError("eta == eta', scalar type rejected")
        if self.kind == CUSPIDAL:
            if self.eta_prime != (self.eta * p**self.f) % ep:
                raise ValueError("cuspidal pair must satisfy eta' = eta**(p^f)")
        g = self.gamma
        for i in range(fp):
            lhs = p * self.ell_prime(i - 1) - self.ell_prime(i)
            if lhs != ep * (p - 1 - g[i]):
                raise AssertionError("exponent identity failed; inconsistent type data")
        if self.kind == CUSPIDAL:
            for i in range(self.f):
                assert g[i] + g[i + self.f] == p - 1

    # -- per-embedding exponents ---------------------------------------
    def k(self, i: int) -> int:
        """Exponent of eta at embedding i."""
        return (self.eta * self.p ** (i % self.fprime)) % self.estep

    def k_prime(self, i: int) -> int:
        return (self.eta_prime * self.p ** (i % self.fprime)) % self.estep

    def ell(self, i: int) -> int:
        return (self.k(i) - self.k_prime(i)) % self.estep

    def ell_prime(self, i: int) -> int:
        return (self.k_prime(i) - self.k(i)) % self.estep

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
    J = frozenset(i % tau.fprime for i in members)
    if tau.kind == CUSPIDAL and any((i in J) == (i + tau.f in J) for i in range(tau.f)):
        raise ValueError(f"{sorted(J)} is not a valid profile for a {tau.kind} type")
    return J


def enumerate_profiles(tau: TameType) -> list[frozenset]:
    """All 2^f profiles: subsets for principal series, pairings for cuspidal."""
    f = tau.f
    out = []
    for mask in range(2**f):
        half = {i for i in range(f) if mask >> i & 1}
        if tau.kind == PRINCIPAL:
            out.append(frozenset(half))
        else:
            out.append(frozenset(half | {i + f for i in range(f) if i not in half}))
    return out


def profile_mask(tau: TameType, J: frozenset) -> int:
    return sum(1 << i for i in J)


def is_transition(J: frozenset, i: int, n: int) -> bool:
    """Exactly one of i-1, i lies in J (indices mod n)."""
    return (((i - 1) % n) in J) != ((i % n) in J)


# -- the recipe ------------------------------------------------------------

@dataclass(frozen=True)
class ProfileData:
    """Everything the recipe attaches to a (type, profile) pair."""

    tau: TameType
    J: frozenset
    s: tuple[int, ...]        # indexed by Z/f'Z, f-periodic
    t: tuple[int, ...]        # indexed by Z/f'Z
    theta_residue: int        # exponent of Theta_J at level f
    theta: tuple[int, ...]    # digit tuple of theta_residue, length f
    mu: tuple[int, ...]       # digits of eta' at level f'
    nu: tuple[int, ...]       # twist chain solving theta = mu + t + nu - p*shift(nu)
    bad_set: frozenset        # embeddings in Z/fZ with s = -1
    in_P_tau: bool

    def xi(self, i: int) -> int:
        """Cuspidal basis-matching exponent; identically zero by the theory."""
        tau = self.tau
        if tau.kind != CUSPIDAL:
            raise ValueError("xi is defined only for cuspidal types")
        f, fp, ep = tau.f, tau.fprime, tau.estep
        num = tau.ell_prime(i) + tau.k(i) - tau.k_prime(i)
        assert num % ep == 0
        return num // ep + self.nu[i % fp] - self.nu[(i + f) % fp] - (1 if i % fp in self.J else 0)


def profile_data(tau: TameType, J) -> ProfileData:
    """The recipe of (tau, J), from an LRU cache keyed by the type and J."""
    return _profile_data_cached(tau, check_profile(tau, J))


@lru_cache(maxsize=None)
def _recipe_cases(p: int, gamma: tuple[int, ...]) -> tuple:
    """Per index, (s_i, t_i) for (i-1 in J, i in J) = (0,0), (0,1), (1,0), (1,1); one table per gamma."""
    return tuple(((g, 0), (g - 1, 0), (p - 2 - g, g + 1), (p - 1 - g, g)) for g in gamma)


def _profile_data(tau: TameType, J: frozenset) -> ProfileData:
    p, f, fp = tau.p, tau.f, tau.fprime
    s, t = [], []
    in_prev = (fp - 1) in J
    for i, cases in enumerate(tau.cases):
        in_self = i in J
        s_i, t_i = cases[2 * in_prev + in_self]
        if not -1 <= s_i <= p - 1:
            raise AssertionError(f"s out of range at {i}: {s_i}")
        if not 0 <= t_i <= p:
            raise AssertionError(f"t out of range at {i}: {t_i}")
        s.append(s_i)
        t.append(t_i)
        in_prev = in_self
    if s[f:] + s[:f] != s:
        raise AssertionError("s is not f-periodic")

    # Theta_J at level f' is eta' times the collapse of t; it must descend
    # through the norm in the cuspidal case.
    lift = (tau.eta_prime + sum(map(mul, t, tau.weights))) % tau.estep
    if tau.kind == PRINCIPAL:
        theta_res = lift
    else:
        theta_res = factor_through_norm(lift, p, f)
        if theta_res is None:
            raise NormDescentError(
                "Theta_J does not factor through the norm; recipe invariant broken"
            )
    theta = digit_tuple(theta_res, p, f)

    mu = tau.mu
    d = [m + t_i - th for m, t_i, th in zip(mu, t, theta * (fp // f))]
    nu = solve_twist_chain(d, p, fp)

    bad = frozenset(i for i in range(f) if s[i] == -1)
    return ProfileData(
        tau=tau,
        J=J,
        s=tuple(s),
        t=tuple(t),
        theta_residue=theta_res,
        theta=theta,
        mu=mu,
        nu=nu,
        bad_set=bad,
        in_P_tau=not bad,
    )


_profile_data_cached = lru_cache(maxsize=65536)(_profile_data)


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
        return tuple((1 - t, -s - t) for t, s in zip(self.t, self.s))


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
