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

from .charexp import (
    CharExp,
    NormDescentError,
    collapse_exponents,
    digit_tuple,
    factor_through_norm,
    level_f_lift_residue,
    periodic_extension,
    solve_twist_chain,
)

PRINCIPAL = "principal-series"
CUSPIDAL = "cuspidal"


class ScalarTypeError(ValueError):
    """The pair of characters defines a scalar type."""


@dataclass(frozen=True)
class TameType:
    p: int
    f: int
    kind: str
    eta: int        # exponent of eta at level f', canonical representative
    eta_prime: int  # exponent of eta' at level f'

    def __post_init__(self):
        if self.kind not in (PRINCIPAL, CUSPIDAL):
            raise ValueError(f"unknown kind {self.kind!r}")
        ep = self.modulus
        object.__setattr__(self, "eta", self.eta % ep)
        object.__setattr__(self, "eta_prime", self.eta_prime % ep)
        self._validate()

    @property
    def fprime(self) -> int:
        return self.f if self.kind == PRINCIPAL else 2 * self.f

    @property
    def estep(self) -> int:
        return self.p**self.fprime - 1

    @property
    def modulus(self) -> int:
        return self.p**self.fprime - 1

    def _validate(self):
        p, fp, ep = self.p, self.fprime, self.modulus
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
        return (self.eta * self.p ** (i % self.fprime)) % self.modulus

    def k_prime(self, i: int) -> int:
        return (self.eta_prime * self.p ** (i % self.fprime)) % self.modulus

    def ell(self, i: int) -> int:
        return (self.k(i) - self.k_prime(i)) % self.modulus

    def ell_prime(self, i: int) -> int:
        return (self.k_prime(i) - self.k(i)) % self.modulus

    @property
    def gamma(self) -> tuple[int, ...]:
        """Digits of eta/eta' with respect to the level-f' characters."""
        return digit_tuple((self.eta - self.eta_prime) % self.modulus, self.p, self.fprime)

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

def is_profile(tau: TameType, members) -> bool:
    J = frozenset(i % tau.fprime for i in members)
    if tau.kind == PRINCIPAL:
        return True
    return all((i in J) != ((i + tau.f) % tau.fprime in J) for i in range(tau.fprime))


def check_profile(tau: TameType, members) -> frozenset:
    J = frozenset(i % tau.fprime for i in members)
    if not is_profile(tau, J):
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


@lru_cache(maxsize=65536)
def _profile_data_cached(key, members):
    tau = TameType(*key)
    return _profile_data(tau, frozenset(members))


def profile_data(tau: TameType, J) -> ProfileData:
    J = check_profile(tau, J)
    return _profile_data_cached(tau.key(), tuple(sorted(J)))


def _profile_data(tau: TameType, J: frozenset) -> ProfileData:
    p, f, fp = tau.p, tau.f, tau.fprime
    g = tau.gamma
    s, t = [], []
    for i in range(fp):
        in_prev = ((i - 1) % fp) in J
        in_self = (i % fp) in J
        if in_prev:
            s.append(p - 1 - g[i] - (0 if in_self else 1))
            t.append(g[i] + (0 if in_self else 1))
        else:
            s.append(g[i] - (1 if in_self else 0))
            t.append(0)
    for i in range(fp):
        if not -1 <= s[i] <= p - 1:
            raise AssertionError(f"s out of range at {i}: {s[i]}")
        if not 0 <= t[i] <= p:
            raise AssertionError(f"t out of range at {i}: {t[i]}")
        if s[i] != s[(i + f) % fp]:
            raise AssertionError("s is not f-periodic")

    # Theta_J at level f' is eta' times the collapse of t; it must descend
    # through the norm in the cuspidal case.
    lift = CharExp(p, fp, tau.eta_prime + collapse_exponents(t, p, fp))
    if tau.kind == PRINCIPAL:
        theta_res = lift.residue
    else:
        desc = factor_through_norm(lift, f)
        if desc is None:
            raise NormDescentError(
                "Theta_J does not factor through the norm; recipe invariant broken"
            )
        theta_res = desc.residue
    theta = digit_tuple(theta_res, p, f)

    mu = digit_tuple(tau.eta_prime, p, fp)
    theta_ext = periodic_extension(theta, fp // f)
    d = [mu[i] + t[i] - theta_ext[i] for i in range(fp)]
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

    @property
    def f(self) -> int:
        return len(self.t)

    def is_steinberg(self) -> bool:
        return all(x == self.p - 1 for x in self.s)

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
