"""Hodge types: bounded weight pairs, twist equivalence, weight operators.

A Hodge type is a tuple of f integer pairs (r1, r2) with r1 >= r2.  Two
types are equivalent when they differ by a per-embedding shift lying in
the lattice of trivially-reducing crystalline character types; all loci
considered downstream only depend on the equivalence class.
"""

from __future__ import annotations

from functools import lru_cache

from .charexp import collapse_exponents, digit_tuple, lambda_membership
from .tametypes import CUSPIDAL, PRINCIPAL, TameType, profile_at, profile_data, type_from_gamma

HodgePairs = tuple[tuple[int, int], ...]


class ForcedChoiceError(ValueError):
    """The requested transition preference is unsatisfiable at this index."""

    def __init__(self, index: int, forced: str):
        self.index = index
        self.forced = forced
        super().__init__(f"index {index} is forced to be a {forced}")


def as_hodge(pairs) -> HodgePairs:
    out = tuple([(int(a), int(b)) for a, b in pairs])
    for a, b in out:
        if a < b:
            raise ValueError(f"pair ({a},{b}) is not weakly decreasing")
    return out


def diffs(r: HodgePairs) -> tuple[int, ...]:
    return tuple(a - b for a, b in r)


def is_p_bounded(r: HodgePairs, p: int) -> bool:
    return all(d <= p for d in diffs(r))


def is_steinberg(r: HodgePairs, p: int) -> bool:
    return all(d == p for d in diffs(r))


def irregular_set(r: HodgePairs) -> frozenset:
    return frozenset(i for i, d in enumerate(diffs(r)) if d == 0)


def hodge_equiv(r: HodgePairs, rp: HodgePairs, p: int) -> bool:
    """Whether the difference is a constant-per-embedding trivial twist."""
    if len(r) != len(rp):
        return False
    lam = [x[0] - y[0] for x, y in zip(rp, r)]
    if any(x[1] - y[1] != l for x, y, l in zip(rp, r, lam)):
        return False
    return lambda_membership(lam, p, len(r))


def canonical_hodge(r: HodgePairs, p: int) -> HodgePairs:
    """Deterministic representative of the twist class.

    The lower entries are replaced by the digit tuple of their collapse
    residue (a twist-class invariant), keeping the per-embedding gaps.
    """
    f = len(r)
    low = digit_tuple(collapse_exponents([b for _, b in r], p, f), p, f)
    return tuple([(lo + a - b, lo) for lo, (a, b) in zip(low, r)])


def hodge_type_of_raw(tau: TameType, J) -> HodgePairs:
    """The pairs (1-theta_i, -s_i-theta_i) the recipe attaches to (tau, J).

    They are weakly decreasing because s_i >= -1, which `recipe-bounds` checks.
    """
    pd = profile_data(tau, J)
    return _raw_pairs(pd.s, pd.theta)


def _raw_pairs(s, theta) -> HodgePairs:
    return tuple([(1 - th, -x - th) for th, x in zip(theta, s)])


def hodge_type_of(tau: TameType, J) -> HodgePairs:
    """Canonical Hodge type attached to (tau, J): the twist class of the raw pairs.

    It depends on (tau, J) only through p, s_J and Theta_J, so it is read
    from one memo keyed by them (`_canonical_of_recipe`): a sweep at (3,3)
    asks for it on 10 816 pairs and computes it for 3 016 keys.  The memo
    is bounded: a walk over every pair at (5,3) meets 52 080 keys, and it
    keeps the latest 4 096 of them.
    """
    pd = profile_data(tau, J)
    return _canonical_of_recipe(tau.p, pd.s, pd.theta)


@lru_cache(maxsize=4096)
def _canonical_of_recipe(p: int, s: tuple[int, ...], theta: tuple[int, ...]) -> HodgePairs:
    """canonical_hodge of the raw pairs (1 - theta_i, -s_i - theta_i) (`hodge_type_of_raw`)."""
    return canonical_hodge(_raw_pairs(s, theta), p)


# -- weight operators -------------------------------------------------------

OPERATOR_KINDS = ("theta", "mu", "nu")


def _operator_fault(kind: str, j: int, r: HodgePairs, p: int) -> str | None:
    """Why kind_j is undefined on r (f >= 2, irregular at j, theta bounded at j-1), or None."""
    f = len(r)
    if kind not in OPERATOR_KINDS:
        return f"unknown operator kind {kind!r}"
    if f < 2:
        return "operators are defined for f >= 2"
    j %= f
    if r[j][0] != r[j][1]:
        return f"type is regular at {j}; operator undefined"
    if kind == "theta" and r[(j - 1) % f][0] - r[(j - 1) % f][1] == p:
        return "theta would leave the bounded range at j-1"
    return None


def operator_moves(r: HodgePairs, p: int):
    """The (j, kind) pairs at which an operator is defined on r, in ascending j."""
    for j in sorted(irregular_set(r)):
        for kind in OPERATOR_KINDS:
            if _operator_fault(kind, j, r, p) is None:
                yield j, kind


def apply_operator(kind: str, j: int, r: HodgePairs, p: int) -> HodgePairs:
    """One of the three weight-raising operators at an irregular index j."""
    fault = _operator_fault(kind, j, r, p)
    if fault is not None:
        raise ValueError(fault)
    f = len(r)
    j %= f
    out = [list(pair) for pair in r]
    if kind == "theta":
        out[(j - 1) % f][1] -= 1
        out[j][0] += p
    elif kind == "mu":
        out[(j - 1) % f][0] -= 1
        out[j][0] += p
    else:
        out[j][1] -= 1
        a, b = out[(j + 1) % f]
        out[(j + 1) % f] = [b + p, a]
    return tuple(tuple(sorted(pair, reverse=True)) for pair in out)


def predicted_inclusions(r: HodgePairs, p: int) -> list[HodgePairs]:
    """Canonical operator images at every irregular index, deduplicated."""
    out: list[HodgePairs] = []
    for j, kind in operator_moves(r, p):
        img = canonical_hodge(apply_operator(kind, j, r, p), p)
        if img not in out:
            out.append(img)
    return out


def irregular_ratio_never_cyclotomic(p: int, f: int) -> bool:
    """Brute check: no bounded exponent tuple with a zero entry is cyclotomic.

    Enumerates all t in [-p, p]^f having at least one zero entry and tests
    whether the product of level-f characters with those exponents can equal
    the inertial restriction of the mod-p cyclotomic character (exponent the
    collapse of the all-ones tuple).  Expected: none can.
    """
    mod = p**f - 1
    cyc = collapse_exponents([1] * f, p, f)
    span = range(-p, p + 1)

    def rec(i, acc_entries):
        if i == f:
            if all(x != 0 for x in acc_entries):
                return True
            return collapse_exponents(acc_entries, p, f) % mod != cyc
        return all(rec(i + 1, acc_entries + [t]) for t in span)

    return rec(0, [])


# -- inverse construction ----------------------------------------------------

def _normalize_constraint(f: int, constraint) -> dict[int, bool]:
    out: dict[int, bool] = {}
    for idx, pref in (constraint or {}).items():
        i = idx % f
        if pref not in ("transition", "non-transition"):
            raise ValueError(f"unknown preference {pref!r}")
        want = pref == "transition"
        if i in out and out[i] != want:
            raise ValueError(f"contradictory preferences at index {i}")
        out[i] = want
    return out


def _assign(p, f, s, constraint, flip_at):
    """One pass of the membership/gamma construction; returns (member, gamma)."""
    mem = [False] * f
    prev = False  # canonical start: the virtual index -1 is not in J
    gamma = [0] * f
    for i in range(f):
        if s[i] == -1:
            transition = True
        elif s[i] == p - 1:
            transition = False
        else:
            transition = constraint.get(i, False)
            if i == flip_at:
                transition = not transition
        cur = prev != transition
        if prev:
            gamma[i] = p - 1 - s[i] - (0 if cur else 1)
        else:
            gamma[i] = s[i] + (1 if cur else 0)
        mem[i] = cur
        prev = cur
    return mem, gamma


def find_type_profile(r: HodgePairs, p: int, constraint=None):
    """Produce (tau, J) whose attached Hodge type is twist-equivalent to r.

    ``constraint`` maps embedding indices to 'transition'/'non-transition'
    preferences; indices with gap in {0, p} have their choice forced and a
    contradicting preference raises.  At genuinely free indices the stated
    preference is honored except in the two unsatisfiable patterns, which
    raise ForcedChoiceError.
    """
    r = as_hodge(r)
    f = len(r)
    d = diffs(r)
    if not is_p_bounded(r, p):
        raise ValueError("type is not p-bounded")
    if is_steinberg(r, p):
        raise ValueError("Steinberg types have no attached pair")
    s = [x - 1 for x in d]
    constraint = _normalize_constraint(f, constraint)
    for i, want in constraint.items():
        if s[i] == -1 and not want:
            raise ForcedChoiceError(i, "transition")
        if s[i] == p - 1 and want:
            raise ForcedChoiceError(i, "non-transition")

    mem, gamma = _assign(p, f, s, constraint, flip_at=None)
    if not mem[f - 1] and (all(g == 0 for g in gamma) or all(g == p - 1 for g in gamma)):
        # a scalar principal outcome; a walk with every s_i in {-1, p - 1} is scalar principal
        # only at every s_i = p - 1, the Steinberg type refused above, so some s_i lies in
        # [0, p - 2]: when none of those is free, one is pinned
        free = [i for i in range(f) if 0 <= s[i] <= p - 2 and i not in constraint]
        if not free:
            bad = min(i for i in constraint if 0 <= s[i] <= p - 2)
            raise ForcedChoiceError(bad, "non-transition" if constraint[bad] else "transition")
        # one flipped transition changes the parity of the walk: the type is cuspidal
        mem, gamma = _assign(p, f, s, constraint, flip_at=free[0])

    tau0 = type_from_gamma(p, f, CUSPIDAL if mem[f - 1] else PRINCIPAL, gamma)
    J = profile_at(tau0, sum([1 << i for i in range(f) if mem[i]]))
    theta = profile_data(tau0, J).theta
    shift = collapse_exponents([1 - r[i][0] - theta[i] for i in range(f)], p, f)
    return tau0.twist(shift), J
