"""Circular interval combinatorics and profile shifting.

The bad set of a (type, profile) pair decomposes into maximal circular
intervals; each interval extends one step backwards, and the allowed
profile replacements flip memberships inside the per-interval enlargements
subject to a non-containment rule.  A replacement is the profile
`tametypes.profile_at` builds from J's profile number with the flipped
indices toggled, for either kind of type.
"""

from __future__ import annotations

from .tametypes import TameType, check_profile, is_transition, profile_at, profile_data, profile_mask


def extended(S, f: int) -> frozenset:
    """S together with its shift by -1."""
    S = frozenset(i % f for i in S)
    return S | frozenset((i - 1) % f for i in S)


def interval_decomposition(S, f: int) -> list[tuple[int, ...]]:
    """Maximal circular intervals of S, each as a cyclically ordered tuple.

    Maximality is equivalent to the one-step enlargements being pairwise
    disjoint.  The full circle decomposes as a single interval; the empty
    set gives an empty list.  Intervals are sorted by starting point.
    """
    S = frozenset(i % f for i in S)
    if not S:
        return []
    if len(S) == f:
        return [tuple(range(f))]
    out = []
    for start in range(f):
        if start in S and (start - 1) % f not in S:
            block = [start]
            while (block[-1] + 1) % f in S:
                block.append((block[-1] + 1) % f)
            out.append(tuple(block))
    return sorted(out, key=lambda b: b[0])


def interval_anchor(block: tuple[int, ...], f: int) -> int:
    """The unique element of the one-step enlargement missing from the interval."""
    if len(block) == f:
        raise ValueError("the full circle has no anchor")
    return (block[0] - 1) % f


def shifted_bad_set(tau: TameType, J) -> frozenset:
    """The per-interval enlargement of the bad set allowed for shifting.

    An interval keeps its anchor exactly when the step into the anchor is a
    transition for J.
    """
    J = check_profile(tau, J)
    pd = profile_data(tau, J)
    f = tau.f
    out = set()
    for block in interval_decomposition(pd.bad_set, f):
        out.update(block)
        if len(block) < f:
            m = interval_anchor(block, f)
            if is_transition(J, m, tau.fprime):
                out.add(m)
    return frozenset(out)


def shapeshift_targets(tau: TameType, J) -> list[frozenset]:
    """Profiles J' reachable by flipping memberships inside the enlarged bad set.

    The symmetric difference must avoid containing any full one-step
    interval enlargement (unless the bad set is the whole circle).  A flip
    set D of Z/fZ is applied to J's profile number, so in the cuspidal case
    J' also flips i + f for each i in D.
    """
    J = check_profile(tau, J)
    pd = profile_data(tau, J)
    f = tau.f
    n = profile_mask(tau, J) & (1 << f) - 1
    allowed = sorted(shifted_bad_set(tau, J))
    blocks = interval_decomposition(pd.bad_set, f)
    forbid = []
    if len(pd.bad_set) != f:
        forbid = [extended(set(b), f) for b in blocks]
    out = []
    for mask in range(2 ** len(allowed)):
        D = frozenset(allowed[i] for i in range(len(allowed)) if mask >> i & 1)
        if any(E <= D for E in forbid):
            continue
        out.append(profile_at(tau, n ^ sum([1 << i for i in D])))
    return sorted(out, key=lambda Jp: sorted(Jp))
