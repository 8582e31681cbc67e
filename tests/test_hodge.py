import itertools

import pytest

from bkshapes.hodge import (
    OPERATOR_KINDS,
    apply_operator,
    as_hodge,
    canonical_hodge,
    diffs,
    hodge_equiv,
    hodge_type_of,
    hodge_type_of_raw,
    irregular_ratio_never_cyclotomic,
    irregular_set,
    is_p_bounded,
    operator_moves,
    predicted_inclusions,
    translate,
)
from bkshapes.tametypes import enumerate_profiles, enumerate_types, profile_data, type_from_gamma


def test_hodge_type_example():
    t = type_from_gamma(5, 2, "principal-series", (2, 3))
    raw = hodge_type_of_raw(t, {0})
    assert raw == ((1, -1), (-3, -4))
    assert hodge_equiv(raw, hodge_type_of(t, {0}), 5)


def test_gap_identity_and_regularity():
    for tau in enumerate_types(3, 2):
        for J in enumerate_profiles(tau):
            pd = profile_data(tau, J)
            r = hodge_type_of_raw(tau, J)
            for i in range(2):
                assert r[i][0] - r[i][1] == pd.s[i] + 1
            assert irregular_set(r) == pd.bad_set
            if pd.in_P_tau:
                assert all(a > b for a, b in r)


def test_hodge_equiv_examples():
    r = as_hodge(((2, 0), (1, 0)))
    assert hodge_equiv(r, r, 3)
    assert hodge_equiv(r, translate(r, (8, 0)), 3)
    assert not hodge_equiv(r, translate(r, (1, 0)), 3)
    assert not hodge_equiv(r, as_hodge(((3, 0), (1, 0))), 3)  # gaps differ


def test_canonical_hodge_is_a_normal_form():
    import random

    from bkshapes.charexp import lambda_membership

    rng = random.Random(5)
    for _ in range(200):
        p, f = rng.choice([(3, 2), (5, 2), (3, 3)])
        r = as_hodge(
            tuple(
                sorted((rng.randrange(-9, 9), rng.randrange(-9, 9)), reverse=True)
                for _ in range(f)
            )
        )
        c1 = canonical_hodge(r, p)
        assert hodge_equiv(c1, r, p)
        assert canonical_hodge(c1, p) == c1  # idempotent
        # translating by a lattice member leaves the normal form fixed
        lam = next(
            (
                cand
                for cand in itertools.product(range(-4, 5), repeat=f)
                if any(cand) and lambda_membership(cand, p, f)
            ),
            None,
        )
        if lam is not None:
            assert canonical_hodge(translate(r, lam), p) == c1


def test_apply_operator_examples():
    r = ((3, 3), (4, 2))
    assert apply_operator("nu", 0, r, 5) == ((3, 2), (7, 4))
    assert apply_operator("mu", 0, r, 5) == ((8, 3), (3, 2))
    assert apply_operator("theta", 0, r, 5) == ((8, 3), (4, 1))


def test_operator_preconditions():
    r = ((3, 3), (4, 2))
    with pytest.raises(ValueError):
        apply_operator("nu", 1, r, 5)  # regular at 1
    steep = ((3, 3), (7, 2))  # gap p at index 1 = j-1
    with pytest.raises(ValueError):
        apply_operator("theta", 0, steep, 5)


def test_operator_preserves_bound_exhaustive():
    p, f = 3, 2
    for gaps in itertools.product(range(p + 1), repeat=f):
        r = as_hodge(tuple((g, 0) for g in gaps))
        for j in irregular_set(r):
            for kind in ("theta", "mu", "nu"):
                if kind == "theta" and gaps[(j - 1) % f] == p:
                    continue
                assert is_p_bounded(apply_operator(kind, j, r, p), p)


@pytest.mark.parametrize("p,f", [(3, 2), (3, 3), (5, 2), (5, 3)])
def test_operator_moves_are_the_defined_operators(p, f):
    """operator_moves yields, in ascending j, exactly the moves apply_operator accepts."""
    for gaps in itertools.product(range(p + 1), repeat=f):
        r = as_hodge(tuple((g + i, i) for i, g in enumerate(gaps)))
        defined = set()
        for j in range(f):
            for kind in OPERATOR_KINDS:
                try:
                    apply_operator(kind, j, r, p)
                except ValueError:
                    continue
                defined.add((j, kind))
        moves = list(operator_moves(r, p))
        assert set(moves) == defined and len(moves) == len(defined)
        assert [j for j, _ in moves] == sorted(j for j, _ in moves)


def test_no_operator_moves_at_f1():
    assert list(operator_moves(((2, 2),), 3)) == []
    assert predicted_inclusions(((2, 2),), 3) == []


def test_predicted_inclusions():
    r = ((3, 3), (4, 2))
    targets = predicted_inclusions(r, 5)
    want = {
        canonical_hodge(apply_operator(k, 0, r, 5), 5) for k in ("theta", "mu", "nu")
    }
    assert set(targets) == want
    # theta filtered out when j-1 sits at the bound
    steep = ((3, 3), (7, 2))
    targets2 = predicted_inclusions(steep, 5)
    assert canonical_hodge(apply_operator("mu", 0, steep, 5), 5) in targets2
    assert len(targets2) == 2
    # regular types have no predictions
    assert predicted_inclusions(((2, 0), (1, 0)), 5) == []


@pytest.mark.parametrize("p,f", [(3, 2), (5, 1)])
def test_cyclotomic_exclusion(p, f):
    assert irregular_ratio_never_cyclotomic(p, f)


def test_operators_realize_profile_flips():
    """The operator images of r(tau, J) are the types of shifted profiles.

    At a bad index j: nu_j lands on the profile with membership flipped at
    j; when j-1 is regular, theta_j (transition there) and mu_j
    (non-transition there) land on the profile flipped at j-1.
    """
    from bkshapes.tametypes import (
        CUSPIDAL,
        PRINCIPAL,
        enumerate_profiles,
        enumerate_types,
        is_transition,
    )

    p, f = 3, 2
    counts = {"nu": 0, "theta": 0, "mu": 0}
    for kind in (PRINCIPAL, CUSPIDAL):
        for tau in enumerate_types(p, f, kinds=(kind,)):
            for J in enumerate_profiles(tau):
                pd = profile_data(tau, J)
                r = hodge_type_of_raw(tau, J)

                def flipped(i):
                    flip = {i} if kind == PRINCIPAL else {i, i + f}
                    return frozenset(J) ^ frozenset(flip)

                for j in pd.bad_set:
                    assert hodge_equiv(
                        apply_operator("nu", j, r, p), hodge_type_of(tau, flipped(j)), p
                    )
                    counts["nu"] += 1
                    jm = (j - 1) % f
                    if jm in pd.bad_set:
                        continue
                    if is_transition(J, jm, tau.fprime):
                        if r[jm][0] - r[jm][1] != p:
                            assert hodge_equiv(
                                apply_operator("theta", j, r, p),
                                hodge_type_of(tau, flipped(jm)),
                                p,
                            )
                            counts["theta"] += 1
                    else:
                        assert hodge_equiv(
                            apply_operator("mu", j, r, p),
                            hodge_type_of(tau, flipped(jm)),
                            p,
                        )
                        counts["mu"] += 1
    assert counts == {"nu": 160, "theta": 32, "mu": 96}


def test_nu_chain_reaches_unit_gaps():
    p, f = 3, 3
    for j in range(f):
        gaps = [p] * f
        gaps[j] = 0
        gaps[(j - 1) % f] = p - 1
        r = as_hodge(tuple((g, 0) for g in gaps))
        for _ in range(f - 1):
            irr = sorted(irregular_set(r))
            if not irr:
                break
            r = apply_operator("nu", irr[0], r, p)
        assert diffs(r) == (1,) * f
