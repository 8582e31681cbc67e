import dataclasses

import pytest

from bkshapes import tametypes
from bkshapes.tametypes import (
    CUSPIDAL,
    PRINCIPAL,
    BadProfileError,
    ScalarTypeError,
    SerreWeight,
    TameType,
    enumerate_profiles,
    enumerate_types,
    jordan_holder_weights,
    make_type,
    profile_data,
    serre_weight,
    type_from_gamma,
)


def test_make_type_cuspidal_gamma_pairing():
    t = make_type(5, 1, CUSPIDAL, 7, 7 * 5)
    assert t.gamma == (0, 4)
    assert sum(t.gamma) == 4  # gamma_0 + gamma_1 = p - 1


def test_make_type_rejects_scalar():
    with pytest.raises(ScalarTypeError):
        make_type(3, 2, PRINCIPAL, 5, 5)


def test_make_type_rejects_broken_cuspidal_pair():
    with pytest.raises(ValueError):
        make_type(3, 1, CUSPIDAL, 1, 1 + 3)  # eta' != eta**p


def test_type_from_gamma_roundtrip():
    t = type_from_gamma(5, 2, PRINCIPAL, (2, 3))
    assert t.gamma == (2, 3)
    tc = type_from_gamma(3, 2, CUSPIDAL, (1, 2))
    assert tc.gamma[:2] == (1, 2)
    assert tc.gamma == (1, 2, 1, 0)


def test_enumerate_profiles():
    t = type_from_gamma(3, 2, PRINCIPAL, (1, 2))
    assert sorted(map(sorted, enumerate_profiles(t))) == [[], [0], [0, 1], [1]]
    tc1 = type_from_gamma(3, 1, CUSPIDAL, (1,))
    assert sorted(map(sorted, enumerate_profiles(tc1))) == [[0], [1]]
    tc2 = type_from_gamma(3, 2, CUSPIDAL, (1, 2))
    profs = enumerate_profiles(tc2)
    assert len(profs) == 4
    for J in profs:
        for i in range(4):
            assert (i in J) != ((i + 2) % 4 in J)


def test_profile_data_examples():
    t = type_from_gamma(5, 2, PRINCIPAL, (2, 3))
    pd = profile_data(t, {0})
    assert pd.s == (1, 0) and pd.t == (0, 4)

    tc = type_from_gamma(3, 1, CUSPIDAL, (1,))
    pdc = profile_data(tc, {0})
    assert pdc.s == (0, 0) and pdc.t == (0, 2)
    assert pdc.s[0] == pdc.s[1]  # f-periodic

    t2 = type_from_gamma(3, 2, PRINCIPAL, (1, 1))
    pd2 = profile_data(t2, {0, 1})
    assert pd2.s == (1, 1) and pd2.t == (1, 1)


def test_profile_validation():
    tc = type_from_gamma(3, 2, CUSPIDAL, (1, 2))
    with pytest.raises(ValueError):
        profile_data(tc, {0, 2})  # violates the pairing rule


def test_cuspidal_xi_vanishes_everywhere():
    for tau in enumerate_types(3, 2, kinds=(CUSPIDAL,)):
        for J in enumerate_profiles(tau):
            pd = profile_data(tau, J)
            for i in range(tau.f):
                assert pd.xi(i) == 0


def test_serre_weight_examples():
    t = type_from_gamma(5, 1, PRINCIPAL, (2,))
    w0 = serre_weight(t, frozenset())
    w1 = serre_weight(t, {0})
    assert (w0.t, w0.s) == ((0,), (2,))
    assert (w1.t, w1.s) == ((2,), (2,))
    assert jordan_holder_weights(t) == {w0, w1}


def test_bad_profile_rejected():
    # gamma with a -1 somewhere: s_{J,i} = -1 happens iff transition with
    # gamma 0 or p-1; build one directly
    t = type_from_gamma(3, 2, PRINCIPAL, (0, 1))
    bad = [J for J in enumerate_profiles(t) if not profile_data(t, J).in_P_tau]
    assert bad
    with pytest.raises(BadProfileError):
        serre_weight(t, bad[0])


def test_jh_deduplicates():
    for tau in enumerate_types(3, 2):
        weights = jordan_holder_weights(tau)
        listed = [
            serre_weight(tau, J)
            for J in enumerate_profiles(tau)
            if profile_data(tau, J).in_P_tau
        ]
        assert weights == set(listed)
        # distinct good profiles carry distinct weights at this scale
        assert len(listed) == len(weights)


def test_serre_weight_normalization_guard():
    with pytest.raises(ValueError):
        SerreWeight(3, (2, 2), (1, 1))  # all twists p-1 is not canonical
    with pytest.raises(ValueError):
        SerreWeight(3, (0, 0), (3, 0))


@pytest.mark.parametrize("p,f", [(3, 1), (3, 2), (5, 1)])
def test_norm_descent_never_absent_in_recipe(p, f):
    for tau in enumerate_types(p, f, kinds=(CUSPIDAL,)):
        for J in enumerate_profiles(tau):
            profile_data(tau, J)  # raises NormDescentError on failure


def test_useful_identity_exhaustive_p3():
    for f in (1, 2):
        for tau in enumerate_types(3, f):
            g = tau.gamma
            for i in range(tau.fprime):
                lhs = 3 * tau.ell_prime(i - 1) - tau.ell_prime(i)
                assert lhs == tau.estep * (3 - 1 - g[i])


# -- the recipe cache and the per-type derived data ----------------------------

@pytest.mark.parametrize("p,f", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_cached_recipe_equals_fresh_recipe(p, f):
    for tau in enumerate_types(p, f):
        for J in enumerate_profiles(tau):
            assert profile_data(tau, J) == tametypes._profile_data(tau, J)


def test_recipe_miss_constructs_no_type(monkeypatch):
    tau = make_type(5, 2, CUSPIDAL, 7, 7 * 25)
    built = []
    post_init = TameType.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(TameType, "__post_init__", counting)
    tametypes._profile_data_cached.cache_clear()
    for J in enumerate_profiles(tau):
        pd = profile_data(tau, J)
        assert pd.tau is tau and pd.J == J
    info = tametypes._profile_data_cached.cache_info()
    assert (info.misses, info.hits) == (4, 0)
    assert built == []
    # an equal type built elsewhere hits the same entries
    twin = make_type(5, 2, CUSPIDAL, 7, 7 * 25)
    assert [profile_data(twin, J) for J in enumerate_profiles(twin)] == [
        profile_data(tau, J) for J in enumerate_profiles(tau)
    ]
    assert tametypes._profile_data_cached.cache_info().misses == 4


def _derived_by_formula(tau):
    """fprime, estep and gamma restated: gamma_i is the digit of p**((-i) mod f') in eta - eta'."""
    fp = tau.f if tau.kind == PRINCIPAL else 2 * tau.f
    ep = tau.p**fp - 1
    r = (tau.eta - tau.eta_prime) % ep
    return fp, ep, tuple(r // tau.p ** ((-i) % fp) % tau.p for i in range(fp))


@pytest.mark.parametrize("p,f", [(3, 2), (5, 2)])
def test_derived_type_data_matches_formulas(p, f):
    for tau in enumerate_types(p, f):
        assert (tau.fprime, tau.estep, tau.gamma) == _derived_by_formula(tau)
    for tau in enumerate_types(p, f)[::7]:
        for c in (1, p, p**f - 2):
            twisted = tau.twist(c)
            assert (twisted.fprime, twisted.estep, twisted.gamma) == _derived_by_formula(twisted)
            assert twisted.gamma == tau.gamma  # a twist keeps the ratio eta/eta'


def test_type_repr_eq_and_hash_use_the_five_fields():
    tau = make_type(3, 2, CUSPIDAL, 1, 9 + 80)
    assert [fld.name for fld in dataclasses.fields(TameType)] == [
        "p", "f", "kind", "eta", "eta_prime",
    ]
    assert repr(tau) == "TameType(p=3, f=2, kind='cuspidal', eta=1, eta_prime=9)"
    assert tau == TameType(3, 2, CUSPIDAL, 81, 9) and hash(tau) == hash(tau.key())
