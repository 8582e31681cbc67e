import dataclasses
import itertools
import random

import pytest

from bkshapes import tametypes
from bkshapes.charexp import (
    NormDescentError,
    collapse_exponents,
    digit_tuple,
    factor_through_norm,
    solve_twist_chain,
)
from bkshapes.extensions import rank1_etale_isomorphic
from bkshapes.gf import field
from bkshapes.hodge import find_type_profile
from bkshapes.intervals import shapeshift_targets, shifted_bad_set
from bkshapes.io import module_to_json
from bkshapes.phimod import descend_to_base, eigenbasis_matrices, twist_chain
from bkshapes.randgen import random_component_module
from bkshapes.tametypes import (
    CUSPIDAL,
    PRINCIPAL,
    BadProfileError,
    ProfileData,
    ScalarTypeError,
    SerreWeight,
    TameType,
    check_profile,
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


@pytest.mark.parametrize("p,f", [(3, 1), (3, 2), (2, 3)])
def test_check_profile_matches_pairing_rule(p, f):
    """Every subset of Z/f'Z, spelled with members shifted by f', against the rule at every index."""
    gamma = (1,) + (0,) * (f - 1)
    for tau in (type_from_gamma(p, f, PRINCIPAL, gamma), type_from_gamma(p, f, CUSPIDAL, gamma)):
        fp = tau.fprime
        for mask in range(2**fp):
            J = frozenset(i for i in range(fp) if mask >> i & 1)
            valid = tau.kind == PRINCIPAL or all(
                (i in J) != ((i + f) % fp in J) for i in range(fp)
            )
            members = [i + fp * (i % 3 - 1) for i in J]
            if valid:
                assert check_profile(tau, members) == J
            else:
                with pytest.raises(ValueError):
                    check_profile(tau, members)


def _profile_readers():
    """The readers that leave the profile check to `profile_data` or
    `module_from_partial_frobenius`, each answering with comparable values, at a cuspidal
    (3,2) type."""
    tau = type_from_gamma(3, 2, CUSPIDAL, (1, 2))
    F = field(3, 4)

    def component_module(J):
        return random_component_module(random.Random(0), tau, J, F, degree=3)

    mod = component_module({0, 3})

    def descent(J):
        res = descend_to_base(mod, J)
        return res.J, module_to_json(tau, res.mats, F, scale="v")

    return {
        "descend_to_base": descent,
        "shifted_bad_set": lambda J: shifted_bad_set(tau, J),
        "shapeshift_targets": lambda J: shapeshift_targets(tau, J),
        "random_component_module": lambda J: module_to_json(
            tau, eigenbasis_matrices(component_module(J)), F),
        "rank1_etale_isomorphic": lambda J: rank1_etale_isomorphic(tau, J),
    }


@pytest.mark.parametrize("reader", ["descend_to_base", "shifted_bad_set", "shapeshift_targets",
                                    "random_component_module", "rank1_etale_isomorphic"])
def test_readers_refuse_and_reduce_profiles_as_check_profile(reader):
    """An invalid cuspidal profile is refused with `check_profile`'s ValueError and text, and
    members at or above f' read as their residues."""
    read = _profile_readers()[reader]
    with pytest.raises(ValueError) as info:
        read({0, 2})
    assert info.type is ValueError
    assert str(info.value) == "[0, 2] is not a valid profile for a cuspidal type"
    assert read({4, 7}) == read({0, 3})


def _reference_nu(pd):
    """The twist chain restated: p*nu_{i-1} - nu_i = mu_i + t_i - theta_i, theta f-periodic."""
    tau = pd.tau
    fp = tau.fprime
    mu = digit_tuple(tau.eta_prime, tau.p, fp)
    theta_ext = pd.theta * (fp // tau.f)
    return solve_twist_chain([mu[i] + pd.t[i] - theta_ext[i] for i in range(fp)], tau.p, fp)


def _reference_xi(pd, nu, i):
    """The cuspidal basis-matching exponent (ell'_i + k_i - k'_i)/estep + nu_i - nu_{i+f} - [i in J]."""
    tau = pd.tau
    p, f, ep = tau.p, tau.f, tau.estep
    k, k_prime = tau.eta * p**i % ep, tau.eta_prime * p**i % ep
    num = (k_prime - k) % ep + k - k_prime
    assert num % ep == 0
    return num // ep + nu[i] - nu[i + f] - (1 if i in pd.J else 0)


def test_cuspidal_xi_vanishes_everywhere():
    for tau in enumerate_types(3, 2, kinds=(CUSPIDAL,)):
        for J in enumerate_profiles(tau):
            pd = profile_data(tau, J)
            nu = _reference_nu(pd)
            assert twist_chain(pd) == nu  # asserts xi = 0 on its own
            for i in range(tau.f):
                assert _reference_xi(pd, nu, i) == 0


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
                lhs = 3 * tau.ell_prime[i - 1] - tau.ell_prime[i]
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


def test_equal_profiles_and_bad_sets_are_one_object():
    """Every profile and bad set equal to another is that same frozenset, whichever type,
    entry point or spelling of the members gave it; the shapeshift targets and the profiles
    the inverse construction returns are among them."""
    seen = {}

    def one(J):
        assert seen.setdefault(J, J) is J, J

    for p, f in [(3, 1), (3, 2), (5, 2), (2, 4), (3, 3)]:
        for tau in enumerate_types(p, f)[::11]:
            fp = tau.fprime
            for mask, J in enumerate(enumerate_profiles(tau)):
                one(J)
                one(tametypes.profile_at(tau, mask))
                for members in (set(J), sorted(J), [i + fp for i in J], [i - 2 * fp for i in J]):
                    one(check_profile(tau, members))
                one(profile_data(tau, J).bad_set)
                for Jp in shapeshift_targets(tau, J):
                    one(Jp)
    for p, f in [(3, 2), (3, 3)]:
        for gaps in itertools.product(range(p + 1), repeat=f):
            if set(gaps) != {p}:
                one(find_type_profile(tuple((g, 0) for g in gaps), p)[1])
    assert frozenset() in seen and frozenset({0, 1, 2}) in seen


def test_types_with_one_gamma_share_their_recipe_rows():
    """s, t and the bad set depend on a type only through gamma: equal-gamma types share them."""
    for p, f in [(3, 2), (5, 2)]:
        for tau in enumerate_types(p, f)[::13]:
            for c in (1, p, p**f - 2):
                twin = tau.twist(c)
                assert twin.gamma == tau.gamma and twin != tau
                for J in enumerate_profiles(tau):
                    a, b = profile_data(tau, J), profile_data(twin, J)
                    assert a.s is b.s and a.t is b.t and a.bad_set is b.bad_set, (tau, twin, J)


DERIVED = ("fprime", "estep", "gamma", "mu", "ell_prime")


def _derived_by_formula(tau):
    """The derived data restated from the definitions.

    gamma_i (mu_i) is the digit of p**((-i) mod f') in eta - eta' (in eta');
    ell'_i is the exponent of eta'/eta at embedding i, (k'_i - k_i) mod estep;
    the case table of gamma lists at index i the (s_i, t_i) for (i-1 in J, i in J)
    = (0,0), (0,1), (1,0), (1,1), from the recipe's branches on gamma_i.
    """
    p = tau.p
    fp = tau.f if tau.kind == PRINCIPAL else 2 * tau.f
    ep = p**fp - 1
    weights = tuple(p ** ((-i) % fp) for i in range(fp))
    gamma = tuple((tau.eta - tau.eta_prime) % ep // w % p for w in weights)
    mu = tuple(tau.eta_prime % ep // w % p for w in weights)
    ell_prime = tuple((tau.eta_prime * p**i % ep - tau.eta * p**i % ep) % ep for i in range(fp))
    cases = tuple(
        tuple(_reference_case(p, g, in_prev, in_self) for in_prev in (0, 1) for in_self in (0, 1))
        for g in gamma
    )
    return fp, ep, gamma, mu, ell_prime, cases


def _derived(tau):
    """The type's derived data, and the recipe's case table of its gamma."""
    return tuple(getattr(tau, name) for name in DERIVED) + (tametypes._recipe_cases(tau.p, tau.gamma),)


@pytest.mark.parametrize("p,f", [(3, 2), (5, 2)])
def test_derived_type_data_matches_formulas(p, f):
    for tau in enumerate_types(p, f):
        assert _derived(tau) == _derived_by_formula(tau)
    for tau in enumerate_types(p, f)[::7]:
        for c in (1, p, p**f - 2):
            twisted = tau.twist(c)
            assert _derived(twisted) == _derived_by_formula(twisted)
            assert twisted.gamma == tau.gamma  # a twist keeps the ratio eta/eta'


def test_type_repr_eq_and_hash_use_the_five_fields():
    tau = make_type(3, 2, CUSPIDAL, 1, 9 + 80)
    assert [fld.name for fld in dataclasses.fields(TameType)] == [
        "p", "f", "kind", "eta", "eta_prime",
    ]
    assert repr(tau) == "TameType(p=3, f=2, kind='cuspidal', eta=1, eta_prime=9)"
    assert dataclasses.astuple(tau) == tau.key()
    twin = TameType(3, 2, CUSPIDAL, 81, 9)
    assert tau == twin and hash(tau) == hash(twin) == hash(tau.key())
    assert _derived(twin) == _derived(tau) == _derived_by_formula(tau)
    # the derived data is held on the instance, outside the fields
    assert set(DERIVED) <= set(vars(tau))
    # a type differing only in eta' is unequal, and so is its derived data
    other = TameType(3, 2, CUSPIDAL, 2, 18)
    assert other != tau and _derived(other) != _derived(tau)


def _clear_recipe_caches():
    """Forget every type list, recipe row and recipe built so far, and every value a sweep row
    shares (canonical Hodge types, sorted bad sets, formatted fields), so a mutant's are built
    afresh."""
    from bkshapes import hodge, io, verify

    verify._types.cache_clear()
    tametypes._profile_data_cached.cache_clear()
    tametypes._recipe_row.cache_clear()
    hodge._canonical_of_recipe.cache_clear()
    for memo in (io._sorted_members, io._ints_text, io._pairs_text):
        memo.cache_clear()


def _verify_recipe_bounds_with(monkeypatch, recipe_cases):
    """The exit code and output of `verify --p 3 --f 2` with `recipe-bounds` alone, every
    recipe row read off the case table ``recipe_cases(p, gamma)``."""
    import io

    from bkshapes import verify
    from bkshapes.cli import main

    _clear_recipe_caches()
    monkeypatch.setattr(tametypes, "_recipe_cases", recipe_cases)
    monkeypatch.setattr(verify, "CHECKS", [("recipe-bounds", verify.check_recipe_bounds)])
    try:
        out = io.StringIO()
        code = main(["verify", "--p", "3", "--f", "2"], out=out)
    finally:
        monkeypatch.undo()
        _clear_recipe_caches()
    return code, out.getvalue()


@pytest.mark.parametrize(
    "case0,message",
    [((3, 0), "s out of range at 0"), ((0, 4), "t out of range at 0"), ((1, 0), "not f-periodic")],
)
def test_recipe_checks_fire_on_a_corrupt_table(monkeypatch, case0, message):
    """Index 0 reads case0 whatever J is, every other index (0, 0), for every type.

    The recipe computes what its table says; `recipe-bounds` is the one place
    that checks it.  Principal types come first and their Theta_J needs no
    norm descent, so the check FAILs before a cuspidal pair could crash.
    """

    def corrupt(p, gamma):
        return ((case0,) * 4,) + (((0, 0),) * 4,) * (len(gamma) - 1)

    code, out = _verify_recipe_bounds_with(monkeypatch, corrupt)
    assert code == 1, message
    assert "FAIL recipe-bounds: " in out, message
    assert "ERROR" not in out


def _s_below_range_entering_J(p, gamma):
    """In the case (i-1 not in J, i in J), s reads gamma_i - 2: one below the range at gamma_i = 0."""
    return tuple(((g, 0), (g - 2, 0), (p - 2 - g, g + 1), (p - 1 - g, g)) for g in gamma)


def _t_swapped_after_J(p, gamma):
    """t is swapped between the two cases with i-1 in J; every value stays in range."""
    return tuple(((g, 0), (g - 1, 0), (p - 2 - g, g), (p - 1 - g, g + 1)) for g in gamma)


@pytest.mark.parametrize("mutant", [_s_below_range_entering_J, _t_swapped_after_J],
                         ids=lambda m: m.__name__)
def test_recipe_bounds_fails_on_a_wrong_recipe_table(monkeypatch, mutant):
    """A wrong case table, in range or not, is a counterexample to `recipe-bounds`, not a crash."""
    code, out = _verify_recipe_bounds_with(monkeypatch, mutant)
    assert code == 1
    assert "FAIL recipe-bounds: " in out
    assert "ERROR" not in out


def _sweep_3_2():
    import io

    from bkshapes.cli import main

    out = io.StringIO()
    assert main(["sweep", "--p", "3", "--f", "2"], out=out) == 0
    return out.getvalue()


def test_no_memo_hides_a_corrupt_table_from_a_sweep(monkeypatch):
    """A sweep read off a corrupt case table shows it, and once the caches are cleared again
    the clean table comes back: no recipe row, Hodge type or formatted field outlives the
    table it was read off."""
    from bkshapes.io import read_sweep

    clean = _sweep_3_2()
    _clear_recipe_caches()
    monkeypatch.setattr(tametypes, "_recipe_cases", _s_below_range_entering_J)
    try:
        corrupt = _sweep_3_2()
    finally:
        monkeypatch.undo()
        _clear_recipe_caches()
    assert corrupt != clean
    assert any(-2 in row["s"] for row in read_sweep(corrupt))
    assert not any(-2 in row["s"] for row in read_sweep(clean))
    assert _sweep_3_2() == clean


# -- the recipe against its branch-by-branch statement --------------------------

def _reference_case(p, g, in_prev, in_self):
    """(s_i, t_i) of the recipe at an index with gamma digit g."""
    if in_prev:
        return p - 1 - g - (0 if in_self else 1), g + (0 if in_self else 1)
    return g - (1 if in_self else 0), 0


def _reference_profile_data(tau, J):
    """The recipe computed index by index from gamma, with every check, as the reference."""
    p, f, fp = tau.p, tau.f, tau.fprime
    g = tau.gamma
    s, t = [], []
    for i in range(fp):
        s_i, t_i = _reference_case(p, g[i], ((i - 1) % fp) in J, i in J)
        s.append(s_i)
        t.append(t_i)
    for i in range(fp):
        assert -1 <= s[i] <= p - 1 and 0 <= t[i] <= p
        assert s[i] == s[(i + f) % fp]
    lift = (tau.eta_prime + collapse_exponents(t, p, fp)) % (p**fp - 1)
    if tau.kind == PRINCIPAL:
        theta_res = lift
    else:
        theta_res = factor_through_norm(lift, p, f)
        if theta_res is None:
            raise NormDescentError("Theta_J does not factor through the norm")
    theta = digit_tuple(theta_res, p, f)
    bad = frozenset(i for i in range(f) if s[i] == -1)
    return ProfileData(tau, J, tuple(s), tuple(t), theta, bad)


@pytest.mark.parametrize("p,f", [(2, 1), (2, 3), (3, 1), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_recipe_matches_reference_on_every_pair(p, f):
    n = 0
    for tau in enumerate_types(p, f):
        for J in enumerate_profiles(tau):
            pd = tametypes._profile_data(tau, J)
            assert pd == _reference_profile_data(tau, J), (tau, J)
            assert twist_chain(pd) == _reference_nu(pd), (tau, J)
            n += 1
    q = p**f
    assert n == ((q - 1) * (q - 2) + q * q - q) * 2**f


def test_recipe_bounds_fails_on_a_type_read_backwards(monkeypatch):
    """A mutant that passes the constructor's own check makes `recipe-bounds` FAIL.

    The mutant reads the ratio backwards: gamma holds the digits of eta'/eta
    and ell_prime holds ell.  The two still satisfy the exponent identity
    that `TameType._validate` evaluates with them, so every type builds;
    restated from eta and eta' by definition, the identity fails.
    """
    import io

    from bkshapes import verify
    from bkshapes.cli import main

    validate = TameType._validate

    def backwards(self):  # runs in the constructor, which the recipe rows read gamma from
        gamma = digit_tuple((self.eta_prime - self.eta) % self.estep, self.p, self.fprime)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "ell_prime", tuple(self.estep - lp for lp in self.ell_prime))
        validate(self)  # the constructor's own check accepts the mutant

    _clear_recipe_caches()
    monkeypatch.setattr(TameType, "_validate", backwards)
    monkeypatch.setattr(verify, "CHECKS", [("recipe-bounds", verify.check_recipe_bounds)])
    try:
        out = io.StringIO()
        code = main(["verify", "--p", "3", "--f", "2"], out=out)
    finally:
        monkeypatch.undo()
        _clear_recipe_caches()
    assert code == 1
    assert "FAIL recipe-bounds: exponent identity fails" in out.getvalue()
    assert "ERROR" not in out.getvalue()
