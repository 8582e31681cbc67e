import random

import pytest

from bkshapes.gf import field
from bkshapes.hodge import hodge_type_of_raw
from bkshapes.series import Mat2, Series
from bkshapes.phimod import (
    BKModule,
    GradingError,
    NoShapeError,
    _twist_moves,
    add_descent_data,
    ascend_from_base,
    change_eigenbasis,
    classify_shape,
    cuspidal_companion,
    descend_to_base,
    eigenbasis_matrices,
    module_from_eigenbasis,
    remove_descent_data,
    shape_words,
    strong_determinant_ok,
    twist_chain,
)
from bkshapes.randgen import (
    random_basis_change,
    random_component_module,
    random_module,
    random_noshape_matrix,
    random_shaped_matrix,
)
from bkshapes.series import PrecisionError
from bkshapes.tametypes import (
    CUSPIDAL,
    PRINCIPAL,
    enumerate_profiles,
    enumerate_types,
    make_type,
    profile_data,
    type_from_gamma,
)

F3 = field(3)
F9 = field(3, 2)


def _vmats(F, entries):
    return Mat2(*entries)


def test_descent_removal_roundtrip():
    tau = make_type(3, 2, PRINCIPAL, 5, 2)
    F = F9
    v = Series.monomial(F, "v", 1, 1)
    one = Series.one(F, "v")
    A = Mat2(v, one + v, v * (one + v), one)
    C = add_descent_data(tau, 0, A)
    # eigenbasis grading: off-diagonals carry the exponent classes
    assert C[0, 1].first_off_class(tau.ell_prime[0], tau.estep) is None
    assert C[1, 0].first_off_class(tau.estep - tau.ell_prime[0], tau.estep) is None
    assert C[0, 1].first_off_class(tau.ell_prime[0] + 1, tau.estep) is not None
    back = remove_descent_data(tau, 0, C)
    assert back == A


def test_cuspidal_companion_formula():
    F = F9
    one = Series.one(F, "v")
    v = Series.monomial(F, "v", 1, 1)
    a, b, c, d = one + v, v, one, one - v
    A = Mat2(a, b, v * c, d)
    comp = cuspidal_companion(A)
    assert comp == Mat2(d, c, v * b, a)


def test_cuspidal_module_linkage_consistent():
    tau = type_from_gamma(3, 1, CUSPIDAL, (1,))
    rng = random.Random(1)
    mod = random_component_module(rng, tau, {0}, F9, degree=3)
    # the module holds f matrices; the file form derives the companion through
    # the v-scale formula, and its u-scale linkage must then hold on the nose
    assert len(mod.mats) == tau.f
    C = eigenbasis_matrices(mod)
    assert len(C) == tau.fprime
    assert remove_descent_data(tau, 1, C[1]) == cuspidal_companion(mod.mats[0])
    assert C[1] == C[0].swapped(True, True)
    assert module_from_eigenbasis(tau, C).mats == mod.mats


def test_cuspidal_linkage_rejected():
    """A module holds no companions, so unlinked ones can only come from a module file."""
    tau = type_from_gamma(3, 1, CUSPIDAL, (1,))
    rng = random.Random(1)
    mod = random_component_module(rng, tau, {0}, F9, degree=3)
    with pytest.raises(ValueError, match=r"^need 1 matrices$"):
        BKModule(tau, [mod.mats[0], cuspidal_companion(mod.mats[0])])
    C = eigenbasis_matrices(mod)
    with pytest.raises(GradingError, match=r"^cuspidal linkage fails at index 0$"):
        module_from_eigenbasis(tau, [C[0], C[1].shifted(rows=(8, 8))])


def test_cuspidal_lower_left_unit_rejected():
    """BKModule is the one gate of the lower-left rule: a family, a stack, a change of basis."""
    tau = type_from_gamma(3, 1, CUSPIDAL, (1,))
    v, one, zero = Series.monomial(F9, "v", 1, 1), Series.one(F9, "v"), Series.zero(F9, "v")
    unit_ll = Mat2(one, zero, one, one)
    msg = r"^lower-left entry must be divisible in the v-scale$"
    with pytest.raises(GradingError, match=msg):
        BKModule(tau, [unit_ll])
    with pytest.raises(GradingError, match=msg):
        BKModule(tau, [Mat2.stack([Mat2(v, zero, v, one), unit_ll])])
    mod = BKModule(tau, [Mat2(v, zero, zero, one)])
    with pytest.raises(GradingError, match=msg):
        change_eigenbasis(mod, [unit_ll])
    BKModule(make_type(3, 1, PRINCIPAL, 1, 0), [Mat2(*(Series.one(F3, "v"),) * 4)])


def test_grading_rejected():
    tau = make_type(3, 2, PRINCIPAL, 5, 2)
    one_u = Series.one(F9, "u")
    bad = Mat2(one_u, one_u, one_u, one_u)  # off-diagonals in the wrong class
    with pytest.raises(GradingError):
        module_from_eigenbasis(tau, [bad, bad])


def test_grading_names_the_first_offending_exponent():
    tau = make_type(3, 2, PRINCIPAL, 5, 2)  # estep 8
    one_u, zero_u = Series.one(F9, "u"), Series.zero(F9, "u")
    a = Series(F9, "u", 0, [1, 0, 0, 2, 0, 1, 0, 0, 1])  # exponents 0, 3, 5, 8
    with pytest.raises(GradingError, match=r"entry \(0,0\) at 0 has exponent 3 outside"):
        module_from_eigenbasis(tau, [Mat2(a, zero_u, zero_u, one_u)] * 2)
    # on a stack, the least offending exponent of any member
    stack = Series.stack([Series(F9, "u", 0, [1] + [0] * 7 + [1]), a.shift(8)])
    assert stack.first_off_class(0, 8) == 11 and stack.first_off_class(3, 8) == 0


def test_strong_det_examples():
    tau = make_type(3, 1, PRINCIPAL, 1, 0)
    v = Series.monomial(F3, "v", 1, 1)
    one = Series.one(F3, "v")
    zero = Series.zero(F3, "v")
    assert strong_determinant_ok(BKModule(tau, [Mat2(v, zero, zero, one)]))
    assert not strong_determinant_ok(BKModule(tau, [Mat2(one, zero, zero, one)]))
    assert not strong_determinant_ok(BKModule(tau, [Mat2(v, zero, zero, v)]))


@pytest.mark.parametrize("kind", [PRINCIPAL, CUSPIDAL])
def test_strong_det_decides_through_precision_bounded_zeros(kind):
    """det [[v, O(v)], [O(v), 1]] = v + O(v**2) is v times a unit, though no entry is exact."""
    tau = next(t for t in enumerate_types(3, 1) if t.kind == kind)
    F = field(3, tau.fprime)
    v, one, fuzzy = Series.monomial(F, "v", 1, 1), Series.one(F, "v"), Series.zero(F, "v", prec=1)
    mod = BKModule(tau, [Mat2(v, fuzzy, fuzzy, one)])
    assert strong_determinant_ok(mod) is True
    assert shape_words(mod) == [("I_eta",) if kind == PRINCIPAL else ("I_eta", "I_eta'")]


def test_shape_examples():
    tau = make_type(3, 1, PRINCIPAL, 1, 0)
    v = Series.monomial(F3, "v", 1, 1)
    one = Series.one(F3, "v")
    zero = Series.zero(F3, "v")
    m = BKModule(tau, [Mat2(v, zero, zero, one)])
    assert shape_words(m) == [("I_eta",)]
    m2 = BKModule(tau, [Mat2(v, zero, zero, v)])
    shapes, profs = classify_shape(m2)
    assert shapes == ("II",) and sorted(map(sorted, profs)) == [[], [0]]
    m3 = BKModule(tau, [Mat2(one, zero, zero, one)])
    with pytest.raises(NoShapeError):
        classify_shape(m3)


def test_membership_counts_match_shape_word():
    rng = random.Random(3)
    tau = make_type(3, 2, PRINCIPAL, 5, 2)
    for _ in range(30):
        shapes = [rng.choice(["I_eta", "I_eta'", "II"]) for _ in range(2)]
        mod = random_module(rng, tau, F9, shapes, degree=5)
        got, profs = classify_shape(mod)
        assert got == tuple(shapes)
        free = sum(1 for s in shapes if s == "II")
        assert len(profs) == 2**free


def test_change_eigenbasis_identity_and_invariance():
    rng = random.Random(9)
    tau = make_type(3, 2, PRINCIPAL, 5, 2)
    mod = random_module(rng, tau, F9, ["I_eta", "II"], degree=4)
    one, zero = Series.one(F9, "v"), Series.zero(F9, "v")
    ident = [Mat2(one, zero, zero, one) for _ in range(2)]
    same = change_eigenbasis(mod, ident, terms=30)
    for i in range(2):
        assert same.mats[i] == mod.mats[i]
    for _ in range(25):
        I = [random_basis_change(rng, F9, 4) for _ in range(2)]
        moved = change_eigenbasis(mod, I, terms=40)
        assert classify_shape(moved)[0] == classify_shape(mod)[0]


def test_change_eigenbasis_rejects_nonunit():
    rng = random.Random(9)
    tau = make_type(3, 2, PRINCIPAL, 5, 2)
    mod = random_module(rng, tau, F9, ["I_eta", "II"], degree=4)
    v = Series.monomial(F9, "v", 1, 1)
    zero = Series.zero(F9, "v")
    with pytest.raises(ValueError):
        change_eigenbasis(mod, [Mat2(v, zero, zero, v)] * 2, terms=20)


def _ell_prime_m(tau, i):
    """The move of a change of eigenbasis as the descent data give it: (ell'_i - p*ell'_{i-1}) / estep."""
    m, rest = divmod(tau.ell_prime[i] - tau.p * tau.ell_prime[i - 1], tau.estep)
    assert rest == 0
    return m


def _wchain_twist_moves(tau, J, pd):
    """The twist moves through the monomial basis diag(u**w_i, u**(w_i + estep*j_i)) of the
    twist chain, w_i = ell'_i - k'_i + estep*(nu_i - 1), with n_i = (p*w_{i-1} - w_i) / estep;
    k'_i = eta' * p**i mod estep is the exponent of eta' at embedding i."""
    p, fp, ep = tau.p, tau.fprime, tau.estep
    nu = twist_chain(pd)
    w = [tau.ell_prime[i] - tau.eta_prime * p**i % ep + ep * (nu[i] - 1) for i in range(fp)]
    j = [int(i not in J) for i in range(fp)]
    out = []
    for i in range(tau.f):
        n, rest = divmod(p * w[i - 1] - w[i], ep)
        assert rest == 0
        out.append(((n, n - j[i]), (0, _ell_prime_m(tau, i) + p * j[i - 1])))
    return out


@pytest.mark.parametrize("p,f", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
                                 (5, 1), (5, 2), (7, 2), (11, 1)])
def test_closed_form_moves_match_the_descent_data_forms(p, f):
    """m_i = gamma_i + 1 - p and n_i = t_i - gamma_i - theta_i, on every (type, profile)."""
    pairs = 0
    for tau in enumerate_types(p, f):
        for i in range(tau.f):
            assert _ell_prime_m(tau, i) == tau.gamma[i] + 1 - p
        for J in enumerate_profiles(tau):
            pd = profile_data(tau, J)
            assert _twist_moves(tau, pd.J, pd) == _wchain_twist_moves(tau, pd.J, pd)
            pairs += 1
    assert pairs


@pytest.mark.parametrize("p,f", [(3, 1), (3, 2)])
def test_descend_all_pairs(p, f):
    rng = random.Random(17)
    for tau in enumerate_types(p, f):
        F = field(p, tau.fprime)
        for J in enumerate_profiles(tau):
            mod = random_component_module(rng, tau, J, F, degree=4)
            res = descend_to_base(mod, J)
            pd = profile_data(tau, J)
            assert res.exponents == [
                (1 - pd.theta[i], -pd.s[i] - pd.theta[i]) for i in range(f)
            ]
            back = ascend_from_base(res)
            for i in range(f):
                assert back.mats[i] == mod.mats[i]
            assert res.ok == [True] * f
            for B in res.units:
                det = B.det()
                assert det.val == 0


def test_descend_is_basis_independent():
    # the module stays on its component under a unit eigenbasis change, so
    # descent must still produce the same diagonal exponents
    rng = random.Random(23)
    tau = make_type(3, 2, PRINCIPAL, 5, 2)
    for J in enumerate_profiles(tau):
        mod = random_component_module(rng, tau, J, F9, degree=4)
        I = [random_basis_change(rng, F9, 4) for _ in range(2)]
        moved = change_eigenbasis(mod, I, terms=64)
        res1 = descend_to_base(mod, J)
        res2 = descend_to_base(moved, J)
        assert res1.exponents == res2.exponents
        assert res1.ok == res2.ok == [True, True]


def test_descent_off_the_component_is_a_verdict_not_a_raise():
    """A module descended along a profile whose component does not hold it raises nothing:
    its read exponents or its unit-part verdicts differ from the recipe's normal form."""
    rng = random.Random(29)
    tau = make_type(3, 2, PRINCIPAL, 5, 2)
    profiles = enumerate_profiles(tau)
    off = 0
    for J in profiles:
        mod = random_component_module(rng, tau, J, F9, degree=4)
        on = {K for K in profiles if K in classify_shape(mod)[1]}
        for K in profiles:
            res = descend_to_base(mod, K)
            normal = res.exponents == list(hodge_type_of_raw(tau, K)) and all(res.ok)
            assert normal == (K in on)
            off += K not in on
    assert off


def test_strong_det_inconclusive_at_low_precision():
    tau = make_type(3, 1, PRINCIPAL, 1, 0)
    one = Series.one(F3, "v")
    zero = Series.zero(F3, "v")
    fuzzy = Series(F3, "v", 0, [], prec=1)  # zero up to v^1; e' = 2
    mod = BKModule(tau, [Mat2(fuzzy, zero, zero, one)])
    with pytest.raises(PrecisionError):
        strong_determinant_ok(mod)
    # divisibility of the (0,0) entry is still decidable (constant term known
    # zero); with no known coefficient at all it is not
    blind = Series(F3, "v", 0, [], prec=0)
    mod2 = BKModule(tau, [Mat2(blind, zero, zero, one)])
    with pytest.raises(PrecisionError):
        classify_shape(mod2)


def test_descend_then_transport_pipeline():
    """Component module -> base normal form -> operator transport.

    The transported family is a normal-form witness for the flipped
    profile's type, tying the matrix engine to the combinatorial layer.
    """
    from bkshapes.hodge import apply_operator, hodge_equiv, hodge_type_of
    from bkshapes.phimod import apply_operator_on_basis

    rng = random.Random(77)
    p, f = 3, 2
    done = 0
    for tau in enumerate_types(p, f, kinds=(PRINCIPAL,)):
        F = field(p, tau.fprime)
        for J in enumerate_profiles(tau):
            pd = profile_data(tau, J)
            for j in sorted(pd.bad_set):
                mod = random_component_module(rng, tau, J, F, degree=4)
                res = descend_to_base(mod, J)
                r = tuple(tuple(e) for e in res.exponents)
                new, exps, ok = apply_operator_on_basis(res.mats, r, "nu", j, p, terms=48)
                assert ok
                img = apply_operator("nu", j, r, p)
                Jp = frozenset(J) ^ frozenset({j})
                assert hodge_equiv(img, hodge_type_of(tau, Jp), p)
                done += 1
        if done >= 20:
            break
    assert done >= 10


def _stacked_module(tau, per_trial):
    """The module of each trial's v-scale matrices, and the stack of all of them."""
    mods = [BKModule(tau, A) for A in per_trial]
    stacks = [Mat2.stack([A[i] for A in per_trial]) for i in range(tau.f)]
    return mods, BKModule(tau, stacks)


@pytest.mark.parametrize("kind", [PRINCIPAL, CUSPIDAL])
def test_stacked_shapes_and_determinants_match_each_member(kind):
    """shape_words, strong_determinant_ok and change_eigenbasis answer per member on a stack."""
    rng = random.Random(f"stacked-shapes-{kind}")
    tau = next(t for t in enumerate_types(3, 2) if t.kind == kind)
    F = field(3, tau.fprime)
    shaped = [[random_shaped_matrix(rng, F, rng.choice(["I_eta", "I_eta'", "II"]), 5)
               for _ in range(2)] for _ in range(8)]
    # shapeless at index 0, at index 1, at both, or nowhere
    shapeless = [{0}, {1}, {0, 1}, set()]
    mixed = [[random_noshape_matrix(rng, F, 5) if i in shapeless[t % 4] else A[i] for i in range(2)]
             for t, A in enumerate(shaped)]
    for per_trial in (shaped, mixed):
        mods, stack = _stacked_module(tau, per_trial)
        assert list(strong_determinant_ok(stack)) == [strong_determinant_ok(m) for m in mods]
        for mod, word in zip(mods, shape_words(stack, partial=True)):
            try:
                assert word == classify_shape(mod)[0]
            except NoShapeError as exc:  # None from the index the lone module names
                first = word.index(None)
                assert str(exc) == f"no diagonal divisibility at index {first}"
                assert set(word[first:]) == {None}
    with pytest.raises(NoShapeError, match="index 0"):
        shape_words(_stacked_module(tau, mixed)[1])
    mods, stack = _stacked_module(tau, shaped)
    I = [[random_basis_change(rng, F, 4) for _ in range(2)] for _ in shaped]
    moved = change_eigenbasis(stack, [Mat2.stack([B[i] for B in I]) for i in range(2)], terms=30)
    for t, mod in enumerate(mods):
        alone = change_eigenbasis(mod, I[t], terms=30)
        for A, B in zip(moved.mats, alone.mats):
            assert A.member(t) == B
    assert shape_words(moved) == shape_words(stack) == [classify_shape(m)[0] for m in mods]


@pytest.mark.parametrize("p,f", [(3, 1), (3, 2)])
@pytest.mark.parametrize("kind", [PRINCIPAL, CUSPIDAL])
def test_classify_shape_on_a_stack_answers_per_member(p, f, kind):
    """One (shapes, profiles) per member, as the lone calls give them; words repeat in the stack."""
    rng = random.Random(f"classify-stack-{p}-{f}-{kind}")
    tau = next(t for t in enumerate_types(p, f) if t.kind == kind)
    F = field(p, tau.fprime)
    shapes = [[rng.choice(["I_eta", "I_eta'", "II"]) for _ in range(f)] for _ in range(6)]
    per_trial = [[random_shaped_matrix(rng, F, s, 4) for s in word] for word in shapes * 2]
    mods, stack = _stacked_module(tau, per_trial)
    assert classify_shape(stack) == [classify_shape(m) for m in mods]
    assert isinstance(classify_shape(mods[0]), tuple)
    shapeless = [per_trial[0], [random_noshape_matrix(rng, F, 4) for _ in range(f)]]
    with pytest.raises(NoShapeError):
        classify_shape(_stacked_module(tau, shapeless)[1])


def test_stacked_unit_determinant_test_names_the_index():
    """One non-unit change of basis in a stack fails the stack with the lone member's message."""
    rng = random.Random(5)
    tau = make_type(3, 2, PRINCIPAL, 5, 2)
    per_trial = [[random_shaped_matrix(rng, F9, "II", 4) for _ in range(2)] for _ in range(3)]
    mods, stack = _stacked_module(tau, per_trial)
    v, zero = Series.monomial(F9, "v", 1, 1), Series.zero(F9, "v")
    I = [[random_basis_change(rng, F9, 4) for _ in range(2)] for _ in range(3)]
    I[1][1] = Mat2(v, zero, zero, v)
    with pytest.raises(ValueError) as alone:
        change_eigenbasis(mods[1], I[1], terms=20)
    with pytest.raises(ValueError) as stacked:
        change_eigenbasis(stack, [Mat2.stack([B[i] for B in I]) for i in range(2)], terms=20)
    assert str(stacked.value) == str(alone.value)
    assert str(alone.value) == "change of basis at 1 must have unit determinant"
