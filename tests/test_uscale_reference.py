"""The v-scale module engine against the u-scale path it replaced.

A `BKModule` once held the eigenbasis matrices C_i over the u-scale series
(u**estep = v), checked their grading on construction, and decided shapes,
the strong determinant condition, changes of eigenbasis and descent on
them, converting to the descent-removed v-scale form at every step.  That
path is kept here as the reference.  The engine must give its verdicts,
shape words, exception texts, descent results and matrices (with the
descent data added back), on single modules and on stacks, principal and
cuspidal, at (3,1), (3,2), (3,3), (5,2) and (7,2).  A transported entry
must be known at least as far as the reference knew it.

A cuspidal module of the engine holds its f matrices only.  The reference
still computes all f' of them, and checks the linkage of indices i and
i+f, the shape symmetry and the invariance of the descended family on
its own, so the companions the engine derives are held to the matrices
the reference computed.
"""

import random
from dataclasses import dataclass

import numpy as np
import pytest

from bkshapes.charexp import digit_tuple, solve_twist_chain
from bkshapes.extensions import ExceptionalPairError, ExtensionPoint, build_extension
from bkshapes.gf import field
from bkshapes.hodge import hodge_type_of_raw
from bkshapes.phimod import (
    BKModule,
    DescentResult,
    GradingError,
    NoShapeError,
    ascend_from_base,
    change_eigenbasis,
    classify_shape,
    cuspidal_companion,
    descend_to_base,
    eigenbasis_matrices,
    module_from_eigenbasis,
    read_unit_part,
    reorder_by_profile,
    shape_words,
    strong_determinant_ok,
)
from bkshapes.randgen import (
    random_basis_change,
    random_component_module,
    random_noshape_matrix,
    random_shaped_matrix,
)
from bkshapes.series import Mat2, PrecisionError, Series
from bkshapes.tametypes import (
    CUSPIDAL,
    PRINCIPAL,
    check_profile,
    enumerate_profiles,
    enumerate_types,
    profile_data,
    profile_mask,
)
from test_extensions import extension_exponents  # the u-scale rungs, kept with the u-scale solver

# -- the u-scale reference -------------------------------------------------------


def _check_residue(s, residue, estep, what):
    e = s.first_off_class(residue, estep)
    if e is not None:
        raise GradingError(f"{what} has exponent {e} outside its grading class")


def add_descent_data(tau, i, A):
    lp = tau.ell_prime[i]
    return A.map(lambda s: s.to_u(tau.estep)).shifted(rows=(0, -lp), cols=(0, lp))


def remove_descent_data(tau, i, C):
    lp = tau.ell_prime[i]
    return C.shifted(rows=(0, lp), cols=(0, -lp)).map(lambda s: s.to_v(tau.estep))


def _companion(A):
    vc = A[1, 0]
    if not vc.is_zero() and vc.val < 1:
        raise GradingError("lower-left entry must be divisible in the v-scale")
    return A.swapped(True, True).shifted(rows=(0, 1), cols=(0, -1))


def _with_companions(tau, A_list):
    if len(A_list) != tau.f:
        raise ValueError(f"need {tau.f} matrices")
    full = list(A_list)
    if tau.kind == CUSPIDAL:
        full += [_companion(A) for A in A_list]
    return full


@dataclass
class UModule:
    """The eigenbasis presentation: f' u-scale matrices, graded and linked on construction."""

    tau: object
    mats: list

    def __post_init__(self):
        tau = self.tau
        if len(self.mats) != tau.fprime:
            raise ValueError(f"need {tau.fprime} matrices")
        ep = tau.estep
        for i, M in enumerate(self.mats):
            for s in M.e:
                if s.scale != "u":
                    raise ValueError("eigenbasis matrices live in the u-scale")
            _check_residue(M[0, 0], 0, ep, f"entry (0,0) at {i}")
            _check_residue(M[1, 1], 0, ep, f"entry (1,1) at {i}")
            _check_residue(M[0, 1], tau.ell_prime[i], ep, f"entry (0,1) at {i}")
            _check_residue(M[1, 0], ep - tau.ell_prime[i], ep, f"entry (1,0) at {i}")
        if tau.kind == CUSPIDAL:
            f = tau.f
            for i in range(f):
                if not self.mats[i + f] == self.mats[i].swapped(True, True):
                    raise GradingError(f"cuspidal linkage fails at index {i}")


def u_module(tau, A_list):
    full = _with_companions(tau, A_list)
    return UModule(tau, [add_descent_data(tau, i, A) for i, A in enumerate(full)])


_SHAPE_OF = {(True, True): "II", (True, False): "I_eta", (False, True): "I_eta'"}
_SWAPPED = {"I_eta": "I_eta'", "I_eta'": "I_eta", "II": "II"}


def _divisible(s, what, live):
    if s.prec is not None and s.prec <= 0 and np.any(~s.coeffs.any(axis=-1) & live):
        raise PrecisionError(f"{what}: cannot decide divisibility at this precision")
    return ~s.coeffs[..., : max(0, 1 - s.val)].any(axis=-1)


def u_shape_words(mod, partial=False):
    tau = mod.tau
    live, columns = True, []
    for i in range(tau.fprime):
        A = remove_descent_data(tau, i, mod.mats[i])
        va = _divisible(A[0, 0], f"entry a at {i}", live)
        vd = _divisible(A[1, 1], f"entry d at {i}", live)
        live = live & (va | vd)
        if not (partial or np.all(live)):
            raise NoShapeError(f"no diagonal divisibility at index {i}")
        columns.append([_SHAPE_OF[a, d] if ok else None
                        for a, d, ok in zip(np.ravel(va), np.ravel(vd), np.ravel(live))])
    words = list(zip(*columns))
    f = tau.f
    if tau.kind == CUSPIDAL and any(
        None not in w and any(w[i + f] != _SWAPPED[w[i]] for i in range(f)) for w in words
    ):
        raise AssertionError("cuspidal shape symmetry violated")
    return words


def u_strong_determinant_ok(mod):
    ep = mod.tau.estep
    ok = True
    for i, M in enumerate(mod.mats):
        det = M.det()
        if det.prec is not None and det.prec <= ep and np.any(~det.coeffs.any(axis=-1) & ok):
            raise PrecisionError(f"determinant at {i} undecidable at this precision")
        ok = ok & det.has_val(ep)
    return ok


def u_change_eigenbasis(mod, I_list, terms=None):
    tau = mod.tau
    fp = tau.fprime
    full = _with_companions(tau, I_list)
    for i, I in enumerate(full):
        if not np.all(I.has_unit_det()):
            raise ValueError(f"change of basis at {i} must have unit determinant")
    U = [add_descent_data(tau, i, I) for i, I in enumerate(full)]
    new = []
    for i in range(fp):
        Uinv = U[i].inverse(terms)
        new.append(Uinv * mod.mats[i] * U[(i - 1) % fp].frobenius())
    return UModule(tau, new)


def _k(tau, i):
    """Exponent of eta at embedding i."""
    return tau.eta * tau.p**i % tau.estep


def _k_prime(tau, i):
    """Exponent of eta' at embedding i."""
    return tau.eta_prime * tau.p**i % tau.estep


def _twist_chain(tau, J, pd):
    """nu with p*nu_{i-1} - nu_i = mu_i + t_i - theta_i; a cuspidal matching exponent must vanish."""
    p, f, fp, ep = tau.p, tau.f, tau.fprime, tau.estep
    mu = digit_tuple(tau.eta_prime, p, fp)
    theta = pd.theta * (fp // f)
    nu = solve_twist_chain([mu[i] + pd.t[i] - theta[i] for i in range(fp)], p, fp)
    if tau.kind == CUSPIDAL:
        for i in range(f):
            num = tau.ell_prime[i] + _k(tau, i) - _k_prime(tau, i)
            assert num % ep == 0
            if num // ep + nu[i] - nu[i + f] - (1 if i in J else 0) != 0:
                raise AssertionError(f"cuspidal matching exponent nonzero at {i}")
    return nu


def _twist_exponents(tau, J, nu):
    ep = tau.estep
    out = []
    for i in range(tau.fprime):
        base = -_k_prime(tau, i) + ep * (nu[i] - 1)
        out.append((tau.ell_prime[i] + base, ep * (0 if i in J else 1) + base))
    return out


def u_descend_to_base(mod, J):
    tau = mod.tau
    J = check_profile(tau, J)
    pd = profile_data(tau, J)
    p, f, fp, ep = tau.p, tau.f, tau.fprime, tau.estep
    nu = _twist_chain(tau, J, pd)
    texp = _twist_exponents(tau, J, nu)
    G = [
        mod.mats[i].shifted(rows=[-e for e in texp[i]], cols=[p * e for e in texp[(i - 1) % fp]])
        for i in range(fp)
    ]
    if tau.kind == CUSPIDAL:  # G_{i+f} is G_i swapped: the invariance the engine relies on
        for i in range(f):
            if not G[i + f] == G[i].swapped(True, True):
                raise AssertionError("cuspidal invariance of the descended family fails")
    mats = []
    for i in range(f):
        M = G[i].swapped(False, tau.kind == CUSPIDAL and i == 0)
        M = reorder_by_profile(M, J, i, f)
        mats.append(M.map(lambda s: s.to_v(ep)))
    exponents = list(hodge_type_of_raw(tau, J))
    _, units, ok = zip(*map(read_unit_part, mats, exponents))  # read against the recipe's exponents
    return DescentResult(tau, J, mats, list(units), exponents, nu, list(ok))


def u_ascend_from_base(res):
    tau = res.tau
    p, f, fp, ep = tau.p, tau.f, tau.fprime, tau.estep
    G = []
    for i in range(f):
        M = reorder_by_profile(res.mats[i].map(lambda s: s.to_u(ep)), res.J, i, f)
        G.append(M.swapped(False, tau.kind == CUSPIDAL and i == 0))
    if tau.kind == CUSPIDAL:
        G += [M.swapped(True, True) for M in G]
    texp = _twist_exponents(tau, res.J, _twist_chain(tau, res.J, profile_data(tau, res.J)))
    mats = [
        G[i].shifted(rows=texp[i], cols=[-p * e for e in texp[(i - 1) % fp]]) for i in range(fp)
    ]
    return UModule(tau, mats)


def u_build_extension(x):
    tau, F = x.tau, x.field
    fp = tau.fprime
    data = extension_exponents(tau, x.J)
    mats = []
    for i in range(fp):
        ai, bi = x.twist_at(i)
        rung = data[i]
        top = Series.monomial(F, "u", ai, rung.r)
        mid = Series.monomial(F, "u", x.h_at(i), rung.delta) if x.h_at(i) else Series.zero(F, "u")
        bot = Series.monomial(F, "u", bi, rung.s)
        mats.append(reorder_by_profile(Mat2(top, Series.zero(F, "u"), mid, bot), x.J, i, fp))
    return UModule(tau, mats)


# -- comparisons -------------------------------------------------------------------

CASES = [(3, 1), (3, 2), (3, 3), (5, 2), (7, 2)]
KINDS = [PRINCIPAL, CUSPIDAL]


def _setup(p, f, kind):
    """The first type of the kind, its field, and a sampler degree that keeps u-scale series short."""
    tau = next(t for t in enumerate_types(p, f) if t.kind == kind)
    return tau, field(p, tau.fprime), 3 if tau.estep <= 100 else 0


def _exact(M):
    """Everything a matrix holds: per entry its scale, val, prec and coefficients."""
    return [(s.scale, s.val, s.prec, s.coeffs.tolist()) for s in M.e]


def _outcome(fn, *args):
    """fn's result, or the type and text of the exception it raised."""
    try:
        got = fn(*args)
    except (PrecisionError, NoShapeError, GradingError, ValueError, AssertionError) as exc:
        return type(exc), str(exc)
    return np.asarray(got).tolist() if isinstance(got, (bool, np.bool_, np.ndarray)) else got


def _all_indices(vmod):
    """The engine module's f' matrices: its f, then for a cuspidal type their derived companions."""
    return vmod.mats + [cuspidal_companion(A) for A in vmod.mats if vmod.tau.kind == CUSPIDAL]


def assert_same_module(vmod, umod, exact=True):
    """vmod is umod with the descent data removed; with `exact` held to the same precision.

    Otherwise every entry agrees on the exponents both know, and vmod knows
    at least as far.  vmod holds f matrices; a cuspidal one's derived
    companions are compared with the reference's matrices at i+f.
    """
    tau = vmod.tau
    assert vmod.tau == umod.tau and (len(vmod.mats), len(umod.mats)) == (tau.f, tau.fprime)
    for i, (A, C) in enumerate(zip(_all_indices(vmod), umod.mats)):
        ref = remove_descent_data(tau, i, C)
        if exact:
            assert _exact(A) == _exact(ref), i
            assert _exact(eigenbasis_matrices(vmod)[i]) == _exact(C), i
            continue
        for a, r in zip(A.e, ref.e):
            assert a.agrees_with(r), i
            assert a.prec is None if r.prec is None else a.prec is None or a.prec >= r.prec, i


def _knows_more(vmod, umod):
    """Whether some determinant or diagonal entry of vmod is known further than umod's."""
    ep = vmod.tau.estep

    def reach(s, step=1):  # the v-exponents known
        return np.inf if s.prec is None else -(-s.prec // step)

    for i, (A, C) in enumerate(zip(_all_indices(vmod), umod.mats)):
        ref = remove_descent_data(vmod.tau, i, C)
        if reach(A.det()) > reach(C.det(), ep) or any(reach(A[k, k]) > reach(ref[k, k]) for k in (0, 1)):
            return True
    return False


def assert_same_verdicts(vmod, umod):
    """The engine's outcomes are the reference's, but where only the reference cannot decide.

    A PrecisionError of the engine must be the reference's, text and all.
    The reference may raise one where the engine decides, but only when the
    engine knows a determinant or diagonal entry further: the descent data
    move an exactly-zero entry's precision but not its val (which is 0), so
    the u-scale bounds of some products fall below the v-scale ones.
    """
    outcomes = [(_outcome(strong_determinant_ok, vmod), _outcome(u_strong_determinant_ok, umod))]
    outcomes += [(_outcome(shape_words, vmod, partial), _outcome(u_shape_words, umod, partial))
                 for partial in (False, True)]
    for got, want in outcomes:
        if got != want:
            assert isinstance(want, tuple) and want[0] is PrecisionError, (got, want)
            assert _knows_more(vmod, umod), (got, want)
    return [got for got, _ in outcomes]


def _draw_trials(rng, tau, F, deg, n):
    """n trials of f matrices each: shaped, or with a shapeless matrix at some indices."""
    trials = []
    for t in range(n):
        A = [random_shaped_matrix(rng, F, rng.choice(["I_eta", "I_eta'", "II"]), deg)
             for _ in range(tau.f)]
        if t % 3 == 1:
            A[rng.randrange(tau.f)] = random_noshape_matrix(rng, F, deg)
        trials.append(A)
    return trials


def _stacked(tau, trials):
    return [Mat2.stack([A[i] for A in trials]) for i in range(tau.f)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p,f", CASES)
def test_modules_and_verdicts_match_the_reference(p, f, kind):
    tau, F, deg = _setup(p, f, kind)
    rng = random.Random(f"verdicts-{p}-{f}-{kind}")
    trials = _draw_trials(rng, tau, F, deg, 6)
    for A_list in trials + [_stacked(tau, trials)]:
        vmod, umod = BKModule(tau, A_list), u_module(tau, A_list)
        assert_same_module(vmod, umod)
        assert module_from_eigenbasis(tau, umod.mats).mats == vmod.mats
        assert_same_verdicts(vmod, umod)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p,f", CASES)
def test_precision_errors_match_the_reference(p, f, kind):
    """Entries known only to a few terms: the same PrecisionError texts, or the same verdicts."""
    tau, F, deg = _setup(p, f, kind)
    rng = random.Random(f"precision-{p}-{f}-{kind}")
    seen = set()
    for A_list in _draw_trials(rng, tau, F, deg, 24):
        cut = []
        for A in A_list:
            entries = list(A.e)
            for k in rng.sample(range(4), rng.randrange(1, 3)):
                s = entries[k]
                entries[k] = Series(F, "v", s.val, s.coeffs, rng.randrange(0, 3))
            cut.append(Mat2(*entries))
        try:
            vmod, umod = BKModule(tau, cut), u_module(tau, cut)
        except GradingError as exc:  # a lower-left entry of val 0 has no companion
            with pytest.raises(GradingError, match=str(exc)):
                u_module(tau, cut)
            continue
        assert_same_module(vmod, umod)
        seen.update(o[0] for o in assert_same_verdicts(vmod, umod) if isinstance(o, tuple))
    assert PrecisionError in seen


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p,f", CASES)
def test_change_eigenbasis_matches_the_reference(p, f, kind):
    tau, F, deg = _setup(p, f, kind)
    ep = tau.estep
    rng = random.Random(f"eigenbasis-{p}-{f}-{kind}")
    trials = _draw_trials(rng, tau, F, deg, 3)
    I = [[random_basis_change(rng, F, deg) for _ in range(f)] for _ in trials]
    cases = list(zip(trials, I)) + [(_stacked(tau, trials), _stacked(tau, I))]
    for A_list, I_list in cases:
        vmod, umod = BKModule(tau, A_list), u_module(tau, A_list)
        # the same precision: 2 v-coefficients are estep + 1 u-coefficients
        moved = change_eigenbasis(vmod, I_list, terms=2)
        umoved = u_change_eigenbasis(umod, I_list, terms=ep + 1)
        assert_same_module(moved, umoved)
        assert_same_verdicts(moved, umoved)
        if ep <= 100:  # the same terms, as `verify` passes them: v-coefficients reach further
            moved = change_eigenbasis(vmod, I_list, terms=40)
            umoved = u_change_eigenbasis(umod, I_list, terms=40)
            assert_same_module(moved, umoved, exact=False)
            assert_same_verdicts(moved, umoved)
    v, zero = Series.monomial(F, "v", 1, 1), Series.zero(F, "v")
    nonunit = I[0][:-1] + [Mat2(v, zero, zero, v)]
    vmod, umod = BKModule(tau, trials[0]), u_module(tau, trials[0])
    want = (ValueError, f"change of basis at {f - 1} must have unit determinant")
    assert _outcome(change_eigenbasis, vmod, nonunit, 2) == _outcome(u_change_eigenbasis, umod, nonunit, 2) == want


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p,f", CASES)
def test_descent_matches_the_reference(p, f, kind):
    """Equal DescentResults, before and after a change of eigenbasis, and exact round trips."""
    tau, F, deg = _setup(p, f, kind)
    ep = tau.estep
    rng = random.Random(f"descent-{p}-{f}-{kind}")
    profiles = enumerate_profiles(tau)
    for J in rng.sample(profiles, min(3, len(profiles))):
        vmod = random_component_module(rng, tau, J, F, degree=deg)
        umod = u_module(tau, vmod.mats[: tau.f])
        assert_same_module(vmod, umod)
        I = [random_basis_change(rng, F, deg) for _ in range(f)]
        moved = change_eigenbasis(vmod, I, terms=2)
        umoved = u_change_eigenbasis(umod, I, terms=ep + 1)
        for m, u in ((vmod, umod), (moved, umoved)):
            res, ref = descend_to_base(m, J), u_descend_to_base(u, J)
            assert (res.tau, res.J, res.exponents, res.nu) == (ref.tau, ref.J, ref.exponents, ref.nu)
            assert res.ok == ref.ok == [True] * f
            assert [_exact(M) for M in res.mats + res.units] == [_exact(M) for M in ref.mats + ref.units]
            back = ascend_from_base(res)
            assert [_exact(M) for M in back.mats] == [_exact(M) for M in m.mats]
            assert_same_module(back, u_ascend_from_base(ref))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p,f", CASES)
def test_build_extension_matches_the_reference(p, f, kind):
    tau, F, _ = _setup(p, f, kind)
    rng = random.Random(f"extension-{p}-{f}-{kind}")
    built = 0
    for J in enumerate_profiles(tau)[:4]:
        for h in ((0,) * f, (1,) * f, tuple(rng.randrange(F.q) for _ in range(f))):
            try:
                x = ExtensionPoint(tau, J, F, 1, 2 % F.q, h)
            except ExceptionalPairError:
                continue
            vmod, umod = build_extension(x), u_build_extension(x)
            assert_same_module(vmod, umod)
            assert_same_verdicts(vmod, umod)
            built += 1
    assert built


@pytest.mark.parametrize("p,f", CASES)
def test_cuspidal_symmetry_failure_matches_the_reference(p, f):
    """A cuspidal file whose index i+f is not the companion of i breaks the reference's shape
    symmetry, and is refused where it is read, as the reference refuses it."""
    tau, F, deg = _setup(p, f, CUSPIDAL)
    rng = random.Random(f"symmetry-{p}-{f}")
    A = [random_shaped_matrix(rng, F, "I_eta", deg) for _ in range(f)]
    umod = object.__new__(UModule)
    umod.tau = tau
    # shape I_eta at i + f, where the companion has I_eta'
    umod.mats = [add_descent_data(tau, i, M) for i, M in enumerate(A + A)]
    assert _outcome(u_shape_words, umod) == (AssertionError, "cuspidal shape symmetry violated")
    with pytest.raises(GradingError, match="^cuspidal linkage fails at index 0$"):
        UModule(tau, umod.mats)
    with pytest.raises(GradingError, match="^cuspidal linkage fails at index 0$"):
        module_from_eigenbasis(tau, umod.mats)


def test_classify_shape_matches_the_reference_profiles():
    tau, F, deg = _setup(3, 2, PRINCIPAL)
    rng = random.Random("classify")
    for A_list in _draw_trials(rng, tau, F, deg, 12):
        vmod, umod = BKModule(tau, A_list), u_module(tau, A_list)
        try:
            shapes, profiles = classify_shape(vmod)
        except NoShapeError:
            continue
        (want,) = u_shape_words(umod)
        assert shapes == want
        assert profiles == sorted(
            (J for J in enumerate_profiles(tau)
             if all(s in (("I_eta", "II") if i in J else ("I_eta'", "II")) for i, s in enumerate(want))),
            key=lambda J: profile_mask(tau, J),
        )
