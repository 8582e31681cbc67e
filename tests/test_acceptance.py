"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every tolerance is exact (integer or finite-field equality); the runtime
budgets are asserted with wall clocks.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import io
import itertools
import random
import time

import pytest

from bkshapes.charexp import NormDescentError
from bkshapes.cli import main as cli_main
from bkshapes.extensions import (
    ExceptionalPairError,
    ExtensionPoint,
    build_extension,
    kext_dimension,
    kext_structure,
)
from bkshapes.gf import field
from bkshapes.hodge import (
    ForcedChoiceError,
    apply_operator,
    as_hodge,
    find_type_profile,
    hodge_equiv,
    hodge_type_of,
    irregular_ratio_never_cyclotomic,
    irregular_set,
)
from bkshapes.intervals import extended, shapeshift_targets
from bkshapes.phimod import (
    BKModule,
    NoShapeError,
    apply_operator_on_basis,
    ascend_from_base,
    change_eigenbasis,
    classify_shape,
    descend_to_base,
    strong_determinant_ok,
    twist_chain,
)
from bkshapes.randgen import (
    random_basis_change,
    random_component_module,
    random_module,
    random_noshape_matrix,
    random_unit_matrix,
)
from bkshapes.tametypes import (
    CUSPIDAL,
    PRINCIPAL,
    enumerate_profiles,
    enumerate_types,
    is_transition,
    profile_data,
    serre_weight,
)

N = 64  # truncation used wherever a series inverse is taken

RECIPE_SCALES = [(3, 1), (3, 2), (5, 1), (5, 2), (3, 3)]


def report(num, label, started, budget=None):
    elapsed = time.time() - started
    line = f"ACCEPTANCE {num:2d} PASS {label} ({elapsed:.1f}s)"
    print(line)
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_01_recipe_bounds():
    t0 = time.time()
    pairs = 0
    for p, f in RECIPE_SCALES:
        for tau in enumerate_types(p, f):
            g = tau.gamma
            for i in range(tau.fprime):
                assert p * tau.ell_prime[i - 1] - tau.ell_prime[i] == tau.estep * (
                    p - 1 - g[i]
                )
            if tau.kind == CUSPIDAL:
                assert all(g[i] + g[i + f] == p - 1 for i in range(f))
            for J in enumerate_profiles(tau):
                try:
                    pd = profile_data(tau, J)
                except NormDescentError:
                    raise AssertionError("norm descent absent in the recipe")
                assert all(-1 <= x <= p - 1 for x in pd.s)
                assert all(0 <= x <= p for x in pd.t)
                assert all(
                    pd.s[i] == pd.s[(i + f) % tau.fprime] for i in range(tau.fprime)
                )
                pairs += 1
    report(1, f"recipe bounds over {pairs} (type, profile) pairs", t0, budget=60)


def test_criterion_02_existence_roundtrip():
    t0 = time.time()
    p = 3
    total = forced = 0
    for f in (1, 2, 3):
        for gaps in itertools.product(range(p + 1), repeat=f):
            if all(g == p for g in gaps):
                continue
            r = as_hodge(tuple((g, 0) for g in gaps))
            tau, J = find_type_profile(r, p)
            assert hodge_equiv(r, hodge_type_of(tau, J), p)
            total += 1
            for j in range(f):
                if not 1 <= gaps[j] <= p - 1:
                    continue
                for pref in ("transition", "non-transition"):
                    expected_fail = (
                        f == 1 and gaps[j] == 1 and pref == "non-transition"
                    ) or (
                        f >= 2
                        and pref == "transition"
                        and gaps[j] == p - 1
                        and gaps[(j + 1) % f] == 0
                        and all(
                            gaps[i] == p for i in range(f) if i not in (j, (j + 1) % f)
                        )
                    )
                    try:
                        tau, J = find_type_profile(r, p, {j: pref})
                        assert not expected_fail, (gaps, j, pref)
                        assert hodge_equiv(r, hodge_type_of(tau, J), p)
                        assert is_transition(J, j, tau.fprime) == (pref == "transition")
                    except ForcedChoiceError:
                        assert expected_fail, (gaps, j, pref)
                        forced += 1
    report(2, f"roundtrip on {total} canonical types, {forced} forced patterns", t0, budget=120)


def test_criterion_03_convention_coherence():
    t0 = time.time()
    n = 0
    for p, f in RECIPE_SCALES:
        for tau in enumerate_types(p, f):
            for J in enumerate_profiles(tau):
                pd = profile_data(tau, J)
                if not pd.in_P_tau:
                    continue
                w = serre_weight(tau, J)
                assert hodge_equiv(
                    as_hodge(w.hodge_pairs()), hodge_type_of(tau, J), p
                ), (tau.key(), sorted(J))
                n += 1
    report(3, f"weight/type coherence on {n} good profiles", t0)


def test_criterion_04_cyclotomic_exclusion():
    t0 = time.time()
    for p in (3, 5, 7):
        for f in (1, 2, 3, 4):
            assert irregular_ratio_never_cyclotomic(p, f)
    report(4, "no irregular ratio is cyclotomic for p in {3,5,7}, f <= 4", t0, budget=60)


@pytest.mark.parametrize("p,f", [(3, 1), (3, 2)])
def test_criterion_05_shape_engine(p, f):
    t0 = time.time()
    rng = random.Random(20240 + f)
    tau = enumerate_types(p, f, kinds=(PRINCIPAL,))[0]
    F = field(p, tau.fprime)
    shapes_menu = ("I_eta", "I_eta'", "II")
    for trial in range(200):
        word = [rng.choice(shapes_menu) for _ in range(f)]
        mod = random_module(rng, tau, F, word, degree=8)
        # passing the determinant condition forces a shape everywhere
        assert strong_determinant_ok(mod)
        got, profiles = classify_shape(mod)
        assert got == tuple(word)
        # membership matches the component description
        J = frozenset(i for i in range(f) if word[i] == "I_eta")
        assert any(frozenset(P) >= J for P in profiles)
        comp = random_component_module(rng, tau, frozenset(J), F, degree=6)
        assert frozenset(J) in classify_shape(comp)[1]
        # a module with no shape must fail the determinant condition
        bad = BKModule(
            tau, [random_noshape_matrix(rng, F, 6) for _ in range(f)]
        )
        assert not strong_determinant_ok(bad)
        with pytest.raises(NoShapeError):
            classify_shape(bad)
        # shape invariance under a random unit eigenbasis change
        I = [random_basis_change(rng, F, 5) for _ in range(f)]
        assert classify_shape(change_eigenbasis(mod, I, terms=N))[0] == got
    report(5, f"shape engine at (p,f)=({p},{f}), 200 randomized modules", t0)


def test_criterion_06_descent_normal_form():
    t0 = time.time()
    rng = random.Random(606)
    runs = 0
    for f in (1, 2):
        for tau in enumerate_types(3, f):
            F = field(3, tau.fprime)
            for J in enumerate_profiles(tau):
                pd = profile_data(tau, J)
                twist_chain(pd)  # asserts that a cuspidal matching exponent vanishes
                mod = random_component_module(rng, tau, J, F, degree=6)
                res = descend_to_base(mod, J)
                assert res.exponents == [
                    (1 - pd.theta[i], -pd.s[i] - pd.theta[i]) for i in range(f)
                ]
                assert res.ok == [True] * f
                for B in res.units:
                    assert B.det().val == 0
                back = ascend_from_base(res)
                for i in range(f):
                    assert back.mats[i] == mod.mats[i]
                runs += 1
    report(6, f"descent normal form on {runs} (type, profile) pairs", t0)


def test_criterion_07_operator_lifts():
    t0 = time.time()
    p, f = 3, 2
    F = field(p, f)
    rng = random.Random(707)
    lifts = 0
    for gaps in itertools.product(range(p + 1), repeat=f):
        r = as_hodge(tuple((g, 0) for g in gaps))
        for j in irregular_set(r):
            for kind in ("theta", "mu", "nu"):
                if kind == "theta" and gaps[(j - 1) % f] == p:
                    continue
                target = apply_operator(kind, j, r, p)
                for _ in range(50):
                    B = [random_unit_matrix(rng, F, 5) for _ in range(f)]
                    mats = [B[i].shifted(cols=r[i]) for i in range(f)]
                    _, exps, ok = apply_operator_on_basis(mats, r, kind, j, p, terms=N)
                    assert ok
                    assert (
                        tuple(tuple(sorted(e, reverse=True)) for e in exps) == target
                    )
                    lifts += 1
    report(7, f"operator lifts: {lifts} randomized normal-form transports", t0)


def test_criterion_08_kext_oracle():
    t0 = time.time()
    p, f = 3, 2
    F_ps = field(p, 2)
    F_c = field(p, 4)
    checked = structured = 0
    # principal series: every ordered pair of distinct twists
    for tau in enumerate_types(p, f, kinds=(PRINCIPAL,)):
        for J in enumerate_profiles(tau):
            pd = profile_data(tau, J)
            for a in range(1, F_ps.q):
                for b in range(1, F_ps.q):
                    if a == b:
                        continue
                    try:
                        d = kext_dimension(tau, J, a, b, F_ps)
                    except ExceptionalPairError:  # pragma: no cover
                        continue
                    assert d == len(pd.bad_set), (tau.key(), sorted(J), a, b)
                    checked += 1
    # cuspidal: a deterministic sample of twist pairs including b = -a
    cusp_pairs = [(1, 2), (2, 1), (1, 3), (5, 9), (7, 2), (1, F_c.neg(1))]
    for tau in enumerate_types(p, f, kinds=(CUSPIDAL,)):
        for J in enumerate_profiles(tau):
            pd = profile_data(tau, J)
            for a, b in cusp_pairs:
                try:
                    d = kext_dimension(tau, J, a, b, F_c)
                except ExceptionalPairError:
                    continue
                assert d == len(pd.bad_set), (tau.key(), sorted(J), a, b)
                checked += 1
    # hyperplane recovery wherever the bad set is proper and nonempty
    for kind, F in ((PRINCIPAL, F_ps), (CUSPIDAL, F_c)):
        for tau in enumerate_types(p, f, kinds=(kind,)):
            for J in enumerate_profiles(tau):
                pd = profile_data(tau, J)
                if not pd.bad_set or len(pd.bad_set) == f:
                    continue
                try:
                    x = ExtensionPoint(tau, J, F, 1, 2, (0,) * f)
                except ExceptionalPairError:
                    continue
                dim, blocks = kext_structure(x)
                assert dim == len(pd.bad_set)
                for block, vecs in blocks.items():
                    supp = extended(set(block), f)
                    assert len(vecs) == 1
                    assert all(vecs[0][i] != 0 for i in supp)
                    assert all(vecs[0][i] == 0 for i in range(f) if i not in supp)
                structured += 1
    # shape-II law, exhaustive over zero patterns of the class vector
    for kind, F in ((PRINCIPAL, F_ps), (CUSPIDAL, F_c)):
        for tau in enumerate_types(p, f, kinds=(kind,)):
            for J in enumerate_profiles(tau):
                for h in itertools.product((0, 1), repeat=f):
                    try:
                        x = ExtensionPoint(tau, J, F, 1, 2, h)
                    except ExceptionalPairError:  # pragma: no cover
                        continue
                    shapes, _ = classify_shape(build_extension(x))
                    for i in range(tau.fprime):
                        assert (shapes[i] == "II") == (
                            is_transition(J, i, tau.fprime) and h[i % f] == 0
                        )
    report(8, f"kext oracle: {checked} dimensions, {structured} hyperplane kernels", t0, budget=600)


def test_criterion_09_shapeshift():
    t0 = time.time()
    p, f = 3, 2
    n = 0
    for kind, F in ((PRINCIPAL, field(p, 2)), (CUSPIDAL, field(p, 4))):
        for tau in enumerate_types(p, f, kinds=(kind,)):
            for J in enumerate_profiles(tau):
                for Jp in shapeshift_targets(tau, J):
                    D = frozenset(i % f for i in (frozenset(J) ^ Jp))
                    h = tuple(0 if i in D else 1 for i in range(f))
                    try:
                        x = ExtensionPoint(tau, J, F, 1, 2, h)
                    except ExceptionalPairError:
                        continue
                    _, profs = classify_shape(build_extension(x))
                    assert Jp in profs, (tau.key(), sorted(J), sorted(Jp))
                    n += 1
    report(9, f"shape shifting: {n} targets classified in their components", t0)


def test_criterion_10_determinism():
    t0 = time.time()

    def run(*argv):
        out = io.StringIO()
        code = cli_main(list(argv), out=out)
        return code, out.getvalue()

    c1, sweep1 = run("sweep", "--p", "3", "--f", "2")
    c2, sweep2 = run("sweep", "--p", "3", "--f", "2")
    assert c1 == c2 == 0 and sweep1 == sweep2 and len(sweep1) > 1000
    v1 = run("verify", "--p", "3", "--f", "1", "--seed", "42")
    v2 = run("verify", "--p", "3", "--f", "1", "--seed", "42")
    assert v1 == v2 and v1[0] == 0
    report(10, "sweep and verify outputs byte-identical across runs", t0)
