"""`shape-invariance` and `strongdet-vs-shape` decide their trials in stacks.

Both checks draw each trial's values in the order of the trial-by-trial
loops kept here as references, and decide up to `verify.STACK` trials per
engine pass.  The verdict and its detail must be the loop's, and so must
the state of the rng after a passing run.  When a trial fails or crashes,
the first such trial must be reported as the loop reports it: the same
FAIL text with the same trial number, or the same crash.

`extension-shape-law` and `shapeshift-targets` decide the extensions of
each (type, profile) pair as one stack: its 2^f classes, or its shifted
targets.  The per-class loops they replaced are kept here too; the
verdict and detail must be theirs, and a failing or crashing class must
be reported as the loop reports the first one.
"""

import itertools
import random

import numpy as np
import pytest

from bkshapes import extensions, phimod, randgen, verify
from bkshapes.extensions import build_extension
from bkshapes.intervals import shapeshift_targets
from bkshapes.series import Mat2
from bkshapes.tametypes import is_transition
from test_check_power import _reorder_reads_own_index  # the mutant that kills both pair checks
from bkshapes.gf import field
from bkshapes.phimod import NoShapeError, change_eigenbasis, classify_shape, strong_determinant_ok


def reference_shape_invariance(p, f, rng, fault=None, trials=200):
    tau = verify._all_pairs(p, f)[0][0]
    F = field(p, tau.fprime)
    n = 0
    for _ in range(trials):
        shapes = [rng.choice(verify.SHAPES) for _ in range(f)]
        mod = randgen.random_module(rng, tau, F, shapes, degree=6)
        I = [randgen.random_basis_change(rng, F, 5) for _ in range(f)]
        mod2 = change_eigenbasis(mod, I, terms=40)
        if classify_shape(mod2)[0] != classify_shape(mod)[0]:
            return False, f"shape changed under unit conjugation (trial {n})"
        n += 1
    return True, f"{n} trials"


def reference_strongdet_shape(p, f, rng, fault=None, trials=200):
    tau = verify._all_pairs(p, f)[0][0]
    F = field(p, tau.fprime)
    for t in range(trials):
        shapes = [rng.choice(verify.SHAPES) for _ in range(f)]
        mod = randgen.random_module(rng, tau, F, shapes, degree=6)
        if not strong_determinant_ok(mod):
            return False, f"shaped sample fails the determinant condition (trial {t})"
        got, _ = classify_shape(mod)
        if got != tuple(shapes[:f]) + tuple(got[f:]):
            return False, f"classified shape disagrees with construction (trial {t})"
        bad = verify.BKModule(
            tau, [randgen.random_noshape_matrix(rng, F, 6) for _ in range(f)]
        )
        if strong_determinant_ok(bad):
            return False, f"shapeless module passed the determinant condition (trial {t})"
        try:
            classify_shape(bad)
            return False, f"shapeless module classified (trial {t})"
        except NoShapeError:
            pass
    return True, f"{trials} trials each way"


CHECKS = {
    "shape-invariance": (verify.check_shape_invariance, reference_shape_invariance),
    "strongdet-vs-shape": (verify.check_strongdet_shape, reference_strongdet_shape),
}


def _report(name, check, p=3, f=2, seed=0):
    """The check's CheckResult as `verify.run_suite` reports it."""
    rng = random.Random((seed, name).__repr__())
    try:
        return verify.CheckResult(name, *check(p, f, rng))
    except Exception as exc:
        return verify.CheckResult(name, False, f"crashed: {exc!r}", crashed=True)


@pytest.mark.parametrize("name", sorted(CHECKS))
@pytest.mark.parametrize(
    "p,f,seed", [(p, f, s) for p, f in [(3, 1), (3, 2), (5, 2)] for s in range(4)] + [(3, 3, 0)]
)
def test_stacked_check_matches_the_trial_loop(name, p, f, seed):
    results = []
    for check in CHECKS[name]:
        rng = random.Random((seed, name).__repr__())
        results.append((check(p, f, rng), rng.random()))
    assert results[0] == results[1]
    assert results[0][0][0]


def _on_trial(monkeypatch, draw, per_trial, changes):
    """Replace the draw, in randgen and in verify, by one that changes the draws of some trials.

    The stacked checks call the draw directly and the loops through the
    per-trial sampler that builds it, so both see the same changed draws.
    The draw is called per_trial times per trial; changes maps a trial
    number to a function of (draw, rng).  Each call of the returned reset
    starts the trial count again.
    """
    orig = getattr(randgen, draw)
    calls = itertools.count()

    def mutant(rng, *args, **kwargs):
        drawn = orig(rng, *args, **kwargs)
        change = changes.get(next(calls) // per_trial)
        return drawn if change is None else change(drawn, rng)

    def reset():
        nonlocal calls
        calls = itertools.count()

    for module in (randgen, verify):
        monkeypatch.setattr(module, draw, mutant)
    return reset


# A draw is a 4 x L code grid: rows a, b, c, d, and column j the coefficients of v**j.


def _shaped(D, rng):
    """((v a, b), (v c, d)) from a shapeless ((a, b), (v c, d)): a divisible entry at (0,0).

    Row a moves one column to the right; its top column, zero in a descent-removed draw, drops.
    """
    D = D.copy()
    D[0] = np.roll(D[0], 1)
    D[0, 0] = 0
    return D


def _diagonal(D, k):
    """D with both diagonal entries v**k."""
    D = D.copy()
    D[[0, 3]] = 0
    D[[0, 3], k] = 1
    return D


def _shapeless(D, rng):
    """((1, b), (v c, 1)) from ((a, b), (v c, d)): no diagonal entry divisible."""
    return _diagonal(D, 0)


def _cols_swapped(D, rng):
    """((y, x), (w, v z)) from ((x, y), (v z, w)): a unit, but one that moves shapes."""
    return D[[1, 0, 3, 2]]


def _non_unit(D, rng):
    return _diagonal(D, 1)


def _raises(D, rng):
    raise RuntimeError("sampler broke")


# (check, draw, {trial: change of its draws}, status, the trial a FAIL names)
FIRST_FAILURES = [
    ("strongdet-vs-shape", "draw_noshape_matrix", {7: _shaped}, "FAIL", 7),
    ("strongdet-vs-shape", "draw_noshape_matrix", {60: _shaped}, "FAIL", 60),
    ("shape-invariance", "draw_basis_change", {7: _cols_swapped}, "FAIL", 7),
    ("shape-invariance", "draw_basis_change", {60: _cols_swapped}, "FAIL", 60),
    # a crash in the same stack after the first failure, and before it (at seed 0 the
    # swap moves a shape in every trial named here, but not in trial 55)
    ("shape-invariance", "draw_basis_change", {56: _cols_swapped, 60: _non_unit}, "FAIL", 56),
    ("shape-invariance", "draw_basis_change", {56: _non_unit, 60: _cols_swapped}, "ERROR", 56),
    # a failed trial whose later stage would raise: a lone trial stops at its first failure
    ("strongdet-vs-shape", "draw_shaped_matrix", {60: _shapeless}, "FAIL", 60),
    # a draw that raises after the first failure in its stack, and one that raises alone
    ("strongdet-vs-shape", "draw_noshape_matrix", {4: _shaped, 9: _raises}, "FAIL", 4),
    ("strongdet-vs-shape", "draw_noshape_matrix", {9: _raises}, "ERROR", None),
]


@pytest.mark.parametrize("name,draw,changes,status,trial", FIRST_FAILURES)
def test_first_failing_trial_is_reported_as_the_loop_reports_it(
    monkeypatch, name, draw, changes, status, trial
):
    reset = _on_trial(monkeypatch, draw, 2, changes)
    stacked = _report(name, CHECKS[name][0])
    reset()
    alone = _report(name, CHECKS[name][1])
    assert stacked == alone
    assert ("ERROR" if stacked.crashed else "FAIL" if not stacked.passed else "PASS") == status
    if trial is not None and status == "FAIL":
        assert stacked.detail.endswith(f"(trial {trial})")
    if status == "ERROR":
        want = "RuntimeError('sampler broke')" if trial is None else "ValueError('change of basis"
        assert stacked.detail.startswith(f"crashed: {want}")


# -- the pair stacks -------------------------------------------------------------------


def reference_extension_shape_law(p, f, rng, fault=None, cap=200):
    n = 0
    pairs, note = verify._field_pairs(p, f, rng, cap)
    for tau, J, F in pairs:
        for h in itertools.product((0, 1), repeat=f):
            mod = build_extension(verify._extension_point(tau, J, F, h))
            if not strong_determinant_ok(mod):
                return False, f"extension fails determinant at {tau.key()} J={sorted(J)}"
            shapes, profs = classify_shape(mod)
            for i in range(tau.fprime):
                want = is_transition(J, i, tau.fprime) and h[i % f] == 0
                if (shapes[i] == verify.SHAPE_II) != want:
                    return False, f"shape law broken at {tau.key()} J={sorted(J)} h={h} i={i}"
            if frozenset(J) not in profs:
                return False, f"extension escaped its component at {tau.key()} J={sorted(J)}"
            n += 1
    return True, f"{n} extensions{note}"


def reference_shapeshift(p, f, rng, fault=None, cap=200):
    n = 0
    pairs, note = verify._field_pairs(p, f, rng, cap)
    for tau, J, F in pairs:
        for Jp in shapeshift_targets(tau, J):
            D = frozenset(i % f for i in (frozenset(J) ^ Jp))
            h = tuple(0 if i in D else 1 for i in range(f))
            _, profs = classify_shape(build_extension(verify._extension_point(tau, J, F, h)))
            if Jp not in profs:
                return False, f"target not classified at {tau.key()} J={sorted(J)} J'={sorted(Jp)}"
            n += 1
    return True, f"{n} shifted targets{note}"


PAIR_CHECKS = {
    "extension-shape-law": (verify.check_extension_shape_law, reference_extension_shape_law),
    "shapeshift-targets": (verify.check_shapeshift, reference_shapeshift),
}


def _pair_reports(name, p, f, seed=0, cap=200):
    """The stacked check's report and the loop's, each from its own rng."""
    return [_report(name, lambda p, f, rng: check(p, f, rng, cap=cap), p, f, seed)
            for check in PAIR_CHECKS[name]]


@pytest.mark.parametrize("name", sorted(PAIR_CHECKS))
@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (3, 2)])
def test_pair_stacks_match_the_class_loop_on_every_pair(name, p, f):
    stacked, alone = _pair_reports(name, p, f, cap=len(verify._all_pairs(p, f)))
    assert stacked == alone
    assert stacked.passed and not stacked.detail.endswith("skipped: field over the table limit)")


@pytest.mark.parametrize("name", sorted(PAIR_CHECKS))
@pytest.mark.parametrize("p,f,seed", [(5, 2, 0), (5, 2, 1), (3, 3, 0), (3, 3, 2)])
def test_pair_stacks_match_the_class_loop_on_a_sample(name, p, f, seed):
    stacked, alone = _pair_reports(name, p, f, seed)
    assert stacked == alone
    assert stacked.passed


def _class_upper_right(orig):
    """The build writing the class h_i to the upper-right entry of B_i, not the lower-left."""

    def reorder_by_profile(M, J, i, n):
        return orig(Mat2(M[0, 0], M[1, 0], M[0, 1], M[1, 1]), J, i, n)

    return reorder_by_profile


def _raising_at(orig, fails, raises):
    """Points whose class is `fails` built with the class (1, ..., 1); `raises` refused."""

    def extension_point(tau, J, F, h):
        if h == raises:
            raise RuntimeError("point refused")
        return orig(tau, J, F, (1,) * len(h) if h == fails else h)

    return extension_point


REORDER = {(phimod, extensions): ("reorder_by_profile", _reorder_reads_own_index(None))}

# (the check, the faults to install, the report at (3, 2) and seed 0)
FAULTS = [
    ("extension-shape-law", REORDER,
     "FAIL shape law broken at (3, 2, 'cuspidal', 77, 53) J=[0, 1] h=(0, 0) i=0"),
    ("shapeshift-targets", REORDER,
     "FAIL target not classified at (3, 2, 'cuspidal', 49, 41) J=[1, 2] J'=[2, 3]"),
    # first seen at a later class of its pair
    ("extension-shape-law",
     {(extensions,): ("reorder_by_profile", _class_upper_right(phimod.reorder_by_profile))},
     "FAIL shape law broken at (3, 2, 'cuspidal', 77, 53) J=[0, 1] h=(1, 0) i=0"),
    # a crash in a later member of the stack after an earlier member's failure, and alone
    ("extension-shape-law",
     {(verify,): ("_extension_point", _raising_at(verify._extension_point, (0, 0), (0, 1)))},
     "FAIL shape law broken at (3, 2, 'cuspidal', 77, 53) J=[0, 1] h=(0, 0) i=0"),
    ("extension-shape-law",
     {(verify,): ("_extension_point", _raising_at(verify._extension_point, None, (0, 1)))},
     "ERROR crashed: RuntimeError('point refused')"),
]


@pytest.mark.parametrize("name,faults,want", FAULTS)
def test_first_failing_class_is_reported_as_the_loop_reports_it(monkeypatch, name, faults, want):
    for modules, (attr, fault) in faults.items():
        for module in modules:
            monkeypatch.setattr(module, attr, fault)
    stacked, alone = _pair_reports(name, 3, 2)
    assert stacked == alone
    status = "ERROR" if stacked.crashed else "FAIL" if not stacked.passed else "PASS"
    assert f"{status} {stacked.detail}" == want
