"""`shape-invariance` and `strongdet-vs-shape` decide their trials in stacks.

Both checks draw each trial's values in the order of the trial-by-trial
loops kept here as references, and decide up to `verify.STACK` trials per
engine pass.  The verdict and its detail must be the loop's, and so must
the state of the rng after a passing run.  When a trial fails or crashes,
the first such trial must be reported as the loop reports it: the same
FAIL text with the same trial number, or the same crash.
"""

import itertools
import random

import pytest

from bkshapes import randgen, verify
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
        bad = verify.module_from_descent_removed(
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


# A draw is four entries (k, codes), v**k times the polynomial with those codes.
ONE, V = (0, [1]), (1, [1])


def _shaped(D, rng):
    """((v a, b), (v c, d)) from a shapeless ((a, b), (v c, d)): a divisible entry at (0,0)."""
    (k, a), b, c, d = D
    return (k + 1, a), b, c, d


def _shapeless(D, rng):
    """((1, b), (v c, 1)) from ((a, b), (v c, d)): no diagonal entry divisible."""
    _, b, c, _ = D
    return ONE, b, c, ONE


def _cols_swapped(D, rng):
    """((y, x), (w, v z)) from ((x, y), (v z, w)): a unit, but one that moves shapes."""
    x, y, z, w = D
    return y, x, w, z


def _non_unit(D, rng):
    _, b, c, _ = D
    return V, b, c, V


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
