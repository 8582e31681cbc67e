import itertools
import random

import numpy as np
import pytest

from bkshapes.gf import field
from bkshapes.hodge import apply_operator, as_hodge, irregular_set, operator_moves
from bkshapes.phimod import _unit_part, apply_operator_on_basis
from bkshapes.randgen import random_unit_matrix
from bkshapes.series import Mat2, Series

F25 = field(5, 2)
F9 = field(3, 2)


def _diag(a, d):
    zero = Series.zero(a.field, a.scale)
    return Mat2(a, zero, zero, d)


def reference_apply_operator_on_basis(mats, r, kind, j, p, terms):
    """The operator transport with its monomial factors as Mat2 products and inverses."""
    f = len(mats)
    j %= f
    F = mats[0][0, 0].field
    one = Series.one(F, "v")
    v = Series.monomial(F, "v", 1, 1)
    expected = {i: tuple(r[i]) for i in range(f)}
    if kind == "nu":
        S_prev = _unit_part(mats[j], r[j], "input").inverse(terms)
        S_j = _diag(one, v)
        expected[j] = (r[j][0], r[j][1] - 1)
        expected[(j + 1) % f] = (r[(j + 1) % f][0], r[(j + 1) % f][1] + p)
    else:
        C = _diag(one, v) if kind == "theta" else _diag(v, one)
        S_prev = _unit_part(mats[(j - 1) % f], r[(j - 1) % f], "input") * C
        S_j = None
        if kind == "theta":
            expected[(j - 1) % f] = (r[(j - 1) % f][0], r[(j - 1) % f][1] - 1)
            expected[j] = (r[j][0], r[j][1] + p)
        else:
            expected[(j - 1) % f] = (r[(j - 1) % f][0] - 1, r[(j - 1) % f][1])
            expected[j] = (r[j][0] + p, r[j][1])
    S = [None] * f
    S[(j - 1) % f] = S_prev
    if S_j is not None:
        S[j] = S_j
    new = []
    for i in range(f):
        M = mats[i]
        if S[(i - 1) % f] is not None:
            M = M * S[(i - 1) % f].frobenius()
        if S[i] is not None:
            M = S[i].inverse(terms) * M
        new.append(M)
    return new, [expected[i] for i in range(f)]


def normal_form(B, pair):
    return B.shifted(cols=pair)


def test_identity_family_examples():
    r = ((3, 3), (4, 2))
    I = Mat2.identity(F25, "v")
    mats = [normal_form(I, r[i]) for i in range(2)]
    _, exps = apply_operator_on_basis(mats, r, "nu", 0, 5, terms=40)
    assert [tuple(sorted(e, reverse=True)) for e in exps] == [(3, 2), (7, 4)]
    _, exps = apply_operator_on_basis(mats, r, "mu", 0, 5, terms=40)
    assert [tuple(sorted(e, reverse=True)) for e in exps] == [(8, 3), (3, 2)]
    _, exps = apply_operator_on_basis(mats, r, "theta", 0, 5, terms=40)
    assert [tuple(sorted(e, reverse=True)) for e in exps] == [(8, 3), (4, 1)]


def test_theta_touches_only_adjacent_indices():
    rng = random.Random(4)
    r = as_hodge(((2, 2), (3, 1), (4, 1)))
    B = [random_unit_matrix(rng, F25, 3) for _ in range(3)]
    mats = [normal_form(B[i], r[i]) for i in range(3)]
    new, exps = apply_operator_on_basis(mats, r, "theta", 0, 5, terms=40)
    # index 1 = j+1 is untouched by theta_0
    assert new[1] == mats[1]
    assert exps[1] == tuple(r[1])


def test_exhaustive_p3_f2_with_random_units():
    rng = random.Random(123)
    p, f = 3, 2
    trials = 6  # the acceptance suite runs the full 50
    for gaps in itertools.product(range(p + 1), repeat=f):
        r = as_hodge(tuple((g, 0) for g in gaps))
        for j in irregular_set(r):
            for kind in ("theta", "mu", "nu"):
                if kind == "theta" and gaps[(j - 1) % f] == p:
                    continue
                target = apply_operator(kind, j, r, p)
                for _ in range(trials):
                    B = [random_unit_matrix(rng, F9, 4) for _ in range(f)]
                    mats = [normal_form(B[i], r[i]) for i in range(f)]
                    _, exps = apply_operator_on_basis(mats, r, kind, j, p, terms=48)
                    assert tuple(tuple(sorted(e, reverse=True)) for e in exps) == target


def test_precondition_errors():
    r = ((3, 3), (4, 2))
    I = Mat2.identity(F25, "v")
    mats = [normal_form(I, r[i]) for i in range(2)]
    with pytest.raises(ValueError):
        apply_operator_on_basis(mats, r, "nu", 1, 5, terms=20)  # regular at 1
    steep = ((3, 3), (7, 2))
    mats2 = [normal_form(I, steep[i]) for i in range(2)]
    with pytest.raises(ValueError):
        apply_operator_on_basis(mats2, steep, "theta", 0, 5, terms=20)


@pytest.mark.parametrize("p,m,trials", [(3, 2, 3), (5, 2, 2), (3, 3, 1)])
def test_entry_moves_match_monomial_products(p, m, trials):
    """Every defined move against the transport written with diag(1, v) products."""
    F = field(p, m)
    rng = random.Random(f"operator-reference-{p}-{m}")
    kinds = set()
    for gaps in itertools.product(range(p + 1), repeat=m):
        r = as_hodge(tuple((g, 0) for g in gaps))
        for j, kind in operator_moves(r, p):
            for _ in range(trials):
                B = [random_unit_matrix(rng, F, 3) for _ in range(m)]
                mats = [normal_form(B[i], r[i]) for i in range(m)]
                new, exps = apply_operator_on_basis(mats, r, kind, j, p, terms=24)
                ref, ref_exps = reference_apply_operator_on_basis(mats, r, kind, j, p, 24)
                assert exps == ref_exps
                assert new == ref
                for A, R in zip(new, ref):
                    for s, t in zip(A.e, R.e):  # known at least as far (None: exact)
                        assert s.prec is None or (t.prec is not None and s.prec >= t.prec)
                kinds.add(kind)
    assert kinds == {"theta", "mu", "nu"}


def _stacked_trials(rng, F, r, trials, degree=3, bad=None):
    """Per-trial normal forms and their stacks per index; trial 2 at index 0 may be replaced."""
    per_trial = []
    for t in range(trials):
        B = [random_unit_matrix(rng, F, degree) for _ in range(len(r))]
        if bad is not None and t == 2:
            B[0] = bad
        per_trial.append([normal_form(B[i], r[i]) for i in range(len(r))])
    stacks = [Mat2.stack([mats[i] for mats in per_trial]) for i in range(len(r))]
    return per_trial, stacks


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, 3)])
def test_stacked_transport_matches_each_trial(p, m):
    F = field(p, m)
    rng = random.Random(f"stacked-transport-{p}-{m}")
    for gaps in itertools.product(range(p + 1), repeat=m):
        r = as_hodge(tuple((g, 0) for g in gaps))
        for j, kind in list(operator_moves(r, p))[:2]:
            per_trial, stacks = _stacked_trials(rng, F, r, 4)
            new, exps = apply_operator_on_basis(stacks, r, kind, j, p, terms=24)
            for t, mats in enumerate(per_trial):
                one, one_exps = apply_operator_on_basis(mats, r, kind, j, p, terms=24)
                assert exps == one_exps
                for A, R in zip(new, one):
                    assert A.member(t) == R


def _bad_unit_part(case):
    one, zero = Series.one(F25, "v"), Series.zero(F25, "v")
    if case == "non-unit":
        return Mat2(one, one, one, one)
    if case == "non-integral":
        return Mat2(one, Series.monomial(F25, "v", 1, -1), zero, one)
    return Mat2(Series.zero(F25, "v", prec=0), zero, zero, one)  # det known only below 0


@pytest.mark.parametrize("case", ["non-unit", "non-integral", "precision"])
def test_first_failing_member_names_the_failure(case):
    """One bad unit part in the middle of a stack: flagged alone, and reported as alone.

    A precision cut is the stack's own (its prec is the least member
    prec), so then every member is flagged; the report is still the text
    of the one-member call on the bad member.
    """
    r = ((3, 3), (4, 2))
    per_trial, stacks = _stacked_trials(random.Random(case), F25, r, 5, bad=_bad_unit_part(case))
    B = stacks[0].shifted(cols=(-3, -3))
    ok = np.logical_and.reduce([s.is_integral() for s in B.e]) & B.has_unit_det()
    assert list(np.flatnonzero(~ok)) == ([0, 1, 2, 3, 4] if case == "precision" else [2])
    with pytest.raises(AssertionError) as stacked:
        apply_operator_on_basis(stacks, r, "nu", 0, 5, terms=20)
    with pytest.raises(AssertionError) as alone:
        apply_operator_on_basis(per_trial[2], r, "nu", 0, 5, terms=20)
    assert str(stacked.value) == str(alone.value)
    for t in (0, 1, 3, 4):  # the good members transport alone
        apply_operator_on_basis(per_trial[t], r, "nu", 0, 5, terms=20)


def test_check_draws_trials_in_sequential_order(monkeypatch):
    """`check_operator_basis` stacks exactly the matrices a trial-by-trial loop draws."""
    from bkshapes import verify

    p, f, trials = 3, 2, 3
    seen = []

    def recording(mats, r, kind, j, p, terms=None):
        seen.append(mats)
        return apply_operator_on_basis(mats, r, kind, j, p, terms)

    monkeypatch.setattr(verify, "apply_operator_on_basis", recording)
    assert verify.check_operator_basis(p, f, random.Random("draws"), trials=trials)[0]
    rng = random.Random("draws")
    want = []
    for _, r in verify._gap_types(p, f):
        for _ in operator_moves(r, p):
            for _ in range(trials):
                B = [random_unit_matrix(rng, F9, 4) for _ in range(f)]
                want.append([B[i].shifted(cols=r[i]) for i in range(f)])
    assert len(seen) * trials == len(want)
    for k, stacks in enumerate(seen):
        for t in range(trials):
            for i in range(f):
                got, ref = stacks[i].member(t), want[k * trials + t][i]
                for s, e in zip(got.e, ref.e):
                    assert (s.val, s.prec, list(s.coeffs)) == (e.val, e.prec, list(e.coeffs))
