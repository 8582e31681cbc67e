import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkshapes.charexp import (
    CharExp,
    collapse_exponents,
    digit_tuple,
    factor_through_norm,
    is_trivial_char,
    lambda_membership,
    level_f_lift_residue,
    solve_twist_chain,
)


def test_collapse_hand_values():
    assert collapse_exponents((0, 4), 5, 2) == 20
    assert collapse_exponents((0, 0, 0), 11, 3) == 0
    assert collapse_exponents((1, 1), 3, 2) == 4


def test_trivial_char():
    assert is_trivial_char(CharExp(5, 2, 0))
    assert is_trivial_char(CharExp(5, 2, 24))  # representative wraps
    assert not is_trivial_char(CharExp(5, 2, 1))


def test_norm_descent_examples():
    assert factor_through_norm(CharExp(3, 2, 4), 1).residue == 1
    assert factor_through_norm(CharExp(3, 2, 0), 1).residue == 0
    assert factor_through_norm(CharExp(3, 2, 1), 1) is None


def test_norm_descent_is_section():
    p, f = 3, 2
    q = p**f
    for e1, e2 in itertools.product(range(p ** (2 * f) - 1), repeat=2):
        t1 = factor_through_norm(CharExp(p, 2 * f, e1), f)
        t2 = factor_through_norm(CharExp(p, 2 * f, e2), f)
        t12 = factor_through_norm(CharExp(p, 2 * f, e1 + e2), f)
        if t1 is not None and t2 is not None:
            assert t12 is not None
            assert t12.residue == (t1.residue + t2.residue) % (q - 1)


def test_lambda_examples():
    assert lambda_membership((0, 0, 0), 3, 3)
    assert lambda_membership((8, 0), 3, 2)
    assert not lambda_membership((1, 0), 3, 2)


@pytest.mark.parametrize("p,f", [(3, 1), (3, 2), (3, 3)])
def test_lambda_subgroup_exhaustive(p, f):
    mod = p**f - 1
    members = [
        lam for lam in itertools.product(range(mod), repeat=f) if lambda_membership(lam, p, f)
    ]
    assert len(members) == mod ** (f - 1)
    for lam in members:
        assert lambda_membership([-x for x in lam], p, f)
    for a, b in itertools.islice(itertools.product(members, members), 5000):
        assert lambda_membership([x + y for x, y in zip(a, b)], p, f)


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([(3, 2), (5, 2), (3, 3), (7, 1)]))
@settings(max_examples=150)
def test_digit_tuple_inverts_collapse(r, pm):
    p, m = pm
    res = r % (p**m - 1)
    d = digit_tuple(res, p, m)
    assert all(0 <= x <= p - 1 for x in d)
    assert not all(x == p - 1 for x in d)
    assert collapse_exponents(d, p, m) == res


BRUTE_LEVELS = [(p, m) for p, top in ((2, 8), (3, 8), (5, 4), (7, 3)) for m in range(1, top + 1)]


def _brute_collapse(entries, p, m):
    """sum_i entries[i] * p**(m - i) mod p**m - 1, term by term as the docstring states it."""
    return sum(a * p ** (m - i) for i, a in enumerate(entries)) % (p**m - 1)


@pytest.mark.parametrize("p,m", BRUTE_LEVELS)
def test_collapse_and_digit_tuple_match_brute_force(p, m):
    mod = p**m - 1
    canonical = {}  # residue -> the one digit tuple, never all p-1, collapsing to it
    for digits in itertools.product(range(p), repeat=m):
        r = _brute_collapse(digits, p, m)
        assert collapse_exponents(digits, p, m) == r
        if not all(x == p - 1 for x in digits):
            assert r not in canonical
            canonical[r] = digits
    assert len(canonical) == mod
    for r in range(-mod - 2, 2 * mod + 2):
        assert digit_tuple(r, p, m) == canonical[r % mod]
    rng = random.Random(f"{p},{m}")
    for _ in range(200):
        entries = [rng.randint(-3 * p * p, 3 * p * p) for _ in range(m)]
        assert collapse_exponents(entries, p, m) == _brute_collapse(entries, p, m)


@given(st.sampled_from([(3, 2), (5, 2), (7, 3)]))
@settings(max_examples=30)
def test_indicator_relation(pm):
    # the level-m character at index i+1, raised to p, is the one at index i
    p, m = pm
    mod = p**m - 1
    for i in range(m):
        e_next = [0] * m
        e_next[(i + 1) % m] = 1
        e_here = [0] * m
        e_here[i] = 1
        assert (collapse_exponents(e_next, p, m) * p) % mod == collapse_exponents(e_here, p, m)


@given(
    st.lists(st.integers(min_value=-40, max_value=40), min_size=2, max_size=4),
    st.sampled_from([3, 5]),
)
@settings(max_examples=100)
def test_twist_chain_solves_when_collapse_vanishes(entries, p):
    m = len(entries)
    res = collapse_exponents(entries, p, m)
    if res != 0:
        with pytest.raises(ValueError):
            solve_twist_chain(entries, p, m)
        return
    nu = solve_twist_chain(entries, p, m)
    for i in range(m):
        assert nu[i % m] == p * nu[(i - 1) % m] - entries[i]


def test_level_lift_residue():
    # lifting to the doubled level multiplies by 1 + p**f
    assert level_f_lift_residue(3, 3, 1, 2) == (3 * 4) % 8
    assert level_f_lift_residue(5, 3, 2, 4) == (5 * 10) % 80
    assert level_f_lift_residue(5, 3, 2, 2) == 5
