"""Every mutant of the program in the table makes the `verify` checks it names FAIL.

A PASS is worth only as much as the check's power to fail.  Each mutant
here is a plausible fault of the program, never of the check: a function
or table in `bkshapes` replaced for the duration of one run.  With it in place,
`verify --p 3 --f 2` must print FAIL for each check the table names, not
ERROR: the check finds a counterexample rather than crashing on one.
"""

import io

import numpy as np
import pytest

from bkshapes import extensions, hodge, phimod, randgen, verify
from bkshapes.cli import main


def _basis_change_columns_swapped(orig):
    """The draw lays a unit change of basis out as ((y, x), (w, v z)), not ((x, y), (v z, w))."""

    def draw_basis_change(rng, F, degree):
        return orig(rng, F, degree)[[1, 0, 3, 2]]

    return draw_basis_change


def _noshape_with_divisible_corner(orig):
    """The shapeless draw places its (0,0) entry one column further, one more power of v, so it
    has a shape (the top column, zero in a descent-removed draw, drops)."""

    def draw_noshape_matrix(rng, F, degree):
        D = orig(rng, F, degree)
        D[0] = np.roll(D[0], 1)
        D[0, 0] = 0
        return D

    return draw_noshape_matrix


def _divisible_reads_integrality(orig):
    """Divisibility asks for no term below exponent 0 instead of below 1."""

    def _divisible(s, what, live):
        return ~s.coeffs[..., : max(0, -s.val)].any(axis=-1)

    return _divisible


def _theta_transported_as_mu(orig):
    """The basis transport of theta moves the first diagonal exponent at j-1, as mu's does."""

    def apply_operator_on_basis(mats, r, kind, j, p, terms=None):
        return orig(mats, r, "mu" if kind == "theta" else kind, j, p, terms)

    return apply_operator_on_basis


def _theta_prev_moved_as_mu(orig):
    """theta's S_{j-1} takes mu's entry moves; only the transport is wrong, not its exponents."""
    return {**orig, "theta": orig["mu"]}


def _twist_row_move_off_by_one(orig):
    """The twist to the base field moves row 0 at index 0 one power of v too far.

    Ascent reads the same moves, so it undoes the fault: only the normal form shows it.
    """

    def _twist_moves(tau, J, pd):
        ((r0, r1), cols), *rest = orig(tau, J, pd)
        return [((r0 + 1, r1), cols), *rest]

    return _twist_moves


def _hodge_type_first_pair_shifted(orig):
    """The Hodge type of (tau, J) has its first pair moved up by one."""

    def hodge_type_of(tau, J):
        (a, b), *rest = orig(tau, J)
        return ((a + 1, b + 1), *rest)

    return hodge_type_of


def _ascend_without_column_moves(orig):
    """The ascent from the base field undoes the twist's row moves but not its column moves."""

    def ascend_from_base(res):
        moves = phimod._twist_moves(res.tau, res.J, phimod.profile_data(res.tau, res.J))
        mats = [M.shifted(cols=cols) for M, (_, cols) in zip(orig(res).mats, moves)]
        return phimod.BKModule(res.tau, mats)

    return ascend_from_base


def _reorder_reads_own_index(orig):
    """The profile reorder swaps the columns when i is outside J, not when i-1 is."""

    def reorder_by_profile(M, J, i, n):
        return M.swapped(rows=i not in J, cols=i not in J)

    return reorder_by_profile


# (the mutant, made from the original; the modules holding the function or table; its name;
# the checks it must make FAIL)
MUTANTS = [
    (_basis_change_columns_swapped, (randgen, verify), "draw_basis_change",
     ["shape-invariance"]),
    (_noshape_with_divisible_corner, (randgen, verify), "draw_noshape_matrix",
     ["strongdet-vs-shape"]),
    (_divisible_reads_integrality, (phimod,), "_divisible", ["strongdet-vs-shape"]),
    (_theta_transported_as_mu, (phimod, verify), "apply_operator_on_basis",
     ["operator-basis-lifts"]),
    (_ascend_without_column_moves, (phimod, verify), "ascend_from_base",
     ["descend-normal-form"]),
    (_reorder_reads_own_index, (phimod, extensions), "reorder_by_profile",
     ["extension-shape-law", "shapeshift-targets"]),
    (_theta_prev_moved_as_mu, (phimod,), "_PREV_COLS", ["operator-basis-lifts"]),
    (_twist_row_move_off_by_one, (phimod,), "_twist_moves", ["descend-normal-form"]),
    (_hodge_type_first_pair_shifted, (hodge, verify), "hodge_type_of",
     ["existence-roundtrip", "forced-choice-patterns"]),
]


@pytest.mark.parametrize("mutant,modules,name,killed", MUTANTS,
                         ids=lambda v: getattr(v, "__name__", None))
def test_mutant_makes_the_check_fail(monkeypatch, mutant, modules, name, killed):
    replacement = mutant(getattr(modules[0], name))
    for module in modules:
        monkeypatch.setattr(module, name, replacement)
    monkeypatch.setattr(verify, "CHECKS", [(c, fn) for c, fn in verify.CHECKS if c in killed])
    out = io.StringIO()
    assert main(["verify", "--p", "3", "--f", "2"], out=out) == 1
    for check in killed:
        assert f"FAIL {check}: " in out.getvalue()
    assert "ERROR" not in out.getvalue()
