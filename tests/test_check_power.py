"""Every mutant of the program in the table makes the `verify` checks it names FAIL.

A PASS is worth only as much as the check's power to fail.  Each mutant
here is a plausible fault of the program, never of the check: a function
in `bkshapes` replaced for the duration of one run.  With it in place,
`verify --p 3 --f 2` must print FAIL for each check the table names, not
ERROR: the check finds a counterexample rather than crashing on one.
"""

import io

import pytest

from bkshapes import phimod, randgen, verify
from bkshapes.cli import main


def _basis_change_columns_swapped(orig):
    """The draw lays a unit change of basis out as ((y, x), (w, v z)), not ((x, y), (v z, w))."""

    def draw_basis_change(rng, F, degree):
        x, y, z, w = orig(rng, F, degree)
        return y, x, w, z

    return draw_basis_change


def _noshape_with_divisible_corner(orig):
    """The shapeless draw records its (0,0) entry with one more power of v, so it has a shape."""

    def draw_noshape_matrix(rng, F, degree):
        (k, a), b, c, d = orig(rng, F, degree)
        return (k + 1, a), b, c, d

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


def _ascend_without_column_moves(orig):
    """The ascent from the base field undoes the twist's row moves but not its column moves."""

    def ascend_from_base(res):
        moves = phimod._twist_moves(res.tau, res.J, phimod.profile_data(res.tau, res.J))
        mats = [M.shifted(cols=cols) for M, (_, cols) in zip(orig(res).mats, moves)]
        return phimod.BKModule(res.tau, mats)

    return ascend_from_base


# (the mutant, made from the original; the modules holding the function; its name; the checks
# it must make FAIL)
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
