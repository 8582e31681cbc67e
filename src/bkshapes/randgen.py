"""Seeded random generators for series, unit matrices, and shaped modules.

All sampling flows through one random.Random instance so a single 64-bit
seed reproduces every randomized `verify` check bit-for-bit.
"""

from __future__ import annotations

import random

from .gf import GF
from .series import Mat2, Series
from .tametypes import TameType, check_profile
from .phimod import SHAPE_I_ETA, SHAPE_I_ETA_PRIME, SHAPE_II, BKModule, module_from_descent_removed


def random_series(rng: random.Random, F: GF, degree: int, unit: bool = False) -> Series:
    coeffs = [rng.randrange(F.q) for _ in range(degree + 1)]
    if unit:
        coeffs[0] = rng.randrange(1, F.q)
    return Series(F, "v", 0, coeffs)


def random_unit_matrix(rng: random.Random, F: GF, degree: int) -> Mat2:
    """A matrix over F[[v]] (polynomial entries) with unit determinant."""
    while True:
        M = Mat2(*(random_series(rng, F, degree) for _ in range(4)))
        det = M.det()
        if not det.is_zero() and det.val == 0:
            return M


def random_basis_change(rng: random.Random, F: GF, degree: int) -> Mat2:
    """Descent-removed change of basis ((x, y), (v z, w)) with unit diagonal."""
    x = random_series(rng, F, degree, unit=True)
    w = random_series(rng, F, degree, unit=True)
    y = random_series(rng, F, degree)
    z = random_series(rng, F, degree).shift(1)
    while True:
        M = Mat2(x, y, z, w)
        det = M.det()
        if not det.is_zero() and det.val == 0:
            return M
        x = random_series(rng, F, degree, unit=True)


def random_shaped_matrix(rng: random.Random, F: GF, shape: str, degree: int) -> Mat2:
    """Descent-removed matrix with prescribed shape and passing determinant.

    Entry layout ((a, b), (v c, d)); the determinant must be v times a unit,
    so sampling rejects until the cofactor combination is a unit.
    """
    v = Series.monomial(F, "v", 1, 1)
    while True:
        b = random_series(rng, F, degree)
        c = random_series(rng, F, degree)
        if shape == SHAPE_I_ETA:
            a = v * random_series(rng, F, degree, unit=True)
            d = random_series(rng, F, degree, unit=True)
        elif shape == SHAPE_I_ETA_PRIME:
            a = random_series(rng, F, degree, unit=True)
            d = v * random_series(rng, F, degree, unit=True)
        elif shape == SHAPE_II:
            a = v * random_series(rng, F, degree)
            d = v * random_series(rng, F, degree)
        else:
            raise ValueError(f"unknown shape {shape!r}")
        M = Mat2(a, b, v * c, d)
        det = M.det()
        if not det.is_zero() and det.val == 1:
            return M


def random_module(rng: random.Random, tau: TameType, F: GF, shapes, degree: int = 8) -> BKModule:
    """Module with prescribed shape word at indices 0..f-1."""
    A_list = [random_shaped_matrix(rng, F, s, degree) for s in shapes]
    return module_from_descent_removed(tau, A_list)


def random_noshape_matrix(rng: random.Random, F: GF, degree: int) -> Mat2:
    v = Series.monomial(F, "v", 1, 1)
    a = random_series(rng, F, degree, unit=True)
    d = random_series(rng, F, degree, unit=True)
    return Mat2(a, random_series(rng, F, degree), v * random_series(rng, F, degree), d)


def random_component_module(
    rng: random.Random, tau: TameType, J, F: GF, degree: int = 8
) -> BKModule:
    """Random point of the component: B_i * diag(v,1) or diag(1,v) * B_i."""
    from .phimod import module_from_partial_frobenius

    J = check_profile(tau, J)
    B = [random_unit_matrix(rng, F, degree) for _ in range(tau.f)]
    return module_from_partial_frobenius(tau, J, B)
