"""Seeded random generators for series, unit matrices, and shaped modules.

`run_suite` seeds each randomized `verify` check with its own random.Random,
from repr((seed, name)), so one seed reproduces every check bit for bit.

A matrix is drawn as a grid of field codes, each read by `_below`: rows a, b,
c, d, laid out ((a, b), (c, d)), and column j the coefficients of v**j, so a
factor v of an entry is a leading zero.  The rejection samplers decide a
candidate from the constant terms of its codes, so a rejected candidate builds
no Series.  Draws of one width form an (N, 4, L) array, and `code_matrices`
builds every draw, or every stack of them, into one Mat2.  Unit matrices are
drawn N at a time as one such array.  The per-trial samplers
(`random_unit_matrix`, ...) are builds of one draw, so each distribution is
defined once, by its `draw_*`.
"""

from __future__ import annotations

import random

import numpy as np

from .gf import GF
from .series import Mat2, Series
from .tametypes import TameType, check_profile
from .phimod import (
    SHAPE_I_ETA, SHAPE_I_ETA_PRIME, SHAPE_II, BKModule, module_from_partial_frobenius,
)


def _below(rng: random.Random, q: int, n: int) -> list:
    """The values of n successive `rng.randrange(q)` calls, and the generator state after them.
    This relies on random.Random's `_randbelow` being `_randbelow_with_getrandbits`: randrange(q)
    reads getrandbits(q.bit_length()) until it is below q, as this loop does."""
    getrandbits, k, out = rng.getrandbits, q.bit_length(), []
    for _ in range(n):
        while (r := getrandbits(k)) >= q:
            pass
        out.append(r)
    return out


def _codes(rng: random.Random, q: int, degree: int, unit: bool = False) -> list:
    """The codes of a random polynomial of the given degree; a unit has a nonzero constant term."""
    codes = _below(rng, q, degree + 1)
    if unit:
        codes[0] = 1 + _below(rng, q - 1, 1)[0]  # randrange(1, q)
    return codes


def _grid(F: GF, polys, powers) -> np.ndarray:
    """The code grid of the entries v**powers[e] * polys[e], e = a, b, c, d, with powers 0 or 1."""
    grid = np.zeros((4, len(polys[0]) + 1), F.dtype)
    for row, k, codes in zip(grid, powers, polys):
        row[k : k + len(codes)] = codes
    return grid


def code_matrices(F: GF, codes) -> Mat2:
    """The draws of an (N, 4, L) code array as one Mat2: the matrix itself for one, their stack for more.

    When v divides the lower-left entry of every draw, as in every descent-removed
    draw, that entry is one product v * c for the whole stack: on `verify --p 3 --f 2`
    the only `Series.__mul__` calls, which the benchmark's `series.mul` span needs (a
    shift waits on ROADMAP items 1 and 17).
    """
    a, b, c, d = codes[0] if len(codes) == 1 else codes.swapaxes(0, 1)
    if c[..., 0].any():
        c = Series(F, "v", 0, c)
    else:
        c = Series(F, "v", 1, np.ones(c.shape[:-1] + (1,), F.dtype)) * Series(F, "v", 0, c[..., 1:])
    return Mat2(Series(F, "v", 0, a), Series(F, "v", 0, b), c, Series(F, "v", 0, d))


def random_series(rng: random.Random, F: GF, degree: int, unit: bool = False) -> Series:
    return Series(F, "v", 0, _codes(rng, F.q, degree, unit))


def draw_unit_matrices(rng: random.Random, F: GF, degree: int, n: int) -> np.ndarray:
    """n matrices over F[[v]] (polynomial entries) with unit determinant, as (n, 4, degree + 1) codes.

    A candidate is decided by a0*d0 != b0*c0.  Each round draws the candidates still
    missing, which n draws in a row draw too, so the stream is theirs."""
    codes, L = np.empty((0, 4, degree + 1), F.dtype), 4 * (degree + 1)
    while len(codes) < n:
        new = np.array(_below(rng, F.q, (n - len(codes)) * L), F.dtype).reshape(-1, 4, degree + 1)
        a, b, c, d = new[:, :, 0].T
        codes = np.concatenate([codes, new[F.MUL[a, d] != F.MUL[b, c]]])
    return codes


def draw_basis_change(rng: random.Random, F: GF, degree: int) -> np.ndarray:
    """Descent-removed change of basis ((x, y), (v z, w)) with unit diagonal, as a 4 x (degree + 2) grid.

    Its determinant has constant term x0*w0, nonzero since x and w are
    drawn as units, so it is always a unit.
    """
    q = F.q
    x = _codes(rng, q, degree, unit=True)
    w = _codes(rng, q, degree, unit=True)
    y = _codes(rng, q, degree)
    z = _codes(rng, q, degree)
    return _grid(F, (x, y, z, w), (0, 0, 1, 0))


def draw_shaped_matrix(rng: random.Random, F: GF, shape: str, degree: int) -> np.ndarray:
    """Descent-removed matrix with prescribed shape and passing determinant, as a 4 x (degree + 2) grid.

    Entry layout ((a, b), (v c, d)); the determinant must be v times a unit.
    The shape puts a factor v in a (I_eta), in d (I_eta') or in both (II),
    so det M = v * det N, where N is M with one v divided out: the first
    column for I_eta, the second row for I_eta' and II.  det N is a unit
    exactly when its constant term is nonzero: a0*d0 != b0*c0 for I_eta
    and I_eta', where a and d are drawn as units, and b0*c0 != 0 for II,
    where v divides N's (0,0) entry.  Sampling rejects until it is.
    """
    if shape not in (SHAPE_I_ETA, SHAPE_I_ETA_PRIME, SHAPE_II):
        raise ValueError(f"unknown shape {shape!r}")
    q, MUL = F.q, F.MUL
    while True:
        b = _codes(rng, q, degree)
        c = _codes(rng, q, degree)
        if shape == SHAPE_II:
            a = _codes(rng, q, degree)
            d = _codes(rng, q, degree)
            if MUL[b[0], c[0]]:
                return _grid(F, (a, b, c, d), (1, 0, 1, 1))
        else:
            a = _codes(rng, q, degree, unit=True)
            d = _codes(rng, q, degree, unit=True)
            if MUL[a[0], d[0]] != MUL[b[0], c[0]]:
                return _grid(F, (a, b, c, d), (1, 0, 1, 0) if shape == SHAPE_I_ETA else (0, 0, 1, 1))


def draw_noshape_matrix(rng: random.Random, F: GF, degree: int) -> np.ndarray:
    """Descent-removed matrix ((a, b), (v c, d)) with unit diagonal, so of no shape: a `draw_basis_change`."""
    return draw_basis_change(rng, F, degree)


def random_unit_matrix(rng: random.Random, F: GF, degree: int) -> Mat2:
    """A matrix over F[[v]] (polynomial entries) with unit determinant (`draw_unit_matrices`)."""
    return code_matrices(F, draw_unit_matrices(rng, F, degree, 1))


def random_basis_change(rng: random.Random, F: GF, degree: int) -> Mat2:
    """Descent-removed unit change of basis ((x, y), (v z, w)) (`draw_basis_change`)."""
    return code_matrices(F, draw_basis_change(rng, F, degree)[None])


def random_shaped_matrix(rng: random.Random, F: GF, shape: str, degree: int) -> Mat2:
    """Descent-removed matrix with prescribed shape and passing determinant (`draw_shaped_matrix`)."""
    return code_matrices(F, draw_shaped_matrix(rng, F, shape, degree)[None])


def random_noshape_matrix(rng: random.Random, F: GF, degree: int) -> Mat2:
    """Descent-removed matrix of no shape (`draw_noshape_matrix`)."""
    return code_matrices(F, draw_noshape_matrix(rng, F, degree)[None])


def random_module(rng: random.Random, tau: TameType, F: GF, shapes, degree: int = 8) -> BKModule:
    """Module with prescribed shape word at indices 0..f-1."""
    A_list = [random_shaped_matrix(rng, F, s, degree) for s in shapes]
    return BKModule(tau, A_list)


def random_component_module(rng: random.Random, tau: TameType, J, F: GF, degree: int = 8) -> BKModule:
    """Random point of the component: B_i * diag(v,1) or diag(1,v) * B_i."""
    J = check_profile(tau, J)
    B = [code_matrices(F, Bi[None]) for Bi in draw_unit_matrices(rng, F, degree, tau.f)]
    return module_from_partial_frobenius(tau, J, B)
