"""Seeded random generators for series, unit matrices, and shaped modules.

`run_suite` seeds each randomized `verify` check with its own random.Random,
from repr((seed, name)), so one seed reproduces every check bit for bit.

A matrix is first drawn as field codes, each read by `_below`.  A draw is four
entries (a, b, c, d), laid out ((a, b), (c, d)), and each entry is a pair
(k, codes): the polynomial sum(codes[j] * v**j) times v**k.  The v-power of an
entry is recorded, never multiplied in.  The rejection samplers decide a
candidate from the constant terms of its codes, so a rejected candidate builds
no Series.  `matrices` builds N draws into one Mat2: the matrix itself for one
draw, their stack for several.  Unit matrices are drawn N at a time as one code
array, built by `code_matrices`.  The per-trial samplers (`random_unit_matrix`,
...) are builds of one draw, so each distribution is defined once, by its `draw_*`.
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


def _entry(F: GF, members) -> Series:
    """The members' entries: one series for one member, else a stack.

    Each member (k, codes) fills its row from position k; Series trims the
    columns that are zero in every member, so the stack is the one
    `Series.stack` builds from the members as single series.
    """
    lo = min(k for k, _ in members)
    hi = max(k + len(codes) for k, codes in members)
    rows = [[0] * (k - lo) + codes + [0] * (hi - k - len(codes)) for k, codes in members]
    return Series(F, "v", lo, rows if len(rows) > 1 else rows[0])


def matrices(F: GF, draws) -> Mat2:
    """The drawn matrices as one Mat2: the matrix itself for one draw, their stack for more.

    A descent-removed draw ((a, b), (v c, d)) carries a factor v on its
    lower-left entry.  When every draw does, that entry is built as one
    product v * c for the whole stack.
    """
    a, b, c, d = zip(*draws)
    if min(k for k, _ in c) >= 1:
        c = _entry(F, [(k - 1, codes) for k, codes in c])
        c = Series(F, "v", 1, np.ones(c.coeffs.shape[:-1] + (1,), F.dtype)) * c
    else:
        c = _entry(F, c)
    return Mat2(_entry(F, a), _entry(F, b), c, _entry(F, d))


def code_matrices(F: GF, codes) -> Mat2:
    """`matrices` of draws at v-power 0 given as an (N, 4, L) code array, entries a, b, c, d."""
    return Mat2(*(Series(F, "v", 0, codes[0, e] if len(codes) == 1 else codes[:, e]) for e in range(4)))


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


def draw_basis_change(rng: random.Random, F: GF, degree: int):
    """Descent-removed change of basis ((x, y), (v z, w)) with unit diagonal, as a draw.

    Its determinant has constant term x0*w0, nonzero since x and w are
    drawn as units, so it is always a unit.
    """
    q = F.q
    x = _codes(rng, q, degree, unit=True)
    w = _codes(rng, q, degree, unit=True)
    y = _codes(rng, q, degree)
    z = _codes(rng, q, degree)
    return (0, x), (0, y), (1, z), (0, w)


def draw_shaped_matrix(rng: random.Random, F: GF, shape: str, degree: int):
    """Descent-removed matrix with prescribed shape and passing determinant, as a draw.

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
                return (1, a), (0, b), (1, c), (1, d)
        else:
            a = _codes(rng, q, degree, unit=True)
            d = _codes(rng, q, degree, unit=True)
            if MUL[a[0], d[0]] != MUL[b[0], c[0]]:
                ka, kd = (1, 0) if shape == SHAPE_I_ETA else (0, 1)
                return (ka, a), (0, b), (1, c), (kd, d)


def draw_noshape_matrix(rng: random.Random, F: GF, degree: int):
    """Descent-removed matrix ((a, b), (v c, d)) with unit diagonal, so of no shape, as a draw."""
    q = F.q
    a = _codes(rng, q, degree, unit=True)
    d = _codes(rng, q, degree, unit=True)
    b = _codes(rng, q, degree)
    c = _codes(rng, q, degree)
    return (0, a), (0, b), (1, c), (0, d)


def random_unit_matrix(rng: random.Random, F: GF, degree: int) -> Mat2:
    """A matrix over F[[v]] (polynomial entries) with unit determinant (`draw_unit_matrices`)."""
    return code_matrices(F, draw_unit_matrices(rng, F, degree, 1))


def random_basis_change(rng: random.Random, F: GF, degree: int) -> Mat2:
    """Descent-removed unit change of basis ((x, y), (v z, w)) (`draw_basis_change`)."""
    return matrices(F, [draw_basis_change(rng, F, degree)])


def random_shaped_matrix(rng: random.Random, F: GF, shape: str, degree: int) -> Mat2:
    """Descent-removed matrix with prescribed shape and passing determinant (`draw_shaped_matrix`)."""
    return matrices(F, [draw_shaped_matrix(rng, F, shape, degree)])


def random_noshape_matrix(rng: random.Random, F: GF, degree: int) -> Mat2:
    """Descent-removed matrix of no shape (`draw_noshape_matrix`)."""
    return matrices(F, [draw_noshape_matrix(rng, F, degree)])


def random_module(rng: random.Random, tau: TameType, F: GF, shapes, degree: int = 8) -> BKModule:
    """Module with prescribed shape word at indices 0..f-1."""
    A_list = [random_shaped_matrix(rng, F, s, degree) for s in shapes]
    return BKModule(tau, A_list)


def random_component_module(rng: random.Random, tau: TameType, J, F: GF, degree: int = 8) -> BKModule:
    """Random point of the component: B_i * diag(v,1) or diag(1,v) * B_i."""
    J = check_profile(tau, J)
    B = [code_matrices(F, Bi[None]) for Bi in draw_unit_matrices(rng, F, degree, tau.f)]
    return module_from_partial_frobenius(tau, J, B)
