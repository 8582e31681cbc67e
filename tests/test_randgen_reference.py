"""The rejection samplers against the determinant-based code they replaced.

`random_unit_matrix` and `random_shaped_matrix` decide acceptance from
constant terms (`Mat2.has_unit_det` of the matrix, or of the matrix with one
factor v divided out), and `random_basis_change` has no loop, since its
determinant's constant term x0*w0 is never zero.  The earlier samplers,
which computed a full determinant series per candidate, are kept here as the
reference.  From the same seed, both must return matrices with equal val,
prec and coefficients in every entry and leave the generator in the same
state, over fields of characteristic 2, 3 and 7 and degrees 0 to 4; degree
0 over F_2 rejects most often.  No candidate may compute a determinant.
"""

import random

import pytest

from bkshapes import randgen
from bkshapes.gf import field
from bkshapes.phimod import SHAPE_I_ETA, SHAPE_I_ETA_PRIME, SHAPE_II
from bkshapes.series import Mat2, Series

SHAPES = (SHAPE_I_ETA, SHAPE_I_ETA_PRIME, SHAPE_II)
FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (7, 2)]  # F_2 ... F_49
DEGREES = range(5)
SEEDS = range(8)
DRAWS = 4  # matrices drawn in a row from one generator

# -- the reference: the samplers as they were ----------------------------------


def ref_random_series(rng, F, degree, unit=False):
    coeffs = [rng.randrange(F.q) for _ in range(degree + 1)]
    if unit:
        coeffs[0] = rng.randrange(1, F.q)
    return Series(F, "v", 0, coeffs)


def ref_random_unit_matrix(rng, F, degree):
    while True:
        M = Mat2(*(ref_random_series(rng, F, degree) for _ in range(4)))
        det = M.det()
        if not det.is_zero() and det.val == 0:
            return M


def ref_random_basis_change(rng, F, degree):
    x = ref_random_series(rng, F, degree, unit=True)
    w = ref_random_series(rng, F, degree, unit=True)
    y = ref_random_series(rng, F, degree)
    z = ref_random_series(rng, F, degree).shift(1)
    while True:
        M = Mat2(x, y, z, w)
        det = M.det()
        if not det.is_zero() and det.val == 0:
            return M
        x = ref_random_series(rng, F, degree, unit=True)


def ref_random_shaped_matrix(rng, F, shape, degree):
    v = Series.monomial(F, "v", 1, 1)
    while True:
        b = ref_random_series(rng, F, degree)
        c = ref_random_series(rng, F, degree)
        if shape == SHAPE_I_ETA:
            a = v * ref_random_series(rng, F, degree, unit=True)
            d = ref_random_series(rng, F, degree, unit=True)
        elif shape == SHAPE_I_ETA_PRIME:
            a = ref_random_series(rng, F, degree, unit=True)
            d = v * ref_random_series(rng, F, degree, unit=True)
        elif shape == SHAPE_II:
            a = v * ref_random_series(rng, F, degree)
            d = v * ref_random_series(rng, F, degree)
        else:
            raise ValueError(f"unknown shape {shape!r}")
        M = Mat2(a, b, v * c, d)
        det = M.det()
        if not det.is_zero() and det.val == 1:
            return M


# -- the comparison ------------------------------------------------------------------


def _entries(M):
    return [(s.scale, s.val, s.prec, s.coeffs.dtype, s.coeffs.tolist()) for s in M.e]


def _samplers(F, degree):
    """(name, engine draw, reference draw) for each sampler and shape."""
    yield "unit", (lambda rng: randgen.random_unit_matrix(rng, F, degree),
                   lambda rng: ref_random_unit_matrix(rng, F, degree))
    yield "basis", (lambda rng: randgen.random_basis_change(rng, F, degree),
                    lambda rng: ref_random_basis_change(rng, F, degree))
    for shape in SHAPES:
        yield shape, (lambda rng, s=shape: randgen.random_shaped_matrix(rng, F, s, degree),
                      lambda rng, s=shape: ref_random_shaped_matrix(rng, F, s, degree))


@pytest.mark.parametrize("p,m", FIELDS, ids=[f"F{p}^{m}" for p, m in FIELDS])
def test_samplers_match_the_reference(p, m):
    F = field(p, m)
    for degree in DEGREES:
        for name, (draw, ref_draw) in _samplers(F, degree):
            for seed in SEEDS:
                rng, ref_rng = random.Random(seed), random.Random(seed)
                for n in range(DRAWS):
                    got, want = draw(rng), ref_draw(ref_rng)
                    assert _entries(got) == _entries(want), (name, degree, seed, n)
                assert rng.random() == ref_rng.random(), (name, degree, seed)


def test_shaped_matrix_rejects_an_unknown_shape():
    with pytest.raises(ValueError, match="unknown shape"):
        randgen.random_shaped_matrix(random.Random(0), field(3, 1), "III", 2)


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (3, 2)], ids=["F2", "F4", "F3", "F9"])
def test_no_candidate_computes_a_determinant(monkeypatch, p, m):
    """Many draws, with Mat2.det raising: acceptance costs no series product."""

    def det(M):
        raise AssertionError("a sampler computed a determinant")

    monkeypatch.setattr(Mat2, "det", det)
    F = field(p, m)
    rng = random.Random(p * 100 + m)
    for degree in (0, 1, 4):
        for _ in range(50):
            randgen.random_unit_matrix(rng, F, degree)
            randgen.random_basis_change(rng, F, degree)
            for shape in SHAPES:
                randgen.random_shaped_matrix(rng, F, shape, degree)
