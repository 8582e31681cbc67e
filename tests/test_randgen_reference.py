"""The samplers against the determinant-based, Series-drawing code they replaced.

The samplers draw matrices as field codes (`randgen.draw_*`): the rejection
samplers decide a candidate from the constant terms of its codes, and
`draw_basis_change` has no loop, since its determinant's constant term
x0*w0 is never zero.  `randgen.matrices` builds N draws into one Mat2, and
the per-trial samplers are builds of one draw.  The earlier samplers, which
drew Series and computed a full determinant series per candidate, are kept
here as the reference.  From the same seed, both must give matrices with
equal val, prec, dtype and coefficients in every entry and leave the
generator in the same state:

- one matrix per call, over fields of characteristic 2, 3 and 7 and degrees
  0 to 4; degree 0 over F_2 rejects most often;
- stacks of 1, 2 and 50 draws against `Mat2.stack` of the reference's
  matrices (one draw against the matrix itself), over F_2, F_4, F_9, F_27
  and F_49 and degrees 0 to 6, including draws with zero constant terms and
  all-zero entries, and stacks whose entry is zero in every member.

No candidate may compute a determinant.

Every value is read by `randgen._below`, which reads the generator's words as
`randrange` does.  It is held to `randrange` for every field size q up to
MAX_TABLE_Q and every q - 1, and `draw_unit_matrices` is held to n reference
draws in a row, over fields of characteristic 2, 3 and 7, where q a power of
two rejects half the words read.
"""

import collections
import random

import pytest

from bkshapes import randgen
from bkshapes.gf import MAX_TABLE_Q, field
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


def ref_random_noshape_matrix(rng, F, degree):
    v = Series.monomial(F, "v", 1, 1)
    a = ref_random_series(rng, F, degree, unit=True)
    d = ref_random_series(rng, F, degree, unit=True)
    return Mat2(a, ref_random_series(rng, F, degree), v * ref_random_series(rng, F, degree), d)


# -- the comparison ------------------------------------------------------------------


def _entries(M):
    return [(s.scale, s.val, s.prec, s.coeffs.dtype, s.coeffs.tolist()) for s in M.e]


def _samplers(F, degree):
    """(name, engine draw, reference draw) for each sampler and shape."""
    yield "unit", (lambda rng: randgen.random_unit_matrix(rng, F, degree),
                   lambda rng: ref_random_unit_matrix(rng, F, degree))
    yield "basis", (lambda rng: randgen.random_basis_change(rng, F, degree),
                    lambda rng: ref_random_basis_change(rng, F, degree))
    yield "noshape", (lambda rng: randgen.random_noshape_matrix(rng, F, degree),
                      lambda rng: ref_random_noshape_matrix(rng, F, degree))
    for shape in SHAPES:
        yield shape, (lambda rng, s=shape: randgen.random_shaped_matrix(rng, F, s, degree),
                      lambda rng, s=shape: ref_random_shaped_matrix(rng, F, s, degree))


def _draws(F, degree):
    """(name, (draw, reference sampler)) for each draw and shape, and for mixed shapes."""
    yield "unit", (lambda rng: [(0, e.tolist()) for e in randgen.draw_unit_matrices(rng, F, degree, 1)[0]],
                   lambda rng: ref_random_unit_matrix(rng, F, degree))
    yield "basis", (lambda rng: randgen.draw_basis_change(rng, F, degree),
                    lambda rng: ref_random_basis_change(rng, F, degree))
    yield "noshape", (lambda rng: randgen.draw_noshape_matrix(rng, F, degree),
                      lambda rng: ref_random_noshape_matrix(rng, F, degree))
    for shape in SHAPES:
        yield shape, (lambda rng, s=shape: randgen.draw_shaped_matrix(rng, F, s, degree),
                      lambda rng, s=shape: ref_random_shaped_matrix(rng, F, s, degree))
    # a shape drawn per member, as `verify` draws them: members differ in their v-powers
    yield "mixed", (lambda rng: randgen.draw_shaped_matrix(rng, F, rng.choice(SHAPES), degree),
                    lambda rng: ref_random_shaped_matrix(rng, F, rng.choice(SHAPES), degree))


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


STACK_FIELDS = [(2, 1), (2, 2), (3, 2), (3, 3), (7, 2)]  # F_2, F_4, F_9, F_27, F_49
STACK_SIZES = (1, 2, 50)


@pytest.mark.parametrize("p,m", STACK_FIELDS, ids=[f"F{p}^{m}" for p, m in STACK_FIELDS])
def test_stacks_built_from_draws_match_the_reference(p, m):
    F = field(p, m)
    seen = collections.Counter()
    for degree in range(7):
        for name, (draw, ref_draw) in _draws(F, degree):
            for n in STACK_SIZES:
                for seed in range(2):
                    rng, ref_rng = random.Random(seed), random.Random(seed)
                    draws = [draw(rng) for _ in range(n)]
                    want = [ref_draw(ref_rng) for _ in range(n)]
                    got = randgen.matrices(F, draws)
                    want = want[0] if n == 1 else Mat2.stack(want)
                    assert _entries(got) == _entries(want), (name, degree, n, seed)
                    assert rng.random() == ref_rng.random(), (name, degree, n, seed)
                    for _, codes in (entry for D in draws for entry in D):
                        seen["zero constant term"] += codes[0] == 0
                        seen["all-zero entry"] += not any(codes)
    assert seen["zero constant term"] and seen["all-zero entry"], seen


@pytest.mark.parametrize("n", STACK_SIZES)
def test_stacks_of_zero_entries(n):
    """Entries zero in every member, at v-power 0 and 1, and at the lower left, whose v
    factor is then a product with an empty stack: the stack of the entries as single series."""
    F = field(3, 2)
    zero, poly = [0, 0, 0], [0, 5, 0, 1]
    draws = [((0, zero), (1, zero), (1, zero), (0, poly)), ((1, zero), (0, poly), (0, zero), (3, zero))]
    for D in draws:
        want = [Mat2(*(Series(F, "v", k, codes) for k, codes in D))] * n
        assert _entries(randgen.matrices(F, [D] * n)) == _entries(want[0] if n == 1 else Mat2.stack(want))


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


def test_randbelow_reads_getrandbits():
    """The property `_below` relies on: randrange(q) reads getrandbits(q.bit_length()) until below q."""
    assert random.Random._randbelow is random.Random._randbelow_with_getrandbits


def _field_sizes(limit):
    """Every prime power up to limit."""
    primes = [p for p in range(2, limit + 1) if all(p % d for d in range(2, int(p**0.5) + 1))]
    return sorted(p**m for p in primes for m in range(1, limit.bit_length()) if p**m <= limit)


def test_below_reads_as_randrange():
    """Every field size q that GF builds and every q - 1, down to 1: F_2's unit draws read
    words until one has a 0 bit."""
    sizes = _field_sizes(MAX_TABLE_Q)
    assert 2 in sizes and 4096 in sizes and 2187 in sizes and 4095 not in sizes
    for q in sizes:
        for bound in (q, q - 1):
            for n in (1, 5, 1000):
                rng, ref_rng = random.Random(repr((bound, n))), random.Random(repr((bound, n)))
                assert randgen._below(rng, bound, n) == [ref_rng.randrange(bound) for _ in range(n)], (bound, n)
                assert rng.getstate() == ref_rng.getstate(), (bound, n)


UNIT_FIELDS = [(2, 1), (2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (7, 2), (3, 4)]  # F_2 ... F_81


@pytest.mark.parametrize("p,m", UNIT_FIELDS, ids=[f"F{p}^{m}" for p, m in UNIT_FIELDS])
def test_unit_matrix_arrays_match_the_reference(p, m):
    """n unit matrices drawn as one code array are n reference draws in a row."""
    F = field(p, m)
    for degree in range(7):
        for n in (1, 2, 50, 137):
            rng, ref_rng = random.Random(repr((degree, n))), random.Random(repr((degree, n)))
            codes = randgen.draw_unit_matrices(rng, F, degree, n)
            assert codes.shape == (n, 4, degree + 1) and codes.dtype == F.dtype
            want = [ref_random_unit_matrix(ref_rng, F, degree) for _ in range(n)]
            want = want[0] if n == 1 else Mat2.stack(want)
            assert _entries(randgen.code_matrices(F, codes)) == _entries(want), (degree, n)
            assert rng.getstate() == ref_rng.getstate(), (degree, n)
