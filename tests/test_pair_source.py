"""The one pair source of the pair-driven `verify` checks.

`verify._pairs` samples pair numbers and decodes each to its type and
profile; only the types are cached.  The construction it replaced, one
tuple of every (type, profile) pair and `rng.sample` over it, is kept here
as the reference: the pairs, their order and the state the generator is
left in must be its.
"""

import random
import tracemalloc

import pytest

from bkshapes import verify
from bkshapes.gf import MAX_TABLE_Q, field
from bkshapes.tametypes import enumerate_profiles, enumerate_types


def reference_pairs(p, f, rng, cap):
    """Every pair as one tuple, and a seeded sample of cap of them when there are more."""
    pairs = tuple((tau, J) for tau in enumerate_types(p, f) for J in enumerate_profiles(tau))
    return list(pairs) if len(pairs) <= cap else rng.sample(pairs, cap)


# (3, 2) takes `random.sample`'s pool branch, (3, 3), (7, 2), (5, 3) and (3, 4) its
# set branch; (5, 1) has 64 pairs, fewer than its cap
@pytest.mark.parametrize("p,f,cap", [(3, 2, 400), (3, 3, 400), (7, 2, 300), (5, 3, 80),
                                     (3, 4, 200), (5, 1, 80)])
def test_pairs_and_field_pairs_are_the_sample_of_every_pair(p, f, cap):
    ref_rng = random.Random(0)
    want = reference_pairs(p, f, ref_rng, cap)
    rng = random.Random(0)
    assert list(verify._pairs(p, f, rng, cap)) == want
    assert rng.getstate() == ref_rng.getstate()

    rng = random.Random(0)
    kept, note = verify._field_pairs(p, f, rng, cap)
    assert kept == [(tau, J, field(p, tau.fprime)) for tau, J in want if p**tau.fprime <= MAX_TABLE_Q]
    skipped = len(want) - len(kept)
    assert note == (f" ({skipped} of {len(want)} pairs skipped: field over the table limit)"
                    if skipped else "")
    assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("p,f", [(5, 1), (3, 2)])
def test_every_pair_leaves_the_generator_untouched(p, f):
    rng = random.Random(0)
    want = reference_pairs(p, f, rng, float("inf"))
    assert list(verify._pairs(p, f)) == want
    assert list(verify._pairs(p, f, rng, None)) == want
    assert list(verify._pairs(p, f, rng, len(want))) == want
    assert rng.getstate() == random.Random(0).getstate()


def test_the_pair_source_holds_the_types_not_the_pairs():
    """At (3, 4) the types take about 9 MiB; a tuple of all 204 800 pairs took 64 MiB."""
    field(3, 4)  # the field's tables are not the pair source's
    verify._types.cache_clear()
    tracemalloc.start()
    try:
        verify._field_pairs(3, 4, random.Random(0), 400)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 16 * 2**20
