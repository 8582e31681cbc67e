import itertools

import pytest

from bkshapes.hodge import (
    ForcedChoiceError,
    as_hodge,
    find_type_profile,
    hodge_equiv,
    hodge_type_of,
)
from bkshapes.tametypes import CUSPIDAL, is_transition


def canonical_types(p, f):
    for gaps in itertools.product(range(p + 1), repeat=f):
        if all(g == p for g in gaps):
            continue
        yield as_hodge(tuple((g, 0) for g in gaps))


@pytest.mark.parametrize("p,f", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_roundtrip_exhaustive(p, f):
    for r in canonical_types(p, f):
        tau, J = find_type_profile(r, p)
        assert hodge_equiv(r, hodge_type_of(tau, J), p)


def test_rejects_steinberg_and_unbounded():
    with pytest.raises(ValueError):
        find_type_profile(((3, 0), (3, 0)), 3)
    with pytest.raises(ValueError):
        find_type_profile(((4, 0), (1, 0)), 3)


def test_rejects_non_string_preferences():
    with pytest.raises(ValueError, match="unknown preference True"):
        find_type_profile(((2, 0),), 5, {0: True})


def test_forced_transition_f1():
    with pytest.raises(ForcedChoiceError) as exc:
        find_type_profile(((1, 0),), 3, {0: "non-transition"})
    assert exc.value.forced == "transition"
    # without the constraint the construction succeeds (cuspidal escape)
    tau, J = find_type_profile(((1, 0),), 3)
    assert tau.kind == CUSPIDAL


def test_forced_non_transition_pattern():
    p = 3
    # gaps (p-1, 0): j = 0 free, j+1 forced transition, no room elsewhere
    with pytest.raises(ForcedChoiceError) as exc:
        find_type_profile(((p - 1, 0), (0, 0)), p, {0: "transition"})
    assert exc.value.forced == "non-transition"
    # f = 3 version: gaps (p-1, 0, p)
    with pytest.raises(ForcedChoiceError):
        find_type_profile(((p - 1, 0), (0, 0), (p, 0)), p, {0: "transition"})


def test_constraint_contradicting_forced_gap():
    # gap 0 forces a transition; gap p forces a non-transition
    with pytest.raises(ForcedChoiceError):
        find_type_profile(((0, 0), (2, 0)), 3, {0: "non-transition"})
    with pytest.raises(ForcedChoiceError):
        find_type_profile(((3, 0), (2, 0)), 3, {0: "transition"})


@pytest.mark.parametrize("p,f", [(3, 2), (3, 3)])
def test_exception_patterns_are_exactly_two(p, f):
    """Constrained construction fails exactly on the two published patterns."""
    for r in canonical_types(p, f):
        gaps = tuple(a - b for a, b in r)
        for j in range(f):
            if not 1 <= gaps[j] <= p - 1:
                continue
            for pref in ("transition", "non-transition"):
                expected_fail = (f == 1 and gaps[j] == 1 and pref == "non-transition") or (
                    f >= 2
                    and pref == "transition"
                    and gaps[j] == p - 1
                    and gaps[(j + 1) % f] == 0
                    and all(gaps[i] == p for i in range(f) if i not in (j, (j + 1) % f))
                )
                try:
                    tau, J = find_type_profile(r, p, {j: pref})
                    assert not expected_fail, (gaps, j, pref)
                    assert hodge_equiv(r, hodge_type_of(tau, J), p)
                    assert is_transition(J, j, tau.fprime) == (pref == "transition")
                except ForcedChoiceError:
                    assert expected_fail, (gaps, j, pref)


def test_default_prefers_non_transitions():
    # all gaps strictly inside (0, p): every index free, default keeps J constant
    tau, J = find_type_profile(((2, 0), (2, 0)), 5)
    assert all(not is_transition(J, i, tau.fprime) for i in range(tau.f))
