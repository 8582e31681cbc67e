"""The per-pair recipe path and the sweep row codec against the code they replaced.

`sweep` tabulates, for every (type, profile) pair, the recipe (`profile_data`)
and the canonical Hodge type (`hodge_type_of`), and `sweep --out` reads its
table back through `parse_row`.  These paths were rewritten for speed with
the algorithm unchanged: list comprehensions in place of generator
expressions, a named-tuple recipe record, a type that holds its own hash,
no re-validation of pairs the recipe has just built, and row codecs that
format with `%d` and parse with `map(int, ...)`.  The earlier code is kept
here as the reference.  On every pair at (3,1), (5,1), (3,2), (5,2), (7,2)
and (3,3), and on a seeded sample of 2 000 pairs at (3,4) and (5,3), the
engine must give the reference's profiles, recipes, Hodge types, rows and
row bytes; malformed profiles and rows must raise the same exceptions.
"""

import random
from dataclasses import dataclass

import numpy as np
import pytest

from bkshapes import io
from bkshapes.charexp import NormDescentError, collapse_exponents, collapse_weights, factor_through_norm
from bkshapes.hodge import canonical_hodge, hodge_type_of, hodge_type_of_raw
from bkshapes.tametypes import (
    CUSPIDAL,
    PRINCIPAL,
    check_profile,
    enumerate_profiles,
    enumerate_types,
    profile_data,
    profile_mask,
    type_from_gamma,
)

# -- the reference: the recipe path and the row codec as they were ---------------


def ref_digit_tuple(residue, p, m):
    r = residue % (p**m - 1)
    return tuple(r // w % p for w in collapse_weights(p, m))


def ref_check_profile(tau, members):
    J = frozenset(i % tau.fprime for i in members)
    if tau.kind == CUSPIDAL and any((i in J) == (i + tau.f in J) for i in range(tau.f)):
        raise ValueError(f"{sorted(J)} is not a valid profile for a {tau.kind} type")
    return J


@dataclass(frozen=True)
class RefProfileData:
    tau: object
    J: frozenset
    s: tuple
    t: tuple
    theta: tuple
    bad_set: frozenset

    @property
    def in_P_tau(self):
        return not self.bad_set


def ref_profile_data(tau, J):
    J = ref_check_profile(tau, J)
    p, f, fp = tau.p, tau.f, tau.fprime
    s, t = zip(*(cases[2 * ((i - 1) % fp in J) + (i in J)] for i, cases in enumerate(tau.cases)))
    lift = (tau.eta_prime + sum(a * w for a, w in zip(t, tau.weights))) % tau.estep
    if tau.kind == PRINCIPAL:
        theta_res = lift
    else:
        theta_res = factor_through_norm(lift, p, f)
        if theta_res is None:
            raise NormDescentError("Theta_J does not factor through the norm; recipe invariant broken")
    theta = ref_digit_tuple(theta_res, p, f)
    bad = frozenset(i for i in range(f) if s[i] == -1)
    return RefProfileData(tau=tau, J=J, s=s, t=t, theta=theta, bad_set=bad)


def ref_as_hodge(pairs):
    out = tuple((int(a), int(b)) for a, b in pairs)
    for a, b in out:
        if a < b:
            raise ValueError(f"pair ({a},{b}) is not weakly decreasing")
    return out


def ref_canonical_hodge(r, p):
    f = len(r)
    low = ref_digit_tuple(collapse_exponents([b for _, b in r], p, f), p, f)
    return tuple((lo + a - b, lo) for lo, (a, b) in zip(low, r))


def ref_hodge_type_of_raw(tau, J):
    pd = ref_profile_data(tau, J)
    return ref_as_hodge((1 - th, -s - th) for th, s in zip(pd.theta, pd.s))


def ref_hodge_type_of(tau, J):
    return ref_canonical_hodge(ref_hodge_type_of_raw(tau, J), tau.p)


def ref_row(tau, J):
    pd = ref_profile_data(tau, J)
    return {
        "p": tau.p,
        "f": tau.f,
        "kind": "PS" if tau.kind == PRINCIPAL else "C",
        "eta": tau.eta,
        "eta_prime": tau.eta_prime,
        "profile": sum(1 << i for i in pd.J),
        "s": pd.s,
        "t": pd.t,
        "theta": pd.theta,
        "bad": tuple(sorted(pd.bad_set)),
        "P_tau": int(pd.in_P_tau),
        "hodge": ref_hodge_type_of(tau, J),
    }


def ref_fmt_ints(xs):
    return ",".join(str(int(x)) for x in xs) if xs else "-"


def ref_parse_ints(s):
    return () if s in ("-", "") else tuple(int(x) for x in s.split(","))


def ref_fmt_pairs(pairs):
    return ";".join(f"{a},{b}" for a, b in pairs)


def ref_parse_pairs(s):
    return tuple(tuple(int(x) for x in part.split(",")) for part in s.split(";"))


def ref_format_row(row):
    return (
        f"p={row['p']} f={row['f']} kind={row['kind']} eta={row['eta']}"
        f" eta_prime={row['eta_prime']} profile={row['profile']}"
        f" s={ref_fmt_ints(row['s'])} t={ref_fmt_ints(row['t'])} theta={ref_fmt_ints(row['theta'])}"
        f" bad={ref_fmt_ints(row['bad'])} P_tau={row['P_tau']} hodge={ref_fmt_pairs(row['hodge'])}"
    )


def ref_parse_row(line):
    kv = dict(part.split("=", 1) for part in line.split())
    return {
        "p": int(kv["p"]),
        "f": int(kv["f"]),
        "kind": kv["kind"],
        "eta": int(kv["eta"]),
        "eta_prime": int(kv["eta_prime"]),
        "profile": int(kv["profile"]),
        "s": ref_parse_ints(kv["s"]),
        "t": ref_parse_ints(kv["t"]),
        "theta": ref_parse_ints(kv["theta"]),
        "bad": ref_parse_ints(kv["bad"]),
        "P_tau": int(kv["P_tau"]),
        "hodge": ref_parse_pairs(kv["hodge"]),
    }


# -- the comparisons ---------------------------------------------------------------

EVERY_PAIR = [(3, 1), (5, 1), (3, 2), (5, 2), (7, 2), (3, 3)]
SAMPLED = [(3, 4), (5, 3)]
KINDS = [PRINCIPAL, CUSPIDAL]


def _record(pd):
    return (pd.tau, pd.J, pd.s, pd.t, pd.theta, pd.bad_set, pd.in_P_tau)


def _assert_pair_matches(tau, J):
    ref = ref_profile_data(tau, J)
    assert check_profile(tau, J) == ref.J, (tau, J)
    assert _record(profile_data(tau, J)) == _record(ref), (tau, J)
    assert hodge_type_of_raw(tau, J) == ref_hodge_type_of_raw(tau, J), (tau, J)
    assert hodge_type_of(tau, J) == ref_hodge_type_of(tau, J), (tau, J)
    row = ref_row(tau, J)
    assert profile_mask(tau, J) == row["profile"], (tau, J)
    line = ref_format_row(row)
    assert io.format_row(row) == line, (tau, J)
    assert io.parse_row(line) == ref_parse_row(line) == row, line
    return row


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p,f", EVERY_PAIR)
def test_every_pair_and_row_matches_the_reference(p, f, kind):
    types = enumerate_types(p, f, kinds=(kind,))
    want = [_assert_pair_matches(tau, J) for tau in types for J in enumerate_profiles(tau)]
    # the profiles of a type in mask order, as the reference built them
    for tau in types[:: max(1, len(types) // 50)]:
        masks = range(2**f)
        half = [{i for i in range(f) if m >> i & 1} for m in masks]
        if kind == CUSPIDAL:
            half = [h | {i + f for i in range(f) if i not in h} for h in half]
        assert enumerate_profiles(tau) == [frozenset(h) for h in half]
    code = "PS" if kind == PRINCIPAL else "C"
    rows = [row for row in io.sweep_rows(p, f) if row["kind"] == code]
    want.sort(key=lambda r: (r["kind"], r["eta"], r["eta_prime"], r["profile"]))
    assert rows == want
    assert [io.format_row(r) for r in rows] == [ref_format_row(r) for r in want]


@pytest.mark.parametrize("p,f", SAMPLED)
def test_a_seeded_sample_matches_the_reference(p, f):
    types = enumerate_types(p, f)
    rng = random.Random(f"recipe-reference-{p}-{f}")
    for k in rng.sample(range(len(types) * 2**f), 2000):
        tau = types[k >> f]
        _assert_pair_matches(tau, enumerate_profiles(tau)[k % 2**f])


@pytest.mark.parametrize("p,f", [(3, 2), (5, 2), (3, 3)])
def test_the_sweep_table_reads_back_as_the_reference_reads_it(p, f):
    text = io.write_sweep(p, f)
    lines = text.splitlines()
    assert io.read_sweep(text) == [ref_parse_row(ln) for ln in lines[1:]] == io.sweep_rows(p, f)


def test_profiles_given_unreduced_or_invalid_match_the_reference():
    for p, f in [(3, 1), (3, 2), (5, 2), (3, 3)]:
        for tau in enumerate_types(p, f)[::37]:
            fp = tau.fprime
            for J in enumerate_profiles(tau):
                for members in (set(J), sorted(J), [i + fp for i in J], [i - 2 * fp for i in J]):
                    assert check_profile(tau, members) == ref_check_profile(tau, members)
                    assert _record(profile_data(tau, members)) == _record(ref_profile_data(tau, members))
            if tau.kind != CUSPIDAL:
                continue
            for members in ([], [0], [0, f], list(range(fp)), [0, f, 1], list(range(f + 1))):
                with pytest.raises(ValueError) as got:
                    check_profile(tau, members)
                with pytest.raises(ValueError) as want:
                    ref_check_profile(tau, members)
                assert str(got.value) == str(want.value)


def test_canonical_hodge_matches_the_reference_on_arbitrary_pairs():
    rng = random.Random("canonical-hodge")
    for p in (2, 3, 5, 7):
        for f in (1, 2, 3, 4):
            for _ in range(200):
                r = tuple((b + rng.randint(0, p + 2), b) for b in (rng.randint(-30, 30) for _ in range(f)))
                assert canonical_hodge(r, p) == ref_canonical_hodge(r, p), (r, p)
    for gamma in ((1, 0), (2, 1), (0, 2)):
        tau = type_from_gamma(3, 2, PRINCIPAL, gamma)
        for J in enumerate_profiles(tau):
            raw = hodge_type_of_raw(tau, J)
            assert canonical_hodge(raw, 3) == ref_canonical_hodge(raw, 3)


def test_int_lists_and_pairs_format_as_the_reference():
    cases = [(), [], (0,), (1, -1, 0), [3, 12, -7], tuple(np.arange(-3, 4)), (True, False),
             (np.int64(5), np.int8(-2)), (2.7, -2.7), [10**30, -(10**30)]]
    for xs in cases:
        assert io._fmt_ints(xs) == ref_fmt_ints(xs), xs
    for pairs in [((3, 1), (5, 2)), ((0, 0),), ((np.int64(4), -1), (2, True))]:
        assert io._fmt_pairs(pairs) == ref_fmt_pairs(pairs), pairs
    for text in ("-", "", "0", "1,-1,0", " 3, 4", "007,-0"):
        assert io._parse_ints(text) == ref_parse_ints(text), text
    for text in ("3,1;5,2", "0,0", "1,2,3;4", "-1,-2"):
        assert io._parse_pairs(text) == ref_parse_pairs(text), text


def _line():
    tau = type_from_gamma(3, 3, CUSPIDAL, (1, 0, 2))
    return ref_format_row(ref_row(tau, enumerate_profiles(tau)[5]))


def test_rows_with_shuffled_or_extra_keys_parse_as_the_reference():
    line = _line()
    tokens = line.split()
    rng = random.Random("shuffled-row")
    for _ in range(20):
        rng.shuffle(tokens)
        shuffled = " ".join(tokens)
        assert io.parse_row(shuffled) == ref_parse_row(shuffled) == ref_parse_row(line)
    extra = f"{line} note=x=y extra= {tokens[0]}"
    assert io.parse_row(extra) == ref_parse_row(extra)
    assert io.parse_row("  " + line.replace(" ", "\t") + "\n") == ref_parse_row(line)


def _raised(fn, line):
    try:
        fn(line)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return None


def test_malformed_rows_raise_as_the_reference():
    line = _line()
    tokens = line.split()
    bad = []
    for k, tok in enumerate(tokens):
        key = tok.split("=", 1)[0]
        rest = tokens[:k] + tokens[k + 1:]
        bad.append(" ".join(rest))                             # a missing key
        if key != "kind":
            bad.append(" ".join(rest + [f"{key}=x"]))          # a non-integer field
            bad.append(" ".join(rest + [f"{key}=1.5"]))
    bad += [line + " orphan", "", "p=3", line.replace("hodge=", "hodge=;")]
    for text in bad:
        want = _raised(ref_parse_row, text)
        assert want is not None, text
        assert _raised(io.parse_row, text) is want, text
