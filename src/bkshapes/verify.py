"""The cross-module invariant suite behind the `verify` command.

Each check returns (passed, detail); failures carry a counterexample
string.  A check that raises is reported as crashed with the exception,
a status of its own: a crash is a fault of the program, not a
counterexample.

- Combinatorial checks run exhaustively at desk scale.  The Hodge-side
  ones walk every p-bounded gap tuple (`_gap_types`) and, for the weight
  operators, exactly the moves `hodge.operator_moves` reports as defined.
- The matrix engine checks walk every (type, profile) pair when there are
  at most `cap` of them and a seeded sample otherwise (`_field_pairs`).
  Pairs whose coefficient field F_{p^f'} exceeds the table limit are
  skipped, and the check's detail says how many were skipped.
- The extension checks use the twists (a, b) = (1, 2); `kext-dimension`
  also tries (2, 1).
- `recipe-bounds` is the one place that checks what the recipe computes:
  it restates ell' from eta and eta', and s and t from gamma and J by the
  paper's four cases, instead of reading the type's recipe table.
- `descend-normal-form` and `operator-basis-lifts` hold the exponents and unit-part
  verdicts read off the engine's output to `hodge_type_of_raw` and `apply_operator`;
  the first also checks that ascending undoes descent.
- `operator-basis-lifts`, `shape-invariance` and `strongdet-vs-shape` draw their
  trials as code grids (`randgen.draw_*`) in a trial loop's order and push at most
  STACK of them through the engine as one stack per index, sliced from the array of
  drawn trials and built by `randgen.code_matrices`.
  `extension-shape-law` and `shapeshift-targets` stack each pair's extensions
  (`build_extension`); all report the first failure as a one-at-a-time loop would.

The fault switch corrupts the data under test inside the harness so the
reporting path itself can be exercised.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass, replace

import numpy as np

from .charexp import collapse_exponents, factor_through_norm, lambda_membership
from .gf import MAX_TABLE_Q, field
from .hodge import (
    ForcedChoiceError,
    apply_operator,
    as_hodge,
    diffs,
    find_type_profile,
    hodge_equiv,
    hodge_type_of,
    hodge_type_of_raw,
    irregular_ratio_never_cyclotomic,
    irregular_set,
    is_p_bounded,
    is_steinberg,
    operator_moves,
)
from .intervals import extended, shapeshift_targets
from .linalg import kernel_basis
from .tametypes import (
    CUSPIDAL,
    enumerate_profiles,
    enumerate_types,
    is_transition,
    profile_data,
    serre_weight,
)
from .extensions import (
    ExtensionPoint,
    build_extension,
    kext_dimension,
    kext_obstruction_rows,
    kext_structure,
    splits_after_inverting_u,
)
from .phimod import (
    SHAPE_I_ETA,
    SHAPE_I_ETA_PRIME,
    SHAPE_II,
    BKModule,
    apply_operator_on_basis,
    ascend_from_base,
    change_eigenbasis,
    classify_shape,
    descend_to_base,
    shape_words,
    strong_determinant_ok,
)
from .randgen import (
    code_matrices,
    draw_basis_change,
    draw_noshape_matrix,
    draw_shaped_matrix,
    draw_unit_matrices,
    random_component_module,
)

SHAPES = (SHAPE_I_ETA, SHAPE_I_ETA_PRIME, SHAPE_II)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    crashed: bool = False


def _gap_types(p, f):
    """Every p-bounded gap tuple with its Hodge type ((g_0, 0), ..., (g_{f-1}, 0))."""
    for gaps in itertools.product(range(p + 1), repeat=f):
        yield gaps, as_hodge(tuple((g, 0) for g in gaps))


@functools.lru_cache(maxsize=1)
def _all_pairs(p, f):
    """Every (type, profile) pair at (p, f), built once for all the pair checks of a run."""
    return tuple((tau, J) for tau in enumerate_types(p, f) for J in enumerate_profiles(tau))


def _field_pairs(p, f, rng, cap):
    """(tau, J, F) over every (type, profile) pair, or a seeded sample of cap pairs, and a note.

    Pairs whose coefficient field F_{p^f'} exceeds the table limit are
    skipped; F is that field.  The note, appended to a check's detail,
    counts the skipped pairs and is empty when there are none.
    """
    pairs = _all_pairs(p, f)
    if len(pairs) > cap:
        pairs = rng.sample(pairs, cap)
    kept = [
        (tau, J, field(p, tau.fprime))
        for tau, J in pairs
        if p**tau.fprime <= MAX_TABLE_Q
    ]
    skipped = len(pairs) - len(kept)
    note = f" ({skipped} of {len(pairs)} pairs skipped: field over the table limit)" if skipped else ""
    return kept, note


def _twist_pairs(F):
    """The twist parameters (a, b) of the extension checks: (1, 2), then (2, 1).

    2 mod q is never 1, nor 0 since q = 2 never occurs (no type at p = 2 has
    f' = 1): both pairs are distinct nonzero codes, never an exceptional pair.
    """
    two = 2 % F.q
    return (1, two), (two, 1)


def _extension_point(tau, J, F, h):
    """The extension with twists (1, 2) and class h."""
    a, b = _twist_pairs(F)[0]
    return ExtensionPoint(tau, J, F, a, b, h)


STACK = 50
"""Most trials one engine pass decides: stacks of 200 raise the peak RSS of a whole
`verify --p 3 --f 2` only from 31 MB to 33 MB, and save little time."""


def _first_failing(items, stages):
    """(index, text) of the first failing item, or None; at most STACK items per engine pass.

    stages(chunk) yields, stage by stage, one failure text or false value per item of the
    chunk; they stop once every item has failed, so a lone item runs exactly the stages an
    item-by-item loop would.  A pass that fails or raises is decided again item by item, so
    the first failure is a loop's: one member can fail a stack's others (`read_unit_part`).
    """

    def verdicts(chunk):
        for out in itertools.accumulate(stages(chunk), lambda v, g: [a or b for a, b in zip(v, g)]):
            if all(out):
                break
        return out

    for start in range(0, len(items), STACK):
        chunk = items[start : start + STACK]
        try:
            failed = any(verdicts(chunk))
        except Exception:  # whatever an item raises, a loop would report it as that item's crash
            failed = True
        for t, item in enumerate(chunk if failed else (), start):
            if text := verdicts([item])[0]:
                return t, text
    return None


def _first_failure(rng, trials, draw, stages):
    """'<text> (trial t)' for the first failing trial of `_first_failing`, or None.

    draw(rng) draws one trial's values in the order a trial-by-trial loop
    draws them; a draw that raises does so after the trials drawn before it are decided.
    """
    drawn, error = [], None
    try:
        while len(drawn) < trials:
            drawn.append(draw(rng))
    except Exception as exc:
        error = exc
    if failed := _first_failing(drawn, stages):
        return f"{failed[1]} (trial {failed[0]})"
    if error is not None:
        raise error
    return None


def check_char_relations(p, f, rng, fault=None):
    for m in sorted({f, 2 * f}):
        mod = p**m - 1
        for i in range(m):
            e_next = [0] * m
            e_next[(i + 1) % m] = 1
            e_here = [0] * m
            e_here[i] = 1
            if (collapse_exponents(e_next, p, m) * p) % mod != collapse_exponents(e_here, p, m):
                return False, f"index relation fails at level {m}, i={i}"
    return True, f"levels {sorted({f, 2*f})}"


def check_norm_section(p, f, rng, fault=None):
    big = p ** (2 * f) - 1
    q = p**f
    if big <= 3000:
        residues = list(range(big))
    else:
        # half the sample from the descendable stratum so pairs actually occur
        residues = [rng.randrange(big // (q + 1)) * (q + 1) for _ in range(60)]
        residues += [rng.randrange(big) for _ in range(60)]
    count = 0
    step = max(1, len(residues) // 80)
    for e1 in residues:
        for e2 in residues[::step]:
            t1 = factor_through_norm(e1, p, f)
            t2 = factor_through_norm(e2, p, f)
            t12 = factor_through_norm(e1 + e2, p, f)
            if t1 is not None and t2 is not None:
                if t12 is None:
                    return False, f"sum failed to descend: {e1}+{e2}"
                if (t1 + t2) % (p**f - 1) != t12:
                    return False, f"section not additive at {e1},{e2}"
                count += 1
    return True, f"{count} additive pairs"


def check_lambda_subgroup(p, f, rng, fault=None):
    mod = p**f - 1
    members = []
    space = itertools.product(range(mod), repeat=f)
    if mod**f <= 20000:
        members = [lam for lam in space if lambda_membership(lam, p, f)]
    else:
        while len(members) < 60:
            lam = tuple(rng.randrange(mod) for _ in range(f))
            if lambda_membership(lam, p, f):
                members.append(lam)
    pairs = itertools.product(members, members)
    if len(members) ** 2 > 40000:
        members2 = rng.sample(members, 200)
        pairs = itertools.product(members2, members2)
    n = 0
    for a, b in pairs:
        if not lambda_membership([x + y for x, y in zip(a, b)], p, f):
            return False, f"not closed under addition: {a}+{b}"
        n += 1
    for a in members:
        if not lambda_membership([-x for x in a], p, f):
            return False, f"not closed under negation: {a}"
    return True, f"{len(members)} members, {n} sums"


def check_recipe_bounds(p, f, rng, fault=None):
    rows = 0
    for tau, pairs in itertools.groupby(_all_pairs(p, f), key=operator.itemgetter(0)):
        fp, ep, g = tau.fprime, tau.estep, tau.gamma
        # ell'_i = (eta' - eta) * p**i mod p**f' - 1 by definition, not through the type's
        # own ell_prime, so the type's gamma is checked against its two characters
        ellp = [(tau.eta_prime - tau.eta) * p**i % ep for i in range(fp)]
        if any(p * ellp[i - 1] - ellp[i] != ep * (p - 1 - g[i]) for i in range(fp)):
            return False, f"exponent identity fails for {tau}"
        if tau.kind == CUSPIDAL and any(g[i] + g[i + f] != p - 1 for i in range(f)):
            return False, f"cuspidal gamma pairing fails for {tau}"
        for _, J in pairs:
            pd = profile_data(tau, J)
            s = list(pd.s)
            if fault == "s-flip" and rows == 0:
                s[0] = p + 1
            if min(s) < -1 or max(s) > p - 1:
                return False, f"s out of [-1,p-1] for {tau.key()} J={sorted(J)}: {s}"
            if min(pd.t) < 0 or max(pd.t) > p:
                return False, f"t out of [0,p] for {tau.key()} J={sorted(J)}"
            if s[f:] + s[:f] != s:
                return False, f"s not f-periodic for {tau.key()} J={sorted(J)}"
            # the paper's four cases on (i-1 in J, i in J), not the type's recipe table
            want = [(p - 1 - g[i] - (i not in J), g[i] + (i not in J)) if (i - 1) % fp in J
                    else (g[i] - (i in J), 0) for i in range(fp)]
            if list(zip(s, pd.t)) != want:
                return False, (f"s, t disagree with the recipe's cases for {tau.key()} "
                               f"J={sorted(J)}: got s={s} t={list(pd.t)}, want {want}")
            rows += 1
    return True, f"{rows} (type, profile) pairs"


def check_existence_roundtrip(p, f, rng, fault=None):
    count = 0
    for gaps, r in _gap_types(p, f):
        if is_steinberg(r, p):
            continue
        tau, J = find_type_profile(r, p)
        if not hodge_equiv(r, hodge_type_of(tau, J), p):
            return False, f"roundtrip fails at gaps={gaps}"
        count += 1
    return True, f"{count} canonical types"


def check_remark_exceptions(p, f, rng, fault=None):
    hits = []
    for gaps, r in _gap_types(p, f):
        if is_steinberg(r, p):
            continue
        for j in range(f):
            if not 1 <= gaps[j] <= p - 1:
                continue
            for pref in ("transition", "non-transition"):
                expected_fail = False
                if f == 1 and gaps[j] == 1 and pref == "non-transition":
                    expected_fail = True
                if (
                    f >= 2
                    and gaps[j] == p - 1
                    and gaps[(j + 1) % f] == 0
                    and all(gaps[i] == p for i in range(f) if i not in (j, (j + 1) % f))
                    and pref == "transition"
                ):
                    expected_fail = True
                try:
                    tau, J = find_type_profile(r, p, {j: pref})
                    failed = False
                    if not hodge_equiv(r, hodge_type_of(tau, J), p):
                        return False, f"constrained roundtrip broken at {gaps}, {j}, {pref}"
                    if is_transition(J, j, tau.fprime) != (pref == "transition"):
                        return False, f"preference not honored at {gaps}, {j}, {pref}"
                except ForcedChoiceError:
                    failed = True
                if failed != expected_fail:
                    return False, f"exception pattern mismatch at gaps={gaps}, j={j}, {pref}"
                if expected_fail:
                    hits.append((gaps, j, pref))
    return True, f"{len(hits)} forced patterns found"


def check_convention_coherence(p, f, rng, fault=None):
    n = 0
    for tau, J in _all_pairs(p, f):
        if not profile_data(tau, J).in_P_tau:
            continue
        w = serre_weight(tau, J)
        if not hodge_equiv(as_hodge(w.hodge_pairs()), hodge_type_of(tau, J), p):
            return False, f"weight/type mismatch for {tau.key()} J={sorted(J)}"
        n += 1
    return True, f"{n} good profiles"


def check_cyclotomic_lemma(p, f, rng, fault=None):
    for ff in range(1, f + 1):
        if not irregular_ratio_never_cyclotomic(p, ff):
            return False, f"cyclotomic ratio found at f={ff}"
    return True, f"f up to {f}"


def check_operator_bounded(p, f, rng, fault=None):
    if f < 2:
        return True, "skipped (f=1 has no operators)"
    n = 0
    for gaps, r in _gap_types(p, f):
        for j, kind in operator_moves(r, p):
            if not is_p_bounded(apply_operator(kind, j, r, p), p):
                return False, f"{kind}_{j} left the bounded range at {gaps}"
            n += 1
    return True, f"{n} operator applications"


def check_operator_chain(p, f, rng, fault=None):
    if f < 2:
        return True, "skipped (f=1 has no operators)"
    n = 0
    for j in range(f):
        gaps = [p] * f
        gaps[j] = 0
        gaps[(j - 1) % f] = p - 1
        r = as_hodge(tuple((g, 0) for g in gaps))
        for _ in range(f - 1):
            irr = sorted(irregular_set(r))
            if not irr:
                break
            r = apply_operator("nu", irr[0], r, p)
        if diffs(r) != (1,) * f:
            return False, f"chain did not land on unit gaps from j={j}: {diffs(r)}"
        n += 1
    return True, f"{n} chains"


def check_shape_invariance(p, f, rng, fault=None, trials=200):
    tau = enumerate_types(p, f)[0]
    F = field(p, tau.fprime)

    def draw(rng):
        shapes = [rng.choice(SHAPES) for _ in range(f)]
        A = [draw_shaped_matrix(rng, F, s, 6) for s in shapes]
        return A, [draw_basis_change(rng, F, 5) for _ in range(f)]

    def stages(drawn):
        A, I = zip(*drawn)
        mod = BKModule(tau, [code_matrices(F, Ai) for Ai in np.swapaxes(A, 0, 1)])
        mod2 = change_eigenbasis(mod, [code_matrices(F, Ii) for Ii in np.swapaxes(I, 0, 1)], terms=1)
        yield [w2 != w and "shape changed under unit conjugation"
               for w2, w in zip(shape_words(mod2), shape_words(mod))]

    failure = _first_failure(rng, trials, draw, stages)
    return (False, failure) if failure else (True, f"{trials} trials")


def check_strongdet_shape(p, f, rng, fault=None, trials=200):
    tau = enumerate_types(p, f)[0]
    F = field(p, tau.fprime)

    def draw(rng):
        shapes = tuple(rng.choice(SHAPES) for _ in range(f))
        A = [draw_shaped_matrix(rng, F, s, 6) for s in shapes]
        return shapes, A, [draw_noshape_matrix(rng, F, 6) for _ in range(f)]

    def stages(drawn):
        _, A, N = zip(*drawn)
        mod = BKModule(tau, [code_matrices(F, Ai) for Ai in np.swapaxes(A, 0, 1)])
        yield [not ok and "shaped sample fails the determinant condition"
               for ok in np.ravel(strong_determinant_ok(mod))]
        yield [got != shapes + got[f:] and "classified shape disagrees with construction"
               for (shapes, _, _), got in zip(drawn, shape_words(mod))]
        bad = BKModule(tau, [code_matrices(F, Ni) for Ni in np.swapaxes(N, 0, 1)])
        yield [ok and "shapeless module passed the determinant condition"
               for ok in np.ravel(strong_determinant_ok(bad))]
        yield [None not in w and "shapeless module classified"
               for w in shape_words(bad, partial=True)]

    failure = _first_failure(rng, trials, draw, stages)
    return (False, failure) if failure else (True, f"{trials} trials each way")


def check_descend(p, f, rng, fault=None, cap=400):
    n = 0
    pairs, note = _field_pairs(p, f, rng, cap)
    for tau, J, F in pairs:
        where = f"{tau.key()} J={sorted(J)}"
        mod = random_component_module(rng, tau, J, F, degree=4)
        res = descend_to_base(mod, J)
        for i, (got, want, ok) in enumerate(zip(res.exponents, hodge_type_of_raw(tau, J), res.ok)):
            if not ok or got != want:
                return False, f"normal form fails at {where} i={i}: {got} unit={bool(ok)}, recipe {want}"
        back = ascend_from_base(res)
        for i in range(f):
            if not back.mats[i] == mod.mats[i]:
                return False, f"reconstruction failed at {where} i={i}"
        n += 1
    return True, f"{n} (type, profile) pairs{note}"


def check_operator_basis(p, f, rng, fault=None, trials=50):
    if f < 2:
        return True, "skipped (f=1 has no operators)"
    F = field(p, f)
    n = 0
    for gaps, r in _gap_types(p, f):
        for j, kind in operator_moves(r, p):
            case, target = f"{kind}_{j} at gaps={gaps}", apply_operator(kind, j, r, p)

            def stages(drawn):  # the trials of the case in draw order, one stack per index
                drawn = np.asarray(drawn)
                mats = [code_matrices(F, drawn[:, i]).shifted(cols=r[i]) for i in range(f)]
                _, exps, ok = apply_operator_on_basis(mats, r, kind, j, p, terms=2)
                lifts = tuple(tuple(sorted(e, reverse=True)) for e in exps) == target
                yield [not (good and lifts) and ("exponent mismatch " if good else "unit part lost ") + case
                       for good in np.ravel(ok)]

            draws = draw_unit_matrices(rng, F, 4, trials * f).reshape(trials, f, 4, -1)
            if failed := _first_failing(draws, stages):
                return False, f"{failed[1]} (trial {failed[0]})"
            n += trials
    return True, f"{n} lifts"


def check_extension_shape_law(p, f, rng, fault=None, cap=200):
    pairs, note = _field_pairs(p, f, rng, cap)
    classes = list(itertools.product((0, 1), repeat=f))
    for tau, J, F in pairs:
        where, fp = f"{tau.key()} J={sorted(J)}", tau.fprime
        law = [is_transition(J, i, fp) for i in range(fp)]  # II exactly at these, where h_i = 0

        def stages(hs):
            mod = build_extension(*(_extension_point(tau, J, F, h) for h in hs))
            yield [not ok and f"extension fails determinant at {where}"
                   for ok in np.ravel(strong_determinant_ok(mod))]
            got = classify_shape(mod) if len(hs) > 1 else [classify_shape(mod)]
            yield [next((f"shape law broken at {where} h={h} i={i}" for i in range(fp)
                         if (shapes[i] == SHAPE_II) != (law[i] and h[i % f] == 0)), None)
                   for h, (shapes, _) in zip(hs, got)]
            yield [J not in profs and f"extension escaped its component at {where}"
                   for _, profs in got]

        if failed := _first_failing(classes, stages):
            return False, failed[1]
    return True, f"{len(pairs) * len(classes)} extensions{note}"


def check_kext_dimension(p, f, rng, fault=None, cap=400):
    n = 0
    pairs, note = _field_pairs(p, f, rng, cap)
    for tau, J, F in pairs:
        pd = profile_data(tau, J)
        for a, b in _twist_pairs(F):
            d = kext_dimension(tau, J, a, b, F)
            if d != len(pd.bad_set):
                return False, (
                    f"kext dimension {d} != |bad set| {len(pd.bad_set)}"
                    f" at {tau.key()} J={sorted(J)} a={a} b={b}"
                )
            n += 1
    return True, f"{n} computations{note}"


def check_split_closure(p, f, rng, fault=None, samples=40):
    found = negatives = 0
    pairs, note = _field_pairs(p, f, rng, 80)
    for tau, J, F in pairs:
        if found >= samples:
            break
        if not profile_data(tau, J).bad_set:
            continue
        x0 = _extension_point(tau, J, F, (0,) * f)
        rows = kext_obstruction_rows(x0)
        ker = kernel_basis(rows, F, f)
        if not ker:
            continue

        def combo():
            h = [0] * f
            for vec in ker:
                c = rng.randrange(F.q)
                h = [F.add(x, F.mul(c, y)) for x, y in zip(h, vec)]
            return tuple(h)

        h1, h2 = combo(), combo()
        hsum = tuple(F.add(a, b) for a, b in zip(h1, h2))
        for h in (h1, h2, hsum):
            if not splits_after_inverting_u(replace(x0, h=h)):
                return False, f"kernel vector did not split at {tau.key()} J={sorted(J)}"
        found += 1
        if rows:
            # negative control: a class violating some functional must not split
            row = rows[0]
            i0 = next(i for i in range(f) if row[i])
            hbad = tuple(1 if i == i0 else 0 for i in range(f))
            if splits_after_inverting_u(replace(x0, h=hbad)):
                return False, f"non-kernel class split at {tau.key()} J={sorted(J)}"
            negatives += 1
    return True, f"{found} additive triples, {negatives} negative controls{note}"


def check_shapeshift(p, f, rng, fault=None, cap=200):
    n = 0
    pairs, note = _field_pairs(p, f, rng, cap)
    for tau, J, F in pairs:
        where = f"{tau.key()} J={sorted(J)}"

        def stages(targets):
            points = [_extension_point(tau, J, F, tuple(0 if i in D else 1 for i in range(f)))
                      for D in ({i % f for i in J ^ Jp} for Jp in targets)]
            got = classify_shape(build_extension(*points))
            yield [Jp not in profs and f"target not classified at {where} J'={sorted(Jp)}"
                   for Jp, (_, profs) in zip(targets, got if len(targets) > 1 else [got])]

        targets = shapeshift_targets(tau, J)
        if failed := _first_failing(targets, stages):
            return False, failed[1]
        n += len(targets)
    return True, f"{n} shifted targets{note}"


def check_kext_hyperplanes(p, f, rng, fault=None, cap=300):
    n = 0
    pairs, note = _field_pairs(p, f, rng, cap)
    for tau, J, F in pairs:
        pd = profile_data(tau, J)
        if not pd.bad_set or len(pd.bad_set) == f:
            continue
        dim, blocks = kext_structure(_extension_point(tau, J, F, (0,) * f))
        if dim != len(pd.bad_set):
            return False, f"structure dimension off at {tau.key()} J={sorted(J)}"
        for block, vecs in blocks.items():
            supp = extended(set(block), f)
            if len(vecs) != 1:
                return False, f"interval {block} carries {len(vecs)} functionals at {tau.key()}"
            if any(vecs[0][i] == 0 for i in supp) or any(
                vecs[0][i] != 0 for i in range(f) if i not in supp
            ):
                return False, f"support mismatch on {block} at {tau.key()} J={sorted(J)}"
        n += 1
    return True, f"{n} structured kernels{note}"


CHECKS = [
    ("char-index-relation", check_char_relations),
    ("norm-descent-section", check_norm_section),
    ("lambda-subgroup", check_lambda_subgroup),
    ("recipe-bounds", check_recipe_bounds),
    ("existence-roundtrip", check_existence_roundtrip),
    ("forced-choice-patterns", check_remark_exceptions),
    ("weight-type-coherence", check_convention_coherence),
    ("cyclotomic-exclusion", check_cyclotomic_lemma),
    ("operator-boundedness", check_operator_bounded),
    ("operator-unit-chain", check_operator_chain),
    ("shape-invariance", check_shape_invariance),
    ("strongdet-vs-shape", check_strongdet_shape),
    ("descend-normal-form", check_descend),
    ("operator-basis-lifts", check_operator_basis),
    ("extension-shape-law", check_extension_shape_law),
    ("kext-dimension", check_kext_dimension),
    ("kext-hyperplanes", check_kext_hyperplanes),
    ("split-subspace-closure", check_split_closure),
    ("shapeshift-targets", check_shapeshift),
]


def run_suite(p: int, f: int, seed: int = 0, fault=None):
    results = []
    for name, fn in CHECKS:
        rng = random.Random((seed, name).__repr__())
        try:
            results.append(CheckResult(name, *fn(p, f, rng, fault=fault)))
        except Exception as exc:  # reported, and the remaining checks still run
            results.append(CheckResult(name, False, f"crashed: {exc!r}", crashed=True))
    return results
