"""Rank-2 semilinear matrix families: eigenbases, shapes, descent, operator lifts.

A module of type tau is stored through the matrices of its partial
Frobenius maps with respect to an eigenbasis: 2x2 matrices over the
u-scale series whose entries carry the grading forced by the two
characters.  Removing the descent data conjugates into v-scale matrices;
the shape of the module reads divisibility off the diagonal; descending to
the base field produces the diagonal normal form whose exponents are the
Hodge data of the pair (tau, J).

Monomial diagonal factors diag(x**a, x**b) and the swap permutation are
applied as entry moves (`Mat2.shifted`, `Mat2.swapped`), never as matrix
products: the descent data, the cuspidal companions, the twist to the
base field, the profile reorder and the weight operators all reduce to
them.  Only genuine unit matrices are multiplied and inverted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import GF
from .hodge import apply_operator, hodge_type_of_raw
from .series import Mat2, PrecisionError, Series
from .tametypes import CUSPIDAL, TameType, check_profile, enumerate_profiles, profile_data

SHAPE_I_ETA = "I_eta"
SHAPE_I_ETA_PRIME = "I_eta'"
SHAPE_II = "II"


class NoShapeError(ArithmeticError):
    """Neither diagonal entry is divisible; the module has no shape."""


class GradingError(ValueError):
    """Matrix entries violate the eigenbasis grading."""


def _check_residue(s: Series, residue: int, estep: int, what: str):
    e = s.first_off_class(residue, estep)
    if e is not None:
        raise GradingError(f"{what} has exponent {e} outside its grading class")


def cuspidal_companion(A: Mat2) -> Mat2:
    """The index i+f matrix attached to a v-scale matrix ((a,b),(vc,d))."""
    vc = A[1, 0]
    if not vc.is_zero() and vc.val < 1:
        raise GradingError("lower-left entry must be divisible in the v-scale")
    return A.swapped(True, True).shifted(rows=(0, 1), cols=(0, -1))


def _with_companions(tau: TameType, A_list) -> list:
    """The f v-scale matrices, followed by their companions for a cuspidal type."""
    if len(A_list) != tau.f:
        raise ValueError(f"need {tau.f} matrices")
    full = list(A_list)
    if tau.kind == CUSPIDAL:
        full += [cuspidal_companion(A) for A in A_list]
    return full


@dataclass
class BKModule:
    """Eigenbasis presentation: f' matrices of partial Frobenius maps."""

    tau: TameType
    mats: list  # u-scale Mat2, indexed by Z/f'Z

    def __post_init__(self):
        tau = self.tau
        if len(self.mats) != tau.fprime:
            raise ValueError(f"need {tau.fprime} matrices")
        ep = tau.estep
        for i, M in enumerate(self.mats):
            for s in M.e:
                if s.scale != "u":
                    raise ValueError("eigenbasis matrices live in the u-scale")
            _check_residue(M[0, 0], 0, ep, f"entry (0,0) at {i}")
            _check_residue(M[1, 1], 0, ep, f"entry (1,1) at {i}")
            _check_residue(M[0, 1], tau.ell_prime(i), ep, f"entry (0,1) at {i}")
            _check_residue(M[1, 0], tau.ell(i), ep, f"entry (1,0) at {i}")
        if tau.kind == CUSPIDAL:
            f = tau.f
            for i in range(f):
                if not self.mats[i + f] == self.mats[i].swapped(True, True):
                    raise GradingError(f"cuspidal linkage fails at index {i}")

    @property
    def field(self) -> GF:
        return self.mats[0][0, 0].field

    def descent_removed(self, i: int) -> Mat2:
        """The v-scale matrix at index i (the eigenbasis conjugated form)."""
        return remove_descent_data(self.tau, i, self.mats[i % self.tau.fprime])


def remove_descent_data(tau: TameType, i: int, C: Mat2) -> Mat2:
    """Conjugate the eigenbasis matrix into plain v-scale entries."""
    lp = tau.ell_prime(i)
    return C.shifted(rows=(0, lp), cols=(0, -lp)).map(lambda s: s.to_v(tau.estep))


def add_descent_data(tau: TameType, i: int, A: Mat2) -> Mat2:
    lp = tau.ell_prime(i)
    return A.map(lambda s: s.to_u(tau.estep)).shifted(rows=(0, -lp), cols=(0, lp))


def module_from_descent_removed(tau: TameType, A_list) -> BKModule:
    """Build from v-scale matrices at indices 0..f-1 (companions derived)."""
    full = _with_companions(tau, A_list)
    return BKModule(tau, [add_descent_data(tau, i, A) for i, A in enumerate(full)])


def module_from_partial_frobenius(tau: TameType, J, B_list) -> BKModule:
    """The component normal form: B*diag(v,1) inside J, diag(1,v)*B outside."""
    J = check_profile(tau, J)
    f = tau.f
    if len(B_list) != f:
        raise ValueError(f"need {f} unit matrices")
    A_list = [
        B.shifted(cols=(1, 0)) if i in J else B.shifted(rows=(0, 1)) for i, B in enumerate(B_list)
    ]
    return module_from_descent_removed(tau, A_list)


# -- shapes -------------------------------------------------------------------

def _divisible(s: Series, what: str) -> bool:
    if s.is_zero():
        if s.prec is not None and s.prec <= 0:
            raise PrecisionError(f"{what}: cannot decide divisibility at this precision")
        return True
    return s.val >= 1


def shape_at(mod: BKModule, i: int) -> str:
    A = mod.descent_removed(i)
    va = _divisible(A[0, 0], f"entry a at {i}")
    vd = _divisible(A[1, 1], f"entry d at {i}")
    if va and vd:
        return SHAPE_II
    if va:
        return SHAPE_I_ETA
    if vd:
        return SHAPE_I_ETA_PRIME
    raise NoShapeError(f"no diagonal divisibility at index {i}")


def classify_shape(mod: BKModule):
    """Per-index shapes and the profiles whose component contains the module."""
    tau = mod.tau
    fp = tau.fprime
    shapes = tuple(shape_at(mod, i) for i in range(fp))
    if tau.kind == CUSPIDAL:
        swap = {SHAPE_I_ETA: SHAPE_I_ETA_PRIME, SHAPE_I_ETA_PRIME: SHAPE_I_ETA, SHAPE_II: SHAPE_II}
        for i in range(tau.f):
            if shapes[i + tau.f] != swap[shapes[i]]:
                raise AssertionError("cuspidal shape symmetry violated")
    profiles = []
    for J in enumerate_profiles(tau):
        ok = True
        for i in range(fp):
            needs = (SHAPE_I_ETA, SHAPE_II) if i in J else (SHAPE_I_ETA_PRIME, SHAPE_II)
            if shapes[i] not in needs:
                ok = False
                break
        if ok:
            profiles.append(J)
    return shapes, sorted(profiles, key=sorted)


def strong_determinant_ok(mod: BKModule) -> bool:
    """Every partial Frobenius determinant is a unit times u**estep."""
    ep = mod.tau.estep
    for i, M in enumerate(mod.mats):
        det = M.det()
        if det.is_zero():
            if det.prec is not None and det.prec <= ep:
                raise PrecisionError(f"determinant at {i} undecidable at this precision")
            return False
        if det.val != ep:
            return False
    return True


def change_eigenbasis(mod: BKModule, I_list, terms: int | None = None) -> BKModule:
    """Conjugate by a unit family given in descent-removed (v-scale) form."""
    tau = mod.tau
    fp = tau.fprime
    full = _with_companions(tau, I_list)
    for i, I in enumerate(full):
        if not I.has_unit_det():
            raise ValueError(f"change of basis at {i} must have unit determinant")
    U = [add_descent_data(tau, i, I) for i, I in enumerate(full)]
    new = []
    for i in range(fp):
        Uinv = U[i].inverse(terms)
        new.append(Uinv * mod.mats[i] * U[(i - 1) % fp].frobenius())
    return BKModule(tau, new)


# -- descent to the base field -----------------------------------------------

@dataclass
class DescentResult:
    tau: TameType
    J: frozenset
    mats: list          # v-scale Mat2, indices 0..f-1
    units: list         # B_i with mats[i] == B_i * diag(v^{r1}, v^{r2})
    exponents: list     # (r1, r2) per index: hodge_type_of_raw(tau, J)
    nu: tuple


def _unit_part(M: Mat2, r, what: str) -> Mat2:
    """The B with M == B * diag(x**r[0], x**r[1]); asserts B is integral with unit determinant.

    On a stack every member is decided, and the first failing member names
    the failure, in the words of its own (one-member) call.
    """
    B = M.shifted(cols=(-r[0], -r[1]))
    integral = np.logical_and.reduce([s.is_integral() for s in B.e])
    bad = np.flatnonzero(~(integral & B.has_unit_det()))
    if len(bad):
        if not np.ravel(integral)[bad[0]]:
            raise AssertionError(f"{what} is not integral")
        raise AssertionError(f"{what} has non-unit determinant")
    return B


def _twist_exponents(tau: TameType, J, pd) -> list:
    """Per-index exponent pairs of the monomial basis carrying the eigenbasis to the invariants."""
    ep = tau.estep
    out = []
    for i in range(tau.fprime):
        base = -tau.k_prime(i) + ep * (pd.nu[i] - 1)
        out.append((tau.ell_prime(i) + base, ep * (0 if i in J else 1) + base))
    return out


def reorder_by_profile(M: Mat2, J, i: int, n: int) -> Mat2:
    """Swap the rows of M when i is outside J and its columns when i-1 (mod n) is."""
    return M.swapped(rows=i not in J, cols=(i - 1) % n not in J)


def descend_to_base(mod: BKModule, J) -> DescentResult:
    """Base-field invariants basis: matrices B_i*diag(v, v^{-s_i})*v^{-theta_i}.

    Follows the constructive proof: conjugate by the monomial basis with
    exponents from the derived twist chain, then reorder the pair at each
    index by profile membership.  In the cuspidal case the matching
    exponent is asserted to vanish and the output is the f-indexed family
    of invariants.
    """
    tau = mod.tau
    J = check_profile(tau, J)
    pd = profile_data(tau, J)
    p, f, fp, ep = tau.p, tau.f, tau.fprime, tau.estep

    if tau.kind == CUSPIDAL:
        for i in range(f):
            if pd.xi(i) != 0:
                raise AssertionError(f"cuspidal matching exponent nonzero at {i}")

    texp = _twist_exponents(tau, J, pd)
    G = [
        mod.mats[i].shifted(rows=[-e for e in texp[i]], cols=[p * e for e in texp[(i - 1) % fp]])
        for i in range(fp)
    ]

    if tau.kind == CUSPIDAL:
        for i in range(f):
            if not G[i + f] == G[i].swapped(True, True):
                raise AssertionError("cuspidal invariance of the descended family fails")

    mats = []
    for i in range(f):
        M = G[i].swapped(False, tau.kind == CUSPIDAL and i == 0)
        M = reorder_by_profile(M, J, i, f)
        mats.append(M.map(lambda s: s.to_v(ep)))

    exponents = list(hodge_type_of_raw(tau, J))
    units = [_unit_part(mats[i], exponents[i], f"unit part at {i}") for i in range(f)]
    return DescentResult(tau, J, mats, units, exponents, pd.nu)


def ascend_from_base(res: DescentResult) -> BKModule:
    """Rebuild the eigenbasis matrices from a descent result (left inverse)."""
    tau = res.tau
    p, f, fp, ep = tau.p, tau.f, tau.fprime, tau.estep
    G = []
    for i in range(f):
        M = reorder_by_profile(res.mats[i].map(lambda s: s.to_u(ep)), res.J, i, f)
        G.append(M.swapped(False, tau.kind == CUSPIDAL and i == 0))
    if tau.kind == CUSPIDAL:
        G += [M.swapped(True, True) for M in G]
    texp = _twist_exponents(tau, res.J, profile_data(tau, res.J))
    mats = [
        G[i].shifted(rows=texp[i], cols=[-p * e for e in texp[(i - 1) % fp]]) for i in range(fp)
    ]
    return BKModule(tau, mats)


# -- weight operators on bases -------------------------------------------------

def apply_operator_on_basis(mats, r, kind: str, j: int, p: int, terms: int | None = None):
    """Transform a diagonal normal form along a weight operator.

    ``mats[i]`` must equal B_i * diag(v**r[i][0], v**r[i][1]) with unit B_i;
    the matrices may be stacks of one size, transported member by member.
    Returns (new_mats, new_exponents) where new_exponents[i] is the actual
    diagonal pair of the output at index i (the sorted pairs agree with the
    Hodge-level operator).
    """
    target = apply_operator(kind, j, tuple(tuple(x) for x in r), p)
    f = len(mats)
    j %= f

    def unit_part(i):
        return _unit_part(mats[i], r[i], f"operator input at {i}")

    prev, nxt = (j - 1) % f, (j + 1) % f
    expected = {i: tuple(r[i]) for i in range(f)}
    if kind == "nu":
        S_prev_inv = unit_part(j)  # B_j, so S_prev = B_j^{-1}
        S_prev = S_prev_inv.inverse(terms)
        expected[j] = (r[j][0], r[j][1] - 1)
        expected[nxt] = (r[nxt][0], r[nxt][1] + p)
    elif kind == "theta":
        S_prev = unit_part(prev).shifted(cols=(0, 1))
        S_prev_inv = S_prev.inverse(terms)
        expected[prev] = (r[prev][0], r[prev][1] - 1)
        expected[j] = (r[j][0], r[j][1] + p)
    else:
        S_prev = unit_part(prev).shifted(cols=(1, 0))
        S_prev_inv = S_prev.inverse(terms)
        expected[prev] = (r[prev][0] - 1, r[prev][1])
        expected[j] = (r[j][0] + p, r[j][1])

    # new_i = S_i^{-1} * mats[i] * frobenius(S_{i-1}), with S_{j-1} = S_prev and,
    # for nu, S_j = diag(1, v) applied as entry moves
    new = list(mats)
    new[j] = new[j] * S_prev.frobenius()
    if kind == "nu":
        new[nxt] = new[nxt].shifted(cols=(0, p))
        new[j] = new[j].shifted(rows=(0, -1))
    new[prev] = S_prev_inv * new[prev]

    exps = [expected[i] for i in range(f)]
    for i in range(f):
        _unit_part(new[i], exps[i], f"operator image at {i}")
    for i in range(f):
        if tuple(sorted(exps[i], reverse=True)) != target[i]:
            raise AssertionError("diagonal exponents disagree with the Hodge operator")
    return new, exps
