"""Rank-2 semilinear matrix families: eigenbases, shapes, descent, operator lifts.

A module of type tau is stored through the descent-removed matrices
A_0 .. A_{f-1} of its partial Frobenius maps, 2x2 matrices over the v-scale
series; for a cuspidal type (f' = 2f) the descent datum makes the matrix at
i+f the companion of A_i (`cuspidal_companion`), derived only where an
index >= f is read.  The shape of the module reads divisibility off their
diagonals; descending to the base field produces the diagonal normal form
whose exponents are the Hodge data of the pair (tau, J).  Only module
files hold the f' eigenbasis matrices C_i = diag(1, u**-ell'_i) * A_i *
diag(1, u**ell'_i) over the u-scale series (u**estep = v), whose entries
carry the grading forced by the two characters: `module_from_eigenbasis`
checks it and the cuspidal linkage on reading.  The engine reads its moves
from J and the recipe's gamma, t and theta, and the exponents of its output
off the matrices (`read_unit_part`).  `BKModule` refuses a cuspidal family
whose lower-left entry is not divisible by v, so every companion is integral.

Monomial diagonal factors diag(x**a, x**b) and the swap permutation are
applied as entry moves (`Mat2.shifted`, `Mat2.swapped`), never as matrix
products: the descent data, the cuspidal companions, the twist to the
base field, the profile reorder and the weight operators all reduce to
them.  Only genuine unit matrices are multiplied and inverted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charexp import solve_twist_chain
from .gf import GF
from .hodge import apply_operator
from .series import Mat2, PrecisionError, Series
from .tametypes import (
    CUSPIDAL,
    ProfileData,
    TameType,
    check_profile,
    enumerate_profiles,
    profile_data,
    profile_mask,
)

SHAPE_I_ETA = "I_eta"
SHAPE_I_ETA_PRIME = "I_eta'"
SHAPE_II = "II"


class NoShapeError(ArithmeticError):
    """Neither diagonal entry is divisible; the module has no shape."""


class GradingError(ValueError):
    """Matrix entries violate the eigenbasis grading."""


def cuspidal_companion(A: Mat2) -> Mat2:
    """The index i+f matrix ((d, c), (v b, a)) attached to a v-scale matrix ((a,b),(vc,d))."""
    return A.swapped(True, True).shifted(rows=(0, 1), cols=(0, -1))


@dataclass
class BKModule:
    """Descent-removed presentation: the partial Frobenius matrices at indices 0..f-1.

    The one gate of a family: f v-scale matrices and, for a cuspidal type, no
    lower-left entry with a known term below v**1 (integral companions).
    """

    tau: TameType
    mats: list  # v-scale Mat2 A_0 .. A_{f-1}; a cuspidal A_{i+f} is cuspidal_companion(A_i), derived

    def __post_init__(self):
        self.mats = list(self.mats)
        if len(self.mats) != self.tau.f:
            raise ValueError(f"need {self.tau.f} matrices")
        if any(s.scale != "v" for M in self.mats for s in M.e):
            raise ValueError("descent-removed matrices live in the v-scale")
        if self.tau.kind == CUSPIDAL and any(not A[1, 0].is_zero() and A[1, 0].val < 1
                                             for A in self.mats):
            raise GradingError("lower-left entry must be divisible in the v-scale")

    @property
    def field(self) -> GF:
        return self.mats[0][0, 0].field


def module_from_eigenbasis(tau: TameType, C_list) -> BKModule:
    """The module of the f' u-scale eigenbasis matrices of a module file, checked entry by
    entry against the grading classes the two characters force; a cuspidal file's matrix
    at i+f must be the companion of the one at i."""
    if len(C_list) != tau.fprime:
        raise ValueError(f"need {tau.fprime} matrices")
    for i, M in enumerate(C_list):
        lp = tau.ell_prime[i]
        classes = (0, 0, lp, tau.estep - lp)
        for (r, c), residue in zip(((0, 0), (1, 1), (0, 1), (1, 0)), classes):
            e = M[r, c].first_off_class(residue, tau.estep)
            if e is not None:
                raise GradingError(f"entry ({r},{c}) at {i} has exponent {e} "
                                   "outside its grading class")
    A = [remove_descent_data(tau, i, C) for i, C in enumerate(C_list)]
    f = tau.f
    for i in range(f if tau.kind == CUSPIDAL else 0):
        if not A[i + f] == cuspidal_companion(A[i]):
            raise GradingError(f"cuspidal linkage fails at index {i}")
    return BKModule(tau, A[:f])


def eigenbasis_matrices(mod: BKModule) -> list:
    """The f' u-scale eigenbasis matrices of a module, companions derived, as a file holds them."""
    full = mod.mats + [cuspidal_companion(A) for A in mod.mats if mod.tau.kind == CUSPIDAL]
    return [add_descent_data(mod.tau, i, A) for i, A in enumerate(full)]


def remove_descent_data(tau: TameType, i: int, C: Mat2) -> Mat2:
    """Conjugate the eigenbasis matrix into plain v-scale entries."""
    lp = tau.ell_prime[i]
    return C.shifted(rows=(0, lp), cols=(0, -lp)).map(lambda s: s.to_v(tau.estep))


def add_descent_data(tau: TameType, i: int, A: Mat2) -> Mat2:
    lp = tau.ell_prime[i]
    return A.map(lambda s: s.to_u(tau.estep)).shifted(rows=(0, -lp), cols=(0, lp))


def module_from_partial_frobenius(tau: TameType, J, B_list) -> BKModule:
    """The component normal form: B*diag(v,1) inside J, diag(1,v)*B outside."""
    J = check_profile(tau, J)
    A_list = [B.shifted(cols=(1, 0)) if i in J else B.shifted(rows=(0, 1))
              for i, B in enumerate(B_list)]
    return BKModule(tau, A_list)


# -- shapes -------------------------------------------------------------------

_SHAPE_OF = {(True, True): SHAPE_II, (True, False): SHAPE_I_ETA, (False, True): SHAPE_I_ETA_PRIME}
_SWAPPED = {SHAPE_I_ETA: SHAPE_I_ETA_PRIME, SHAPE_I_ETA_PRIME: SHAPE_I_ETA, SHAPE_II: SHAPE_II}


def _divisible(s: Series, what: str, live):
    """No known term below exponent 1, per member; raises when a live member cannot be decided."""
    if s.prec is not None and s.prec <= 0 and np.any(~s.coeffs.any(axis=-1) & live):
        raise PrecisionError(f"{what}: cannot decide divisibility at this precision")
    return ~s.coeffs[..., : max(0, 1 - s.val)].any(axis=-1)


def shape_words(mod: BKModule, partial: bool = False) -> list:
    """The per-index shapes of each member of a module (one member unless it is a stack).

    Index by index, a shape reads which diagonal entries of the
    descent-removed matrix are divisible.  A member with neither divisible
    at some index has no shape: NoShapeError names the first such index,
    or with `partial` the member's word holds None from there on.  A
    member is decided index by index as a lone module would be, so
    undecidable divisibility raises PrecisionError only before its first
    shapeless index.  A word has f' letters: the diagonal of a cuspidal
    companion is A_i's swapped, so its letter at i+f is the letter at i
    swapped.
    """
    live, columns = True, []
    for i, A in enumerate(mod.mats):
        va = _divisible(A[0, 0], f"entry a at {i}", live)
        vd = _divisible(A[1, 1], f"entry d at {i}", live)
        live = live & (va | vd)
        if not (partial or np.all(live)):
            raise NoShapeError(f"no diagonal divisibility at index {i}")
        columns.append([_SHAPE_OF[a, d] if ok else None
                        for a, d, ok in zip(np.ravel(va), np.ravel(vd), np.ravel(live))])
    words = list(zip(*columns))
    if mod.tau.kind == CUSPIDAL:
        words = [w + (tuple(_SWAPPED[s] for s in w) if None not in w else (None,) * len(w))
                 for w in words]
    return words


def classify_shape(mod: BKModule):
    """Per-index shapes and the profiles whose component contains the module, in mask order.

    One `shape_words` pass decides every member: a stack gets one (shapes, profiles) per
    member, a lone module its own pair.
    """
    profiles = sorted(enumerate_profiles(mod.tau), key=lambda J: profile_mask(mod.tau, J))
    pairs = [(w, [J for J in profiles if all(
        s in ((SHAPE_I_ETA, SHAPE_II) if i in J else (SHAPE_I_ETA_PRIME, SHAPE_II))
        for i, s in enumerate(w))]) for w in shape_words(mod)]
    return pairs if mod.mats[0][0, 0].coeffs.ndim == 2 else pairs[0]


def strong_determinant_ok(mod: BKModule):
    """Every det A_i is v times a unit (det C_i = u**estep * unit; the descent data cancel).

    A cuspidal companion has A_i's determinant, since its swaps and its (0,1)/(0,-1)
    shifts cancel, so the f indices decide.  Per member on a stack.  A member fails
    at its first index whose determinant is not; one with no known nonzero term and
    an unknown coefficient of v raises PrecisionError.
    """
    ok = True
    for i, A in enumerate(mod.mats):
        det = A.det()
        if det.prec is not None and det.prec <= 1 and np.any(~det.coeffs.any(axis=-1) & ok):
            raise PrecisionError(f"determinant at {i} undecidable at this precision")
        ok = ok & det.has_val(1)
    return ok


def change_eigenbasis(mod: BKModule, I_list, terms: int | None = None) -> BKModule:
    """Conjugate by a unit family given in descent-removed (v-scale) form.

    A_i becomes I_i^-1 * A_i * D * phi(I_{i-1}) * D^-1, where the descent data leave
    D = diag(1, u**(ell'_i - p*ell'_{i-1})) = diag(1, v**m_i), m_i = gamma_i + 1 - p, by the
    exponent identity p*ell'_{i-1} - ell'_i = estep*(p-1-gamma_i) (`recipe-bounds`);
    each inverse keeps at most `terms` v-coefficients.  The family has f matrices; the
    wrap at index 0 reads I_{f'-1}, for a cuspidal type the companion of I_{f-1}.  On a
    stack the family is a stack of the same size, and every member's change of basis
    must have unit determinant.
    """
    tau = mod.tau
    I_list = BKModule(tau, I_list).mats
    for i, I in enumerate(I_list):
        if not np.all(I.has_unit_det()):
            raise ValueError(f"change of basis at {i} must have unit determinant")
    last = cuspidal_companion(I_list[-1]) if tau.kind == CUSPIDAL else I_list[-1]
    new = []
    for i, A in enumerate(mod.mats):
        m = tau.gamma[i] + 1 - tau.p
        D_phi = (I_list[i - 1] if i else last).frobenius().shifted(rows=(0, m), cols=(0, -m))
        new.append(I_list[i].inverse(terms) * A * D_phi)
    return BKModule(tau, new)


# -- descent to the base field -----------------------------------------------

@dataclass
class DescentResult:
    tau: TameType
    J: frozenset
    mats: list          # v-scale Mat2, indices 0..f-1
    units: list         # B_i with mats[i] == B_i * diag(v^{r1}, v^{r2})
    exponents: list     # (r1, r2) per index, read off mats[i]
    nu: tuple
    ok: list            # per index (per member on a stack): B_i is a unit


def read_unit_part(M: Mat2, r=None):
    """(r, B, ok): M == B * diag(x**r[0], x**r[1]), and per member whether B is a unit.

    r defaults to the least val of each column's nonzero entries, so B is
    integral by construction; on a stack val is the stack's, so a member
    whose column starts above the stack's is flagged too.
    """
    if r is None:  # the columns (a, c) and (b, d)
        r = tuple(min([s.val for s in M.e[k::2] if not s.is_zero()], default=0) for k in (0, 1))
    B = M.shifted(cols=(-r[0], -r[1]))
    return r, B, np.logical_and.reduce([s.is_integral() for s in B.e]) & B.has_unit_det()


def _twist_moves(tau: TameType, J, pd) -> list:
    """Per index i < f, the v-scale (rows, cols) entry moves carrying A_i to the invariants basis.

    With the descent data, the monomial basis of the twist chain is
    diag(u**w_i, u**(w_i + estep*j_i)), w_i = ell'_i - k'_i + estep*(nu_i - 1),
    j_i = [i not in J], so A_i becomes v**n_i * diag(1, v**-j_i) * A_i *
    diag(1, v**(m_i + p*j_{i-1})), m_i as in `change_eigenbasis`, and
    n_i = (p*w_{i-1} - w_i) / estep = t_i - gamma_i - theta_i, since
    p*k'_{i-1} - k'_i = estep*mu_i, p*nu_{i-1} - nu_i = mu_i + t_i - theta_i (the
    twist chain) and p*ell'_{i-1} - ell'_i = estep*(p-1-gamma_i).
    """
    p, g = tau.p, tau.gamma
    j = [int(i not in J) for i in range(tau.fprime)]
    out = []
    for i in range(tau.f):
        n, m = pd.t[i] - g[i] - pd.theta[i], g[i] + 1 - p
        out.append(((n, n - j[i]), (0, m + p * j[i - 1])))
    return out


def reorder_by_profile(M: Mat2, J, i: int, n: int) -> Mat2:
    """Swap the rows of M when i is outside J and its columns when i-1 (mod n) is."""
    return M.swapped(rows=i not in J, cols=(i - 1) % n not in J)


def twist_chain(pd: ProfileData) -> tuple:
    """The twist chain nu of the descent of (tau, J): p*nu_{i-1} - nu_i = mu_i + t_i - theta_i.

    nu is indexed by Z/f'Z and theta read f-periodically.  For a cuspidal
    type the basis-matching exponent xi_i = [k_i > k'_i] + nu_i - nu_{i+f}
    - [i in J], i < f, with k_i and k'_i the exponents of eta and eta' at
    embedding i, vanishes by the theory; it is asserted here.
    """
    tau, J = pd.tau, pd.J
    p, f, fp, ep = tau.p, tau.f, tau.fprime, tau.estep
    theta = pd.theta * (fp // f)
    nu = solve_twist_chain([m + t - th for m, t, th in zip(tau.mu, pd.t, theta)], p, fp)
    if tau.kind == CUSPIDAL:
        for i in range(f):
            k, k_prime = tau.eta * p**i % ep, tau.eta_prime * p**i % ep
            if (k > k_prime) + nu[i] - nu[i + f] - (i in J) != 0:
                raise AssertionError(f"cuspidal matching exponent nonzero at {i}")
    return nu


def descend_to_base(mod: BKModule, J) -> DescentResult:
    """Base-field invariants basis: matrices B_i*diag(v, v^{-s_i})*v^{-theta_i}.

    Follows the constructive proof: conjugate by the monomial basis of the
    twist chain, whose entry moves have closed forms (`_twist_moves`), then
    reorder the pair at each index by profile membership; the output is the
    f-indexed family of invariants.  The twist chain itself is solved here
    (`twist_chain`, which asserts that a cuspidal matching exponent
    vanishes) and reported in the result.  Exponents, unit parts and
    verdicts are read off the output (`read_unit_part`); `verify`'s
    `descend-normal-form` holds them to `hodge_type_of_raw`.
    """
    tau, f = mod.tau, mod.tau.f
    pd = profile_data(tau, J)
    J = pd.J
    nu = twist_chain(pd)
    moves = _twist_moves(tau, J, pd)
    mats = [reorder_by_profile(A.shifted(*moves[i]).swapped(False, tau.kind == CUSPIDAL and i == 0),
                               J, i, f)
            for i, A in enumerate(mod.mats)]
    exponents, units, ok = map(list, zip(*map(read_unit_part, mats)))
    return DescentResult(tau, J, mats, units, exponents, nu, ok)


def ascend_from_base(res: DescentResult) -> BKModule:
    """Rebuild the descent-removed matrices from a descent result (left inverse)."""
    tau, f = res.tau, res.tau.f
    G = [reorder_by_profile(M, res.J, i, f).swapped(False, tau.kind == CUSPIDAL and i == 0)
         for i, M in enumerate(res.mats)]
    moves = _twist_moves(tau, res.J, profile_data(tau, res.J))
    return BKModule(tau, [M.shifted([-r for r in rows], [-c for c in cols])
                          for M, (rows, cols) in zip(G, moves)])


# -- weight operators on bases -------------------------------------------------

# theta_j and mu_j transport by S_{j-1} = B_{j-1} * diag(v**c0, v**c1), entry moves (c0, c1)
_PREV_COLS = {"theta": (0, 1), "mu": (1, 0)}


def apply_operator_on_basis(mats, r, kind: str, j: int, p: int, terms: int | None = None):
    """Transform a diagonal normal form along a weight operator.

    ``mats[i]`` must equal B_i * diag(v**r[i][0], v**r[i][1]) with unit B_i
    (else AssertionError, in the words of the first failing member's own
    call); an operator undefined on r raises ValueError.  The matrices may
    be stacks of one size, transported member by member.  Returns
    (new_mats, exponents, ok) read off the output (`read_unit_part`);
    `verify`'s `operator-basis-lifts` holds them to the Hodge-level operator.
    """
    apply_operator(kind, j, tuple(tuple(x) for x in r), p)
    f = len(mats)
    j %= f
    prev, nxt = (j - 1) % f, (j + 1) % f
    i = j if kind == "nu" else prev
    _, B, ok = read_unit_part(mats[i], r[i])
    if not np.all(ok):
        bad = np.flatnonzero(~np.ravel(ok))[0]
        integral = all(np.ravel(s.is_integral())[bad] for s in B.e)
        why = "has non-unit determinant" if integral else "is not integral"
        raise AssertionError(f"operator input at {i} {why}")
    S_prev = B.inverse(terms) if kind == "nu" else B.shifted(cols=_PREV_COLS[kind])  # nu: B_j^-1
    S_prev_inv = B if kind == "nu" else S_prev.inverse(terms)

    # new_i = S_i^{-1} * mats[i] * frobenius(S_{i-1}), with S_{j-1} = S_prev and,
    # for nu, S_j = diag(1, v) applied as entry moves
    new = list(mats)
    new[j] = new[j] * S_prev.frobenius()
    if kind == "nu":
        new[nxt] = new[nxt].shifted(cols=(0, p))
        new[j] = new[j].shifted(rows=(0, -1))
    new[prev] = S_prev_inv * new[prev]
    exps, _, ok = zip(*map(read_unit_part, new))
    return new, list(exps), np.logical_and.reduce(ok)
