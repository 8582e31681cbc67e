"""Rank-1 extension families and the split-after-inverting-u oracle.

An extension of the two standard rank-1 modules attached to (tau, J) is
cut out by unramified twist parameters a, b and a class vector h.  In the
eigenbasis the partial Frobenius acts on the generator pair (m, n) by

    m_{i-1} |-> a_i u^{r_i} m_i + h_i u^{delta_i} n_i
    n_{i-1} |-> b_i u^{s_i} n_i

with (r_i, s_i, delta_i) = (L_i, estep - L_i, 0) at a transition of J and
(estep, 0, estep - L_i) elsewhere, where L_i = ell'_i inside J and
estep - ell'_i outside; the module is built from J alone
(`build_extension`).  Splitting after inverting u asks for a Laurent
solution g of

    a_i u^{r_i} g_i = h_i u^{delta_i} + b_i u^{s_i} phi(g_{i-1}),

with phi(u) = u^p.  Three facts reduce it to one walk along Z/f'.

Grading.  The coefficient of u^m in g_i meets only that of u^{m'} in
g_{i-1} with p*m' = m + r_i - s_i, and h_i sits at m = delta_i - r_i = -L_i.
So the system is the direct sum of its parts on the residue classes
(c_i mod estep) with c_i = p*c_{i-1} - r_i + s_i: these are the characters
of u -> zeta*u, zeta in mu_estep (Serre, Local Fields, ch. IV, the Kummer
extension u^estep = v; estep is prime to p).  The class of the sources,
c_i = -L_i, is one of them, since p*L_{i-1} + L_i at a transition and
p*L_{i-1} - L_i elsewhere are congruent mod estep to
+-(p*ell'_{i-1} - ell'_i) = +-estep*(p-1-gamma_i) (the exponent identity).
Projecting a section onto that class gives a section, and the other
classes carry no source, so x.h splits exactly when the source class has
a section.

The exponent e_i.  Write g_i = u^{estep - L_i} G_i(v) with G_i in F_q((v)).
Divided by u^{r_i + estep - L_i}, the equation is

    a_i G_i = h_i v^{-1} + b_i v^{e_i} phi(G_{i-1}),   phi(v) = v^p,

e_i = p - (p*L_{i-1} + L_i)/estep at a transition and
p - 2 - (p*L_{i-1} - L_i)/estep elsewhere.  By the exponent identity, for
(i-1 in J, i in J) = (0,0), (0,1), (1,0), (1,1) this is p-2-gamma_i,
p-1-gamma_i, gamma_i, gamma_i-1: e_i = p - 2 - s_i for the recipe's s_i
(`profile_data`), so e_i lies in [-1, p-1], and e_i = p - 1 exactly where
s_i = -1, at a transition with p*L_{i-1} + L_i = estep.  There i-1 links
to i.

A Laurent section vanishes below v^-1.  In node terms the coefficient of
v^k in G_i is a_i^-1 (b_i * [the coefficient of v^{(k - e_i)/p} in
G_{i-1}] + [k = -1] h_i), so node (i-1, k) has the one child
(i, p*k + e_i).  As e_i <= p-1, a child of k <= -1 lies at or below -1,
at -1 only from k = -1 across a link, and the child of k <= -2 lies
strictly below k.  Below v^-1 there is no source, so a nonzero value there
recurs, times b/a, down a strictly falling chain, which no Laurent series
has.  Above, nodes k >= 0 have parents at k' >= 0 in a bounded range, so a
node there whose ancestors end has value 0, and one on a cycle feeds only
the cycle: nothing from k >= 0 reaches v^-1.

So, with x_i the coefficient of v^-1 in G_i, a linear vector in h,

    x_i = [i-1 links to i] (b_i/a_i) x_{i-1} + a_i^-1 e_(i mod f),

and wherever i+1 does not link the child of (i, -1) lies below v^-1, so
x_i must vanish: one obstruction row.  The rows assemble the obstruction
matrix whose nullity is the split subspace dimension.  When every index
links the walk is a loop x = G*x + B of gain G = prod b_i/a_i, with no row:
for G != 1 it has one solution, and for G = 1 it closes exactly where B
vanishes, with the free value 0.  An extension point twists only the
indices 0 mod f, so G = (b/a)^(f'/f) and B vanishes whenever G = 1.  For a
principal type G = 1 is a = b, refused as an exceptional pair wherever
every index links.  For a cuspidal type it is b = -a (a = b being refused
likewise), and the two sources of each h_j, at j and j+f, reach index 0
with coefficients c*(b/a) and c, for c = a^-1 at j = 0 and c = b/a
elsewhere: they cancel.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charexp import collapse_exponents
from .gf import GF
from .linalg import rref, row_space_supported_on
from .series import Mat2, Series
from .tametypes import CUSPIDAL, TameType, check_profile, is_transition, profile_data
from .phimod import BKModule, module_from_partial_frobenius, reorder_by_profile
from .intervals import extended, interval_decomposition


def walk_exponents(tau: TameType, J) -> list[int]:
    """The walk's exponents e_i at the indices of Z/f', read from the characters.

    With L_i = ell'_i inside J and estep - ell'_i outside, e_i is
    p - (p*L_{i-1} + L_i)/estep at a transition and p - 2 - (p*L_{i-1} - L_i)/estep
    elsewhere (module docstring); i-1 links to i where e_i = p - 1.
    """
    J = check_profile(tau, J)
    p, fp, ep = tau.p, tau.fprime, tau.estep
    L = [lp if i in J else ep - lp for i, lp in enumerate(tau.ell_prime)]
    return [p - (p * L[i - 1] + L[i]) // ep if is_transition(J, i, fp)
            else p - 2 - (p * L[i - 1] - L[i]) // ep for i in range(fp)]


def rank1_etale_isomorphic(tau: TameType, J) -> bool:
    """Whether the two untwisted rank-1 modules agree after inverting u.

    It needs shifts w_i in the grading class of d_i - c_i with s_i = r_i + p*w_{i-1} - w_i;
    by the exponent identity the defect s_i - r_i - p*w_{i-1} + w_i is estep*lambda_i,
    lambda_i = -1-gamma_i, -gamma_i, gamma_i+1-p or gamma_i-p as (i-1 in J, i in J) is
    (0,0), (0,1), (1,0) or (1,1), and such shifts exist when lambda collapses to 0.
    """
    J = check_profile(tau, J)
    p, fp = tau.p, tau.fprime
    lam = [(-1 - g, -g, g + 1 - p, g - p)[2 * ((i - 1) % fp in J) + (i in J)]
           for i, g in enumerate(tau.gamma)]
    return collapse_exponents(lam, p, fp) == 0


class ExceptionalPairError(ValueError):
    """Equal twists demanded where the rank-1 modules are generically equal."""


@dataclass(frozen=True)
class ExtensionPoint:
    tau: TameType
    J: frozenset
    field: GF
    a: int
    b: int
    h: tuple[int, ...]  # length f; extended f-periodically

    def __post_init__(self):
        tau = self.tau
        object.__setattr__(self, "J", check_profile(tau, self.J))
        if not (0 < self.a < self.field.q and 0 < self.b < self.field.q):
            raise ValueError("twist parameters must be nonzero field elements")
        h = tuple(self.h)
        if len(h) == tau.fprime and tau.kind == CUSPIDAL:
            if h[: tau.f] != h[tau.f :]:
                raise ValueError("cuspidal class vector must be f-periodic")
            h = h[: tau.f]
        if len(h) != tau.f:
            raise ValueError(f"class vector must have length {tau.f}")
        if any(not 0 <= x < self.field.q for x in h):
            raise ValueError("class vector entries must be field codes")
        object.__setattr__(self, "h", h)
        if self.a == self.b and rank1_etale_isomorphic(tau, self.J):
            raise ExceptionalPairError(
                "the rank-1 modules agree after inverting u; equal twists rejected"
            )

    def twist_at(self, i: int) -> tuple[int, int]:
        if i % self.tau.f == 0:
            return self.a, self.b
        return 1, 1

    def h_at(self, i: int) -> int:
        return self.h[i % self.tau.f]


def build_extension(*points: ExtensionPoint) -> BKModule:
    """The point of J's component with unit matrices B_i = ((a_i, 0), (h_i, b_i)) reordered.

    Removing the descent data from the eigenbasis matrix ((a u^r, 0), (h u^delta, b u^s))
    moves its entry at (row, col) by (row - col)*ell'_i; in all four cases (i in J or not,
    i-1 in J or not) that leaves exponents 0 or 1 in v, which put the v exactly as
    B_i*diag(v, 1) inside J and diag(1, v)*B_i outside it.  Several points sharing tau, J,
    the field, a and b build, in order, into one stack, each entry built once from their codes.
    """
    x = points[0]
    if any((y.tau, y.J, y.field, y.a, y.b) != (x.tau, x.J, x.field, x.a, x.b) for y in points):
        raise ValueError("stacked extensions must share tau, J, the field, a and b")
    tau, F = x.tau, x.field
    B = []
    for i in range(tau.f):
        a, b = x.twist_at(i)
        cols = zip(*[(a, 0, y.h_at(i), b) for y in points])
        M = Mat2(*(Series(F, "v", 0, [[c] for c in col] if len(points) > 1 else col) for col in cols))
        B.append(reorder_by_profile(M, x.J, i, tau.fprime))
    return module_from_partial_frobenius(tau, x.J, B)


# -- the splitting solver ------------------------------------------------------

class _Solver:
    """The walk of x_i along Z/f' (module docstring).

    Each x_i is a vector of f coefficients over [h_0..h_{f-1}].
    """

    def __init__(self, x: ExtensionPoint):
        self.x = x
        tau, F = x.tau, x.field
        self.F = F
        self.p = tau.p
        self.fp = tau.fprime
        self.f = tau.f
        self.e = walk_exponents(tau, x.J)
        self.link = [e == self.p - 1 for e in self.e]
        self.a = [x.twist_at(i)[0] for i in range(self.fp)]
        self.b = [x.twist_at(i)[1] for i in range(self.fp)]
        self.ratio = [F.div(b, a) for a, b in zip(self.a, self.b)]
        self.ainv = [F.inv(a) for a in self.a]
        self.free_cycles = 0
        self.cycle_value: dict = {}  # x_i around the loop, when every index links
        self._cache: dict = {}  # x_i along the walk, when some index does not link
        if all(self.link):
            self._close_loop()

    def _step(self, i: int, prev):
        """x_i from x_{i-1} (prev None when i-1 does not link to i)."""
        F = self.F
        val = [0] * self.f if prev is None else [F.mul(self.ratio[i], c) for c in prev]
        val[i % self.f] = F.add(val[i % self.f], self.ainv[i])
        return val

    def _close_loop(self):
        """The loop's values: x_0 = G*x_0 + B, solved, or 0 when G = 1 (and so B = 0)."""
        F = self.F
        gain, B = 1, None
        for i in [*range(1, self.fp), 0]:
            gain = F.mul(gain, self.ratio[i])
            B = self._step(i, B)
        if gain == 1:
            self.free_cycles = 1
            val = [0] * self.f
        else:
            val = [F.div(c, F.sub(1, gain)) for c in B]
        self.cycle_value[0] = val
        for i in range(1, self.fp):
            val = self._step(i, val)
            self.cycle_value[i] = val

    def pin_rows(self):
        """x_i wherever i+1 does not link, since a section vanishes below v^-1."""
        if all(self.link):
            return []
        start = self.link.index(False)
        val = None
        for k in range(start, start + self.fp):
            i = k % self.fp
            val = self._step(i, val if self.link[i] else None)
            self._cache[i] = val
        return [self._cache[i] for i in range(self.fp)
                if not self.link[(i + 1) % self.fp] and any(self._cache[i])]

    def obstruction_rows(self):
        """Independent functionals of h, in reduced form, whose common kernel is the split subspace."""
        return rref(self.pin_rows(), self.F)[0]

    def splits(self) -> bool:
        """Decide splitting of the class x.h by constructing a section and checking it.

        The class splits when every obstruction row vanishes on x.h; then
        G_i = x_i(h) v^-1 is a section, which is substituted into
        a_i G_i = h_i v^-1 + b_i v^{e_i} phi(G_{i-1}) as series, and the
        residual is asserted to vanish.
        """
        x, F = self.x, self.F
        if any(F.dot(row, x.h) for row in self.obstruction_rows()):
            return False
        vals = {**self._cache, **self.cycle_value}
        G = [Series.monomial(F, "v", F.dot(vals[i], x.h), -1) for i in range(self.fp)]
        for i in range(self.fp):
            lhs = G[i].scalar_mul(self.a[i])
            rhs = Series.monomial(F, "v", x.h_at(i), -1)
            rhs = rhs + G[i - 1].frobenius().scalar_mul(self.b[i]).shift(self.e[i])
            if not (lhs - rhs).is_zero():
                raise AssertionError("constructed section fails the recursion")
        return True


def kext_obstruction_rows(x: ExtensionPoint):
    return _Solver(x).obstruction_rows()


def splitting_diagnostics(x: ExtensionPoint) -> dict:
    """Splitting verdict of x, and whether its walk closes a loop of gain 1 (a free value)."""
    sol = _Solver(x)
    return {"splits": sol.splits(), "free_cycles": sol.free_cycles}


def kext_dimension(tau: TameType, J, a: int, b: int, field: GF) -> int:
    """Dimension over the coefficient field of the split-class subspace."""
    x = ExtensionPoint(tau, J, field, a, b, (0,) * tau.f)
    return tau.f - len(kext_obstruction_rows(x))


def splits_after_inverting_u(x: ExtensionPoint) -> bool:
    """Whether the class x.h splits after inverting u (see _Solver.splits)."""
    return _Solver(x).splits()


def kext_structure(x: ExtensionPoint):
    """Recovered hyperplane data: per-interval support vectors of the kernel.

    Returns (dimension, blocks) where blocks maps each maximal interval of
    the bad set to the coefficient vector of the row-space member supported
    on its one-step enlargement (empty when the bad set is everything).
    """
    tau, F = x.tau, x.field
    f = tau.f
    pd = profile_data(tau, x.J)
    rows = kext_obstruction_rows(x)
    dim = f - len(rows)
    blocks = {}
    if len(pd.bad_set) == f:
        return dim, blocks
    for block in interval_decomposition(pd.bad_set, f):
        supp = extended(set(block), f)
        vecs = row_space_supported_on(rows, supp, F, f)
        blocks[block] = vecs
    return dim, blocks
