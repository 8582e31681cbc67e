"""Rank-1 extension families and the split-after-inverting-u oracle.

An extension of the two standard rank-1 modules attached to (tau, J) is
cut out by unramified twist parameters a, b and a class vector h.  The
partial Frobenius acts on the generator pair (m, n) by

    m_{i-1} |-> a_i u^{r_i} m_i + h_i u^{delta_i} n_i
    n_{i-1} |-> b_i u^{s_i} n_i

with exponents driven by the transition pattern of J.  Splitting after
inverting u asks for a Laurent solution g of

    a_i u^{r_i} g_i = h_i u^{delta_i} + b_i u^{s_i} phi(g_{i-1}),

a linear problem in the coefficients of g.  In the graph of node (i, m),
the coefficient of u^m in g_i, three facts make the solver one pass:

- a node at or above the valuation bound LB has one child
  (i+1, p*m - r_{i+1} + s_{i+1}), and no node has two parents;
- the only possible cycle is the fixed point at index 0 of the
  contracting f'-fold parent map, m* = sum_{k<f'} p^k (r_{-k} - s_{-k})
  / (p^f' - 1), present when m* is an integer and its steps close up;
- past ep/(p-1) a child chain only rises.

So the solver takes the cycle in closed form and pushes each h-source
(i, delta_i - r_i) off it down its child chain, to the first node below
LB, whose value must vanish (a pin row), or to a top it never falls back
from.  The pin rows assemble the obstruction matrix whose nullity is the
split subspace dimension.  Every node value is linear in h.  When the
cycle's gain is 1 its value at m* is free and the loop closes only where
its h part vanishes (a cycle row); as no chain leaves the cycle, no pin
row sees the free value, and the section takes it to be 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charexp import collapse_exponents
from .gf import GF
from .linalg import rank, rref, row_space_supported_on
from .series import Mat2, Series
from .tametypes import CUSPIDAL, TameType, check_profile, is_transition, profile_data
from .phimod import BKModule, reorder_by_profile
from .intervals import extended, interval_decomposition


@dataclass(frozen=True)
class RungData:
    """Per-index exponent data of the two rank-1 modules and their extensions."""

    c: int
    d: int
    transition: bool
    r: int
    s: int
    delta: int


def extension_exponents(tau: TameType, J) -> list[RungData]:
    J = check_profile(tau, J)
    fp, ep = tau.fprime, tau.estep
    out = []
    for i in range(fp):
        if i in J:
            c, d = tau.k(i), tau.k_prime(i)
        else:
            c, d = tau.k_prime(i), tau.k(i)
        trans = is_transition(J, i, fp)
        if trans:
            r, s, delta = (d - c) % ep, (c - d) % ep, 0
        else:
            r, s, delta = ep, 0, (c - d) % ep
        out.append(RungData(c, d, trans, r, s, delta))
    return out


def rank1_etale_isomorphic(tau: TameType, J) -> bool:
    """Whether the two untwisted rank-1 modules agree after inverting u.

    Detected on exponent data: an isomorphism needs integer shifts w_i in
    the grading class of d_i - c_i with s_i = r_i + p*w_{i-1} - w_i, which
    reduces to a collapse condition.
    """
    data = extension_exponents(tau, J)
    p, fp, ep = tau.p, tau.fprime, tau.estep
    lam = []
    for i in range(fp):
        w_prev = (data[(i - 1) % fp].d - data[(i - 1) % fp].c) % ep
        w_here = (data[i].d - data[i].c) % ep
        D = data[i].s - data[i].r - p * w_prev + w_here
        if D % ep:
            return False
        lam.append(D // ep)
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

    @property
    def data(self) -> list[RungData]:
        return extension_exponents(self.tau, self.J)

    def twist_at(self, i: int) -> tuple[int, int]:
        if i % self.tau.f == 0:
            return self.a, self.b
        return 1, 1

    def h_at(self, i: int) -> int:
        return self.h[i % self.tau.f]


def build_extension(x: ExtensionPoint) -> BKModule:
    """Eigenbasis matrices of the extension module."""
    tau, F = x.tau, x.field
    fp = tau.fprime
    data = x.data
    mats = []
    for i in range(fp):
        ai, bi = x.twist_at(i)
        rung = data[i]
        top = Series.monomial(F, "u", ai, rung.r)
        mid = Series.monomial(F, "u", x.h_at(i), rung.delta) if x.h_at(i) else Series.zero(F, "u")
        bot = Series.monomial(F, "u", bi, rung.s)
        mats.append(reorder_by_profile(Mat2(top, Series.zero(F, "u"), mid, bot), x.J, i, fp))
    return BKModule(tau, mats)


# -- the splitting solver ------------------------------------------------------

class _Solver:
    """The closed-form cycle and one forward pass of the coefficient recursion.

    Node values are linear in the class vector h: each is a vector of f
    coefficients over [h_0..h_{f-1}].
    """

    def __init__(self, x: ExtensionPoint):
        self.x = x
        tau, F = x.tau, x.field
        self.F = F
        self.p = tau.p
        self.fp = tau.fprime
        self.f = tau.f
        ep = tau.estep
        data = x.data
        self.r = [d.r for d in data]
        self.s = [d.s for d in data]
        self.delta = [d.delta for d in data]
        self.a = [x.twist_at(i)[0] for i in range(self.fp)]
        self.b = [x.twist_at(i)[1] for i in range(self.fp)]
        self.ratio = [F.div(b, a) for a, b in zip(self.a, self.b)]
        self.ainv = [F.inv(a) for a in self.a]
        self.LB = -(ep // (self.p - 1)) - 2
        self.W = ep // (self.p - 1) + 3
        self.M_lo = self.p * self.LB - ep  # every pinned node lies in [M_lo, LB)
        self._find_cycle()
        self._cache: dict = {}  # node values of the last forward pass

    # node (i, m): coefficient of u^m in g_i
    def _parent(self, i: int, m: int):
        mm = m + self.r[i] - self.s[i]
        if mm % self.p:
            return None
        q = mm // self.p
        if q < self.LB:
            return None
        return ((i - 1) % self.fp, q)

    def _step(self, node, pv):
        """Value at node from its parent's value pv (None when it has no parent).

        The coefficient of u^(m + r_i) in the recursion reads
        g_i[m] = (b_i/a_i) g_{i-1}[parent] + [m + r_i == delta_i] h_i/a_i.
        """
        i, m = node
        F = self.F
        val = [0] * self.f if pv is None else [F.mul(self.ratio[i], c) for c in pv]
        if m == self.delta[i] - self.r[i]:
            val[i % self.f] = F.add(val[i % self.f], self.ainv[i])
        return val

    def _find_cycle(self):
        """The cycle through m* at index 0, if any, and its values (module docstring)."""
        p, fp = self.p, self.fp
        m, rest = divmod(sum(p**k * (self.r[-k] - self.s[-k]) for k in range(fp)), p**fp - 1)
        walk, node = [], None if rest else (0, m)
        while node is not None and len(walk) < fp:
            walk.append(node)
            node = self._parent(*node)
        F = self.F
        self.nsyms = 0
        self.cycle_value: dict = {}
        self.cycle_rows: list = []
        if node is None:
            return
        # walk[k+1] is the parent of walk[k]; the loop maps x at walk[0] to A*x + B
        A = 1
        for i, _m in walk:
            A = F.mul(A, self.ratio[i])
        self.nsyms = int(A == 1)
        B = [0] * self.f
        for node in reversed(walk):
            B = self._step(node, B)
        if A == 1:
            self.cycle_rows.append(B)
        base = [0] * self.f if A == 1 else [F.div(c, F.sub(1, A)) for c in B]
        self.cycle_value[walk[0]] = val = base
        for node in reversed(walk[1:]):
            val = self._step(node, val)
            self.cycle_value[node] = val

    def _forward(self, top: int) -> dict:
        """Values of the off-cycle nodes below top >= W, which are sums over the h-sources.

        A source adds a_i^-1 e_(i mod f), times the ratio at each step, to
        every node of its child chain, up to its first node below LB.
        """
        F, p = self.F, self.p
        vals: dict = {}
        for i in range(self.fp):
            node = (i, self.delta[i] - self.r[i])
            if node in self.cycle_value:
                continue
            v = self._step(node, None)
            while node[1] < top:
                old = vals.get(node)
                vals[node] = v if old is None else [F.add(c, d) for c, d in zip(old, v)]
                j, m = node
                if m < self.LB:
                    break
                j = (j + 1) % self.fp
                node = (j, p * m - self.r[j] + self.s[j])
                v = [F.mul(self.ratio[j], c) for c in v]
        self._cache = vals
        return vals

    def pin_rows(self):
        """Constraints from nodes below the valuation bound, whose values vanish."""
        vals = self._forward(self.W)
        pinned = sorted((m, i) for i, m in vals if m < self.LB)
        return [vals[i, m] for m, i in pinned if any(vals[i, m])]

    def obstruction_rows(self):
        """Functionals of h whose common kernel is the split subspace."""
        return rref(self.cycle_rows + self.pin_rows(), self.F)[0]

    def splits(self) -> bool:
        """Decide splitting of the class x.h by constructing a section and checking it.

        The class splits when every obstruction row vanishes on x.h; then
        the node values at x.h are the Laurent coefficients of a section,
        which are substituted into the defining recursion as series, and
        the residual is asserted to vanish on the known range.
        """
        x, F = self.x, self.F
        if any(F.dot(row, x.h) for row in self.obstruction_rows()):
            return False

        prec = 4 * x.tau.estep + 64
        coeffs = np.zeros((self.fp, prec - self.LB), dtype=F.dtype)
        for (i, m), vec in {**self._forward(prec), **self.cycle_value}.items():
            if m >= self.LB:
                coeffs[i, m - self.LB] = F.dot(vec, x.h)
        g = [Series(F, "u", self.LB, arr, prec) for arr in coeffs]
        for i in range(self.fp):
            hi = x.h_at(i)
            lhs = g[i].scalar_mul(self.a[i]).shift(self.r[i])
            rhs = Series.monomial(F, "u", hi, self.delta[i]) if hi else Series.zero(F, "u")
            rhs = rhs + g[(i - 1) % self.fp].frobenius().scalar_mul(self.b[i]).shift(self.s[i])
            if not (lhs - rhs).is_zero():
                raise AssertionError("constructed section fails the recursion")
        return True


def kext_obstruction_rows(x: ExtensionPoint):
    return _Solver(x).obstruction_rows()


def splitting_diagnostics(x: ExtensionPoint) -> dict:
    """Splitting verdict of x with the completeness envelope of its solver.

    Reports whether x.h splits after inverting u, the proven lower
    valuation bound for any section, the constraint scan floor, the core
    window, and the cycle census.
    """
    sol = _Solver(x)
    return {
        "splits": sol.splits(),
        "valuation_bound": sol.LB,
        "scan_floor": sol.M_lo,
        "window_top": sol.W,
        "free_cycles": sol.nsyms,
        "cycle_nodes": len(sol.cycle_value),
        "pin_rows": len(sol.pin_rows()),
    }


def kext_dimension(tau: TameType, J, a: int, b: int, field: GF) -> int:
    """Dimension over the coefficient field of the split-class subspace."""
    x = ExtensionPoint(tau, check_profile(tau, J), field, a, b, (0,) * tau.f)
    return tau.f - rank(kext_obstruction_rows(x), field)


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
    dim = f - rank(rows, F)
    blocks = {}
    if len(pd.bad_set) == f:
        return dim, blocks
    for block in interval_decomposition(pd.bad_set, f):
        supp = extended(set(block), f)
        vecs = row_space_supported_on(rows, supp, F, f)
        blocks[block] = vecs
    return dim, blocks
