"""Rank-1 extension families and the split-after-inverting-u oracle.

An extension of the two standard rank-1 modules attached to (tau, J) is
cut out by unramified twist parameters a, b and a class vector h.  The
partial Frobenius acts on the generator pair (m, n) by

    m_{i-1} |-> a_i u^{r_i} m_i + h_i u^{delta_i} n_i
    n_{i-1} |-> b_i u^{s_i} n_i

with exponents driven by the transition pattern of J.  Splitting after
inverting u asks for a Laurent solution g of

    a_i u^{r_i} g_i = h_i u^{delta_i} + b_i u^{s_i} phi(g_{i-1}),

a linear problem in the coefficients of g.  The coefficient dependency
graph has one parent per node, so it resolves into chains and cycles; the
solver below decides solvability exactly and, on the linear-functional
side, assembles the obstruction matrix whose nullity is the split
subspace dimension.
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
        one = 1
        if i % self.tau.f == 0:
            return self.a, self.b
        return one, one

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
    """Chain/cycle resolution of the coefficient recursion.

    Values are affine in the class vector h (f coordinates) and in one free
    symbol per undetermined cycle; vectors are [h_0..h_{f-1}, sym_0..].
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
        self.M_lo = self.p * self.LB - ep
        self._find_cycles()
        self._cache: dict = {}

    # node (i, m): coefficient of u^m in g_i
    def _parent(self, i: int, m: int):
        mm = m + self.r[i] - self.s[i]
        if mm % self.p:
            return None
        q = mm // self.p
        if q < self.LB:
            return None
        return ((i - 1) % self.fp, q)

    def _zero(self):
        return [0] * (self.f + self.nsyms)

    def _step(self, node, pv):
        """Value at node from its parent's value pv (None when it has no parent).

        The coefficient of u^(m + r_i) in the recursion reads
        g_i[m] = (b_i/a_i) g_{i-1}[parent] + [m + r_i == delta_i] h_i/a_i.
        """
        i, m = node
        F = self.F
        val = self._zero() if pv is None else [F.mul(self.ratio[i], c) for c in pv]
        if m == self.delta[i] - self.r[i]:
            val[i % self.f] = F.add(val[i % self.f], self.ainv[i])
        return val

    def _find_cycles(self):
        seen = set()
        cycles = []
        for i in range(self.fp):
            for m in range(self.LB, self.W):
                node = (i, m)
                if node in seen:
                    continue
                walk = [node]
                cur = node
                ok = True
                for _ in range(self.fp):
                    cur = self._parent(*cur)
                    if cur is None or not (self.LB <= cur[1] < self.W):
                        ok = False
                        break
                    walk.append(cur)
                if ok and walk[-1] == node:
                    cycles.append(walk[:-1])
                    seen.update(walk[:-1])
        # walk[k+1] is the parent of walk[k]; a loop maps x at walk[0] to A*x + B
        F = self.F
        gains = []
        for walk in cycles:
            A = 1
            for i, _m in walk:
                A = F.mul(A, self.ratio[i])
            gains.append(A)
        self.nsyms = gains.count(1)
        self.cycle_value: dict = {}
        self.cycle_rows: list = []
        for walk, A in zip(cycles, gains):
            B = self._zero()
            for node in reversed(walk):
                B = self._step(node, B)
            if A != 1:
                base = [F.div(c, F.sub(1, A)) for c in B]
            else:
                # a free symbol, consistent when the pure-h B vanishes
                base = self._zero()
                base[self.f + len(self.cycle_rows)] = 1
                self.cycle_rows.append(B)
            self.cycle_value[walk[0]] = val = base
            for node in reversed(walk[1:]):
                val = self._step(node, val)
                self.cycle_value[node] = val

    def value(self, node):
        """Affine value of a node at or above the valuation bound."""
        chain = []
        known = None
        while node is not None:
            known = self.cycle_value.get(node) or self._cache.get(node)
            if known is not None:
                break
            chain.append(node)
            node = self._parent(*node)
        for node in reversed(chain):
            known = self._step(node, known)
            self._cache[node] = known
        return known

    def pin_rows(self):
        """Constraints from nodes below the valuation bound, whose values vanish."""
        rows = []
        for m in range(self.M_lo, self.LB):
            for i in range(self.fp):
                par = self._parent(i, m)
                row = self._step((i, m), None if par is None else self.value(par))
                if any(row):
                    rows.append(row)
        return rows

    def _reduced_constraints(self):
        """RREF of every constraint row, symbol columns first, and its pivots.

        Rows whose pivot lies in the h block span the pure-h consequences;
        the others solve for one symbol each.
        """
        f = self.f
        return rref([r[f:] + r[:f] for r in self.cycle_rows + self.pin_rows()], self.F)

    def obstruction_rows(self):
        """Pure-h functionals whose common kernel is the split subspace."""
        ns = self.nsyms
        R, pivots = self._reduced_constraints()
        return [r[ns:] for r, c in zip(R, pivots) if c >= ns]

    def splits(self, uprec: int | None = None) -> bool:
        """Decide splitting of the class x.h by constructing a section and checking it.

        Solves the constraints for the symbols (free ones set to zero),
        evaluates the affine node values there, then substitutes the
        Laurent coefficients into the defining recursion as series and
        asserts the residual vanishes on the known range.
        """
        x, F, f, ns = self.x, self.F, self.f, self.nsyms
        point = list(x.h) + [0] * ns
        R, pivots = self._reduced_constraints()
        for row, c in zip(R, pivots):
            rhs = F.neg(F.dot(row[ns:], x.h))
            if c >= ns:
                if rhs:
                    return False  # inconsistent: 0 = nonzero
            else:
                point[f + c] = rhs

        if uprec is None:
            uprec = 4 * x.tau.estep + 64
        g = []
        for i in range(self.fp):
            V = np.array([self.value((i, m)) for m in range(self.LB, uprec)], dtype=F.dtype)
            arr = np.zeros(len(V), dtype=F.dtype)
            for k, c in enumerate(point):
                arr = F.ADD[arr, F.MUL[V[:, k], c]]
            g.append(Series(F, "u", self.LB, arr, uprec))
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
    rows = kext_obstruction_rows(x)
    return tau.f - rank(rows, field) if rows else tau.f


def splits_after_inverting_u(x: ExtensionPoint, uprec: int | None = None) -> bool:
    """Whether the class x.h splits after inverting u (see _Solver.splits)."""
    return _Solver(x).splits(uprec)


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
    dim = f - rank(rows, F) if rows else f
    blocks = {}
    if len(pd.bad_set) == f:
        return dim, blocks
    for block in interval_decomposition(pd.bad_set, f):
        supp = extended(set(block), f)
        vecs = row_space_supported_on(rows, supp, F, f)
        blocks[block] = vecs
    return dim, blocks
