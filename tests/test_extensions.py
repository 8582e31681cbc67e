import itertools
import random
from dataclasses import dataclass, replace

import numpy as np
import pytest

from bkshapes import extensions
from bkshapes.charexp import collapse_exponents
from bkshapes.extensions import (
    ExceptionalPairError,
    ExtensionPoint,
    build_extension,
    kext_dimension,
    kext_obstruction_rows,
    kext_structure,
    rank1_etale_isomorphic,
    splits_after_inverting_u,
    splitting_diagnostics,
    walk_exponents,
)
from bkshapes.gf import field
from bkshapes.intervals import extended
from bkshapes.linalg import kernel_basis, rref
from bkshapes.phimod import BKModule, classify_shape, reorder_by_profile, strong_determinant_ok
from bkshapes.series import Mat2, Series
from bkshapes.tametypes import (
    CUSPIDAL,
    PRINCIPAL,
    TameType,
    check_profile,
    enumerate_profiles,
    enumerate_types,
    is_transition,
    make_type,
    profile_data,
    type_from_gamma,
)

F3 = field(3)
F9 = field(3, 2)
F81 = field(3, 4)


# -- the u-scale reference ---------------------------------------------------------
#
# The splitting solver as it was before it walked the v-scale, kept as the
# reference.  It solves a_i u^{r_i} g_i = h_i u^{delta_i} + b_i u^{s_i} phi(g_{i-1})
# in the coefficient graph of nodes (i, m), the coefficient of u^m in g_i,
# from three facts:
#
# - a node at or above the valuation bound LB has one child
#   (i+1, p*m - r_{i+1} + s_{i+1}), and no node has two parents;
# - the only possible cycle is the fixed point at index 0 of the
#   contracting f'-fold parent map, m* = sum_{k<f'} p^k (r_{-k} - s_{-k})
#   / (p^f' - 1), present when m* is an integer and its steps close up;
# - past ep/(p-1) a child chain only rises.
#
# So it takes the cycle in closed form and pushes each h-source
# (i, delta_i - r_i) off it down its child chain, to the first node below
# LB, whose value must vanish (a pin row), or to a top it never falls back
# from.  When the cycle's gain is 1 its value at m* is free, the loop closes
# only where its h part vanishes (a cycle row), and the section takes it to be 0.


@dataclass(frozen=True)
class RungData:
    """Per-index exponents of the extensions' partial Frobenius, read by the solver."""

    transition: bool
    r: int
    s: int
    delta: int


def extension_exponents(tau: TameType, J) -> list[RungData]:
    """The rungs at the indices of Z/f'Z, from L_i = ell'_i inside J and estep - ell'_i outside.

    At a transition (r, s, delta) = (L_i, estep - L_i, 0), elsewhere (estep, 0, estep - L_i).
    """
    J = check_profile(tau, J)
    fp, ep = tau.fprime, tau.estep
    out = []
    for i, lp in enumerate(tau.ell_prime):
        L = lp if i in J else ep - lp
        if is_transition(J, i, fp):
            out.append(RungData(True, L, ep - L, 0))
        else:
            out.append(RungData(False, ep, 0, ep - L))
    return out


class _USolver:
    """The u-scale solver: the closed-form cycle and one forward pass of the coefficient recursion.

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
        data = extension_exponents(tau, x.J)
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
        """The cycle through m* at index 0, if any, and its values (the facts above)."""
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
        """Independent functionals of h, in reduced form, whose common kernel is the split subspace."""
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


def _k(tau, i):
    """Exponent of eta at embedding i."""
    return tau.eta * tau.p ** (i % tau.fprime) % tau.estep


def _k_prime(tau, i):
    """Exponent of eta' at embedding i."""
    return tau.eta_prime * tau.p ** (i % tau.fprime) % tau.estep


def _reference_extension_exponents(tau, J):
    """The rungs from the exponents of the two characters: (c, d) = (k_i, k'_i) inside J and
    (k'_i, k_i) outside; r, s, delta = [d - c], [c - d], 0 at a transition and estep, 0,
    [c - d] elsewhere, brackets the residue mod estep."""
    fp, ep = tau.fprime, tau.estep
    out = []
    for i in range(fp):
        c, d = (_k(tau, i), _k_prime(tau, i)) if i in J else (_k_prime(tau, i), _k(tau, i))
        if is_transition(J, i, fp):
            out.append(RungData(True, (d - c) % ep, (c - d) % ep, 0))
        else:
            out.append(RungData(False, ep, 0, (c - d) % ep))
    return out


@pytest.mark.parametrize("p,f", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
                                 (5, 1), (5, 2), (7, 2)])
def test_extension_exponents_match_the_character_form(p, f):
    """The ell' form of the rungs equals the k/k' form on every rung of every (type, profile)."""
    rungs = 0
    for tau in enumerate_types(p, f):
        for J in enumerate_profiles(tau):
            got = extension_exponents(tau, J)
            assert got == _reference_extension_exponents(tau, J), (tau.key(), sorted(J))
            rungs += len(got)
    assert rungs


def test_exponent_formulas_hand_checked():
    # p=3, f=2, PS, eta=(k=5), eta'=(k'=2): k_i=(5,7), k'_i=(2,6) mod 8
    tau = make_type(3, 2, PRINCIPAL, 5, 2)
    J = frozenset({0})  # transitions at 0  co 1 (membership flips twice)
    data = extension_exponents(tau, J)
    assert [d.transition for d in data] == [True, True]
    # i=0: in J: (c,d) = (k_0,k'_0) = (5,2); transition: r=[d-c]=5, s=[c-d]=3, delta=0
    assert (data[0].r, data[0].s, data[0].delta) == (5, 3, 0)
    # i=1: not in J: (c,d) = (k'_1,k_1) = (6,7); r=[7-6]=1, s=7, delta=0
    assert (data[1].r, data[1].s, data[1].delta) == (1, 7, 0)

    Jfull = frozenset({0, 1})  # no transitions
    data2 = extension_exponents(tau, Jfull)
    for i, d in enumerate(data2):
        assert not d.transition
        assert d.r == tau.estep and d.s == 0
        assert d.delta == (_k(tau, i) - _k_prime(tau, i)) % tau.estep  # (c, d) = (k_i, k'_i) inside J


def test_cuspidal_exponents_f_periodic():
    tau = type_from_gamma(3, 2, CUSPIDAL, (1, 2))
    for J in enumerate_profiles(tau):
        data = extension_exponents(tau, J)
        for i in range(2):
            assert (data[i].r, data[i].s, data[i].delta) == (
                data[i + 2].r,
                data[i + 2].s,
                data[i + 2].delta,
            )


def test_extension_strong_det_and_component():
    tau = make_type(3, 2, PRINCIPAL, 5, 2)
    for J in enumerate_profiles(tau):
        for h in itertools.product((0, 1, 2), repeat=2):
            x = ExtensionPoint(tau, J, F9, 1, 2, h)
            mod = build_extension(x)
            assert strong_determinant_ok(mod)
            _, profs = classify_shape(mod)
            assert frozenset(J) in profs


def test_shape_two_law():
    tau = make_type(3, 2, PRINCIPAL, 5, 2)
    for J in enumerate_profiles(tau):
        for h in itertools.product((0, 1), repeat=2):
            mod = build_extension(ExtensionPoint(tau, J, F9, 1, 2, h))
            shapes, _ = classify_shape(mod)
            for i in range(tau.fprime):
                assert (shapes[i] == "II") == (is_transition(J, i, tau.fprime) and h[i % 2] == 0)


def test_zero_class_always_splits():
    tau = make_type(3, 2, PRINCIPAL, 5, 2)
    for J in enumerate_profiles(tau):
        x = ExtensionPoint(tau, J, F9, 1, 2, (0, 0))
        assert splits_after_inverting_u(x)


def test_generic_class_does_not_split_when_no_bad_indices():
    tau = make_type(3, 1, PRINCIPAL, 1, 0)
    J = frozenset({0})
    assert not profile_data(tau, J).bad_set
    assert not splits_after_inverting_u(ExtensionPoint(tau, J, F3, 1, 2, (1,)))


def test_kext_examples():
    # bad set everything: whole space splits
    tau = type_from_gamma(3, 1, CUSPIDAL, (0,))
    for J in enumerate_profiles(tau):
        pd = profile_data(tau, J)
        if len(pd.bad_set) == 1:
            assert kext_dimension(tau, J, 1, 2, F9) == 1
    # bad set empty: only zero splits
    tau2 = make_type(3, 1, PRINCIPAL, 1, 0)
    assert kext_dimension(tau2, frozenset({0}), 1, 2, F3) == 0


@pytest.mark.parametrize("kind,F", [(PRINCIPAL, F9), (CUSPIDAL, F81)])
def test_kext_matches_bad_set_p3_f2(kind, F):
    for tau in enumerate_types(3, 2, kinds=(kind,)):
        for J in enumerate_profiles(tau):
            pd = profile_data(tau, J)
            try:
                d = kext_dimension(tau, J, 1, 2, F)
            except ExceptionalPairError:
                continue
            assert d == len(pd.bad_set)


def test_split_agrees_with_obstruction_kernel():
    import random

    rng = random.Random(31)
    tested = 0
    for tau in enumerate_types(3, 2, kinds=(PRINCIPAL,)):
        for J in enumerate_profiles(tau):
            pd = profile_data(tau, J)
            if not pd.bad_set or len(pd.bad_set) == 2:
                continue
            x0 = ExtensionPoint(tau, J, F9, 1, 2, (0, 0))
            rows = kext_obstruction_rows(x0)
            for h in itertools.product(range(9), repeat=2):
                in_kernel = all(_dot(F9, row, h) == 0 for row in rows)
                got = splits_after_inverting_u(ExtensionPoint(tau, J, F9, 1, 2, h))
                assert got == in_kernel, (tau.key(), sorted(J), h)
                tested += 1
            if tested > 400:
                return
    assert tested


def _dot(F, row, h):
    acc = 0
    for x, y in zip(row, h):
        acc = F.add(acc, F.mul(x, y))
    return acc


def test_hyperplane_structure():
    seen = 0
    for tau in enumerate_types(3, 2, kinds=(PRINCIPAL,)):
        for J in enumerate_profiles(tau):
            pd = profile_data(tau, J)
            if len(pd.bad_set) != 1:
                continue
            try:
                x = ExtensionPoint(tau, J, F9, 1, 2, (0, 0))
            except ExceptionalPairError:
                continue
            dim, blocks = kext_structure(x)
            assert dim == 1
            ((block, vecs),) = blocks.items()
            supp = extended(set(block), 2)
            assert len(vecs) == 1
            assert all(vecs[0][i] != 0 for i in supp)
            assert all(vecs[0][i] == 0 for i in range(2) if i not in supp)
            seen += 1
    assert seen


@pytest.mark.parametrize("p,top", [(2, 5), (3, 4), (5, 3), (7, 2)])
def test_check_twists_are_never_an_exceptional_pair(p, top):
    """In every coefficient field the pair-driven checks build, their twist pairs are distinct
    nonzero codes, so `ExtensionPoint` never refuses them (no type at p = 2 has f' = 1)."""
    from bkshapes.gf import MAX_TABLE_Q
    from bkshapes.verify import _twist_pairs

    levels = {tau.fprime for f in range(1, top + 1) for tau in enumerate_types(p, f)}
    if p == 2:
        assert 1 not in levels  # so no field has q = 2, where 2 mod q would be 0
    for m in sorted(levels):
        if p**m <= MAX_TABLE_Q:
            F = field(p, m)
            for a, b in _twist_pairs(F):
                assert a != b and 0 < a < F.q and 0 < b < F.q


def test_exceptional_pair_refused():
    hits = 0
    for tau in enumerate_types(3, 1) + enumerate_types(3, 2):
        for J in enumerate_profiles(tau):
            if rank1_etale_isomorphic(tau, J):
                hits += 1
                F = field(3, tau.fprime)
                with pytest.raises(ExceptionalPairError):
                    ExtensionPoint(tau, J, F, 1, 1, (0,) * tau.f)
                # unequal twists remain allowed
                ExtensionPoint(tau, J, F, 1, 2, (0,) * tau.f)
    assert hits > 0


def _reference_rank1_etale_isomorphic(tau, J):
    """The shift condition on the u-scale exponents: with w_i = (d_i - c_i) mod estep the
    defect s_i - r_i - p*w_{i-1} + w_i must be estep*lambda_i, and lambda collapse to 0."""
    data = extension_exponents(tau, J)
    p, fp, ep = tau.p, tau.fprime, tau.estep
    w = [(_k_prime(tau, i) - _k(tau, i)) % ep if i in J else (_k(tau, i) - _k_prime(tau, i)) % ep
         for i in range(fp)]
    lam = []
    for i in range(fp):
        D = data[i].s - data[i].r - p * w[i - 1] + w[i]
        if D % ep:
            return False
        lam.append(D // ep)
    return collapse_exponents(lam, p, fp) == 0


def test_exceptional_pairs_match_the_shift_condition():
    pairs = hits = 0
    for p, f in ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (2, 2), (3, 2), (5, 2), (2, 3)):
        for tau in enumerate_types(p, f):
            for J in enumerate_profiles(tau):
                got = rank1_etale_isomorphic(tau, J)
                assert got == _reference_rank1_etale_isomorphic(tau, J), (tau.key(), sorted(J))
                pairs += 1
                hits += got
    assert 0 < hits < pairs


def _reference_build_extension(x):
    """The extension module from the u-scale exponents r, s, delta: the entry at (row, col)
    of ((a u^r, 0), (h u^delta, b u^s)) moved by the descent data, then divided by estep,
    and the matrix reordered by profile."""
    tau, F = x.tau, x.field
    fp, ep = tau.fprime, tau.estep
    mats = []
    for i, rung in enumerate(extension_exponents(tau, x.J)[: tau.f]):
        ai, bi = x.twist_at(i)
        lp = tau.ell_prime[i]
        rows = (0, lp) if i in x.J else (lp, 0)
        cols = (0, -lp) if (i - 1) % fp in x.J else (-lp, 0)

        def entry(c, e, row, col):
            q, rest = divmod(e + rows[row] + cols[col], ep)
            assert rest == 0
            return Series.monomial(F, "v", c, q)

        M = Mat2(entry(ai, rung.r, 0, 0), Series.zero(F, "v"),
                 entry(x.h_at(i), rung.delta, 1, 0), entry(bi, rung.s, 1, 1))
        mats.append(reorder_by_profile(M, x.J, i, fp))
    return BKModule(tau, mats)


@pytest.mark.parametrize("p,f", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
def test_build_extension_is_the_point_of_the_exponent_moves(p, f):
    """On every (type, profile), both twist orders and a random class: equal val, prec, coefficients."""
    rng = random.Random(f"build-{p}-{f}")
    built = 0
    for tau in enumerate_types(p, f):
        F = field(p, tau.fprime)
        for J in enumerate_profiles(tau):
            h = tuple(rng.randrange(F.q) for _ in range(f))
            for a, b in ((1, F.q - 1), (F.q - 1, 1)):
                try:
                    x = ExtensionPoint(tau, J, F, a, b, h)
                except ExceptionalPairError:
                    continue
                got, want = build_extension(x), _reference_build_extension(x)
                for A, B in zip(got.mats, want.mats):
                    assert [(s.val, s.prec, s.coeffs.tolist()) for s in A.e] == \
                        [(s.val, s.prec, s.coeffs.tolist()) for s in B.e]
                built += 1
    assert built


def _entries(mod):
    """Every entry of every matrix of a module as (val, prec, coefficients)."""
    return [(s.val, s.prec, s.coeffs.tolist()) for A in mod.mats for s in A.e]


@pytest.mark.parametrize("p,f", [(3, 1), (3, 2)])
@pytest.mark.parametrize("kind", [PRINCIPAL, CUSPIDAL])
def test_stacked_build_is_the_stack_of_the_lone_builds(p, f, kind):
    """build_extension(*points) is Mat2.stack of the one-point builds, entry and member."""
    rng = random.Random(f"stacked-build-{p}-{f}-{kind}")
    for tau in enumerate_types(p, f, kinds=(kind,)):
        F = field(p, tau.fprime)
        for J in enumerate_profiles(tau):
            classes = list(itertools.product((0, 1), repeat=f))
            classes += [tuple(rng.randrange(F.q) for _ in range(f)) for _ in range(3)]
            points = [ExtensionPoint(tau, J, F, 1, 2, h) for h in classes]
            alone = [build_extension(x) for x in points]
            stack = build_extension(*points)
            want = BKModule(tau, [Mat2.stack([m.mats[i] for m in alone]) for i in range(f)])
            assert _entries(stack) == _entries(want)
            for n, mod in enumerate(alone):
                assert _entries(BKModule(tau, [A.member(n) for A in stack.mats])) == _entries(mod)


def test_stacked_build_refuses_mismatched_points():
    tau = next(t for t in enumerate_types(3, 2) if t.kind == PRINCIPAL)
    J, J2 = list(enumerate_profiles(tau))[:2]
    x = ExtensionPoint(tau, J, F9, 1, 2, (0, 1))
    other_type = next(t for t in enumerate_types(3, 2) if t.kind == PRINCIPAL and t != tau)
    for y in (replace(x, J=J2), replace(x, a=2), replace(x, b=3), replace(x, field=F81),
              ExtensionPoint(other_type, J, F9, 1, 2, (1, 1))):
        with pytest.raises(ValueError, match="stacked extensions"):
            build_extension(x, y)
    assert build_extension(x).mats[0][0, 0].coeffs.ndim == 1
    assert build_extension(x, replace(x, h=(1, 1))).mats[0][0, 0].coeffs.ndim == 2


def test_split_counts_are_field_powers():
    """|{h : splits}| equals q^{|bad set|}, counted by the constructive oracle."""
    counted = 0
    for tau in enumerate_types(3, 2, kinds=(PRINCIPAL,)):
        for J in enumerate_profiles(tau):
            pd = profile_data(tau, J)
            n_split = 0
            for h in itertools.product(range(9), repeat=2):
                if splits_after_inverting_u(ExtensionPoint(tau, J, F9, 1, 2, h)):
                    n_split += 1
            assert n_split == 9 ** len(pd.bad_set), (tau.key(), sorted(J), n_split)
            counted += 1
            if counted >= 8:
                return


def test_mu_shift_kernel_slice():
    """Hyperplane slice count behind the mu-operator inclusion.

    Start from (tau, J) with a bad index j whose predecessor is regular and
    not a transition; flipping j-1 gives J' where j-1 is a transition, and
    the split subspace for J' meets {h_{j-1} = 0} in dimension |bad(J)| - 1.
    """
    from bkshapes.tametypes import is_transition

    # at f=2 principal series transitions come in pairs, so the predecessor
    # of a bad index is itself a transition; use f=3 and cuspidal f=2
    configs = [
        (3, 3, PRINCIPAL, field(3, 3)),
        (3, 2, CUSPIDAL, F81),
    ]
    seen = 0
    for p, f, kind, F in configs:
        for tau in enumerate_types(p, f, kinds=(kind,)):
            for J in enumerate_profiles(tau):
                pd = profile_data(tau, J)
                for j in pd.bad_set:
                    jm = (j - 1) % f
                    if jm in pd.bad_set or is_transition(J, jm, tau.fprime):
                        continue
                    flip = {jm} if kind == PRINCIPAL else {jm, jm + f}
                    Jp = frozenset(J) ^ frozenset(flip)
                    try:
                        x = ExtensionPoint(tau, Jp, F, 1, 2, (0,) * f)
                    except ExceptionalPairError:
                        continue
                    rows = [list(r) for r in kext_obstruction_rows(x)]
                    rows.append([1 if i == jm else 0 for i in range(f)])
                    slice_dim = f - len(rref(rows, F)[0])
                    assert slice_dim == len(pd.bad_set) - 1, (
                        tau.key(),
                        sorted(J),
                        j,
                        slice_dim,
                    )
                    seen += 1
                    if seen >= 150:
                        return
    assert seen > 0


def test_cuspidal_class_vector_periodicity():
    tau = type_from_gamma(3, 1, CUSPIDAL, (1,))
    J = frozenset({0})
    x = ExtensionPoint(tau, J, F9, 1, 2, (5, 5))
    assert x.h == (5,)
    with pytest.raises(ValueError):
        ExtensionPoint(tau, J, F9, 1, 2, (5, 3))


class _ScanSolver(_USolver):
    """The former scan solver, kept as the oracle of the u-scale forward pass.

    It finds cycles by walking f' parents from every node of the window
    [LB, W), reads a node's value by walking up its parents, and pins every
    node of [M_lo, LB).  Node values and pin rows do not depend on h, so
    one solver decides every class of its (type, profile, a, b).  Its
    vectors are [h_0..h_{f-1}, sym_0..], with one free symbol per cycle of
    gain 1, which it eliminates from the constraints before reading the
    obstruction rows.
    """

    def _zero(self):
        return [0] * (self.f + self.nsyms)

    def _step(self, node, pv):
        i, m = node
        F = self.F
        val = self._zero() if pv is None else [F.mul(self.ratio[i], c) for c in pv]
        if m == self.delta[i] - self.r[i]:
            val[i % self.f] = F.add(val[i % self.f], self.ainv[i])
        return val

    def _reduced_constraints(self):
        """RREF of every constraint row, symbol columns first, and its pivots."""
        f = self.f
        return rref([r[f:] + r[:f] for r in self.cycle_rows + self.pin_rows()], self.F)

    def obstruction_rows(self):
        ns = self.nsyms
        R, pivots = self._reduced_constraints()
        return [r[ns:] for r, c in zip(R, pivots) if c >= ns]

    def _find_cycle(self):
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
        self.cycles = cycles
        F = self.F
        gains = []
        for walk in cycles:
            A = 1
            for i, _m in walk:
                A = F.mul(A, self.ratio[i])
            gains.append(A)
        self.nsyms = gains.count(1)
        self.cycle_value = {}
        self.cycle_rows = []
        for walk, A in zip(cycles, gains):
            B = self._zero()
            for node in reversed(walk):
                B = self._step(node, B)
            if A != 1:
                base = [F.div(c, F.sub(1, A)) for c in B]
            else:
                base = self._zero()
                base[self.f + len(self.cycle_rows)] = 1
                self.cycle_rows.append(B)
            self.cycle_value[walk[0]] = val = base
            for node in reversed(walk[1:]):
                val = self._step(node, val)
                self.cycle_value[node] = val

    def value(self, node):
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

    _pins = None  # the scan's rows, kept so one solver can serve several calls

    def pin_rows(self):
        if self._pins is None:
            rows = []
            for m in range(self.M_lo, self.LB):
                for i in range(self.fp):
                    par = self._parent(i, m)
                    row = self._step((i, m), None if par is None else self.value(par))
                    if any(row):
                        rows.append(row)
            self._pins = rows
        return self._pins

    def splits(self, h=None):
        """The verdict for the class h (default x.h); node values do not depend on h."""
        x = self.x if h is None else replace(self.x, h=h)
        F, f, ns = self.F, self.f, self.nsyms
        point = list(x.h) + [0] * ns
        R, pivots = self._reduced_constraints()
        for row, c in zip(R, pivots):
            rhs = F.neg(F.dot(row[ns:], x.h))
            if c >= ns:
                if rhs:
                    return False
            else:
                point[f + c] = rhs
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


def _twists(F):
    """The twist pairs (1,2), (2,1), (1,1) and (1,-1) that are field codes, each once."""
    return list(dict.fromkeys(ab for ab in ((1, 2), (2, 1), (1, 1), (1, F.neg(1)))
                              if max(ab) < F.q))


def _solver_points(p, f, sample=None, twists=lambda F: ((1, 2), (2, 1))):
    """Extension points at (p, f) with zero class and the twists `twists(F)` of their field,
    or a seeded sample of them; equal twists at an exceptional pair are refused and skipped."""
    points = [
        (tau, J, ab)
        for tau in enumerate_types(p, f)
        for J in enumerate_profiles(tau)
        for ab in twists(field(p, tau.fprime))
    ]
    if sample is not None:
        points = random.Random(f"solver-{p}-{f}").sample(points, sample)
    for tau, J, (a, b) in points:
        try:
            yield ExtensionPoint(tau, J, field(p, tau.fprime), a, b, (0,) * f)
        except ExceptionalPairError:
            continue


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_of_no_rows_is_the_identity(n):
    assert kernel_basis([], F9, n) == [[1 if i == j else 0 for i in range(n)] for j in range(n)]


def _classes(x, rows, rng):
    """A random class vector and a random member of the split subspace."""
    F, f = x.field, x.tau.f
    ker = kernel_basis(rows, F, f)
    h = [0] * f
    for vec in ker:
        c = rng.randrange(1, F.q)
        h = [F.add(u, F.mul(c, v)) for u, v in zip(h, vec)]
    return [tuple(rng.randrange(F.q) for _ in range(f)), tuple(h)]


def _over(monkeypatch, solver, fn, x):
    """fn(x) with every solver it builds replaced by the given one."""
    with monkeypatch.context() as mp:
        mp.setattr(extensions, "_Solver", lambda _x: solver)
        return fn(x)


@pytest.mark.parametrize(
    "p,f,sample", [(3, 1, None), (5, 1, None), (7, 1, None), (3, 2, None), (5, 2, 60), (3, 3, 24)]
)
def test_forward_pass_matches_scan_solver(p, f, sample, monkeypatch):
    """The u-scale reference's closed-form cycle and forward pass against its scan solver."""
    rng = random.Random(f"classes-{p}-{f}")
    for x in _solver_points(p, f, sample):
        new, old = _USolver(x), _ScanSolver(x)
        where = (x.tau.key(), sorted(x.J), x.a, x.b)
        assert len(old.cycles) <= 1, where
        assert new.nsyms == old.nsyms, where
        f = x.tau.f
        # no constraint row involves a free symbol, so the symbols are 0 at every section
        assert all(not any(r[f:]) for r in old.cycle_rows + old.pin_rows()), where
        assert new.cycle_value == {k: v[:f] for k, v in old.cycle_value.items()}, where
        assert new.pin_rows() == [r[:f] for r in old.pin_rows()], where
        rows = new.obstruction_rows()
        assert rows == old.obstruction_rows(), where
        assert _over(monkeypatch, new, kext_structure, x) == _over(monkeypatch, old, kext_structure, x), where
        for h in _classes(x, rows, rng):
            assert _USolver(replace(x, h=h)).splits() == old.splits(h), (where, h)


def _source_nodes(x):
    """The u-scale node (i, -L_i) of each index: where h_i sits, the v^-1 of the walk."""
    tau = x.tau
    return [(i, -(lp if i in x.J else tau.estep - lp)) for i, lp in enumerate(tau.ell_prime)]


@pytest.mark.parametrize("p,f,sample", [
    (2, 1, None), (3, 1, None), (5, 1, None), (7, 1, None), (3, 2, None),
    (5, 2, 400), (7, 2, 300), (3, 3, 200),
])
def test_vscale_walk_matches_uscale_reference(p, f, sample, monkeypatch):
    """The walk against the u-scale solver, point by point, at every allowed twist.

    The walk's x_i is the reference's value at the source node (i, -L_i); `free_cycles`
    is 1 exactly when the reference has a cycle of gain 1 through the source nodes; the
    reduced obstruction rows, `kext_structure` and the verdicts on a random class and a
    random split class agree.
    """
    rng = random.Random(f"vscale-{p}-{f}")
    points = 0
    for x in _solver_points(p, f, sample, twists=_twists):
        new, old = extensions._Solver(x), _USolver(x)
        where = (x.tau.key(), sorted(x.J), x.a, x.b)
        rows = new.obstruction_rows()
        assert rows == old.obstruction_rows(), where
        ref = {**old._cache, **old.cycle_value}
        walk = {**new._cache, **new.cycle_value}
        assert [walk[i] for i in range(x.tau.fprime)] == [ref[n] for n in _source_nodes(x)], where
        assert bool(new.cycle_value) == all(new.link), where
        on_sources = set(old.cycle_value) == set(_source_nodes(x))
        assert splitting_diagnostics(x) == {"splits": True, "free_cycles": int(old.nsyms == 1 and on_sources)}, where
        assert kext_structure(x) == _over(monkeypatch, old, kext_structure, x), where
        for h in _classes(x, rows, rng):
            y = replace(x, h=h)
            assert splits_after_inverting_u(y) == _USolver(y).splits(), (where, h)
        points += 1
    assert points


def test_every_class_at_3_1_matches_the_reference():
    """Every class h in F_q^f at (3,1), every (type, profile) and allowed twist: same verdict."""
    classes = 0
    for x in _solver_points(3, 1, twists=_twists):
        for h in itertools.product(range(x.field.q), repeat=x.tau.f):
            y = replace(x, h=h)
            assert splits_after_inverting_u(y) == _USolver(y).splits(), (x.tau.key(), sorted(x.J), h)
            classes += 1
    assert classes


class _TwistedEverywhere(ExtensionPoint):
    """A point twisted by (a, b) at every index, not only at i = 0 mod f."""

    def twist_at(self, i):
        return self.a, self.b


def test_cycle_rows_match_the_reference_when_twisted_everywhere():
    """A loop of gain 1 has h part 0 at every extension point: it occurs only for a cuspidal type
    with b = -a, where the two sources of each h_j cancel.  Twisted at every index, a
    principal loop of gain 1 has a nonzero h part, so the cycle row is held to the reference."""
    rng = random.Random("twisted-everywhere")
    rows = 0
    for p, f in ((3, 2), (5, 2), (3, 3)):
        for tau in enumerate_types(p, f):
            F = field(p, tau.fprime)
            for J in enumerate_profiles(tau):
                if not all(e == p - 1 for e in walk_exponents(tau, J)):
                    continue
                for a, b in _twists(F):
                    try:
                        x = _TwistedEverywhere(tau, J, F, a, b, (0,) * f)
                    except ExceptionalPairError:
                        continue
                    new = extensions._Solver(x)
                    obstruction = new.obstruction_rows()
                    assert obstruction == _USolver(x).obstruction_rows(), (tau.key(), sorted(J))
                    rows += len(new.cycle_rows) and any(new.cycle_rows[0])
                    for h in _classes(x, obstruction, rng):
                        y = replace(x, h=h)
                        assert extensions._Solver(y).splits() == _USolver(y).splits(), (tau.key(), sorted(J), h)
    assert rows


def _link_by_the_characters(tau, J, i):
    """i-1 links to i: a transition with p*L_{i-1} + L_i = estep, L from ell'."""
    ep = tau.estep
    L = [lp if j in J else ep - lp for j, lp in enumerate(tau.ell_prime)]
    return is_transition(J, i, tau.fprime) and tau.p * L[i - 1] + L[i] == ep


def _all_or_sampled_pairs(p, f, sample):
    types = enumerate_types(p, f)
    if sample is None:
        return [(tau, J) for tau in types for J in enumerate_profiles(tau)]
    rng = random.Random(f"links-{p}-{f}")
    return [(tau, rng.choice(enumerate_profiles(tau))) for tau in rng.choices(types, k=sample)]


@pytest.mark.parametrize("p,f,sample", [
    (2, 1, None), (2, 2, None), (2, 3, None), (3, 1, None), (3, 2, None), (5, 1, None),
    (5, 2, None), (7, 1, None), (7, 2, None), (3, 3, None), (3, 4, 2000), (5, 3, 2000),
])
def test_links_are_where_s_is_minus_one(p, f, sample):
    """The link rule read from the characters holds exactly where the recipe's s_i = -1,
    and the walk's exponents are e_i = p - 2 - s_i."""
    links = checks = 0
    for tau, J in _all_or_sampled_pairs(p, f, sample):
        s = profile_data(tau, J).s
        e = walk_exponents(tau, J)
        assert e == [p - 2 - si for si in s], (tau.key(), sorted(J))
        for i in range(tau.fprime):
            link = _link_by_the_characters(tau, J, i)
            assert link == (s[i] == -1) == (e[i] == p - 1), (tau.key(), sorted(J), i)
            links += link
            checks += 1
    assert 0 < links < checks
