import itertools
import random
from dataclasses import replace

import numpy as np
import pytest

from bkshapes import extensions
from bkshapes.extensions import (
    ExceptionalPairError,
    ExtensionPoint,
    build_extension,
    extension_exponents,
    kext_dimension,
    kext_obstruction_rows,
    kext_structure,
    rank1_etale_isomorphic,
    splits_after_inverting_u,
    splitting_diagnostics,
)
from bkshapes.gf import field
from bkshapes.intervals import extended
from bkshapes.linalg import kernel_basis, rank, rref
from bkshapes.phimod import classify_shape, strong_determinant_ok
from bkshapes.series import Series
from bkshapes.tametypes import (
    CUSPIDAL,
    PRINCIPAL,
    enumerate_profiles,
    enumerate_types,
    make_type,
    profile_data,
    type_from_gamma,
)

F3 = field(3)
F9 = field(3, 2)
F81 = field(3, 4)


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
        assert d.delta == (d.c - d.d) % tau.estep


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
        data = extension_exponents(tau, J)
        for h in itertools.product((0, 1), repeat=2):
            mod = build_extension(ExtensionPoint(tau, J, F9, 1, 2, h))
            shapes, _ = classify_shape(mod)
            for i in range(tau.fprime):
                assert (shapes[i] == "II") == (data[i].transition and h[i % 2] == 0)


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
                    slice_dim = f - rank(rows, F)
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


class _ScanSolver(extensions._Solver):
    """The former scan solver, kept as the oracle of the forward pass.

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


def _solver_points(p, f, sample=None):
    """(type, profile, (1,2)/(2,1)) extension points at (p, f), or a seeded sample of them."""
    points = [
        (tau, J, ab)
        for tau in enumerate_types(p, f)
        for J in enumerate_profiles(tau)
        for ab in ((1, 2), (2, 1))
    ]
    if sample is not None:
        points = random.Random(f"solver-{p}-{f}").sample(points, sample)
    for tau, J, (a, b) in points:
        yield ExtensionPoint(tau, J, field(p, tau.fprime), a, b, (0,) * f)


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
    """Closed-form cycle and forward pass against the scan solver, point by point."""
    rng = random.Random(f"classes-{p}-{f}")
    for x in _solver_points(p, f, sample):
        new, old = extensions._Solver(x), _ScanSolver(x)
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
        for fn in (kext_structure, splitting_diagnostics):
            assert fn(x) == _over(monkeypatch, old, fn, x), where
        for h in _classes(x, rows, rng):
            assert splits_after_inverting_u(replace(x, h=h)) == old.splits(h), (where, h)
