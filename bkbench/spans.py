"""Span tracing of the bkshapes layers, installed from outside the package.

Every layer boundary is a public function or method of a module under
``src/bkshapes``.  ``Tracer.install`` replaces each one with a wrapper that
records calls and self time (a span's duration minus the time of the
traced spans nested inside it).  Names imported by value, such as
``descend_to_base`` in ``verify`` or ``coefficient_field`` in ``cli``, are
rebound in every loaded ``bkshapes`` module that holds them, so no call
slips past its wrapper.  Nothing inside the package is edited.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

MODULES = (
    "gf", "_kernels", "series", "phimod", "extensions", "linalg", "tametypes",
    "hodge", "intervals", "charexp", "io", "randgen", "verify", "cli",
)

# (module, attribute or Class.method, span name, hook reading work counts)
SPANS = [
    ("gf", "GF.__init__", "gf.build", "_on_build"),
    ("_kernels", "convolve", "kernels.convolve", "_on_convolve"),
    ("series", "Series.__mul__", "series.mul", None),
    ("series", "Series.inverse", "series.inverse", "_on_inverse"),
    ("series", "Series.frobenius", "series.frobenius", None),
    ("series", "Mat2.__mul__", "series.mat2_mul", None),
    ("series", "Mat2.inverse", "series.mat2_inverse", None),
    ("phimod", "change_eigenbasis", "phimod.change_eigenbasis", None),
    ("phimod", "descend_to_base", "phimod.descend_to_base", None),
    ("phimod", "ascend_from_base", "phimod.ascend_from_base", None),
    ("phimod", "apply_operator_on_basis", "phimod.apply_operator_on_basis", None),
    ("phimod", "classify_shape", "phimod.classify_shape", None),
    ("phimod", "strong_determinant_ok", "phimod.strong_determinant_ok", None),
    # solver_s: cycle census at construction plus symbol elimination;
    # pin_rows_s includes the node walk that pinning triggers.
    ("extensions", "_Solver.__init__", "extensions.solver", "_on_solver"),
    ("extensions", "_Solver.obstruction_rows", "extensions.solver", None),
    ("extensions", "_Solver.pin_rows", "extensions.pin_rows", None),
    ("extensions", "splits_after_inverting_u", "extensions.split_check", "_harvest"),
    # the other entry points that build a solver, for its node count
    ("extensions", "kext_obstruction_rows", "extensions.entry", "_harvest"),
    ("extensions", "splitting_diagnostics", "extensions.entry", "_harvest"),
    ("linalg", "rref", "linalg.rref", None),
    ("tametypes", "profile_data", "tametypes.profile_data", None),
    ("hodge", "hodge_type_of", "hodge.hodge_type_of", None),
    ("hodge", "find_type_profile", "hodge.find_type_profile", None),
    ("io", "write_sweep", "io.sweep_write", "_on_write"),
    ("io", "read_sweep", "io.sweep_read", None),
    ("cli", "main", "cli.main", None),
    ("randgen", "random_series", "randgen", None),
    ("randgen", "random_module", "randgen", None),
    ("randgen", "random_noshape_matrix", "randgen", None),
    ("randgen", "random_component_module", "randgen", None),
    # rejection samplers: each loop iteration draws one candidate and tests det()
    ("randgen", "random_unit_matrix", "randgen", "_on_sample"),
    ("randgen", "random_basis_change", "randgen", "_on_sample"),
    ("randgen", "random_shaped_matrix", "randgen", "_on_sample"),
]

# Boundaries that must record calls on each workload (the layer -> end-to-end
# mapping in README.md); a traced run where one reads zero is refused.
REQUIRED = {
    "verify-p3f2": [
        "gf.build", "kernels.convolve", "series.mul", "series.inverse",
        "series.frobenius", "series.mat2_mul", "series.mat2_inverse",
        "phimod.change_eigenbasis", "phimod.descend_to_base",
        "phimod.ascend_from_base", "phimod.apply_operator_on_basis",
        "phimod.classify_shape", "phimod.strong_determinant_ok",
        "extensions.solver", "extensions.pin_rows", "extensions.split_check",
        "linalg.rref", "tametypes.profile_data", "hodge.hodge_type_of",
        "hodge.find_type_profile", "randgen", "cli.main",
    ],
    "sweep-fields": [
        "gf.build", "tametypes.profile_data", "hodge.hodge_type_of",
        "io.sweep_write", "io.sweep_read", "cli.main",
    ],
}


def _resolve(module, path):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Per-span call counts, self times and work counters for one process."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.wall_s = defaultdict(float)
        self.work = Counter()
        self.fields_built = []
        self._names = []     # open span names, innermost last
        self._child = []     # time of traced children per open span
        self._solvers = []   # solvers built since the last harvest

    def _span(self, name, fn, on_return=None):
        calls, self_s, wall_s = self.calls, self.self_s, self.wall_s
        names, child = self._names, self._child
        clock = time.perf_counter

        calls[name] += 0
        self_s[name] += 0.0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            names.append(name)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                names.pop()
                self_s[name] += dt - child.pop()
                wall_s[name] += dt
                if child:
                    child[-1] += dt
            if on_return is not None:
                on_return(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- work counters read at the boundaries ---------------------------
    def _on_build(self, args, _result):
        F = args[0]
        self.fields_built.append((F.p, F.m))
        q, isz = F.q, F.dtype(0).itemsize
        # ADD and MUL are q x q, NEG and INV q, digits q x m
        self.work["gf.table_bytes"] += (2 * q * q + 2 * q + q * F.m) * isz

    def _on_convolve(self, args, _result):
        self.work["kernels.convolve_products"] += len(args[0]) * len(args[1])

    def _on_inverse(self, _args, result):
        n = 1 if result.prec is None else result.prec - result.val
        self.work["series.inverse_coeffs"] += n

    def _on_write(self, _args, result):
        self.work["io.bytes_written"] += len(result.encode())

    def _on_solver(self, args, _result):
        self._solvers.append(args[0])
        self.work["extensions.solver_builds"] += 1

    def _harvest(self, _args, _result):
        for sol in self._solvers:
            self.work["extensions.solver_nodes"] += len(sol.cycle_value) + len(sol._cache)
        self._solvers.clear()

    def _on_sample(self, _args, _result):
        self.work["randgen.accepted"] += 1

    def install(self):
        """Wrap every boundary in SPANS and rebind names imported by value."""
        mods = {m: importlib.import_module(f"bkshapes.{m}") for m in MODULES}
        originals = {}
        for mod, path, name, hook in SPANS:
            owner, attr = _resolve(mods[mod], path)
            orig = getattr(owner, attr)
            wrapped = self._span(name, orig, hook and getattr(self, hook))
            setattr(owner, attr, wrapped)
            originals[id(orig)] = wrapped
        self._count_objects(mods["series"].Series)
        self._count_candidates(mods["series"].Mat2)
        for key, mod in sys.modules.items():
            if key.startswith("bkshapes") and mod is not None:
                for attr, val in list(vars(mod).items()):
                    if id(val) in originals:
                        setattr(mod, attr, originals[id(val)])
        verify = mods["verify"]
        verify.CHECKS[:] = [
            (check, self._span(f"verify.{check}", fn)) for check, fn in verify.CHECKS
        ]
        self._profile_cache = mods["tametypes"]._profile_data_cached
        self._cache_start = self._profile_cache.cache_info()

    def _count_objects(self, series):
        orig = series.__init__
        work = self.work

        def init(*args, **kwargs):
            work["series.objects"] += 1
            orig(*args, **kwargs)

        series.__init__ = init

    def _count_candidates(self, mat2):
        orig = mat2.det
        work, names = self.work, self._names

        def det(M):
            if names and names[-1] == "randgen":
                work["randgen.candidates"] += 1
            return orig(M)

        mat2.det = det

    def report(self):
        now = self._profile_cache.cache_info()
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "wall_s": dict(self.wall_s),
            "work": dict(self.work),
            "fields_built": self.fields_built,
            "profile_cache": [now.hits - self._cache_start.hits,
                              now.misses - self._cache_start.misses],
        }
