"""Layer probes: three fixed micro-measurements, timed with tracing off.

- probe.conv256_f81_s: one product of two 256-coefficient series over F_81
  (`_kernels.convolve` through `Series.__mul__`);
- probe.eigenbasis_deg24_s: one change of eigenbasis by degree-24 unit
  matrices at 64 terms, then shape classification (`phimod`, `Series.inverse`);
- probe.kext64_s: `kext_dimension` over 64 (type, profile) pairs at p=3 f=2
  (the splitting solver and `linalg`).

Inputs are fixed, so every workload's traced run measures the same work.
Each value is the median over repeats of the per-operation time.
"""

from __future__ import annotations

import random
import statistics
import time


def _median_time(fn, reps, per):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(per):
            fn()
        times.append((time.perf_counter() - t0) / per)
    return statistics.median(times)


def run():
    from bkshapes.extensions import kext_dimension
    from bkshapes.gf import field
    from bkshapes.phimod import change_eigenbasis, classify_shape
    from bkshapes.randgen import random_basis_change, random_module
    from bkshapes.series import Series
    from bkshapes.tametypes import enumerate_profiles, enumerate_types, make_type

    F81 = field(3, 4)
    rng = random.Random(1)
    a = Series(F81, "v", 0, [rng.randrange(F81.q) for _ in range(256)])
    b = Series(F81, "v", 0, [rng.randrange(F81.q) for _ in range(256)])

    F9 = field(3, 2)
    tau = make_type(3, 2, "principal-series", 5, 2)
    rng = random.Random(2)
    mod = random_module(rng, tau, F9, ["I_eta", "II"], degree=24)
    I = [random_basis_change(rng, F9, 24) for _ in range(2)]

    pairs = [(t, J) for t in enumerate_types(3, 2, kinds=("principal-series",))[:16]
             for J in enumerate_profiles(t)]

    def kext64():
        for t, J in pairs:
            kext_dimension(t, J, 1, 2, F9)

    return {
        "probe.conv256_f81_s": _median_time(lambda: a * b, 7, 20),
        "probe.eigenbasis_deg24_s": _median_time(
            lambda: classify_shape(change_eigenbasis(mod, I, terms=64)), 7, 10),
        "probe.kext64_s": _median_time(kext64, 7, 5),
    }
