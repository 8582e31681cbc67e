"""Host-speed calibration: a fixed reference task, independent of bkshapes.

The shared host the benchmark runs on goes through fast and slow spells,
from under a second to minutes long, and a slow spell stretches every
timing taken during it.  While a round runs, round.py runs this task once
every 0.2 s of wall time; run.py scales the round's timings by REF_S over
the mean time of the task in that round, so every timing reads as seconds
on a host where the task takes REF_S.  The task uses no bkshapes code, so
no change to the program can move it.

The task does what a bkshapes round spends its time on, on data of its
own: pure-Python integer convolutions over lists and a dict (like the
field-table builds and recipe rows), then a convolution over an
81-element table-driven ring by numpy fancy indexing, a scalar recurrence
through the same tables, and small Python objects (like the series
engine).
"""

from __future__ import annotations

import numpy as np

REF_S = 0.0080

_R = np.arange(81, dtype=np.int16)
_ADD = ((_R[:, None] // 9 + _R[None, :] // 9) % 9 * 9 + (_R[:, None] + _R[None, :]) % 9).astype(np.int16)
_MUL = ((_R[:, None].astype(np.int32) * _R[None, :]) % 81).astype(np.int16)
_A = ((np.arange(48) * 37 + 11) % 81).astype(np.int16)
_B = ((np.arange(64) * 29 + 5) % 81).astype(np.int16)


class _Obj:
    __slots__ = ("v", "c")

    def __init__(self, v, c):
        self.v = v
        self.c = c


def _python_part():
    total = 0
    for _ in range(12):
        a = list(range(1, 49))
        b = list(range(5, 53))
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % 81
        table = {k: (k * k + 1) % 81 for k in range(81)}
        total += sum(table[v] for v in out)
    return total


def _table_part():
    objs = []
    for _ in range(12):
        out = np.zeros(len(_A) + len(_B) - 1, dtype=np.int16)
        for i in range(len(_A)):
            ai = _A[i]
            if ai == 0:
                continue
            seg = out[i : i + len(_B)]
            seg[:] = _ADD[seg, _MUL[ai, _B]]
        acc = 0
        for k in range(1, 40):
            acc = int(_ADD[acc, _MUL[int(out[k]), int(_A[k])]])
            objs.append(_Obj(k, out[:k]))
        objs.append(_Obj(acc, {j: int(out[j]) for j in range(0, 100, 3)}))
    return len(objs)


def task():
    """One run of the reference task."""
    return _python_part() + _table_part()
