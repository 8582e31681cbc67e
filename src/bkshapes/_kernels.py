"""Hot inner loop: coefficient convolution over table-driven finite fields.

``convolve`` operates on numpy arrays of field codes plus the ADD/MUL
tables of the ambient field.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def convolve(a, b, add, mul):
    """Product coefficients of the polynomials with code arrays ``a`` and ``b``."""
    out = np.zeros(len(a) + len(b) - 1, dtype=a.dtype)
    if len(a) > len(b):
        a, b = b, a
    for i in range(len(a)):
        ai = a[i]
        if ai == 0:
            continue
        seg = out[i : i + len(b)]
        seg[:] = add[seg, mul[ai, b]]
    return out
