"""Tiny exact linear algebra over the table-driven finite fields.

Rows are Python lists of field codes; everything here runs on matrices
with at most a handful of rows, so clarity beats vectorization.
"""

from __future__ import annotations

from .gf import GF


def rref(rows, F: GF):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows if any(r)]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [F.sub(x, F.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    rows = [row for row in rows if any(row)]
    return rows, pivots


def kernel_basis(rows, F: GF, ncols: int):
    """Basis of the right kernel of the matrix given by ``rows``."""
    R, pivots = rref(rows, F)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in zip(R, pivots):
            vec[pc] = F.neg(r[fc])
        basis.append(vec)
    return basis


def row_space_supported_on(rows, support, F: GF, ncols: int):
    """Basis of the intersection of the row space with a coordinate subspace.

    Finds all combinations of the rows vanishing outside ``support``.
    """
    R, _ = rref(rows, F)
    if not R:
        return []
    outside = [c for c in range(ncols) if c not in support]
    # combos lam with sum lam_i R[i][c] = 0 for c outside the support
    constraint = [[R[i][c] for i in range(len(R))] for c in outside]
    lams = kernel_basis(constraint, F, len(R))
    out = []
    for lam in lams:
        vec = [0] * ncols
        for coef, row in zip(lam, R):
            if coef:
                vec = [F.add(x, F.mul(coef, y)) for x, y in zip(vec, row)]
        if any(vec):
            out.append(vec)
    return rref(out, F)[0]
