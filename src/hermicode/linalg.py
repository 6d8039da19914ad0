"""Small dense linear algebra over the code alphabet.

Matrices are lists of lists of encodings, or integer arrays of them, with
at most 58 rows (check_cyclic's fallback stacks k <= 29 generator rows,
q=9, m=8, on their shifts) and n = q^2 - 1 <= 80 columns.  Elimination works
on whole arrays through the field's add/mul/neg/inv tables.
"""

from __future__ import annotations

import numpy as np

from .gf import Field


def row_reduce(field: Field, rows) -> tuple[list[list[int]], list[int]]:
    """Row-reduce a copy of ``rows``; returns (rref, pivot_columns).

    Each pivot clears its column in every other row with one table
    update of the whole matrix.
    """
    mat = np.array(rows, dtype=np.int64)
    nrows = len(mat)
    if nrows == 0:
        return [], []
    add, mul, neg, inv = field.add_table, field.mul_table, field.neg_table, field.inv_table
    pivots: list[int] = []
    r = 0
    for c in range(mat.shape[1]):
        if not mat[r:].any():  # no pivot is left below row r
            break
        live = np.flatnonzero(mat[r:, c])
        if live.size == 0:
            continue
        mat[[r, r + live[0]]] = mat[[r + live[0], r]]
        mat[r] = mul[inv[mat[r, c]], mat[r]]
        coef = np.where(np.arange(nrows) == r, 0, mat[:, c])
        mat = add[mat, neg[mul[coef[:, None], mat[r]]]]
        pivots.append(c)
        r += 1
    return mat.tolist(), pivots


def rank(field: Field, rows) -> int:
    _, pivots = row_reduce(field, rows)
    return len(pivots)
