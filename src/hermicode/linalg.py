"""Rank over the code alphabet, for ``check_cyclic``'s fallback.

Matrices are lists of lists of encodings, or integer arrays of them, with
at most 58 rows (the fallback stacks k <= 29 generator rows, q=9, m=8, on
their shifts) and n = q^2 - 1 <= 80 columns.  Elimination works on whole
arrays through the field's add/mul/neg/inv tables.
"""

from __future__ import annotations

import numpy as np

from .gf import Field


def rank(field: Field, rows) -> int:
    """The number of pivots left by eliminating on a copy of ``rows``:
    each pivot, scaled to 1, clears its column in the rows below it with
    one table update."""
    mat = np.array(rows, dtype=np.int64)
    if len(mat) == 0:
        return 0
    add, mul, neg, inv = field.add_table, field.mul_table, field.neg_table, field.inv_table
    r = 0
    for c in range(mat.shape[1]):
        if not mat[r:].any():  # no pivot is left below row r
            break
        live = np.flatnonzero(mat[r:, c])
        if live.size == 0:
            continue
        mat[[r, r + live[0]]] = mat[[r + live[0], r]]
        mat[r] = mul[inv[mat[r, c]], mat[r]]
        mat[r + 1:] = add[mat[r + 1:], neg[mul[mat[r + 1:, c, None], mat[r]]]]
        r += 1
    return r
