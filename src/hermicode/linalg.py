"""Small dense linear algebra over the code alphabet.

Matrices are lists of lists of encodings, or integer arrays of them, with
at most 58 rows (check_cyclic stacks the k <= 29 generator rows of q=9,
m=8 on their shifts) and n = q^2 - 1 <= 80 columns.  Elimination works
on whole arrays through the field's add/mul/neg/inv tables.
"""

from __future__ import annotations

import numpy as np

from .gf import Field


def row_reduce(field: Field, rows) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """Row-reduce a copy of ``rows``.

    Returns (rref, pivot_columns, transform) with transform * rows == rref
    over the field; transform is square of size len(rows).  [rows | I]
    is reduced with one table update of every row per pivot.
    """
    mat = np.asarray(rows, dtype=np.int64)
    nrows = len(mat)
    if nrows == 0:
        return [], [], []
    ncols = mat.shape[1]
    add, mul, neg, inv = field.add_table, field.mul_table, field.neg_table, field.inv_table
    aug = np.concatenate([mat, np.eye(nrows, dtype=np.int64)], axis=1)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        live = np.flatnonzero(aug[r:, c])
        if live.size == 0:
            continue
        aug[[r, r + live[0]]] = aug[[r + live[0], r]]
        aug[r] = mul[inv[aug[r, c]], aug[r]]
        coef = np.where(np.arange(nrows) == r, 0, aug[:, c])
        aug = add[aug, neg[mul[coef[:, None], aug[r]]]]
        pivots.append(c)
        r += 1
    return aug[:, :ncols].tolist(), pivots, aug[:, ncols:].tolist()


def rank(field: Field, rows) -> int:
    _, pivots, _ = row_reduce(field, rows)
    return len(pivots)


def _mat_mul(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i in range(a.shape[1]):
        out = field.add_table[out, field.mul_table[a[:, i, None], b[i]]]
    return out


def express_rows(field: Field, rows, targets) -> list[list[int]] | None:
    """Matrix A with A * rows == targets, or None if some target is
    outside the row space.  The rref rows have unit pivots and zeros
    elsewhere in pivot columns, so a target t in their span is
    t[pivots] * rref."""
    rref, pivots, trans = row_reduce(field, rows)
    targets = np.asarray(targets, dtype=np.int64)
    coeffs = targets[:, pivots]
    if not np.array_equal(_mat_mul(field, coeffs, np.asarray(rref)[:len(pivots)]), targets):
        return None
    return _mat_mul(field, coeffs, np.asarray(trans)[:len(pivots)]).tolist()


def mat_vec(field: Field, mat: list[list[int]], vec: list[int]) -> list[int]:
    out = []
    for row in mat:
        acc = 0
        for a, b in zip(row, vec):
            acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return out
