"""Table-driven elimination against brute force: the rank is log_Q of
the row span, counted over every combination of the rows."""

import numpy as np
import pytest

from hermicode import linalg
from hermicode.gf import field_for_q


def _key(field, vecs):
    """Each vector as one integer, its symbols read as base-Q digits."""
    vecs = np.asarray(vecs, dtype=np.int64)
    return vecs @ field.order ** np.arange(vecs.shape[-1], dtype=np.int64)


def _span(field, rows):
    """Every combination sum_i c_i * rows[i], c_i in F_Q, summed through
    the add/mul tables; the distinct results as sorted keys."""
    ncols = len(rows[0])
    combos = np.zeros((1, ncols), dtype=np.int64)
    keys = _key(field, combos)
    for row in rows:
        scaled = field.mul_table[:, np.asarray(row, dtype=np.int64)]
        combos = field.add_table[combos[:, None, :], scaled[None, :, :]].reshape(-1, ncols)
        keys, first = np.unique(_key(field, combos), return_index=True)
        combos = combos[first]
    return keys


def _random_rows(field, rng):
    """At most 4 rows, with zero rows, zero columns, repeated rows and
    rows that are combinations of earlier ones mixed in."""
    nrows, ncols = int(rng.integers(1, 5)), int(rng.integers(1, 7))
    zero_cols = rng.random(ncols) < 0.2
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            row = [0] * ncols
        elif kind < 0.45 and rows:
            row = [0] * ncols
            for prev in rows:
                c = int(rng.integers(0, field.order))
                row = [field.add(a, field.mul(c, b)) for a, b in zip(row, prev)]
        else:
            row = [int(x) for x in rng.integers(0, field.order, ncols)]
        rows.append([0 if z else x for x, z in zip(row, zero_cols)])
    return rows


def _deficient_stack(field, rng):
    """Random rows stacked on combinations of themselves, as check_cyclic
    stacks a generator on its shift: 2r rows of rank at most r, so rows
    below the rank are all zero while columns remain."""
    rank, ncols = int(rng.integers(1, 3)), int(rng.integers(3, 8))
    rows = [[int(x) for x in rng.integers(0, field.order, ncols)] for _ in range(rank)]
    for coefs in rng.integers(0, field.order, (rank, rank)):
        combo = [0] * ncols
        for c, prev in zip(coefs, rows[:rank]):
            combo = [field.add(a, field.mul(int(c), b)) for a, b in zip(combo, prev)]
        rows.append(combo)
    return rows


@pytest.mark.parametrize("q", [3, 4, 5])
def test_row_reduce_matches_brute_force_span(q):
    f = field_for_q(q)
    rng = np.random.default_rng(900 + q)
    for trial in range(60):
        rows = _random_rows(f, rng) if trial < 40 else _deficient_stack(f, rng)
        span = _span(f, rows)
        array = np.array(rows)
        assert f.order**linalg.rank(f, array) == len(span)
        assert array.tolist() == rows  # eliminates on a copy
