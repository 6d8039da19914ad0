"""Functions with poles confined to the chord divisor.

For 2 <= m <= q - 1 the space attached to m times the sum of the q - 1
interior chord points consists of the functions

    f = (y * g(x, y) + eps * x^m) / x^m,   deg g <= m - 2,

so a function is a coefficient vector, a message: eps plus one
coefficient per monomial x^i y^j with i + j <= m - 2.  The space has
dimension m(m-1)/2 + 1 and its divisor degree is m(q-1).  Monomials are
ordered by (i + j, i), which fixes the generator matrices of the codes.
Basis function t is the monomial x^a_t * y^b_t (``powers``), so the
codes need nothing more than these exponent pairs.
"""

from __future__ import annotations

import numpy as np

from .gf import Field, _check_integers


def monomials(m: int) -> list[tuple[int, int]]:
    """Exponent pairs (i, j), i + j <= m - 2, sorted by (i + j, i)."""
    pairs = [(i, j) for i in range(m - 1) for j in range(m - 1 - i)]
    pairs.sort(key=lambda ij: (ij[0] + ij[1], ij[0]))
    return pairs


def powers(field: Field, m: int) -> np.ndarray:
    """Exponent pairs (a_t, b_t), basis function t being x^a_t * y^b_t:
    (0, 0) for the constant, then (i - m, j + 1) for y * x^i * y^j / x^m."""
    _check_integers((m,), "m values")
    if not 2 <= m <= field.q - 1:
        raise ValueError(f"m={m} out of range [2, {field.q - 1}] (m=1 gives only constants)")
    return np.array([(0, 0)] + [(i - m, j + 1) for i, j in monomials(m)])
