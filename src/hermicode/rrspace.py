"""Functions with poles confined to the chord divisor.

For 2 <= m <= q - 1 the space attached to m times the sum of the q - 1
interior chord points consists of the functions

    f = (y * g(x, y) + eps * x^m) / x^m,   deg g <= m - 2,

so a function is a coefficient vector: eps plus one coefficient per
monomial x^i y^j with i + j <= m - 2.  The space has dimension
m(m-1)/2 + 1 and its divisor degree is m(q-1).  Monomials are ordered
by (i + j, i), which fixes the generator matrices of the codes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import Point
from .gf import Field


def dimension(m: int) -> int:
    return m * (m - 1) // 2 + 1


def monomials(m: int) -> list[tuple[int, int]]:
    """Exponent pairs (i, j), i + j <= m - 2, sorted by (i + j, i)."""
    pairs = [(i, j) for i in range(m - 1) for j in range(m - 1 - i)]
    pairs.sort(key=lambda ij: (ij[0] + ij[1], ij[0]))
    return pairs


def _check_m(field: Field, m: int) -> None:
    if not 2 <= m <= field.q - 1:
        raise ValueError(f"m={m} out of range [2, {field.q - 1}] (m=1 gives only constants)")


@dataclass(frozen=True)
class RRFunction:
    """Coefficient form of f = (y*g(x,y) + eps*x^m) / x^m.

    gcoeffs maps monomial exponents (i, j) of g to encodings; absent
    monomials are zero.
    """

    field: Field
    m: int
    gcoeffs: tuple[tuple[tuple[int, int], int], ...]
    eps: int

    def __post_init__(self):
        _check_m(self.field, self.m)
        for (i, j), _ in self.gcoeffs:
            if i < 0 or j < 0 or i + j > self.m - 2:
                raise ValueError(f"monomial x^{i} y^{j} exceeds degree {self.m - 2}")

    def gcoeff(self, i: int, j: int) -> int:
        for (a, b), c in self.gcoeffs:
            if (a, b) == (i, j):
                return c
        return 0


def function_from_coeffs(field: Field, m: int, coeffs: list[int] | tuple[int, ...]) -> RRFunction:
    """Build a function from a coordinate vector in basis order: the
    constant slot first, then one slot per monomial."""
    mons = monomials(m)
    if len(coeffs) != len(mons) + 1:
        raise ValueError(f"expected {len(mons) + 1} coordinates, got {len(coeffs)}")
    gcoeffs = tuple(((i, j), c) for (i, j), c in zip(mons, coeffs[1:]) if c != 0)
    return RRFunction(field, m, gcoeffs, coeffs[0])


def basis(field: Field, m: int) -> list[RRFunction]:
    """The constant 1 followed by y*x^i*y^j / x^m in monomial order."""
    _check_m(field, m)
    out = [RRFunction(field, m, (), 1)]
    for ij in monomials(m):
        out.append(RRFunction(field, m, ((ij, 1),), 0))
    return out


def powers(field: Field, m: int) -> np.ndarray:
    """Exponent pairs (a_t, b_t), basis function t being x^a_t * y^b_t:
    (0, 0) for the constant, then (i - m, j + 1) for y * x^i * y^j / x^m."""
    _check_m(field, m)
    return np.array([(0, 0)] + [(i - m, j + 1) for i, j in monomials(m)])


def evaluate(f: RRFunction, point: Point) -> int:
    """Value of f at an affine point with nonzero x coordinate."""
    fld = f.field
    u, v, x3 = point
    if x3 != 1:
        raise ValueError("evaluation needs an affine point")
    if u == 0:
        raise ValueError("x = 0 lies under the pole divisor")
    g_val = 0
    for (i, j), c in f.gcoeffs:
        term = fld.mul(c, fld.mul(fld.pow(u, i), fld.pow(v, j)))
        g_val = fld.add(g_val, term)
    numer = fld.add(fld.mul(v, g_val), fld.mul(f.eps, fld.pow(u, f.m)))
    return fld.mul(numer, fld.inv(fld.pow(u, f.m)))
