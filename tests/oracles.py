"""Slow, independent oracles that the tests compare the library against:
point-by-point evaluation of a function of the space (functions as
coefficient vectors, as in ``hermicode.rrspace``), the intersection
multiplicity of the two curves at the origin, the integer Hermite
normal form, linear combinations of rows through the add and mul
tables, the weight counts of every message of a monomial code, one by
one, the same counts from one Hermite-normal-form box per support, and
the dual code's weight distribution by the MacWilliams transform."""

from fractions import Fraction
from itertools import combinations
from math import comb, prod

import numpy as np

from hermicode import agcode, weights
from hermicode.rrspace import monomials


def evaluate(field, m, coeffs, point):
    """Value at an affine point with nonzero x coordinate of the function
    f = (y*g(x, y) + eps*x^m) / x^m whose coordinates ``coeffs`` are eps
    followed by the coefficients of g in monomial order."""
    mons = monomials(m)
    if len(coeffs) != len(mons) + 1:
        raise ValueError(f"expected {len(mons) + 1} coordinates, got {len(coeffs)}")
    u, v, x3 = point
    if x3 != 1:
        raise ValueError("evaluation needs an affine point")
    if u == 0:
        raise ValueError("x = 0 lies under the pole divisor")
    g_val = 0
    for (i, j), c in zip(mons, coeffs[1:]):
        term = field.mul(c, field.mul(field.pow(u, i), field.pow(v, j)))
        g_val = field.add(g_val, term)
    numer = field.add(field.mul(v, g_val), field.mul(coeffs[0], field.pow(u, m)))
    return field.mul(numer, field.inv(field.pow(u, m)))


def imult_at_O(field, tau):
    """Intersection multiplicity of the two curves at the origin,
    computed by substituting y = tau*x^(q+1) into y^q + y - x^(q+1) and
    reading off the lowest exponent with a nonzero coefficient."""
    if tau == 0:
        raise ValueError("tau must be nonzero")
    q = field.q
    substituted = {
        q + 1: field.sub(tau, 1),
        q * (q + 1): field.pow(tau, q),
    }
    exponents = [e for e, c in substituted.items() if c != 0]
    return min(exponents)


def hnf_diagonal(rows, s, modulus):
    """Diagonal of the row Hermite normal form of the lattice spanned by
    ``rows`` together with modulus * e_i.  The box prod [0, diag_i) is a
    transversal of the quotient, of size prod(diag)."""
    mat = [list(r) for r in rows]
    mat += [[modulus if i == j else 0 for j in range(s)] for i in range(s)]
    diag = []
    top = 0
    for col in range(s):
        while True:
            live = [i for i in range(top, len(mat)) if mat[i][col] != 0]
            piv = min(live, key=lambda i: abs(mat[i][col]))
            mat[top], mat[piv] = mat[piv], mat[top]
            finished = True
            for i in range(top + 1, len(mat)):
                if mat[i][col]:
                    f = mat[i][col] // mat[top][col]
                    mat[i] = [a - f * b for a, b in zip(mat[i], mat[top])]
                    if mat[i][col]:
                        finished = False
            if finished:
                break
        if mat[top][col] < 0:
            mat[top] = [-a for a in mat[top]]
        diag.append(mat[top][col])
        top += 1
    return diag


def table_combination(field, coefs, rows):
    """Sum over t of coefs[..., t] * rows[t], one mul-table and one
    add-table lookup per term, for ``Field.combine`` to match."""
    coefs, rows = np.asarray(coefs, dtype=np.int64), np.asarray(rows, dtype=np.int64)
    acc = np.zeros(coefs.shape[:-1] + rows.shape[1:], dtype=np.int64)
    for t, row in enumerate(rows):
        acc = field.add_table[acc, field.mul_table[coefs[..., t, None], row]]
    return acc


def full_scan_counts(field, exponents, jobs=1):
    """Weight counts of the monomial code of (field, E = ``exponents``) from
    one box of all Q^k messages, each counted once: no scalar symmetry, no
    plan and no zero message added by hand.  The exhaustive route must
    equal it; an E that repeats a residue is refused as there."""
    rows = agcode.monomial_rows(field, exponents)
    return weights._box_counts(field, [([field.mul_table[:, row] for row in rows], 1)], jobs)


def translation_counts(field, exponents, jobs=1):
    """Weight counts of the monomial code of (field, E = ``exponents``) from
    one box per support pattern S of the messages.  Scalars and the shift
    translate the discrete logs on S by the lattice L spanned by (1, ..., 1)
    and (e_t)_{t in S}; the box's sides are the diagonal of L's Hermite
    normal form, so it holds one point per coset, of weight n^|S| / size.
    The reduced route must equal it."""
    rows = agcode.monomial_rows(field, exponents)
    k, n = rows.shape
    # scaled[t, j] = omega^j * row t.
    scaled = field.mul_table[field.exp_table[:n, None], rows[:, None, :]]
    boxes = []
    for s in range(1, k + 1):
        for coords in combinations(range(k), s):
            sides = hnf_diagonal([[1] * s, [exponents[t] for t in coords]], s, n)
            boxes.append(([scaled[t, :d] for t, d in zip(coords, sides)], n**s // prod(sides)))
    counts = weights._box_counts(field, boxes, jobs)
    counts[0] += 1  # zero message
    return counts


def dual_distribution(counts, n, big_q):
    """Weight distribution B_0 .. B_n of the dual of a length-n code over
    F_Q whose weight enumerator is ``counts`` (weight -> words), by the
    MacWilliams transform B_j = |C|^-1 sum_w A_w K_j(w), with the
    Krawtchouk sums K_j(w) = sum_i (-1)^i (Q - 1)^(j - i) C(w, i) C(n - w, j - i)
    in exact integers.  Each B_j is a Fraction: for a linear code it must be
    a non-negative integer, with B_0 = 1 and sum B = Q^n / |C|."""
    size = sum(counts.values())
    return [Fraction(sum(a * sum((-1)**i * (big_q - 1)**(j - i) * comb(w, i) * comb(n - w, j - i)
                                 for i in range(j + 1))
                         for w, a in counts.items()), size)
            for j in range(n + 1)]
