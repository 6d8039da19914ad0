"""Function space: monomial order, the basis exponent pairs, and the
point-by-point evaluation oracle (``oracles.evaluate``) that the
generator tests rely on: constants, the closed form of y/x^2, poles."""

import numpy as np
import pytest
from oracles import evaluate

from hermicode.curve import canonical_orbit_spec, orbit_of
from hermicode.gf import field_for_q
from hermicode.rrspace import monomials, powers


def test_monomial_order():
    assert monomials(2) == [(0, 0)]
    assert monomials(3) == [(0, 0), (0, 1), (1, 0)]
    assert monomials(4) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8])
def test_basis_size(q):
    f = field_for_q(q)
    for m in range(2, q):
        pairs = powers(f, m).tolist()
        assert len(pairs) == m * (m - 1) // 2 + 1
        assert pairs[0] == [0, 0]
        assert pairs[1:] == [[i - m, j + 1] for i, j in monomials(m)]


def test_basis_examples():
    f5 = field_for_q(5)
    # 1, y/x^3, y^2/x^3, x y/x^3
    assert powers(f5, 3).tolist() == [[0, 0], [-3, 1], [-3, 2], [-2, 1]]
    assert len(powers(f5, 4)) == 7
    f3 = field_for_q(3)
    assert powers(f3, 2).tolist() == [[0, 0], [-2, 1]]  # 1, y/x^2


@pytest.mark.parametrize("q,m", [(3, 1), (3, 3), (5, 1), (5, 5), (8, 8)])
def test_m_out_of_range_rejected(q, m):
    f = field_for_q(q)
    with pytest.raises(ValueError):
        powers(f, m)


@pytest.mark.parametrize("m", [2.0, 2.5, np.float64(3), "3"], ids=repr)
def test_non_integer_m_rejected(m):
    # 2.0 passes the range check, and range() would then raise a bare TypeError.
    with pytest.raises(ValueError, match="not integers"):
        powers(field_for_q(5), m)


def test_constant_function_evaluates_to_one():
    f = field_for_q(4)
    for p in orbit_of(canonical_orbit_spec(f)):
        assert evaluate(f, 2, [1, 0], p) == 1


def test_monomial_evaluation_formula():
    f = field_for_q(3)
    for (u, v, _) in orbit_of(canonical_orbit_spec(f)):
        assert evaluate(f, 2, [0, 1], (u, v, 1)) == f.mul(v, f.inv(f.mul(u, u)))


def test_evaluation_rejects_pole_locus():
    f = field_for_q(3)
    with pytest.raises(ValueError):
        evaluate(f, 2, [0, 1], (0, 1, 1))
    with pytest.raises(ValueError):
        evaluate(f, 2, [0, 1], (0, 1, 0))


def test_zero_pattern_of_y_over_x2_plus_constant_q3():
    # f = a y/x^2 + eps vanishes at the orbit points whose x-coordinate
    # solves x^(q-1) = -eps/(a tau): q - 1 zeros when that constant has
    # norm 1, none otherwise.
    f = field_for_q(3)
    q = f.q
    spec = canonical_orbit_spec(f)
    orbit = orbit_of(spec)
    a = 1
    seen = set()
    for eps in f.nonzero():
        c = int(f.neg_table[f.mul(eps, f.inv(f.mul(a, spec.tau)))])
        zeros = sum(1 for p in orbit if evaluate(f, 2, [eps, a], p) == 0)
        expected = q - 1 if f.norm(c) == 1 else 0
        assert zeros == expected
        seen.add(zeros)
    assert seen == {0, q - 1}
