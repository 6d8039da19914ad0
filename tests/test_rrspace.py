"""Function space: basis shape, monomial order, evaluation, poles."""

import pytest

from hermicode.curve import canonical_orbit_spec, orbit_of
from hermicode.gf import field_for_q
from hermicode.rrspace import (
    RRFunction,
    basis,
    dimension,
    evaluate,
    function_from_coeffs,
    monomials,
)


def test_monomial_order():
    assert monomials(2) == [(0, 0)]
    assert monomials(3) == [(0, 0), (0, 1), (1, 0)]
    assert monomials(4) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8])
def test_basis_size(q):
    f = field_for_q(q)
    for m in range(2, q):
        funcs = basis(f, m)
        assert len(funcs) == m * (m - 1) // 2 + 1 == dimension(m)
        assert funcs[0].eps == 1 and funcs[0].gcoeffs == ()
        for fn, ij in zip(funcs[1:], monomials(m)):
            assert fn.eps == 0 and fn.gcoeffs == ((ij, 1),)


def test_basis_examples():
    f5 = field_for_q(5)
    assert len(basis(f5, 3)) == 4  # 1, y/x^3, y^2/x^3, x y/x^3
    assert len(basis(f5, 4)) == 7
    f3 = field_for_q(3)
    assert len(basis(f3, 2)) == 2  # 1, y/x^2


@pytest.mark.parametrize("q,m", [(3, 1), (3, 3), (5, 1), (5, 5), (8, 8)])
def test_m_out_of_range_rejected(q, m):
    f = field_for_q(q)
    with pytest.raises(ValueError):
        basis(f, m)


def test_gcoeff_degree_checked():
    f = field_for_q(5)
    with pytest.raises(ValueError):
        RRFunction(f, 3, (((2, 0), 1),), 0)  # x^2 exceeds degree m - 2 = 1


def test_constant_function_evaluates_to_one():
    f = field_for_q(4)
    one = basis(f, 2)[0]
    for p in orbit_of(canonical_orbit_spec(f)):
        assert evaluate(one, p) == 1


def test_monomial_evaluation_formula():
    f = field_for_q(3)
    y_over_x2 = basis(f, 2)[1]
    for (u, v, _) in orbit_of(canonical_orbit_spec(f)):
        assert evaluate(y_over_x2, (u, v, 1)) == f.mul(v, f.inv(f.mul(u, u)))


def test_evaluation_rejects_pole_locus():
    f = field_for_q(3)
    fn = basis(f, 2)[1]
    with pytest.raises(ValueError):
        evaluate(fn, (0, 1, 1))
    with pytest.raises(ValueError):
        evaluate(fn, (0, 1, 0))


def test_function_from_coeffs_roundtrip():
    f = field_for_q(5)
    coords = [3, 0, 7, 1]
    fn = function_from_coeffs(f, 3, coords)
    assert fn.eps == 3
    assert fn.gcoeff(0, 0) == 0
    assert fn.gcoeff(0, 1) == 7
    assert fn.gcoeff(1, 0) == 1
    with pytest.raises(ValueError):
        function_from_coeffs(f, 3, [1, 2])


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
        c = f.neg(f.div(eps, f.mul(a, spec.tau)))
        fn = function_from_coeffs(f, 2, [eps, a])
        zeros = sum(1 for p in orbit if evaluate(fn, p) == 0)
        expected = q - 1 if f.norm(c) == 1 else 0
        assert zeros == expected
        seen.add(zeros)
    assert seen == {0, q - 1}
