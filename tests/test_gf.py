"""Field layer: table arithmetic against naive polynomial arithmetic,
linear combinations against the table loop, generator order, norm/trace
structure."""

import numpy as np
import pytest
from oracles import table_combination

from hermicode import gf
from hermicode.agcode import build_code
from hermicode.gf import SUPPORTED_Q, field_for_q, make_field

ALL_Q = sorted(SUPPORTED_Q)


# -- independent oracle: naive polynomial arithmetic mod the irreducible


def _digits(v, length, p):
    out = []
    for _ in range(length):
        out.append(v % p)
        v //= p
    return out


def _encode(poly, p):
    return sum(c * p**i for i, c in enumerate(poly))


def _naive_mul(a, b, field):
    p, deg = field.p, 2 * field.k
    da, db = _digits(a, deg, p), _digits(b, deg, p)
    prod = [0] * (2 * deg)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    irr = list(field.irreducible)
    for top in range(len(prod) - 1, deg - 1, -1):
        c = prod[top]
        if c:
            shift = top - (len(irr) - 1)
            for i, ci in enumerate(irr):
                prod[shift + i] = (prod[shift + i] - c * ci) % p
    return _encode(prod[:deg], p)


def _naive_order(a, field):
    acc, order = a, 1
    while acc != 1:
        acc = _naive_mul(acc, a, field)
        order += 1
        assert order <= field.order
    return order


@pytest.mark.parametrize("q", ALL_Q)
def test_tables_match_naive_polynomial_arithmetic(q):
    f = field_for_q(q)
    for a in f.elements():
        for b in f.elements():
            assert f.mul(a, b) == _naive_mul(a, b, f)
    # addition is digit-wise
    for a in f.elements():
        for b in f.elements():
            da = _digits(a, 2 * f.k, f.p)
            db = _digits(b, 2 * f.k, f.p)
            assert f.add(a, b) == _encode([(x + y) % f.p for x, y in zip(da, db)], f.p)


@pytest.mark.parametrize("q", ALL_Q)
def test_field_axioms_full_scan(q):
    f = field_for_q(q)
    o = f.order
    idx = np.arange(o)
    add, mul = f.add_table.astype(np.int32), f.mul_table.astype(np.int32)
    a = idx[:, None, None]
    b = idx[None, :, None]
    c = idx[None, None, :]
    assert np.array_equal(add[add[a, b], c], add[a, add[b, c]])
    assert np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]])
    assert np.array_equal(mul[a, add[b, c]].squeeze(), add[mul[a, b], mul[a, c]].squeeze())
    assert np.array_equal(add, add.T)
    assert np.array_equal(mul, mul.T)


@pytest.mark.parametrize("q", ALL_Q)
def test_combine_matches_the_table_loop(q):
    # k = 29 is the dimension of the q = 9, m = 8 code, whose generator is
    # the rows at q = 9; every coefficient array holds zeros.
    f = field_for_q(q)
    n = f.order - 1
    rng = np.random.default_rng([41, q])
    for k in (1, 4, 29):
        rows = build_code(f, 8).gen if k == 29 and q == 9 else rng.integers(0, f.order, (k, n))
        for shape in ((k,), (3, k), (2, 5, k)):
            coefs = rng.integers(0, f.order, shape)
            coefs[..., 0] = 0
            coefs[rng.random(shape) < 0.3] = 0
            got = f.combine(coefs, rows)
            assert got.shape == shape[:-1] + (n,)
            assert np.array_equal(got, table_combination(f, coefs, rows)), (k, shape)
        assert f.combine(coefs[0, 0].tolist(), rows).tolist() \
            == table_combination(f, coefs[0, 0], rows).tolist()
    # No terms: the empty sum is the zero word, also for batched shapes.
    assert np.array_equal(f.combine([], np.zeros((0, n), dtype=np.int16)), np.zeros(n))
    assert np.array_equal(f.combine(np.zeros((4, 0), dtype=np.int64),
                                    np.zeros((0, n), dtype=np.int16)), np.zeros((4, n)))


@pytest.mark.parametrize("q", ALL_Q)
def test_identities_and_inverses(q):
    f = field_for_q(q)
    for a in f.elements():
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg_table[a]) == 0
    for a in f.nonzero():
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_make_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_field(4, 1)  # not prime
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 1)  # q = 2 < 3
    with pytest.raises(ValueError):
        make_field(2, 9)  # table limit


def test_make_field_refuses_alphabets_the_tables_cannot_hold(monkeypatch):
    def build(*args):
        raise AssertionError("tables built for an oversized field")

    monkeypatch.setattr(gf, "_product_table", build)
    monkeypatch.setattr(gf.Field, "_build_tables", build)
    # Q = 1024 > 2^8; F_{11^2}, F_{13^2} and F_{2^8} fit in uint8 but are
    # not in SUPPORTED_Q; the rest are not fields of any supported code.
    for p, k in [(2, 5), (11, 1), (13, 1), (2, 4), (4, 1), (2, 0), (2, 1), (2, 9)]:
        with pytest.raises(ValueError, match=r"\(p, k\)=\(\d+, \d+\) is not a supported field"):
            make_field(p, k)


def test_field_tables_are_read_only():
    f = field_for_q(3)
    with pytest.raises(ValueError, match="read-only"):
        f.mul_table[2, 2] = 0
    tables = [v for v in vars(f).values() if isinstance(v, np.ndarray)]
    assert tables and not any(t.flags.writeable for t in tables)


def test_field_attributes_cannot_be_rebound_or_deleted():
    f = field_for_q(5)
    product = f.mul(2, 3)
    for name in list(vars(f)):
        with pytest.raises(AttributeError):
            setattr(f, name, f.add_table)
        with pytest.raises(AttributeError):
            delattr(f, name)
    assert f.mul(2, 3) == product != 0
    assert f.mul_table is not f.add_table


def test_make_field_refuses_non_integers_cached_or_not():
    # A float equal to a supported p must not reach the tables, nor find
    # the cached field of the int.
    make_field.cache_clear()
    for _ in range(2):
        for p, k in [(3.0, 1), (3, 1.0), (np.float64(3), 1)]:
            with pytest.raises(ValueError, match="not integers"):
                make_field(p, k)
        field_for_q(3)
    assert make_field(np.int64(3), 1) == field_for_q(3)


# (irreducible, omega) per q: both fix every encoding, so they are pinned.
FIELD_CHOICES = {
    3: ((1, 0, 1), 4),
    4: ((1, 1, 0, 0, 1), 2),
    5: ((2, 0, 1), 6),
    7: ((1, 0, 1), 9),
    8: ((1, 1, 0, 0, 0, 0, 1), 2),
    9: ((2, 1, 0, 0, 1), 3),
}


def test_make_field_deterministic_and_cached():
    assert make_field(3, 1) is make_field(3, 1)
    for q, choice in FIELD_CHOICES.items():
        f = field_for_q(q)
        assert (f.irreducible, f.omega) == choice, q


@pytest.mark.parametrize("q,order", [(3, 8), (4, 15)])
def test_omega_order_forced_small_fields(q, order):
    f = field_for_q(q)
    assert _naive_order(f.omega, f) == order


def test_omega_smallest_full_order_element_f25():
    f = field_for_q(5)
    n = f.order - 1
    smallest = next(c for c in range(2, f.order) if _naive_order(c, f) == n)
    assert f.omega == smallest
    assert f.pow(f.omega, 24) == 1
    assert f.pow(f.omega, 8) != 1
    assert f.pow(f.omega, 12) != 1


@pytest.mark.parametrize("q", ALL_Q)
def test_omega_has_full_order(q):
    f = field_for_q(q)
    n = f.order - 1
    assert f.pow(f.omega, n) == 1
    for d in range(1, n):
        if n % d == 0:
            assert f.pow(f.omega, d) != 1


@pytest.mark.parametrize("q", ALL_Q)
def test_irreducible_is_monic_rootfree_degree_2k(q):
    f = field_for_q(q)
    irr = f.irreducible
    assert len(irr) == 2 * f.k + 1
    assert irr[-1] == 1
    for x in range(f.p):
        val = sum(c * x**i for i, c in enumerate(irr)) % f.p
        assert val != 0


@pytest.mark.parametrize("q", ALL_Q)
def test_subfield_is_frobenius_fixed_and_closed(q):
    f = field_for_q(q)
    sub = [a for a in f.elements() if f.pow(a, q) == a]
    assert len(sub) == q
    assert set(f.subfield_elements()) == set(sub)
    for a in sub:
        for b in sub:
            assert f.subfield_mask[f.add(a, b)]
            assert f.subfield_mask[f.mul(a, b)]


@pytest.mark.parametrize("q", ALL_Q)
def test_frobenius_involution(q):
    f = field_for_q(q)
    fixed = 0
    for a in f.elements():
        assert f.frobenius(f.frobenius(a)) == a
        if f.frobenius(a) == a:
            fixed += 1
    assert fixed == q


@pytest.mark.parametrize("q", ALL_Q)
def test_norm_and_trace_structure(q):
    f = field_for_q(q)
    assert f.norm(0) == 0 and f.trace(0) == 0
    norm_fibers: dict[int, int] = {}
    trace_fibers: dict[int, int] = {}
    for a in f.elements():
        na, ta = f.norm(a), f.trace(a)
        assert f.subfield_mask[na] and f.subfield_mask[ta]
        norm_fibers[na] = norm_fibers.get(na, 0) + 1
        trace_fibers[ta] = trace_fibers.get(ta, 0) + 1
    assert set(norm_fibers) == set(f.subfield_elements())
    assert all(norm_fibers[v] == q + 1 for v in norm_fibers if v != 0)
    assert norm_fibers[0] == 1
    assert set(trace_fibers) == set(f.subfield_elements())
    assert all(c == q for c in trace_fibers.values())


@pytest.mark.parametrize("q", ALL_Q)
def test_trace_is_subfield_linear(q):
    f = field_for_q(q)
    sub = f.subfield_elements()
    for c in sub:
        for a in list(f.elements())[:: max(1, f.order // 16)]:
            assert f.trace(f.mul(c, a)) == f.mul(c, f.trace(a))
    for a in list(f.elements())[:: max(1, f.order // 12)]:
        for b in list(f.elements())[:: max(1, f.order // 12)]:
            assert f.trace(f.add(a, b)) == f.add(f.trace(a), f.trace(b))


@pytest.mark.parametrize("q", [4, 8])
def test_even_characteristic_quadratic_generator(q):
    # With eps of relative trace 1, the conjugate is eps + 1 and the norm
    # is the constant term of its minimal polynomial over the subfield.
    f = field_for_q(q)
    candidates = [e for e in f.elements() if f.trace(e) == 1]
    assert candidates
    for eps in candidates:
        assert f.frobenius(eps) == f.add(eps, 1)
        delta = f.norm(eps)
        assert f.subfield_mask[delta]
        assert f.add(f.add(f.mul(eps, eps), eps), delta) == 0


def test_norm_of_omega_q3():
    f = field_for_q(3)
    two = f.norm(f.omega)
    assert two == 2
    assert f.mul(two, two) == 1 and two != 1  # order 2 generator of the prime field units


def test_pow_edge_cases():
    f = field_for_q(3)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)
    a = 5
    assert f.pow(a, -1) == f.inv(a)
    assert f.pow(a, f.order - 1 + 3) == f.pow(a, 3)  # exponents mod q^2 - 1
