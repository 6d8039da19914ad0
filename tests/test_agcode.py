"""Code construction: parameters, rank, encoding, cyclicity, the shift
exponents E (the shift scales message coordinate t by omega^e_t), the
build-time checks (the identity with the monomial rows, and injectivity
read off E), and the export schema."""

import numpy as np
import pytest
from oracles import evaluate, table_combination

from hermicode import agcode, linalg, rrspace, verify
from hermicode.agcode import LinearCode, build_code, check_cyclic, encode
from hermicode.curve import all_orbit_specs, canonical_orbit_spec, orbit_of
from hermicode.gf import field_for_q
from hermicode.rrspace import monomials

GRID = [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (7, 3), (8, 3)]


@pytest.mark.parametrize("q,m", GRID)
def test_code_parameters_and_rank(q, m):
    code = build_code(field_for_q(q), m)
    assert code.n == q * q - 1
    assert code.k == m * (m - 1) // 2 + 1
    assert linalg.rank(code.field, code.rows()) == code.k


def test_full_dimension_grid():
    for q in (3, 4, 5, 7, 8):
        f = field_for_q(q)
        for m in range(2, q):
            code = build_code(f, m)
            assert linalg.rank(f, code.rows()) == m * (m - 1) // 2 + 1


def test_columns_are_basis_evaluations():
    # Every orbit and every m for q <= 5, and the largest code (q=9, m=8,
    # k=29) on the canonical orbit, entry by entry against the oracle
    # evaluating each basis function (a unit coefficient vector).
    cases = [(q, spec, m) for q in (3, 4, 5) for spec in all_orbit_specs(field_for_q(q))
             for m in range(2, q)]
    cases.append((9, canonical_orbit_spec(field_for_q(9)), 8))
    for q, spec, m in cases:
        f = field_for_q(q)
        code = build_code(f, m, spec)
        points = orbit_of(spec)
        units = np.eye(code.k, dtype=int).tolist()
        expected = [[evaluate(f, m, unit, pt) for pt in points] for unit in units]
        assert code.gen.dtype == np.uint8
        assert code.gen.tolist() == expected, (q, spec.u, spec.v, m)


def test_encode_zero_and_constant_row():
    f = field_for_q(5)
    code = build_code(f, 3)
    zero = encode(code, [0] * code.k)
    assert zero.weight == 0 and set(zero.symbols) == {0}
    ones = encode(code, [1] + [0] * (code.k - 1))
    assert ones.weight == code.n and set(ones.symbols) == {1}


def test_encode_is_linear_in_scalars():
    f = field_for_q(4)
    code = build_code(f, 3)
    rng = np.random.default_rng(11)
    for _ in range(25):
        msg = [int(x) for x in rng.integers(0, f.order, code.k)]
        w = encode(code, msg)
        for c in f.nonzero():
            scaled = encode(code, [f.mul(c, x) for x in msg])
            assert scaled.symbols == tuple(f.mul(c, s) for s in w.symbols)
            assert scaled.weight == w.weight


def test_encode_length_check():
    code = build_code(field_for_q(3), 2)
    with pytest.raises(ValueError):
        encode(code, [1, 2, 3])


@pytest.mark.parametrize("symbol", [-1, 9])
def test_encode_rejects_symbols_outside_the_field(symbol):
    # Q = 9 at q = 3: a negative index would wrap around the tables.
    code = build_code(field_for_q(3), 2)
    with pytest.raises(ValueError, match="outside"):
        encode(code, [symbol, 0])


@pytest.mark.parametrize("msg", [[1.7, 0], [1, 0.0], np.array([1.5, 0.0]), ["1", 0], [None, 0]])
def test_encode_rejects_non_integer_symbols(msg):
    # combine casts to int64, so 1.7 used to encode as the symbol 1.
    code = build_code(field_for_q(3), 2)
    with pytest.raises(ValueError, match="are not integers"):
        encode(code, msg)


def test_encode_names_the_non_integer_symbols():
    code = build_code(field_for_q(4), 3)
    with pytest.raises(ValueError, match=r"\[1\.7, 2\.0\] are not integers"):
        encode(code, [0, 1.7, 2.0, 3])


@pytest.mark.parametrize("m", [2.0, 2.5])
def test_build_code_refuses_a_non_integer_m(m):
    with pytest.raises(ValueError, match="not integers"):
        build_code(field_for_q(5), m)


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int64])
def test_encode_accepts_numpy_integer_symbols(dtype):
    code = build_code(field_for_q(3), 2)
    assert encode(code, np.array([1, 2], dtype=dtype)) == encode(code, [1, 2])
    with pytest.raises(ValueError, match="outside"):
        encode(code, np.array([1, 9], dtype=dtype))


@pytest.mark.parametrize("q,m", GRID)
def test_cyclic(q, m):
    assert check_cyclic(build_code(field_for_q(q), m))


def test_swapped_columns_not_cyclic():
    f = field_for_q(3)
    code = build_code(f, 2)
    perturbed = code.gen.copy()
    perturbed[:, [0, 1]] = perturbed[:, [1, 0]]
    fixture = LinearCode(f, 2, code.spec, perturbed)
    assert not check_cyclic(fixture)


def test_built_code_arrays_are_read_only():
    code = verify.code_for(5, 3)
    for array in (code.gen, code.powers, code.exponents):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # A generator that the caller passes in keeps its flags.
    gen = code.gen.copy()
    fixture = LinearCode(code.field, 3, code.spec, gen)
    assert fixture.gen is gen and gen.flags.writeable


def test_code_attributes_cannot_be_rebound_or_deleted():
    code = verify.code_for(3, 2)
    exponents = code.exponents.tolist()
    for name, value in [("exponents", np.array([0, 1])), ("gen", np.zeros_like(code.gen)),
                        *((name, None) for name in vars(code))]:
        with pytest.raises(AttributeError):
            setattr(code, name, value)
        with pytest.raises(AttributeError):
            delattr(code, name)
    assert code.exponents.tolist() == exponents
    assert all(c.status == "pass" for c in verify.checks_for(3, 2))


def test_all_ones_row_is_shift_closed():
    f = field_for_q(3)
    code = build_code(f, 2)
    ones = np.ones((1, code.n), dtype=np.int16)
    fixture = LinearCode(f, 2, code.spec, ones)
    assert check_cyclic(fixture)


def _counting_rank(monkeypatch):
    calls = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda *a: calls.append(1) or rank(*a))
    return calls


def test_every_built_code_is_certified_without_rank(monkeypatch):
    # Every (q, orbit, m) of the catalog: the monomial rows are shift
    # eigenvectors with distinct eigenvalues, so no rank is computed.
    calls = _counting_rank(monkeypatch)
    for q in (3, 4, 5, 7, 8, 9):
        f = field_for_q(q)
        for spec in all_orbit_specs(f):
            for m in range(2, q):
                assert check_cyclic(build_code(f, m, spec)), (q, spec, m)
    assert calls == []


@pytest.mark.parametrize("q,m", [(4, 3), (5, 4), (9, 8)])
def test_cyclic_code_in_a_non_eigen_basis_takes_the_rank_path(monkeypatch, q, m):
    # A * G for a random invertible A spans the same cyclic code, but its
    # rows are not shift eigenvectors.
    f = field_for_q(q)
    code = build_code(f, m)
    rng = np.random.default_rng([19, q, m])
    mix = rng.integers(0, f.order, (code.k, code.k))
    while linalg.rank(f, mix) < code.k:
        mix = rng.integers(0, f.order, (code.k, code.k))
    calls = _counting_rank(monkeypatch)
    assert check_cyclic(LinearCode(f, m, code.spec, table_combination(f, mix, code.gen)))
    assert len(calls) == 2


def test_repeated_eigenvalue_is_not_cyclic():
    # A row and twice that row: both are eigenrows, of one eigenvalue,
    # and they span one dimension where k = 2.
    f = field_for_q(3)
    code = build_code(f, 2)
    gen = np.stack([code.gen[1], f.mul_table[2, code.gen[1]]])
    assert not check_cyclic(LinearCode(f, 2, code.spec, gen))


def test_zero_row_goes_to_the_rank_path(monkeypatch):
    # shift(0) = lambda * 0 for every lambda, so only the nonzero-row
    # condition keeps the certificate off this generator of rank 1 < k.
    f = field_for_q(3)
    code = build_code(f, 2)
    gen = code.gen.copy()
    gen[0] = 0
    calls = _counting_rank(monkeypatch)
    assert not check_cyclic(LinearCode(f, 2, code.spec, gen))
    assert calls


def test_rank_deficient_generator_is_not_cyclic():
    # e_0 and 2 e_0 span only {e_0}: stacked with their shifts they have
    # rank 2 = k, but span{e_0} is not shift-closed.
    f = field_for_q(3)
    code = build_code(f, 2)
    gen = np.zeros((2, code.n), dtype=np.int16)
    gen[:, 0] = [1, 2]
    assert not check_cyclic(LinearCode(f, 2, code.spec, gen))


@pytest.mark.parametrize("q,m", GRID)
def test_shift_of_codeword_is_codeword(q, m):
    # Scaling message coordinate t by omega^e_t must encode, through the
    # curve-built generator, to the cyclic shift of the word.
    f = field_for_q(q)
    code = build_code(f, m)
    rng = np.random.default_rng(101)
    for _ in range(100):
        msg = [int(x) for x in rng.integers(0, f.order, code.k)]
        word = encode(code, msg)
        shifted_msg = [f.mul(c, int(f.exp_table[e])) for c, e in zip(msg, code.exponents)]
        shifted = encode(code, shifted_msg)
        assert shifted.symbols == word.symbols[1:] + word.symbols[:1]
        assert shifted.weight == word.weight


@pytest.mark.parametrize("q,m", GRID)
def test_shift_matrix_is_diagonal_with_scaling_eigenvalues(q, m):
    # The shift's matrix on messages is diag(omega^e_t) with E in closed
    # form, on every orbit for q <= 5 and on the canonical one above.
    f = field_for_q(q)
    closed_form = [0] + [q + 1 - m + i + j * (q + 1) for i, j in monomials(m)]
    specs = all_orbit_specs(f) if q <= 5 else [canonical_orbit_spec(f)]
    for spec in specs:
        code = build_code(f, m, spec)
        assert code.exponents.tolist() == closed_form
        for row, e in zip(code.gen.tolist(), closed_form):
            assert row[1:] + row[:1] == [f.mul(int(f.exp_table[e]), x) for x in row]


@pytest.mark.parametrize("tamper", ["reversed", "swapped"])
def test_build_refuses_an_orbit_out_of_shift_order(monkeypatch, tamper):
    # E is unchanged, so monomial_rows accepts it; only the identity with
    # the monomial rows sees that the points are not in omega order.
    def tampered(spec):
        points = orbit_of(spec)
        if tamper == "reversed":
            return points[::-1]
        points[1], points[2] = points[2], points[1]
        return points

    monkeypatch.setattr(agcode, "orbit_of", tampered)
    for q, m in [(3, 2), (4, 3), (5, 4)]:
        with pytest.raises(RuntimeError, match="shift"):
            build_code(field_for_q(q), m)


def test_rank_deficiency_aborts(monkeypatch):
    # The last basis function is replaced by the constant, so two rows
    # are all ones with one shift eigenvalue; the identity with the
    # monomial rows holds, and only the residue check on E refuses it.
    real_powers = rrspace.powers

    def repeated(field, m):
        pairs = real_powers(field, m)
        pairs[-1] = pairs[0]
        return pairs

    monkeypatch.setattr(rrspace, "powers", repeated)
    for q, m in [(3, 2), (4, 3), (5, 4), (9, 8)]:
        with pytest.raises(RuntimeError, match="repeats a residue"):
            build_code(field_for_q(q), m)


def test_export_schema():
    f = field_for_q(3)
    code = build_code(f, 2)
    payload = code.export_dict()
    assert set(payload) == {
        "q", "p", "k_ext", "m", "n", "k", "irreducible", "omega",
        "base_point", "tau", "rows",
    }
    assert payload["q"] == 3 and payload["p"] == 3 and payload["k_ext"] == 1
    assert payload["n"] == 8 and payload["k"] == 2
    assert payload["base_point"] == [code.spec.u, code.spec.v]
    assert payload["rows"] == code.rows()
    assert all(isinstance(x, int) for row in payload["rows"] for x in row)


def test_build_is_deterministic():
    a = build_code(field_for_q(4), 3)
    b = build_code(field_for_q(4), 3)
    assert a.export_dict() == b.export_dict()


def test_build_rejects_bad_m():
    with pytest.raises(ValueError):
        build_code(field_for_q(3), 1)
    with pytest.raises(ValueError):
        build_code(field_for_q(3), 3)
