"""Curve layer: point census, chord, stabilizer action, orbits, and the
intersection bookkeeping."""

import pytest
from oracles import imult_at_O

from hermicode.curve import (
    HermitianCurve,
    OrbitSpec,
    all_orbit_specs,
    canonical_orbit_spec,
    gamma_apply,
    normalize,
    on_c_tau,
    orbit_of,
)
from hermicode.gf import field_for_q

ALL_Q = [3, 4, 5, 7, 8, 9]
SMALL_Q = [3, 4, 5]


@pytest.mark.parametrize("q", ALL_Q)
def test_point_census(q):
    f = field_for_q(q)
    curve = HermitianCurve(f)
    pts = curve.enumerate_points()
    assert len(pts) == q**3 + 1
    assert len(set(pts)) == len(pts)
    assert curve.origin in pts and curve.infinity in pts
    for p in pts:
        assert curve.membership(p)
    # every affine point satisfies the affine equation: trace(y) = norm(x)
    for (u, v, x3) in pts:
        if x3 == 1:
            assert f.trace(v) == f.norm(u)


@pytest.mark.parametrize("q", ALL_Q)
def test_chord_points(q):
    f = field_for_q(q)
    curve = HermitianCurve(f)
    chord = curve.chord_points()
    assert len(chord) == q + 1
    assert chord[0] == curve.origin and chord[-1] == curve.infinity
    interior = chord[1:-1]
    assert len(interior) == q - 1
    for (x1, b, x3) in interior:
        assert (x1, x3) == (0, 1) and b != 0
        assert f.pow(b, q) == f.neg_table[b]  # b^q = -b
    assert interior == sorted(interior)


def test_normalize_last_nonzero_coordinate():
    f = field_for_q(3)
    assert normalize(f, 0, 0, 5) == (0, 0, 1)
    assert normalize(f, 2, 5, 0) == (f.mul(2, f.inv(5)), 1, 0)
    assert normalize(f, 7, 0, 0) == (1, 0, 0)
    with pytest.raises(ValueError):
        normalize(f, 0, 0, 0)


@pytest.mark.parametrize("q", SMALL_Q)
def test_gamma_apply_basics(q):
    f = field_for_q(q)
    curve = HermitianCurve(f)
    for p in curve.enumerate_points():
        assert gamma_apply(f, 1, p) == p
    for lam in f.nonzero():
        assert gamma_apply(f, lam, curve.origin) == curve.origin
        assert gamma_apply(f, lam, curve.infinity) == curve.infinity
    with pytest.raises(ValueError):
        gamma_apply(f, 0, curve.origin)


@pytest.mark.parametrize("q", SMALL_Q)
def test_gamma_apply_preserves_both_curves(q):
    f = field_for_q(q)
    curve = HermitianCurve(f)
    spec = canonical_orbit_spec(f)
    for lam in f.nonzero():
        for p in curve.enumerate_points():
            assert curve.membership(gamma_apply(f, lam, p))
        for p in orbit_of(spec):
            assert on_c_tau(f, spec.tau, gamma_apply(f, lam, p))


def test_gamma_apply_formula():
    f = field_for_q(4)
    spec = canonical_orbit_spec(f)
    u, v = spec.u, spec.v
    w = f.omega
    assert gamma_apply(f, w, (u, v, 1)) == (f.mul(w, u), f.mul(f.pow(w, f.q + 1), v), 1)


@pytest.mark.parametrize("q", ALL_Q)
def test_orbit_structure(q):
    f = field_for_q(q)
    curve = HermitianCurve(f)
    spec = canonical_orbit_spec(f)
    orbit = orbit_of(spec)
    n = q * q - 1
    assert len(orbit) == n
    assert len(set(orbit)) == n
    chord = set(curve.chord_points())
    for p in orbit:
        assert curve.membership(p)
        assert p not in chord
        assert on_c_tau(f, spec.tau, p)
    # omega scaling advances the orbit cyclically
    for i, p in enumerate(orbit):
        assert gamma_apply(f, f.omega, p) == orbit[(i + 1) % n]


@pytest.mark.parametrize("q", ALL_Q)
def test_orbit_equals_gamma_walk(q):
    # orbit_of reads the orbit off the exp table; the oracle walks it by
    # repeated omega scaling from the base point.
    f = field_for_q(q)
    specs = all_orbit_specs(f)
    assert len(specs) == q
    for spec in specs:
        walk, current = [], (spec.u, spec.v, 1)
        for _ in range(q * q - 1):
            current = gamma_apply(f, f.omega, current)
            walk.append(current)
        assert orbit_of(spec) == walk
        assert walk[-1] == (spec.u, spec.v, 1)


@pytest.mark.parametrize("q", SMALL_Q)
def test_gamma_is_orbit_bijection(q):
    f = field_for_q(q)
    orbit = orbit_of(canonical_orbit_spec(f))
    for lam in f.nonzero():
        assert {gamma_apply(f, lam, p) for p in orbit} == set(orbit)


def test_orbit_spec_validation():
    f = field_for_q(3)
    with pytest.raises(ValueError):
        OrbitSpec(f, 0, 0)  # u = 0
    with pytest.raises(ValueError):
        OrbitSpec(f, 1, 0)  # not on the curve
    spec = canonical_orbit_spec(f)
    assert spec.u == 1
    assert f.trace(spec.v) == f.norm(spec.u)
    assert spec.tau not in (0, 1)
    assert spec.tau == f.inv(f.add(f.pow(spec.v, f.q - 1), 1))


@pytest.mark.parametrize("u,v", [(-8, -7), (1, -1), (1, 100), (9, 2), (1.0, 2), (1, 2.0), ("1", 2)])
def test_orbit_spec_refuses_coordinates_the_tables_cannot_hold(u, v):
    # (-8, -7) read through negative indexing is (1, 2), the canonical base
    # point at q = 3; (1, 100) used to end in numpy's IndexError.
    with pytest.raises(ValueError, match="orbit base point coordinates"):
        OrbitSpec(field_for_q(3), u, v)


@pytest.mark.parametrize("q", SMALL_Q)
def test_on_c_tau(q):
    f = field_for_q(q)
    curve = HermitianCurve(f)
    spec = canonical_orbit_spec(f)
    assert on_c_tau(f, spec.tau, curve.origin)
    assert on_c_tau(f, spec.tau, curve.infinity)
    for p in curve.chord_points()[1:-1]:
        assert not on_c_tau(f, spec.tau, p)
    with pytest.raises(ValueError):
        on_c_tau(f, 0, curve.origin)


@pytest.mark.parametrize("q", ALL_Q)
def test_intersection_multiplicity_at_origin(q):
    f = field_for_q(q)
    spec = canonical_orbit_spec(f)
    assert imult_at_O(f, spec.tau) == q + 1
    assert imult_at_O(f, 1) == q * (q + 1)
    for tau in f.nonzero():
        expected = q * (q + 1) if tau == 1 else q + 1
        assert imult_at_O(f, tau) == expected


def test_imult_matches_direct_substitution_q4():
    # Substitute y = tau x^(q+1) into the curve equation by hand and
    # inspect the lowest surviving exponent.
    f = field_for_q(4)
    q = f.q
    tau = canonical_orbit_spec(f).tau
    coeff_low = f.sub(tau, 1)
    coeff_high = f.pow(tau, q)
    exps = [e for e, c in [(q + 1, coeff_low), (q * (q + 1), coeff_high)] if c != 0]
    assert min(exps) == 5
    assert imult_at_O(f, tau) == 5


@pytest.mark.parametrize("q", ALL_Q)
def test_orbit_partition_off_chord(q):
    # The q^3 - q affine points off the chord fall into free stabilizer
    # orbits of size q^2 - 1, so there are exactly q of them.  Each spec
    # is its orbit's smallest (u, v) member, found by walking the orbit
    # with gamma_apply, and the specs are in the order of those members.
    f = field_for_q(q)
    curve = HermitianCurve(f)
    specs = all_orbit_specs(f)
    assert len(specs) == q
    covered: set = set()
    smallest = []
    for spec in specs:
        orbit = set(orbit_of(spec))
        assert len(orbit) == q * q - 1
        assert not (orbit & covered)
        covered |= orbit
        walk, current = [], (spec.u, spec.v, 1)
        for _ in range(q * q - 1):
            current = gamma_apply(f, f.omega, current)
            walk.append(current[:2])
        assert (spec.u, spec.v) == min(walk)
        smallest.append(min(walk))
    assert smallest == sorted(smallest)
    assert canonical_orbit_spec(f) == specs[0]
    off_chord = [p for p in curve.enumerate_points()
                 if p[2] == 1 and p[0] != 0]
    assert len(off_chord) == q**3 - q
    assert covered == set(off_chord)


@pytest.mark.parametrize("q", SMALL_Q)
def test_degree_accounting(q):
    # Orbit size plus twice the multiplicity at each chord endpoint
    # matches the product of the curve degrees.
    f = field_for_q(q)
    spec = canonical_orbit_spec(f)
    total = len(orbit_of(spec)) + 2 * imult_at_O(f, spec.tau)
    assert total == (q + 1) ** 2


@pytest.mark.parametrize("q", SMALL_Q)
def test_all_orbit_specs_have_distinct_tau(q):
    f = field_for_q(q)
    taus = [s.tau for s in all_orbit_specs(f)]
    assert len(set(taus)) == len(taus)
