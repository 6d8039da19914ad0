"""The Hermitian curve, its chord through (0:0:1) and (0:1:0), and the
orbits of the diagonal two-point stabilizer.

Points are triples of field encodings (x1, x2, x3), normalized so the
last nonzero coordinate is 1; equality is plain tuple equality.  The
curve has affine equation y^q + y = x^(q+1); the stabilizer of the two
chord endpoints acts by (x1:x2:x3) -> (a*x1 : a^(q+1)*x2 : x3).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .gf import Field

Point = tuple[int, int, int]


def normalize(field: Field, x1: int, x2: int, x3: int) -> Point:
    if x3 != 0:
        s = field.inv(x3)
        return (field.mul(x1, s), field.mul(x2, s), 1)
    if x2 != 0:
        return (field.mul(x1, field.inv(x2)), 1, 0)
    if x1 != 0:
        return (1, 0, 0)
    raise ValueError("(0, 0, 0) is not a projective point")


class HermitianCurve:
    """The curve x2^q*x3 + x2*x3^q = x1^(q+1) over F_{q^2}."""

    def __init__(self, field: Field):
        self.field = field
        self.q = field.q
        self.origin: Point = (0, 0, 1)
        self.infinity: Point = (0, 1, 0)

    def membership(self, point: Point) -> bool:
        f = self.field
        x1, x2, x3 = point
        lhs = f.add(f.mul(f.pow(x2, self.q), x3), f.mul(x2, f.pow(x3, self.q)))
        return lhs == f.pow(x1, self.q + 1)

    def enumerate_points(self) -> list[Point]:
        """All q^3 + 1 rational points: affine ones ordered by (x, y)
        encoding, then the single point at infinity."""
        f = self.field
        points: list[Point] = []
        for u in f.elements():
            nu = f.norm(u)
            for v in f.elements():
                if f.trace(v) == nu:
                    points.append((u, v, 1))
        points.append(self.infinity)
        return points

    def chord_points(self) -> list[Point]:
        """The q + 1 points on the line x1 = 0: the origin, the q - 1
        interior points (0 : b : 1) with b^q + b = 0, b != 0, and the
        point at infinity."""
        f = self.field
        interior = [(0, b, 1) for b in f.nonzero() if f.trace(b) == 0]
        return [self.origin] + sorted(interior) + [self.infinity]


def gamma_apply(field: Field, lam: int, point: Point) -> Point:
    """Image of a point under the stabilizer element scaling x1 by lam."""
    if lam == 0:
        raise ValueError("the stabilizer contains no singular scaling")
    x1, x2, x3 = point
    return normalize(field, field.mul(lam, x1), field.mul(field.pow(lam, field.q + 1), x2), x3)


@dataclass(frozen=True)
class OrbitSpec:
    """Base point (u, v) of an evaluation orbit, with its companion
    curve parameter tau = 1 / (v^(q-1) + 1)."""

    field: Field
    u: int
    v: int
    tau: int = dc_field(init=False)

    def __post_init__(self):
        f = self.field
        f.check_symbols((self.u, self.v), "orbit base point coordinates")
        if self.u == 0:
            raise ValueError("orbit base point needs u != 0")
        if f.trace(self.v) != f.norm(self.u):
            raise ValueError("base point is not on the curve")
        denom = f.add(f.pow(self.v, f.q - 1), 1)
        # u != 0 forces v != 0 and v^(q-1) != -1, so tau exists and is
        # neither 0 nor 1.
        object.__setattr__(self, "tau", f.inv(denom))


def canonical_orbit_spec(field: Field) -> OrbitSpec:
    """Deterministic orbit choice: smallest u, then smallest v."""
    return all_orbit_specs(field)[0]


def orbit_of(spec: OrbitSpec) -> list[Point]:
    """The ordered orbit (Q_1, ..., Q_{q^2-1}), Q_i = (omega^i u, omega^(i(q+1)) v, 1)
    the image of the base point under scaling by omega^i, as one exp-table
    gather.  The omega scaling maps Q_i to Q_{i+1}, indices cyclic."""
    f, n = spec.field, spec.field.order - 1
    i = np.arange(1, n + 1)
    xs = f.exp_table[(f.log_table[spec.u] + i) % n].tolist()
    ys = f.exp_table[(f.log_table[spec.v] + i * (f.q + 1)) % n].tolist()
    return [(x, y, 1) for x, y in zip(xs, ys)]


def on_c_tau(field: Field, tau: int, point: Point) -> bool:
    """Membership in the companion curve x2*x3^q = tau*x1^(q+1)."""
    if tau == 0:
        raise ValueError("tau must be nonzero")
    x1, x2, x3 = point
    return field.mul(x2, field.pow(x3, field.q)) == field.mul(tau, field.pow(x1, field.q + 1))


def all_orbit_specs(field: Field) -> list[OrbitSpec]:
    """One canonical spec per stabilizer orbit off the chord, ordered by
    smallest (u, v) member.  There are exactly q such orbits: the
    q^3 - q off-chord points fall into free orbits of size q^2 - 1.

    The scaling by lambda moves u to lambda * u, so each orbit has exactly
    one point with u = 1, its smallest (u, v) member; on the curve that
    point has Tr(v) = N(1) = 1.
    """
    return [OrbitSpec(field, 1, v) for v in field.elements() if field.trace(v) == 1]
