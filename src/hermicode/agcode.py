"""Evaluation codes over one stabilizer orbit.

The generator matrix has one row per basis function and one column per
orbit point, column i holding the value at Q_{i+1}.  With that column
order the omega scaling of the plane realizes the coordinate shift
(c_1, ..., c_n) -> (c_2, ..., c_n, c_1), so shift closure of the row
space certifies that the whole code is cyclic.

Substituting y = tau * x^(q+1) on the orbit turns basis function
x^a * y^b into a multiple of the monomial x^e, e = a + (q+1) b, so the
shift multiplies generator row t by omega^e_t.  The exponents e_t form
the set E = {0} u {q+1-m+i+j(q+1) : i+j <= m-2}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, rrspace
from .curve import OrbitSpec, canonical_orbit_spec, orbit_of
from .gf import Field


@dataclass(frozen=True)
class Codeword:
    symbols: tuple[int, ...]

    @property
    def weight(self) -> int:
        return sum(1 for s in self.symbols if s != 0)


class LinearCode:
    """A [q^2 - 1, m(m-1)/2 + 1] evaluation code over F_{q^2}.

    ``powers`` holds the basis exponent pairs (a_t, b_t) and
    ``exponents`` the shift exponents e_t = a_t + (q+1) b_t.
    """

    def __init__(self, field: Field, m: int, spec: OrbitSpec, gen: np.ndarray):
        self.field = field
        self.q = field.q
        self.m = m
        self.spec = spec
        self.gen = gen
        self.k, self.n = gen.shape
        self.powers = rrspace.powers(field, m)
        self.exponents = self.powers @ np.array([1, field.q + 1])
        self._enum_cache: dict[str, object] = {}

    def __repr__(self) -> str:
        return f"LinearCode(q={self.q}, m={self.m}, n={self.n}, k={self.k})"

    def rows(self) -> list[list[int]]:
        return [[int(x) for x in row] for row in self.gen]

    def export_dict(self) -> dict:
        """Self-describing generator-matrix payload, every element as
        its integer encoding."""
        f = self.field
        return {
            "q": self.q,
            "p": f.p,
            "k_ext": f.k,
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "irreducible": list(f.irreducible),
            "omega": f.omega,
            "base_point": [self.spec.u, self.spec.v],
            "tau": self.spec.tau,
            "rows": self.rows(),
        }


def build_code(field: Field, m: int, spec: OrbitSpec | None = None) -> LinearCode:
    """Evaluate the basis over the ordered orbit, check that the shift
    scales row t by omega^e_t, and check injectivity in closed form.

    Basis function t is x^a_t * y^b_t (``rrspace.powers``).  Every orbit
    point (u, v) has u, v != 0 (see OrbitSpec), so the whole matrix is
    one exp-table gather at (a_t * log u + b_t * log v) mod (Q - 1), and
    no row is zero.  Once the shift check holds, row t is an eigenvector
    of the shift with eigenvalue omega^e_t.  The shift's eigenspaces are
    lines (n = Q - 1 is prime to p), so the rows are independent exactly
    when E has k distinct residues mod Q - 1.
    """
    if spec is None:
        spec = canonical_orbit_spec(field)
    logs = field.log_table[np.array(orbit_of(spec))[:, :2]]
    powers = rrspace.powers(field, m)  # checks the range of m
    gen = field.exp_table[(powers @ logs.T) % (field.order - 1)].astype(np.int16)
    code = LinearCode(field, m, spec, gen)
    context = f"build_code(q={field.q}, m={m})"
    scaled = field.mul_table[field.exp_table[code.exponents][:, None], code.gen]
    if not np.array_equal(np.roll(code.gen, -1, axis=1), scaled):
        raise RuntimeError(f"{context}: the shift does not scale row t by omega^e_t")
    if len(set((code.exponents % (field.order - 1)).tolist())) != code.k:
        raise RuntimeError(f"{context}: E repeats a residue mod {field.order - 1}, "
                           "so the evaluation map is not injective")
    return code


def check_message(code: LinearCode, msg) -> None:
    """Refuse a message of the wrong length or with a symbol outside [0, Q)."""
    if len(msg) != code.k:
        raise ValueError(f"message length {len(msg)} != k={code.k}")
    bad = [s for s in msg if not 0 <= s < code.field.order]
    if bad:
        raise ValueError(f"message symbols {bad} outside [0, {code.field.order})")


def encode(code: LinearCode, msg) -> Codeword:
    check_message(code, msg)
    f = code.field
    acc = np.zeros(code.n, dtype=np.int16)
    for coef, row in zip(msg, code.gen):
        if coef != 0:
            acc = f.add_table[acc, f.mul_table[coef, row]]
    return Codeword(tuple(int(x) for x in acc))


def check_cyclic(code: LinearCode) -> bool:
    """Shift closure of the generator rows, certified by the rank of the
    rows stacked with their shifts staying k."""
    stacked = np.vstack([code.gen, np.roll(code.gen, -1, axis=1)])
    return linalg.rank(code.field, stacked) == code.k
