"""Evaluation codes over one stabilizer orbit.

The generator matrix has one row per basis function and one column per
orbit point, column i holding the value at Q_{i+1}.  With that column
order the omega scaling of the plane realizes the coordinate shift
(c_1, ..., c_n) -> (c_2, ..., c_n, c_1), so shift closure of the row
space certifies that the whole code is cyclic.  ``check_cyclic`` reads
that off a certificate, every row a shift eigenvector with distinct
eigenvalues as in every ``build_code`` output, else off ranks.

On the orbit x = omega^i * u and y = tau * x^(q+1), so basis function
x^a * y^b is tau^b * u^e times the monomial x^e, e = a + (q+1) b: every
orbit gives the code of ``monomial_rows`` for the set
E = {0} u {q+1-m+i+j(q+1) : i+j <= m-2}, as ``build_code`` checks.
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
        return len(self.symbols) - self.symbols.count(0)


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A [q^2 - 1, m(m-1)/2 + 1] evaluation code over F_{q^2}.

    ``powers`` holds the basis exponent pairs (a_t, b_t) and
    ``exponents`` the shift exponents e_t = a_t + (q+1) b_t, both read-only.
    No attribute can be rebound or deleted.
    """

    field: Field
    m: int
    spec: OrbitSpec
    gen: np.ndarray

    def __post_init__(self):
        powers = rrspace.powers(self.field, self.m)
        exponents = powers @ np.array([1, self.field.q + 1])
        powers.flags.writeable = exponents.flags.writeable = False
        k, n = self.gen.shape
        vars(self).update(q=self.field.q, k=k, n=n, powers=powers, exponents=exponents)

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


def monomial_rows(field: Field, exponents) -> np.ndarray:
    """Row t holds omega^(i * e_t), i = 1 .. Q - 1, for E = ``exponents``.  The
    rows are independent exactly when E has distinct residues mod Q - 1 (the
    shift's eigenspaces are lines), so an E that repeats one is refused."""
    big_n = field.order - 1
    residues = np.asarray(exponents, dtype=np.int64) % big_n
    if len(set(residues.tolist())) != len(residues):
        raise RuntimeError(f"E repeats a residue mod {big_n}: the evaluation map is not injective")
    return field.exp_table[np.outer(residues, np.arange(1, field.order)) % big_n]


def build_code(field: Field, m: int, spec: OrbitSpec | None = None) -> LinearCode:
    """Evaluate the basis over the ordered orbit and check that row t is
    tau^b_t * u^e_t times row t of ``monomial_rows``, which proves the code
    cyclic, of dimension k, and equal to the monomial code of E.

    Basis function t is x^a_t * y^b_t (``rrspace.powers``).  Every orbit
    point (u, v) has u, v != 0 (see OrbitSpec), so the whole matrix is
    one exp-table gather at (a_t * log u + b_t * log v) mod (Q - 1)."""
    if spec is None:
        spec = canonical_orbit_spec(field)
    logs = field.log_table[np.array(orbit_of(spec))[:, :2]]
    powers = rrspace.powers(field, m)  # checks the range of m
    gen = field.exp_table[(powers @ logs.T) % (field.order - 1)].astype(np.int16)
    gen.flags.writeable = False
    code = LinearCode(field, m, spec, gen)
    log_tau, log_u = field.log_table[[spec.tau, spec.u]]
    scale = field.exp_table[(powers[:, 1] * log_tau + code.exponents * log_u) % (field.order - 1)]
    rows = field.mul_table[scale[:, None], monomial_rows(field, code.exponents)]
    if not np.array_equal(gen, rows):
        raise RuntimeError(f"build_code(q={field.q}, m={m}): the orbit is not in shift order")
    return code


def check_message(code: LinearCode, msg) -> None:
    """Refuse a message of the wrong length, or with a symbol that
    ``Field.check_symbols`` refuses."""
    if len(msg) != code.k:
        raise ValueError(f"message length {len(msg)} != k={code.k}")
    code.field.check_symbols(msg, "message symbols")


def encode(code: LinearCode, msg) -> Codeword:
    check_message(code, msg)
    return Codeword(tuple(code.field.combine(msg, code.gen).tolist()))


def check_cyclic(code: LinearCode) -> bool:
    """Whether the k rows span a k-dimensional shift-closed space.

    Certificate: lambda_t = shift(g_t)[j] / g_t[j] at the first nonzero j of
    row t; every row is nonzero, shift(G) is the rows scaled by lambda_t and
    the lambda_t are distinct, so the rows are independent eigenvectors.
    Fallback: rank k for the rows, and for the rows stacked on their shifts."""
    f, gen = code.field, code.gen
    shifted = np.roll(gen, -1, axis=1)
    first = (np.arange(code.k), np.argmax(gen != 0, axis=1))
    if gen[first].all():
        lam = f.mul_table[shifted[first], f.inv_table[gen[first]]]
        scaled = f.mul_table[lam[:, None], gen]
        if len(set(lam.tolist())) == code.k and np.array_equal(shifted, scaled):
            return True
    return linalg.rank(f, gen) == code.k and linalg.rank(f, np.vstack([gen, shifted])) == code.k
