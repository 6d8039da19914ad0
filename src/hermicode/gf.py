"""Exact arithmetic in the tower F_p < F_q < F_{q^2}, q = p^k, for the
six q of ``SUPPORTED_Q`` (3, 4, 5, 7, 8 and 9) and for no other q.

An element of F_{q^2} is an integer in [0, q^2): its base-p digits,
little-endian, are the coordinates in the polynomial basis 1, x, ...,
x^(2k-1) of F_p[x] modulo one fixed monic irreducible of degree 2k.
Encoding 0 is the zero element and encoding 1 the multiplicative
identity.  The subfield F_q never gets a second representation; it is
the fixed field of the Frobenius map x -> x^q.

The field is its tables, built once by one product rule on the base-p
digits of all encodings.  F_p[x]/(f) is a field exactly when f is
irreducible, that is when it has no zero divisors (Lidl & Niederreiter,
Finite Fields, ch. 1), so f is the first monic candidate, low
coefficients read as a base-p integer, whose product table has no zero
off row and column 0.  omega is the smallest element whose powers first
return to 1 at q^2 - 1.  Both choices are fixed, so encodings, point
orderings and generator matrices are reproducible across runs, and the
enumeration code works on flat numpy integer arrays.

Addition is digit-wise mod p: per pair in ``add_table``, in bulk in ``combine``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# (p, k) per supported subfield order q; q^2 is the alphabet of the codes.
# This is the only list of fields: ``Field`` builds these six and refuses
# any other (p, k).  Every entry has p prime and q^2 = p^(2k) <= 2^8, as
# the enumeration kernel stores symbols as uint8.
SUPPORTED_Q = {3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


def _product_table(digits: np.ndarray, low: np.ndarray, p: int) -> np.ndarray:
    """Products of every pair of encodings in F_p[x]/(f), f = x^deg +
    sum low_i x^i, from the (Q, deg) base-p ``digits`` of the encodings.

    Row i of the stack holds x^i * b for every b: multiplying by x moves
    the digits up one place, and the carry c * x^deg that falls out is
    reduced by x^deg = -sum low_i x^i.  a * b is then the sum over i of
    a_i * (x^i * b), read back as an encoding.
    """
    shifts = [digits]
    for _ in range(digits.shape[1] - 1):
        prev = shifts[-1]
        carry = prev[:, -1:]
        shifts.append((np.pad(prev[:, :-1], ((0, 0), (1, 0))) - carry * low) % p)
    products = np.tensordot(digits, np.stack(shifts), axes=1) % p
    return products @ p ** np.arange(digits.shape[1])


@dataclass(frozen=True)
class Field:
    """The field F_{q^2} with q = p^k, plus its norm/trace structure.

    Read-only: no attribute can be rebound or deleted, nor a table written.
    A candidate f with a root in F_p is skipped before its product table
    is built, and omega is found by walking the powers of every element.

    Operations take and return plain integer encodings in [0, Q) and do
    not check that range; callers that take symbols from outside do, with
    ``check_symbols``.
    """

    p: int
    k: int

    def __post_init__(self):
        _check_integers((self.p, self.k), "(p, k) values")
        pairs = sorted(SUPPORTED_Q.values())
        if (self.p, self.k) not in pairs:
            raise ValueError(f"(p, k)=({self.p}, {self.k}) is not a supported field; "
                             f"choose one of {pairs}")
        vars(self).update(q=self.p**self.k, order=self.p**(2 * self.k))
        self._build_tables()

    def _build_tables(self) -> None:
        p, order, deg = self.p, self.order, 2 * self.k
        n = order - 1
        weights = p ** np.arange(deg)
        digits = np.arange(order)[:, None] // weights % p
        # Candidates in encoding order of their low coefficients.  A root in
        # F_p is a linear factor, found without building the table.
        vander = np.vander(np.arange(p), deg + 1, increasing=True)
        for low in digits:
            if (vander @ np.append(low, 1) % p == 0).any():
                continue
            mul = _product_table(digits, low, p)
            if (mul[1:, 1:] != 0).all():
                break

        # powers[i, c] = c^i for i in 0..n; omega's column is its walk.
        elements = np.arange(order)
        powers = np.ones((order, order), dtype=np.int64)
        for i in range(1, order):
            powers[i] = mul[powers[i - 1], elements]
        full_order = (powers[n] == 1) & (powers[1:n] != 1).all(axis=0)
        omega = int(np.argmax(full_order))
        exp = powers[:n, omega].copy()
        log = np.full(order, -1, dtype=np.int64)
        log[exp] = np.arange(n)

        # Addition is digit-wise mod p in the polynomial basis.
        sums = (digits[:, None, :] + digits[None, :, :]) % p
        frobenius = powers[self.q].astype(np.int16)
        subfield = frobenius == np.arange(order, dtype=np.int16)
        if int(subfield.sum()) != self.q:
            raise AssertionError("Frobenius fixed field has the wrong size")
        tables = dict(mul_table=mul.astype(np.int16), exp_table=exp, log_table=log,
                      _digits=digits.astype(np.uint8), _places=weights,
                      add_table=(sums * weights).sum(axis=2).astype(np.int16),
                      neg_table=((digits * (p - 1)) % p * weights).sum(axis=1).astype(np.int16),
                      # c^(n-1) is the inverse of c != 0, and 0 maps to 0 in both rows.
                      inv_table=powers[n - 1].astype(np.int16),
                      frobenius_table=frobenius, subfield_mask=subfield)
        for table in tables.values():
            table.flags.writeable = False
        vars(self).update(tables, irreducible=tuple(int(c) for c in low) + (1,), omega=omega)

    # -- arithmetic on encodings -------------------------------------
    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.add_table[a, self.neg_table[b]])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self.inv_table[a])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroDivisionError("0 cannot be raised to a negative power")
        n = self.order - 1
        return int(self.exp_table[(int(self.log_table[a]) * e) % n])

    def combine(self, coefs, rows) -> np.ndarray:
        """Sum over t of coefs[..., t] * rows[t] for (k, n) ``rows``, as int64
        encodings: one product gather, then the products' base-p digits
        summed mod p (XOR for p = 2).  No terms give zeros."""
        products = self.mul_table[np.asarray(coefs, dtype=np.int64)[..., None], rows]
        # take() copies whole digit rows, many times faster than indexing here.
        sums = np.take(self._digits, products, axis=0).sum(axis=-3, dtype=np.int32) % self.p
        return sums @ self._places

    def frobenius(self, a: int) -> int:
        return int(self.frobenius_table[a])

    def norm(self, a: int) -> int:
        return self.pow(a, self.q + 1)

    def trace(self, a: int) -> int:
        return self.add(self.frobenius(a), a)

    def check_symbols(self, symbols, what: str) -> None:
        """Refuse ``symbols`` unless each is an integer (a value that
        ``operator.index`` accepts) in [0, Q); ``what`` names them."""
        _check_integers(symbols, what)
        bad = [s for s in symbols if not 0 <= s < self.order]
        if bad:
            raise ValueError(f"{what} {bad} outside [0, {self.order})")

    # -- element access ----------------------------------------------
    def elements(self) -> range:
        return range(self.order)

    def nonzero(self) -> range:
        return range(1, self.order)

    def subfield_elements(self) -> list[int]:
        return [a for a in range(self.order) if self.subfield_mask[a]]

    def __repr__(self) -> str:
        return f"Field(p={self.p}, k={self.k}, q={self.q}, omega={self.omega})"


def _check_integers(values, what: str) -> None:
    """Refuse ``values`` unless ``operator.index`` accepts each; ``what`` names them."""
    bad = []
    for v in values:
        try:
            operator.index(v)
        except TypeError:
            bad.append(v)
    if bad:
        raise ValueError(f"{what} {bad} are not integers")


# typed: 3.0 must not find the cached field of 3, but reach Field's check.
@lru_cache(maxsize=None, typed=True)
def make_field(p: int, k: int) -> Field:
    """Build (once) F_{p^(2k)}, (p, k) a value of ``SUPPORTED_Q``, with its tables."""
    return Field(p, k)


def field_for_q(q: int) -> Field:
    """The field whose codes have alphabet F_{q^2}, for supported q."""
    if q not in SUPPORTED_Q:
        raise ValueError(f"q={q} not supported; choose one of {sorted(SUPPORTED_Q)}")
    p, k = SUPPORTED_Q[q]
    return make_field(p, k)
