"""Exact arithmetic in the tower F_p < F_q < F_{q^2}, q = p^k.

An element of F_{q^2} is an integer in [0, q^2): its base-p digits,
little-endian, are the coordinates in the polynomial basis 1, x, ...,
x^(2k-1) of F_p[x] modulo one fixed monic irreducible of degree 2k.
Encoding 0 is the zero element and encoding 1 the multiplicative
identity.  The subfield F_q never gets a second representation; it is
the fixed field of the Frobenius map x -> x^q.

The irreducible is the lexicographically smallest monic one (low
coefficients compared as a base-p integer) and omega is the smallest
encoding with multiplicative order exactly q^2 - 1, so encodings, point
orderings and generator matrices are reproducible across runs.

All element-wise operations route through full add/mul tables built at
construction time (fields here have at most 81 elements), which lets
the enumeration code work on flat numpy integer arrays.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# (p, k) per supported subfield order q; q^2 is the alphabet of the codes.
SUPPORTED_Q = {3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}

# Symbols are stored as uint8 by the enumeration kernel, and every field
# builds Q x Q tables, so the alphabet is capped at 2^8 elements.
_MAX_ORDER = 1 << 8


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _digits(value: int, length: int, p: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(value % p)
        value //= p
    return out


def _poly_trim(poly: list[int]) -> list[int]:
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    # b monic; returns a mod b.
    a = a[:]
    inv_lead = pow(b[-1], p - 2, p) if b[-1] != 1 else 1
    while len(a) >= len(b) and _poly_trim(a):
        if a[-1] == 0:
            a.pop()
            continue
        coef = (a[-1] * inv_lead) % p
        shift = len(a) - len(b)
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * bi) % p
        a = _poly_trim(a)
    return a


def _monic_polys(degree: int, p: int):
    for low in range(p**degree):
        yield _digits(low, degree, p) + [1]


def _is_irreducible(poly: list[int], p: int) -> bool:
    # No monic factor of degree up to deg/2 means irreducible.
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for g in _monic_polys(d, p):
            if not _poly_rem(poly, g, p):
                return False
    return True


class Field:
    """The field F_{q^2} with q = p^k, plus its norm/trace structure.

    Operations take and return plain integer encodings in [0, Q) and do
    not check that range; callers that take symbols from outside do.
    """

    def __init__(self, p: int, k: int):
        if not _is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if k < 1:
            raise ValueError(f"k={k} must be positive")
        q = p**k
        order = q * q
        if q < 3:
            raise ValueError(f"q={q} is below the minimum of 3")
        if order > _MAX_ORDER:
            raise ValueError(f"q^2={order} exceeds the table limit {_MAX_ORDER}")
        self.p = p
        self.k = k
        self.q = q
        self.order = order
        self.irreducible = self._find_irreducible()
        self._build_tables()

    def _find_irreducible(self) -> tuple[int, ...]:
        deg = 2 * self.k
        for poly in _monic_polys(deg, self.p):
            if _is_irreducible(poly, self.p):
                return tuple(poly)
        raise AssertionError("no irreducible polynomial found")  # unreachable

    # -- raw polynomial-basis products, used only while building tables
    def _raw_mul(self, a: int, b: int) -> int:
        p, deg = self.p, 2 * self.k
        prod = _poly_mul(_digits(a, deg, p), _digits(b, deg, p), p)
        rem = _poly_rem(prod, list(self.irreducible), p)
        return sum(c * p**i for i, c in enumerate(rem))

    def _raw_pow(self, a: int, e: int) -> int:
        out, base = 1, a
        while e:
            if e & 1:
                out = self._raw_mul(out, base)
            base = self._raw_mul(base, base)
            e >>= 1
        return out

    def _find_omega(self) -> int:
        n = self.order - 1
        factors, m, d = set(), n, 2
        while d * d <= m:
            while m % d == 0:
                factors.add(d)
                m //= d
            d += 1
        if m > 1:
            factors.add(m)
        for cand in range(2, self.order):
            if all(self._raw_pow(cand, n // r) != 1 for r in factors):
                return cand
        raise AssertionError("multiplicative group has no generator")  # unreachable

    def _build_tables(self) -> None:
        p, order = self.p, self.order
        n = order - 1
        self.omega = self._find_omega()

        exp = np.zeros(n, dtype=np.int64)
        log = np.full(order, -1, dtype=np.int64)
        acc = 1
        for i in range(n):
            exp[i] = acc
            log[acc] = i
            acc = self._raw_mul(acc, self.omega)
        if acc != 1:
            raise AssertionError("omega does not have full order")
        self.exp_table = exp
        self.log_table = log

        # Addition is digit-wise mod p in the polynomial basis.
        digits = np.array([_digits(v, 2 * self.k, p) for v in range(order)], dtype=np.int64)
        weights = p ** np.arange(2 * self.k, dtype=np.int64)
        sums = (digits[:, None, :] + digits[None, :, :]) % p
        self.add_table = (sums * weights).sum(axis=2).astype(np.int16)

        mul = np.zeros((order, order), dtype=np.int16)
        nz = np.arange(1, order)
        mul[1:, 1:] = exp[(log[nz][:, None] + log[nz][None, :]) % n]
        self.mul_table = mul

        self.neg_table = ((digits * (p - 1)) % p * weights).sum(axis=1).astype(np.int16)
        inv = np.zeros(order, dtype=np.int16)
        inv[1:] = exp[(-log[nz]) % n]
        self.inv_table = inv

        pow_q = np.zeros(order, dtype=np.int16)
        pow_q[1:] = exp[(log[nz] * self.q) % n]
        self.frobenius_table = pow_q
        self.subfield_mask = self.frobenius_table == np.arange(order, dtype=np.int16)
        if int(self.subfield_mask.sum()) != self.q:
            raise AssertionError("Frobenius fixed field has the wrong size")

    # -- arithmetic on encodings -------------------------------------
    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

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

    def frobenius(self, a: int) -> int:
        return int(self.frobenius_table[a])

    def norm(self, a: int) -> int:
        return self.pow(a, self.q + 1)

    def trace(self, a: int) -> int:
        return self.add(self.frobenius(a), a)

    # -- element access ----------------------------------------------
    def elements(self) -> range:
        return range(self.order)

    def nonzero(self) -> range:
        return range(1, self.order)

    def subfield_elements(self) -> list[int]:
        return [a for a in range(self.order) if self.subfield_mask[a]]

    def __repr__(self) -> str:
        return f"Field(p={self.p}, k={self.k}, q={self.q}, omega={self.omega})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self) -> int:
        return hash((self.p, self.k))


@lru_cache(maxsize=None)
def make_field(p: int, k: int) -> Field:
    """Build (once) the field F_{p^(2k)} with its deterministic tables."""
    return Field(p, k)


def field_for_q(q: int) -> Field:
    """The field whose codes have alphabet F_{q^2}, for supported q."""
    if q not in SUPPORTED_Q:
        raise ValueError(f"q={q} not supported; choose one of {sorted(SUPPORTED_Q)}")
    p, k = SUPPORTED_Q[q]
    return make_field(p, k)
