"""Exact weight enumerators, minimum distances, distance witnesses, and
root counts of the sparse polynomials that control the low weights.

Two independent enumeration routes exist and must agree wherever both
run:

* exhaustive -- every message up to a nonzero scalar, one box per
  leading coordinate t (zeros before t, 1 at t, any symbols after it),
  each word counted Q - 1 times: its nonzero multiples share its weight.
  Ground truth; guarded to message spaces of at most 2^26.

* reduced -- weights are invariant under nonzero scalars and under the
  coordinate shift, and the shift multiplies message coordinate t by
  omega^e_t, e_t in the code's exponent set E.  Both symmetries together
  translate the vector of discrete logs of the nonzero message
  coordinates by a fixed subgroup L of (Z/(q^2-1))^s, one per support.
  Orbits are exactly the cosets of L, so enumerating one point per
  coset of L (a box whose sides are a gcd chain of the differences of
  E on the support, the diagonal of L's Hermite normal form) and
  weighting by |L| gives the same counts with roughly (q^2-1)^2 fewer
  codeword scans.  No free action is assumed: coset size is |L| by
  construction, fixed points just live in supports where L collapses.

Both routes count the code of ``agcode.monomial_rows`` for (field, E),
which ``build_code`` proved equal to every orbit's curve-built code (the
witnesses and root counts below stay on the curve, as its oracles).
Both walk product boxes, one kernel counting every box: each coordinate
has a table of its scaled monomial row (1 or all Q scalars exhaustively,
omega^0 .. omega^(diag_i - 1) in the reduced route), as uint8.
A box's tables split into two halves of balanced size, each folded
symbol-major into an (n, words) array of its partial sums, the left one
negated, so a word has a zero wherever neg(left) == right.  A tile, some
left columns against all right columns, about _TILE_WORDS words, adds
each symbol's comparison in place into its uint8 zero counts (or makes
one comparison over all symbols while that mask is cache-sized), and
bincounts them, two per uint16 in a large tile.  Boxes run one at a
time, with no task list shared between them: a box is folded in the
calling thread, and its equal-width tiles run inline at one worker or
when the box is one tile, else through the enumeration's one thread
pool.  Counts merge by integer addition, so tilings and workers agree.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from math import gcd, prod

import numpy as np

from . import agcode, rrspace
from .agcode import Codeword, LinearCode, encode
from .gf import Field

EXHAUSTIVE_GUARD = 1 << 26
AUTO_EXHAUSTIVE_LIMIT = 1 << 22
_REDUCED_REPS_GUARD = 1 << 27
_TILE_WORDS = 1 << 18
_ENUMERATORS: dict[tuple[Field, tuple[int, ...], str], WeightEnumerator] = {}


class SizeGuardError(ValueError):
    """The requested enumeration exceeds a hard size guard."""


class WeightEnumerator:
    """Exact mapping weight -> codeword count for one code."""

    def __init__(self, q: int, m: int, n: int, k: int, counts: dict[int, int],
                 method: str, elapsed_ms: float):
        self.q, self.m, self.n, self.k = q, m, n, k
        self.counts = {w: int(c) for w, c in sorted(counts.items()) if c}
        self.method = method
        self.elapsed_ms = elapsed_ms

    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def min_distance(self) -> int:
        return min(w for w in self.counts if w > 0)

    def nonzero_weights(self) -> list[int]:
        return sorted(w for w in self.counts if w > 0)

    def count(self, w: int) -> int:
        return self.counts.get(w, 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightEnumerator) and self.n == other.n \
            and self.counts == other.counts

    def __repr__(self) -> str:
        return f"WeightEnumerator(q={self.q}, m={self.m}, counts={self.counts})"

    def to_dict(self) -> dict:
        # elapsed_ms is informational only and excluded from determinism
        # comparisons.
        return {**vars(self), "counts": {str(w): c for w, c in self.counts.items()}}


def default_jobs() -> int:
    """Worker threads when none are given: HERMICODE_JOBS, or 1 where it
    is unset.  A value that is not a positive integer is refused."""
    env = os.environ.get("HERMICODE_JOBS", "1")
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"HERMICODE_JOBS={env!r} is not a positive integer")
    return int(env)


# -- the product-box kernel --------------------------------------------


def _fold(add: np.ndarray, tables: list[np.ndarray], n: int) -> np.ndarray:
    """Every sum of one row from each table, as the columns of a
    C-contiguous (n, prod d_i) array; an empty list folds to one zero column."""
    acc = np.zeros((n, 1), dtype=np.uint8)
    for table in tables:
        # Indexing with a transposed view would make the gather F-ordered.
        acc = add[acc[:, :, None], np.ascontiguousarray(table.T)[:, None, :]].reshape(n, -1)
    return acc


def _histogram(flat: np.ndarray, n: int) -> np.ndarray:
    """Counts of 0..n in the flat uint8 array.  From 512*(n+1) words on, one
    bincount of its uint16 view, a + 256*b counting a and b, so byte order
    does not matter; below that its 256*(n+1) bins cost more than they save."""
    if flat.size < 512 * (n + 1):
        return np.bincount(flat, minlength=n + 1)
    pairs = np.bincount(flat[:flat.size & ~1].view(np.uint16), minlength=256 * (n + 1))
    pairs = pairs.reshape(n + 1, 256)
    hist = pairs[:, :n + 1].sum(axis=0) + pairs.sum(axis=1)
    hist[flat[-1]] += flat.size & 1
    return hist


def _box_counts(field: Field, boxes, jobs: int) -> np.ndarray:
    """Sum over the (factors, weight) boxes of weight times the weight counts
    of every word r_1 + ... + r_s, r_i a row of the d_i x n table factors[i]."""
    add = field.add_table.astype(np.uint8)
    counts = np.zeros(boxes[0][0][0].shape[1] + 1, dtype=np.int64)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for factors, weight in boxes:
            counts += weight * _tiled_box(field, add, factors, map if jobs == 1 else pool.map)
    return counts


def _tiled_box(field: Field, add: np.ndarray, factors, pool_map) -> np.ndarray:
    """Weight counts of one box: its two halves folded here, its tiles
    run by ``pool_map``, or inline when the box is one tile.  The folds
    are dropped on return, so one box's folds are alive at a time."""
    n = factors[0].shape[1]
    sizes = [table.shape[0] for table in factors]
    h = min(range(len(sizes) + 1),
            key=lambda h: (max(prod(sizes[:h]), prod(sizes[h:])), prod(sizes[h:])))
    neg_left = _fold(add, [field.neg_table[t] for t in factors[:h]], n)[:, :, None]
    right = _fold(add, factors[h:], n)
    left = neg_left.shape[1]
    tiles = -(-left // max(1, _TILE_WORDS // right.shape[1]))
    width = -(-left // tiles)  # equal widths, none over the cap

    def tile(lo: int) -> np.ndarray:
        block = neg_left[:, lo:lo + width]
        if n * block.shape[1] * right.shape[1] <= 8 * _TILE_WORDS:  # fits a core's L2
            zeros = (block == right[:, None, :]).view(np.uint8).sum(axis=0, dtype=np.uint8)
        else:
            equal = block[0] == right[0]
            zeros = np.zeros_like(equal, dtype=np.uint8)
            for col, row in zip(block, right):
                zeros += np.equal(col, row, out=equal).view(np.uint8)
        return _histogram(zeros.ravel(), n)[::-1]

    return sum((map if tiles == 1 else pool_map)(tile, range(0, left, width)))


def _planned_counts(field: Field, k: int, boxes, jobs: int) -> np.ndarray:
    """Counts of a k-coordinate code from the (factors, weight) boxes of a
    route plus the zero message, refused before any tile runs unless the
    boxes' words, each counted weight times, and the zero message make Q^k."""
    planned = 1 + sum(weight * prod(len(table) for table in factors) for factors, weight in boxes)
    if planned != field.order**k:
        raise RuntimeError(f"enumeration plan covers {planned} messages, not {field.order**k}")
    counts = _box_counts(field, boxes, jobs)
    counts[0] += 1  # zero message
    return counts


# -- exhaustive route ---------------------------------------------------


def _exhaustive_counts(field: Field, exponents, jobs: int) -> np.ndarray:
    rows = agcode.monomial_rows(field, exponents)
    space = field.order**len(rows)
    if space > EXHAUSTIVE_GUARD:
        raise SizeGuardError(
            f"message space {space} exceeds the exhaustive guard {EXHAUSTIVE_GUARD}")
    mul = field.mul_table.astype(np.uint8)
    # Leading coordinate t: zeros before it, the scalar 1 (row 1 of mul) at it.
    boxes = [([mul[1:2, rows[t]]] + [mul[:, row] for row in rows[t + 1:]], field.order - 1)
             for t in range(len(rows))]
    return _planned_counts(field, len(rows), boxes, jobs)


# -- reduced route ------------------------------------------------------


def _transversal(logs: list[int], modulus: int) -> list[int]:
    """Sides of a box transversal of (Z/N)^s, N = ``modulus``, modulo the
    subgroup L spanned by (1, ..., 1) and ``logs``; the box has one point
    per coset.  With w_j = logs[j] - logs[0], G_0 = N and
    G_j = gcd(G_{j-1}, w_j), side 0 is 1 and side j is (N // G_{j-1}) * G_j:
    the diagonal of the row Hermite normal form of L's lattice."""
    diag, g = [1], modulus
    for e in logs[1:]:
        g_next = gcd(g, e - logs[0])
        diag.append(modulus // g * g_next)
        g = g_next
    return diag


def _reduced_counts(field: Field, exponents, jobs: int) -> np.ndarray:
    """Counts from one box per support pattern."""
    rows = agcode.monomial_rows(field, exponents)
    k, n = rows.shape  # n = Q - 1 is also the modulus of the logs

    # scaled[t, j] = omega^j * row t; a support's tables are prefixes of these.
    scaled = field.mul_table.astype(np.uint8)[field.exp_table[:n, None], rows[:, None, :]]
    boxes, total_reps = [], 0  # (factors, orbit size) per support
    for mask in range(1, 1 << k):
        coords = tuple(t for t in range(k) if (mask >> t) & 1)
        diag = _transversal([exponents[t] for t in coords], n)
        reps = prod(diag)
        orbit_size, rem = divmod(n**len(coords), reps)
        if rem:
            raise RuntimeError("transversal size does not divide the support class")
        total_reps += reps
        if total_reps > _REDUCED_REPS_GUARD:
            raise SizeGuardError(
                f"reduced enumeration needs more than {_REDUCED_REPS_GUARD} "
                "representatives; the code is too large to enumerate"
            )
        boxes.append(([scaled[t, :d] for t, d in zip(coords, diag)], orbit_size))

    return _planned_counts(field, k, boxes, jobs)


# -- public enumeration API ---------------------------------------------


def weight_enumerator(code: LinearCode, method: str = "auto", jobs: int | None = None) -> WeightEnumerator:
    """Exact weight enumerator of the monomial code of E = ``code.exponents``,
    which ``build_code`` proved equal to the curve-built one; cached per
    (field, E, route), so every orbit of a (q, m) shares one entry."""
    if method not in ("auto", "exhaustive", "reduced"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "exhaustive" if code.field.order**code.k <= AUTO_EXHAUSTIVE_LIMIT else "reduced"
    jobs = default_jobs() if jobs is None else jobs
    if jobs < 1:
        raise ValueError(f"jobs={jobs} is not a positive integer")
    exponents = tuple(code.exponents.tolist())
    key = (code.field, exponents, method)
    if key in _ENUMERATORS:
        return _ENUMERATORS[key]
    start = time.perf_counter()
    raw = (_reduced_counts if method == "reduced" else _exhaustive_counts)(
        code.field, exponents, jobs)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    counts = {w: int(c) for w, c in enumerate(raw) if c}
    enum = WeightEnumerator(code.q, code.m, code.n, code.k, counts, method, elapsed_ms)
    big_q, n, k = code.field.order, code.n, code.k
    if enum.total() != big_q**k:
        raise RuntimeError("enumerator total does not match the message space")
    if enum.count(0) != 1:
        raise RuntimeError("enumerator must see exactly one zero codeword")
    # Pless power moments: no column of a monomial code is zero, and no two
    # are proportional unless n shares a factor with every e_t - e_0.
    first, second = (sum(w**p * c for w, c in counts.items()) for p in (1, 2))
    if first != big_q**(k - 1) * (big_q - 1) * n:
        raise RuntimeError("enumerator fails the first Pless power moment")
    if gcd(n, *(e - exponents[0] for e in exponents)) == 1 \
            and second != big_q**(k - 2) * (big_q - 1) * n * ((big_q - 1) * n + 1):
        raise RuntimeError("enumerator fails the second Pless power moment")
    _ENUMERATORS[key] = enum
    return enum


# -- distance upper-bound witness ----------------------------------------


def upper_bound_witness(code: LinearCode) -> tuple[list[int], Codeword]:
    """A message and its codeword of weight exactly n - (m-2)(q+1).

    The message is the function y*g(y)/x^m with g a product of m - 2
    factors (y - tau*c) over distinct nonzero subfield elements c, and
    eps = 0.  Each factor vanishes on the q + 1 orbit points whose norm
    equals c, so the zero sets are disjoint and the weight meets the
    distance upper bound.  For m = 2 the product is empty: g = 1 gives a
    codeword of full weight q^2 - 1.
    """
    field, m = code.field, code.m
    picks = [c for c in field.subfield_elements() if c != 0][: m - 2]
    if len(picks) < m - 2:
        raise ValueError("not enough subfield elements for the witness")
    coeffs = [1]
    for c in picks:
        root = field.mul(code.spec.tau, c)
        nxt = [0] * (len(coeffs) + 1)
        for j, old in enumerate(coeffs):
            nxt[j + 1] = field.add(nxt[j + 1], old)
            nxt[j] = field.sub(nxt[j], field.mul(root, old))
        coeffs = nxt
    # The coefficient of y^j in g multiplies basis function y * y^j / x^m.
    mons = rrspace.monomials(m)
    msg = [0] * code.k
    for j, c in enumerate(coeffs):
        msg[1 + mons.index((0, j))] = c
    word = encode(code, msg)
    expected = code.n - (m - 2) * (field.q + 1)
    if word.weight != expected:
        raise AssertionError(
            f"witness weight {word.weight} != {expected} at q={field.q}, m={m}"
        )
    return msg, word


def min_weight_characterization(code: LinearCode) -> list[tuple[int, ...]]:
    """For m = 3: the messages of the form y*(b0 + b2*y)/x^3 with b2
    nonzero and b0/(tau*b2) a nonzero subfield element.  There are
    (q^2 - 1)(q - 1) of them."""
    if code.m != 3:
        raise ValueError("the characterization applies to m = 3 only")
    field = code.field
    mons = rrspace.monomials(3)
    pos_b0 = 1 + mons.index((0, 0))
    pos_b2 = 1 + mons.index((0, 1))
    out = []
    subfield_units = [c for c in field.subfield_elements() if c != 0]
    for b2 in field.nonzero():
        scale = field.mul(code.spec.tau, b2)
        for c in subfield_units:
            msg = [0] * code.k
            msg[pos_b0] = field.mul(scale, c)
            msg[pos_b2] = b2
            out.append(tuple(msg))
    return out


# -- zero counts through the univariate polynomial -----------------------


def orbit_zero_polynomial(code: LinearCode, msg) -> dict[int, int]:
    """Exponent -> coefficient of the polynomial whose nonzero roots are
    exactly the orbit x-coordinates where the message's function
    vanishes: substitute y = tau*x^(q+1), divide by x^m."""
    agcode.check_message(code, msg)
    field = code.field
    # x^a * y^b becomes tau^b * x^e; the exponents e_t are distinct and
    # tau != 0, so no two terms merge and no nonzero term vanishes.
    tau_b = field.exp_table[field.log_table[code.spec.tau] * code.powers[:, 1] % (field.order - 1)]
    coefs = field.mul_table[np.asarray(msg, dtype=np.int64), tau_b].tolist()
    return {e: c for e, c in zip(code.exponents.tolist(), coefs) if c}


def zero_count_via_roots(code: LinearCode, msg) -> int:
    """Number of orbit points where the message's function vanishes,
    counted by scanning nonzero roots of the substituted polynomial."""
    values = _poly_values(code.field, orbit_zero_polynomial(code, msg))
    return int(np.count_nonzero(values[1:] == 0))


def _poly_values(field: Field, terms: dict[int, int]) -> np.ndarray:
    """Values of sum c * x^e (e >= 0) at every x in F_Q, indexed by the
    encoding of x; at x = 0, x^0 = 1 and x^e = 0 for e > 0."""
    exps = np.fromiter(terms, dtype=np.int64, count=len(terms))
    coefs = np.fromiter(terms.values(), dtype=np.int64, count=len(terms))
    powers = np.empty((len(terms), field.order), dtype=np.int64)
    powers[:, 0] = exps == 0
    powers[:, 1:] = field.exp_table[np.outer(exps, field.log_table[1:]) % (field.order - 1)]
    return field.combine(coefs, powers)


# -- sparse (lacunary) polynomial root counts -----------------------------


def roots_of_lacunary(field: Field, kind: str, *, a: int | None = None,
                      b: int | None = None, b0: int | None = None,
                      b1: int | None = None, b2: int | None = None,
                      tau: int | None = None) -> tuple[int, tuple[int, ...]]:
    """Exact root count (and roots) in F_{q^2} of one of the sparse forms.

    * ``general``: x^(q+1) + a*x + b         (count is always 0, 1, 2 or q+1)
    * ``scaled``:  tau*b2*x^(q+1) + b1*x + b0 with b2 != 0
    * ``shifted``: b1*tau*x^(q-1) + 1 with b1 != 0 (q-1 roots exactly
      when b1*tau has norm 1, else none)

    A coefficient outside [0, Q) raises ValueError.
    """
    given = {"a": a, "b": b, "b0": b0, "b1": b1, "b2": b2, "tau": tau}
    bad = {name: c for name, c in given.items() if c is not None and not 0 <= c < field.order}
    if bad:
        raise ValueError(f"coefficients {bad} outside [0, {field.order})")
    q = field.q
    if kind == "general":
        if a is None or b is None:
            raise ValueError("general form needs coefficients a and b")
        terms = {q + 1: 1, 1: a, 0: b}
        roots = _scan_roots(field, terms)
    elif kind == "scaled":
        if b0 is None or b1 is None or b2 is None or tau is None:
            raise ValueError("scaled form needs b0, b1, b2 and tau")
        lead = field.mul(tau, b2)
        if lead == 0:
            raise ValueError("scaled form is degenerate: tau*b2 = 0")
        terms = {q + 1: lead, 1: b1, 0: b0}
        roots = _scan_roots(field, terms)
    elif kind == "shifted":
        if b1 is None or tau is None:
            raise ValueError("shifted form needs b1 and tau")
        lead = field.mul(b1, tau)
        if lead == 0:
            raise ValueError("shifted form is degenerate: b1*tau = 0")
        terms = {q - 1: lead, 0: 1}
        roots = _scan_roots(field, terms)
    else:
        raise ValueError(f"unknown lacunary kind {kind!r}")
    return len(roots), roots


def _scan_roots(field: Field, terms: dict[int, int]) -> tuple[int, ...]:
    return tuple(int(x) for x in np.flatnonzero(_poly_values(field, terms) == 0))
