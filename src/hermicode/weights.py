"""Exact weight enumerators, minimum distances, distance witnesses, and
root counts of the sparse polynomials that control the low weights.

METHODS: two independent routes, which must agree wherever both run,
and ``auto``, which runs both up to CROSS_CHECK_LIMIT messages.  A route
is its plan, a generator of product boxes of symbol sets, walked once
before any table is built: refused as soon as its words pass
_WORDS_GUARD, and unless its boxes cover every message:

* exhaustive -- every message up to a nonzero scalar, one box per
  leading coordinate t (zeros before t, 1 at t, any symbols after it),
  each word counted Q - 1 times: its nonzero multiples share its weight.
  Ground truth, scanning (Q^k - 1) / (Q - 1) words.

* reduced -- weights are invariant under nonzero scalars and under the
  coordinate shift, and the shift multiplies message coordinate t by
  omega^e_t, e_t in the code's exponent set E.  The route refines the
  exhaustive lines at their second nonzero coordinate u: with the 1 at
  t kept, the two symmetries move the discrete log at u through the
  multiples of g = gcd(e_u - e_t, Q - 1), so omega^0 .. omega^(g-1) at u
  meet every orbit and each word stands for (Q - 1)^2 / g messages.
  Together with the Q - 1 messages of each single nonzero coordinate
  that is k(k+1)/2 lines, and roughly (q^2-1)^2 fewer codeword scans
  than all messages.  No free action is assumed: each message is reached
  from the box words by exactly g of the (Q - 1)^2 pairs (scalar, shift),
  fixed points included.  The coordinates are first ordered by their
  gcds, which sets only how many words are scanned.
  Raising every message coordinate to the p-th power also keeps weights:
  the word of a^p is the word of a with phi: x -> x^p applied to each
  symbol and its coordinates permuted by i -> i*p mod Q - 1.  A line
  with g = 1 holds 1 at t and at u, which phi fixes, so it is cut into
  boxes of one word per <phi>-orbit: each symbol after u represents an
  orbit of the stabilizer of the symbols before it, the boxes split by
  the stabilizer left, which takes all Q symbols once it is trivial,
  and each word weighs (Q - 1)^2 times its orbit size.

Both routes count the code of ``agcode.monomial_rows`` for (field, E),
which ``build_code`` proved equal to every orbit's curve-built code (the
witnesses and root counts below stay on the curve, as its oracles).
One kernel counts every box: each coordinate's symbol set (1, all Q
symbols, omega^0 .. omega^(g - 1) at the reduced route's u, or orbit
representatives after a cut u) times its monomial row is its table, as
uint8.
A box's tables split into two halves of balanced size, each folded
symbol-major into an (n, words) array of its partial sums, the left one
negated, so a word has a zero wherever neg(left) == right.  A tile, some
left columns against all right columns, about _TILE_WORDS words, adds
each symbol's comparison in place into its uint8 zero counts (or makes
one comparison over all symbols while that mask is cache-sized), and
bincounts them, two per uint16 in a large tile, in slices whose int64
copies stay cache-sized.  Boxes run one at a time, with no task list
shared between them: a box is folded in the calling thread, and its
equal-width tiles run inline at one worker or when the box is one tile,
else through the enumeration's one thread pool.  Counts merge by
integer addition, so tilings and workers agree.
"""

from __future__ import annotations

import dataclasses
import operator
import time
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from math import gcd, prod
from types import MappingProxyType

import numpy as np

from . import agcode, rrspace
from .agcode import Codeword, LinearCode, encode
from .gf import Field

METHODS = ("auto", "exhaustive", "reduced")
CROSS_CHECK_LIMIT = 1 << 23  # messages
_WORDS_GUARD = 1 << 28
_TILE_WORDS = 1 << 18
_HISTOGRAM_PAIRS = 1 << 15
_ENUMERATORS: dict[tuple[Field, tuple[int, ...], str], WeightEnumerator] = {}


class SizeGuardError(ValueError):
    """The requested enumeration exceeds a hard size guard."""


@dataclasses.dataclass(frozen=True)
class WeightEnumerator:
    """Exact mapping weight -> codeword count for one code, as built by
    ``weight_enumerator``: weights ascending, counts nonzero ints, read-only
    (a ``MappingProxyType``), so a cached record cannot be edited.  Equal
    when n and counts are; ``method`` and ``elapsed_ms``, informational and
    excluded from determinism comparisons, are not compared."""

    q: int = dataclasses.field(compare=False)
    m: int = dataclasses.field(compare=False)
    n: int
    k: int = dataclasses.field(compare=False)
    counts: dict[int, int]
    method: str = dataclasses.field(compare=False)
    elapsed_ms: float = dataclasses.field(compare=False)

    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def min_distance(self) -> int:
        return min(w for w in self.counts if w > 0)

    def nonzero_weights(self) -> list[int]:
        return sorted(w for w in self.counts if w > 0)

    def count(self, w: int) -> int:
        return self.counts.get(w, 0)

    def to_dict(self) -> dict:
        # asdict would deep-copy the mapping proxy, which cannot be copied.
        fields = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return {**fields, "counts": {str(w): c for w, c in self.counts.items()}}


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
    """Counts of 0..n in the flat uint8 array.  From 512*(n+1) words on,
    bincounts of its uint16 view, a + 256*b counting a and b, so byte order
    does not matter; below that its 256*(n+1) bins cost more than they save.
    bincount copies its input to int64, so the view goes in _HISTOGRAM_PAIRS
    slices, each copy cache-sized whatever the tile."""
    if flat.size < 512 * (n + 1):
        return np.bincount(flat, minlength=n + 1)
    view = flat[:flat.size & ~1].view(np.uint16)
    pairs = np.zeros(256 * (n + 1), dtype=np.int64)
    for lo in range(0, view.size, _HISTOGRAM_PAIRS):
        pairs += np.bincount(view[lo:lo + _HISTOGRAM_PAIRS], minlength=256 * (n + 1))
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


def _route_counts(field: Field, route: str, exponents, jobs: int) -> np.ndarray:
    """Counts of the monomial code of (field, E = ``exponents``) from the
    (factors, weight) boxes of the route's plan plus the zero message.  The
    plan is walked once before any table is built: refused as soon as its
    words pass _WORDS_GUARD, and unless its words, each counted weight
    times, and the zero message make Q^k.  An unknown route is a KeyError."""
    big_q, plan, words, covered = field.order, [], 0, 1
    plan_of = {"exhaustive": _exhaustive_plan, "reduced": _reduced_plan}[route]
    for factors, weight in plan_of(field, exponents):
        box = prod(big_q if s is None else len(s) for _, s in factors)
        words += box
        if words > _WORDS_GUARD:
            raise SizeGuardError(f"{route} enumeration needs {words} or more representatives, "
                                 f"more than the {route} guard of {_WORDS_GUARD} words")
        covered += weight * box
        plan.append((factors, weight))
    if covered != big_q**len(exponents):
        raise RuntimeError(f"enumeration plan covers {covered} messages, not {big_q**len(exponents)}")
    mul = field.mul_table.astype(np.uint8)
    full = [mul[:, row] for row in agcode.monomial_rows(field, exponents)]
    counts = _box_counts(field, [([full[c] if s is None else full[c][s] for c, s in factors], weight)
                                 for factors, weight in plan], jobs)
    counts[0] += 1  # zero message
    return counts


# -- exhaustive route ---------------------------------------------------


def _exhaustive_plan(field: Field, exponents):
    """Leading coordinate t: zeros before it, the scalar 1 at it, any
    symbols after it, weight Q - 1."""
    k = len(exponents)
    for t in range(k):
        yield [(t, [1])] + [(c, None) for c in range(t + 1, k)], field.order - 1


# -- reduced route ------------------------------------------------------


@lru_cache(maxsize=None)
def _frobenius_classes(field: Field, f: int) -> dict[int, np.ndarray]:
    """The smallest symbol of each orbit of <phi^f> on F_Q, phi: x -> x^p,
    keyed by f2 with <phi^f2> the symbol's stabilizer: its orbit has f2 / f
    symbols.  Built once per (field, f)."""
    classes: dict[int, list[int]] = {}
    for s in field.elements():
        orbit = {field.pow(s, field.p**(f * i)) for i in range(2 * field.k // f)}
        if s == min(orbit):
            classes.setdefault(f * len(orbit), []).append(s)
    return {f2: np.array(reps) for f2, reps in classes.items()}


def _frobenius_tails(field: Field, coords: list[int], f: int = 1):
    """(factors, orbit size) boxes holding one word per orbit of <phi> on
    the words of all symbols at ``coords``, with <phi^f> fixing what comes
    before them: each coordinate keeps one symbol per orbit of the
    stabilizer so far, split by the stabilizer that leaves, and the
    coordinates after a trivial one (phi^f = 1) keep all Q symbols."""
    if f == 2 * field.k or not coords:
        yield [(c, None) for c in coords], f
        return
    for f2, reps in _frobenius_classes(field, f).items():
        for tail, size in _frobenius_tails(field, coords[1:], f2):
            yield [(coords[0], reps)] + tail, size


def _reduced_plan(field: Field, exponents):
    """The exhaustive lines (zeros before t, 1 at t) split at the second
    nonzero coordinate u: zeros between t and u, omega^0 .. omega^(g-1)
    at u, any symbols after u, weight (Q - 1)^2 / g; and t alone, weight
    Q - 1.  At g = 1 both leading symbols are 1, which a -> a^p fixes, so
    the symbols after u are cut to one word per orbit of <phi>, each
    weight (Q - 1)^2 times its orbit size."""
    n, k = field.order - 1, len(exponents)
    # Each next coordinate has the smallest gcd sum with those placed (with
    # all, while none is), ties by index: the boxes with the most symbols
    # after u then have few rows at u.
    order, rest = [], list(range(k))
    while rest:
        placed = order or range(k)
        order.append(min(rest, key=lambda u: sum(gcd(exponents[u] - exponents[t], n) for t in placed)))
        rest.remove(order[-1])
    for i, t in enumerate(order):
        yield [(t, [1])], n
        for j in range(i + 1, k):
            u = order[j]
            g = gcd(exponents[u] - exponents[t], n)
            tails = _frobenius_tails(field, order[j + 1:]) if g == 1 \
                else [([(v, None) for v in order[j + 1:]], 1)]
            for tail, size in tails:
                yield [(t, [1]), (u, field.exp_table[:g])] + tail, n * n * size // g


# -- public enumeration API ---------------------------------------------


def weight_enumerator(code: LinearCode, method: str = "auto", jobs: int = 1) -> WeightEnumerator:
    """Exact weight enumerator of the monomial code of E = ``code.exponents``,
    which ``build_code`` proved equal to the curve-built one; cached per
    (field, E, route), so every orbit of a (q, m) shares one entry.  ``auto``
    runs both routes up to CROSS_CHECK_LIMIT messages, insists they agree
    and returns the exhaustive one; above it, the reduced route alone."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    try:
        positive = operator.index(jobs) >= 1  # as Field.check_symbols; a pool runs 1.5 too
    except TypeError:
        positive = False
    if not positive:
        raise ValueError(f"jobs={jobs!r} is not a positive integer")
    if method == "auto":
        if code.field.order**code.k > CROSS_CHECK_LIMIT:
            return weight_enumerator(code, "reduced", jobs)
        ex, red = (weight_enumerator(code, route, jobs) for route in METHODS if route != "auto")
        if ex != red:
            raise RuntimeError(f"enumerator mismatch at q={code.q}, m={code.m}: {ex} vs {red}")
        return ex
    exponents = tuple(code.exponents.tolist())
    key = (code.field, exponents, method)
    if key in _ENUMERATORS:
        return _ENUMERATORS[key]
    start = time.perf_counter()
    raw = _route_counts(code.field, method, exponents, jobs)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    counts = MappingProxyType({w: int(c) for w, c in enumerate(raw) if c})
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
    """A message and its codeword, which should weigh n - (m-2)(q+1); the
    ``distance.bounds`` claim of ``verify`` judges that weight.

    The message is the function y*g(y)/x^m with g a product of m - 2
    factors (y - tau*c) over distinct nonzero subfield elements c, and
    eps = 0.  Each factor vanishes on the q + 1 orbit points whose norm
    equals c, so the zero sets are disjoint and the weight meets the
    distance upper bound.  For m = 2 the product is empty: g = 1 gives a
    codeword of full weight q^2 - 1.
    """
    field, m = code.field, code.m
    coeffs = [1]
    for c in [s for s in field.subfield_elements() if s != 0][: m - 2]:
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
    return msg, encode(code, msg)


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


def _orbit_terms(code: LinearCode, msg) -> tuple[np.ndarray, np.ndarray]:
    """Exponents and coefficients of the polynomial whose nonzero roots are
    exactly the orbit x-coordinates where the message's function
    vanishes: substitute y = tau*x^(q+1), divide by x^m."""
    agcode.check_message(code, msg)
    field = code.field
    # x^a * y^b becomes tau^b * x^e; the exponents e_t are distinct and
    # tau != 0, so no two terms merge and no nonzero term vanishes.
    tau_b = field.exp_table[field.log_table[code.spec.tau] * code.powers[:, 1] % (field.order - 1)]
    return code.exponents, field.mul_table[np.asarray(msg, dtype=np.int64), tau_b]


def zero_count_via_roots(code: LinearCode, msg) -> int:
    """Number of orbit points where the message's function vanishes,
    counted by scanning nonzero roots of the substituted polynomial."""
    values = _poly_values(code.field, *_orbit_terms(code, msg))
    return int(np.count_nonzero(values[1:] == 0))


def _poly_values(field: Field, exps, coefs) -> np.ndarray:
    """Values of sum c_t * x^e_t (e_t >= 0) at every x in F_Q, indexed by
    the encoding of x; at x = 0, x^0 = 1 and x^e = 0 for e > 0."""
    exps = np.asarray(exps, dtype=np.int64)
    powers = np.empty((len(exps), field.order), dtype=np.int64)
    powers[:, 0] = exps == 0
    powers[:, 1:] = field.exp_table[np.outer(exps, field.log_table[1:]) % (field.order - 1)]
    return field.combine(coefs, powers)


# -- sparse (lacunary) polynomial root counts -----------------------------


def roots_of_lacunary(field: Field, kind: str, *, a: int | None = None,
                      b: int | None = None, b1: int | None = None,
                      tau: int | None = None) -> tuple[int, tuple[int, ...]]:
    """Exact root count (and roots) in F_{q^2} of one of the sparse forms.

    * ``general``: x^(q+1) + a*x + b         (count is always 0, 1, 2 or q+1)
    * ``shifted``: b1*tau*x^(q-1) + 1 with b1 != 0 (q-1 roots exactly
      when b1*tau has norm 1, else none)

    Every coefficient given must be an integer in [0, Q)
    (``Field.check_symbols``), else ValueError.
    """
    field.check_symbols([c for c in (a, b, b1, tau) if c is not None], "coefficients")
    q = field.q
    if kind == "general":
        if a is None or b is None:
            raise ValueError("general form needs coefficients a and b")
        exps, coefs = (q + 1, 1, 0), (1, a, b)
    elif kind == "shifted":
        if b1 is None or tau is None:
            raise ValueError("shifted form needs b1 and tau")
        lead = field.mul(b1, tau)
        if lead == 0:
            raise ValueError("shifted form is degenerate: b1*tau = 0")
        exps, coefs = (q - 1, 0), (lead, 1)
    else:
        raise ValueError(f"unknown lacunary kind {kind!r}")
    roots = tuple(np.flatnonzero(_poly_values(field, exps, coefs) == 0).tolist())
    return len(roots), roots
