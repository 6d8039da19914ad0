"""Weight enumeration: the product-box kernel both routes share is
checked against a brute-force sum over its box, both routes against a
per-message encode scan and a from-scratch function-evaluation
enumerator, the exhaustive route against a scan of every message and
the reduced route against the exhaustive one and against one
Hermite-normal-form box per support, the plans, the guard and the
enumerators against the counting identities they must meet (the
Frobenius cut's orbits among them, and the dual distributions of the
MacWilliams transform), and the distributions against their closed
forms."""

import collections
import dataclasses
import itertools
import os
import subprocess
import sys
import threading
import weakref
from math import gcd, prod

import numpy as np
import pytest
from oracles import (
    dual_distribution,
    evaluate,
    full_scan_counts,
    table_combination,
    translation_counts,
)

from hermicode import agcode, rrspace, weights
from hermicode.agcode import encode
from hermicode.curve import all_orbit_specs, canonical_orbit_spec, orbit_of
from hermicode.gf import SUPPORTED_Q, field_for_q
from hermicode.rrspace import monomials
from hermicode.verify import ENUMERABLE
from hermicode.verify import code_for as _code
from hermicode.weights import (
    SizeGuardError,
    min_weight_characterization,
    roots_of_lacunary,
    upper_bound_witness,
    weight_enumerator,
    zero_count_via_roots,
)


def _naive_enumerator(q, m):
    """Independent oracle: iterate every coefficient vector and evaluate
    its function point by point."""
    f = field_for_q(q)
    spec = canonical_orbit_spec(f)
    points = orbit_of(spec)
    k = m * (m - 1) // 2 + 1
    counts: dict[int, int] = {}
    for coords in itertools.product(f.elements(), repeat=k):
        weight = sum(1 for p in points if evaluate(f, m, coords, p) != 0)
        counts[weight] = counts.get(weight, 0) + 1
    return counts


@pytest.mark.parametrize("q,m", [(3, 2), (4, 2)])
def test_exhaustive_matches_naive_function_evaluation(q, m):
    enum = weight_enumerator(_code(q, m), "exhaustive")
    assert enum.counts == _naive_enumerator(q, m)


def _brute_box_counts(field, factors):
    """Independent oracle for the kernel: every row combination, summed
    symbol by symbol through the add table."""
    n = factors[0].shape[1]
    counts = np.zeros(n + 1, dtype=np.int64)
    for rows in itertools.product(*factors):
        acc = np.zeros(n, dtype=np.int64)
        for row in rows:
            acc = field.add_table[acc, row]
        counts[np.count_nonzero(acc)] += 1
    return counts


# q = 4 and 8 have p = 2, q = 3 and 5 odd p.  One factor leaves one half
# of the split empty; size-1 factors make unit-size halves.
@pytest.mark.parametrize("q", [3, 4, 5, 8])
@pytest.mark.parametrize(
    "sizes", [(1,), (6,), (1, 1), (1, 7), (3, 4), (2, 1, 3), (4, 2, 3, 2), (1, 1, 1, 1)]
)
def test_box_kernel_matches_brute_force(q, sizes):
    field = field_for_q(q)
    rng = np.random.default_rng([q, *sizes])
    a, b = (int(x) for x in rng.integers(1, field.order, 2))
    # Symbols from a pool closed under negation, so sums cancel often.
    pool = np.array([0, a, field.neg_table[a], b, field.neg_table[b]], dtype=np.uint8)
    factors = [pool[rng.integers(0, len(pool), (d, 9))] for d in sizes]
    counts = weights._box_counts(field, [(factors, 1)], jobs=1)
    assert counts.dtype == np.int64
    assert int(counts.sum()) == int(np.prod(sizes))
    assert np.array_equal(counts, _brute_box_counts(field, factors))


# n = 1, 24 and 80 are the smallest symbol axis and the lengths at q = 5
# and q = 9.  At n = 1 a 7-word tile is 2 left columns of 3 words over 9
# left columns, the last tile partial.  Tiles of 1 and 7 words run n > 8
# symbols one by one, the default tile compares all symbols at once.
# Every tile of the first four boxes is under 512 * (n + 1) words and
# takes _histogram's plain bincount; the last box at the default tile is
# one tile of 41 * 31 = 1,271 >= 1,024 words and takes the uint16 pair
# bincount, with an odd tail, while its 31-word tiles at 1 and 7 words
# take the plain one.
@pytest.mark.parametrize("q,n,sizes", [
    (3, 1, (9, 1, 3)), (5, 24, (4, 3, 5, 2)), (9, 80, (3, 4, 2)), (9, 80, (6,)),
    (3, 1, (41, 31)),
])
def test_box_kernel_random_differential(monkeypatch, q, n, sizes):
    field = field_for_q(q)
    rng = np.random.default_rng([77, q, n, *sizes])
    factors = [rng.integers(0, field.order, (d, n)).astype(np.uint8) for d in sizes]
    if n == 80:
        # Row 0 of every table sums to the zero word, which has n zeros.
        for table in factors[1:-1]:
            table[0] = 0
        factors[0][0] = field.neg_table[factors[-1][0]] if len(factors) > 1 else 0
    expected = _brute_box_counts(field, factors)
    assert expected[0] >= (n == 80)
    folded = weights._fold(field.add_table, factors, n)
    assert folded.shape == (n, int(np.prod(sizes))) and folded.flags["C_CONTIGUOUS"]
    for tile in (1, 7, weights._TILE_WORDS):
        monkeypatch.setattr(weights, "_TILE_WORDS", tile)
        for jobs in (1, 2):
            assert np.array_equal(weights._box_counts(field, [(factors, 1)], jobs), expected)


@pytest.mark.parametrize("n", [1, 24, 80])
def test_histogram_branches_agree_at_their_boundary(n):
    rng = np.random.default_rng([23, n])
    # The last size is odd and spans three bincount slices, the last partial.
    for size in (1, 512 * (n + 1) - 1, 512 * (n + 1), 512 * (n + 1) + 1,
                 5 * weights._HISTOGRAM_PAIRS + 3):
        flat = rng.integers(0, n + 1, size).astype(np.uint8)
        assert np.array_equal(weights._histogram(flat, n), np.bincount(flat, minlength=n + 1))


class RecordingThread(threading.Thread):
    """A real thread that records itself and, as it starts, how many of
    the recorded threads are alive with it."""
    started: list = []
    peaks: list = []

    def start(self):
        RecordingThread.peaks.append(1 + sum(t.is_alive() for t in RecordingThread.started))
        RecordingThread.started.append(self)
        super().start()


def _record_boxes(monkeypatch):
    """Patch the kernel so that each box appends to the returned list the
    threads that ran its tiles, one per tile, and the threads it started;
    the kernel's threads are RecordingThreads.  (Idents are not used:
    a thread that has ended can pass its ident on.)"""
    boxes = []
    histogram, tiled_box = weights._histogram, weights._tiled_box

    def recording_histogram(*args):
        boxes[-1][0].append(threading.current_thread())
        return histogram(*args)

    def recording_tiled_box(*args):
        threads, first = [], len(RecordingThread.started)
        boxes.append(([], threads))
        out = tiled_box(*args)
        threads += RecordingThread.started[first:]
        return out

    monkeypatch.setattr(RecordingThread, "started", [])
    monkeypatch.setattr(RecordingThread, "peaks", [])
    monkeypatch.setattr(weights.threading, "Thread", RecordingThread)
    monkeypatch.setattr(weights, "_histogram", recording_histogram)
    monkeypatch.setattr(weights, "_tiled_box", recording_tiled_box)
    return boxes


def _random_boxes(field, seed):
    """Seeded (factors, weight) boxes of 1 to 60 words over the field,
    and the weighted sum of their brute-force counts."""
    rng = np.random.default_rng(seed)
    boxes = []
    for sizes in [(2, 3), (1,), (4, 5, 3), (1, 1), (2, 2), (3,), (7, 6), (1, 2, 1)]:
        factors = [rng.integers(0, field.order, (d, field.order - 1)).astype(np.uint8)
                   for d in sizes]
        boxes.append((factors, int(rng.integers(1, 10**6))))
    return boxes, sum(weight * _brute_box_counts(field, factors) for factors, weight in boxes)


def test_box_list_sums_the_weighted_boxes(monkeypatch):
    # Random boxes at q = 5 and q = 8.  A 16-word tile cuts the large
    # boxes into several tiles and leaves the small ones whole; 50 words
    # cut them differently, and every box fits one default tile.  A box of
    # T tiles runs on w = min(jobs, T) workers: the calling thread and one
    # started thread per other worker, each running T // w or T // w + 1
    # of the tiles.  So jobs = 1 and one-tile boxes start no thread, and
    # the tiles are the same at every jobs.
    caller = threading.current_thread()
    default = weights._TILE_WORDS
    for q in (5, 8):
        field = field_for_q(q)
        boxes, expected = _random_boxes(field, [91, q])
        for tile in (16, 50, default):
            monkeypatch.setattr(weights, "_TILE_WORDS", tile)
            for jobs in (1, 2, 3):
                runs = _record_boxes(monkeypatch)
                assert np.array_equal(weights._box_counts(field, boxes, jobs), expected)
                assert len(runs) == len(boxes)
                if jobs == 1:
                    tiles = [len(ran) for ran, _ in runs]
                    assert min(tiles) >= 1 and (max(tiles) > 1) == (tile != default)
                assert [len(ran) for ran, _ in runs] == tiles
                for (ran, threads), size in zip(runs, tiles):
                    workers = min(jobs, size)
                    assert len(threads) == workers - 1
                    assert not any(thread.is_alive() for thread in threads)
                    per_worker = collections.Counter(ran)
                    assert set(per_worker) == {caller, *threads}
                    assert set(per_worker.values()) <= {size // workers, -(-size // workers)}


def test_boxes_are_folded_when_their_tiles_are_reached(monkeypatch):
    # Single-threaded, each box's two halves are folded just before its
    # first tile, never all boxes up front, and each box exactly once; a
    # box's folds are dropped after its last tile, so when a half is
    # folded at most the other half of the same box is still alive.
    field = field_for_q(5)
    rng = np.random.default_rng(93)
    boxes = [([rng.integers(0, 25, (d, 24)).astype(np.uint8) for d in sizes], 1)
             for sizes in [(3, 4), (5,), (2, 6, 2)]]
    events, folded = [], []
    fold, histogram = weights._fold, weights._histogram

    def recording_fold(*args):
        assert sum(ref() is not None for ref in folded) <= 1
        events.append("fold")
        out = fold(*args)
        folded.append(weakref.ref(out))
        return out

    monkeypatch.setattr(weights, "_fold", recording_fold)
    monkeypatch.setattr(weights, "_histogram", lambda *a: events.append("tile") or histogram(*a))
    monkeypatch.setattr(weights, "_TILE_WORDS", 4)
    weights._box_counts(field, boxes, 1)
    runs = "".join("f" if e == "fold" else "t" for e in events)
    assert runs.count("f") == 2 * len(boxes)
    assert [len(part) for part in runs.split("t") if part] == [2] * len(boxes)
    assert runs.startswith("fft") and not runs.endswith("f")


def test_threads_fold_each_box_once(monkeypatch):
    # More workers than cores and a short switch interval: each box must
    # still be folded once, whatever the workers interleave.
    field = field_for_q(5)
    boxes, expected = _random_boxes(field, 95)
    calls = []
    fold = weights._fold
    monkeypatch.setattr(weights, "_fold", lambda *a: calls.append(1) or fold(*a))
    monkeypatch.setattr(weights, "_TILE_WORDS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            calls.clear()
            assert np.array_equal(weights._box_counts(field, boxes, 8), expected)
            assert len(calls) == 2 * len(boxes)
    finally:
        sys.setswitchinterval(interval)


def _encode_scan(code):
    """Independent oracle for both routes: every message of the message
    grid, encoded by one add/mul-table fold per generator row.  Returns
    the messages, their codewords and the weight counts."""
    field = code.field
    msgs = np.indices((field.order,) * code.k).reshape(code.k, -1).T
    words = table_combination(field, msgs, code.gen)
    ws, counts = np.unique(np.count_nonzero(words, axis=1), return_counts=True)
    return msgs, words, dict(zip(ws.tolist(), counts.tolist()))


@pytest.mark.parametrize("q,m", [(4, 3), (5, 2)])
def test_both_routes_match_encode_scan(q, m):
    code = agcode.build_code(field_for_q(q), m)
    msgs, words, scan = _encode_scan(code)
    assert sum(scan.values()) == code.field.order**code.k
    for i in np.random.default_rng([q, m]).integers(0, len(msgs), 200):
        assert encode(code, msgs[i].tolist()).symbols == tuple(words[i].tolist())
    for method in ("exhaustive", "reduced"):
        enum = weight_enumerator(code, method)
        assert enum.method == method
        assert enum.counts == scan


# Closed-form two-weight distributions for m = 2.
TWO_WEIGHT = {
    3: {0: 1, 6: 32, 8: 48},
    4: {0: 1, 12: 75, 15: 180},
    5: {0: 1, 20: 144, 24: 480},
    7: {0: 1, 42: 384, 48: 2016},
    8: {0: 1, 56: 567, 63: 3528},
}


@pytest.mark.parametrize("q", sorted(TWO_WEIGHT))
def test_two_weight_distributions(q):
    enum = weight_enumerator(_code(q, 2), "exhaustive")
    assert enum.counts == TWO_WEIGHT[q]
    assert enum.min_distance == q * q - q
    n2 = q * q - 1
    assert enum.count(q * q - q) == n2 * (q + 1)
    assert enum.count(n2) == q * (q - 1) * n2


@pytest.mark.parametrize("q,m", [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (7, 3)])
def test_reduced_equals_exhaustive(q, m):
    code = _code(q, m)
    assert weight_enumerator(code, "reduced") == weight_enumerator(code, "exhaustive")


def test_reduced_equals_exhaustive_on_every_orbit():
    # Both routes count the monomial code of (field, E), blind to the
    # orbit; each must equal a scan of that orbit's own curve-built
    # generator, which is the code the claims are about.
    cases = 0
    for q in (3, 4, 5, 7, 8, 9):
        f = field_for_q(q)
        for spec in all_orbit_specs(f):
            for m in range(2, q):
                code = agcode.build_code(f, m, spec)
                if f.order**code.k > 1 << 16:
                    continue
                scan = _encode_scan(code)[2]
                for method in ("exhaustive", "reduced"):
                    enum = weight_enumerator(code, method, jobs=1)
                    assert enum.method == method
                    assert enum.counts == scan, (q, spec.v, m, method)
                cases += 1
    assert cases == 40


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _random_exponent_sets():
    """Seeded random E in Z/(Q - 1), 1 <= |E| <= 5 and Q^|E| <= 2^20, 30
    per q at p = 2 and odd p, listed in random order.  Every fourth E
    lies in one coset of the subgroup of order d, so the differences of E
    share the factor (Q - 1) / d and L collapses towards the diagonal."""
    rng = np.random.default_rng(9109)
    cases = []
    for q in (3, 4, 5, 7, 8):
        f = field_for_q(q)
        big_n = f.order - 1
        largest = max(s for s in range(1, 6) if f.order**s <= 1 << 20)
        for trial in range(30):
            size = int(rng.integers(1, largest + 1))
            if trial % 4 == 0:
                d = int(rng.choice([d for d in _divisors(big_n) if d >= size]))
                coset = rng.integers(0, big_n) + big_n // d * rng.choice(d, size, replace=False)
                exponents = coset % big_n
            else:
                exponents = rng.choice(big_n, size, replace=False)
            cases.append((f, [int(e) for e in exponents]))
    return cases


def test_routes_agree_on_random_exponent_sets(monkeypatch):
    cases = _random_exponent_sets()
    assert len(cases) == 150
    counts = []
    for f, exponents in cases:
        exhaustive = weights._route_counts(f, "exhaustive", exponents, 1)
        assert int(exhaustive.sum()) == f.order**len(exponents), (f.q, exponents)
        assert np.array_equal(weights._route_counts(f, "reduced", exponents, 1), exhaustive), \
            (f.q, exponents)
        counts.append(exhaustive)
    # One-word tiles: every left column is its own tile.
    monkeypatch.setattr(weights, "_TILE_WORDS", 1)
    small = [i for i, (f, e) in enumerate(cases) if f.order**len(e) <= 1 << 12][::4]
    assert len(small) >= 10
    for i in small:
        f, exponents = cases[i]
        for route in ("exhaustive", "reduced"):
            for jobs in (1, 2, 8):
                assert np.array_equal(weights._route_counts(f, route, exponents, jobs), counts[i]), \
                    (f.q, exponents)


_FULL_SCAN_SIZES = [(q, m) for q in (3, 4, 5, 7, 8, 9) for m in range(2, q)
                    if (q * q)**(m * (m - 1) // 2 + 1) <= 1 << 22]


@pytest.mark.parametrize("q,m", _FULL_SCAN_SIZES)
def test_exhaustive_equals_full_scan(q, m):
    f = field_for_q(q)
    exponents = agcode.build_code(f, m).exponents.tolist()
    assert np.array_equal(weights._route_counts(f, "exhaustive", exponents, 1),
                          full_scan_counts(f, exponents))


def test_exhaustive_equals_full_scan_on_random_exponent_sets(monkeypatch):
    # One-word tiles: every left column of every box is its own tile.
    cases = [(f, e) for f, e in _random_exponent_sets() if f.order**len(e) <= 1 << 16]
    assert len(cases) == 117
    expected = [full_scan_counts(f, e) for f, e in cases]
    monkeypatch.setattr(weights, "_TILE_WORDS", 1)
    for (f, exponents), counts in zip(cases, expected):
        for jobs in (1, 2, 8):
            assert np.array_equal(weights._route_counts(f, "exhaustive", exponents, jobs), counts), \
                (f.q, exponents, jobs)


def test_exhaustive_scans_one_word_per_line():
    # Box t: the 1 at coordinate t, then all Q symbols at each later one.
    f = field_for_q(5)
    code = agcode.build_code(f, 3)
    big_q, k = f.order, code.k
    boxes = list(weights._exhaustive_plan(f, code.exponents.tolist()))
    assert boxes == [([(t, [1])] + [(c, None) for c in range(t + 1, k)], big_q - 1)
                     for t in range(k)]
    assert _plan_words(f, boxes) == (big_q**k - 1) // (big_q - 1)


def _misplanned(monkeypatch, route, boxes):
    """The route's plan generator replaced by one yielding ``boxes``."""
    monkeypatch.setattr(weights, f"_{route}_plan", lambda field, exponents: iter(boxes))


@pytest.mark.parametrize("delta", [1, -1])
def test_a_misweighted_plan_is_refused_before_the_kernel(monkeypatch, delta):
    # Each box of each route's plan in turn gets its weight off by delta;
    # the plan no longer makes up Q^k and no tile may run.
    f = field_for_q(4)
    exponents = agcode.build_code(f, 3).exponents.tolist()
    kernel_calls = []
    monkeypatch.setattr(weights, "_box_counts", lambda *args: kernel_calls.append(args))
    for route, boxes in (("exhaustive", 4), ("reduced", 17)):
        plan = list(getattr(weights, f"_{route}_plan")(f, exponents))
        assert len(plan) == boxes
        for i, (factors, weight) in enumerate(plan):
            _misplanned(monkeypatch, route, plan[:i] + [(factors, weight + delta)] + plan[i + 1:])
            with pytest.raises(RuntimeError, match="plan covers"):
                weights._route_counts(f, route, exponents, 1)
    assert kernel_calls == []


@pytest.mark.parametrize("q,m", sorted(ENUMERABLE))
def test_pless_power_moments(q, m):
    # The second moment needs no two proportional columns: gcd(n, E - e_0)
    # is 1 for every m >= 3 and q - 1 at m = 2, where E = {0, q - 1}.
    code = _code(q, m)
    big_q, n, k = code.field.order, code.n, code.k
    counts = weight_enumerator(code).counts
    first, second = (sum(w**p * c for w, c in counts.items()) for p in (1, 2))
    assert first == big_q**(k - 1) * (big_q - 1) * n
    spread = gcd(n, *(code.exponents - code.exponents[0]).tolist())
    assert spread == (q - 1 if m == 2 else 1)
    assert (second == big_q**(k - 2) * (big_q - 1) * n * ((big_q - 1) * n + 1)) == (m >= 3)


@pytest.mark.parametrize("q,m", sorted(ENUMERABLE))
def test_dual_distribution_is_a_weight_distribution(q, m):
    # The MacWilliams transform of every suite enumerator is the dual
    # code's weight distribution: non-negative integers, one zero word and
    # Q^(n - k) words in all.  At (5, 4) the dual has distance 4, with 288
    # words of weight 4.
    code = _code(q, m)
    big_q, n, k = code.field.order, code.n, code.k
    dual = dual_distribution(weight_enumerator(code).counts, n, big_q)
    assert all(b.denominator == 1 and b >= 0 for b in dual)
    assert dual[0] == 1 and sum(dual) == big_q**(n - k)
    if (q, m) == (5, 4):
        assert next(j for j in range(1, n + 1) if dual[j]) == 4 and dual[4] == 288


def _mutated(monkeypatch, mutate):
    """weight_enumerator with its exhaustive counts passed through ``mutate``."""
    route_counts = weights._route_counts

    def mutated(field, route, exponents, jobs):
        counts = route_counts(field, route, exponents, jobs).copy()
        if route == "exhaustive":
            mutate(counts)
        return counts

    monkeypatch.setattr(weights, "_ENUMERATORS", {})
    monkeypatch.setattr(weights, "_route_counts", mutated)


def test_a_word_moved_between_weights_breaks_the_first_moment(monkeypatch):
    def move(counts):
        counts[13] -= 1
        counts[15] += 1

    _mutated(monkeypatch, move)
    with pytest.raises(RuntimeError, match="first Pless power moment"):
        weight_enumerator(_code(4, 3), "exhaustive")


def test_a_spread_word_pair_breaks_the_second_moment(monkeypatch):
    # Two words of weight 13 moved to 12 and 14 keep the total and the
    # first moment.
    def spread(counts):
        counts[13] -= 2
        counts[12] += 1
        counts[14] += 1

    _mutated(monkeypatch, spread)
    with pytest.raises(RuntimeError, match="second Pless power moment"):
        weight_enumerator(_code(4, 3), "exhaustive")


@pytest.mark.parametrize("sign", [1, -1])
def test_a_count_off_by_a_line_breaks_the_total(monkeypatch, sign):
    # A box weighted Q - 1 that ran one word too many or too few.
    def shift(counts):
        counts[13] += sign * 255

    _mutated(monkeypatch, shift)
    with pytest.raises(RuntimeError, match="total does not match"):
        weight_enumerator(_code(4, 3), "exhaustive")


@pytest.mark.parametrize("q,m", [(3, 2), (4, 3), (5, 4), (7, 3), (8, 3)])
def test_repeated_residue_is_refused(monkeypatch, q, m):
    # A lift e + (Q - 1) of an exponent already in E: the two monomial
    # rows coincide, so the map from messages to words is not injective.
    f = field_for_q(q)
    big_n = f.order - 1
    rng = np.random.default_rng([q, m])
    exponents = [int(e) for e in rng.choice(big_n, 3, replace=False)]
    exponents.append(exponents[0] + big_n)
    for route in ("exhaustive", "reduced"):
        with pytest.raises(RuntimeError, match="repeats a residue"):
            weights._route_counts(f, route, exponents, 1)
    with pytest.raises(RuntimeError, match="repeats a residue"):
        full_scan_counts(f, exponents)
    real_powers = rrspace.powers

    def lifted(field, m):
        pairs = real_powers(field, m)
        pairs[-1] = pairs[0] + (big_n, 0)
        return pairs

    monkeypatch.setattr(rrspace, "powers", lifted)
    with pytest.raises(RuntimeError, match="repeats a residue"):
        agcode.build_code(f, m)


@pytest.mark.parametrize("q,m", sorted(ENUMERABLE))
def test_reduced_equals_translation_oracle(q, m):
    # (5, 4) is the one suite code whose reduced counts no exhaustive
    # reference reaches.
    f = field_for_q(q)
    exponents = agcode.build_code(f, m).exponents.tolist()
    oracle = translation_counts(f, exponents)
    for jobs in (1, 2):
        assert np.array_equal(weights._route_counts(f, "reduced", exponents, jobs), oracle), jobs


def test_reduced_equals_translation_on_random_exponent_sets(monkeypatch):
    cases = _random_exponent_sets()
    expected = [translation_counts(f, e) for f, e in cases]
    for (f, exponents), counts in zip(cases, expected):
        assert np.array_equal(weights._route_counts(f, "reduced", exponents, 1), counts), \
            (f.q, exponents)
    # One-word tiles: every left column of every box is its own tile.
    monkeypatch.setattr(weights, "_TILE_WORDS", 1)
    small = [(case, counts) for case, counts in zip(cases, expected)
             if case[0].order**len(case[1]) <= 1 << 16]
    assert len(small) == 117
    for (f, exponents), counts in small:
        for jobs in (1, 2, 8):
            assert np.array_equal(weights._route_counts(f, "reduced", exponents, jobs), counts), \
                (f.q, exponents, jobs)


def _symbols(f, s):
    """The symbols of a plan factor's set: all of F_Q for None."""
    return range(f.order) if s is None else [int(x) for x in s]


def _box_words(f, factors):
    return prod(len(_symbols(f, s)) for _, s in factors)


def _plan_words(f, plan):
    """Words of the (factors, weight) boxes of a plan."""
    return sum(_box_words(f, factors) for factors, _ in plan)


def _route_order(plan):
    """The reduced route's coordinate order, read off its one-factor boxes."""
    return [factors[0][0] for factors, _ in plan if len(factors) == 1]


def _translation_words(monkeypatch, f, exponents):
    """Words of the translation oracle's table boxes, its kernel counting nothing."""
    boxes = []
    with monkeypatch.context() as patch:
        patch.setattr(weights, "_box_counts", lambda field, plan, jobs:
                      boxes.extend(plan) or np.zeros(field.order, dtype=np.int64))
        translation_counts(f, exponents)
    return sum(prod(len(table) for table in factors) for factors, _ in boxes)


class _TablesReached(Exception):
    """Raised by monomial_rows in place of the rows: a plan passed both checks."""


def _stop_at_the_tables(monkeypatch):
    """The monomial_rows calls from now on, each raising _TablesReached."""
    built = []

    def stop(*args):
        built.append(args)
        raise _TablesReached

    monkeypatch.setattr(agcode, "monomial_rows", stop)
    return built


def _line_words(f, exponents):
    """Words of the reduced plan with its coordinates in the order of
    ``exponents``, in closed form: one for each single nonzero coordinate;
    at g > 1, g rows at u and Q symbols at each of the j coordinates after
    it; at g = 1, one word per orbit of x -> x^p on those j symbols, by
    Burnside (1/r) sum_{i < r} p^(j gcd(i, r)) with r = 2k', Q = p^(2k')."""
    big_q, n, k, r = f.order, f.order - 1, len(exponents), 2 * f.k
    orbits = [sum(f.p**(j * gcd(i, r)) for i in range(r)) // r for j in range(k)]
    words = k
    for t in range(k):
        for u in range(t + 1, k):
            g = gcd(exponents[u] - exponents[t], n)
            words += orbits[k - 1 - u] if g == 1 else g * big_q**(k - 1 - u)
    return words


def _phi_orbit(f, word):
    """The orbit of a tuple of symbols under x -> x^p, coordinate-wise."""
    return {tuple(f.pow(s, f.p**i) for s in word) for i in range(2 * f.k)}


@pytest.mark.parametrize("q,m", [(4, 3), (5, 4)])
def test_reduced_plan_splits_each_line_at_its_second_nonzero(q, m):
    # Box (t): the 1 at t alone, weight Q - 1.  Line (t, u): the 1 at t and
    # omega^0 .. omega^(g-1) at u, g = gcd(e_u - e_t, Q - 1).  At g > 1 one
    # box with all Q symbols after u, weight (Q - 1)^2 / g.  At g = 1 each
    # box holds some symbols of each coordinate after u, weight (Q - 1)^2
    # times an orbit size; where the tail has at most 2^14 words, the
    # line's words meet every orbit of x -> x^p once, each weighted by its
    # size, and elsewhere they make up Q^j.  t and u run in the route's
    # coordinate order, read off the one-factor boxes.
    f = field_for_q(q)
    big_q, n = f.order, f.order - 1
    exponents = agcode.build_code(f, m).exponents.tolist()
    k = len(exponents)
    boxes = list(weights._reduced_plan(f, exponents))
    order = _route_order(boxes)
    assert sorted(order) == list(range(k))
    lines: dict = {}
    for factors, weight in boxes:
        lead = tuple((c, tuple(_symbols(f, s))) for c, s in factors[:2])
        lines.setdefault(lead, []).append((factors[2:], weight))
    assert len(lines) == k * (k + 1) // 2
    for i, t in enumerate(order):
        assert lines[((t, (1,)),)] == [([], n)]
        for j in range(i + 1, k):
            u, tail = order[j], order[j + 1:]
            g = gcd(exponents[u] - exponents[t], n)
            line = lines[((t, (1,)), (u, tuple(f.exp_table[:g].tolist())))]
            if g > 1:
                assert line == [([(v, None) for v in tail], n * n // g)]
                continue
            assert all([c for c, _ in factors] == tail for factors, _ in line)
            assert sum(weight * _box_words(f, factors) for factors, weight in line) == \
                n * n * big_q**len(tail)
            if big_q**len(tail) > 1 << 14:
                continue
            seen = set()
            for factors, weight in line:
                for word in itertools.product(*(_symbols(f, s) for _, s in factors)):
                    orbit = _phi_orbit(f, word)
                    assert weight == n * n * len(orbit) and min(orbit) not in seen
                    seen.add(min(orbit))
    # The order matters: in code order the large boxes hold more rows at u.
    words = _line_words(f, [exponents[t] for t in order])
    assert _plan_words(f, boxes) == words <= _line_words(f, exponents)
    if (q, m) == (5, 4):
        assert (len(boxes), words, _line_words(f, exponents)) == (45, 5_978_713, 25_075_741)


@pytest.mark.parametrize("q,m", sorted(ENUMERABLE) + [(7, 4), (8, 4), (9, 4)])
def test_reduced_scans_few_more_words_than_translation(monkeypatch, q, m):
    # The lines keep the translation symmetry at their second nonzero only,
    # but cut the g = 1 lines by x -> x^p: no more words than one box per
    # support, and exactly the closed form in the route's coordinate order.
    f = field_for_q(q)
    exponents = agcode.build_code(f, m).exponents.tolist()
    plan = list(weights._reduced_plan(f, exponents))
    reduced = _plan_words(f, plan)
    assert reduced <= _translation_words(monkeypatch, f, exponents)
    assert reduced == _line_words(f, [exponents[t] for t in _route_order(plan)])


@pytest.mark.parametrize("q,m", [(4, 3), (5, 4), (7, 4), (8, 4), (9, 4), (9, 3)])
def test_reduced_guard_reads_the_plan_words(monkeypatch, q, m):
    # One guard for both routes: each reaches its tables at exactly the
    # words its plan scans and is refused one word below, by a message
    # naming its route and those words.  The exhaustive plan scans
    # (Q^k - 1) / (Q - 1) words, one per line.
    f = field_for_q(q)
    exponents = agcode.build_code(f, m).exponents.tolist()
    built = _stop_at_the_tables(monkeypatch)
    for route in ("reduced", "exhaustive"):
        words = _plan_words(f, getattr(weights, f"_{route}_plan")(f, exponents))
        if route == "exhaustive":
            assert words == (f.order**len(exponents) - 1) // (f.order - 1)
        built.clear()
        monkeypatch.setattr(weights, "_WORDS_GUARD", words)
        with pytest.raises(_TablesReached):
            weights._route_counts(f, route, exponents, 1)
        monkeypatch.setattr(weights, "_WORDS_GUARD", words - 1)
        with pytest.raises(SizeGuardError, match=f"needs {words} or more representatives, "
                                                 f"more than the {route} guard of {words - 1} words"):
            weights._route_counts(f, route, exponents, 1)
        assert len(built) == 1, route


def test_reduced_guard_refuses_before_any_table(monkeypatch):
    # The reduced lines refuse q >= 7 at m >= 4 from the exponents alone,
    # except (7, 4) and (8, 4), which the Frobenius cut brings to 1.7e8 and
    # 1.9e8 words under 2^28; (9, 4) stays refused at 9.7e8.  The
    # exhaustive lines refuse every k >= 7 code but (5, 4), at 2.5e8 words.
    codes = {(q, m): agcode.build_code(field_for_q(q), m).exponents.tolist()
             for q in SUPPORTED_Q for m in range(2, q)}
    built = _stop_at_the_tables(monkeypatch)
    refused = {"reduced": set(), "exhaustive": set()}
    for route, found in refused.items():
        for (q, m), exponents in codes.items():
            built.clear()
            with pytest.raises((SizeGuardError, _TablesReached)) as exc:
                weights._route_counts(field_for_q(q), route, exponents, 1)
            if exc.type is SizeGuardError:
                assert "representatives" in str(exc.value) and f"{route} guard" in str(exc.value)
                assert built == [], (route, q, m)
                found.add((q, m))
            else:
                assert len(built) == 1, (route, q, m)
    large = {(q, m) for q in (7, 8, 9) for m in range(4, q)}
    assert refused == {"reduced": large - {(7, 4), (8, 4)}, "exhaustive": large}


@pytest.mark.parametrize("route,q,m", [("exhaustive", 9, 8), ("reduced", 9, 4), ("reduced", 9, 8)])
def test_a_refusal_stops_at_the_crossing(monkeypatch, route, q, m):
    # The walk stops at the box whose words pass the guard: the exhaustive
    # (9, 8) plan at its first box, the reduced ones well before their last.
    # The message names the words walked, a lower bound on the plan's.
    f = field_for_q(q)
    exponents = agcode.build_code(f, m).exponents.tolist()
    plan = getattr(weights, f"_{route}_plan")
    boxes = list(plan(f, exponents))
    walked = []

    def counted(field, exponents):
        for box in plan(field, exponents):
            walked.append(box)
            yield box

    monkeypatch.setattr(weights, f"_{route}_plan", counted)
    with pytest.raises(SizeGuardError) as exc:
        weights._route_counts(f, route, exponents, 1)
    needed = _plan_words(f, walked)
    assert f"needs {needed} or more representatives" in str(exc.value)
    if route == "exhaustive":
        assert len(walked) == 1
        assert weights._WORDS_GUARD < needed <= (f.order**len(exponents) - 1) // (f.order - 1)
    else:
        assert len(walked) <= len(boxes) // 4
        assert weights._WORDS_GUARD < needed <= \
            _line_words(f, [exponents[t] for t in _route_order(boxes)])


@pytest.mark.parametrize("q", sorted(SUPPORTED_Q))
def test_frobenius_tails_cover_every_word(q):
    # The boxes of j coordinates, each word times its orbit size, make Q^j,
    # with one word per orbit of x -> x^p (Burnside); for j <= 2 each word's
    # orbit is computed, and the words meet every orbit once.
    f = field_for_q(q)
    big_q, r = f.order, 2 * f.k
    for j in range(6):
        tails = list(weights._frobenius_tails(f, list(range(j))))
        assert all([c for c, _ in factors] == list(range(j)) for factors, _ in tails), j
        assert sum(size * _box_words(f, factors) for factors, size in tails) == big_q**j, j
        assert _plan_words(f, tails) == sum(f.p**(j * gcd(i, r)) for i in range(r)) // r, j
        if j > 2:
            continue
        orbits = set()
        for factors, size in tails:
            for word in itertools.product(*(_symbols(f, s) for _, s in factors)):
                orbit = _phi_orbit(f, word)
                assert size == len(orbit) and min(orbit) not in orbits, (j, word)
                orbits.add(min(orbit))
        assert len(orbits) == _plan_words(f, tails)


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("q,m", [(4, 3), (8, 3), (5, 4)])
def test_a_misweighted_orbit_is_refused_before_the_kernel(monkeypatch, q, m, delta):
    # Each box of a g = 1 line, weight (Q - 1)^2 times an orbit size, in
    # turn gets that multiplier off by delta: the plan no longer makes up
    # Q^k, and no tile may run.
    f = field_for_q(q)
    n = f.order - 1
    exponents = agcode.build_code(f, m).exponents.tolist()
    plan = list(weights._reduced_plan(f, exponents))
    cut = [i for i, (_, weight) in enumerate(plan) if weight % (n * n) == 0]
    assert len(cut) > len(exponents)
    kernel_calls = []
    monkeypatch.setattr(weights, "_box_counts", lambda *args: kernel_calls.append(args))
    for i in cut:
        factors, weight = plan[i]
        _misplanned(monkeypatch, "reduced", plan[:i] + [(factors, weight + delta * n * n)] + plan[i + 1:])
        with pytest.raises(RuntimeError, match="plan covers"):
            weights._route_counts(f, "reduced", exponents, 1)
    assert kernel_calls == []


def test_workers_are_capped_at_the_chunk_count(monkeypatch):
    # jobs = 1000 is far above any box's tile count.  A box starts one
    # thread per tile after the first and joins them before the next box
    # starts, so no more threads are alive at once than the largest box
    # has tiles, less one.  With the default tile every box of q = 4,
    # m = 3 is one tile and starts none; 2^8 words cut the largest
    # exhaustive box, 16^3 words, into 16 tiles, 2^4 words the largest
    # reduced boxes, 3 x 16 words, into 3.
    code = agcode.build_code(field_for_q(4), 3)
    methods = {"exhaustive": 1 << 8, "reduced": 1 << 4}
    base = {method: weight_enumerator(code, method, jobs=1).counts for method in methods}
    monkeypatch.setattr(weights, "_ENUMERATORS", {})
    for method in methods:
        boxes = _record_boxes(monkeypatch)
        weights._ENUMERATORS.clear()
        assert weight_enumerator(code, method, jobs=1000).counts == base[method]
        assert RecordingThread.started == [] and {len(ran) for ran, _ in boxes} == {1}
    for method, tile in methods.items():
        monkeypatch.setattr(weights, "_TILE_WORDS", tile)
        boxes = _record_boxes(monkeypatch)
        weights._ENUMERATORS.clear()
        assert weight_enumerator(code, method, jobs=1000).counts == base[method]
        most = max(len(ran) for ran, _ in boxes)
        assert most == {"exhaustive": 16, "reduced": 3}[method]
        assert all(len(threads) == len(ran) - 1 for ran, threads in boxes)
        assert 1 <= max(RecordingThread.peaks) <= most - 1
        assert not any(thread.is_alive() for thread in RecordingThread.started)


class TileError(Exception):
    """Raised by a patched tile."""


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_tile_error_reaches_the_caller_after_every_join(monkeypatch, where):
    # One tile fails, in a started thread or in the calling thread; the
    # other workers run to the end, and the error reaches the caller of
    # _box_counts with its own type once every thread is joined.
    field = field_for_q(5)
    boxes, _ = _random_boxes(field, 97)
    caller = threading.current_thread()
    histogram = weights._histogram

    def failing_histogram(*args):
        if (threading.current_thread() is caller) == (where == "caller"):
            raise TileError(where)
        return histogram(*args)

    monkeypatch.setattr(weights, "_histogram", failing_histogram)
    monkeypatch.setattr(weights, "_TILE_WORDS", 8)
    before = threading.active_count()
    with pytest.raises(TileError, match=where):
        weights._box_counts(field, boxes, 3)
    assert threading.active_count() == before


def test_import_loads_no_executor():
    # The kernel's workers are plain threads: importing the package and
    # its CLI loads neither concurrent.futures nor the logging it imports.
    src = os.path.dirname(os.path.dirname(weights.__file__))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, hermicode, hermicode.cli\n"
         "print(*sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True, timeout=60)
    assert loaded.stdout.split() == []


def test_enumerator_bookkeeping():
    enum = weight_enumerator(_code(4, 3), "exhaustive")
    assert enum.total() == 16**4
    assert enum.count(0) == 1
    assert enum.nonzero_weights() == sorted(w for w in enum.counts if w)
    # weight_enumerator hands the record its counts ascending, nonzero and
    # as ints; the record does not normalize them again.
    for route in ("exhaustive", "reduced"):
        counts = weight_enumerator(_code(4, 3), route).counts
        assert list(counts) == sorted(counts)
        assert all(type(c) is int and c > 0 for c in counts.values())
    # Equality is on n and counts: the route and its time do not enter.
    q, m, n, k, counts = enum.q, enum.m, enum.n, enum.k, enum.counts
    assert enum == weights.WeightEnumerator(q, m, n, k, dict(counts), "reduced", enum.elapsed_ms + 1)
    assert enum != weights.WeightEnumerator(q, m, n + 1, k, dict(counts), enum.method, enum.elapsed_ms)
    assert enum != weights.WeightEnumerator(q, m, n, k, {**counts, 0: 2}, enum.method, enum.elapsed_ms)


@pytest.mark.parametrize("route", ["auto", "exhaustve"])
def test_route_counts_refuses_an_unknown_route(route):
    # A name that is not a route has no plan: "auto" is a method, not a
    # route, and a misspelt route does not fall through to the exhaustive one.
    with pytest.raises(KeyError):
        weights._route_counts(field_for_q(3), route, _code(3, 2).exponents.tolist(), 1)


def test_jobs_do_not_change_counts(monkeypatch):
    # q = 4 has p = 2, q = 5 odd p.  One-word tiles split every box into
    # one tile per left column.
    monkeypatch.setattr(weights, "_ENUMERATORS", {})
    for q in (4, 5):
        code = agcode.build_code(field_for_q(q), 3)
        for method in ("exhaustive", "reduced"):
            weights._ENUMERATORS.clear()
            base = weight_enumerator(code, method, jobs=1).counts
            with monkeypatch.context() as patch:
                patch.setattr(weights, "_TILE_WORDS", 1)
                for jobs in (1, 2, 8):
                    weights._ENUMERATORS.clear()
                    assert weight_enumerator(code, method, jobs=jobs).counts == base


@pytest.mark.parametrize("jobs", [0, -2, 1.5, 2.0, "2", np.array(1.5), np.array([2])])
def test_weight_enumerator_refuses_nonpositive_jobs(jobs):
    # Refused also when the enumerator is already cached; the kernel
    # splits tiles among jobs workers by integer division, which 1.5,
    # 2.0 and "2" would break.
    # A 0-d float array has __index__ on its type, but operator.index
    # refuses it, as it refuses a one-element array.
    code = _code(3, 2)
    weight_enumerator(code, "exhaustive", jobs=1)
    with pytest.raises(ValueError, match="positive integer"):
        weight_enumerator(code, "exhaustive", jobs=jobs)


def test_exhaustive_guard():
    code = _code(7, 4)  # 49^7 messages, 1.4e10 lines
    with pytest.raises(SizeGuardError, match="exhaustive guard"):
        weight_enumerator(code, "exhaustive")


def test_auto_is_the_cross_checked_enumerator(monkeypatch):
    # (7, 3) has 49^4 messages, at most CROSS_CHECK_LIMIT: both routes run
    # and agree, and the exhaustive enumerator is returned.  (8, 3), at
    # 64^4, runs the reduced route alone.
    monkeypatch.setattr(weights, "_ENUMERATORS", {})
    assert 49**4 <= weights.CROSS_CHECK_LIMIT < 64**4
    auto = weight_enumerator(_code(7, 3))
    assert auto.method == "exhaustive"
    assert sorted(route for *_, route in weights._ENUMERATORS) == ["exhaustive", "reduced"]
    assert auto is weight_enumerator(_code(7, 3), "exhaustive")
    assert auto == weight_enumerator(_code(7, 3), "reduced")

    def refused(*args):
        raise AssertionError("the exhaustive route ran above CROSS_CHECK_LIMIT")

    monkeypatch.setattr(weights, "_exhaustive_plan", refused)
    auto = weight_enumerator(_code(8, 3))
    assert auto.method == "reduced"
    assert auto is weight_enumerator(_code(8, 3), "reduced")


def test_reduced_handles_the_largest_small_code():
    enum = weight_enumerator(_code(5, 4), "reduced")
    assert enum.total() == 25**7
    assert enum.min_distance == 12  # hits the upper bound 24 - 2*6


@pytest.mark.parametrize(
    "q,m,expected_d",
    [(3, 2, 6), (4, 2, 12), (4, 3, 10), (5, 2, 20), (5, 3, 18), (7, 3, 40), (8, 3, 54)],
)
def test_min_distance(q, m, expected_d):
    code = _code(q, m)
    d = weight_enumerator(code).min_distance
    assert d == expected_d
    lower = q * q - q * (m - 1)
    upper = q * q - 1 - (m - 2) * (q + 1)
    assert lower <= d <= upper


@pytest.mark.parametrize("q,m", [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (7, 3), (8, 3)])
def test_upper_bound_witness(q, m):
    code = _code(q, m)
    msg, word = upper_bound_witness(code)
    assert word == encode(code, msg)
    assert word.weight == q * q - 1 - (m - 2) * (q + 1)
    # The message is y*g(y)/x^m: eps = 0, and g is a monic polynomial in
    # y alone of degree m - 2 whose roots are tau times distinct nonzero
    # subfield elements.
    f = code.field
    assert msg[0] == 0
    g = dict(zip(monomials(m), msg[1:]))
    assert all(c == 0 for (i, _), c in g.items() if i)
    assert g[(0, m - 2)] == 1
    roots = set()
    for x in f.elements():
        acc = 0
        for j in range(m - 1):
            acc = f.add(acc, f.mul(g[(0, j)], f.pow(x, j)))
        if acc == 0:
            roots.add(x)
    assert len(roots) == m - 2
    for r in roots:
        c = f.mul(r, f.inv(code.spec.tau))
        assert c != 0 and f.subfield_mask[c]


def test_cubic_code_distributions():
    e5 = weight_enumerator(_code(5, 3), "exhaustive")
    assert e5.min_distance == 18
    assert e5.count(18) == 672
    assert e5.nonzero_weights()[1] == 19
    e7 = weight_enumerator(_code(7, 3), "reduced")
    assert e7.min_distance == 40
    assert e7.count(40) == 288 == 6 * 48
    assert e7.nonzero_weights()[1] == 42
    assert e7.count(42) == 4992
    e8 = weight_enumerator(_code(8, 3), "reduced")
    assert e8.min_distance == 54
    assert e8.count(54) == 441 == 7 * 63
    assert e8.count(56) == 567 == 9 * 63
    assert e8.nonzero_weights()[2] >= 57
    assert len(e8.nonzero_weights()) <= 9


@pytest.mark.parametrize("q,m", [(3, 2), (4, 3), (5, 3)])
def test_weight_equals_orbit_size_minus_polynomial_roots(q, m):
    code = _code(q, m)
    f = code.field
    rng = np.random.default_rng(q * 100 + m)
    for _ in range(60):
        msg = [int(x) for x in rng.integers(0, f.order, code.k)]
        word = encode(code, msg)
        assert word.weight == code.n - zero_count_via_roots(code, msg)


def test_orbit_zero_polynomial_degree_bound():
    # deg <= q(m-1) - 1, which is where the distance lower bound comes from.
    for (q, m) in [(4, 3), (5, 3), (5, 4)]:
        code = _code(q, m)
        f = code.field
        rng = np.random.default_rng(q + m)
        for _ in range(20):
            msg = [int(x) for x in rng.integers(0, f.order, code.k)]
            exps, coefs = weights._orbit_terms(code, msg)
            if coefs.any():
                assert exps[coefs != 0].max() <= q * (m - 1) - 1


def _brute_roots(field, terms, start):
    """Roots in [start, Q) of sum c * x^e, one Field.pow per term and x."""
    roots = []
    for x in range(start, field.order):
        acc = 0
        for e, c in terms.items():
            acc = field.add(acc, field.mul(c, field.pow(x, e)))
        if acc == 0:
            roots.append(x)
    return tuple(roots)


@pytest.mark.parametrize("q", [3, 8, 9])
def test_root_scans_match_brute_force(q):
    f = field_for_q(q)
    rng = np.random.default_rng(500 + q)
    for trial in range(40):
        # Exponents up to 2Q, so some wrap past Q - 1; constant terms
        # and zero coefficients appear, and trial 0 is the empty sum.
        exps = rng.integers(0, 2 * f.order, int(rng.integers(0, 5))) if trial else []
        terms = {int(e): int(rng.integers(0, f.order)) for e in exps}
        if trial % 3 == 1:
            terms[0] = int(rng.integers(1, f.order))
        values = weights._poly_values(f, list(terms), list(terms.values()))
        assert tuple(np.flatnonzero(values == 0).tolist()) == _brute_roots(f, terms, 0)
    for m in range(2, min(q, 5)):
        code = _code(q, m)
        msgs = [[0] * code.k, [1] + [0] * (code.k - 1)]
        msgs += [[int(x) for x in rng.integers(0, f.order, code.k)] for _ in range(20)]
        for msg in msgs:
            exps, coefs = weights._orbit_terms(code, msg)
            terms = {int(e): int(c) for e, c in zip(exps, coefs) if c}
            assert zero_count_via_roots(code, msg) == len(_brute_roots(f, terms, 1))


@pytest.mark.parametrize("q,m", [(q, m) for q in sorted(SUPPORTED_Q) for m in range(2, q)])
def test_encode_and_root_scan_match_their_oracles_on_every_code(q, m):
    # Both run through Field.combine; the table loop and the brute-force
    # root count do not.  A zero message and three random ones per code.
    code = _code(q, m)
    f = code.field
    rng = np.random.default_rng([q, m, 31])
    msgs = np.vstack([np.zeros(code.k, dtype=np.int64), rng.integers(0, f.order, (3, code.k))])
    words = table_combination(f, msgs, code.gen)
    for msg, word in zip(msgs.tolist(), words.tolist()):
        assert encode(code, msg).symbols == tuple(word)
        exps, coefs = weights._orbit_terms(code, msg)
        roots = _brute_roots(f, {int(e): int(c) for e, c in zip(exps, coefs) if c}, 1)
        assert zero_count_via_roots(code, msg) == len(roots) == code.n - np.count_nonzero(word)
    powers = weights._power_table(f, tuple(code.exponents.tolist()))
    assert powers.dtype == np.uint8 and not powers.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        powers[0, 0] = 0


@pytest.mark.parametrize("symbol", [-1, 9])
def test_root_count_rejects_symbols_outside_the_field(symbol):
    code = _code(3, 2)
    with pytest.raises(ValueError, match="outside"):
        zero_count_via_roots(code, [symbol, 0])


@pytest.mark.parametrize("msg", [[1.7, 0], [0, 2.0], np.array([0.5, 1.0]), ["1", 0]])
def test_root_count_rejects_non_integer_symbols(msg):
    # The scan used to truncate 1.7 to the symbol 1 like encode did.
    code = _code(3, 2)
    with pytest.raises(ValueError, match="are not integers"):
        zero_count_via_roots(code, msg)


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_root_count_accepts_numpy_integer_symbols(dtype):
    code = _code(4, 3)
    msg = [3, 0, 7, 12]
    assert zero_count_via_roots(code, np.array(msg, dtype=dtype)) == zero_count_via_roots(code, msg)


LACUNARY_KINDS = {
    "general": {"a": 1, "b": 1},
    "shifted": {"b1": 1, "tau": 1},
}


@pytest.mark.parametrize("kind", sorted(LACUNARY_KINDS))
@pytest.mark.parametrize("value", [-1, 9])
def test_lacunary_rejects_coefficients_outside_the_field(kind, value):
    # Q = 9 at q = 3: -1 used to act as 8 and 9 raised a bare IndexError.
    f = field_for_q(3)
    for name in LACUNARY_KINDS[kind]:
        coeffs = {**LACUNARY_KINDS[kind], name: value}
        with pytest.raises(ValueError, match="outside"):
            roots_of_lacunary(f, kind, **coeffs)


@pytest.mark.parametrize("kind", sorted(LACUNARY_KINDS))
@pytest.mark.parametrize("value", [1.5, np.float64(0.5), "1"])
def test_lacunary_rejects_non_integer_coefficients(kind, value):
    # Only the range was checked: a = 1.5 gave the roots for a = 1, b = 0.5
    # acted as b = 0, and "1" raised a bare TypeError.
    f = field_for_q(3)
    for name in LACUNARY_KINDS[kind]:
        coeffs = {**LACUNARY_KINDS[kind], name: value}
        with pytest.raises(ValueError, match="are not integers"):
            roots_of_lacunary(f, kind, **coeffs)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8])
def test_lacunary_general_trichotomy(q):
    f = field_for_q(q)
    rng = np.random.default_rng(q)
    allowed = {0, 1, 2, q + 1}
    seen = set()
    for _ in range(500):
        a = int(rng.integers(0, f.order))
        b = int(rng.integers(0, f.order))
        count, roots = roots_of_lacunary(f, "general", a=a, b=b)
        assert count in allowed
        assert len(roots) == count == len(set(roots))
        seen.add(count)
    assert seen <= allowed


@pytest.mark.parametrize("q", [3, 4])
def test_lacunary_scaled_full_root_criterion(q):
    # tau b2 x^(q+1) + b1 x + b0 has the roots of the general form with
    # a = b1/(tau b2) and b = b0/(tau b2): q + 1 of them exactly when b1 = 0
    # and b0/(tau b2) is a nonzero subfield element.
    f = field_for_q(q)
    tau = canonical_orbit_spec(f).tau
    for b2 in f.nonzero():
        lead_inv = f.inv(f.mul(tau, b2))
        for b1 in f.elements():
            for b0 in f.elements():
                ratio = f.mul(b0, lead_inv)
                count, _ = roots_of_lacunary(f, "general", a=f.mul(b1, lead_inv), b=ratio)
                full = b1 == 0 and ratio != 0 and f.subfield_mask[ratio]
                assert (count == q + 1) == full


@pytest.mark.parametrize("q", [3, 4, 5])
def test_lacunary_shifted_all_coefficients(q):
    f = field_for_q(q)
    tau = canonical_orbit_spec(f).tau
    hits = 0
    for b1 in f.nonzero():
        count, roots = roots_of_lacunary(f, "shifted", b1=b1, tau=tau)
        if f.norm(f.mul(b1, tau)) == 1:
            assert count == q - 1
            hits += 1
        else:
            assert count == 0
        assert all(r != 0 for r in roots)
    assert hits == q + 1  # norm-1 coefficients come from one fiber of the norm


def test_lacunary_degenerate_forms_rejected():
    f = field_for_q(3)
    tau = canonical_orbit_spec(f).tau
    with pytest.raises(ValueError):
        roots_of_lacunary(f, "shifted", b1=0, tau=tau)
    with pytest.raises(ValueError):
        roots_of_lacunary(f, "unknown", a=1, b=1)
    with pytest.raises(ValueError):
        roots_of_lacunary(f, "general", a=1)


@pytest.mark.parametrize("q", [7, 8, 9])
def test_min_weight_characterization_large_q(q):
    code = _code(q, 3)
    enum = weight_enumerator(code, "reduced")
    d = enum.min_distance
    msgs = min_weight_characterization(code)
    assert len(set(msgs)) == (q * q - 1) * (q - 1)
    assert all(encode(code, list(msg)).weight == d for msg in msgs)
    assert enum.count(d) == len(msgs)


def test_min_weight_characterization_fails_at_q5():
    code = _code(5, 3)
    enum = weight_enumerator(code, "exhaustive")
    msgs = min_weight_characterization(code)
    assert len(msgs) == 96
    assert all(encode(code, list(msg)).weight == 18 for msg in msgs)
    assert enum.count(18) == 672  # 576 minimum-weight words beyond the characterized ones


def test_characterization_needs_m3():
    with pytest.raises(ValueError):
        min_weight_characterization(_code(4, 2))


def test_weight_enumerator_to_dict():
    enum = weight_enumerator(_code(3, 2), "exhaustive")
    payload = enum.to_dict()
    assert payload["q"] == 3 and payload["m"] == 2
    assert payload["n"] == 8 and payload["k"] == 2
    assert payload["counts"] == {"0": 1, "6": 32, "8": 48}
    assert payload["method"] == "exhaustive"
    assert "elapsed_ms" in payload


def test_cached_enumerator_cannot_be_edited():
    enum = weight_enumerator(_code(3, 2), "exhaustive")
    with pytest.raises(TypeError):
        enum.counts[6] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        enum.method = "x"
    again = weight_enumerator(_code(3, 2), "exhaustive")
    assert dict(again.counts) == {0: 1, 6: 32, 8: 48}
    assert again.method == "exhaustive"
