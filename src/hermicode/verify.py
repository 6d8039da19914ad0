"""One check per quantitative claim about the codes, each returning a
structured report comparing the closed-form value against enumeration;
``run_suite`` alone decides which claims apply to a given (q, m).

Statuses, every one decided in ``_judge``, the weight of the distance
witness included; the one exception is ``orbit-choice.enumerators``,
whose hard-coded ``pass`` is pinned in ``perfbench/ref/suite.json``:

* ``pass`` / ``fail``   -- expected equals observed, or not.
* ``paper-inconsistent`` -- the mismatch is a documented exception (the
  q = 5 minimum-weight count 672 and second weight 19, the q = 7
  second-weight count 4992); the exceptional value itself is asserted
  by its own ``exception.*`` claim.
* ``skipped(hypothesis)`` -- the claim's stated range excludes this q;
  the observation is still recorded in the detail.

Exhaustive enumeration, of every message up to a nonzero scalar with
one box per leading coordinate, is the arbiter throughout.  The policy
lives in ``weight_enumerator(code, "auto")``, which every claim reads:
wherever the message space is at most ``weights.CROSS_CHECK_LIMIT`` the
reduced enumerator is never trusted alone, and the exhaustive one must
agree exactly before any claim is judged.  That agreement checks the
reduced route's shift normalisation (g rows at each line's second
nonzero coordinate, weight (Q - 1)^2 / g) and its coordinate order, not
the kernel or the monomial rows that both routes share; those have their
own oracle tests.
Equality across orbit choices is settled by ``build_code``, which
proves every orbit's code equal to the one monomial code enumerated.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import agcode, weights
from .curve import HermitianCurve, all_orbit_specs, on_c_tau, orbit_of
from .gf import field_for_q
from .weights import weight_enumerator

SUITE_QS = (3, 4, 5, 7, 8)

# (q, m) pairs whose full weight enumerator is computed in the suite.
ENUMERABLE = {(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (8, 2), (8, 3)}


@dataclass
class ClaimReport:
    claim_id: str
    params: dict
    expected: object
    observed: object
    status: str
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _judge(claim_id: str, params: dict, expected, observed, detail: str = "", *,
           stated: bool = True, exception: str | None = None) -> ClaimReport:
    """Skipped outside the claim's stated range, else pass or fail; a failure
    given the detail of its documented ``exception`` is paper-inconsistent."""
    if not stated:
        status = "skipped(hypothesis)"
    elif expected == observed:
        status = "pass"
    elif exception is not None:
        status, detail = "paper-inconsistent", exception
    else:
        status = "fail"
    return ClaimReport(claim_id, params, expected, observed, status, detail)


@lru_cache(maxsize=None)
def code_for(q: int, m: int) -> agcode.LinearCode:
    return agcode.build_code(field_for_q(q), m)


def checked_enumerator(code: agcode.LinearCode, jobs: int = 1) -> weights.WeightEnumerator:
    """The cross-checked enumerator of ``weight_enumerator(code, "auto")``."""
    return weight_enumerator(code, "auto", jobs)


# -- orbit containment ----------------------------------------------------


def check_orbit_containment(q: int) -> ClaimReport:
    """Every point of every stabilizer orbit lies on the Hermitian curve
    and on the companion curve for that orbit's tau."""
    fld = field_for_q(q)
    curve = HermitianCurve(fld)
    specs = all_orbit_specs(fld)
    points = [(spec.tau, point) for spec in specs for point in orbit_of(spec)]
    violations = sum(not (curve.membership(point) and on_c_tau(fld, tau, point))
                     for tau, point in points)
    detail = f"{len(specs)} orbits x {fld.order - 1} points, {len(points)} points checked"
    return _judge(
        f"orbit.on-both-curves.q{q}", {"q": q},
        {"points_off_either_curve": 0},
        {"points_off_either_curve": violations},
        detail,
    )


# -- code parameters -------------------------------------------------------


def check_code_parameters(q: int, m: int) -> ClaimReport:
    code = code_for(q, m)
    expected = {"n": q * q - 1, "k": m * (m - 1) // 2 + 1, "cyclic": True}
    observed = {"n": code.n, "k": code.k, "cyclic": agcode.check_cyclic(code)}
    return _judge(f"code.params.q{q}.m{m}", {"q": q, "m": m}, expected, observed)


# -- distance bounds -------------------------------------------------------


def check_distance_bounds(q: int, m: int, jobs: int = 1) -> ClaimReport:
    """The enumerated minimum distance sits inside the proven window,
    the witness codeword attains the upper end, and the improvement on
    the designed distance is at least q + 1 - m."""
    code = code_for(q, m)
    enum = checked_enumerator(code, jobs)
    d = enum.min_distance
    lower = q * q - q * (m - 1)
    upper = q * q - 1 - (m - 2) * (q + 1)
    designed = code.n - m * (q - 1)
    _, word = weights.upper_bound_witness(code)
    expected = {"within_bounds": True, "witness_weight": upper, "improvement_ok": True}
    observed = {
        "within_bounds": lower <= d <= upper,
        "witness_weight": word.weight,
        "improvement_ok": d - designed >= q + 1 - m,
    }
    detail = f"d={d}, bounds=[{lower},{upper}], designed={designed}, method={enum.method}"
    return _judge(f"distance.bounds.q{q}.m{m}", {"q": q, "m": m}, expected, observed, detail)


# -- the two-weight codes (m = 2) -----------------------------------------


def check_two_weight(q: int, jobs: int = 1) -> ClaimReport:
    code = code_for(q, 2)
    enum = checked_enumerator(code, jobs)
    n2 = q * q - 1
    expected = {
        "weights": {q * q - q: n2 * (q + 1), n2: q * (q - 1) * n2},
        "cyclic": True,
    }
    observed = {
        "weights": {w: enum.count(w) for w in enum.nonzero_weights()},
        "cyclic": agcode.check_cyclic(code),
    }
    return _judge(f"two-weight.distribution.q{q}", {"q": q, "m": 2}, expected, observed,
                  f"method={enum.method}")


# -- the m = 3 codes -------------------------------------------------------

_Q5_MIN_COUNT = 672
_Q5_SECOND_WEIGHT = 19
_Q7_SECOND_COUNT = 4992


def cubic_facts(enum: weights.WeightEnumerator) -> dict:
    """The m = 3 facts that the claims judge and ``report`` tabulates.
    Every supported m = 3 code has 6 to 9 distinct nonzero weights."""
    nz = enum.nonzero_weights()
    return {"d": nz[0], "min_count": enum.count(nz[0]), "second_weight": nz[1],
            "second_count": enum.count(nz[1]), "third_weight": nz[2],
            "distinct_nonzero_weights": len(nz)}


def check_cubic_weights(q: int, jobs: int = 1) -> list[ClaimReport]:
    """Weight-distribution facts of the m = 3 code: distance, counts at
    the two lowest weights, the third-weight bound, the bound on the
    number of distinct weights, and the documented q = 5 / q = 7
    exceptional values."""
    params = {"q": q, "m": 3}
    enum = checked_enumerator(code_for(q, 3), jobs)
    facts = cubic_facts(enum)
    n2 = q * q - 1
    second, third = facts["second_weight"], facts["third_weight"]
    min_count, second_count = facts["min_count"], facts["second_count"]
    claims = [
        _judge(f"m3.distance.q{q}", params, q * q - q - 2, facts["d"], f"method={enum.method}")
    ]

    claims.append(_judge(
        f"m3.min-count.q{q}", params, (q - 1) * n2, min_count,
        exception="documented exception: 672 observed against the formula value 96"
        if (q, min_count) == (5, _Q5_MIN_COUNT) else None))

    claims.append(_judge(f"m3.second-weight.q{q}", params, q * q - q, second,
                         "" if q >= 7 else f"stated for q >= 7 only; observed {second}",
                         stated=q >= 7))
    if q == 5:
        claims.append(_judge(f"m3.exception.q5.second-weight", params,
                             _Q5_SECOND_WEIGHT, second,
                             "documented exceptional second weight"))
        claims.append(_judge(f"m3.exception.q5.min-count", params,
                             _Q5_MIN_COUNT, min_count,
                             "documented exceptional minimum-weight count (672 > 96)"))

    claims.append(_judge(
        f"m3.second-count.q{q}", params, (q + 1) * n2, second_count,
        "" if q >= 8 else f"stated for q >= 8 only; observed {second_count}",
        stated=q >= 8))
    if q == 7:
        claims.append(_judge(f"m3.exception.q7.second-count", params,
                             _Q7_SECOND_COUNT, second_count,
                             "documented exceptional second-weight count (4992 > 384); "
                             f"the minimum-weight count itself is {min_count}"))

    claims.append(_judge(
        f"m3.third-weight.q{q}", params, {"third_ge_bound": True},
        {"third_ge_bound": third >= q * q - 7},
        f"third weight observed {third}, bound {q * q - 7}; equality not asserted" if q >= 8
        else f"stated for q >= 8 only; observed third weight {third}",
        stated=q >= 8))

    distinct = facts["distinct_nonzero_weights"]
    claims.append(_judge(
        f"m3.weight-variety.q{q}", params, {"at_most_nine_distinct": True},
        {"at_most_nine_distinct": distinct <= 9},
        f"{distinct} distinct nonzero weights; read as a bound on distinct weights"))
    return claims


# -- minimum-weight characterization (m = 3) -------------------------------


def check_min_weight_characterization(q: int, jobs: int = 1) -> ClaimReport:
    """The minimum-weight codewords of the m = 3 code are exactly the
    evaluations of y(b0 + b2 y)/x^3 with b2 != 0 and b0/(tau b2) a
    nonzero subfield element: every characterized word has minimum
    weight, they are pairwise distinct, and their number (q^2-1)(q-1)
    exhausts the enumerated count.  Stated for q > 5; fails at q = 5
    where 672 > 96, which is the documented exception."""
    params = {"q": q, "m": 3}
    code = code_for(q, 3)
    facts = cubic_facts(checked_enumerator(code, jobs))
    d, observed_count = facts["d"], facts["min_count"]
    msgs = weights.min_weight_characterization(code)
    formula = (q * q - 1) * (q - 1)
    fld, words = code.field, 0  # every characterized word, folded over the curve-built rows
    for coefs, row in zip(np.array(msgs).T, code.gen):
        words = fld.add_table[words, fld.mul_table[coefs[:, None], row]]
    all_min = bool((np.count_nonzero(words, axis=1) == d).all())
    distinct = len(set(msgs))
    expected = {"size": formula, "all_min_weight": True, "count_at_min": formula}
    observed = {"size": distinct, "all_min_weight": all_min, "count_at_min": observed_count}
    detail = f"d={d}, characterized={distinct}, enumerated={observed_count}"
    return _judge(f"min-weight.characterization.q{q}", params, expected, observed, detail,
                  exception=detail + "; documented exception at q=5 (672 > 96)"
                  if (q, observed_count) == (5, _Q5_MIN_COUNT) else None)


# -- orbit-choice observation ----------------------------------------------


def check_orbit_choice_enumerators(q: int) -> ClaimReport:
    """Record that the weight enumerators of every stabilizer orbit's
    code coincide.  The verdict rests on ``build_code``, which raises
    unless the orbit's generator is the monomial code of E; equal codes
    have equal enumerators, so nothing is enumerated here."""
    fld = field_for_q(q)
    specs = all_orbit_specs(fld)
    for m in range(2, q):
        for spec in specs:
            agcode.build_code(fld, m, spec)
    verdict = {f"m={m}": "identical" for m in range(2, q)}
    detail = (f"{len(specs)} orbit choices per m; equality recorded as an observation, "
              "not asserted")
    return ClaimReport(f"orbit-choice.enumerators.q{q}", {"q": q},
                       {"recorded": True}, {"recorded": True, **verdict}, "pass", detail)


# -- suite ------------------------------------------------------------------


def run_suite(qs=SUITE_QS, jobs: int = 1, m: int | None = None) -> list[ClaimReport]:
    """The claims of every q in ``qs``; with ``m`` given, those that touch m."""
    claims: list[ClaimReport] = []
    for q in qs:
        ms = range(2, q) if m is None else (m,)
        claims.append(check_orbit_containment(q))
        for mm in ms:
            claims.append(check_code_parameters(q, mm))
            if (q, mm) in ENUMERABLE:
                claims.append(check_distance_bounds(q, mm, jobs=jobs))
        if 2 in ms:
            claims.append(check_two_weight(q, jobs=jobs))
        if 3 in ms:
            claims.extend(check_cubic_weights(q, jobs=jobs))
            if q >= 5:
                claims.append(check_min_weight_characterization(q, jobs=jobs))
        if m is None and q in (3, 4):
            claims.append(check_orbit_choice_enumerators(q))
    return claims


def checks_for(q: int, m: int | None, jobs: int = 1) -> list[ClaimReport]:
    """The claims touching one (q, m); with m omitted, everything for q."""
    return run_suite((q,), jobs=jobs, m=m)


def exit_status(claims: list[ClaimReport]) -> int:
    return 1 if any(c.status == "fail" for c in claims) else 0


def claims_to_json(claims: list[ClaimReport]) -> str:
    return json.dumps([c.to_dict() for c in claims], sort_keys=True, separators=(",", ":")) + "\n"
