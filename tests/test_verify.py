"""Claim checks: statuses at known parameters, the perturbation fixture,
and report plumbing."""

import json

import numpy as np
import pytest

from hermicode import agcode, cli, verify, weights
from hermicode.gf import SUPPORTED_Q, field_for_q
from hermicode.curve import all_orbit_specs, orbit_of


def _by_id(claims):
    return {c.claim_id: c for c in claims}


@pytest.mark.parametrize("q", [3, 4])
def test_orbit_containment_passes(q):
    rep = verify.check_orbit_containment(q)
    assert rep.status == "pass"
    assert rep.observed == {"points_off_either_curve": 0}


def _perturb_tau(monkeypatch):
    """Test every orbit against the companion curve of tau * omega."""
    real = verify.on_c_tau
    monkeypatch.setattr(verify, "on_c_tau",
                        lambda f, tau, point: real(f, f.mul(tau, f.omega), point))


def test_orbit_containment_perturbed_tau_fails(monkeypatch):
    _perturb_tau(monkeypatch)
    rep = verify.check_orbit_containment(3)
    assert rep.status == "fail"
    assert rep.observed["points_off_either_curve"] > 0


@pytest.mark.parametrize("q,m", [(3, 2), (5, 3), (8, 5)])
def test_code_parameters(q, m):
    rep = verify.check_code_parameters(q, m)
    assert rep.status == "pass"
    assert rep.observed["k"] == m * (m - 1) // 2 + 1


@pytest.mark.parametrize("q,m,d", [(3, 2, 6), (5, 3, 18), (5, 4, 12)])
def test_distance_bounds(q, m, d):
    rep = verify.check_distance_bounds(q, m)
    assert rep.status == "pass"
    assert f"d={d}" in rep.detail


def _zero_first_symbol(monkeypatch):
    """Make ``weights.encode`` drop one nonzero symbol of every word."""
    real = weights.encode

    def lighter(code, msg):
        symbols = list(real(code, msg).symbols)
        symbols[next(i for i, s in enumerate(symbols) if s)] = 0
        return agcode.Codeword(tuple(symbols))

    monkeypatch.setattr(weights, "encode", lighter)


def test_a_wrong_witness_fails_its_claim(monkeypatch):
    # upper_bound_witness returns whatever word it gets; the claim judges it.
    _zero_first_symbol(monkeypatch)
    rep = verify.check_distance_bounds(5, 3)
    assert rep.status == "fail"
    assert rep.expected["witness_weight"] == 18
    assert rep.observed["witness_weight"] == 17


def test_a_wrong_witness_exits_1_with_its_json(monkeypatch, capsys):
    _zero_first_symbol(monkeypatch)
    assert cli.main(["verify", "--q", "5", "--m", "3"]) == 1
    out, err = capsys.readouterr()
    failed = [c for c in json.loads(out) if c["status"] == "fail"]
    assert err == "" and [c["claim_id"] for c in failed] == ["distance.bounds.q5.m3"]
    assert failed[0]["observed"]["witness_weight"] == 17


@pytest.mark.parametrize("q", [3, 4, 5])
def test_two_weight(q):
    rep = verify.check_two_weight(q)
    assert rep.status == "pass"


@pytest.mark.parametrize("q,distinct", [(4, 6), (5, 7), (7, 8), (8, 8), (9, 9)])
def test_cubic_facts(q, distinct):
    enum = verify.checked_enumerator(verify.code_for(q, 3))
    nz = enum.nonzero_weights()
    assert verify.cubic_facts(enum) == {
        "d": q * q - q - 2, "min_count": enum.count(nz[0]),
        "second_weight": nz[1], "second_count": enum.count(nz[1]),
        "third_weight": nz[2], "distinct_nonzero_weights": distinct,
    }


def test_cubic_claims_q5_exceptions():
    claims = _by_id(verify.check_cubic_weights(5))
    assert claims["m3.distance.q5"].status == "pass"
    assert claims["m3.min-count.q5"].status == "paper-inconsistent"
    assert claims["m3.min-count.q5"].observed == 672
    assert claims["m3.exception.q5.min-count"].status == "pass"
    assert claims["m3.exception.q5.second-weight"].status == "pass"
    assert claims["m3.exception.q5.second-weight"].observed == 19
    assert claims["m3.second-weight.q5"].status == "skipped(hypothesis)"
    assert claims["m3.weight-variety.q5"].status == "pass"
    # Below q = 8 the third-weight claim is skipped even where its bound holds.
    assert claims["m3.third-weight.q5"].observed == {"third_ge_bound": True}
    assert claims["m3.third-weight.q5"].status == "skipped(hypothesis)"


def test_cubic_claims_q7():
    claims = _by_id(verify.check_cubic_weights(7))
    assert claims["m3.distance.q7"].status == "pass"
    assert claims["m3.min-count.q7"].status == "pass"
    assert claims["m3.min-count.q7"].observed == 288
    assert claims["m3.second-weight.q7"].status == "pass"
    assert claims["m3.second-count.q7"].status == "skipped(hypothesis)"
    assert claims["m3.exception.q7.second-count"].status == "pass"
    assert claims["m3.exception.q7.second-count"].observed == 4992
    assert claims["m3.third-weight.q7"].observed == {"third_ge_bound": True}
    assert claims["m3.third-weight.q7"].status == "skipped(hypothesis)"


def test_cubic_claims_q8_all_pass():
    claims = verify.check_cubic_weights(8)
    statuses = {c.claim_id: c.status for c in claims}
    assert statuses == {
        "m3.distance.q8": "pass",
        "m3.min-count.q8": "pass",
        "m3.second-weight.q8": "pass",
        "m3.second-count.q8": "pass",
        "m3.third-weight.q8": "pass",
        "m3.weight-variety.q8": "pass",
    }


def test_characterization_statuses():
    assert verify.check_min_weight_characterization(8).status == "pass"
    rep5 = verify.check_min_weight_characterization(5)
    assert rep5.status == "paper-inconsistent"
    assert rep5.observed["count_at_min"] == 672


def test_paper_inconsistent_only_at_the_documented_value(monkeypatch):
    # The q = 5 count 672 is excused only because it is the documented
    # exception; against any other documented value the same count fails.
    monkeypatch.setattr(verify, "_Q5_MIN_COUNT", 673)
    claims = _by_id(verify.checks_for(5, 3))
    assert claims["m3.min-count.q5"].status == "fail"
    assert claims["min-weight.characterization.q5"].status == "fail"
    assert verify.exit_status(list(claims.values())) == 1


def test_orbit_choice_observation():
    rep = verify.check_orbit_choice_enumerators(3)
    assert rep.status == "pass"
    assert rep.observed["recorded"] is True
    assert "m=2" in rep.observed


def test_orbit_choice_claim_rests_on_build_code(monkeypatch):
    # Enumeration sees only (field, E), so a wrong orbit generator can
    # only be caught where build_code checks it against the monomial rows.
    tampered_spec = all_orbit_specs(field_for_q(3))[1]

    def tampered(spec):
        points = orbit_of(spec)
        if spec == tampered_spec:
            points[0], points[1] = points[1], points[0]
        return points

    monkeypatch.setattr(agcode, "orbit_of", tampered)
    with pytest.raises(RuntimeError, match="shift"):
        verify.check_orbit_choice_enumerators(3)


def test_cross_check_catches_a_tampered_reduced_route(monkeypatch):
    # (8, 2) has 4,096 messages, under weights.CROSS_CHECK_LIMIT, so both
    # routes run, in checked_enumerator and in weight_enumerator's auto
    # alike, and a reduced route that moves words between weights is caught.
    # One word moves down from the top weight and one up from the lowest
    # nonzero weight: the total and the first Pless moment, which
    # weight_enumerator checks on its own, stay, and at m = 2 the second
    # moment is not checked, so only the cross-check can see it.
    real = weights._route_counts

    def tampered(field, route, exponents, jobs):
        counts = real(field, route, exponents, jobs)
        if route == "reduced":
            low, top = np.flatnonzero(counts)[[1, -1]]
            counts[top] -= 1
            counts[top - 1] += 1
            counts[low] -= 1
            counts[low + 1] += 1
        return counts

    monkeypatch.setattr(weights, "_route_counts", tampered)
    for enumerate_checked in (verify.checked_enumerator, weights.weight_enumerator):
        monkeypatch.setattr(weights, "_ENUMERATORS", {})
        with pytest.raises(RuntimeError, match="enumerator mismatch at q=8, m=2"):
            enumerate_checked(verify.code_for(8, 2))


def test_exit_status(monkeypatch):
    passing = verify.check_code_parameters(3, 2)
    _perturb_tau(monkeypatch)  # wrong curve for every orbit
    failing = verify.check_orbit_containment(3)
    assert verify.exit_status([passing]) == 0
    assert verify.exit_status([passing, failing]) == 1
    inconsistent = verify.check_min_weight_characterization(5)
    assert verify.exit_status([passing, inconsistent]) == 0


def test_claims_json_round_trip():
    claims = verify.checks_for(3, 2)
    text = verify.claims_to_json(claims)
    parsed = json.loads(text)
    assert isinstance(parsed, list) and parsed
    assert {"claim_id", "params", "expected", "observed", "status", "detail"} <= set(parsed[0])
    # canonical: serializing again gives identical bytes
    assert verify.claims_to_json(claims) == text


def test_checks_for_single_pair():
    ids = [c.claim_id for c in verify.checks_for(4, 3)]
    assert "code.params.q4.m3" in ids
    assert "distance.bounds.q4.m3" in ids
    assert any(i.startswith("m3.distance") for i in ids)


def test_every_claim_at_q9_passes():
    # q = 9 is outside SUITE_QS, so no suite reference pins its claims.
    assert 9 not in verify.SUITE_QS
    claims = verify.checks_for(9, None)
    assert len(claims) == 16
    assert [c.claim_id for c in claims if c.status != "pass"] == []


@pytest.mark.parametrize("q", sorted(SUPPORTED_Q))
def test_checks_for_one_m_is_the_q_suite_restricted_to_m(q):
    every = [c for c in verify.checks_for(q, None)
             if not c.claim_id.startswith("orbit-choice.")]
    for m in range(2, q):
        ids = [c.claim_id for c in verify.checks_for(q, m)]
        assert ids == [c.claim_id for c in every if c.params.get("m", m) == m]
