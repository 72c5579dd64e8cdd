"""check_twistable: verdicts, witnesses, image parameters, inversion symmetry."""

import json

import pytest

import oracles
from mhg_twist import (
    INFINITY,
    OUTCOME_METRIC_VIOLATION,
    OUTCOME_MISSING_GEODESIC,
    OUTCOME_TWISTABLE,
    InvalidInputError,
    InvalidStateError,
    ParameterTuple,
    check_twistable,
    classification_rows,
    contains_geodesics,
    enumerate_candidates,
    identity,
    image_set,
    is_metric,
    is_self_consistent,
    named_twists,
    parse_cycles,
    realized_set,
    rho,
    tau,
)


def test_tau1_on_the_exceptional_tuple():
    p = ParameterTuple.from_c_values(3, 1, 2, 10, 11)
    v = check_twistable(p, tau(3, 1))
    assert v.outcome == OUTCOME_TWISTABLE
    assert v.twistable
    assert v.witness_text() == ""
    assert v.image_params is not None


def test_metric_violation_names_the_triple():
    p = ParameterTuple.from_c_values(3, 1, 3, 10, 11)
    v = check_twistable(p, tau(3, 1))
    assert v.outcome == OUTCOME_METRIC_VIOLATION
    assert not v.twistable
    assert v.witness_triple == (1, 1, 3)
    assert v.witness_text() == "(1,1,3)"
    assert v.image_params is None


def test_missing_geodesic_names_the_k():
    p = ParameterTuple.from_c_values(3, 1, 2, 7, 8)
    v = check_twistable(p, rho(3))
    assert v.outcome == OUTCOME_MISSING_GEODESIC
    assert v.witness_distance == 1
    assert v.witness_text() == "k=1"


def test_identity_is_always_twistable():
    for delta in range(3, 9):
        for p in enumerate_candidates(delta)[::7]:
            v = check_twistable(p, identity(delta))
            assert v.outcome == OUTCOME_TWISTABLE
            assert v.image_params == p


def test_bipartite_tau_of_matching_parity():
    p = ParameterTuple.from_c_values(4, INFINITY, 0, 9, 10)
    v = check_twistable(p, tau(4, 0))
    assert v.outcome == OUTCOME_TWISTABLE
    assert v.image_params == p


def test_bipartite_tau_of_wrong_parity_fails():
    # swapping an odd distance into the even-only alphabet cannot stay metric
    for delta in range(3, 9):
        eps_bad = (delta + 1) % 2
        bip = next(
            p for p in enumerate_candidates(delta) if p.bipartite
        )
        v = check_twistable(bip, tau(delta, eps_bad))
        assert v.outcome != OUTCOME_TWISTABLE


def test_exceptional_image_parameters():
    p = ParameterTuple.from_c_values(3, 2, 2, 10, 11)
    v = check_twistable(p, tau(3, 1))
    assert v.outcome == OUTCOME_TWISTABLE
    assert v.image_params == ParameterTuple.from_c_values(3, 1, 2, 9, 10)


def test_verdict_json_shape():
    p = ParameterTuple.from_c_values(3, 1, 2, 10, 11)
    blob = json.loads(check_twistable(p, tau(3, 1)).to_json())
    assert blob["outcome"] == "TWISTABLE"
    assert blob["witness"] is None
    assert blob["image_params"]["delta"] == 3
    bad = json.loads(check_twistable(ParameterTuple.from_c_values(3, 1, 3, 10, 11), tau(3, 1)).to_json())
    assert bad["outcome"] == "METRIC_VIOLATION"
    assert bad["witness"] == [1, 1, 3]


def test_check_twistable_requires_self_consistent_input():
    stray = ParameterTuple.from_c_values(3, 3, 3, 10, 9)
    assert not is_self_consistent(stray)
    with pytest.raises(InvalidInputError):
        check_twistable(stray, rho(3))


@pytest.mark.parametrize("bad_image", ["anomalous", "inconsistent"])
def test_check_twistable_raises_on_a_broken_image_invariant(monkeypatch, bad_image):
    # the invariant checks must survive python -O, so they raise, not assert
    import mhg_twist.twistability as tw
    from mhg_twist.parameter_space import ANOMALY_PERIMETER_GAP, DerivationResult

    p = ParameterTuple.from_c_values(3, 1, 2, 10, 11)
    assert check_twistable(p, tau(3, 1)).outcome == OUTCOME_TWISTABLE
    if bad_image == "anomalous":
        derived = DerivationResult(3, 1, 2, 10, 11, 3, (ANOMALY_PERIMETER_GAP,))
    else:
        stray = ParameterTuple.from_c_values(3, 3, 3, 10, 9)
        assert not is_self_consistent(stray)
        derived = DerivationResult(3, stray.k1, stray.k2, stray.c0, stray.c1, 3, ())
    monkeypatch.setattr(tw, "derive_parameters", lambda _image: derived)
    with pytest.raises(InvalidStateError):
        check_twistable(p, tau(3, 1))


def _oracle_params(p):
    return (None if p.bipartite else p.k1, p.k2, p.c0, p.c1)


@pytest.mark.parametrize("delta", range(3, 11))
def test_verdicts_match_plain_loop_oracle(delta):
    # every named twist and the identity against every candidate, through
    # both check_twistable and the CSV rows
    candidates = enumerate_candidates(delta)
    named = list(dict.fromkeys(t for _, t in named_twists(delta)))
    want = {}
    for p in candidates:
        triples = oracles.realized(delta, *_oracle_params(p))
        for t in named + [identity(delta)]:
            outcome, witness = oracles.twist_verdict(triples, delta, t.images)
            want[t, p] = outcome, witness
            v = check_twistable(p, t)
            assert v.outcome == outcome, (p, t)
            if outcome == OUTCOME_METRIC_VIOLATION:
                assert v.witness_triple == witness
            elif outcome == OUTCOME_MISSING_GEODESIC:
                assert v.witness_distance == witness
            else:
                assert _oracle_params(v.image_params) == witness
    rows = classification_rows(delta, families={})
    assert len(rows) == len(named) * len(candidates)
    seen = set()
    for row in rows:
        t = parse_cycles(row["sigma"], delta)
        k1 = INFINITY if row["K1"] == "inf" else int(row["K1"])
        p = ParameterTuple.from_c_values(
            delta, k1, int(row["K2"]), int(row["C"]), int(row["Cprime"])
        )
        seen.add((t, p))
        outcome, witness = want[t, p]
        assert row["verdict"] == outcome
        if outcome == OUTCOME_METRIC_VIOLATION:
            assert row["witness"] == "(" + ",".join(map(str, witness)) + ")"
        elif outcome == OUTCOME_MISSING_GEODESIC:
            assert row["witness"] == f"k={witness}"
        else:
            assert row["witness"] == ""
    assert seen == {(t, p) for t in named for p in candidates}


@pytest.mark.parametrize("delta", range(3, 9))
def test_inversion_symmetry(delta):
    # sigma twistable on p exactly when sigma^-1 is twistable on the image
    for p in enumerate_candidates(delta):
        for name, t in named_twists(delta):
            v = check_twistable(p, t)
            if v.outcome != OUTCOME_TWISTABLE:
                continue
            q = v.image_params
            back = check_twistable(q, t.inverse())
            assert back.outcome == OUTCOME_TWISTABLE
            assert back.image_params == p


@pytest.mark.parametrize("delta", range(3, 9))
def test_verdict_agrees_with_raw_scans(delta):
    # outcome must be exactly what the image set says
    for p in enumerate_candidates(delta)[::3]:
        ts = realized_set(p)
        for name, t in named_twists(delta):
            v = check_twistable(p, t)
            img = image_set(ts, t)
            metric_ok, bad = is_metric(img)
            geo_ok, hole = contains_geodesics(img)
            if v.outcome == OUTCOME_METRIC_VIOLATION:
                assert not metric_ok
                assert v.witness_triple == bad
            elif v.outcome == OUTCOME_MISSING_GEODESIC:
                assert metric_ok and not geo_ok
                assert v.witness_distance == hole
            else:
                assert metric_ok and geo_ok
                assert realized_set(v.image_params).members() == img.members()
