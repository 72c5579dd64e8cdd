"""Parameter tuples, derivation, self-consistency, the frozen catalog counts."""

import json
import random

import numpy as np
import pytest

import oracles
from mhg_twist import (
    INFINITY,
    BudgetError,
    InvalidInputError,
    InvalidStateError,
    ParameterTuple,
    TriangleSet,
    all_triples,
    contains_geodesics,
    derive_parameters,
    enumerate_candidates,
    image_set,
    is_metric,
    is_self_consistent,
    named_twists,
    realized_set,
    table1_rows,
)
from mhg_twist.permutations import NAMED_TWISTS

# delta -> number of self-consistent tuples, pinned by the first full sweep
SELF_CONSISTENT_COUNTS = {3: 13, 4: 42, 5: 78, 6: 171, 7: 284, 8: 486}

# Tuples whose realized set derives back cleanly but which fail closure
# under the four relabelings.  Entries: (delta, k1, k2, c0, c1, rejecting
# twist).  k1 None stands for infinity.  Frozen from the sweep that fixed
# the admission filter; these must never re-enter enumerate_candidates.
CLOSURE_REJECTS = [
    (3, 1, 1, 10, 7, "tau1"),
    (3, 1, 2, 10, 7, "tau0"),
    (3, 2, 2, 10, 7, "tau0"),
    (3, 3, 3, 10, 9, "rho-inv"),
    (4, 3, 3, 12, 11, "tau1"),
    (4, 3, 3, 14, 11, "tau1"),
    (4, 4, 4, 12, 11, "rho-inv"),
    (4, 4, 4, 12, 13, "rho-inv"),
    (5, 1, 1, 14, 11, "tau1"),
    (5, 3, 3, 14, 11, "tau1"),
    (5, 3, 3, 14, 17, "tau1"),
    (5, 3, 4, 14, 11, "tau1"),
    (5, 4, 4, 14, 11, "tau1"),
    (5, 5, 5, 14, 13, "rho-inv"),
    (5, 5, 5, 14, 15, "rho-inv"),
    (5, 5, 5, 16, 15, "rho-inv"),
    (6, 4, 4, 16, 15, "tau1"),
    (6, 6, 6, 16, 15, "rho-inv"),
    (6, 6, 6, 16, 17, "rho-inv"),
    (6, 6, 6, 18, 17, "rho-inv"),
    (6, 6, 6, 18, 19, "rho-inv"),
    (7, 1, 1, 18, 15, "tau1"),
    (7, 4, 4, 18, 15, "tau1"),
    (7, 4, 4, 18, 23, "tau1"),
    (7, 7, 7, 18, 17, "rho-inv"),
    (7, 7, 7, 18, 19, "rho-inv"),
    (7, 7, 7, 20, 19, "rho-inv"),
    (7, 7, 7, 20, 21, "rho-inv"),
    (7, 7, 7, 22, 21, "rho-inv"),
    (8, 5, 5, 20, 19, "tau1"),
    (8, 8, 8, 20, 19, "rho-inv"),
    (8, 8, 8, 20, 21, "rho-inv"),
    (8, 8, 8, 22, 21, "rho-inv"),
    (8, 8, 8, 22, 23, "rho-inv"),
    (8, 8, 8, 24, 23, "rho-inv"),
    (8, 8, 8, 24, 25, "rho-inv"),
]


def make(delta, k1, k2, c0, c1):
    return ParameterTuple(delta, INFINITY if k1 is None else k1, k2, c0, c1)


# ---------------------------------------------------------------------------
# tuple construction and views


def test_constructor_validates_parity():
    with pytest.raises(InvalidInputError):
        ParameterTuple(3, 1, 2, 9, 11)  # c0 must be even
    with pytest.raises(InvalidInputError):
        ParameterTuple(3, 1, 2, 10, 12)  # c1 must be odd


def test_constructor_validates_ranges():
    with pytest.raises(InvalidInputError):
        ParameterTuple(3, 2, 1, 10, 11)  # k1 > k2
    with pytest.raises(InvalidInputError):
        ParameterTuple(3, 0, 2, 10, 11)
    with pytest.raises(InvalidInputError):
        ParameterTuple(3, 1, 4, 10, 11)  # k2 > delta


@pytest.mark.parametrize("fields", [
    (True, 1, 1, 4, 3),  # delta=True used to pass as a diameter of 1
    (3, True, 2, 10, 11),
    (3, 1.0, 2, 10, 11),
    (3, 1.5, 2, 10, 11),
    (3, 1, True, 10, 11),
    (3, 1, 2.0, 10, 11),
    (3, 1, 2, 10.0, 11),
    (3, "1", 2, 10, 11),
])
def test_constructor_refuses_fields_that_are_not_integers(fields):
    with pytest.raises(InvalidInputError):
        ParameterTuple(*fields)


@pytest.mark.parametrize("field, value", [
    ("delta", "true"), ("k1", "true"), ("k1", "1.0"), ("k2", "true"), ("c0", "10.0"),
])
def test_from_json_refuses_values_that_are_not_integers(field, value):
    data = {"delta": "3", "k1": "1", "k2": "2", "c0": "10", "c1": "11", field: value}
    text = "{" + ", ".join(f'"{k}": {v}' for k, v in data.items()) + "}"
    with pytest.raises(InvalidInputError):
        ParameterTuple.from_json(text)


def test_fields_take_numpy_integers_and_k1_inf():
    p = ParameterTuple(*map(np.int64, (3, 1, 2, 10, 11)))
    assert p == ParameterTuple(3, 1, 2, 10, 11)
    assert all(type(x) is int for x in (p.delta, p.k1, p.k2, p.c0, p.c1))
    assert ParameterTuple(4, INFINITY, 0, 10, np.int8(9)).bipartite


def test_bipartite_pairing_of_k1_k2():
    p = make(4, None, 0, 10, 9)
    assert p.bipartite
    with pytest.raises(InvalidInputError):
        ParameterTuple(4, INFINITY, 2, 10, 9)  # k1 infinite forces k2 = 0
    with pytest.raises(InvalidInputError):
        ParameterTuple(4, 2, 0, 10, 9)  # and k2 = 0 forces k1 infinite


def test_from_c_values_routes_by_parity():
    a = ParameterTuple.from_c_values(3, 1, 2, 10, 11)
    b = ParameterTuple.from_c_values(3, 1, 2, 11, 10)
    assert a == b == ParameterTuple(3, 1, 2, 10, 11)
    with pytest.raises(InvalidInputError):
        ParameterTuple.from_c_values(3, 1, 2, 10, 12)  # same parity


def test_c_and_c_prime_are_min_and_max():
    p = ParameterTuple(3, 1, 2, 10, 7)
    assert (p.c, p.c_prime) == (7, 10)
    q = ParameterTuple(3, 1, 2, 8, 9)
    assert (q.c, q.c_prime) == (8, 9)


def test_csv_fields_and_k1_text():
    p = make(4, None, 0, 10, 9)
    assert p.k1_text() == "inf"
    assert p.csv_fields() == ("4", "inf", "0", "9", "10")
    q = ParameterTuple(3, 1, 2, 10, 11)
    assert q.csv_fields() == ("3", "1", "2", "10", "11")


def test_json_roundtrip_including_infinity():
    for p in (ParameterTuple(3, 1, 2, 10, 11), make(4, None, 0, 10, 9)):
        assert ParameterTuple.from_json(p.to_json()) == p
    blob = json.loads(make(4, None, 0, 10, 9).to_json())
    assert blob["k1"] is None or blob["k1"] == "inf"


def test_antipodal_predicate():
    assert ParameterTuple(3, 1, 2, 8, 7).antipodal()
    assert not ParameterTuple(3, 1, 2, 10, 7).antipodal()
    assert not make(4, None, 0, 10, 9).antipodal()


# ---------------------------------------------------------------------------
# realized sets and derivation vs the oracle


def tuples_to_probe(delta):
    return [
        ParameterTuple.from_c_values(delta, 1, delta, 2 * delta + 2, 2 * delta + 3),
        ParameterTuple.from_c_values(delta, delta, delta, 3 * delta + 1, 3 * delta + 2),
        ParameterTuple.from_c_values(delta, INFINITY, 0, 2 * delta + 1, 2 * delta + 4),
    ]


@pytest.mark.parametrize("delta", range(3, 9))
def test_realized_set_matches_oracle(delta):
    for p in tuples_to_probe(delta):
        k1 = None if p.k1 == INFINITY else p.k1
        want = oracles.realized(delta, k1, p.k2, p.c0, p.c1)
        got = set(realized_set(p).members())
        assert got == want, p


@pytest.mark.parametrize("delta", range(3, 9))
def test_derive_matches_oracle(delta):
    for p in enumerate_candidates(delta)[::5]:
        ts = realized_set(p)
        res = derive_parameters(ts)
        k1, k2, c0, c1 = oracles.derive(ts.members(), delta)
        assert res.k1 == (INFINITY if k1 is None else k1)
        assert res.k2 == k2
        assert res.c0 == c0
        assert res.c1 == c1
        assert res.matches(p)
        assert res.is_clean


@pytest.mark.parametrize("seed", range(8))
def test_derive_matches_oracle_on_random_metric_sets(seed):
    rng = random.Random(seed)
    delta = rng.randint(1, 10)
    subset = [t for t in all_triples(delta)
              if t[0] + t[1] >= t[2] and rng.random() < 0.5]
    res = derive_parameters(TriangleSet.from_triples(delta, subset))
    k1, k2, c0, c1 = oracles.derive(subset, delta)
    assert (res.k1, res.k2, res.c0, res.c1) == (
        INFINITY if k1 is None else k1, k2, c0, c1
    )
    assert all(type(x) is int for x in (res.k2, res.c0, res.c1))


def test_derive_anomalies_on_handmade_sets():
    # odd perimeter present with no (1,k,k) at all
    odd_no_k1 = TriangleSet.from_triples(3, [(1, 1, 2), (1, 2, 3), (2, 2, 3)])
    res = derive_parameters(odd_no_k1)
    assert "odd-without-k1" in res.anomalies
    # odd perimeter 9 realized above the missing 7
    gap = TriangleSet.from_triples(3, [(1, 1, 1), (3, 3, 3)])
    res = derive_parameters(gap)
    assert "perimeter-gap" in res.anomalies


def test_derive_rejects_non_metric_input():
    bad = TriangleSet.from_triples(3, [(1, 1, 3)])
    with pytest.raises(InvalidInputError):
        derive_parameters(bad)


def test_derivation_result_to_params_requires_clean():
    sparse = TriangleSet.from_triples(3, [(1, 1, 1), (2, 2, 2)])
    res = derive_parameters(sparse)
    assert not res.is_clean
    with pytest.raises(InvalidStateError):
        res.to_params()


# ---------------------------------------------------------------------------
# the catalog itself


@pytest.mark.parametrize("delta", sorted(SELF_CONSISTENT_COUNTS))
def test_self_consistent_counts_are_frozen(delta):
    assert len(enumerate_candidates(delta)) == SELF_CONSISTENT_COUNTS[delta]


@pytest.mark.parametrize("delta", sorted(SELF_CONSISTENT_COUNTS))
def test_enumeration_is_sorted_and_self_consistent(delta):
    cands = enumerate_candidates(delta)
    keys = [p.sort_key() for p in cands]
    assert keys == sorted(keys)
    assert all(is_self_consistent(p) for p in cands)


def test_enumeration_budget():
    with pytest.raises(BudgetError):
        enumerate_candidates(11)
    with pytest.raises(BudgetError):
        enumerate_candidates(2)


@pytest.mark.parametrize("row", CLOSURE_REJECTS, ids=lambda r: "d%d-%s-%s-%d-%d" % r[:5])
def test_closure_rejects(row):
    delta, k1, k2, c0, c1, reject = row
    p = make(delta, k1, k2, c0, c1)
    ts = realized_set(p)
    res = derive_parameters(ts)
    # passes the plain derivation round trip
    assert res.is_clean and res.matches(p)
    # but is not admitted
    assert not is_self_consistent(p)
    assert p not in enumerate_candidates(delta)
    # and the recorded relabeling is the one that exposes it
    twist = dict(named_twists(delta))[reject]
    img = image_set(ts, twist)
    assert is_metric(img)[0] and contains_geodesics(img)[0]
    back = derive_parameters(img)
    if back.is_clean:
        q = back.to_params()
        assert realized_set(q).members() != img.members()


@pytest.mark.parametrize("delta", range(3, 13))
def test_table1_rows_are_self_consistent(delta):
    rows = table1_rows(delta)
    assert rows
    for kind, p in rows:
        assert p.delta == delta
        assert is_self_consistent(p), (kind, p)


@pytest.mark.parametrize("delta", range(3, 13))
def test_table1_kinds_are_the_named_twists(delta):
    assert {kind for kind, _ in table1_rows(delta)} <= set(NAMED_TWISTS)


@pytest.mark.parametrize("delta", range(3, 9))
def test_table1_row_shapes(delta):
    d = delta
    rows = table1_rows(d)
    by_kind = {}
    for kind, p in rows:
        by_kind.setdefault(kind, []).append(p)
    assert by_kind["rho"] == [ParameterTuple(d, 1, d, 2 * d + 2, 2 * d + 3)]
    ri = ParameterTuple.from_c_values(d, d, d, 3 * d + 1, 3 * d + 2)
    assert by_kind["rho-inv"] == [ri]
    for eps, kind in ((0, "tau0"), (1, "tau1")):
        generic = ParameterTuple.from_c_values(
            d, (d + eps) // 2, (d + eps + 1) // 2,
            2 * (d + eps) + 1, 2 * (d + eps) + 2,
        )
        assert generic in by_kind[kind]
        if (d - eps) % 2 == 0:
            bip = ParameterTuple.from_c_values(
                d, INFINITY, 0, 2 * d + 1, 2 * (d + eps) + 2
            )
            assert bip in by_kind[kind]


def test_table1_exceptional_rows():
    three = [p for k, p in table1_rows(3) if k == "tau1"]
    assert len(three) == 5
    expected = {
        ParameterTuple.from_c_values(3, 1, 2, 9, 10),
        ParameterTuple.from_c_values(3, 1, 2, 10, 11),
        ParameterTuple.from_c_values(3, 2, 2, 9, 10),
        ParameterTuple.from_c_values(3, 2, 2, 10, 11),
        ParameterTuple.from_c_values(3, INFINITY, 0, 7, 10),
    }
    assert set(three) == expected
    four = [p for k, p in table1_rows(4) if k == "tau1"]
    assert set(four) == {
        ParameterTuple.from_c_values(4, 1, 3, 11, 12),
        ParameterTuple.from_c_values(4, 1, 3, 11, 14),
        ParameterTuple.from_c_values(4, 2, 3, 11, 12),
        ParameterTuple.from_c_values(4, 2, 3, 11, 14),
    }


@pytest.mark.parametrize("delta", range(3, 9))
def test_table1_rows_appear_in_enumeration(delta):
    cands = set(enumerate_candidates(delta))
    for kind, p in table1_rows(delta):
        assert p in cands, (kind, p)
