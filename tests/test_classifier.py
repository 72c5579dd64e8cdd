"""Exhaustive sweep, theorem and table verification, cycle classification."""

import itertools
import json

import numpy as np
import pytest

import oracles
from mhg_twist import (
    OUTCOME_TWISTABLE,
    BudgetError,
    InvalidInputError,
    ParameterTuple,
    Twist,
    check_twistable,
    classification_rows,
    classify_cycle_twists,
    enumerate_candidates,
    find_twists,
    identity,
    mu,
    named_twists,
    rho,
    rho_inverse,
    table1_rows,
    tau,
    verify_table1,
    verify_theorem_twists,
)
from mhg_twist.classifier import _admissible_permutations
from mhg_twist.triangle_catalog import _tables

# delta -> family sizes for (rho, rho-inv, tau0, tau1), from the first sweep
FAMILY_SIZES = {
    3: (1, 1, 1, 5),
    4: (1, 1, 2, 4),
    5: (1, 1, 1, 2),
    6: (1, 1, 2, 1),
    7: (1, 1, 1, 2),
}

SWEEP_DELTAS = sorted(FAMILY_SIZES)


@pytest.fixture(scope="module")
def sweeps():
    return {d: find_twists(d) for d in SWEEP_DELTAS}


def test_keys_are_exactly_the_four_formulas(sweeps):
    for d in SWEEP_DELTAS:
        want = {t for _, t in named_twists(d)}
        assert set(sweeps[d]) == want, d


def test_family_sizes_are_frozen(sweeps):
    for d, (n_rho, n_rho_inv, n_tau0, n_tau1) in FAMILY_SIZES.items():
        fams = sweeps[d]
        assert len(fams[rho(d)]) == n_rho
        assert len(fams[rho_inverse(d)]) == n_rho_inv
        assert len(fams[tau(d, 0)]) == n_tau0
        assert len(fams[tau(d, 1)]) == n_tau1


def test_families_contain_sorted_self_consistent_tuples(sweeps):
    for d in SWEEP_DELTAS:
        cands = set(enumerate_candidates(d))
        for t, fam in sweeps[d].items():
            keys = [p.sort_key() for p in fam]
            assert keys == sorted(keys)
            for p in fam:
                assert p in cands
                assert check_twistable(p, t).outcome == OUTCOME_TWISTABLE


def test_sweep_finds_every_twistable_pair(sweeps):
    # cross-check the grid against the scalar checker, delta small
    for d in (3, 4, 5):
        fams = sweeps[d]
        for name, t in named_twists(d):
            direct = [
                p for p in enumerate_candidates(d)
                if check_twistable(p, t).outcome == OUTCOME_TWISTABLE
            ]
            assert fams[t] == direct


def test_tau0_at_delta_5_is_1_4(sweeps):
    assert tau(5, 0).cycles() == "(1 4)"
    assert tau(5, 0) in sweeps[5]


@pytest.mark.parametrize("delta", range(3, 7))
def test_find_twists_matches_the_full_sweep_oracle(delta):
    # the oracle grades all delta! permutations with plain loops, so this
    # checks that the prefix cuts drop no twist; key order included
    cands = enumerate_candidates(delta)
    plain = [(None if p.bipartite else p.k1, p.k2, p.c0, p.c1) for p in cands]
    want = oracles.twist_families(delta, plain)
    got = find_twists(delta)
    assert list(want) == [t.images for t in got]
    for t, fam in got.items():
        assert fam == [cands[i] for i in want[t.images]]


@pytest.mark.parametrize("delta", range(3, 9))
def test_admissible_permutations_are_the_whole_set_survivors(delta):
    # both prefix cuts, applied to whole permutations of the full group
    tabs = _tables(delta)
    perms = np.array(list(itertools.permutations(range(1, delta + 1))))
    imgs = np.sort(perms[:, tabs.triples - 1], axis=2)
    ranks = tabs.rank3d[imgs[..., 0], imgs[..., 1], imgs[..., 2]]
    keep = tabs.metric[ranks[:, tabs.even_small_metric_ranks]].all(axis=1)
    keep &= tabs.metric[np.argsort(ranks, axis=1)[:, tabs.geodesic_ranks]].all(axis=1)
    want = [tuple(map(int, row)) for row in perms[keep]]
    assert list(_admissible_permutations(delta)) == want
    assert want[0] == tuple(range(1, delta + 1))


def test_find_twists_budget():
    with pytest.raises(BudgetError):
        find_twists(9)
    with pytest.raises(BudgetError):
        find_twists(2)


def test_theorem_report_passes(sweeps):
    for d in SWEEP_DELTAS:
        rep = verify_theorem_twists(d, families=sweeps[d])
        assert rep.passed
        assert rep.extra == ()
        assert rep.missing == ()
        assert rep.lines()[0] == "delta=%d twist keys: PASS" % d
        blob = json.loads(rep.to_json())
        assert blob["passed"] is True


def test_theorem_report_flags_extra_key(sweeps):
    fams = dict(sweeps[3])
    assert Twist((3, 1, 2)) == rho_inverse(3)  # (1 3 2), already a key
    stray = Twist((1, 3, 2))  # (2 3), not one of the four
    assert stray not in fams
    fams[stray] = [ParameterTuple.from_c_values(3, 1, 2, 10, 11)]
    rep = verify_theorem_twists(3, families=fams)
    assert not rep.passed
    assert stray in rep.extra
    assert "FAIL" in rep.lines()[0]


def test_theorem_report_flags_missing_key(sweeps):
    fams = dict(sweeps[3])
    del fams[tau(3, 0)]
    rep = verify_theorem_twists(3, families=fams)
    assert not rep.passed
    assert tau(3, 0) in rep.missing


def test_theorem_report_ignores_empty_families(sweeps):
    # a key with no tuples is not a twist finding
    fams = dict(sweeps[3])
    fams[Twist((3, 1, 2))] = []
    rep = verify_theorem_twists(3, families=fams)
    assert rep.passed


def test_table1_report_passes(sweeps):
    for d in SWEEP_DELTAS:
        rep = verify_table1(d, families=sweeps[d])
        assert rep.passed
        assert rep.unlisted == ()
        assert rep.unexpected == ()
        assert all(found for _, _, found in rep.rows)
        assert rep.lines()[0] == "delta=%d twist families: PASS" % d


def test_table1_report_row_count_matches(sweeps):
    for d in SWEEP_DELTAS:
        rep = verify_table1(d, families=sweeps[d])
        assert len(rep.rows) == len(table1_rows(d))


def test_table1_report_flags_missing_tuple(sweeps):
    fams = dict(sweeps[4])
    fams[tau(4, 1)] = fams[tau(4, 1)][:-1]  # drop one expected row
    rep = verify_table1(4, families=fams)
    assert not rep.passed
    assert any(not found for _, _, found in rep.rows)
    assert "FAIL" in rep.lines()[0]


def test_table1_report_flags_unlisted_tuple(sweeps):
    fams = dict(sweeps[4])
    extra = ParameterTuple.from_c_values(4, 1, 4, 10, 11)
    fams[tau(4, 1)] = fams[tau(4, 1)] + [extra]
    rep = verify_table1(4, families=fams)
    assert not rep.passed
    assert any(p == extra for _, p in rep.unlisted)


def test_table1_report_flags_unexpected_key(sweeps):
    fams = dict(sweeps[4])
    stray = Twist((2, 1, 3, 4))
    fams[stray] = [ParameterTuple.from_c_values(4, 1, 4, 10, 11)]
    rep = verify_table1(4, families=fams)
    assert not rep.passed
    assert stray in [t for t, _ in rep.unexpected]


# ---------------------------------------------------------------------------
# CSV rows


def test_classification_rows_schema(sweeps):
    rows = classification_rows(3, families=sweeps[3])
    assert len(rows) == 4 * 13
    for row in rows:
        assert list(row) == [
            "sigma", "delta", "K1", "K2", "C", "Cprime", "verdict", "witness",
        ]
        assert row["delta"] == "3"
        assert row["verdict"] in (
            "TWISTABLE", "METRIC_VIOLATION", "MISSING_GEODESIC",
        )
        if row["verdict"] == "TWISTABLE":
            assert row["witness"] == ""
        else:
            assert row["witness"]


def test_classification_rows_agree_with_verdicts(sweeps):
    rows = classification_rows(4, families=sweeps[4])
    by_sigma = {}
    for row in rows:
        by_sigma.setdefault(row["sigma"], []).append(row)
    for name, t in named_twists(4):
        got = by_sigma[t.cycles()]
        cands = enumerate_candidates(4)
        assert len(got) == len(cands)
        for row, p in zip(got, cands):
            v = check_twistable(p, t)
            assert row["verdict"] == v.outcome
            assert row["witness"] == v.witness_text()
            assert (row["C"], row["Cprime"]) == (str(p.c), str(p.c_prime))


# ---------------------------------------------------------------------------
# cycles


def test_cycle_twists_frozen_cases():
    seven = classify_cycle_twists(7)
    assert sorted(t.cycles() for t in seven) == ["()", "(1 2 3)", "(1 3 2)"]
    six = classify_cycle_twists(6)
    assert [t.cycles() for t in six] == ["()"]
    twelve = classify_cycle_twists(12)
    assert sorted(t.cycles() for t in twelve) == ["()", "(1 5)"]


def test_cycle_twists_match_mu_dedup():
    for n in range(7, 30):
        got = set(classify_cycle_twists(n))
        want = {mu(n, k) for k in oracles.units(n)}
        assert got == want


def test_cycle_twists_always_include_identity():
    for n in (5, 6, 8, 9, 15):
        assert identity(n // 2) in classify_cycle_twists(n)


def test_cycle_twists_closed_under_inversion():
    for n in (7, 11, 12, 15, 20):
        got = set(classify_cycle_twists(n))
        for t in got:
            assert t.inverse() in got


def test_cycle_twists_input_validation():
    with pytest.raises(InvalidInputError):
        classify_cycle_twists(2)
    with pytest.raises(InvalidInputError):
        classify_cycle_twists("7")
    with pytest.raises(BudgetError):
        classify_cycle_twists(129)
