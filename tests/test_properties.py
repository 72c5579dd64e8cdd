"""Structural laws checked exhaustively over the catalog, plus randomized probes."""

import json
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from mhg_twist import (
    INFINITY,
    InvalidInputError,
    ParameterTuple,
    Twist,
    check_twistable,
    compose,
    derive_parameters,
    enumerate_candidates,
    gamma_diameter,
    identity,
    mu,
    named_twists,
    parse_cycles,
    realized_set,
    rho,
    rho_inverse,
    table1_rows,
    tau,
)

DELTAS = range(3, 11)


def catalog(delta):
    return enumerate_candidates(delta)


# ---------------------------------------------------------------------------
# exhaustive laws, delta 3..10


@pytest.mark.parametrize("delta", DELTAS)
def test_even_isosceles_triples_always_realized(delta):
    # (i, i, 2k) is in every rule set once k <= i and i + k <= delta
    for p in catalog(delta):
        ts = realized_set(p)
        for i in range(1, delta + 1):
            for k in range(0, min(i, delta - i) + 1):
                if k == 0:
                    continue
                triple = tuple(sorted((i, i, 2 * k)))
                assert triple in ts, (p, triple)


@pytest.mark.parametrize("delta", DELTAS)
def test_antipodal_tuples_split_delta(delta):
    seen = 0
    for p in catalog(delta):
        if p.antipodal():
            seen += 1
            assert p.k1 + p.k2 == delta, p
    assert seen > 0


@pytest.mark.parametrize("delta", DELTAS)
def test_expected_rows_obey_the_gamma_ladder(delta):
    # diam(Gamma_{delta-i}) climbs from diam(Gamma_delta) in steps of two
    for _, p in table1_rows(delta):
        ts = realized_set(p)
        dprime = gamma_diameter(ts, delta)
        for i in range((delta - dprime) // 2 + 1):
            assert gamma_diameter(ts, delta - i) == dprime + 2 * i, (p, i)


def test_gamma_ladder_breaks_only_off_the_expected_rows():
    # outside the expected families the ladder may break; record, don't fail
    findings = []
    for delta in DELTAS:
        expected = {p for _, p in table1_rows(delta)}
        for p in catalog(delta):
            ts = realized_set(p)
            dprime = gamma_diameter(ts, delta)
            holds = all(
                gamma_diameter(ts, delta - i) == dprime + 2 * i
                for i in range((delta - dprime) // 2 + 1)
            )
            if not holds:
                assert p not in expected, p
                findings.append(p)
    assert findings, "expected at least one off-row ladder break"
    warnings.warn(
        f"[findings] gamma ladder breaks on {len(findings)} tuples outside "
        f"the expected rows, e.g. {findings[0]}",
        stacklevel=1,
    )


@pytest.mark.parametrize("delta", DELTAS)
def test_full_k2_cap_relation(delta):
    # K2 = delta forces the larger cap to sit exactly 2 above 2*delta + diam(Gamma_delta)
    seen = 0
    for p in catalog(delta):
        if p.k2 == delta:
            seen += 1
            dprime = gamma_diameter(realized_set(p), delta)
            assert p.c_prime == 2 * delta + dprime + 2, (p, dprime)
    assert seen > 0


@pytest.mark.parametrize("delta", DELTAS)
def test_group_laws(delta):
    assert compose(rho(delta), rho_inverse(delta)) == identity(delta)
    assert compose(rho_inverse(delta), rho(delta)) == identity(delta)
    assert rho(delta).inverse() == rho_inverse(delta)
    for eps in (0, 1):
        t = tau(delta, eps)
        assert compose(t, t) == identity(delta)
        assert t.inverse() == t


@pytest.mark.parametrize("delta", DELTAS)
def test_twistability_is_symmetric_under_inversion(delta):
    families = {t: [] for _, t in named_twists(delta)}
    for p in catalog(delta):
        for t in families:
            verdict = check_twistable(p, t)
            if not verdict.twistable:
                continue
            families[t].append((p, verdict.image_params))
            back = check_twistable(verdict.image_params, t.inverse())
            assert back.twistable, (p, t)
            assert back.image_params == p, (p, t)


@pytest.mark.parametrize("delta", DELTAS)
def test_twist_families_are_in_bijection_with_inverse_families(delta):
    members = {}
    images = {}
    for _, t in named_twists(delta):
        members[t] = set()
        images[t] = set()
        for p in catalog(delta):
            verdict = check_twistable(p, t)
            if verdict.twistable:
                members[t].add(p)
                images[t].add(verdict.image_params)
    for _, t in named_twists(delta):
        assert images[t] == members[t.inverse()]
        assert len(members[t]) == len(members[t.inverse()])


# ---------------------------------------------------------------------------
# randomized probes


@st.composite
def twists(draw, min_delta=1, max_delta=12):
    delta = draw(st.integers(min_delta, max_delta))
    images = draw(st.permutations(range(1, delta + 1)))
    return Twist(tuple(images))


@given(twists())
@settings(deadline=None)
def test_random_twist_inverse_laws(t):
    assert compose(t, t.inverse()) == identity(t.delta)
    assert compose(t.inverse(), t) == identity(t.delta)
    assert t.inverse().inverse() == t


@given(twists())
@settings(deadline=None)
def test_random_twist_cycles_roundtrip(t):
    assert parse_cycles(t.cycles(), t.delta) == t
    assert Twist.from_json(t.to_json()) == t


@given(twists(min_delta=2), twists(min_delta=2))
@settings(deadline=None)
def test_random_composition_acts_pointwise(s, t):
    if s.delta != t.delta:
        with pytest.raises(Exception):
            compose(s, t)
        return
    st_twist = compose(s, t)
    for i in range(1, s.delta + 1):
        assert st_twist.apply(i) == s.apply(t.apply(i))


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_random_triple_images_match_membership(data):
    t = data.draw(twists(min_delta=3, max_delta=8))
    triples = oracles.all_triples(t.delta)
    x = data.draw(st.sampled_from(triples))
    y = t.apply_to_triple(x)
    assert y == tuple(sorted(t.apply(v) for v in x))
    assert t.inverse().apply_to_triple(y) == x


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_random_tuple_scans_match_oracle(data):
    delta = data.draw(st.integers(3, 9))
    k1 = data.draw(st.one_of(st.none(), st.integers(1, delta)))
    k2 = 0 if k1 is None else data.draw(st.integers(k1, delta))
    c = data.draw(st.integers(2 * delta + 1, 4 * delta + 2))
    cprime = data.draw(st.integers(c + 1, 4 * delta + 3))
    try:
        p = ParameterTuple.from_c_values(
            delta, INFINITY if k1 is None else k1, k2, c, cprime
        )
    except InvalidInputError:
        return
    ts = realized_set(p)
    want = oracles.realized(delta, k1, k2, p.c0, p.c1)
    assert set(ts.members()) == want
    got = oracles.derive(set(ts.members()), delta)
    res = derive_parameters(ts)
    assert (res.k1 == INFINITY and got[0] is None) or res.k1 == got[0]
    assert (res.k2, res.c0, res.c1) == got[1:]


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_random_cycle_relabelings(data):
    n = data.draw(st.integers(5, 64))
    units = sorted(k for k in oracles.units(n) if k >= 2)
    if not units:
        return
    k = data.draw(st.sampled_from(units))
    t = mu(n, k)
    assert t == mu(n, n - k)
    kinv = pow(k, -1, n)
    assert t.inverse() in (mu(n, kinv), mu(n, n - kinv))
