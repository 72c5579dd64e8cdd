"""Acceptance gate: six checks, one verdict line each under pytest -v.

Each test is self-contained and rebuilds what it grades; nothing here leans
on fixtures from the unit files, so a failure points at the engine, not the
harness.
"""

import math
import time
import warnings
from itertools import permutations

from mhg_twist import (
    INFINITY,
    FiniteMetricGraph,
    ParameterTuple,
    Twist,
    apply_twist_metric,
    check_twistable,
    classify_cycle_twists,
    compose,
    crown_graph,
    cycle_graph,
    enumerate_candidates,
    find_twists,
    gamma_diameter,
    icosahedron,
    identity,
    is_metrically_homogeneous,
    named_twists,
    realized_set,
    rho,
    rho_inverse,
    table1_rows,
    tau,
    verify_table1,
    verify_theorem_twists,
)

def test_criterion_1_twist_catalog_is_exactly_the_four():
    start = time.monotonic()
    for delta in (3, 4, 5, 6):
        report = verify_theorem_twists(delta)
        assert report.passed, report.lines()
        families = find_twists(delta)
        nontrivial = {
            t for t, fam in families.items() if fam and not t.is_identity()
        }
        assert nontrivial == {
            rho(delta), rho_inverse(delta), tau(delta, 0), tau(delta, 1)
        }
    low = time.monotonic() - start
    assert low < 10.0, f"delta<=6 took {low:.1f}s"

    start = time.monotonic()
    report = verify_theorem_twists(7)
    assert report.passed, report.lines()
    high = time.monotonic() - start
    assert high < 120.0, f"delta=7 took {high:.1f}s"


def test_criterion_2_family_table_matches_exactly():
    exceptional = [
        ParameterTuple.from_c_values(3, 1, 2, 9, 10),
        ParameterTuple.from_c_values(3, 1, 2, 10, 11),
        ParameterTuple.from_c_values(3, 2, 2, 10, 11),
        ParameterTuple.from_c_values(4, 1, 3, 11, 12),
        ParameterTuple.from_c_values(4, 1, 3, 11, 14),
        ParameterTuple.from_c_values(4, 2, 3, 11, 14),
    ]
    for delta in range(3, 9):
        report = verify_table1(delta)
        assert report.passed, report.lines()
        families = find_twists(delta)
        kind_to_twist = dict(named_twists(delta))
        expected = {}
        for kind, params in table1_rows(delta):
            expected.setdefault(kind_to_twist[kind], set()).add(params)
        for twist, rows in expected.items():
            assert set(families[twist]) == rows, twist.cycles()
        # the lone generic-type bipartite family sits at matching parity
        tau1_family = set(families[tau(delta, 1)])
        tau0_family = set(families[tau(delta, 0)])
        bipartite_row = ParameterTuple.from_c_values(
            delta, INFINITY, 0, 2 * delta + 1, 2 * (delta + delta % 2) + 2
        )
        if delta % 2 == 1:
            assert bipartite_row in tau1_family
            assert not any(p.bipartite for p in tau0_family)
        else:
            assert bipartite_row in tau0_family
            assert not any(p.bipartite for p in tau1_family)
        if delta == 3:
            assert set(exceptional[:3]) < tau1_family
        if delta == 4:
            assert set(exceptional[3:]) < tau1_family


def test_criterion_3_cycle_twists_counted_and_isometric():
    start = time.monotonic()
    assert classify_cycle_twists(6) == [identity(3)]
    for n in range(7, 51):
        twists = classify_cycle_twists(n)
        euler = sum(1 for k in range(1, n) if math.gcd(k, n) == 1)
        nontrivial = [t for t in twists if not t.is_identity()]
        assert len(nontrivial) == euler // 2 - 1, n
        g = cycle_graph(n)
        for t in twists:
            report = apply_twist_metric(g, t)
            assert report.valid, (n, t.cycles())
            relabeled = FiniteMetricGraph(
                (report.matrix == 1).astype(report.matrix.dtype)
            )
            assert relabeled.degree_sequence() == (2,) * n
            assert (relabeled.dist == report.matrix).all(), (n, t.cycles())
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"cycle sweep took {elapsed:.1f}s"


def test_criterion_4_diameter_3_graphs():
    start = time.monotonic()
    ico = icosahedron()
    assert is_metrically_homogeneous(ico).homogeneous
    valid = {
        Twist(p).cycles()
        for p in permutations((1, 2, 3))
        if apply_twist_metric(ico, Twist(p)).valid
    }
    assert valid == {"()", "(1 2)"}
    crown = crown_graph(4)
    crown_valid = {
        Twist(p).cycles()
        for p in permutations((1, 2, 3))
        if apply_twist_metric(crown, Twist(p)).valid
    }
    assert crown_valid == {"()"}
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"finite cases took {elapsed:.1f}s"


def test_criterion_5_catalog_laws():
    ladder_findings = []
    for delta in range(3, 11):
        expected_rows = {p for _, p in table1_rows(delta)}
        saw_antipodal = False
        saw_full_k2 = False
        for p in enumerate_candidates(delta):
            ts = realized_set(p)
            # (a) even isosceles triples are always realized
            for i in range(1, delta + 1):
                for k in range(1, min(i, delta - i) + 1):
                    assert tuple(sorted((i, i, 2 * k))) in ts, (p, i, k)
            # (b) antipodal tuples split the diameter between the K's
            if p.antipodal():
                saw_antipodal = True
                assert p.k1 + p.k2 == delta, p
            # (c) distance-graph diameters climb in steps of two
            dprime = gamma_diameter(ts, delta)
            ladder = all(
                gamma_diameter(ts, delta - i) == dprime + 2 * i
                for i in range((delta - dprime) // 2 + 1)
            )
            if p in expected_rows:
                assert ladder, p
            elif not ladder:
                ladder_findings.append(p)
            # (d) K2 = delta pins the larger cap
            if p.k2 == delta:
                saw_full_k2 = True
                assert p.c_prime == 2 * delta + dprime + 2, p
        assert saw_antipodal and saw_full_k2
    warnings.warn(
        f"[findings] ladder breaks off-table on {len(ladder_findings)} tuples, "
        f"first {ladder_findings[0]}",
        stacklevel=1,
    )


def test_criterion_6_round_trips_and_family_bijection():
    for delta in range(3, 11):
        assert compose(rho(delta), rho_inverse(delta)) == identity(delta)
        assert compose(rho_inverse(delta), rho(delta)) == identity(delta)
        for eps in (0, 1):
            assert compose(tau(delta, eps), tau(delta, eps)) == identity(delta)
        members = {t: set() for _, t in named_twists(delta)}
        images = {t: set() for _, t in named_twists(delta)}
        for p in enumerate_candidates(delta):
            for t in members:
                verdict = check_twistable(p, t)
                if not verdict.twistable:
                    continue
                members[t].add(p)
                images[t].add(verdict.image_params)
                back = check_twistable(verdict.image_params, t.inverse())
                assert back.twistable and back.image_params == p, (p, t)
        for t in members:
            assert images[t] == members[t.inverse()]
