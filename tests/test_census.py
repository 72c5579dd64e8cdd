"""A census of small Cayley graphs against the finite catalog.

The finite metrically homogeneous graphs are classified, so on Cayley
graphs of small groups the homogeneity search has a closed-form answer:
it must prove exactly the cycles, complete multipartite graphs and
crowns (oracles.catalog_family) and refute every other graph.  The
census walks every connected circulant Cay(Z_n, S) with n = 5..20, one
connection set per class under the multipliers of Z_n, and every
connected Cay(Z_2^3, S).
"""

import itertools
import math
from collections import Counter

import numpy as np

import oracles
from mhg_twist import DisconnectedGraphError, FiniteMetricGraph, is_metrically_homogeneous


def multiplier_classes(n):
    """One connection set S ⊆ {1..n/2} per class under s -> u*s, u a unit mod n."""
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    seen, reps = set(), []
    for k in range(1, n // 2 + 1):
        for steps in itertools.combinations(range(1, n // 2 + 1), k):
            if steps not in seen:
                reps.append(steps)
                seen |= {
                    tuple(sorted({min(u * s % n, n - u * s % n) for s in steps}))
                    for u in units
                }
    return reps


def cayley_graphs(n, connection_sets, step):
    """The connected graphs on 0..n-1 with u ~ step(u, s) for s in a set."""
    idx = np.arange(n)
    graphs = []
    for steps in connection_sets:
        adj = np.zeros((n, n), dtype=bool)
        for s in steps:
            adj[idx, step(idx, s)] = adj[step(idx, s), idx] = True
        try:
            graphs.append(FiniteMetricGraph(adj))
        except DisconnectedGraphError:
            pass
    return graphs


def census(graphs):
    """(families of the proved graphs, graphs where search and oracle disagree).

    The vertex cap is raised to each graph's size, for tests/full_census.py.
    """
    proved, mismatches = Counter(), []
    for g in graphs:
        family = oracles.catalog_family([list(map(int, row)) for row in g.dist])
        homogeneous = is_metrically_homogeneous(g, cap=g.n).homogeneous
        if homogeneous:
            proved[family] += 1
        if homogeneous != (family is not None):
            mismatches.append(g.edges())
    return proved, mismatches


def test_circulant_census():
    graphs = [
        g
        for n in range(5, 21)
        for g in cayley_graphs(n, multiplier_classes(n), lambda v, s, n=n: (v + s) % n)
    ]
    proved, mismatches = census(graphs)
    assert len(graphs) == 843
    assert proved == {"cycle": 16, "complete multipartite": 42, "crown": 3}
    assert mismatches == []


def test_elementary_abelian_census():
    nonzero = range(1, 8)
    sets = [s for k in range(1, 8) for s in itertools.combinations(nonzero, k)]
    graphs = cayley_graphs(8, sets, lambda v, s: v ^ s)
    proved, mismatches = census(graphs)
    assert len(graphs) == 92
    assert proved == {"crown": 28, "complete multipartite": 15}
    assert mismatches == []
