"""The prefix tree against the tree as first written.

_backend builds its distance table once per search, narrows each
node's same-distance matrix from its parent's with one AND, keeps a
node's classes in plain Python, and gives a class of mutual twins no
walks and no child.  On a graph without twins the whole search must
give the verdict, states and witness of
tests/reference_tree.py, which rebuilds the table and the matrix for
every node's walks, keeps the classes in numpy and walks every class;
on a graph with twins, the same verdict and witness in
no more states.
"""

import numpy as np
import pytest

import oracles
from mhg_twist import (
    BudgetError,
    FiniteMetricGraph,
    complete_multipartite,
    crown_graph,
    cycle_graph,
    icosahedron,
    johnson_graph,
    rook_graph,
)
from mhg_twist._backend import homogeneity_search
from reference_tree import reference_search
from test_census import cayley_graphs, multiplier_classes
from test_early_finish import FAMILIES


def assert_same_search(graphs):
    for g in graphs:
        dist = np.ascontiguousarray(g.dist, dtype=np.int64)
        got, want = homogeneity_search(dist), reference_search(dist)
        if oracles.least_twins(dist.tolist()) == list(range(g.n)):
            assert got == want, g.edges()
        else:
            ok, states, witness = got
            assert (ok, witness) == (want[0], want[2]), g.edges()
            assert states <= want[1], g.edges()


@pytest.mark.parametrize("family", FAMILIES)
def test_tree_matches_the_reference_on_the_early_finish_families(family):
    assert_same_search(family())


def test_tree_matches_the_reference_on_the_census_circulants():
    assert_same_search(
        g
        for n in range(5, 21)
        for g in cayley_graphs(n, multiplier_classes(n), lambda v, s, n=n: (v + s) % n)
    )


def petersen():
    return FiniteMetricGraph(~johnson_graph(5, 2).adjacency & ~np.eye(10, dtype=bool))


#: the graphs a homogeneity pass searches, cover candidates included
WORKLOAD = [
    icosahedron, lambda: crown_graph(5), lambda: complete_multipartite([3, 3, 3]),
    lambda: rook_graph(3), lambda: cycle_graph(9), petersen, lambda: rook_graph(4),
    lambda: johnson_graph(5, 2), lambda: johnson_graph(6, 3),
]


@pytest.mark.parametrize("seed", range(5))
def test_tree_matches_the_reference_on_relabelled_workload_graphs(seed):
    rng = np.random.default_rng(seed)
    graphs = []
    for build in WORKLOAD:
        g = build()
        perm = rng.permutation(g.n)
        graphs.append(FiniteMetricGraph(g.adjacency[np.ix_(perm, perm)]))
    assert_same_search(graphs)


@pytest.mark.parametrize(
    "build",
    [lambda: complete_multipartite([12, 12]), lambda: crown_graph(12), lambda: rook_graph(5)],
    ids=["K12,12", "crown12", "rook5"],
)
def test_tree_matches_the_reference_on_larger_graphs(build):
    assert_same_search([build()])


@pytest.mark.parametrize("max_states", [1, 100, 1000, 5000, 5424, 5425])
def test_tree_passes_its_budget_where_the_reference_does(max_states):
    # crown:12 takes 5,425 states
    g = crown_graph(12)
    try:
        want = reference_search(g.dist, max_states)
    except BudgetError as exc:
        with pytest.raises(BudgetError) as got:
            homogeneity_search(g.dist, max_states)
        assert str(got.value) == str(exc)
    else:
        assert homogeneity_search(g.dist, max_states) == want
