"""The twin rule of the homogeneity search, on blow-ups of small graphs.

Twins are vertices at the same distance from every third vertex, and a
class of mutual twins gets no walks and no child in _backend's tree.
A blow-up replaces each vertex of a small connected graph by one to
three twins, independent or joined as a clique.  On every blow-up the
search must give the verdict of
tests/reference_tree.py (the tree that walks every class) and of the
brute-force oracle on up to five vertices (on six it takes seconds
per homogeneous graph), a witness that replays, and no more states
than the reference.
"""

import functools
import itertools

import numpy as np
import pytest

import oracles
from mhg_twist import (
    DisconnectedGraphError,
    FiniteMetricGraph,
    complete_multipartite,
    is_metrically_homogeneous,
)
from mhg_twist._backend import _twins, homogeneity_search
from reference_tree import reference_search
from test_early_finish import random_graphs
from test_finite_graphs import validate_homogeneity_witness


@functools.lru_cache(maxsize=None)
def connected_graphs(n):
    """One edge list per isomorphism class of connected graphs on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen, graphs = set(), []
    for mask in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        adj = np.zeros((n, n), dtype=bool)
        for a, b in edges:
            adj[a, b] = adj[b, a] = True
        try:
            FiniteMetricGraph(adj)
        except DisconnectedGraphError:
            continue
        key = min(tuple(sorted(tuple(sorted((q[a], q[b]))) for a, b in edges)) for q in perms)
        if key not in seen:
            seen.add(key)
            graphs.append(edges)
    return graphs


def blow_up(n, edges, sizes, clique, perm):
    """Vertex v of the base becomes sizes[v] twins, joined when clique[v]; relabelled by perm."""
    label = [v for v in range(n) for _ in range(sizes[v])]
    m = len(label)
    adj = np.zeros((m, m), dtype=bool)
    for i, j in itertools.combinations(range(m), 2):
        u, v = label[i], label[j]
        if (u == v and clique[u]) or (min(u, v), max(u, v)) in edges:
            adj[perm[i], perm[j]] = adj[perm[j], perm[i]] = True
    return FiniteMetricGraph(adj)


def blow_ups(n, count, seed):
    """Each base on n vertices blown up four ways uniformly and count ways at random.

    The bases are the connected graphs on n vertices up to isomorphism,
    or test_early_finish's 30 random connected graphs for n = 6.
    """
    rng = np.random.default_rng(seed)
    graphs = []
    bases = connected_graphs(n) if n < 6 else [g.edges() for g in random_graphs(n)]
    for edges in bases:
        shapes = [([k] * n, [c] * n) for k in (2, 3) for c in (False, True)]
        shapes += [
            (rng.integers(1, 4, n).tolist(), (rng.random(n) < 0.5).tolist()) for _ in range(count)
        ]
        for sizes, clique in shapes:
            perm = rng.permutation(sum(sizes)).tolist()
            graphs.append(blow_up(n, set(edges), sizes, clique, perm))
    return graphs


def test_connected_graph_counts():
    assert [len(connected_graphs(n)) for n in range(2, 6)] == [1, 2, 6, 21]


@pytest.mark.parametrize("n,count", [(2, 8), (3, 12), (4, 8), (5, 4), (6, 2)])
def test_blow_ups_keep_the_reference_verdict(n, count):
    for g in blow_ups(n, count, seed=n):
        dist = np.ascontiguousarray(g.dist, dtype=np.int64)
        ok, states, witness = homogeneity_search(dist)
        want = reference_search(dist)
        assert ok == want[0], g.edges()
        assert states <= want[1], g.edges()
        if g.n <= 5:
            assert oracles.homogeneous(dist.tolist())[0] == ok, g.edges()
        if not ok:
            validate_homogeneity_witness(g, witness)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_twin_table_matches_the_oracle(n):
    for g in blow_ups(n, 2, seed=10 + n):
        dist = np.ascontiguousarray(g.dist, dtype=np.int64)
        at = dist[:, None, :] == np.arange(dist.max() + 1)[None, :, None]
        assert _twins(at) == oracles.least_twins(dist.tolist()), g.edges()


@pytest.mark.parametrize(
    "parts,states",
    [((2, 2, 2), 38), ((3, 3, 3), 100), ((4, 4, 4), 192), ((12, 12), 530),
     ((6,) * 4, 1135), ((4,) * 6, 1616), ((8,) * 8, 16605), ((16,) * 4, 8775)],
    ids=["K2,2,2", "K3,3,3", "K4,4,4", "K12,12", "K4x6", "K6x4", "K8x8", "K4x16"],
)
def test_complete_multipartite_states_are_pinned(parts, states):
    # Each part is a class of mutual twins.  Walking every class, the
    # tree took 41, 204, 751, 11,497, 35,515 and 41,137 states on the
    # first six and 15,344,225 on K4x16, and passed its 30M budget on
    # K8x8; the last two are over the default cap of 24 vertices.
    g = complete_multipartite(list(parts))
    res = is_metrically_homogeneous(g, cap=g.n)
    assert res.homogeneous
    assert res.states == states
