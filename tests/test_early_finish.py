"""The homogeneity walks' early finish against the stepwise walk.

Once a walk's domain resolves the graph, every later image is forced,
so _backend._walks finishes the walk at once.  The search must give
the same verdict, states and witness as with the stepwise walk of
tests/stepwise_walks.py, which places every vertex.
"""

import itertools

import numpy as np
import pytest

from mhg_twist import (
    DisconnectedGraphError,
    FiniteMetricGraph,
    complete_multipartite,
    crown_graph,
    johnson_graph,
)
from mhg_twist import _backend
from stepwise_walks import stepwise_walks


def relabelled(adj, rng):
    perm = rng.permutation(adj.shape[0])
    return FiniteMetricGraph(adj[np.ix_(perm, perm)])


def random_graphs(n, count=30):
    rng = np.random.default_rng(n)
    graphs = []
    while len(graphs) < count:
        upper = np.triu(rng.random((n, n)) < rng.uniform(0.15, 0.85), 1)
        try:
            graphs.append(relabelled(upper | upper.T, rng))
        except DisconnectedGraphError:
            pass
    return graphs


def circulants(n):
    graphs = []
    idx = np.arange(n)
    for k in range(1, n // 2 + 1):
        for steps in itertools.combinations(range(1, n // 2 + 1), k):
            adj = np.zeros((n, n), dtype=bool)
            for s in steps:
                adj[idx, (idx + s) % n] = adj[(idx + s) % n, idx] = True
            try:
                graphs.append(FiniteMetricGraph(adj))
            except DisconnectedGraphError:
                pass
    return graphs


NAMED = [crown_graph(m) for m in range(3, 11)] + [
    complete_multipartite(p) for p in ([2, 2, 2], [3, 3, 3], [4, 4, 4], [2, 3, 4], [5, 5])
]


def both_searches(g, monkeypatch):
    dist = np.ascontiguousarray(g.dist, dtype=np.int64)
    got = _backend.homogeneity_search(dist)
    with monkeypatch.context() as m:
        m.setattr(_backend, "_walks", stepwise_walks)
        want = _backend.homogeneity_search(dist)
    return got, want


FAMILIES = (
    [pytest.param(lambda n=n: random_graphs(n), id=f"random{n}") for n in range(3, 15)]
    + [pytest.param(lambda n=n: circulants(n), id=f"circulants{n}") for n in range(5, 19)]
    + [pytest.param(lambda: NAMED, id="named")]
)


@pytest.mark.parametrize("family", FAMILIES)
def test_early_finish_matches_the_stepwise_walk(family, monkeypatch):
    # (ok, states, witness) of the whole search
    for g in family():
        got, want = both_searches(g, monkeypatch)
        assert got == want, g.edges()


def test_early_finish_fires_on_johnson_6_3(monkeypatch):
    real = _backend._resolved
    finished = []

    def spy(*args):
        finished.append(real(*args))
        return finished[-1]

    monkeypatch.setattr(_backend, "_resolved", spy)
    got, want = both_searches(johnson_graph(6, 3), monkeypatch)
    assert got == want
    assert got[:2] == (True, 1244)
    assert any(finished)


def test_a_forced_map_that_is_no_automorphism_steps_on(monkeypatch):
    # On the path 1-0-2 the root walks 0->1 and 0->2 leave vertices 1
    # and 2 one candidate each, the centre 0 for both: one candidate
    # per vertex, but the forced map is no bijection.  The walks step
    # on, and the first gets stuck at vertex 2.
    real = _backend._resolved
    finished = []

    def spy(*args):
        finished.append(real(*args))
        return finished[-1]

    monkeypatch.setattr(_backend, "_resolved", spy)
    got, want = both_searches(FiniteMetricGraph([[0, 1, 1], [1, 0, 0], [1, 0, 0]]), monkeypatch)
    assert got == want == (False, 5, ((0, 1), (1, 0), 2))
    assert finished == [False]


def test_resolved_needs_a_candidate_for_every_vertex():
    # K4 with prefix (0,) and the walk 1->1: vertex 2 has no candidate
    # and vertex 3 two, so the count matches.  Sending 2 to vertex 0,
    # the first index of its empty row, keeps every distance among the
    # vertices outside the prefix but not the distance to the prefix.
    dist = 1 - np.eye(4, dtype=np.int64)
    doms = np.array([[1, 2, 3]])
    imgs = np.array([[1, 0, 0]])
    want = dist[doms.T[:, None, :], doms.T[None, :, :]]
    cand = np.array([[[False, False, False, False]], [[False, False, True, True]]])
    assert np.count_nonzero(cand) == 2
    assert not _backend._resolved(dist, imgs, want, cand, 1)
