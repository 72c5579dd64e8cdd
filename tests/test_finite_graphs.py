"""Concrete graphs: constructors, metrics, homogeneity, twists, covers, IO."""

import copy
import itertools
import json
import pickle
import tracemalloc

import numpy as np
import pytest

import exhaustive_walk
import oracles
from mhg_twist import (
    BudgetError,
    DimensionMismatchError,
    DisconnectedGraphError,
    INFINITY,
    FiniteMetricGraph,
    InvalidInputError,
    ParameterTuple,
    Twist,
    apply_twist_metric,
    check_antipodal_law,
    check_twistable,
    complete_multipartite,
    crown_graph,
    cycle_graph,
    derive_parameters,
    find_antipodal_cover,
    from_adjacency_json,
    from_edge_list,
    graph_triangle_set,
    icosahedron,
    identity,
    image_set,
    is_isomorphic,
    is_metrically_homogeneous,
    is_self_consistent,
    johnson_graph,
    load_graph_file,
    mu,
    path_metric,
    realized_set,
    rook_graph,
    tau,
    to_adjacency_json,
    to_edge_list,
)
from mhg_twist import finite_graphs
from mhg_twist._backend import DEFAULT_STATE_BUDGET

PETERSEN_EDGES = "\n".join(
    "%d %d" % e
    for e in [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    ]
) + "\n"

# 12-vertex graph that is antipodal (partner i <-> i+6) but breaks the
# distance law; found by randomized search over partner-symmetric graphs,
# smallest known to this suite (exhaustive scan shows none up to n=7)
LAW_BREAKER_EDGES = [
    (0, 3), (0, 7), (1, 6), (1, 8), (1, 11), (2, 4), (2, 7), (2, 9),
    (3, 8), (3, 11), (4, 11), (5, 7), (5, 9), (5, 10), (6, 9), (8, 10),
]


def to_nx(nx, g):
    return nx.from_numpy_array(np.asarray(g.adjacency))


def petersen():
    return from_edge_list(PETERSEN_EDGES)


def cube():
    return from_edge_list(
        "0 1\n0 2\n0 4\n1 3\n1 5\n2 3\n2 6\n3 7\n4 5\n4 6\n5 7\n6 7\n"
    )


def law_breaker():
    n = 12
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v in LAW_BREAKER_EDGES:
        adj[u, v] = adj[v, u] = 1
    return FiniteMetricGraph(adj)


def validate_homogeneity_witness(g, witness):
    """Replay a failure certificate against the metric by brute force."""
    doms, imgs, stuck = witness
    assert len(doms) == len(imgs)
    assert stuck not in doms
    d = g.dist
    for a, b in zip(doms, imgs):
        for a2, b2 in zip(doms, imgs):
            assert d[a, a2] == d[b, b2]
    for b in range(g.n):
        if any(d[stuck, a] != d[b, bb] for a, bb in zip(doms, imgs)):
            continue
        pytest.fail("witness not stuck: %r extends to %d" % (witness, b))


# ---------------------------------------------------------------------------
# constructors and metrics


def test_cycle_graph_basics():
    g = cycle_graph(7)
    assert g.n == 7
    assert g.diameter == 3
    assert g.degree_sequence() == (2,) * 7
    assert g.dist[0, 2] == 2
    assert cycle_graph(6).diameter == 3


def test_crown_graph_basics():
    g = crown_graph(4)
    assert g.n == 8
    assert g.diameter == 3
    assert g.degree_sequence() == (3,) * 8
    # matched pair sits at full distance, same side at 2
    assert g.dist[0, 4] == 3
    assert g.dist[0, 1] == 2
    assert g.dist[0, 5] == 1


def test_complete_multipartite_basics():
    g = complete_multipartite([2, 2, 2])
    assert g.n == 6
    assert g.diameter == 2
    assert g.degree_sequence() == (4,) * 6
    k4 = complete_multipartite([1, 1, 1, 1])
    assert k4.diameter == 1
    assert len(k4.edges()) == 6


def test_rook_graph_basics():
    g = rook_graph(3)
    assert g.n == 9
    assert g.diameter == 2
    assert g.degree_sequence() == (4,) * 9


def test_icosahedron_basics():
    g = icosahedron()
    assert g.n == 12
    assert len(g.edges()) == 30
    assert g.degree_sequence() == (5,) * 12
    assert g.diameter == 3
    # one vertex at full distance from each vertex
    far = (g.dist == 3).sum(axis=1)
    assert list(far) == [1] * 12


def test_johnson_graph_basics():
    g = johnson_graph(6, 3)
    assert g.n == 20
    assert g.degree_sequence() == (9,) * 20
    assert g.diameter == 3
    with pytest.raises(BudgetError):
        johnson_graph(14, 7)


def loop_crown(m):
    adj = np.zeros((2 * m, 2 * m), dtype=bool)
    for i in range(m):
        for j in range(m):
            if i != j:
                adj[i, m + j] = adj[m + j, i] = True
    return adj


def loop_rook(m):
    cells = [(r, c) for r in range(m) for c in range(m)]
    adj = np.zeros((m * m, m * m), dtype=bool)
    for i, (r1, c1) in enumerate(cells):
        for j, (r2, c2) in enumerate(cells):
            adj[i, j] = i != j and (r1 == r2 or c1 == c2)
    return adj


def loop_johnson(m, t):
    subsets = list(itertools.combinations(range(m), t))
    adj = np.zeros((len(subsets), len(subsets)), dtype=bool)
    for i, a in enumerate(subsets):
        for j, b in enumerate(subsets):
            adj[i, j] = len(set(a) & set(b)) == t - 1
    return adj


@pytest.mark.parametrize(
    "build,want",
    [(lambda m=m: crown_graph(m), lambda m=m: loop_crown(m)) for m in range(3, 13)]
    + [(lambda m=m: rook_graph(m), lambda m=m: loop_rook(m)) for m in range(2, 7)]
    + [(lambda m=m, t=t: johnson_graph(m, t), lambda m=m, t=t: loop_johnson(m, t))
       for m, t in [(2, 1), (4, 2), (5, 2), (6, 2), (6, 3), (7, 3), (8, 4), (9, 1), (9, 8)]],
)
def test_constructors_match_the_pairwise_loops(build, want):
    # the broadcast constructors give the adjacency of the loop over vertex pairs, byte for byte
    got, ref = build().adjacency, want()
    assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
    assert got.tobytes() == ref.tobytes()


def test_degenerate_sizes_rejected():
    with pytest.raises(InvalidInputError):
        cycle_graph(2)
    with pytest.raises(InvalidInputError):
        crown_graph(2)
    with pytest.raises(InvalidInputError):
        complete_multipartite([])
    with pytest.raises(InvalidInputError):
        rook_graph(1)
    # a bool is an int to Python, but no size: [True, 2] is not K1,2
    with pytest.raises(InvalidInputError):
        complete_multipartite([True, 2])
    with pytest.raises(InvalidInputError):
        johnson_graph(4, True)


def test_adjacency_validation():
    with pytest.raises(InvalidInputError):
        FiniteMetricGraph(np.ones((3, 3), dtype=np.int64))  # self loops
    with pytest.raises(InvalidInputError):
        FiniteMetricGraph(np.array([[0, 1], [0, 0]]))  # asymmetric
    with pytest.raises(DisconnectedGraphError):
        FiniteMetricGraph(np.zeros((2, 2), dtype=np.int64))
    path_plus_point = np.zeros((4, 4), dtype=np.int64)
    path_plus_point[0, 1] = path_plus_point[1, 0] = 1
    path_plus_point[1, 3] = path_plus_point[3, 1] = 1
    with pytest.raises(DisconnectedGraphError, match="^vertex 2 is unreachable from vertex 0$"):
        FiniteMetricGraph(path_plus_point)


def test_graph_is_immutable():
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = 0
    with pytest.raises(ValueError):
        g.dist[0, 1] = 9
    mine = path_metric(g)
    mine[0, 1] = 9  # the copy is the caller's to mutate
    assert g.dist[0, 1] == 1


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_graph_copies_and_pickles(clone):
    g = petersen()
    ts = graph_triangle_set(g)
    h = clone(g)
    assert h is not g
    assert (h.adjacency == g.adjacency).all() and (h.dist == g.dist).all()
    assert h.diameter == g.diameter
    # the triple set is recomputed on demand, equal to the original's
    assert graph_triangle_set(h) == ts
    assert hash(graph_triangle_set(h)) == hash(ts)
    with pytest.raises(AttributeError):
        h.n = 3
    with pytest.raises(ValueError):
        h.dist[0, 1] = 9


@pytest.mark.parametrize(
    "build",
    [
        lambda: cycle_graph(9),
        lambda: crown_graph(5),
        lambda: complete_multipartite([3, 1, 2]),
        lambda: rook_graph(4),
        lambda: icosahedron(),
        lambda: johnson_graph(6, 3),
        petersen,
        law_breaker,
    ],
    ids=["C9", "crown5", "K312", "rook4", "ico", "J63", "petersen", "lawbreaker"],
)
def test_metric_agrees_with_networkx(build):
    nx = pytest.importorskip("networkx")
    g = build()
    want = dict(nx.all_pairs_shortest_path_length(to_nx(nx, g)))
    for u in range(g.n):
        for v in range(g.n):
            assert g.dist[u, v] == want[u][v]


def test_metric_agrees_with_plain_bfs_oracle():
    g = crown_graph(4)
    adj = [[int(x) for x in row] for row in g.adjacency]
    assert [list(r) for r in g.dist] == oracles.bfs_distances(adj)


# ---------------------------------------------------------------------------
# isomorphism


def test_crown_4_is_the_3_cube():
    assert is_isomorphic(crown_graph(4), cube())


def test_is_isomorphic_negative_cases():
    assert not is_isomorphic(crown_graph(4), cycle_graph(8))
    assert not is_isomorphic(cycle_graph(6), complete_multipartite([3, 3]))
    assert not is_isomorphic(cycle_graph(5), cycle_graph(6))


def test_is_isomorphic_matches_networkx_on_mixed_pairs():
    nx = pytest.importorskip("networkx")
    pool = [
        cycle_graph(6), crown_graph(3), complete_multipartite([2, 2, 2]),
        complete_multipartite([3, 3]), petersen(),
        johnson_graph(5, 2), crown_graph(4), cube(),
    ]
    for a in pool:
        for b in pool:
            got = is_isomorphic(a, b)
            want = nx.is_isomorphic(to_nx(nx, a), to_nx(nx, b))
            assert got == want


def test_crown_3_is_the_6_cycle():
    assert is_isomorphic(crown_graph(3), cycle_graph(6))


# ---------------------------------------------------------------------------
# homogeneity


SMALL_CASES = [
    ("C3", lambda: cycle_graph(3)),
    ("C4", lambda: cycle_graph(4)),
    ("C5", lambda: cycle_graph(5)),
    ("K4", lambda: complete_multipartite([1, 1, 1, 1])),
    ("K22", lambda: complete_multipartite([2, 2])),
    ("path3", lambda: from_edge_list("0 1\n1 2\n")),
    ("path4", lambda: from_edge_list("0 1\n1 2\n2 3\n")),
    ("star", lambda: from_edge_list("0 1\n0 2\n0 3\n")),
    ("K4-e", lambda: from_edge_list("0 1\n0 2\n0 3\n1 2\n1 3\n")),
    ("paw", lambda: from_edge_list("0 1\n0 2\n1 2\n2 3\n")),
    ("bull", lambda: from_edge_list("0 1\n0 2\n1 2\n1 3\n2 4\n")),
    ("house", lambda: from_edge_list("0 1\n1 2\n2 3\n3 4\n4 0\n0 2\n")),
]


@pytest.mark.parametrize("name,build", SMALL_CASES, ids=[c[0] for c in SMALL_CASES])
def test_homogeneity_matches_brute_force(name, build):
    g = build()
    dist = [list(map(int, row)) for row in g.dist]
    want, _ = oracles.homogeneous(dist)
    res = is_metrically_homogeneous(g)
    assert res.homogeneous == want
    assert bool(res) == want
    assert res.complete
    if not want:
        validate_homogeneity_witness(g, res.witness)
    else:
        assert res.witness is None


DEPTH_CASES = [
    (name, build, depth)
    for name, build in SMALL_CASES
    for depth in range(1, build().n)
]


@pytest.mark.parametrize(
    "name,build,depth", DEPTH_CASES, ids=[f"{c[0]}-d{c[2]}" for c in DEPTH_CASES]
)
def test_depth_bounded_search_matches_brute_force(name, build, depth):
    # The exhaustive reference, bounded at depth, against the brute-force
    # oracle bounded alike: where the reference cannot walk every map,
    # test_prefix_tree_matches_the_exhaustive_walk has it decide maps of
    # up to 2 points.
    g = build()
    dist = [list(map(int, row)) for row in g.dist]
    want, _ = oracles.homogeneous(dist, max_depth=depth)
    _, _, witness = all_roots_walk(g, depth, DEFAULT_STATE_BUDGET)
    assert (witness is None) == want
    if not want:
        assert len(witness[0]) <= depth
        validate_homogeneity_witness(g, witness)


def relabel(g, seed):
    perm = np.random.default_rng(seed).permutation(g.n)
    return FiniteMetricGraph(g.adjacency[np.ix_(perm, perm)])


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize(
    "build,full_walk",
    [(icosahedron, 20303), (lambda: crown_graph(5), 10443),
     (lambda: complete_multipartite([3, 3, 3]), 16034),
     (lambda: rook_graph(3), 1986), (lambda: cycle_graph(9), 510)],
    ids=["ico", "crown5", "K333", "rook3", "C9"],
)
def test_relabelled_homogeneous_graph_keeps_verdict_and_states(build, full_walk, seed):
    # The prefix tree orders classes by least member, so its state count
    # moves with the labels; on these graphs it stays under full_walk, the
    # states of the exhaustive walk (tests/exhaustive_walk.py) from the
    # one root 0->0 without its forced-extension cut, which are the same
    # under any labels.
    g = build()
    base = is_metrically_homogeneous(g)
    res = is_metrically_homogeneous(relabel(g, seed))
    assert base.homogeneous and res.homogeneous
    assert res.states <= full_walk and base.states <= full_walk


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize(
    "build",
    [petersen, lambda: rook_graph(4), lambda: johnson_graph(5, 2)],
    ids=["petersen", "rook4", "J52"],
)
def test_relabelled_non_homogeneous_graph_keeps_a_witness(build, seed):
    g = relabel(build(), seed)
    res = is_metrically_homogeneous(g)
    assert not res.homogeneous
    validate_homogeneity_witness(g, res.witness)


WORKLOAD_GRAPHS = [
    ("ico", icosahedron), ("crown5", lambda: crown_graph(5)),
    ("K333", lambda: complete_multipartite([3, 3, 3])),
    ("rook3", lambda: rook_graph(3)), ("C9", lambda: cycle_graph(9)),
    ("petersen", petersen), ("rook4", lambda: rook_graph(4)),
    ("J52", lambda: johnson_graph(5, 2)),
]

FORCED_CASES = [
    (name, build, depth)
    for name, build in SMALL_CASES
    for depth in range(1, build().n)
] + [(name, lambda b=build: relabel(b(), 7), None) for name, build in WORKLOAD_GRAPHS]


def zero_root_walk(g, depth, max_states):
    """The exhaustive reference walk from the one root 0->0."""
    dist = np.ascontiguousarray(g.dist, dtype=np.int64)
    root = np.zeros((1, 1), dtype=np.int64)
    return exhaustive_walk._extension_levels(dist, root, root, depth, 1, max_states)


def all_roots_walk(g, depth, max_states):
    """The exhaustive reference walk from all n*n one-point maps: every
    partial isometry of up to depth points."""
    n = g.n
    dist = np.ascontiguousarray(g.dist, dtype=np.int64)
    doms, imgs = np.repeat(np.arange(n), n)[:, None], np.tile(np.arange(n), n)[:, None]
    return exhaustive_walk._extension_levels(dist, doms, imgs, depth, 1, max_states)


@pytest.mark.parametrize(
    "name,build,depth", FORCED_CASES,
    ids=[f"{c[0]}-d{c[2]}" if c[2] else f"{c[0]}-relabelled" for c in FORCED_CASES],
)
def test_forced_rows_match_the_oracle(name, build, depth, monkeypatch):
    # Every row the exhaustive reference hands its forced-extension cut,
    # on every level it grows, is cut exactly when the oracle finds a
    # forced automorphism and the row has children to skip (its domain
    # ends before n-1).  The small cases walk from all n*n roots up to
    # depth, the relabelled workload graphs from 0->0 at full depth.
    g = build()
    dist = [list(map(int, row)) for row in g.dist]
    real = exhaustive_walk._forced_automorphisms
    seen = {"rows": 0, "cut": 0}

    def spy(d, doms, match):
        cut = set(real(d, doms, match).tolist())
        for r, dom in enumerate(doms.tolist()):
            # each domain vertex's one candidate is its image
            img = [int(np.flatnonzero(match[r, a])[0]) for a in dom]
            forced = oracles.forced_extension(dist, dom, img)
            want = forced is not None and dom[-1] < g.n - 1
            assert (r in cut) == want, (dom, img, forced)
        seen["rows"] += len(doms)
        seen["cut"] += len(cut)
        return np.array(sorted(cut), dtype=np.int64)

    monkeypatch.setattr(exhaustive_walk, "_forced_automorphisms", spy)
    if depth is None:
        _, forced, witness = zero_root_walk(g, g.n - 1, DEFAULT_STATE_BUDGET)
    else:
        _, forced, witness = all_roots_walk(g, depth, DEFAULT_STATE_BUDGET)
    assert forced == seen["cut"]
    if depth is None and witness is None:
        assert seen["rows"] > 0


@pytest.mark.parametrize(
    "edges,dom,img,cut",
    [
        ("0 1\n1 2\n2 3\n", (0,), (3,), True),  # F = (3, 2, 1, 0), the reflection
        ("0 2\n0 3\n0 4\n1 3\n1 4\n2 3\n", (1, 2), (2, 1), False),  # F = (4, 2, 1, 3, 0)
        ("0 1\n0 2\n2 3\n", (0,), (1,), False),  # F = (1, 0, 0, 2)
    ],
    ids=["automorphism", "bijection-not-isometry", "not-a-bijection"],
)
def test_forced_rows_are_cut_only_at_automorphisms(edges, dom, img, cut):
    # Every vertex has one candidate in each case, but only the first F
    # keeps every distance.  No reference walk in this suite meets a forced
    # map like the last two, so the cut is checked on them directly.
    g = from_edge_list(edges)
    dist = np.ascontiguousarray(g.dist, dtype=np.int64)
    match = np.ones((1, g.n, g.n), dtype=bool)
    for a, b in zip(dom, img):
        match[0] &= dist[a][:, None] == dist[b][None, :]
    assert (match.sum(axis=2) == 1).all()
    want = oracles.forced_extension([list(map(int, r)) for r in dist], dom, img)
    assert (want is not None) == cut
    got = exhaustive_walk._forced_automorphisms(dist, np.array([dom]), match)
    assert got.tolist() == ([0] if cut else [])


@pytest.mark.parametrize(
    "build", [lambda: complete_multipartite([12, 12]), lambda: crown_graph(12)],
    ids=["K12,12", "crown12"],
)
def test_homogeneity_memory_is_cubic_in_n(build):
    # The tree holds one node's walks and a stack of at most n children
    # on each of n levels, so its peak is set by n and not by its 530
    # and 5,425 states (both peak near 27 n^3 bytes).
    g = build()
    tracemalloc.start()
    try:
        res = is_metrically_homogeneous(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.homogeneous
    assert peak < 64 * g.n**3


def test_homogeneous_catalog_members():
    for g in (cycle_graph(9), crown_graph(4), crown_graph(5),
              complete_multipartite([2, 2, 2]), rook_graph(3)):
        assert is_metrically_homogeneous(g).homogeneous


def test_icosahedron_is_homogeneous():
    res = is_metrically_homogeneous(icosahedron())
    assert res.homogeneous
    assert res.complete
    # pinned search statistic: 1 + 11 walks of 11 steps at the root, then
    # 2 * 4 walks of 10 steps below it, 4 * 2 of 9 below a neighbour of
    # 0 and 2 * 2 of 9 below a vertex at distance 2; the exhaustive walk
    # from 0->0 (with its forced-extension cut) builds 653 states
    assert res.states == 256
    assert json.loads(res.to_json()) == {
        "complete": True, "homogeneous": True, "states": 256, "witness": None,
    }


@pytest.mark.parametrize(
    "build,states,witness",
    [
        (lambda: crown_graph(5), 196, None),
        (lambda: complete_multipartite([3, 3, 3]), 100, None),
        (lambda: rook_graph(3), 131, None),
        (lambda: cycle_graph(9), 93, None),
        (lambda: rook_graph(4), 905, ((0, 1, 4, 10, 11), (0, 1, 4, 10, 14), 2)),
    ],
    ids=["crown5", "K333", "rook3", "C9", "rook4"],
)
def test_search_statistics_are_pinned(build, states, witness):
    # canonical labels; the exhaustive walk from 0->0 (with its
    # forced-extension cut) builds 3,987, 14,450, 314, 18 and 31,103
    # states on these graphs
    res = is_metrically_homogeneous(build())
    assert (res.states, res.witness) == (states, witness)
    assert res.homogeneous == (witness is None)


def test_petersen_is_not_homogeneous():
    res = is_metrically_homogeneous(petersen())
    assert not res.homogeneous
    validate_homogeneity_witness(petersen(), res.witness)


def test_prism_is_not_homogeneous():
    prism = from_edge_list("0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n0 3\n1 4\n2 5\n")
    res = is_metrically_homogeneous(prism)
    assert not res.homogeneous
    validate_homogeneity_witness(prism, res.witness)


def test_rook_4_is_not_homogeneous():
    # two non-adjacent vertices have common-neighbor counts depending on type
    res = is_metrically_homogeneous(rook_graph(4))
    assert not res.homogeneous
    validate_homogeneity_witness(rook_graph(4), res.witness)


def from_pairs(n, pairs):
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v in pairs:
        adj[u, v] = adj[v, u] = 1
    return FiniteMetricGraph(adj)


def circulant(n, steps):
    return from_pairs(n, [(i, (i + s) % n) for i in range(n) for s in steps])


def shrikhande():
    # Cayley graph of Z4 x Z4 on +-(1,0), +-(0,1), +-(1,1)
    steps = [(1, 0), (0, 1), (1, 1)]
    return from_pairs(16, [(4 * a + b, 4 * ((a + x) % 4) + (b + y) % 4)
                           for a in range(4) for b in range(4) for x, y in steps])


def clebsch():
    # the folded 5-cube: Z2^4, flipping one coordinate or all four
    return from_pairs(16, [(u, u ^ m) for u in range(16) for m in (1, 2, 4, 8, 15)])


def dodecahedron():
    # the generalized Petersen graph GP(10, 2)
    return from_pairs(20, [(i, (i + 1) % 10) for i in range(10)]
                      + [(i, 10 + i) for i in range(10)]
                      + [(10 + i, 10 + (i + 2) % 10) for i in range(10)])


@pytest.mark.parametrize(
    "build,states",
    [
        (lambda: crown_graph(8), 1129),
        (lambda: crown_graph(10), 2666),
        (lambda: crown_graph(12), 5425),
        (lambda: johnson_graph(6, 3), 1244),
        (lambda: complete_multipartite([4, 4, 4]), 192),
        (lambda: complete_multipartite([12, 12]), 530),
        # crown:11 labelled around Z_22: 46 nodes, and without the class
        # order 258 nodes and 13,705 states
        (lambda: circulant(22, range(1, 11, 2)), 3862),
    ],
    ids=["crown8", "crown10", "crown12", "J63", "K444", "K12,12", "crown11-circulant"],
)
def test_prefix_tree_proofs_are_pinned(build, states):
    g = build()
    res = is_metrically_homogeneous(g)
    assert res.homogeneous and res.complete
    assert res.states == states


@pytest.mark.parametrize(
    "build,states,witness",
    [
        (shrikhande, 46, ((0, 1, 2), (4, 0, 1), 3)),
        (clebsch, 932, ((0, 1, 6, 10, 12), (0, 1, 6, 10, 13), 2)),
        # Paley(13): the squares mod 13 are +-1, +-3, +-4
        (lambda: circulant(13, [1, 3, 4]), 49, ((0, 1, 2, 3), (1, 0, 3, 2), 4)),
        (dodecahedron, 752, ((0, 2, 13), (0, 2, 14), 1)),
    ],
    ids=["shrikhande", "clebsch", "paley13", "dodecahedron"],
)
def test_prefix_tree_refutations_are_pinned(build, states, witness):
    g = build()
    res = is_metrically_homogeneous(g)
    assert not res.homogeneous
    assert (res.states, res.witness) == (states, witness)
    validate_homogeneity_witness(g, res.witness)


def random_connected_graphs(count, seed):
    rng = np.random.default_rng(seed)
    graphs = []
    while len(graphs) < count:
        n = int(rng.integers(3, 10))
        upper = np.triu(rng.random((n, n)) < rng.uniform(0.2, 0.8), 1)
        try:
            graphs.append(FiniteMetricGraph((upper | upper.T).astype(np.int64)))
        except DisconnectedGraphError:
            pass
    return graphs


def relabelled_circulants(seed):
    graphs = []
    for n in range(5, 13):
        for k in range(1, n // 2 + 1):
            for steps in itertools.combinations(range(1, n // 2 + 1), k):
                try:
                    graphs.append(relabel(circulant(n, steps), seed + n))
                except DisconnectedGraphError:
                    pass
    return graphs


#: states the exhaustive reference may walk on one graph
REFERENCE_STATES = 50_000


@pytest.mark.parametrize(
    "family,undecided,oracle_n",
    [(lambda: random_connected_graphs(60, 2024), 0, 6),
     (lambda: relabelled_circulants(31), 15, 5)],
    ids=["random", "circulants"],
)
def test_prefix_tree_matches_the_exhaustive_walk(family, undecided, oracle_n):
    # The reference walks every partial isometry from every one-point
    # map.  On the dense homogeneous circulants (complete, complete
    # multipartite and the like) it passes its budget; there the tree's
    # proof is checked against the reference on maps of up to 2 points.
    # The brute-force oracle runs up to oracle_n vertices: on the
    # 6-vertex homogeneous circulants it takes 0.7 to 8 s each.
    graphs = family()
    over = 0
    for g in graphs:
        res = is_metrically_homogeneous(g)
        assert res.complete
        if not res.homogeneous:
            validate_homogeneity_witness(g, res.witness)
        if g.n <= oracle_n:
            dist = [list(map(int, row)) for row in g.dist]
            assert oracles.homogeneous(dist)[0] == res.homogeneous
        try:
            _, _, witness = all_roots_walk(g, g.n - 1, REFERENCE_STATES)
        except BudgetError:
            over += 1
            assert res.homogeneous and all_roots_walk(g, 2, REFERENCE_STATES)[2] is None
            continue
        assert res.homogeneous == (witness is None), g.edges()
    assert over == undecided
    assert len(graphs) - over >= 60


def test_homogeneity_budget_and_cap():
    # crown:10 takes 2,666 states; the icosahedron takes 256
    with pytest.raises(BudgetError, match="passed 1000 states on 20 vertices; raise max_states$"):
        is_metrically_homogeneous(crown_graph(10), max_states=1000)
    assert is_metrically_homogeneous(icosahedron(), max_states=1000).homogeneous
    with pytest.raises(BudgetError):
        is_metrically_homogeneous(johnson_graph(7, 2), cap=20)  # 21 > cap


BAD_COUNTS = ["x", None, True, False, 2.5, 0, -5]


@pytest.mark.parametrize("value", BAD_COUNTS, ids=repr)
@pytest.mark.parametrize("name", ["cap", "max_states"])
def test_homogeneity_bounds_must_be_positive_ints(name, value):
    with pytest.raises(InvalidInputError, match=name):
        is_metrically_homogeneous(icosahedron(), **{name: value})


@pytest.mark.parametrize("value", BAD_COUNTS, ids=repr)
def test_cover_search_checks_max_states_first(value):
    # no candidate over C6 reaches the search, so only the entry check
    # can refuse the value
    with pytest.raises(InvalidInputError, match="max_states"):
        find_antipodal_cover(cycle_graph(6), max_states=value)
    with pytest.raises(InvalidInputError, match="max_states"):
        find_antipodal_cover(cycle_graph(5), max_states=value)


# ---------------------------------------------------------------------------
# twisting concrete graphs


def test_cycle_7_twisted_by_mu_2():
    g = cycle_graph(7)
    rep = apply_twist_metric(g, mu(7, 2))
    assert rep.valid
    assert rep.metric_ok and rep.unit_connected and rep.geodesics_ok
    # the twisted space is again a 7-cycle
    unit = (rep.matrix == 1).astype(np.int64)
    h = FiniteMetricGraph(unit)
    assert is_isomorphic(h, g)
    assert (h.dist == rep.matrix).all()


def test_cycle_non_unit_relabeling_disconnects():
    # gcd(2, 6) = 2 splits the distance-1 relation into two triangles
    g = cycle_graph(6)
    sigma = Twist((2, 1, 3))  # sends distance 2 to 1
    rep = apply_twist_metric(g, sigma)
    assert not rep.unit_connected
    assert not rep.valid


def test_icosahedron_twist_table():
    g = icosahedron()
    verdicts = {}
    twists = [
        Twist(p) for p in
        [(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 2, 1), (2, 3, 1), (3, 1, 2)]
    ]
    for t in twists:
        rep = apply_twist_metric(g, t)
        verdicts[t.cycles()] = rep.valid
    assert verdicts == {
        "()": True,
        "(2 3)": False,
        "(1 2)": True,
        "(1 3)": False,
        "(1 2 3)": False,
        "(1 3 2)": False,
    }


def test_icosahedron_twisted_space_is_homogeneous():
    rep = apply_twist_metric(icosahedron(), Twist((2, 1, 3)))
    assert rep.valid
    unit = (rep.matrix == 1).astype(np.int64)
    h = FiniteMetricGraph(unit)
    assert (h.dist == rep.matrix).all()
    assert is_metrically_homogeneous(h).homogeneous


def test_crown_4_has_no_nontrivial_twist():
    g = crown_graph(4)
    for t in [Twist(p) for p in
              [(1, 3, 2), (2, 1, 3), (3, 2, 1), (2, 3, 1), (3, 1, 2)]]:
        rep = apply_twist_metric(g, t)
        assert not rep.valid, t.cycles()
    assert apply_twist_metric(g, identity(3)).valid


def test_crown_4_swap_12_breaks_connectivity():
    rep = apply_twist_metric(crown_graph(4), Twist((2, 1, 3)))
    assert rep.metric_ok
    assert not rep.unit_connected
    assert not rep.valid


def test_twist_delta_must_match_diameter():
    with pytest.raises(DimensionMismatchError):
        apply_twist_metric(cycle_graph(7), identity(4))


def test_metric_violation_witness_in_report():
    # C8 distances twisted by swapping 3 and 4 lose the triangle inequality
    g = cycle_graph(8)
    rep = apply_twist_metric(g, Twist((1, 2, 4, 3)))
    assert not rep.metric_ok
    u, k, v = rep.triangle_witness
    mtx = rep.matrix
    assert mtx[u, k] + mtx[k, v] < mtx[u, v]


def test_twisted_report_json():
    blob = json.loads(apply_twist_metric(cycle_graph(7), mu(7, 2)).to_json())
    assert blob["valid"] is True
    assert len(blob["matrix"]) == 7


def random_connected_graph(seed):
    """A random spanning tree plus random extra edges, 4..14 vertices."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 15))
    adj = np.triu(rng.random((n, n)) < rng.choice([0.1, 0.25, 0.5]), 1)
    order = rng.permutation(n)
    for i in range(1, n):
        u, v = sorted((order[i], order[rng.integers(i)]))
        adj[u, v] = True
    return FiniteMetricGraph(adj | adj.T)


def random_twists(delta, seed, count):
    rng = np.random.default_rng(seed)
    return [Twist(tuple(int(x) + 1 for x in rng.permutation(delta)))
            for _ in range(count)]


def assert_report_matches_oracle(g, twist):
    rep = apply_twist_metric(g, twist)
    want = oracles.twisted_report(g.dist.tolist(), twist.images)
    assert rep.matrix.tolist() == want["matrix"]
    for field in ("valid", "metric_ok", "triangle_witness", "unit_connected",
                  "geodesics_ok", "missing_geodesic"):
        assert getattr(rep, field) == want[field], (field, twist.images)
    assert set(rep.realized.members()) == want["realized"]
    assert rep.realized == image_set(graph_triangle_set(g), twist)
    return rep


@pytest.mark.parametrize("n", range(3, 31))
def test_cycle_reports_match_plain_loop_oracle(n):
    g = cycle_graph(n)
    units = {mu(n, k) for k in range(1, n) if np.gcd(k, n) == 1}
    for t in sorted(units, key=lambda t: t.images) + random_twists(n // 2, n, 3):
        assert_report_matches_oracle(g, t)


@pytest.mark.parametrize(
    "build",
    [icosahedron, petersen, law_breaker, lambda: crown_graph(4),
     lambda: crown_graph(5), lambda: rook_graph(3), lambda: rook_graph(4),
     lambda: johnson_graph(5, 2), lambda: johnson_graph(6, 3),
     lambda: complete_multipartite([2, 2, 2]), lambda: complete_multipartite([3, 3])],
    ids=["ico", "petersen", "law-breaker", "crown4", "crown5", "rook3", "rook4",
         "J52", "J63", "K222", "K33"],
)
def test_named_graph_reports_match_plain_loop_oracle(build):
    g = build()
    for images in itertools.permutations(range(1, g.diameter + 1)):
        assert_report_matches_oracle(g, Twist(images))


def test_random_graph_reports_match_plain_loop_oracle():
    verdicts = set()
    for seed in range(40):
        g = random_connected_graph(seed)
        for t in random_twists(g.diameter, seed, 3):
            rep = assert_report_matches_oracle(g, t)
            verdicts.add((rep.metric_ok, rep.unit_connected, rep.geodesics_ok))
    # the draws reach each flag both ways
    for i in range(3):
        assert {flags[i] for flags in verdicts} == {True, False}


def twists_sending_to_one(delta, j, seed, count):
    """count seeded twists of 1..delta with σ(j) = 1, the rest shuffled."""
    rng = np.random.default_rng(seed)
    twists = []
    for _ in range(count):
        images = [int(x) + 2 for x in rng.permutation(delta - 1)]
        images.insert(j - 1, 1)
        twists.append(Twist(images))
    return twists


def test_unit_connectivity_memo_is_exact():
    # C12's distance-j graph is connected exactly when gcd(j, 12) = 1, so
    # j = 2, 3, 4, 6 leave it split.  Twists sharing σ⁻¹(1) share a memo
    # entry; the first two share σ(1) = 2 but not σ⁻¹(1), and must not.
    twists = [Twist((2, 1, 3, 4, 5, 6)), Twist((2, 3, 4, 5, 1, 6))]
    for j in range(1, 7):
        twists += twists_sending_to_one(6, j, j, 4)
    g = cycle_graph(12)
    for order in (twists, twists[::-1]):
        fresh = cycle_graph(12)
        for t in order:
            assert_report_matches_oracle(g, t)
            assert_report_matches_oracle(fresh, t)
    want = {1: True, 2: False, 3: False, 4: False, 5: True, 6: False}
    assert g._class_connected == want
    for copied in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert copied._class_connected == {}
        for t in twists[::-1]:
            assert_report_matches_oracle(copied, t)
        assert copied._class_connected == want
    with pytest.raises(AttributeError):
        g._class_connected = {}


def assert_unit_connectivity_matches_rebuild(g, twist):
    # FiniteMetricGraph's own all-pairs BFS decides the unit graph afresh
    rep = apply_twist_metric(g, twist)
    try:
        FiniteMetricGraph(rep.matrix == 1)
        built = True
    except DisconnectedGraphError:
        built = False
    assert rep.unit_connected == built, twist.images
    return rep.unit_connected


@pytest.mark.parametrize("n", [*range(31, 65), 127])
def test_cycle_unit_connectivity_past_the_oracle(n):
    g = cycle_graph(n)
    units = {mu(n, k) for k in range(1, n) if np.gcd(k, n) == 1}
    for t in sorted(units, key=lambda t: t.images):
        assert assert_unit_connectivity_matches_rebuild(g, t)
    for t in random_twists(n // 2, n, 3):
        assert_unit_connectivity_matches_rebuild(g, t)


@pytest.mark.parametrize(
    "build,connected",
    [(lambda: crown_graph(12), (True, False, False)),
     (lambda: johnson_graph(7, 3), (True, True, True)),
     (lambda: rook_graph(5), (True, True))],
    ids=["crown12", "J73", "rook5"],
)
def test_named_graph_unit_connectivity_past_the_oracle(build, connected):
    # connected[j - 1]: whether the distance-j graph is connected
    g = build()
    for images in itertools.permutations(range(1, g.diameter + 1)):
        got = assert_unit_connectivity_matches_rebuild(g, Twist(images))
        assert got == connected[images.index(1)]


def test_graph_triangle_set_is_cached_on_the_graph(monkeypatch):
    calls = []
    sweep = finite_graphs._triples_of_matrix
    monkeypatch.setattr(
        finite_graphs, "_triples_of_matrix",
        lambda m, delta: calls.append(delta) or sweep(m, delta),
    )
    g = petersen()
    assert calls == []  # building the graph does no triple work
    ts = graph_triangle_set(g)
    assert graph_triangle_set(g) is ts
    apply_twist_metric(g, Twist((2, 1)))
    assert calls == [2]
    with pytest.raises(AttributeError):
        g.x = 1
    with pytest.raises(AttributeError):
        g._triples = None
    h = relabel(g, 3)
    own = graph_triangle_set(h)
    assert own is not ts
    assert calls == [2, 2]
    assert set(own.members()) == oracles.vertex_triples(h.dist.tolist())


def test_twist_grade_memory_is_quadratic():
    # after one warm-up call (graph triple set, alphabet tables and the
    # twist's rank table cached) a grade holds a few n x n arrays; the n**3
    # int64 sums array of a full three-index sweep is 1 MB alone at n = 50
    g = cycle_graph(50)
    bound = 16 * g.n * g.n * 8
    for t in (mu(50, 7), *random_twists(25, 5, 2)):
        apply_twist_metric(g, t)
        tracemalloc.start()
        try:
            apply_twist_metric(g, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (t.images, peak)


# ---------------------------------------------------------------------------
# the antipodal law


def test_antipodal_law_verdicts():
    assert check_antipodal_law(icosahedron()).verdict == "holds"
    assert check_antipodal_law(crown_graph(5)).verdict == "holds"
    assert check_antipodal_law(cycle_graph(8)).verdict == "holds"
    assert check_antipodal_law(cycle_graph(7)).verdict == "not-antipodal"
    assert check_antipodal_law(rook_graph(3)).verdict == "not-antipodal"


def test_antipodal_law_failure_is_witnessed():
    g = law_breaker()
    rep = check_antipodal_law(g)
    assert rep.antipodal
    assert rep.verdict == "fails"
    u, v, got, want = rep.witness
    partner = rep.pairing[u]
    assert g.dist[u, partner] == g.diameter
    assert g.dist[partner, v] == got
    assert g.diameter - g.dist[u, v] == want
    assert got != want


def test_antipodal_pairing_is_an_involution():
    rep = check_antipodal_law(icosahedron())
    pairing = list(rep.pairing)
    for u, v in enumerate(pairing):
        assert pairing[v] == u
        assert u != v


# ---------------------------------------------------------------------------
# diameter-2 complement twisting


# The 1<->2 swap sends distance 2 to 1, so its unit graph is the
# complement; it is a twist of the graph when that complement is
# connected, its path metric is the swapped one, and it is homogeneous.

SWAP = Twist((2, 1))


def swapped_graph(g):
    rep = apply_twist_metric(g, SWAP)
    h = FiniteMetricGraph(rep.matrix == 1)
    assert rep.valid and (h.dist == rep.matrix).all()
    assert is_metrically_homogeneous(h).homogeneous
    return h


def test_complement_twist_of_c5():
    assert is_isomorphic(swapped_graph(cycle_graph(5)), cycle_graph(5))


def test_complement_twist_of_cocktail_party():
    # K2,2,2's complement is a perfect matching
    rep = apply_twist_metric(complete_multipartite([2, 2, 2]), SWAP)
    assert not rep.unit_connected and not rep.valid
    with pytest.raises(DisconnectedGraphError):
        FiniteMetricGraph(rep.matrix == 1)


def test_complement_twist_of_rook_3():
    assert is_isomorphic(swapped_graph(rook_graph(3)), rook_graph(3))  # self-complementary


def test_complement_twist_requires_diameter_2():
    with pytest.raises(DimensionMismatchError):
        apply_twist_metric(cycle_graph(7), SWAP)


# ---------------------------------------------------------------------------
# triangle sets of concrete graphs


def test_cycle_7_triangle_set_derives_but_is_no_rule_set():
    ts = graph_triangle_set(cycle_graph(7))
    assert set(ts.members()) == {(1, 1, 2), (1, 2, 3), (1, 3, 3), (2, 2, 3)}
    res = derive_parameters(ts)
    # the numbers come out but the fiber laws flag the set as no rule set
    assert (res.k1, res.k2, res.c0, res.c1) == (3, 3, 8, 9)
    assert not res.is_clean
    assert set(res.anomalies) == {"fiber-structure", "fiber-connectivity"}
    p = ParameterTuple.from_c_values(3, 3, 3, 8, 9)
    assert res.matches(p)
    # the rule set for those numbers realizes more triples than the cycle
    rule = realized_set(p)
    assert set(ts.members()) < set(rule.members())
    assert not is_self_consistent(p)


def test_icosahedron_triangle_set_is_the_tau0_row():
    ts = graph_triangle_set(icosahedron())
    p = derive_parameters(ts).to_params()
    assert p == ParameterTuple.from_c_values(3, 1, 2, 7, 8)
    assert is_self_consistent(p)
    assert realized_set(p).members() == ts.members()
    # catalog and concrete graph agree on the unique twist
    v = check_twistable(p, tau(3, 0))
    assert v.twistable
    assert tau(3, 0) == Twist((2, 1, 3))


def test_triangle_sets_agree_with_plain_loop_oracle():
    cases = [(g, None) for g in (cycle_graph(7), crown_graph(5), rook_graph(3),
                                 icosahedron(), johnson_graph(6, 3))]
    cases += [(cycle_graph(13), mu(13, k)) for k in (2, 3, 5)]
    cases += [(icosahedron(), Twist((1, 3, 2))), (crown_graph(4), Twist((2, 1, 3)))]
    for g, twist in cases:
        if twist is None:
            m, ts = g.dist, graph_triangle_set(g)
        else:
            rep = apply_twist_metric(g, twist)
            m, ts = rep.matrix, rep.realized
        assert set(ts.members()) == oracles.vertex_triples(m.tolist())


def test_homogeneous_graphs_derive_cleanly():
    for g in (cycle_graph(6), cycle_graph(8), crown_graph(4), icosahedron(),
              johnson_graph(6, 3)):
        res = derive_parameters(graph_triangle_set(g))
        assert res.is_clean
        assert res.delta == g.diameter
    # even cycles are bipartite rows
    res = derive_parameters(graph_triangle_set(cycle_graph(8)))
    assert (res.k1, res.k2) == (INFINITY, 0)
    # odd cycles past the pentagon are too thin to be rule sets
    res9 = derive_parameters(graph_triangle_set(cycle_graph(9)))
    assert not res9.is_clean


@pytest.mark.parametrize("n", [7, 9, 11, 21])
def test_odd_cycles_are_homogeneous_outside_the_generic_catalog(n):
    # the fiber rules describe the generic catalog: in C_{2δ+1} the two
    # vertices at distance δ from a vertex are adjacent, so its fiber
    # skips 2, yet the prefix tree proves the cycle homogeneous
    g = cycle_graph(n)
    res = derive_parameters(graph_triangle_set(g))
    assert res.anomalies == ("fiber-structure", "fiber-connectivity")
    hom = is_metrically_homogeneous(g)
    assert hom.homogeneous and hom.complete


# ---------------------------------------------------------------------------
# antipodal covers


def test_rook_3_cover_is_johnson():
    rep = find_antipodal_cover(rook_graph(3))
    assert rep.winners == ("johnson-6-3",)
    by_rule = {c.rule: c for c in rep.candidates}
    winner = by_rule["johnson-6-3"]
    assert winner.accepted()
    assert winner.antipodal and winner.law_verdict == "holds"
    assert winner.locally_base and winner.homogeneous


def test_c5_cover_is_the_icosahedron():
    rep = find_antipodal_cover(cycle_graph(5))
    assert rep.winners == ("icosahedron",)


def test_cover_winners_over_the_atlas():
    # every connected graph on 2 to 7 vertices: only C5 has a winner
    nx = pytest.importorskip("networkx")
    won = {}
    for i, base in enumerate(nx.graph_atlas_g()):
        if 2 <= base.number_of_nodes() <= 7 and nx.is_connected(base):
            winners = find_antipodal_cover(FiniteMetricGraph(nx.to_numpy_array(base) > 0)).winners
            if winners:
                won[i] = winners
    assert len(won) == 1
    (i, winners), = won.items()
    assert winners == ("icosahedron",)
    assert is_isomorphic(nx.to_numpy_array(nx.graph_atlas(i)) > 0, cycle_graph(5))
    assert find_antipodal_cover(rook_graph(3)).winners == ("johnson-6-3",)


def test_cover_report_json():
    rep = find_antipodal_cover(rook_graph(3))
    blob = json.loads(rep.to_json())
    assert blob["base_n"] == 9
    assert blob["winners"] == ["johnson-6-3"]
    assert len(blob["candidates"]) == len(rep.candidates)


# find_antipodal_cover(base).to_json(): (base_n, winners, one row per
# candidate with rule, n, diameter, antipodal, law_verdict, locally_base,
# homogeneous).  Every value is the one the search gave when it compared
# every neighborhood with the base and also graded a layered rule.
COVER_REPORTS = {
    "C4": (lambda: cycle_graph(4), 4, (), [
        ("icosahedron", 12, 3, True, "holds", False, None),
        ("johnson-6-3", 20, 3, True, "holds", False, None),
    ]),
    "C5": (lambda: cycle_graph(5), 5, ("icosahedron",), [
        ("icosahedron", 12, 3, True, "holds", True, True),
        ("johnson-6-3", 20, 3, True, "holds", False, None),
    ]),
    "C6": (lambda: cycle_graph(6), 6, (), [
        ("icosahedron", 12, 3, True, "holds", False, None),
        ("johnson-6-3", 20, 3, True, "holds", False, None),
    ]),
    "K3,3": (lambda: complete_multipartite([3, 3]), 6, (), [
        ("icosahedron", 12, 3, True, "holds", False, None),
        ("johnson-6-3", 20, 3, True, "holds", False, None),
    ]),
    "K2,2,2": (lambda: complete_multipartite([2, 2, 2]), 6, (), [
        ("icosahedron", 12, 3, True, "holds", False, None),
        ("johnson-6-3", 20, 3, True, "holds", False, None),
    ]),
    "rook3": (lambda: rook_graph(3), 9, ("johnson-6-3",), [
        ("icosahedron", 12, 3, True, "holds", False, None),
        ("johnson-6-3", 20, 3, True, "holds", True, True),
    ]),
    "rook4": (lambda: rook_graph(4), 16, (), [
        ("icosahedron", 12, 3, True, "holds", False, None),
        ("johnson-6-3", 20, 3, True, "holds", False, None),
    ]),
    "crown4": (lambda: crown_graph(4), 8, (), [
        ("icosahedron", 12, 3, True, "holds", False, None),
        ("johnson-6-3", 20, 3, True, "holds", False, None),
    ]),
}

COVER_FIELDS = (
    "rule", "n", "diameter", "antipodal", "law_verdict", "locally_base", "homogeneous",
)


@pytest.mark.parametrize("name", list(COVER_REPORTS))
def test_cover_reports_are_pinned(name):
    build, base_n, winners, rows = COVER_REPORTS[name]
    want = {
        "base_n": base_n,
        "winners": list(winners),
        "candidates": [dict(zip(COVER_FIELDS, row)) for row in rows],
    }
    assert json.loads(find_antipodal_cover(build()).to_json()) == want


def test_transitive_cover_checks_one_neighborhood(monkeypatch):
    # J(6,3) and the icosahedron are the only candidates over rook:3 and
    # C5 whose vertex 0 has a neighborhood of the base's size, and vertex
    # 0's neighborhood is the only one compared
    calls = []
    real = finite_graphs.is_isomorphic

    def spy(a, b):
        calls.append(len(a))
        return real(a, b)

    monkeypatch.setattr(finite_graphs, "is_isomorphic", spy)
    for base in (rook_graph(3), cycle_graph(5)):
        calls.clear()
        assert find_antipodal_cover(base).winners
        assert calls == [base.n]


@pytest.mark.parametrize("max_states", [DEFAULT_STATE_BUDGET, 1])
def test_cover_grade_checks_every_neighborhood_of_an_intransitive_cover(max_states):
    # In the paw, vertex 0's neighborhood is an edge but vertex 3's is a
    # single vertex.  locally_base reads vertex 0 alone, so the paw passes
    # it; the homogeneity search then speaks for the other neighborhoods:
    # it refutes the paw, or passes its budget and raises, and never
    # proves it homogeneous, so an intransitive candidate cannot win.
    paw = from_edge_list("0 1\n0 2\n1 2\n2 3\n")
    edge = FiniteMetricGraph([[0, 1], [1, 0]])
    assert finite_graphs._locally_base(paw, edge)
    assert not finite_graphs._locally_base(from_edge_list("0 1\n1 2\n2 3\n"), edge)
    if max_states == 1:
        with pytest.raises(BudgetError):
            is_metrically_homogeneous(paw, cap=paw.n, max_states=max_states)
    else:
        res = is_metrically_homogeneous(paw, cap=paw.n, max_states=max_states)
        assert not res.homogeneous and res.complete
        validate_homogeneity_witness(paw, res.witness)


def test_cover_grade_budget_error_stands_when_every_neighborhood_passes():
    # the icosahedron is locally C5 and has no twins, so its search
    # walks from the root and passes a budget of one state
    rep = find_antipodal_cover(cycle_graph(5))
    assert rep.candidates[0].locally_base and rep.candidates[0].homogeneous
    with pytest.raises(BudgetError):
        find_antipodal_cover(cycle_graph(5), max_states=1)


def test_rook_3_complement_double_cover_is_refuted():
    # two copies of rook:3, u in one joined to the distinct non-neighbours
    # of u in the other: antipodal with the reflected law, yet the search
    # refutes it, with a witness that replays
    base = rook_graph(3).adjacency
    cross = ~base & ~np.eye(9, dtype=bool)
    g = FiniteMetricGraph(np.block([[base, cross], [cross, base]]))
    assert g.n == 18
    assert check_antipodal_law(g).verdict == "holds"
    res = is_metrically_homogeneous(g)
    assert not res.homogeneous
    validate_homogeneity_witness(g, res.witness)


# ---------------------------------------------------------------------------
# serialization


def test_edge_list_roundtrip():
    for g in (cycle_graph(6), crown_graph(4), icosahedron()):
        text = to_edge_list(g)
        again = from_edge_list(text)
        assert (again.adjacency == g.adjacency).all()
    assert to_edge_list(cycle_graph(3)) == "0 1\n0 2\n1 2\n"


def test_adjacency_json_roundtrip():
    g = crown_graph(3)
    blob = json.loads(to_adjacency_json(g))
    assert blob["n"] == 6
    again = from_adjacency_json(to_adjacency_json(g))
    assert (again.adjacency == g.adjacency).all()


def test_from_edge_list_rejects_garbage():
    with pytest.raises(InvalidInputError):
        from_edge_list("")
    with pytest.raises(InvalidInputError):
        from_edge_list("0 0\n")
    with pytest.raises(InvalidInputError):
        from_edge_list("0 x\n")
    with pytest.raises(InvalidInputError):
        from_edge_list("0\n")


def test_load_graph_file(tmp_path):
    edge_path = tmp_path / "g.txt"
    edge_path.write_text(to_edge_list(cycle_graph(5)))
    assert load_graph_file(str(edge_path)).n == 5
    json_path = tmp_path / "g.json"
    json_path.write_text(to_adjacency_json(crown_graph(3)))
    assert load_graph_file(str(json_path)).n == 6
