"""Finite graphs: path metrics, homogeneity, and twisted metrics.

Everything here works on concrete vertex sets, complementing the
catalog modules that work on distance alphabets alone.  A graph is
held with its full all-pairs path metric; twists act on that metric
pointwise and the reports say whether the image is again a graph-like
metric.  The homogeneity check proves or refutes one-point extension
one stabilizer orbit at a time, with greedy automorphism walks over a
tree of individualized vertices.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from ._backend import DEFAULT_STATE_BUDGET, homogeneity_search
from .errors import (
    BudgetError,
    DimensionMismatchError,
    DisconnectedGraphError,
    InvalidInputError,
)
from .permutations import Twist
from .triangle_catalog import (
    TriangleSet,
    _tables,
    contains_geodesics,
    image_set,
    is_metric,
)

#: ordered vertex triples marked per block by _triples_of_matrix
_TRIPLE_CHUNK = 1 << 16

#: vertices a Johnson graph or a loaded graph file may have
_MAX_VERTICES = 512


def _bfs_all_pairs(adj: np.ndarray) -> np.ndarray:
    """BFS from every source at once, one matrix product per level.

    Row s of the frontier flags the vertices first reached from s at the
    current level; float32 path counts stay exact far past any graph
    size held here, so a positive count is exactly reachability.
    """
    n = adj.shape[0]
    step = adj.astype(np.float32)
    dist = np.full((n, n), -1, dtype=np.int64)
    frontier = np.eye(n, dtype=bool)
    level = 0
    while frontier.any():
        dist[frontier] = level
        level += 1
        frontier = ((frontier.astype(np.float32) @ step) > 0) & (dist < 0)
    if (dist < 0).any():
        u = int(np.argwhere(dist < 0)[0][1])
        raise DisconnectedGraphError(f"vertex {u} is unreachable from vertex 0")
    return dist


class FiniteMetricGraph:
    """Connected undirected graph with its all-pairs path metric.

    Built from a square boolean adjacency matrix: symmetric, zero
    diagonal.  Exposes n, adjacency, dist, diameter; the arrays are
    frozen after construction.  _triples holds the triple set once
    graph_triangle_set has computed it.  _class_connected maps a
    distance j to whether the distance-j graph (u ~ v when d(u, v) = j)
    is connected, filled one j at a time as twisted-metric grades ask.
    """

    __slots__ = ("n", "adjacency", "dist", "diameter", "_triples", "_class_connected")

    def __init__(self, adjacency):
        adj = np.array(adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise InvalidInputError(f"adjacency must be square, got shape {adj.shape}")
        n = adj.shape[0]
        if n < 1:
            raise InvalidInputError("graph needs at least one vertex")
        if adj.diagonal().any():
            raise InvalidInputError("self loops are not allowed")
        if not (adj == adj.T).all():
            raise InvalidInputError("adjacency must be symmetric")
        dist = _bfs_all_pairs(adj)
        adj.setflags(write=False)
        dist.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "diameter", int(dist.max()))
        object.__setattr__(self, "_triples", None)
        object.__setattr__(self, "_class_connected", {})

    def __setattr__(self, name, value):
        raise AttributeError("FiniteMetricGraph is immutable")

    def __reduce__(self):
        # rebuilt from the adjacency; the caches are recomputed on demand
        return (FiniteMetricGraph, (self.adjacency,))

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(int(x) for x in self.adjacency.sum(axis=1))

    def edges(self) -> list[tuple[int, int]]:
        return [(int(u), int(v)) for u, v in np.argwhere(np.triu(self.adjacency))]

    def __repr__(self):
        return (
            f"FiniteMetricGraph(n={self.n}, edges={int(self.adjacency.sum()) // 2}, "
            f"diameter={self.diameter})"
        )


def cycle_graph(n: int) -> FiniteMetricGraph:
    """The n-cycle, n >= 3."""
    if not isinstance(n, int) or n < 3:
        raise InvalidInputError(f"cycle needs an integer n >= 3, got {n!r}")
    adj = np.zeros((n, n), dtype=bool)
    idx = np.arange(n)
    adj[idx, (idx + 1) % n] = True
    adj[(idx + 1) % n, idx] = True
    return FiniteMetricGraph(adj)


def crown_graph(m: int) -> FiniteMetricGraph:
    """Two sides of m vertices, i on one side joined to all j != i on the other."""
    if not isinstance(m, int) or m < 3:
        raise InvalidInputError(f"crown needs an integer m >= 3, got {m!r}")
    adj = np.zeros((2 * m, 2 * m), dtype=bool)
    adj[:m, m:] = adj[m:, :m] = ~np.eye(m, dtype=bool)
    return FiniteMetricGraph(adj)


def complete_multipartite(sizes) -> FiniteMetricGraph:
    """Complete multipartite graph; edge exactly between different parts."""
    parts = list(sizes)
    if not parts or any(isinstance(s, bool) or not isinstance(s, int) or s < 1 for s in parts):
        raise InvalidInputError(f"part sizes must be positive integers: {sizes!r}")
    n = sum(parts)
    label = np.repeat(np.arange(len(parts)), parts)
    adj = label[:, None] != label[None, :]
    return FiniteMetricGraph(adj)


def rook_graph(m: int) -> FiniteMetricGraph:
    """m x m grid, two cells adjacent when they share a row or column."""
    if not isinstance(m, int) or m < 2:
        raise InvalidInputError(f"rook grid needs an integer m >= 2, got {m!r}")
    row, col = np.divmod(np.arange(m * m), m)
    adj = (row[:, None] == row[None, :]) | (col[:, None] == col[None, :])
    np.fill_diagonal(adj, False)
    return FiniteMetricGraph(adj)


# North pole 0, upper pentagon 1..5, lower pentagon 6..10, south pole 11.
# Upper vertex i sits over the lower edge {6+(i-1)%5, 6+i%5}.
_ICOSAHEDRON_EDGES = (
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
    (1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
    (11, 6), (11, 7), (11, 8), (11, 9), (11, 10),
    (6, 7), (7, 8), (8, 9), (9, 10), (10, 6),
    (1, 6), (1, 7), (2, 7), (2, 8), (3, 8),
    (3, 9), (4, 9), (4, 10), (5, 10), (5, 6),
)


def icosahedron() -> FiniteMetricGraph:
    """The icosahedron: 12 vertices, 30 edges, diameter 3."""
    adj = np.zeros((12, 12), dtype=bool)
    for u, v in _ICOSAHEDRON_EDGES:
        adj[u, v] = True
        adj[v, u] = True
    return FiniteMetricGraph(adj)


def johnson_graph(m: int, t: int) -> FiniteMetricGraph:
    """t-subsets of an m-set, adjacent when they share t-1 elements."""
    if any(isinstance(x, bool) or not isinstance(x, int) for x in (m, t)) or not 1 <= t < m:
        raise InvalidInputError(f"need integers 1 <= t < m, got t={t!r}, m={m!r}")
    n = math.comb(m, t)
    if n > _MAX_VERTICES:
        raise BudgetError(f"{n} subsets is over the {_MAX_VERTICES}-vertex budget")
    # member[s, x]: subset s holds x, subsets in lexicographic order
    member = np.zeros((n, m), dtype=np.int64)
    member[np.arange(n)[:, None], list(itertools.combinations(range(m), t))] = 1
    return FiniteMetricGraph(member @ member.T == t - 1)


def is_isomorphic(a, b) -> bool:
    """Graph isomorphism by backtracking; takes graphs or adjacency arrays."""
    adj_a = a.adjacency if isinstance(a, FiniteMetricGraph) else np.asarray(a, dtype=bool)
    adj_b = b.adjacency if isinstance(b, FiniteMetricGraph) else np.asarray(b, dtype=bool)
    n = adj_a.shape[0]
    if adj_b.shape[0] != n:
        return False
    deg_a = adj_a.sum(axis=1)
    deg_b = adj_b.sum(axis=1)
    if sorted(deg_a) != sorted(deg_b):
        return False
    # most-constrained-first: map high-degree vertices early
    order = sorted(range(n), key=lambda v: -deg_a[v])
    mapping = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)

    def place(pos: int) -> bool:
        if pos == n:
            return True
        u = order[pos]
        for v in range(n):
            if used[v] or deg_a[u] != deg_b[v]:
                continue
            ok = True
            for w in order[:pos]:
                if adj_a[u, w] != adj_b[v, mapping[w]]:
                    ok = False
                    break
            if ok:
                mapping[u] = v
                used[v] = True
                if place(pos + 1):
                    return True
                used[v] = False
                mapping[u] = -1
        return False

    return place(0)


def path_metric(g: FiniteMetricGraph) -> np.ndarray:
    """Copy of the graph's all-pairs shortest path matrix."""
    return g.dist.copy()


def graph_triangle_set(g: FiniteMetricGraph) -> TriangleSet:
    """Sorted distance triples realized by vertex triples of the graph.

    The set is computed on the first call and cached on the graph, so
    later calls return the same object; the graph stays immutable.
    """
    if g.diameter < 1:
        raise InvalidInputError("triple set needs a graph with at least one edge")
    if g._triples is None:
        object.__setattr__(g, "_triples", _triples_of_matrix(g.dist, g.diameter))
    return g._triples


def _distance_class_connected(g: FiniteMetricGraph, j: int) -> bool:
    """Whether the distance-j graph of g is connected, cached on g.

    One closure search from vertex 0 over the rows of dist == j packed
    as Python-int bitsets: each vertex is taken from the to-do set once
    and adds the neighbours not yet reached, so the search is n bitset
    steps over n²/8 packed bytes.
    """
    known = g._class_connected.get(j)
    if known is None:
        packed = np.packbits(g.dist == j, axis=1, bitorder="little")
        width = packed.shape[1]
        data = packed.tobytes()
        reach = todo = 1
        while todo:
            v = (todo & -todo).bit_length() - 1
            todo ^= 1 << v
            new = int.from_bytes(data[v * width : (v + 1) * width], "little") & ~reach
            reach |= new
            todo |= new
        known = reach == (1 << g.n) - 1
        g._class_connected[j] = known
    return known


def _triples_of_matrix(m: np.ndarray, delta: int) -> TriangleSet:
    """Sorted distance triples realized by three distinct vertices.

    Every ordered vertex triple (u, v, w) marks the code of its distances
    (m[u,v], m[u,w], m[v,w]); the six orders of one triple mark all six
    orders of its distances, so reading the marks at the sorted triples
    gives the set.  Codes holding a 0 come from repeated vertices and
    are never read.
    """
    n = m.shape[0]
    base = delta + 1
    seen = np.zeros(base**3, dtype=bool)
    rows = max(1, _TRIPLE_CHUNK // (n * n))
    for u in range(0, n, rows):
        block = m[u : u + rows]
        seen[(block[:, :, None] * base + block[:, None, :]) * base + m[None, :, :]] = True
    tabs = _tables(delta)
    codes = (tabs.triples[:, 0] * base + tabs.triples[:, 1]) * base + tabs.triples[:, 2]
    return TriangleSet.from_bool_array(delta, seen[codes])


@dataclass(frozen=True)
class HomogeneityResult:
    """Outcome of the one-point extension search on one graph.

    complete is always True, since the search decides maps of every
    size; the field stays only because the benchmark in perfbench reads
    it.  witness on failure is (domain vertices, image vertices, vertex
    with no valid image).
    """

    homogeneous: bool
    states: int
    complete: bool
    witness: tuple[tuple[int, ...], tuple[int, ...], int] | None

    def __bool__(self) -> bool:
        return self.homogeneous

    def to_json(self) -> str:
        witness = None
        if self.witness is not None:
            witness = {
                "domain": list(self.witness[0]),
                "image": list(self.witness[1]),
                "stuck": self.witness[2],
            }
        return json.dumps(
            {
                "homogeneous": self.homogeneous,
                "states": self.states,
                "complete": self.complete,
                "witness": witness,
            },
            sort_keys=True,
        )


def _check_count(name: str, value) -> None:
    """Refuse a bound that is not a positive int (a bool is no count)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InvalidInputError(f"{name} must be a positive integer, got {value!r}")


def is_metrically_homogeneous(
    g: FiniteMetricGraph,
    cap: int = 24,
    max_states: int = DEFAULT_STATE_BUDGET,
) -> HomogeneityResult:
    """Decide whether every partial isometry extends to a total one.

    The search individualizes vertices one at a time.  At each prefix P
    it groups the allowed vertices by their distances to P and, for
    each group, greedily walks from the identity on P with the group's
    least member sent to each other member.  A walk that gets stuck
    holds a partial isometry that does not extend: the witness.  If no
    walk gets stuck, every group is one orbit of the automorphisms
    fixing P, and every partial isometry extends to an automorphism
    (see _backend for the proof).  It is exponential in the worst case,
    so graphs above the vertex cap are refused and a state budget
    bounds the search; both raise BudgetError.  cap and max_states
    must be positive ints, else InvalidInputError.
    """
    if not isinstance(g, FiniteMetricGraph):
        raise InvalidInputError(f"expected a FiniteMetricGraph, got {type(g).__name__}")
    _check_count("cap", cap)
    _check_count("max_states", max_states)
    if g.n > cap:
        raise BudgetError(f"graph has {g.n} vertices, over the cap of {cap}")
    ok, states, witness = homogeneity_search(g.dist, max_states=max_states)
    return HomogeneityResult(homogeneous=ok, states=states, complete=True, witness=witness)


@dataclass(frozen=True)
class TwistedMetricReport:
    """A twisted distance matrix and whether it is graph-like again.

    valid means: still a metric, the distance-1 graph is connected,
    and every geodesic triple (1, k, k+1) below the diameter is
    realized.  matrix is always populated.
    """

    matrix: np.ndarray
    valid: bool
    metric_ok: bool
    triangle_witness: tuple[int, int, int] | None
    unit_connected: bool
    geodesics_ok: bool
    missing_geodesic: int | None
    realized: TriangleSet

    def to_json(self) -> str:
        return json.dumps(
            {
                "matrix": self.matrix.tolist(),
                "valid": self.valid,
                "metric_ok": self.metric_ok,
                "triangle_witness": list(self.triangle_witness)
                if self.triangle_witness
                else None,
                "unit_connected": self.unit_connected,
                "geodesics_ok": self.geodesics_ok,
                "missing_geodesic": self.missing_geodesic,
            },
            sort_keys=True,
        )


def apply_twist_metric(g: FiniteMetricGraph, twist: Twist) -> TwistedMetricReport:
    """Relabel the path metric through a twist and grade the result.

    Distinct vertices are never at distance 0, so the twisted metric's
    triple set is the twist's image of the graph's own set: each member
    (a, b, c) becomes sorted (σa, σb, σc).  The metric and geodesic flags
    are read off that image, whose cost is linear in the number of sorted
    triples over 1..δ once the graph's set is cached, whatever n is.
    Only when some image triple breaks the triangle inequality are the
    matrix rows scanned, in order, for the first violating pair (i, j)
    and its least midpoint k, at n² per row.

    For u != v, σ(d(u, v)) = 1 exactly when d(u, v) = σ⁻¹(1), so the
    unit graph of the twisted metric is the graph's own distance-j graph
    with j = σ⁻¹(1), and its connectivity depends on (g, j) alone.  It
    is decided once per j by a bitset search (n steps over n²/8 bytes)
    and cached on the graph, so a grade that repeats a (graph, j) pair
    pays only for the relabelled matrix (n²) and the triple image.
    """
    if not isinstance(g, FiniteMetricGraph):
        raise InvalidInputError(f"expected a FiniteMetricGraph, got {type(g).__name__}")
    if not isinstance(twist, Twist):
        raise InvalidInputError(f"expected a Twist, got {type(twist).__name__}")
    if twist.delta != g.diameter:
        raise DimensionMismatchError(
            f"twist alphabet 1..{twist.delta} does not match graph diameter {g.diameter}"
        )
    lookup = np.array((0,) + twist.images, dtype=np.int64)
    m = lookup[g.dist]
    m.setflags(write=False)

    realized = image_set(graph_triangle_set(g), twist)
    metric_ok = is_metric(realized)[0]
    triangle_witness = None
    if not metric_ok:
        for i in range(g.n):
            sums = m[i][:, None] + m
            bad = np.flatnonzero(sums.min(axis=0) < m[i])
            if bad.size:
                j = int(bad[0])
                triangle_witness = (i, int(np.argmin(sums[:, j])), j)
                break

    unit_connected = _distance_class_connected(g, twist.images.index(1) + 1)

    geodesics_ok, missing = contains_geodesics(realized)

    return TwistedMetricReport(
        matrix=m,
        valid=metric_ok and unit_connected and geodesics_ok,
        metric_ok=metric_ok,
        triangle_witness=triangle_witness,
        unit_connected=unit_connected,
        geodesics_ok=geodesics_ok,
        missing_geodesic=missing,
        realized=realized,
    )


@dataclass(frozen=True)
class AntipodalReport:
    """Whether a graph pairs off antipodally and obeys the distance law.

    verdict is one of "holds", "fails", "not-antipodal".  The law says
    the antipode map reflects every distance: d(u', v) = diam - d(u, v).
    witness on "fails" is (u, v, got, want).
    """

    antipodal: bool
    law_holds: bool | None
    verdict: str
    pairing: tuple[int, ...] | None
    witness: tuple[int, int, int, int] | None

    def to_json(self) -> str:
        return json.dumps(
            {
                "antipodal": self.antipodal,
                "law_holds": self.law_holds,
                "verdict": self.verdict,
                "pairing": list(self.pairing) if self.pairing else None,
                "witness": list(self.witness) if self.witness else None,
            },
            sort_keys=True,
        )


def check_antipodal_law(g: FiniteMetricGraph) -> AntipodalReport:
    """Check unique antipodes and the reflected-distance law; never raises."""
    if not isinstance(g, FiniteMetricGraph):
        raise InvalidInputError(f"expected a FiniteMetricGraph, got {type(g).__name__}")
    d = g.diameter
    far = g.dist == d
    if d < 1 or not (far.sum(axis=1) == 1).all():
        return AntipodalReport(
            antipodal=False, law_holds=None, verdict="not-antipodal",
            pairing=None, witness=None,
        )
    partner = far.argmax(axis=1)
    reflected = g.dist[partner]
    expected = d - g.dist
    if (reflected == expected).all():
        return AntipodalReport(
            antipodal=True, law_holds=True, verdict="holds",
            pairing=tuple(int(x) for x in partner), witness=None,
        )
    u, v = map(int, np.argwhere(reflected != expected)[0])
    return AntipodalReport(
        antipodal=True,
        law_holds=False,
        verdict="fails",
        pairing=tuple(int(x) for x in partner),
        witness=(u, v, int(reflected[u, v]), int(expected[u, v])),
    )


@dataclass(frozen=True)
class CoverCandidate:
    """One candidate construction graded by the cover search."""

    rule: str
    n: int
    diameter: int
    antipodal: bool
    law_verdict: str
    locally_base: bool | None
    homogeneous: bool | None

    def accepted(self) -> bool:
        return (
            self.diameter == 3
            and self.antipodal
            and self.law_verdict == "holds"
            and bool(self.locally_base)
            and bool(self.homogeneous)
        )


@dataclass(frozen=True)
class CoverSearchReport:
    """Outcome of searching cover constructions over one base graph."""

    base_n: int
    candidates: tuple[CoverCandidate, ...]
    winners: tuple[str, ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "base_n": self.base_n,
                "winners": list(self.winners),
                "candidates": [
                    {
                        "rule": c.rule,
                        "n": c.n,
                        "diameter": c.diameter,
                        "antipodal": c.antipodal,
                        "law_verdict": c.law_verdict,
                        "locally_base": c.locally_base,
                        "homogeneous": c.homogeneous,
                    }
                    for c in self.candidates
                ],
            },
            sort_keys=True,
        )


#: candidate constructions, by rule name
_COVER_RULES = {"icosahedron": icosahedron, "johnson-6-3": lambda: johnson_graph(6, 3)}


def _locally_base(cover: FiniteMetricGraph, base: FiniteMetricGraph) -> bool:
    """Vertex 0's neighborhood induces a copy of the base graph."""
    neigh = np.flatnonzero(cover.adjacency[0])
    return neigh.size == base.n and is_isomorphic(cover.adjacency[np.ix_(neigh, neigh)], base)


def find_antipodal_cover(
    g: FiniteMetricGraph,
    max_states: int = DEFAULT_STATE_BUDGET,
) -> CoverSearchReport:
    """Search known constructions for an antipodal diameter-3 cover of g.

    A candidate wins when it has diameter 3, pairs off antipodally with
    the reflected-distance law, induces a copy of the base graph on
    vertex 0's neighborhood, and passes the homogeneity search, so a
    winner is proved homogeneous (J(6,3), the rook:3 cover, takes 1,244
    states).  locally_base reads vertex 0 alone, and the search runs
    only when it holds.  That decides the same winners as comparing
    every neighborhood: a winner is homogeneous, so vertex-transitive,
    and for each vertex some automorphism carries vertex 0's
    neighborhood onto that vertex's.  max_states bounds each candidate's search; it must be a
    positive int, checked before any candidate is built.
    """
    if not isinstance(g, FiniteMetricGraph):
        raise InvalidInputError(f"expected a FiniteMetricGraph, got {type(g).__name__}")
    _check_count("max_states", max_states)
    results = []
    for rule, build in _COVER_RULES.items():
        cover = build()
        anti = check_antipodal_law(cover)
        local = hom = None
        if cover.diameter == 3 and anti.verdict == "holds":
            local = _locally_base(cover, g)
            if local:
                hom = is_metrically_homogeneous(cover, cap=cover.n, max_states=max_states)
        results.append(
            CoverCandidate(
                rule=rule,
                n=cover.n,
                diameter=cover.diameter,
                antipodal=anti.antipodal,
                law_verdict=anti.verdict,
                locally_base=local,
                homogeneous=None if hom is None else hom.homogeneous,
            )
        )
    winners = tuple(c.rule for c in results if c.accepted())
    return CoverSearchReport(base_n=g.n, candidates=tuple(results), winners=winners)


def to_edge_list(g: FiniteMetricGraph) -> str:
    """One "u v" pair per line, 0-indexed, u < v, sorted."""
    return "\n".join(f"{u} {v}" for u, v in g.edges()) + "\n"


def from_edge_list(text: str) -> FiniteMetricGraph:
    """Parse "u v" lines; vertex count is one past the largest label."""
    edges = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InvalidInputError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise InvalidInputError(f"line {lineno}: bad vertex in {line!r}") from exc
        if u < 0 or v < 0:
            raise InvalidInputError(f"line {lineno}: vertices must be >= 0")
        edges.append((u, v))
    if not edges:
        raise InvalidInputError("edge list is empty")
    n = max(max(u, v) for u, v in edges) + 1
    if n > _MAX_VERTICES:
        raise BudgetError(f"edge list names {n} vertices, over the {_MAX_VERTICES}-vertex budget")
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        if u == v:
            raise InvalidInputError(f"self loop at vertex {u}")
        adj[u, v] = True
        adj[v, u] = True
    return FiniteMetricGraph(adj)


def to_adjacency_json(g: FiniteMetricGraph) -> str:
    """JSON object with the vertex count and sorted edge pairs."""
    return json.dumps({"n": g.n, "edges": [[u, v] for u, v in g.edges()]})


def from_adjacency_json(text: str) -> FiniteMetricGraph:
    try:
        data = json.loads(text)
        n = data["n"]
        edges = data["edges"]
    except (json.JSONDecodeError, TypeError, KeyError) as exc:
        raise InvalidInputError(f"bad graph JSON: {text[:80]!r}") from exc
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidInputError(f"bad vertex count {n!r}")
    if n > _MAX_VERTICES:
        raise BudgetError(f"{n} vertices is over the {_MAX_VERTICES}-vertex budget")
    if not isinstance(edges, list):
        raise InvalidInputError(f"edges must be a list, got {type(edges).__name__}")
    adj = np.zeros((n, n), dtype=bool)
    for e in edges:
        if (
            not isinstance(e, list)
            or len(e) != 2
            # a bool is no vertex: numpy would read it as a mask
            or not all(not isinstance(x, bool) and isinstance(x, int) and 0 <= x < n for x in e)
            or e[0] == e[1]
        ):
            raise InvalidInputError(f"bad edge {e!r}")
        adj[e[0], e[1]] = True
        adj[e[1], e[0]] = True
    return FiniteMetricGraph(adj)


def load_graph_file(path: str) -> FiniteMetricGraph:
    """Read a graph file: .json as adjacency JSON, anything else as edges."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read graph file: {exc}") from exc
    if path.endswith(".json"):
        return from_adjacency_json(text)
    return from_edge_list(text)
