"""The homogeneity search: greedy automorphism walks over a tree of prefixes.

A finite metric space is homogeneous exactly when every partial
isometry extends by one point, for then any partial isometry grows
point by point into a total one, an automorphism.  The search decides
this orbit by orbit, with individualization as in McKay & Piperno,
*Practical graph isomorphism II* (2014), but with no stabilizer chain:
greedy walks build the automorphisms it needs.

The tree.  A node is a pair (P, A): P is a tuple of individualized
vertices, A a set of allowed vertices.  The vertices of A are grouped
by their distances to P; each group is a class, and the classes are
ordered by their least member.  The root is P = (), A = every vertex,
one class.  For each class T with two or more members, not all of them
twins (see Twins), and least member r, a walk starts from P↦P, r↦x for
every other member x of T.  A walk extends its map over the remaining
vertices in increasing order, each time taking the first image that
keeps every distance to the domain; the walks of a node run in
lockstep, one comparison per step.  A walk that finds no image is
stuck.  When every walk completes, each ends in an automorphism that
fixes P and sends r to x, so T is one orbit of the automorphisms that
fix P, and T gets the child (P+(r,), the members of T and of every
later class, minus r).  Children are searched depth first, in class
order; singleton classes and classes of twins get no node.  The root's
walks, or its transpositions when its class is one of twins (K_n),
send 0 to every other vertex: the transversal whose size the search
reports as automorphisms.

Why it is exact.  In a homogeneous space every partial isometry
extends by one point, so no walk gets stuck, and a stuck walk's map is
a witness in the graph's own labels.  Conversely, let every walk
complete.  An automorphism that fixes P keeps distances to P, so it
keeps each class as a set and fixes the vertex of every singleton
class; A is made of whole classes of the parent node less the parent's
new point, so by induction it keeps A too.  Call a partial isometry f
reduced at a node when f fixes P and every domain point outside A,
every automorphism that fixes P fixes those points too, and f maps the
domain points in A into A.  Every f is reduced at the root; by
induction on its domain points outside P, each reduced f extends to an
automorphism.  A domain point in a singleton class is fixed by f,
which keeps distances to P, so when no class with two or more members
holds a domain point f is the identity on its domain.  Else take the
first one, T, that holds a domain point a, with least member r: f(a)
lies in T as well.  If T is not a class of twins, walks give
automorphisms g, h that fix P with g(r) = a and h(r) = f(a) (the
identity where a or f(a) is r).  Then h⁻¹∘f∘g is reduced at the child
of T, whose prefix holds one more point, so it extends to some α, and
h∘α∘g⁻¹ extends f.  The class order makes each domain set reduce along
one path rather than along each ordering of it: without it, crown:15
labelled around Z_30 (the circulant on ±1, ±3, …, ±13) takes 2,561
nodes and 176,436 states instead of 92 nodes and 13,036 states.

Twins.  Two vertices are twins when they are at the same distance from
every third vertex.  This is an equivalence, mutual twins are all at
one distance from each other, and so every permutation of a set of
mutual twins that fixes the other vertices is an automorphism.  _twins
finds them once per search.  A class T of mutual twins needs no walks:
for each other member x, the transposition (r x) is an automorphism
that fixes P and sends r to x.  It needs no child either.  When T is
the class taken above, some permutation σ of T makes σ∘f fix the
domain points in T, and σ∘f without them is reduced at the same node
with fewer domain points, so it extends to some α.  α fixes P and so
keeps T as a set; with τ the permutation of T that undoes α on T, τ∘α
fixes T pointwise and extends σ∘f, and σ⁻¹∘τ∘α extends f.  The child
would repeat its siblings: for any automorphism g that fixes P, the
product (r g(r))∘g fixes P+(r,) and acts as g outside T.  This cuts
K12,12 from 133 nodes and 11,497 states to 2 nodes and 530 states.

Early finish.  Each walk keeps the candidates of every vertex it has
still to place: the images that keep that vertex's distances to the
map so far.  Before step j, when the node's w walks hold w·(n−j)
candidates in all and the map F that sends each such vertex to its
first candidate keeps every distance, the walks stop, and their n−j
remaining steps each are counted as states.  The count is exact: if F
keeps every distance, each vertex's image under F keeps its distances
to the domain and is a candidate, so each vertex has exactly one.  The
greedy walk would take just F: its next vertex has one candidate, its
image under F, and as F is an isometry each later vertex's image under
F keeps its distance to that one too and stays its only candidate.  So
verdicts, states, automorphisms and witnesses are those of the walk
that places every vertex.  A count that matches while F is no isometry
(a vertex with no candidate and another with two, or a forced map that
is no bijection) lets the walks step on.  One candidate per vertex
means the domain resolves the graph (a metric basis: Slater 1975;
Harary & Melter 1976).  A resolving set holds all twins but one of
each twin class (see Twins), so on graphs with large twin classes the
walks seldom finish early.

States.  The search counts one state for the result and one per walk
step, all against one budget; a node's walks are checked against it
before they start.  A node's arrays hold n entries per pair of walk
and vertex, and the stack holds at most n children per level on at
most n levels.  A child on the stack holds its parent's n×n matrix of
the pairs at the same distances from the prefix and narrows it by one
AND when popped, so the matrices alive lie along one path, at most n
of them; with the search's one table of d(x, b) = e, memory grows as
n³ whatever the number of states.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetError

#: states explored before the homogeneity search gives up
DEFAULT_STATE_BUDGET = 30_000_000


def _budget_error(max_states: int, n: int) -> BudgetError:
    return BudgetError(
        f"homogeneity search passed {max_states} states on {n} vertices; raise max_states"
    )


def _walks(dist, at, same, prefix, doms, targets, states, max_states):
    """Greedy walks from prefix↦prefix, doms[w, 0]↦targets[w], in lockstep.

    doms[w] holds the vertices outside prefix: walk w's root, then the
    rest in increasing order.  Walk w extends its map over the rest in
    that order, giving each the first image that keeps its distances to
    the domain.  Each walk's step is one state, and the budget is
    checked for all the steps before the first.  at[x, e, b] says
    d(x, b) = e, and same[a, b] that a and b are at the same distances
    from every prefix point.  cand[p, w, b] says b keeps the distances
    from the p-th vertex that walk w has still to place to its map so
    far: each step places the first and narrows the rest with one
    comparison against the new image.  When the candidates force every
    walk's remaining images and those keep every distance (_resolved),
    the walks finish at once and their remaining steps count as states
    (see Early finish).  Returns (states, None) when every walk
    completes, else (states, (doms, imgs, stuck)) for the first walk
    stuck at the first step where any is, prefix included.
    """
    w, m = doms.shape
    if states + w * (m - 1) > max_states:
        raise _budget_error(max_states, dist.shape[0])
    imgs = np.empty_like(doms)
    imgs[:, 0] = targets
    # want[i, p, w]: the distance between walk w's i-th and p-th vertices
    want = dist[doms.T[:, None, :], doms.T[None, :, :]]
    # every walk fixes the prefix, so b keeps the distances to it when
    # it is at the same distances from it as the vertex
    cand = same[doms[:, 1:].T]
    cand &= at[targets, want[0, 1:]]
    for j in range(1, m):
        if np.count_nonzero(cand) == w * (m - j) and _resolved(dist, imgs, want, cand, j):
            return states + w * (m - j), None
        states += w
        fits = cand[0]
        found = fits.any(axis=1)
        if not found.all():
            s = int(np.argmin(found))
            witness = prefix + tuple(doms[s, :j].tolist()), prefix + tuple(imgs[s, :j].tolist())
            return states, (*witness, int(doms[s, j]))
        imgs[:, j] = fits.argmax(axis=1)
        cand = cand[1:]
        cand &= at[imgs[:, j], want[j, j + 1 :]]
    return states, None


def _resolved(dist, imgs, want, cand, j):
    """Whether each walk's positions j.. have one candidate each, which keep every distance.

    The caller has counted w·(m−j) candidates for the positions j..,
    so one each when no position has none.  Every candidate keeps the
    distances to the prefix, so only the positions past it are
    compared.  Fills imgs[:, j:] with the first candidates, which the
    steps overwrite when this does not hold.
    """
    if not cand.any(axis=2).all():
        return False
    imgs[:, j:] = cand.argmax(axis=2).T
    return bool((dist[imgs.T[:, None, :], imgs.T[None, :, :]] == want).all())


def _twins(at):
    """twin[v]: the least of v and its twins; None when no two vertices are twins.

    rows[u] · rows[v] counts the b with d(u, b) = d(v, b), n for u = v;
    distinct u and v differ at b = u and b = v, and are twins when they
    agree on the other n − 2.  float32 counts are exact below 2^24, and
    einsum skips the first BLAS call's memory.
    """
    n = at.shape[0]
    rows = at.reshape(n, -1).astype(np.float32)
    twins = np.einsum("ik,jk->ij", rows, rows) >= n - 2
    return twins.argmax(axis=1).tolist() if np.count_nonzero(twins) > n else None


def _prefix_tree(dist, states, max_states):
    """Run every node's walks, depth first; stop at the first stuck walk.

    A node is (prefix, allowed, cls, above): allowed is a sorted list,
    cls[i] is the class of allowed[i], numbered by least member, and
    above is the parent's same-distance matrix (all True at the root),
    which the node narrows by its last prefix point.  Returns (states,
    automorphisms, witness): automorphisms is n-1 when the root's walks
    complete and 0 when one of them is stuck, and witness is None when
    every walk completes.
    """
    n = dist.shape[0]
    at = dist[:, None, :] == np.arange(dist.max() + 1)[None, :, None]
    twin = _twins(at)
    # lift[q]: q, then 0..n-1 without q, so free[lift[q, :m]] puts free[q] first
    t = np.arange(n)
    lift = t - ((t > 0) & (t <= t[:, None]))
    lift[:, 0] = t
    stack = [((), list(range(n)), [0] * n, np.ones((n, n), dtype=bool))]
    while stack:
        prefix, allowed, cls, above = stack.pop()
        # roots[c]: class c's least member; split: the classes with two or more
        roots, split, walk_roots, targets = [], set(), [], []
        for v, c in zip(allowed, cls):
            if c == len(roots):
                roots.append(v)
            else:
                split.add(c)
                walk_roots.append(roots[c])
                targets.append(v)
        if twin is not None:
            # a class of mutual twins gets no walks and no child (see Twins)
            split = {c for v, c in zip(allowed, cls) if twin[v] != twin[roots[c]]}
            keep = {roots[c] for c in split}
            targets = [x for r, x in zip(walk_roots, targets) if r in keep]
            walk_roots = [r for r in walk_roots if r in keep]
        if not targets:
            continue
        same = above & at[prefix[-1], dist[prefix[-1]]] if prefix else above
        free = np.array([v for v in range(n) if v not in prefix])
        doms = free[lift[np.searchsorted(free, walk_roots), : free.size]]
        states, witness = _walks(
            dist, at, same, prefix, doms, np.array(targets), states, max_states
        )
        if witness is not None:
            return states, (n - 1 if prefix else 0), witness
        children = []
        for c in sorted(split):
            r = roots[c]
            i = allowed.index(r) + 1
            # the later classes' members all follow r; refine them by
            # distance to r, renumbered by least member
            sub, sub_cls, ids, row = [], [], {}, dist[r].tolist()
            for v, k in zip(allowed[i:], cls[i:]):
                if k >= c:
                    sub.append(v)
                    sub_cls.append(ids.setdefault(k * n + row[v], len(ids)))
            # a child whose classes are all singletons has no walks
            if len(ids) < len(sub):
                children.append((prefix + (r,), sub, sub_cls, same))
        stack.extend(reversed(children))
    return states, n - 1, None


def homogeneity_search(dist, max_states: int = DEFAULT_STATE_BUDGET):
    """Run the one-point extension search over a distance matrix.

    Returns (ok, states, automorphisms, witness): witness is None on
    success and (doms, imgs, stuck_vertex) on failure; automorphisms is
    the number of root walks that completed, n-1 when all of them did
    and 0 when one got stuck.  Raises BudgetError when the state budget
    runs out before an answer is reached.
    """
    d = np.ascontiguousarray(dist, dtype=np.int64)
    states, automorphisms, witness = _prefix_tree(d, 1, max_states)
    return witness is None, states, automorphisms, witness
