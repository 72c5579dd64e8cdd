"""The homogeneity search: one numpy kernel, rooted at the map 0↦0.

A finite metric space is homogeneous exactly when every partial
isometry extends by one point, for then any partial isometry grows
point by point into a total one.  The kernel walks partial isometries
level by level: a state is a pair of rows (doms, imgs) with doms
strictly increasing, and children extend doms only past its maximum,
so each domain-set/map pair has a unique generation path and no
visited-set is needed.  The for-all check at a state still ranges over
every vertex outside the domain.

Normalization.  A partial isometry f extends by one point exactly when
γ∘f∘β does, for automorphisms β and γ, and a homogeneous graph is
vertex-transitive.  So the search first builds a transversal: for each
v in 1..n-1 it extends {0↦v} greedily over the vertices 1, 2, ... in
turn, taking the first image that fits.  Either every walk ends in an
automorphism t_v with t_v(0) = v, or one gets stuck, and a stuck map is
a partial isometry that misses a vertex: a witness in the graph's own
labels.  Given the transversal, a partial isometry f whose least domain
vertex a maps to b becomes t_b⁻¹∘f∘t_a, of the same size and holding
0↦0.  Vertex 0 is the least, so the level walk from the single root
{0↦0} meets that map exactly once, and the walk from that root alone
decides the whole space.

All roots.  With a depth bound d the transversal can get stuck on a map
of more than d points, which says nothing about maps of at most d
points.  Then the kernel runs from all n² one-point maps instead, the
exhaustive walk, and the depth certificate keeps its meaning.  At full
depth a stuck map has at most n-1 points and is always a witness, so
the all-roots walk never runs there.

Forced extensions.  When every vertex has exactly one candidate image
under a partial isometry f, its domain resolves the graph (a metric
basis: Slater 1975; Harary & Melter 1976) and f has at most one total
extension, the map F sending each vertex to its candidate.  If F is a
bijection and an isometry it is an automorphism, and every descendant
of f in the walk is a restriction of F: each added point can only take
its one candidate, which is its image under F.  A restriction of an
automorphism extends by one point, so the subtree below f holds no
stuck map and the kernel builds no children for f, in the single-root
walk and the all-roots walk alike.  The cut removes only stuck-free
subtrees, so verdicts and witnesses are those of the full walk; only
the state count falls.  Which prefix of a domain resolves first
depends on the vertex labels, so unlike the full walk's count the cut
walk's count changes when a graph is relabelled.

Both steps count their states (maps built) against one state budget,
and the kernel checks the budget while it builds a level, so a level
past the budget is never held in memory.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetError

#: states explored before the homogeneity search gives up
DEFAULT_STATE_BUDGET = 30_000_000

#: states checked per numpy block in the level kernel
_CHUNK = 8192

#: forced rows per automorphism check; its int64 scratch is an eighth of a block's match
_ISO_ROWS = _CHUNK // 64


def _budget_error(max_states: int, n: int) -> BudgetError:
    return BudgetError(
        f"homogeneity search passed {max_states} states on {n} vertices; "
        "raise max_states or lower max_depth"
    )


def _transversal(dist, states, max_states):
    """Greedy automorphisms t_v with t_v(0) = v, all n-1 walks in lockstep.

    Walk r maps 0 to r+1; step a gives vertex a its first fitting image
    in every walk, and each walk's step is one state.  Returns
    (states, None) when every walk completes, else
    (states, (doms, imgs, stuck)) for the first walk stuck at the first
    step where any is.
    """
    n = dist.shape[0]
    imgs = np.arange(1, n)[:, None]
    for a in range(1, n):
        states += n - 1
        if states > max_states:
            raise _budget_error(max_states, n)
        # fits[r, b]: b keeps the distances from a to 0..a-1 in walk r
        fits = np.ones((n - 1, n), dtype=bool)
        for i in range(a):
            fits &= dist[imgs[:, i]] == dist[a, i]
        found = fits.any(axis=1)
        if not found.all():
            r = int(np.argmin(found))
            return states, (tuple(range(a)), tuple(int(x) for x in imgs[r]), a)
        imgs = np.concatenate([imgs, fits.argmax(axis=1)[:, None]], axis=1)
    return states, None


def _forced_automorphisms(dist, doms, match):
    """Rows whose subtrees the forced-extension cut skips.

    match[r, a, b] says a -> b keeps every distance to row r's partial
    isometry f, so each domain vertex has exactly its own image.  A row
    is forced when every vertex has exactly one candidate; F maps each
    vertex to it.  Returns the indices of the forced rows whose F is an
    automorphism, in order, leaving out rows whose domain ends at the
    last vertex: they have no children to skip.  Counting all of a
    row's candidates at once is exact: a row with n of them and an
    empty vertex x cannot pass, since an automorphism F that extends f
    would make F(x) a candidate of x.  F is an automorphism when it
    keeps every distance; that makes it a bijection too, for F(x) = F(y)
    would put x and y at distance 0.  F and dist[F, F] are built for
    _ISO_ROWS rows at a time.
    """
    s, n, _ = match.shape
    total = np.count_nonzero(match.reshape(s, n * n), axis=1)
    rows = np.flatnonzero((total == n) & (doms[:, -1] < n - 1))
    if not rows.size:
        return rows
    flat = dist.reshape(-1)
    keep = np.zeros(rows.size, dtype=bool)
    for start in range(0, rows.size, _ISO_ROWS):
        f = match[rows[start : start + _ISO_ROWS]].argmax(axis=2)
        pairs = flat[(f * n)[:, :, None] + f[:, None, :]]
        keep[start : start + _ISO_ROWS] = (pairs == dist).all(axis=(1, 2))
    return rows[keep]


def _extension_levels(dist, doms, imgs, max_depth, states, max_states):
    """Walk every partial isometry grown from the root rows (doms, imgs).

    Returns (states, forced, witness) with witness None when every map
    of at most max_depth points extends by one point, and forced the
    number of rows whose children the forced-extension cut skipped.  A
    level is held as the list of blocks that made it, never
    concatenated.  Child rows are counted before they are built; once
    the level in hand plus its children pass max_states, no more
    children are kept, the level's check runs to its end and
    BudgetError follows.
    """
    n = dist.shape[0]
    allv = np.arange(n)
    m = doms.shape[1]
    states += doms.shape[0]
    if states > max_states:
        raise _budget_error(max_states, n)
    level = [(doms, imgs)]
    forced = 0
    # one block's scratch, reused by every block: fresh arrays per block
    # cost a page fault per 4 KB touched
    match_buf = np.empty((_CHUNK, n, n), dtype=bool)
    same_buf = np.empty((_CHUNK, n, n), dtype=bool)
    while True:
        grow_more = m < max_depth
        next_level = []
        pending = 0
        for part_doms, part_imgs in level:
            for start in range(0, part_doms.shape[0], _CHUNK):
                dchunk = part_doms[start : start + _CHUNK]
                ichunk = part_imgs[start : start + _CHUNK]
                s = dchunk.shape[0]
                # match[r, a, b]: a -> b keeps every distance to row r's map
                match, same = match_buf[:s], same_buf[:s]
                np.equal(
                    dist[dchunk[:, 0]][:, :, None], dist[ichunk[:, 0]][:, None, :], out=match
                )
                for i in range(1, m):
                    np.equal(dist[dchunk[:, i]][:, :, None], dist[ichunk[:, i]][:, None, :], out=same)
                    match &= same
                indom = np.zeros((s, n), dtype=bool)
                np.put_along_axis(indom, dchunk, True, axis=1)
                missing = ~match.any(axis=2) & ~indom
                if missing.any():
                    srow = int(np.flatnonzero(missing.any(axis=1))[0])
                    stuck = int(np.flatnonzero(missing[srow])[0])
                    witness = (
                        tuple(int(x) for x in dchunk[srow]),
                        tuple(int(x) for x in ichunk[srow]),
                        stuck,
                    )
                    return states, forced, witness
                if not grow_more:
                    continue
                cut = _forced_automorphisms(dist, dchunk, match)
                forced += cut.size
                match[cut] = False
                match &= (allv[None, :] > dchunk[:, -1:])[:, :, None]
                match &= ~indom[:, :, None]
                pending += int(np.count_nonzero(match))
                if states + pending > max_states:
                    grow_more = False
                    next_level = []
                    continue
                sidx, aidx, bidx = np.nonzero(match)
                if sidx.size:
                    next_level.append(
                        (
                            np.concatenate([dchunk[sidx], aidx[:, None]], axis=1),
                            np.concatenate([ichunk[sidx], bidx[:, None]], axis=1),
                        )
                    )
        if states + pending > max_states:
            raise _budget_error(max_states, n)
        if not next_level:
            return states, forced, None
        level = next_level
        states += pending
        m += 1


def homogeneity_search(
    dist,
    max_depth: int | None = None,
    max_states: int = DEFAULT_STATE_BUDGET,
):
    """Run the one-point extension search over a distance matrix.

    Returns (ok, states, automorphisms, forced, witness): witness is
    None on success and (doms, imgs, stuck_vertex) on failure;
    automorphisms is the number of transversal automorphisms built, n-1
    when the transversal completes and 0 when it got stuck or, at depth
    0, did not run; forced is the number of rows whose subtrees the
    forced-extension cut skipped.  Raises BudgetError when the state
    budget runs out before an answer is reached.
    """
    d = np.ascontiguousarray(dist, dtype=np.int64)
    n = d.shape[0]
    depth = n - 1 if max_depth is None else min(max_depth, n - 1)
    states = 1
    if depth < 1:
        return True, states, 0, 0, None
    states, stuck_map = _transversal(d, states, max_states)
    if stuck_map is None:
        automorphisms = n - 1
        roots = np.zeros((1, 1), np.int64), np.zeros((1, 1), np.int64)
    elif len(stuck_map[0]) <= depth:
        return False, states, 0, 0, stuck_map
    else:
        automorphisms = 0
        roots = np.repeat(np.arange(n), n)[:, None], np.tile(np.arange(n), n)[:, None]
    states, forced, witness = _extension_levels(d, *roots, depth, states, max_states)
    return witness is None, states, automorphisms, forced, witness
