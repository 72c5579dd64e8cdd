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


def _extension_levels(dist, doms, imgs, max_depth, states, max_states):
    """Walk every partial isometry grown from the root rows (doms, imgs).

    Returns (states, witness) with witness None when every map of at
    most max_depth points extends by one point.  A level is held as the
    list of blocks that made it, never concatenated.  Child rows are
    counted before they are built; once the level in hand plus its
    children pass max_states, no more children are kept, the level's
    check runs to its end and BudgetError follows.
    """
    n = dist.shape[0]
    allv = np.arange(n)
    m = doms.shape[1]
    states += doms.shape[0]
    if states > max_states:
        raise _budget_error(max_states, n)
    level = [(doms, imgs)]
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
                match = np.ones((s, n, n), dtype=bool)
                for i in range(m):
                    match &= dist[dchunk[:, i]][:, :, None] == dist[ichunk[:, i]][:, None, :]
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
                    return states, witness
                if not grow_more:
                    continue
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
            return states, None
        level = next_level
        states += pending
        m += 1


def homogeneity_search(
    dist,
    max_depth: int | None = None,
    max_states: int = DEFAULT_STATE_BUDGET,
):
    """Run the one-point extension search over a distance matrix.

    Returns (ok, states, automorphisms, witness): witness is None on
    success and (doms, imgs, stuck_vertex) on failure; automorphisms is
    the number of transversal automorphisms built, n-1 when the
    transversal completes and 0 when it got stuck or, at depth 0, did
    not run.  Raises BudgetError
    when the state budget runs out before an answer is reached.
    """
    d = np.ascontiguousarray(dist, dtype=np.int64)
    n = d.shape[0]
    depth = n - 1 if max_depth is None else min(max_depth, n - 1)
    states = 1
    if depth < 1:
        return True, states, 0, None
    states, stuck_map = _transversal(d, states, max_states)
    if stuck_map is None:
        automorphisms = n - 1
        roots = np.zeros((1, 1), np.int64), np.zeros((1, 1), np.int64)
    elif len(stuck_map[0]) <= depth:
        return False, states, 0, stuck_map
    else:
        automorphisms = 0
        roots = np.repeat(np.arange(n), n)[:, None], np.tile(np.arange(n), n)[:, None]
    states, witness = _extension_levels(d, *roots, depth, states, max_states)
    return witness is None, states, automorphisms, witness
