"""The exhaustive reference walk of the homogeneity tests.

Every partial isometry grown from a set of root maps, level by level,
up to a given number of points.  The level kernel holds
partial isometries as pairs of rows (doms, imgs) with doms strictly
increasing; children extend doms only past its maximum, so each
domain-set/map pair has a unique generation path and no visited-set is
needed.  The for-all check at a state ranges over every vertex outside
the domain.

Forced extensions.  When every vertex has exactly one candidate image
under a partial isometry f, its domain resolves the graph and f has at
most one total extension, the map F sending each vertex to its
candidate.  If F is a bijection and an isometry it is an automorphism,
and every descendant of f in the walk is a restriction of F, so the
subtree below f holds no stuck map and the kernel builds no children
for f.  The cut removes only stuck-free subtrees, so verdicts and
witnesses are those of the full walk; only the state count falls.

The tests compare the prefix tree of _backend against this walk run
from all n² one-point maps, and check its cut against
oracles.forced_extension.
"""

import numpy as np

from mhg_twist._backend import _budget_error

#: states checked per numpy block in the level kernel
_CHUNK = 8192

#: forced rows per automorphism check; its int64 scratch is an eighth of a block's match
_ISO_ROWS = _CHUNK // 64


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
