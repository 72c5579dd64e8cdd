"""The prefix tree of the homogeneity search as first written, one node at a time in numpy.

Every _walks call rebuilds its distance table and the prefix's
same-distance matrix, and every node keeps its classes in numpy arrays.
The tests run reference_search beside _backend.homogeneity_search and
expect the same verdicts, states, automorphisms and witnesses.
"""

import numpy as np

from mhg_twist._backend import DEFAULT_STATE_BUDGET, _budget_error


def _walks(dist, prefix, roots, targets, states, max_states):
    """Greedy walks from prefix↦prefix, roots[w]↦targets[w], in lockstep.

    Walk w extends its map over the vertices outside prefix and
    roots[w] in increasing order, giving each the first image that
    keeps its distances to the domain.  Each walk's step is one state,
    and the budget is checked for all the steps before the first.
    cand[p, w, b] says b keeps the distances from the p-th vertex that
    walk w has still to place to its map so far: each step places the
    first and narrows the rest with one comparison against the new
    image.  When the candidates force every walk's remaining images
    and those keep every distance (_resolved), the walks finish at once
    and their remaining steps count as states (see Early finish).
    Returns (states, None) when every walk completes, else
    (states, (doms, imgs, stuck)) for the first walk stuck at the first
    step where any is.
    """
    n = dist.shape[0]
    w, k = roots.size, len(prefix)
    if states + w * (n - k - 1) > max_states:
        raise _budget_error(max_states, n)
    free = np.delete(np.arange(n), prefix)
    # row w: the vertices outside prefix and roots[w], in increasing order
    rest = free[None, :].repeat(w, axis=0)[free[None, :] != roots[:, None]]
    fixed = np.array(prefix, dtype=np.int64)[None, :].repeat(w, axis=0)
    doms = np.concatenate([fixed, roots[:, None], rest.reshape(w, -1)], axis=1)
    imgs = np.concatenate([fixed, targets[:, None], np.zeros((w, n - k - 1), np.int64)], axis=1)
    # want[i, p, w]: the distance between walk w's i-th and p-th vertices
    want = dist[doms.T[:, None, :], doms.T[None, :, :]]
    # at[x, e, b]: d(x, b) = e, so at[imgs[w, i], want[i, p, w]] holds
    # the images that keep the p-th vertex's distance to the i-th
    at = dist[:, None, :] == np.arange(dist.max() + 1)[None, :, None]
    # every walk fixes the prefix, so b keeps the distances to it when
    # it is at the same distances from it as the vertex
    keys = dist[list(prefix)]
    cand = (keys[:, :, None] == keys[:, None, :]).all(axis=0)[doms[:, k + 1 :].T]
    cand &= at[targets, want[k, k + 1 :]]
    for j in range(k + 1, n):
        if np.count_nonzero(cand) == w * (n - j) and _resolved(dist, imgs, want, cand, j):
            return states + w * (n - j), None
        states += w
        fits = cand[0]
        found = fits.any(axis=1)
        if not found.all():
            s = int(np.argmin(found))
            witness = tuple(int(v) for v in doms[s, :j]), tuple(int(v) for v in imgs[s, :j])
            return states, (*witness, int(doms[s, j]))
        imgs[:, j] = fits.argmax(axis=1)
        cand = cand[1:]
        cand &= at[imgs[:, j], want[j, j + 1 :]]
    return states, None


def _resolved(dist, imgs, want, cand, j):
    """Whether each walk's first candidates from position j on keep every distance.

    The caller has counted w·(n−j) candidates for the positions j..,
    one per position if this holds.  Fills imgs[:, j:] with the first
    candidates, which the steps overwrite when it does not.
    """
    imgs[:, j:] = cand.argmax(axis=2).T
    return bool((dist[imgs.T[:, None, :], imgs.T[None, :, :]] == want).all())


def _prefix_tree(dist, states, max_states):
    """Run every node's walks, depth first; stop at the first stuck walk.

    A node is (prefix, allowed, cls): allowed is sorted and cls[i] is
    the class of allowed[i], numbered by least member.  Returns
    (states, automorphisms, witness): automorphisms is n-1 when the
    root's walks complete and 0 when one of them is stuck, and witness
    is None when every walk completes.
    """
    n = dist.shape[0]
    stack = [((), np.arange(n), np.zeros(n, np.int64))]
    while stack:
        prefix, allowed, cls = stack.pop()
        sizes = np.bincount(cls)
        # classes are numbered in order of least member, so a vertex is
        # its class's least member when its class passes every earlier one
        firsts = np.flatnonzero(cls > np.maximum.accumulate(np.concatenate([[-1], cls[:-1]])))
        roots = allowed[firsts]
        # every non-least member of a class with two or more members
        others = np.ones(allowed.size, dtype=bool)
        others[firsts] = False
        others &= sizes[cls] > 1
        if not others.any():
            continue
        states, witness = _walks(
            dist, prefix, roots[cls[others]], allowed[others], states, max_states
        )
        if witness is not None:
            return states, (n - 1 if prefix else 0), witness
        children = []
        for c in np.flatnonzero(sizes > 1):
            r = roots[c]
            keep = (cls >= c) & (allowed != r)
            sub = allowed[keep]
            # refine the kept classes by distance to r, renumbered by least member
            ids = {}
            key = (cls[keep] * n + dist[sub, r]).tolist()
            sub_cls = np.array([ids.setdefault(k, len(ids)) for k in key], dtype=np.int64)
            children.append((prefix + (int(r),), sub, sub_cls))
        stack.extend(reversed(children))
    return states, n - 1, None


def reference_search(dist, max_states=DEFAULT_STATE_BUDGET):
    """(ok, states, automorphisms, witness), as _backend.homogeneity_search."""
    d = np.ascontiguousarray(dist, dtype=np.int64)
    states, automorphisms, witness = _prefix_tree(d, 1, max_states)
    return witness is None, states, automorphisms, witness
