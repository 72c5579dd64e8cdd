"""The greedy walks of the homogeneity search, one numpy step per vertex.

This is the walk without the early finish: every walk places every
vertex, comparing each new vertex's distances with the whole domain.
The tests run the search with it in place of _backend._walks and
expect the same verdicts, states and witnesses.
"""

import numpy as np

from mhg_twist._backend import _budget_error


def stepwise_walks(dist, at, same, prefix, doms, targets, states, max_states):
    """Greedy walks from prefix↦prefix, doms[w, 0]↦targets[w], in lockstep.

    Same arguments and result as _backend._walks; at and same are unused.
    """
    n = dist.shape[0]
    w, k = doms.shape[0], len(prefix)
    if states + w * (n - k - 1) > max_states:
        raise _budget_error(max_states, n)
    fixed = np.array(prefix, dtype=np.int64)[None, :].repeat(w, axis=0)
    doms = np.concatenate([fixed, doms], axis=1)
    imgs = np.concatenate([fixed, targets[:, None], np.zeros((w, n - k - 1), np.int64)], axis=1)
    for j in range(k + 1, n):
        a = doms[:, j]
        states += w
        # fits[w, b]: b keeps the distances from a to walk w's domain
        fits = (dist[imgs[:, :j]] == dist[a[:, None], doms[:, :j]][:, :, None]).all(axis=1)
        found = fits.any(axis=1)
        if not found.all():
            s = int(np.argmin(found))
            witness = tuple(int(v) for v in doms[s, :j]), tuple(int(v) for v in imgs[s, :j])
            return states, (*witness, int(a[s]))
        imgs[:, j] = fits.argmax(axis=1)
    return states, None
