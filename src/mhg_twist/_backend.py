"""The homogeneity search kernel, with a numba fast path and a pure-numpy fallback.

The kernel runs the one-point extension search that decides metric
homogeneity of a finite graph.  The active backend is chosen by the MHG_TWIST_BACKEND environment
variable ("numba" or "numpy").  Unset, it defaults to numba when that
import works and numpy otherwise.  Both backends return identical
pass/fail answers, and on a pass identical state counts.  On a fail
the state count and the witness depend on search order: the loop
kernel walks depth first, the numpy kernel level by level.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import BudgetError, InvalidInputError

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    _HAVE_NUMBA = False

_ENV_VAR = "MHG_TWIST_BACKEND"

#: states explored before the homogeneity search gives up
DEFAULT_STATE_BUDGET = 30_000_000


def resolve_backend(backend: str | None = None) -> str:
    """Normalize a backend request against what is importable."""
    name = backend if backend is not None else os.environ.get(_ENV_VAR)
    if name is None or name == "":
        return "numba" if _HAVE_NUMBA else "numpy"
    if name not in ("numba", "numpy"):
        raise InvalidInputError(f"unknown backend {name!r}, want numba or numpy")
    if name == "numba" and not _HAVE_NUMBA:
        raise InvalidInputError("numba backend requested but numba is not importable")
    return name


def backend_name() -> str:
    """The backend that calls will use right now."""
    return resolve_backend(None)


# ---------------------------------------------------------------------------
# one-point extension search
#
# A finite metric space is homogeneous exactly when every partial
# isometry extends by one point, for then any partial isometry grows
# point by point into a total one.  The search walks every partial
# isometry once: a state is a pair of tuples (doms, imgs) with doms
# strictly increasing, and children extend doms only past its maximum,
# so each domain-set/map pair has a unique generation path and no
# visited-set is needed.  The for-all check at a state still ranges
# over every vertex outside the domain.
#
# Return value is (ok, states, wit_len, wit_doms, wit_imgs, stuck):
#   ok 1 = homogeneous up to max_depth, 0 = witness found, -2 = state
#   budget exhausted.  On ok=0 the witness is a partial isometry of
#   wit_len points plus the vertex with no matching image.
# ---------------------------------------------------------------------------


def _homogeneity_loops(dist, max_depth, max_states):
    n = dist.shape[0]
    cap = n * n * n + n * n + 16
    stack_m = np.empty(cap, dtype=np.int64)
    stack_a = np.empty(cap, dtype=np.int64)
    stack_b = np.empty(cap, dtype=np.int64)
    doms = np.zeros(n, dtype=np.int64)
    imgs = np.zeros(n, dtype=np.int64)
    top = 0
    if max_depth >= 1:
        for a in range(n - 1, -1, -1):
            for b in range(n - 1, -1, -1):
                stack_m[top] = 0
                stack_a[top] = a
                stack_b[top] = b
                top += 1
    states = 1
    while top > 0:
        top -= 1
        m = stack_m[top]
        doms[m] = stack_a[top]
        imgs[m] = stack_b[top]
        size = m + 1
        states += 1
        if states > max_states:
            return -2, states, 0, doms, imgs, -1
        for a in range(n):
            indom = False
            for i in range(size):
                if doms[i] == a:
                    indom = True
                    break
            if indom:
                continue
            pushing = size < max_depth and a > doms[size - 1]
            found = False
            for b in range(n):
                match = True
                for i in range(size):
                    if dist[a, doms[i]] != dist[b, imgs[i]]:
                        match = False
                        break
                if match:
                    found = True
                    if pushing:
                        stack_m[top] = size
                        stack_a[top] = a
                        stack_b[top] = b
                        top += 1
                    else:
                        break
            if not found:
                return 0, states, size, doms, imgs, a
    return 1, states, 0, doms, imgs, -1


if _HAVE_NUMBA:
    _homogeneity_nb = njit(cache=True, nogil=True)(_homogeneity_loops)


def _homogeneity_numpy(dist, max_depth, max_states):
    n = dist.shape[0]
    states = 1
    if max_depth < 1:
        return 1, states, 0, np.zeros(n, np.int64), np.zeros(n, np.int64), -1
    doms = np.repeat(np.arange(n), n)[:, None]
    imgs = np.tile(np.arange(n), n)[:, None]
    allv = np.arange(n)
    m = 1
    while doms.shape[0]:
        states += doms.shape[0]
        if states > max_states:
            return -2, states, 0, np.zeros(n, np.int64), np.zeros(n, np.int64), -1
        next_parts = []
        for start in range(0, doms.shape[0], 8192):
            dchunk = doms[start : start + 8192]
            ichunk = imgs[start : start + 8192]
            s = dchunk.shape[0]
            d1 = dist[:, dchunk].transpose(1, 0, 2)
            d2 = dist[:, ichunk].transpose(1, 0, 2)
            match = np.ones((s, n, n), dtype=bool)
            for i in range(m):
                match &= d1[:, :, None, i] == d2[:, None, :, i]
            indom = np.zeros((s, n), dtype=bool)
            np.put_along_axis(indom, dchunk, True, axis=1)
            missing = ~match.any(axis=2) & ~indom
            if missing.any():
                srow = int(np.flatnonzero(missing.any(axis=1))[0])
                stuck = int(np.flatnonzero(missing[srow])[0])
                wd = np.zeros(n, np.int64)
                wi = np.zeros(n, np.int64)
                wd[:m] = dchunk[srow]
                wi[:m] = ichunk[srow]
                return 0, states, m, wd, wi, stuck
            if m < max_depth:
                grow = match & (allv[None, :, None] > dchunk[:, -1:, None]) & ~indom[:, :, None]
                sidx, aidx, bidx = np.nonzero(grow)
                if sidx.size:
                    next_parts.append(
                        (
                            np.concatenate([dchunk[sidx], aidx[:, None]], axis=1),
                            np.concatenate([ichunk[sidx], bidx[:, None]], axis=1),
                        )
                    )
        if m >= max_depth or not next_parts:
            break
        doms = np.concatenate([p[0] for p in next_parts])
        imgs = np.concatenate([p[1] for p in next_parts])
        m += 1
    return 1, states, 0, np.zeros(n, np.int64), np.zeros(n, np.int64), -1


def homogeneity_search(
    dist,
    max_depth: int | None = None,
    max_states: int = DEFAULT_STATE_BUDGET,
    backend: str | None = None,
):
    """Run the one-point extension search over a distance matrix.

    Returns (ok, states, witness) where witness is None on success and
    (doms, imgs, stuck_vertex) on failure.  Raises BudgetError when the
    state budget runs out before an answer is reached.
    """
    d = np.ascontiguousarray(dist, dtype=np.int64)
    n = d.shape[0]
    depth = n - 1 if max_depth is None else min(max_depth, n - 1)
    name = resolve_backend(backend)
    fn = _homogeneity_nb if name == "numba" else _homogeneity_numpy
    ok, states, wlen, wd, wi, stuck = fn(d, depth, max_states)
    if ok == -2:
        raise BudgetError(
            f"homogeneity search passed {max_states} states on {n} vertices; "
            "raise max_states or lower max_depth"
        )
    if ok == 1:
        return True, int(states), None
    witness = (
        tuple(int(x) for x in wd[:wlen]),
        tuple(int(x) for x in wi[:wlen]),
        int(stuck),
    )
    return False, int(states), witness
