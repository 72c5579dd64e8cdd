"""Dense sets of sorted distance triples over the alphabet {1..delta}.

A triple (i, j, k) with i <= j <= k records that some three vertices
pairwise realize those distances.  The triple is *metric* when i + j >= k.
A set of triples is stored as one read-only bool flag per lexicographic
rank of the triple, so images under a twist and membership tests are
cheap and the classifier can batch whole families into numpy matrices.
``grade_image`` is the one code that maps sets through a twist and grades
the image: is it still metric, and does it keep every geodesic (1, k, k+1)?
"""
from __future__ import annotations

import json
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from types import SimpleNamespace

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    OutOfAlphabetError,
)
from .permutations import MAX_DELTA, Twist


@lru_cache(maxsize=None)
def all_triples(delta: int) -> tuple[tuple[int, int, int], ...]:
    """All sorted triples over {1..delta}, in lexicographic (rank) order."""
    _check_delta(delta)
    return tuple(combinations_with_replacement(range(1, delta + 1), 3))


@lru_cache(maxsize=None)
def _tables(delta: int) -> SimpleNamespace:
    """Shared numpy lookup tables for one alphabet size."""
    trips = np.array(all_triples(delta), dtype=np.int64)
    n = len(trips)
    perim = trips.sum(axis=1)
    mins = trips[:, 0]
    metric = trips[:, 0] + trips[:, 1] >= trips[:, 2]
    even = perim % 2 == 0
    # int32 ranks: C(66, 3) = 45,760 sorted triples at MAX_DELTA; each
    # triple's rank is written at all six orders of its entries, so a
    # lookup needs no sort
    rank3d = np.full((delta + 1,) * 3, -1, dtype=np.int32)
    for order in permutations(range(3)):
        rank3d[tuple(trips[:, order].T)] = np.arange(n)
    geodesic = np.array(
        [rank3d[1, k, k + 1] for k in range(1, delta)], dtype=np.int64
    )
    return SimpleNamespace(
        n=n,
        triples=trips,
        perimeter=perim,
        mins=mins,
        metric=metric,
        even=even,
        rank3d=rank3d,
        geodesic_ranks=geodesic,
        even_small_metric_ranks=np.flatnonzero(
            metric & even & (perim <= 2 * delta)
        ),
    )


class TriangleSet:
    """Immutable set of sorted triples over a fixed alphabet.

    Holds one read-only flag per triple rank.  Build it with
    from_bool_array, from_triples or from_json, which check the input.
    """

    __slots__ = ("delta", "_flags")

    def __init__(self, delta: int, flags: np.ndarray):
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "_flags", flags)

    def __setattr__(self, name, value):
        raise AttributeError("TriangleSet is immutable")

    def __reduce__(self):
        return (TriangleSet.from_bool_array, (self.delta, self._flags))

    @classmethod
    def from_triples(cls, delta: int, triples) -> "TriangleSet":
        _check_delta(delta)
        flags = np.zeros(_tables(delta).n, dtype=bool)
        for t in triples:
            flags[_rank_of(delta, t)] = True
        return cls.from_bool_array(delta, flags)

    @classmethod
    def from_bool_array(cls, delta: int, arr) -> "TriangleSet":
        _check_delta(delta)
        flags = np.array(arr, dtype=bool)
        if flags.shape != (_tables(delta).n,):
            raise DimensionMismatchError(
                f"expected {_tables(delta).n} flags for delta={delta}, got {flags.shape}"
            )
        flags.setflags(write=False)
        return cls(delta, flags)

    def to_bool_array(self) -> np.ndarray:
        """The read-only flag per rank."""
        return self._flags

    def __contains__(self, triple) -> bool:
        return bool(self._flags[_rank_of(self.delta, triple)])

    def members(self) -> list[tuple[int, int, int]]:
        trips = all_triples(self.delta)
        return [trips[r] for r in np.flatnonzero(self._flags)]

    def __len__(self) -> int:
        return int(np.count_nonzero(self._flags))

    def __iter__(self):
        return iter(self.members())

    def __eq__(self, other):
        return (
            isinstance(other, TriangleSet)
            and self.delta == other.delta
            and self._flags.tobytes() == other._flags.tobytes()
        )

    def __hash__(self):
        return hash((self.delta, self._flags.tobytes()))

    def __repr__(self):
        return f"TriangleSet(delta={self.delta}, size={len(self)})"

    def to_json(self) -> str:
        return json.dumps(
            {"delta": self.delta, "triples": [list(t) for t in self.members()]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "TriangleSet":
        try:
            data = json.loads(text)
            delta = data["delta"]
            triples = [tuple(t) for t in data["triples"]]
        except (json.JSONDecodeError, TypeError, KeyError) as exc:
            raise InvalidInputError(f"bad triangle-set JSON: {text!r}") from exc
        return cls.from_triples(delta, triples)


#: bytes of rank tables kept for reuse, the oldest dropped first; room
#: for the about 1,400 tables (2.8 MB, delta <= 25) that a stream of
#: single catalog checks and twisted-metric grades builds
RANK_CACHE_BYTES = 8 << 20


class _RankTables(dict):
    """Rank tables by twist images, built on a miss, within RANK_CACHE_BYTES."""

    nbytes = 0

    def __missing__(self, images):
        tabs = _tables(len(images))
        # entry 0 pads the images so that a distance indexes its own image
        imgs = np.array((0,) + images, dtype=np.int64)
        t0, t1, t2 = tabs.triples.T
        ranks = tabs.rank3d[imgs[t0], imgs[t1], imgs[t2]]
        ranks.setflags(write=False)
        self.nbytes += ranks.nbytes
        while self and self.nbytes > RANK_CACHE_BYTES:
            self.nbytes -= self.pop(next(iter(self))).nbytes
        self[images] = ranks
        return ranks


_rank_tables = _RankTables()


def rank_permutation(twist: Twist) -> np.ndarray:
    """rank -> rank map induced on sorted triples by a twist."""
    return _rank_tables[twist.images]


def grade_image(flags: np.ndarray, twist: Twist):
    """(image, bad, missing) of one set's flags, or per row of a matrix of sets.

    bad is the rank of the first non-metric image triple, -1 if none, and
    missing the least k whose (1, k, k+1) the image lacks, 0 if none.
    """
    image = _map(flags, twist)
    return image, _first_bad(image, twist.delta), _least_missing(image, twist.delta)


def _map(flags: np.ndarray, twist: Twist) -> np.ndarray:
    image = np.zeros_like(flags)
    image[..., rank_permutation(twist)] = flags
    return image


def _first_bad(flags: np.ndarray, delta: int):
    return _first(flags & ~_tables(delta).metric)


def _least_missing(flags: np.ndarray, delta: int):
    # geodesic k sits at column k - 1, so -1 (none missing) becomes 0
    return _first(~flags[..., _tables(delta).geodesic_ranks]) + 1


def _first(mask: np.ndarray):
    """Index of the first True on the last axis, -1 where there is none."""
    if not mask.shape[-1]:  # at delta 1 there are no geodesics
        return -1 if mask.ndim == 1 else np.full(len(mask), -1)
    at = mask.argmax(axis=-1)
    if mask.ndim == 1:
        # one row: argmax plus one index check is the cheapest reduction
        return int(at) if mask[at] else -1
    return np.where(mask.any(axis=-1), at, -1)


def image_set(tset: TriangleSet, twist: Twist) -> TriangleSet:
    """Pointwise image of every member triple under the twist."""
    if tset.delta != twist.delta:
        raise DimensionMismatchError(
            f"set delta {tset.delta} != twist delta {twist.delta}"
        )
    return TriangleSet.from_bool_array(tset.delta, _map(tset.to_bool_array(), twist))


def is_metric(tset: TriangleSet) -> tuple[bool, tuple | None]:
    """Check all members are metric; witness is the first failure in rank order."""
    bad = _first_bad(tset.to_bool_array(), tset.delta)
    if bad >= 0:
        return False, all_triples(tset.delta)[bad]
    return True, None


def contains_geodesics(tset: TriangleSet) -> tuple[bool, int | None]:
    """Check every (1, k, k+1) with k < delta is present; witness is least missing k."""
    missing = _least_missing(tset.to_bool_array(), tset.delta)
    if missing:
        return False, missing
    return True, None


def gamma_diameter(tset: TriangleSet, i: int) -> int:
    """Largest k with (i, i, k) in the set, 0 if none.

    For i = delta this is the diameter of the subgraph induced on a fiber
    of vertices at distance delta from a base point.
    """
    fiber = fiber_distances(tset, i)
    return fiber[-1] if fiber else 0


def fiber_distances(tset: TriangleSet, i: int) -> list[int]:
    """All k with (i, i, k) in the set, ascending."""
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
        raise InvalidInputError(f"i must be an integer, got {i!r}")
    if not 1 <= i <= tset.delta:
        raise OutOfAlphabetError(f"i={i!r} not in 1..{tset.delta}")
    ks = np.arange(1, tset.delta + 1)
    ranks = _tables(tset.delta).rank3d[ks, i, i]
    return ks[tset.to_bool_array()[ranks]].tolist()


def _rank_of(delta, triple) -> int:
    t = tuple(triple)
    if len(t) != 3:
        raise InvalidInputError(f"expected a triple, got {t!r}")
    if any(not isinstance(x, (int, np.integer)) for x in t):
        raise InvalidInputError(f"triple entries must be integers: {t!r}")
    if not (t[0] <= t[1] <= t[2]):
        raise InvalidInputError(f"triple must be sorted ascending: {t!r}")
    if not (1 <= t[0] and t[2] <= delta):
        raise OutOfAlphabetError(f"triple {t} not within 1..{delta}")
    return int(_tables(delta).rank3d[t])


def _check_delta(delta):
    if isinstance(delta, bool) or not isinstance(delta, int) or not 1 <= delta <= MAX_DELTA:
        raise InvalidInputError(
            f"delta must be an integer in 1..{MAX_DELTA}, got {delta!r}"
        )
