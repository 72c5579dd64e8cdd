"""Permutations of the distance alphabet {1..delta}.

A twist is a bijection of the alphabet, applied pointwise to the distances
of a graph of diameter delta.  Closed-form families drive the
classification engine; the first three give the four named twists of
``named_twists`` (rho, rho-inv, tau0, tau1):

* ``rho``          doubles the small distances and folds the large ones back,
* ``rho_inverse``  undoes it,
* ``tau(.., 0/1)`` swaps i with (delta+eps)-i when the smaller of the pair
                   is odd, fixing everything else (an involution),
* ``mu(n, k)``     the alphabet map induced on cycle distances when the
                   vertices of an n-cycle are relabelled by multiplication
                   with a unit k mod n.
"""
from __future__ import annotations

import json
import operator
import re
from functools import lru_cache
from math import gcd

from .errors import (
    DimensionMismatchError,
    InvalidDiameterError,
    InvalidInputError,
    NotAUnitError,
    OutOfAlphabetError,
)

# Hard cap on the alphabet size; keeps dense tables small everywhere.
MAX_DELTA = 64


class Twist:
    """An immutable permutation of {1..delta}.

    ``images[i-1]`` is the image of i.  Instances are hashable and compare
    by value, so they can key classification result maps.
    """

    __slots__ = ("delta", "images")

    def __init__(self, images):
        try:
            imgs = tuple(map(_integer, images))
        except TypeError as exc:
            raise InvalidInputError(f"images must be integers: {images!r}") from exc
        delta = len(imgs)
        if not 1 <= delta <= MAX_DELTA:
            raise InvalidDiameterError(
                f"alphabet size must be in 1..{MAX_DELTA}, got {delta}"
            )
        if sorted(imgs) != list(range(1, delta + 1)):
            raise InvalidInputError(f"not a bijection of 1..{delta}: {imgs}")
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "images", imgs)

    def __setattr__(self, name, value):
        raise AttributeError("Twist is immutable")

    def apply(self, i: int) -> int:
        """Image of a single distance."""
        if not isinstance(i, int) or not 1 <= i <= self.delta:
            raise OutOfAlphabetError(f"{i!r} not in 1..{self.delta}")
        return self.images[i - 1]

    def apply_to_triple(self, triple) -> tuple[int, int, int]:
        """Image of a sorted distance triple, re-sorted."""
        t = tuple(triple)
        if len(t) != 3:
            raise InvalidInputError(f"expected a triple, got {t!r}")
        if not (t[0] <= t[1] <= t[2]):
            raise InvalidInputError(f"triple must be sorted ascending: {t!r}")
        return tuple(sorted(self.apply(x) for x in t))

    def inverse(self) -> "Twist":
        inv = [0] * self.delta
        for i, v in enumerate(self.images):
            inv[v - 1] = i + 1
        return Twist(inv)

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def cycles(self) -> str:
        """Canonical cycle notation, fixed points omitted; identity is ``()``."""
        seen = [False] * self.delta
        parts = []
        for start in range(1, self.delta + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            nxt = self.images[start - 1]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt - 1] = True
                nxt = self.images[nxt - 1]
            if len(cyc) > 1:
                parts.append("(" + " ".join(str(x) for x in cyc) + ")")
        return "".join(parts) if parts else "()"

    def to_json(self) -> str:
        return json.dumps(
            {"delta": self.delta, "images": list(self.images)}, sort_keys=True
        )

    @classmethod
    def from_json(cls, text: str) -> "Twist":
        try:
            data = json.loads(text)
            images = data["images"]
            delta = _integer(data["delta"])
        except (json.JSONDecodeError, TypeError, KeyError) as exc:
            raise InvalidInputError(f"bad twist JSON: {text!r}") from exc
        t = cls(images)
        if t.delta != delta:
            raise InvalidInputError(
                f"JSON delta {delta} does not match {t.delta} images"
            )
        return t

    def __eq__(self, other):
        return isinstance(other, Twist) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Twist({self.cycles()!r}, delta={self.delta})"


def _integer(value) -> int:
    """A Python or numpy integer as an int; floats, strings and bools raise TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a bool")
    return operator.index(value)


def identity(delta: int) -> Twist:
    _check_delta(delta, low=1)
    return Twist(range(1, delta + 1))


def rho(delta: int) -> Twist:
    """i -> 2i for i <= delta/2, else i -> 2(delta-i)+1.  Needs delta >= 3."""
    _check_delta(delta, low=3)
    return Twist(
        2 * i if 2 * i <= delta else 2 * (delta - i) + 1
        for i in range(1, delta + 1)
    )


def rho_inverse(delta: int) -> Twist:
    """Inverse of ``rho``: even i -> i/2, odd i -> delta-(i-1)/2."""
    _check_delta(delta, low=3)
    return Twist(
        i // 2 if i % 2 == 0 else delta - (i - 1) // 2
        for i in range(1, delta + 1)
    )


def tau(delta: int, epsilon: int) -> Twist:
    """Swap i with (delta+epsilon)-i when min of the pair is odd.

    epsilon is 0 or 1.  Involution by construction: the swapped pair has
    the same min, so both endpoints move together.
    """
    _check_delta(delta, low=3)
    if epsilon not in (0, 1):
        raise InvalidInputError(f"epsilon must be 0 or 1, got {epsilon!r}")
    images = []
    for i in range(1, delta + 1):
        j = (delta + epsilon) - i
        images.append(j if 1 <= j <= delta and min(i, j) % 2 == 1 else i)
    return Twist(images)


def mu(n: int, k: int) -> Twist:
    """Distance-alphabet map of the relabelling v -> k*v on an n-cycle.

    Cycle distance d becomes min(kd mod n, n - kd mod n).  Defined for
    units k mod n with 1 <= k < n; the alphabet is {1..floor(n/2)}.
    """
    if not isinstance(n, int) or n < 3:
        raise InvalidInputError(f"cycle length must be an integer >= 3, got {n!r}")
    if not isinstance(k, int) or not 1 <= k < n:
        raise NotAUnitError(f"k must satisfy 1 <= k < n, got k={k!r}")
    if gcd(k, n) != 1:
        raise NotAUnitError(f"k={k} is not a unit mod {n} (gcd {gcd(k, n)})")
    delta = n // 2
    images = []
    for d in range(1, delta + 1):
        r = (k * d) % n
        images.append(min(r, n - r))
    t = Twist(images)  # bijectivity holds because k is a unit
    return t


def compose(a: Twist, b: Twist) -> Twist:
    """The twist applying b first, then a."""
    if a.delta != b.delta:
        raise DimensionMismatchError(
            f"cannot compose twists of delta {a.delta} and {b.delta}"
        )
    return Twist(a.images[b.images[i] - 1] for i in range(a.delta))


#: display names of the four closed-form twists, in output order
NAMED_TWISTS = ("rho", "rho-inv", "tau0", "tau1")


def named_twists(delta: int) -> list[tuple[str, Twist]]:
    """The four closed-form twists for one diameter, in display order.

    Built once per diameter; each call returns a new list of the shared
    immutable twists.
    """
    _check_delta(delta, low=3)
    return list(_named_twists(delta))


@lru_cache(maxsize=None)
def _named_twists(delta: int) -> tuple[tuple[str, Twist], ...]:
    # keyed by a delta already checked, so at most MAX_DELTA - 2 entries
    return tuple(
        zip(NAMED_TWISTS, (rho(delta), rho_inverse(delta), tau(delta, 0), tau(delta, 1)))
    )


_CYCLES_RE = re.compile(r"^\s*(\(\s*(\d+\s*)*\)\s*)*$")


def parse_cycles(text: str, delta: int) -> Twist:
    """Parse cycle notation like ``(1 2 3)`` or ``(1 6)(3 4)``.

    Points not mentioned are fixed.  ``()`` and the empty string give the
    identity.  Commas are tolerated as separators.
    """
    _check_delta(delta, low=1)
    cleaned = text.replace(",", " ")
    if not _CYCLES_RE.match(cleaned):
        raise InvalidInputError(f"bad cycle notation: {text!r}")
    images = list(range(1, delta + 1))
    seen = set()
    for group in re.findall(r"\(([^()]*)\)", cleaned):
        points = [int(tok) for tok in group.split()]
        if not points:
            continue
        for p in points:
            if not 1 <= p <= delta:
                raise OutOfAlphabetError(f"point {p} not in 1..{delta}")
            if p in seen:
                raise InvalidInputError(f"point {p} repeated in {text!r}")
            seen.add(p)
        for i, p in enumerate(points):
            images[p - 1] = points[(i + 1) % len(points)]
    return Twist(images)


def _check_delta(delta, low):
    if isinstance(delta, bool) or not isinstance(delta, int) or not low <= delta <= MAX_DELTA:
        raise InvalidDiameterError(
            f"delta must be an integer in {low}..{MAX_DELTA}, got {delta!r}"
        )
