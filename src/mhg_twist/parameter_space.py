"""Numerical parameter tuples describing distance-triple catalogs.

A tuple (delta, K1, K2, C0, C1) encodes which sorted metric triples a
graph of diameter delta realizes: odd perimeters are admitted between
2*K1+1 and 2*K2 + twice the least entry and below the odd cap C1, even
perimeters below the even cap C0.  K1 = inf (with K2 = 0, C1 = 2*delta+1)
encodes the bipartite case where odd perimeters never occur.

``derive_parameters`` reads the numerical parameters back off an arbitrary
triple set and flags structural anomalies: values the defining scans can
produce but that no graph can realize.  A tuple is *self-consistent* when
its own realized set derives back to it with no anomaly; those tuples are
the classification domain.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetError, InvalidInputError, InvalidStateError
from .permutations import _integer, named_twists
from .triangle_catalog import (
    TriangleSet,
    _tables,
    fiber_distances,
    grade_image,
    is_metric,
)

INFINITY = float("inf")

#: the candidate enumeration's budget on the diameter
MAX_CANDIDATE_DELTA = 10

# Anomaly labels, in the order they are reported.
ANOMALY_PERIMETER_GAP = "perimeter-gap"
ANOMALY_ODD_WITHOUT_K1 = "odd-without-k1"
ANOMALY_ANTIPODAL_SUM = "antipodal-sum"
ANOMALY_CAP_STRUCTURE = "cap-structure"
ANOMALY_FIBER_STRUCTURE = "fiber-structure"
ANOMALY_FIBER_CONNECTIVITY = "fiber-connectivity"


@dataclass(frozen=True)
class ParameterTuple:
    """Structurally valid catalog parameters over a fixed diameter."""

    delta: int
    k1: float  # int or INFINITY
    k2: int
    c0: int
    c1: int

    def __post_init__(self):
        # every field but an infinite K1 is stored as a Python int
        for name in ("delta", "k1", "k2", "c0", "c1"):
            value = getattr(self, name)
            if type(value) is int or name == "k1" and value == INFINITY:
                continue
            try:
                object.__setattr__(self, name, _integer(value))
            except TypeError as exc:
                raise InvalidInputError(f"{name} must be an integer, got {value!r}") from exc
        d, k1 = self.delta, self.k1
        if d < 1:
            raise InvalidInputError(f"delta must be a positive integer, got {d!r}")
        if k1 != INFINITY and not 1 <= k1 <= d:
            raise InvalidInputError(f"K1={k1} outside 1..{d}")
        if not 0 <= self.k2 <= d:
            raise InvalidInputError(f"K2={self.k2!r} outside 0..{d}")
        for name, value, parity, low in (
            ("C0", self.c0, 0, 2 * d + 2),
            ("C1", self.c1, 1, 2 * d + 1),
        ):
            if value % 2 != parity:
                raise InvalidInputError(f"{name}={value!r} must have parity {parity}")
            if not low <= value <= 3 * d + 2:
                raise InvalidInputError(
                    f"{name}={value} outside {low}..{3 * d + 2} for delta={d}"
                )
        if k1 == INFINITY:
            if self.k2 != 0:
                raise InvalidInputError("K1=inf requires K2=0")
            if self.c1 != 2 * d + 1:
                raise InvalidInputError(
                    f"K1=inf requires C1={2 * d + 1}, got {self.c1}"
                )
        elif k1 > self.k2:
            raise InvalidInputError(f"K1={k1} exceeds K2={self.k2}")

    @classmethod
    def from_c_values(cls, delta, k1, k2, c, cprime) -> "ParameterTuple":
        """Build from the (C, C') convention: caps assigned by parity."""
        caps = {c % 2: c, cprime % 2: cprime}
        if len(caps) != 2:
            raise InvalidInputError(
                f"C={c} and C'={cprime} must have opposite parity "
                "(one even cap, one odd cap)"
            )
        return cls(delta, k1, k2, c0=caps[0], c1=caps[1])

    @property
    def c(self) -> int:
        return min(self.c0, self.c1)

    @property
    def c_prime(self) -> int:
        return max(self.c0, self.c1)

    @property
    def bipartite(self) -> bool:
        return self.k1 == INFINITY

    def antipodal(self) -> bool:
        """Caps at their floor with odd triples present."""
        return (
            self.c1 == 2 * self.delta + 1
            and self.c0 == 2 * self.delta + 2
            and self.k1 != INFINITY
        )

    def sort_key(self):
        return (self.delta, self.k1, self.k2, self.c0, self.c1)

    def k1_text(self) -> str:
        return "inf" if self.k1 == INFINITY else str(self.k1)

    def csv_fields(self) -> tuple[str, str, str, str, str]:
        """delta, K1, K2, C, Cprime as strings."""
        return (
            str(self.delta),
            self.k1_text(),
            str(self.k2),
            str(self.c),
            str(self.c_prime),
        )

    def as_dict(self) -> dict:
        return {
            "delta": self.delta,
            "k1": "inf" if self.k1 == INFINITY else self.k1,
            "k2": self.k2,
            "c0": self.c0,
            "c1": self.c1,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ParameterTuple":
        try:
            data = json.loads(text)
            k1 = data["k1"]
            if k1 == "inf":
                k1 = INFINITY
            return cls(data["delta"], k1, data["k2"], data["c0"], data["c1"])
        except (json.JSONDecodeError, TypeError, KeyError) as exc:
            raise InvalidInputError(f"bad parameter JSON: {text!r}") from exc

    def __str__(self):
        return (
            f"(delta={self.delta}, K1={self.k1_text()}, K2={self.k2}, "
            f"C={self.c}, C'={self.c_prime})"
        )


def realized_set(params: ParameterTuple) -> TriangleSet:
    """The triple set a parameter tuple stands for.

    Membership for a sorted metric triple with perimeter p and minimum m:
    odd p needs a finite K1 with 2*K1 + 1 <= p <= 2*K2 + 2*m and p < C1;
    even p needs p < C0.
    """
    if not isinstance(params, ParameterTuple):
        raise InvalidInputError(f"expected a ParameterTuple, got {params!r}")
    return _realized_cached(
        params.delta, params.k1, params.k2, params.c0, params.c1
    )


@lru_cache(maxsize=4096)
def _realized_cached(delta, k1, k2, c0, c1) -> TriangleSet:
    tabs = _tables(delta)
    p = tabs.perimeter
    even_ok = tabs.even & (p < c0)
    # with k1 infinite the lower bound is never met, killing all odd triples
    odd_ok = (
        ~tabs.even
        & (p >= 2 * k1 + 1)
        & (p <= 2 * k2 + 2 * tabs.mins)
        & (p < c1)
    )
    return TriangleSet.from_bool_array(delta, tabs.metric & (even_ok | odd_ok))


@dataclass(frozen=True)
class DerivationResult:
    """Raw values read off a triple set, plus any anomaly flags."""

    delta: int
    k1: float
    k2: int
    c0: int
    c1: int
    fiber_diameter: int  # largest k with (delta, delta, k) present
    anomalies: tuple[str, ...]

    @property
    def is_clean(self) -> bool:
        return not self.anomalies

    def matches(self, params: ParameterTuple) -> bool:
        return (
            self.delta == params.delta
            and self.k1 == params.k1
            and self.k2 == params.k2
            and self.c0 == params.c0
            and self.c1 == params.c1
        )

    def to_params(self) -> ParameterTuple:
        if self.anomalies:
            raise InvalidStateError(
                f"anomalous derivation has no parameter tuple: {self.anomalies}"
            )
        return ParameterTuple(self.delta, self.k1, self.k2, self.c0, self.c1)


def derive_parameters(tset: TriangleSet) -> DerivationResult:
    """Scan a triple set for its numerical parameters and anomalies.

    The set must contain only metric triples.  Anomalies mark scans whose
    results fall outside the generic catalog of the classification:
    perimeters at or above a derived cap, odd perimeters with no (1,k,k)
    triple, antipodal caps whose K-values do not sum to delta, caps out
    of step with the fiber diameter, full-range fibers of diameter below
    2 outside the one shape that permits them, and fibers whose distance
    set skips 2.  An anomaly does not mean that no graph realizes the
    set: the odd cycles C_{2δ+1} are homogeneous and flag both fiber
    rules, and their twists are the cycle maps mu, not the catalog's
    four.
    """
    if not isinstance(tset, TriangleSet):
        raise InvalidInputError(f"expected a TriangleSet, got {tset!r}")
    ok, bad = is_metric(tset)
    if not ok:
        raise InvalidInputError(f"set contains a non-metric triple {bad}")
    d = tset.delta
    flags = tset.to_bool_array()
    tabs = _tables(d)

    ks = np.arange(1, d + 1)
    k_values = ks[flags[tabs.rank3d[1, ks, ks]]].tolist()
    k1 = k_values[0] if k_values else INFINITY
    k2 = k_values[-1] if k_values else 0

    perims = set(tabs.perimeter[flags].tolist())
    c0 = next(p for p in range(2 * d + 2, 3 * d + 5, 2) if p not in perims)
    c1 = next(p for p in range(2 * d + 1, 3 * d + 5, 2) if p not in perims)

    fiber = fiber_distances(tset, d)
    fiber_diam = fiber[-1] if fiber else 0

    anomalies = []
    if any(p >= (c0 if p % 2 == 0 else c1) for p in perims):
        anomalies.append(ANOMALY_PERIMETER_GAP)
    if k1 == INFINITY and any(p % 2 == 1 for p in perims):
        anomalies.append(ANOMALY_ODD_WITHOUT_K1)
    if c1 == 2 * d + 1 and c0 == 2 * d + 2 and k1 != INFINITY and k1 + k2 != d:
        anomalies.append(ANOMALY_ANTIPODAL_SUM)
    if _cap_structure_broken(fiber, d, k1, k2, c0, c1, fiber_diam):
        anomalies.append(ANOMALY_CAP_STRUCTURE)
    if (
        k1 != INFINITY
        and k2 == d
        and fiber_diam <= 1
        and not (k1 == 1 and {c0, c1} == {2 * d + 2, 2 * d + 3})
    ):
        anomalies.append(ANOMALY_FIBER_STRUCTURE)
    # In the generic catalog, vertices at full distance d are linked
    # through hops of distance 2, so a nonempty fiber distance set has to
    # contain 2.  A distance-1 clique fiber (K1 = 1) is the lone catalog
    # shape exempt from the hop rule.  Odd cycles sit outside the catalog:
    # in C_{2d+1} the two vertices at distance d from a vertex are adjacent.
    if k1 != 1 and fiber and 2 not in fiber:
        anomalies.append(ANOMALY_FIBER_CONNECTIVITY)

    return DerivationResult(d, k1, k2, c0, c1, fiber_diam, tuple(anomalies))


def _cap_structure_broken(fiber, d, k1, k2, c0, c1, fiber_diam) -> bool:
    """Caps must track the fiber diameter d' = fiber_diam.

    Bipartite sets need C0 = 2d + d' + 2.  Otherwise, whenever K2 = d or
    the fiber distance set is an interval (the empty set counts), the caps
    must be C' = 2d + d' + 2 and C = 2d + d' + 1, except that fibers of
    diameter exactly 2 also allow C = 2d + 1.
    """
    if k1 == INFINITY:
        return c0 != 2 * d + fiber_diam + 2
    is_interval = not fiber or fiber == list(range(fiber[0], fiber[-1] + 1))
    if k2 != d and not is_interval:
        return False
    c, cp = min(c0, c1), max(c0, c1)
    if cp != 2 * d + fiber_diam + 2:
        return True
    return not (c == 2 * d + fiber_diam + 1 or (fiber_diam == 2 and c == 2 * d + 1))


def _is_rule_set(tset: TriangleSet) -> bool:
    """True when the set is exactly the realized set of its own derivation."""
    derived = derive_parameters(tset)
    if not derived.is_clean:
        return False
    return tset == realized_set(derived.to_params())


@lru_cache(maxsize=65536)
def is_self_consistent(params: ParameterTuple) -> bool:
    """True when the tuple's realized set derives back to it cleanly.

    Beyond the derivation round trip, the tuple must be closed under the
    four closed-form relabelings: whenever one of them maps the realized
    set to an all-metric set holding every (1, k, k+1), that image is a
    homogeneous catalog again, so it must itself be the realized set of
    its own derived parameters.  An image that breaks this is a
    counterexample to the tuple describing any graph at all.
    """
    tset = realized_set(params)
    result = derive_parameters(tset)
    if not result.is_clean or not result.matches(params):
        return False
    d = params.delta
    if d < 3:
        return True
    flags = tset.to_bool_array()
    for _, twist in named_twists(d):
        image, bad, missing = grade_image(flags, twist)
        if bad < 0 and not missing:
            if not _is_rule_set(TriangleSet.from_bool_array(d, image)):
                return False
    return True


def enumerate_candidates(delta: int) -> list[ParameterTuple]:
    """All self-consistent tuples for one diameter, in lexicographic order.

    Keys sort with finite K1 first and K1 = inf last.  The search budget
    caps delta at ``MAX_CANDIDATE_DELTA``.
    """
    if not isinstance(delta, int) or not 3 <= delta <= MAX_CANDIDATE_DELTA:
        raise BudgetError(
            f"enumeration supports delta in 3..{MAX_CANDIDATE_DELTA}, got {delta!r}"
        )
    found = []
    k1_options = list(range(1, delta + 1)) + [INFINITY]
    for k1 in k1_options:
        k2_options = [0] if k1 == INFINITY else list(range(k1, delta + 1))
        c1_options = (
            [2 * delta + 1]
            if k1 == INFINITY
            else list(range(2 * delta + 1, 3 * delta + 3, 2))
        )
        for k2 in k2_options:
            for c0 in range(2 * delta + 2, 3 * delta + 3, 2):
                for c1 in c1_options:
                    p = ParameterTuple(delta, k1, k2, c0, c1)
                    if is_self_consistent(p):
                        found.append(p)
    found.sort(key=ParameterTuple.sort_key)
    return found


def table1_rows(delta: int) -> list[tuple[str, ParameterTuple]]:
    """Expected parameter families for the four closed-form twists.

    Returns (kind, tuple) pairs with kind one of the NAMED_TWISTS (rho,
    rho-inv, tau0, tau1), sorted by kind then tuple.  Covers the generic
    rows at every delta >= 3, the bipartite rows when delta and epsilon
    share parity, and the exceptional small-diameter tau1 rows.
    """
    if not isinstance(delta, int) or delta < 3:
        raise InvalidInputError(f"rows are defined for delta >= 3, got {delta!r}")
    d = delta
    rows: list[tuple[str, ParameterTuple]] = [
        ("rho", ParameterTuple.from_c_values(d, 1, d, 2 * d + 2, 2 * d + 3)),
        ("rho-inv", ParameterTuple.from_c_values(d, d, d, 3 * d + 1, 3 * d + 2)),
    ]
    for eps, kind in ((0, "tau0"), (1, "tau1")):
        s = d + eps
        rows.append(
            (kind, ParameterTuple.from_c_values(d, s // 2, (s + 1) // 2, 2 * s + 1, 2 * s + 2))
        )
        if (d - eps) % 2 == 0:
            rows.append(
                (kind, ParameterTuple(d, INFINITY, 0, c0=2 * s + 2, c1=2 * d + 1))
            )
    if d == 3:
        rows += [
            ("tau1", ParameterTuple.from_c_values(3, 1, 2, 10, 11)),
            ("tau1", ParameterTuple.from_c_values(3, 1, 2, 9, 10)),
            ("tau1", ParameterTuple.from_c_values(3, 2, 2, 10, 11)),
        ]
    if d == 4:
        rows += [
            ("tau1", ParameterTuple.from_c_values(4, 1, 3, 11, 14)),
            ("tau1", ParameterTuple.from_c_values(4, 1, 3, 11, 12)),
            ("tau1", ParameterTuple.from_c_values(4, 2, 3, 11, 14)),
        ]
    rows.sort(key=lambda kv: (kv[0], kv[1].sort_key()))
    return rows
