"""Exhaustive search for twists and verification of the expected catalog.

A twist of a parameter tuple is a permutation of the distance alphabet
that maps its realized triple set onto a metric set still holding every
geodesic triple.  The search walks the permutations of one diameter in
lexicographic order, cutting a prefix as soon as it breaks a condition
that every candidate tuple would need; the few survivors are graded
against all candidates at once and the hits grouped into families keyed
by permutation.

The verifiers compare the search output against the four closed-form
permutations and their expected parameter families, reporting per-row
results instead of raising, so callers can render or exit on them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, InvalidInputError, InvalidStateError
from .parameter_space import (
    ParameterTuple,
    enumerate_candidates,
    realized_set,
    table1_rows,
)
from .permutations import NAMED_TWISTS, Twist, mu, named_twists
from .triangle_catalog import _tables, grade_image
from .twistability import OUTCOME_TWISTABLE, twist_verdict

MAX_SEARCH_DELTA = 8


def _admissible_permutations(delta: int):
    """Permutations of 1..delta that could twist some candidate, in lexicographic order.

    Images are assigned to 1, 2, ... in turn and a prefix is cut as soon
    as it breaks one of two conditions that hold for every candidate,
    so both cuts are exact: each metric, even-perimeter triple of
    perimeter at most 2*delta lies in every realized set and must map to
    a metric triple (checked once its largest entry has an image), and
    each geodesic (1, k, k+1) needs a metric preimage (checked once 1, k
    and k+1 have all been used as images).
    """
    tabs = _tables(delta)
    always_by_top: list[list[tuple[int, int]]] = [[] for _ in range(delta + 1)]
    for a, b, c in tabs.triples[tabs.even_small_metric_ranks].tolist():
        always_by_top[c].append((a, b))
    images = [0] * (delta + 1)
    preimage = [0] * (delta + 1)

    def metric(x: int, y: int, z: int) -> bool:
        return 2 * max(x, y, z) <= x + y + z

    def extend(i: int):
        if i > delta:
            yield tuple(images[1:])
            return
        for v in range(1, delta + 1):
            if preimage[v]:
                continue
            images[i], preimage[v] = v, i
            if all(metric(images[a], images[b], v) for a, b in always_by_top[i]) and all(
                metric(preimage[1], preimage[k], preimage[k + 1])
                for k in range(1, delta)
                if v in (1, k, k + 1) and preimage[1] and preimage[k] and preimage[k + 1]
            ):
                yield from extend(i + 1)
            preimage[v] = 0

    yield from extend(1)


def find_twists(delta: int) -> dict[Twist, list[ParameterTuple]]:
    """Families of parameter tuples twisted by each non-identity permutation.

    Grades every permutation that survives the prefix-pruned walk of
    the symmetric group against every self-consistent tuple for the
    diameter.  Keys are the permutations with at least one hit, in
    lexicographic image order; each family is sorted by tuple.  The
    identity, which fixes every realized set, is left out.
    """
    if not isinstance(delta, int) or not 3 <= delta <= MAX_SEARCH_DELTA:
        raise BudgetError(
            f"twist search supports delta in 3..{MAX_SEARCH_DELTA}, got {delta!r}"
        )
    candidates = enumerate_candidates(delta)
    members = np.stack([realized_set(p).to_bool_array() for p in candidates])
    families: dict[Twist, list[ParameterTuple]] = {}
    for images in _admissible_permutations(delta):
        twist = Twist(images)
        _, bad, missing = grade_image(members, twist)
        hits = (bad < 0) & (missing == 0)
        if twist.is_identity():
            if not hits.all():
                raise InvalidStateError("identity failed to fix some realized set")
        elif hits.any():
            families[twist] = sorted(
                (candidates[t] for t in np.flatnonzero(hits)), key=ParameterTuple.sort_key
            )
    return families


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of checking the twist keys against the four formulas."""

    delta: int
    passed: bool
    expected: tuple[tuple[str, Twist], ...]
    coincidences: tuple[tuple[str, ...], ...]
    extra: tuple[Twist, ...]
    missing: tuple[Twist, ...]
    family_sizes: tuple[tuple[Twist, int], ...]

    def lines(self) -> list[str]:
        out = [f"delta={self.delta} twist keys: {'PASS' if self.passed else 'FAIL'}"]
        sizes = dict(self.family_sizes)
        for name, t in self.expected:
            n = sizes.get(t, 0)
            out.append(f"  {name} = {t.cycles()}: {n} tuple(s)")
        for names in self.coincidences:
            out.append(f"  coincidence: {' = '.join(names)}")
        for t in self.extra:
            out.append(f"  unexpected key: {t.cycles()} ({sizes.get(t, 0)} tuple(s))")
        for t in self.missing:
            out.append(f"  missing key: {t.cycles()}")
        return out

    def to_json(self) -> str:
        return json.dumps(
            {
                "delta": self.delta,
                "passed": self.passed,
                "expected": {name: t.cycles() for name, t in self.expected},
                "coincidences": [list(c) for c in self.coincidences],
                "extra": [t.cycles() for t in self.extra],
                "missing": [t.cycles() for t in self.missing],
                "family_sizes": {t.cycles(): n for t, n in self.family_sizes},
            },
            sort_keys=True,
        )


def verify_theorem_twists(
    delta: int,
    families: dict[Twist, list[ParameterTuple]] | None = None,
) -> TheoremReport:
    """Check that the twist keys are exactly the four closed forms.

    Distinct formula names can denote one permutation; such
    coincidences are reported and the key expected only once.
    """
    if families is None:
        families = find_twists(delta)
    named = named_twists(delta)
    by_value: dict[Twist, list[str]] = {}
    for name, t in named:
        by_value.setdefault(t, []).append(name)
    coincidences = tuple(
        tuple(names) for names in by_value.values() if len(names) > 1
    )
    expected_set = set(by_value)
    found_set = set(families)
    extra = tuple(sorted(found_set - expected_set, key=lambda t: t.images))
    missing = tuple(sorted(expected_set - found_set, key=lambda t: t.images))
    sizes = tuple(
        (t, len(fam))
        for t, fam in sorted(families.items(), key=lambda kv: kv[0].images)
    )
    return TheoremReport(
        delta=delta,
        passed=not extra and not missing,
        expected=tuple(named),
        coincidences=coincidences,
        extra=extra,
        missing=missing,
        family_sizes=sizes,
    )


@dataclass(frozen=True)
class Table1Report:
    """Outcome of checking twist families against the expected rows."""

    delta: int
    passed: bool
    rows: tuple[tuple[str, ParameterTuple, bool], ...]
    unlisted: tuple[tuple[str, ParameterTuple], ...]
    unexpected: tuple[tuple[Twist, tuple[ParameterTuple, ...]], ...]

    def lines(self) -> list[str]:
        out = [f"delta={self.delta} twist families: {'PASS' if self.passed else 'FAIL'}"]
        for kind, params, ok in self.rows:
            out.append(f"  [{'PASS' if ok else 'FAIL'}] {kind}: {params}")
        for kind, params in self.unlisted:
            out.append(f"  unlisted tuple under {kind}: {params}")
        for twist, fam in self.unexpected:
            out.append(
                f"  unexpected key {twist.cycles()}: "
                + ", ".join(str(p) for p in fam)
            )
        return out


def verify_table1(
    delta: int,
    families: dict[Twist, list[ParameterTuple]] | None = None,
) -> Table1Report:
    """Compare each closed-form twist's family with the expected rows."""
    if families is None:
        families = find_twists(delta)
    named = dict(named_twists(delta))
    rows = []
    expected_by_name: dict[str, set[ParameterTuple]] = {n: set() for n in NAMED_TWISTS}
    for name, params in table1_rows(delta):
        expected_by_name[name].add(params)
        found = params in families.get(named[name], ())
        rows.append((name, params, found))
    unlisted = []
    for name in NAMED_TWISTS:
        fam = set(families.get(named[name], ()))
        for params in sorted(fam - expected_by_name[name], key=ParameterTuple.sort_key):
            unlisted.append((name, params))
    known = set(named.values())
    unexpected = tuple(
        (t, tuple(fam))
        for t, fam in sorted(families.items(), key=lambda kv: kv[0].images)
        if t not in known
    )
    passed = all(ok for _, _, ok in rows) and not unlisted and not unexpected
    return Table1Report(
        delta=delta,
        passed=passed,
        rows=tuple(rows),
        unlisted=tuple(unlisted),
        unexpected=unexpected,
    )


def classification_rows(
    delta: int,
    families: dict[Twist, list[ParameterTuple]] | None = None,
) -> list[dict[str, str]]:
    """CSV-ready verdict rows for one diameter.

    One row per (closed-form twist, candidate tuple) pair, in display
    order, then rows for any keys the search found beyond those.  When
    two formula names give one permutation only the first is emitted.
    """
    if families is None:
        families = find_twists(delta)
    rows = []
    seen: set[Twist] = set()
    for _, twist in named_twists(delta):
        if twist in seen:
            continue
        seen.add(twist)
        for params in enumerate_candidates(delta):
            verdict = twist_verdict(params, twist)
            rows.append(_csv_row(twist, params, verdict.outcome, verdict.witness_text()))
    for twist, fam in sorted(families.items(), key=lambda kv: kv[0].images):
        if twist in seen:
            continue
        for params in fam:
            rows.append(_csv_row(twist, params, OUTCOME_TWISTABLE, ""))
    return rows


def _csv_row(twist: Twist, params: ParameterTuple, outcome: str, witness: str):
    k1, k2, c, cprime = params.csv_fields()[1:]
    return {
        "sigma": twist.cycles(),
        "delta": str(params.delta),
        "K1": k1,
        "K2": k2,
        "C": c,
        "Cprime": cprime,
        "verdict": outcome,
        "witness": witness,
    }


def classify_cycle_twists(n: int) -> list[Twist]:
    """All twists of the n-cycle metric: the modular maps for units of n.

    Each unit k of Z_n relabels the cycle by multiplication, sending
    distance d to min(kd mod n, n - kd mod n).  Units k and n - k give
    one map, so the list holds each permutation once, in order of its
    least unit.  The identity (k = 1) is included.  Every returned map
    is checked against the cycle itself before being returned.
    """
    if not isinstance(n, int) or n < 3:
        raise InvalidInputError(f"cycle twists need an integer n >= 3, got {n!r}")
    if n > 128:
        raise BudgetError(f"cycle alphabet {n // 2} exceeds the supported maximum")
    out: dict[Twist, int] = {}
    for k in range(1, n):
        if math.gcd(k, n) == 1:
            t = mu(n, k)
            out.setdefault(t, k)
    twists = list(out)
    _verify_cycle_twists(n, twists)
    return twists


def _verify_cycle_twists(n: int, twists: list[Twist]) -> None:
    """Confirm each map really sends the cycle metric to a cycle metric."""
    from .finite_graphs import apply_twist_metric, cycle_graph

    g = cycle_graph(n)
    for t in twists:
        report = apply_twist_metric(g, t)
        if not report.valid:
            raise InvalidStateError(
                f"cycle twist {t.cycles()} produced an invalid metric on C_{n}"
            )
        degrees = (report.matrix == 1).sum(axis=1)
        if not (degrees == 2).all():
            raise InvalidStateError(
                f"cycle twist {t.cycles()} did not map C_{n} onto a cycle"
            )
