"""Seeded workload inputs, as plain data that does not touch the engine.

The same seed gives byte-identical inputs (``to_bytes``).  Twist images
come from the independent formulas in ``tests/oracles.py``, so a defect in
the engine's own constructors cannot reach the inputs it is graded on.
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import oracles  # noqa: E402  (read-only reuse of the test oracles)

SWEEP_DELTAS = range(3, 9)
CATALOG_DELTAS = range(3, 11)
CYCLE_SIZES = range(7, 51)
CATALOG_TUPLES = 1400
GRADES_PER_CYCLE = 18
NAMED = ("rho", "rho-inv", "tau0", "tau1")

#: expected verdict, vertex count and edge count of each homogeneity graph
HOMOGENEITY_GRAPHS = {
    "icosahedron": (True, 12, 30),
    "crown-5": (True, 10, 20),
    "k333": (True, 9, 27),
    "rook-3": (True, 9, 18),
    "c9": (True, 9, 9),
    "petersen": (False, 10, 15),
    "rook-4": (False, 16, 48),
    "j52": (False, 10, 30),
}
#: cover search bases with their vertex counts and expected winners
COVER_BASES = {
    "c5": (5, ("icosahedron",)),
    "rook-3": (9, ("johnson-6-3",)),
}

DOMAIN_FILE = Path(__file__).resolve().parent / "domain.txt"


def classify_argv(out_path) -> list[str]:
    """The north-star classify command's arguments; no --jobs flag."""
    return [
        "classify", "--delta-min", str(SWEEP_DELTAS[0]), "--delta-max",
        str(SWEEP_DELTAS[-1]), "--verify-table1", "--out", str(out_path),
    ]


def raw_grid(delta: int) -> list[tuple]:
    """Every structurally valid (delta, K1, K2, C0, C1); K1 None is infinity."""
    out = []
    for k1 in list(range(1, delta + 1)) + [None]:
        k2s = [0] if k1 is None else range(k1, delta + 1)
        c1s = [2 * delta + 1] if k1 is None else range(2 * delta + 1, 3 * delta + 3, 2)
        for k2 in k2s:
            for c0 in range(2 * delta + 2, 3 * delta + 3, 2):
                for c1 in c1s:
                    out.append((delta, k1, k2, c0, c1))
    return out


def load_domain(path: Path = DOMAIN_FILE) -> set[tuple]:
    """The golden self-consistent tuples, in the ``raw_grid`` encoding."""
    domain = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        d, k1, k2, c0, c1 = line.split()
        domain.add((int(d), None if k1 == "inf" else int(k1), int(k2), int(c0), int(c1)))
    return domain


def named_images(name: str, delta: int) -> tuple[int, ...]:
    if name == "rho":
        return oracles.rho_images(delta)
    if name == "rho-inv":
        return oracles.rho_inverse_images(delta)
    return oracles.tau_images(delta, int(name[-1]))


def _shuffled(rng: random.Random, n: int) -> list[int]:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return images


def homogeneity_inputs(seed: int) -> dict:
    """A vertex relabelling per graph: new vertex i is old vertex perm[i]."""
    rng = random.Random(f"homogeneity:{seed}")

    def perm(n):
        p = list(range(n))
        rng.shuffle(p)
        return p

    return {
        "graphs": [[name, perm(n)] for name, (_, n, _) in HOMOGENEITY_GRAPHS.items()],
        "covers": [[name, perm(n)] for name, (n, _) in COVER_BASES.items()],
    }


def point_inputs(seed: int) -> list[list]:
    """The point-verdicts stream, in call order.

    ``["check", [delta, K1, K2, C0, C1], images]``: distinct tuples are
    drawn per delta in proportion to the raw grid, so about half are off
    the domain, and each is checked twice, under a named twist and under
    a random permutation.  ``["grade", n, images, kind]``: each cycle
    C7..C50 is graded the same number of times, half under a unit
    multiplier (kind "mu"), half under a random permutation of 1..n//2.
    """
    rng = random.Random(f"point-verdicts:{seed}")
    grids = {d: raw_grid(d) for d in CATALOG_DELTAS}
    total = sum(len(g) for g in grids.values())
    items: list[list] = []
    for d, grid in grids.items():
        for params in rng.sample(grid, round(CATALOG_TUPLES * len(grid) / total)):
            items.append(["check", list(params), list(named_images(rng.choice(NAMED), d))])
            items.append(["check", list(params), _shuffled(rng, d)])
    for n in CYCLE_SIZES:
        for _ in range(GRADES_PER_CYCLE // 2):
            k = rng.choice(oracles.units(n))
            items.append(["grade", n, list(oracles.mu_images(n, k)), "mu"])
            items.append(["grade", n, _shuffled(rng, n // 2), "random"])
    rng.shuffle(items)
    return items


def inputs_for(workload: str, seed: int):
    if workload == "homogeneity":
        return homogeneity_inputs(seed)
    if workload == "point-verdicts":
        return point_inputs(seed)
    # the sweep's domain is fixed: the seed has no effect on it
    return {"deltas": list(SWEEP_DELTAS)}


def to_bytes(inputs) -> bytes:
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()


def petersen_adjacency() -> list[list[bool]]:
    """Kneser graph K(5, 2): 2-subsets of a 5-set, adjacent when disjoint."""
    subsets = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    return [[not set(s) & set(t) for t in subsets] for s in subsets]
