"""Answer checks, run after the timed passes and outside the engine.

Each check returns the number of wrong answers among the operations it
was given.  Catalog answers are replayed with the plain-loop oracles of
``tests/oracles.py`` against the golden domain in ``domain.txt``; graph
answers are replayed on distance matrices computed here with numpy.
"""
from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path

import numpy as np

import inputs
from inputs import oracles

GOLDEN_CSV_SHA256 = "16ab062c9b3c2996d680d383891ccf1fe2bc813a47f55e22ff0e887c0baaae50"
GOLDEN_CSV_ROWS = 4296

# --------------------------------------------------------------------------
# classify-sweep


def csv_failures(path: Path) -> int:
    """1 unless the file is the golden classification CSV, else 0."""
    try:
        data = Path(path).read_bytes()
    except OSError:
        return 1
    ok = (
        hashlib.sha256(data).hexdigest() == GOLDEN_CSV_SHA256
        and data.count(b"\n") - 1 == GOLDEN_CSV_ROWS
    )
    return 0 if ok else 1


def classify_failures(returncode: int, stdout: str, csv_path) -> int:
    """Wrong answers of one classify command, as its output and CSV show them.

    One operation per diameter (its twist keys and Table 1 families both
    PASS) and one for the command (exit 0, ``classification: PASS``, the
    golden row count and CSV).
    """
    lines = set(stdout.splitlines())
    wrong = sum(
        f"delta={d} twist keys: PASS" not in lines
        or f"delta={d} twist families: PASS" not in lines
        for d in inputs.SWEEP_DELTAS
    )
    ok = (
        returncode == 0
        and "classification: PASS" in lines
        and f"wrote {GOLDEN_CSV_ROWS} rows to {csv_path}" in lines
        and csv_failures(csv_path) == 0
    )
    return wrong + (not ok)


# --------------------------------------------------------------------------
# homogeneity


def distances(n: int, edges) -> np.ndarray:
    """All-pairs BFS distances from an edge list; -1 marks unreachable."""
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    dist = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    frontier = np.eye(n, dtype=bool)
    level = 0
    while frontier.any():
        level += 1
        frontier = (frontier.astype(np.int64) @ adj.astype(np.int64) > 0) & (dist < 0)
        dist[frontier] = level
    return dist


def witness_replays(dist: np.ndarray, witness) -> bool:
    """The domain maps isometrically and the stuck vertex has no image."""
    if witness is None:
        return False
    dom, img, stuck = list(witness[0]), list(witness[1]), witness[2]
    n = dist.shape[0]
    if not dom or len(dom) != len(img) or stuck in dom:
        return False
    if len(set(dom)) != len(dom) or len(set(img)) != len(img):
        return False
    if not all(0 <= v < n for v in dom + img + [stuck]):
        return False
    if not (dist[np.ix_(dom, dom)] == dist[np.ix_(img, img)]).all():
        return False
    need = dist[stuck, dom]
    return not (dist[:, img] == need[None, :]).all(axis=1).any()


def antipodal_verdict(dist: np.ndarray) -> tuple[str, list | None]:
    diam = int(dist.max())
    far = dist == diam
    if not (far.sum(axis=1) == 1).all():
        return "not-antipodal", None
    partner = far.argmax(axis=1)
    holds = (dist[partner] == diam - dist).all()
    return ("holds" if holds else "fails"), partner.tolist()


def homogeneity_failures(answers: dict, edges: dict) -> int:
    """Two operations per graph (homogeneity, antipodal law), one per cover."""
    wrong = 0
    graphs = answers["graphs"]
    if [g["graph"] for g in graphs] != list(inputs.HOMOGENEITY_GRAPHS):
        return 2 * len(inputs.HOMOGENEITY_GRAPHS) + len(inputs.COVER_BASES)
    for g in graphs:
        expected, n, m = inputs.HOMOGENEITY_GRAPHS[g["graph"]]
        graph_edges = edges[g["graph"]]
        in_range = all(0 <= v < n for e in graph_edges for v in e)
        dist = distances(n, graph_edges) if in_range else None
        if dist is None or len(graph_edges) != m or (dist < 0).any():
            wrong += 2
            continue
        ok = g["homogeneous"] is expected and g["complete"] is True and g["states"] > 0
        if expected:
            ok = ok and g["witness"] is None
        else:
            ok = ok and witness_replays(dist, g["witness"])
        wrong += not ok
        verdict, pairing = antipodal_verdict(dist)
        wrong += g["antipodal"] != verdict or (
            verdict != "not-antipodal" and g["pairing"] != pairing
        )
    covers = answers["covers"]
    for name, (_, winners) in inputs.COVER_BASES.items():
        found = [c["winners"] for c in covers if c["base"] == name]
        wrong += found != [list(winners)]
    return wrong


# --------------------------------------------------------------------------
# point-verdicts


@lru_cache(maxsize=None)
def _realized(params: tuple) -> frozenset:
    return frozenset(oracles.realized(*params))


def _catalog_ok(params: tuple, images: list, answer: dict, domain: set) -> bool:
    if params not in domain:
        return answer["outcome"] == "REFUSED"
    image = oracles.image(_realized(params), images)
    non_metric = sorted(t for t in image if not oracles.is_metric_triple(t))
    delta = params[0]
    missing = [k for k in range(1, delta) if (1, k, k + 1) not in image]
    outcome = answer["outcome"]
    if non_metric:
        return outcome == "METRIC_VIOLATION" and tuple(answer["triple"] or ()) == non_metric[0]
    if missing:
        return outcome == "MISSING_GEODESIC" and answer["k"] == missing[0]
    target = tuple(answer["image"] or ())
    return (
        outcome == "TWISTABLE"
        and target in domain
        and image == _realized(target)
    )


def twisted_matrix(n: int, images: list) -> np.ndarray:
    """The n-cycle metric relabelled through the twist images."""
    idx = np.arange(n)
    gap = np.abs(idx[:, None] - idx[None, :])
    cycle = np.minimum(gap, n - gap)
    return np.array([0] + list(images), dtype=np.int64)[cycle]


def _grade_ok(n: int, images: list, kind: str, answer: dict) -> bool:
    m = twisted_matrix(n, images)
    if answer["matrix_sum"] != int(m.sum()):
        return False
    violated = np.zeros_like(m, dtype=bool)
    for k in range(n):
        violated |= m > m[:, k : k + 1] + m[k : k + 1, :]
    metric_ok = not violated.any()
    if answer["metric_ok"] != metric_ok:
        return False
    if not metric_ok:
        i, k, j = answer["triangle_witness"] or (0, 0, 0)
        if not m[i, k] + m[k, j] < m[i, j]:
            return False
    reach = np.zeros(n, dtype=bool)
    reach[0] = True
    unit = m == 1
    while True:
        grown = reach | unit[reach].any(axis=0)
        if (grown == reach).all():
            break
        reach = grown
    if answer["unit_connected"] != bool(reach.all()):
        return False
    u, v = np.nonzero(unit)
    du, dv = m[u], m[v]
    present = [
        bool((((du == k) & (dv == k + 1)) | ((du == k + 1) & (dv == k))).any())
        for k in range(1, len(images))
    ]
    missing = [k for k, p in enumerate(present, 1) if not p]
    if answer["geodesics_ok"] != (not missing):
        return False
    if answer["missing_geodesic"] != (missing[0] if missing else None):
        return False
    valid = metric_ok and bool(reach.all()) and not missing
    if answer["valid"] != valid:
        return False
    return valid or kind != "mu"


def point_failures(items: list, answers: list, domain: set) -> int:
    """One operation per call in the stream."""
    if len(answers) != len(items):
        return len(items)
    wrong = 0
    for item, answer in zip(items, answers):
        if item[0] == "check":
            ok = _catalog_ok(tuple(item[1]), item[2], answer, domain)
        else:
            ok = _grade_ok(item[1], item[2], item[3], answer)
        wrong += not ok
    return wrong


def repeat_failures(cold, warm) -> int:
    """A warm pass must give the cold pass's answers, operation by operation."""
    if isinstance(cold, dict):
        cold = cold.get("graphs", []) + cold.get("covers", []) + cold.get("deltas", [])
        warm = warm.get("graphs", []) + warm.get("covers", []) + warm.get("deltas", [])
    if len(cold) != len(warm):
        return max(len(cold), len(warm))
    return sum(a != b for a, b in zip(cold, warm))
