"""Tests of the benchmark itself: wrong answers are caught, inputs follow the seed.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
import copy
import json
from pathlib import Path

import pytest

import checks
import child
import inputs
import run


def test_golden_domain_counts_are_pinned():
    domain = inputs.load_domain()
    counts = [sum(1 for t in domain if t[0] == d) for d in inputs.CATALOG_DELTAS]
    assert counts == [13, 42, 78, 171, 284, 486, 736, 1139]
    assert all(t in set(inputs.raw_grid(t[0])) for t in domain)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_seed_regenerates_identical_inputs(workload):
    first = inputs.to_bytes(inputs.inputs_for(workload, 7))
    assert first == inputs.to_bytes(inputs.inputs_for(workload, 7))
    if workload != "classify-sweep":  # the sweep's domain is fixed
        assert first != inputs.to_bytes(inputs.inputs_for(workload, 8))


def test_benchmark_json_lists_the_metrics_run_emits():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert run.GRAPHS == tuple(inputs.HOMOGENEITY_GRAPHS)


def test_self_times_subtract_direct_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert run.self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}


def _as_written(data):
    """Answers as run.py reads them back from a child's result file."""
    return json.loads(json.dumps(data))


@pytest.fixture(scope="module")
def classify_answers(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "rows.csv"
    return child.classify_pass(child.NoTrace(), None, str(path))[1]


def _classify_failures(answers, **changes):
    answers = {**answers, **changes}
    return checks.classify_failures(answers["returncode"], answers["stdout"], answers["csv"])


def test_classify_pass_runs_the_command(classify_answers):
    assert classify_answers["returncode"] == 0
    assert [a["delta"] for a in classify_answers["deltas"]] == list(inputs.SWEEP_DELTAS)
    assert sum(a["rows"] for a in classify_answers["deltas"]) == checks.GOLDEN_CSV_ROWS
    assert _classify_failures(classify_answers) == 0


def test_tampered_csv_counts_as_failure(classify_answers, tmp_path):
    data = bytearray(Path(classify_answers["csv"]).read_bytes())
    data[data.index(b"TWISTABLE")] = ord("X")
    tampered = tmp_path / "tampered.csv"
    tampered.write_bytes(bytes(data))
    stdout = classify_answers["stdout"].replace(classify_answers["csv"], str(tampered))
    assert _classify_failures(classify_answers, stdout=stdout, csv=str(tampered)) == 1
    assert _classify_failures(classify_answers, returncode=1) == 1


def test_failed_diameter_counts_as_failure(classify_answers):
    stdout = classify_answers["stdout"].replace(
        "delta=5 twist families: PASS", "delta=5 twist families: FAIL"
    )
    assert _classify_failures(classify_answers, stdout=stdout) == 1
    stdout = stdout.replace("classification: PASS", "classification: FAIL")
    assert _classify_failures(classify_answers, stdout=stdout) == 2


@pytest.fixture(scope="module")
def homogeneity_run():
    state = child.homogeneity_setup(child.NoTrace(), 3)
    answers = _as_written(child.homogeneity_pass(child.NoTrace(), state, None)[1])
    edges = _as_written({name: g.edges() for name, g in state["graphs"]})
    assert checks.homogeneity_failures(answers, edges) == 0
    return answers, edges


@pytest.mark.parametrize("graph", ["icosahedron", "petersen"])
def test_flipped_homogeneity_verdict_counts_as_failure(homogeneity_run, graph):
    answers, edges = homogeneity_run
    flipped = copy.deepcopy(answers)
    entry = next(g for g in flipped["graphs"] if g["graph"] == graph)
    entry["homogeneous"] = not entry["homogeneous"]
    entry["witness"] = None
    assert checks.homogeneity_failures(flipped, edges) == 1


def test_forged_witness_counts_as_failure(homogeneity_run):
    answers, edges = homogeneity_run
    forged = copy.deepcopy(answers)
    entry = next(g for g in forged["graphs"] if g["graph"] == "rook-4")
    dom, img, stuck = entry["witness"]
    dist = checks.distances(16, edges["rook-4"])
    assert checks.witness_replays(dist, (dom, img, stuck))
    extendable = next(
        v for v in range(16)
        if v not in dom and not checks.witness_replays(dist, (dom, img, v))
    )
    entry["witness"] = [dom, img, extendable]
    assert checks.homogeneity_failures(forged, edges) == 1
    skewed = next(
        img[:-1] + [v] for v in range(16)
        if v not in img and dist[img[0], v] != dist[dom[0], dom[-1]]
    )
    entry["witness"] = [dom, skewed, stuck]
    assert checks.homogeneity_failures(forged, edges) == 1


@pytest.fixture(scope="module")
def point_run():
    calls = child.point_setup(child.NoTrace(), 5)[:400]
    items = inputs.point_inputs(5)[:400]
    answers = _as_written(child.point_pass(child.NoTrace(), calls, None)[1])
    domain = inputs.load_domain()
    assert checks.point_failures(items, answers, domain) == 0
    return items, answers, domain


def _forge(point_run, pick, change):
    items, answers, domain = point_run
    forged = copy.deepcopy(answers)
    index = next(i for i, (item, a) in enumerate(zip(items, answers)) if pick(item, a))
    change(forged[index])
    return checks.point_failures(items, forged, domain)


def test_forged_catalog_answers_count_as_failures(point_run):
    def refused(item, a):
        return a["outcome"] == "REFUSED"

    def violated(item, a):
        return a["outcome"] == "METRIC_VIOLATION"

    def accept(a):
        a.update(outcome="MISSING_GEODESIC", k=1)

    def shift(a):
        a["triple"] = [a["triple"][0], a["triple"][1], a["triple"][2] - 1]

    assert _forge(point_run, refused, accept) == 1
    assert _forge(point_run, violated, lambda a: a.update(outcome="REFUSED")) == 1
    assert _forge(point_run, violated, shift) == 1


def test_forged_metric_grades_count_as_failures(point_run):
    def broken(item, a):
        return item[0] == "grade" and not a["metric_ok"]

    def mu_twist(item, a):
        return item[0] == "grade" and item[3] == "mu"

    def degenerate(a):
        i, _, j = a["triangle_witness"]
        a["triangle_witness"] = [i, i, j]

    assert _forge(point_run, broken, degenerate) == 1
    assert _forge(point_run, mu_twist, lambda a: a.update(unit_connected=False)) == 1
    assert _forge(point_run, mu_twist, lambda a: a.update(matrix_sum=a["matrix_sum"] + 1)) == 1
