"""Benchmark of mhg-twist: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is classify-sweep, homogeneity, point-verdicts, or all.  Load is a
closed loop from one caller: fresh child processes, one at a time, until
S seconds are used.  Every answer is checked after its child exits.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each
workload once with spans around every layer call and prints the
per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  Exit status: 0 when every
answer checks, 1 when some answer is wrong, 2 when the benchmark cannot
run (for instance without the engine's source under src/).
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
CHILD_TIMEOUT_S = 150
#: share of a traced pass's wall time its spans may leave uncovered
UNCOVERED_SHARE = 0.15
WORKLOADS = ("classify-sweep", "homogeneity", "point-verdicts")

END_TO_END = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

#: passes whose calls give the verdict latencies: point-verdicts is timed per
#: call cold; classify-sweep's cold per-diameter times spread too widely
#: between children to compare runs; the homogeneity search has no cache
VERDICT_PASSES = {"classify-sweep": "warm", "homogeneity": "all", "point-verdicts": "cold"}
#: warm passes per child; classify-sweep's take 0.6 s and give its latencies
WARM_PASSES = {"classify-sweep": 5, "homogeneity": 1, "point-verdicts": 1}

GRAPHS = ("icosahedron", "crown-5", "k333", "rook-3", "c9", "petersen", "rook-4", "j52")
HOM = "finite_graphs.is_metrically_homogeneous"

#: per-layer metric -> (unit, better); the traced run emits every one
PER_LAYER = {
    "cli.import.s": ("s", "lower"),
    "parameter_space.enumerate_candidates.s": ("s", "lower"),
    "parameter_space.candidates": ("count", "lower"),
    "parameter_space.kept_ratio": ("ratio", "higher"),
    "classifier.find_twists.s": ("s", "lower"),
    "classifier.find_twists.warm_s": ("s", "lower"),
    "classifier.keys": ("count", "lower"),
    "classifier.family_tuples": ("count", "lower"),
    "classifier.verify.s": ("s", "lower"),
    "classifier.classification_rows.s": ("s", "lower"),
    "classifier.rows": ("count", "lower"),
    "cli.csv_write.s": ("s", "lower"),
    "cli.csv_bytes": ("bytes", "lower"),
    "finite_graphs.build.s": ("s", "lower"),
    **{
        f"{HOM}.{g}.{field}": unit
        for g in GRAPHS
        for field, unit in (("s", ("s", "lower")), ("states", ("count", "lower")),
                            ("peak_mb", ("MB", "lower")))
    },
    f"{HOM}.states_per_s": ("1/s", "higher"),
    "finite_graphs.check_antipodal_law.s": ("s", "lower"),
    "finite_graphs.find_antipodal_cover.c5.s": ("s", "lower"),
    "finite_graphs.find_antipodal_cover.rook-3.s": ("s", "lower"),
    "parameter_space.is_self_consistent.s": ("s", "lower"),
    "parameter_space.is_self_consistent.calls": ("count", "lower"),
    "parameter_space.is_self_consistent.domain_ratio": ("ratio", "higher"),
    "twistability.check_twistable.s": ("s", "lower"),
    "twistability.check_twistable.calls": ("count", "lower"),
    "twistability.check_twistable.refusals": ("count", "lower"),
    "twistability.check_twistable.twistable_ratio": ("ratio", "higher"),
    "twistability.check_twistable.distinct_tuples": ("count", "lower"),
    "finite_graphs.apply_twist_metric.s": ("s", "lower"),
    "finite_graphs.apply_twist_metric.calls": ("count", "lower"),
    "finite_graphs.apply_twist_metric.valid_ratio": ("ratio", "higher"),
    "finite_graphs.cycle_graph.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Child:
    """A finished child process: exit code, start and wall time, peak RSS, output."""

    def __init__(self, reply: dict, out_path: Path, err_path: Path):
        self.start = reply["start"]
        self.wall = reply["wall"]
        self.returncode = reply["returncode"]
        self.peak_rss_mb = reply["peak_rss_mb"]
        self.stdout = out_path.read_text(encoding="utf-8", errors="replace")
        self.stderr = err_path.read_text(encoding="utf-8", errors="replace")


def fixed_env() -> dict:
    env = dict(os.environ)
    env.pop("MHG_TWIST_JOBS", None)
    env.pop("MHG_TWIST_BACKEND", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Runner:
    """Runs the children of one benchmark invocation through spawner.py."""

    def __init__(self, spawner: subprocess.Popen, seed: int):
        import checks
        import inputs

        self.checks, self.inputs = checks, inputs
        self.spawner = spawner
        self.seed = seed
        self.domain = inputs.load_domain()
        self.items = inputs.point_inputs(seed)
        self.count = 0

    def spawn(self, argv: list[str]) -> Child:
        self.count += 1
        out_path, err_path = WORK / f"c{self.count}.stdout", WORK / f"c{self.count}.stderr"
        request = [[sys.executable, *argv], str(out_path), str(err_path)]
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("perfbench: the spawner process ended early")
        child = Child(json.loads(reply), out_path, err_path)
        if child.returncode != 0:
            sys.stderr.write(f"perfbench: {argv[:3]} exited {child.returncode}\n")
            sys.stderr.write(child.stderr[-2000:])
        return child

    def classify_cli(self) -> tuple[Child, int, int]:
        """The command as a fresh process; returns (child, attempted, failed)."""
        csv_path = WORK / "cli.csv"
        csv_path.unlink(missing_ok=True)
        child = self.spawn(["-m", "mhg_twist", *self.inputs.classify_argv(csv_path)])
        failed = self.checks.classify_failures(child.returncode, child.stdout, csv_path)
        return child, self.ops_per_pass("classify-sweep"), failed

    def workload_child(self, workload: str, mode: str, warm: int):
        """Run one child; returns (child, result or None, attempted, failed)."""
        out = WORK / f"result{self.count + 1}.json"
        child = self.spawn([
            str(HERE / "child.py"), workload, str(self.seed), mode, str(warm),
            str(out), str(WORK / f"api{self.count + 1}.csv"),
        ])
        ops = self.ops_per_pass(workload)
        if child.returncode != 0 or not out.is_file():
            return child, None, ops * (1 + warm), ops * (1 + warm)
        result = json.loads(out.read_text(encoding="utf-8"))
        cold, *repeats = [p["answers"] for p in result["passes"]]
        failed = self.pass_failures(workload, cold, result)
        for answers in repeats:
            failed += self.checks.repeat_failures(cold, answers)
            if workload == "classify-sweep":
                failed += self.pass_failures(workload, answers, result)
        return child, result, ops * len(result["passes"]), failed

    def ops_per_pass(self, workload: str) -> int:
        if workload == "classify-sweep":
            return len(self.inputs.SWEEP_DELTAS) + 1
        if workload == "homogeneity":
            return 2 * len(self.inputs.HOMOGENEITY_GRAPHS) + len(self.inputs.COVER_BASES)
        return len(self.items)

    def pass_failures(self, workload: str, answers, result: dict) -> int:
        if workload == "classify-sweep":
            return self.checks.classify_failures(
                answers["returncode"], answers["stdout"], answers["csv"]
            )
        if workload == "homogeneity":
            return self.checks.homogeneity_failures(answers, result["edges"])
        return self.checks.point_failures(self.items, answers, self.domain)


def _median(values):
    return statistics.median(values) if values else float("nan")


def _percentiles_ms(op_s):
    import numpy as np

    p50, p99 = np.percentile(np.asarray(op_s) * 1e3, [50, 99])
    return float(p50), float(p99)


def measure(runner: Runner, workload: str, seconds: float) -> dict:
    """Fresh children until the time is used; medians over their samples."""
    samples = defaultdict(list)
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if workload == "classify-sweep":
            cli, ops, wrong = runner.classify_cli()
            attempted += ops
            failed += wrong
            samples["cold_s"].append(cli.wall)
            samples["peak_rss_mb"].append(cli.peak_rss_mb)
        child, result, ops, wrong = runner.workload_child(
            workload, "measure", warm=WARM_PASSES[workload]
        )
        attempted += ops
        failed += wrong
        if result is not None:
            cold, *warm = result["passes"]
            samples["setup_s"].append(result["ready"] - child.start)
            samples["warm_s"].extend(p["seconds"] for p in warm)
            for p in {"cold": [cold], "warm": warm, "all": [cold, *warm]}[VERDICT_PASSES[workload]]:
                p50, p99 = _percentiles_ms(p["op_s"])
                samples["verdict_p50_ms"].append(p50)
                samples["verdict_p99_ms"].append(p99)
            if workload != "classify-sweep":
                samples["cold_s"].append(cold["seconds"])
                samples["peak_rss_mb"].append(child.peak_rss_mb)
        now = time.perf_counter()
        # start another round only if at least half of it fits in the time
        if now - start + (now - t0) / 2 > seconds:
            break
    metrics = {name: _median(samples[name]) for name in END_TO_END}
    counts = {name: len(samples[name]) for name in END_TO_END}
    return {"metrics": metrics, "units": END_TO_END, "attempted": attempted,
            "failed": failed, "samples": counts}


def self_times(spans) -> dict:
    """Total self time per span name: duration minus direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals = defaultdict(float)
    for (name, *_), t in zip(spans, own):
        totals[name] += t
    return totals


def layer_metrics(runner: Runner, workload: str, result: dict) -> dict:
    setup = self_times(result["spans"]["setup"])
    cold = self_times(result["spans"]["cold"])
    answers = result["passes"][0]["answers"]
    if workload == "classify-sweep":
        extra = self_times(result["spans"]["extra"])
        deltas = answers["deltas"]
        raw = sum(len(runner.inputs.raw_grid(d)) for d in runner.inputs.SWEEP_DELTAS)
        candidates = sum(a["candidates"] for a in deltas)
        return {
            "cli.import.s": setup["cli.import"],
            "parameter_space.enumerate_candidates.s": cold["parameter_space.enumerate_candidates"],
            "parameter_space.candidates": candidates,
            "parameter_space.kept_ratio": candidates / raw,
            "classifier.find_twists.s": cold["classifier.find_twists"],
            "classifier.find_twists.warm_s": extra["classifier.find_twists.warm"],
            "classifier.keys": sum(a["keys"] for a in deltas),
            "classifier.family_tuples": sum(a["family_tuples"] for a in deltas),
            "classifier.verify.s": cold["classifier.verify"],
            "classifier.classification_rows.s": cold["classifier.classification_rows"],
            "classifier.rows": sum(a["rows"] for a in deltas),
            "cli.csv_write.s": cold["cli.csv_write"],
            "cli.csv_bytes": Path(answers["csv"]).stat().st_size,
        }
    if workload == "homogeneity":
        out = {"finite_graphs.build.s": setup["finite_graphs.build"]}
        for g in answers["graphs"]:
            name = g["graph"]
            out[f"{HOM}.{name}.s"] = cold[f"{HOM}.{name}"]
            out[f"{HOM}.{name}.states"] = g["states"]
            out[f"{HOM}.{name}.peak_mb"] = g["peak_bytes"] / 2**20
        searched = sum(cold[f"{HOM}.{g}"] for g in GRAPHS)
        out[f"{HOM}.states_per_s"] = sum(g["states"] for g in answers["graphs"]) / searched
        out["finite_graphs.check_antipodal_law.s"] = cold["finite_graphs.check_antipodal_law"]
        for c in answers["covers"]:
            key = f"finite_graphs.find_antipodal_cover.{c['base']}"
            out[f"{key}.s"] = cold[key]
        return out
    checks = [a for item, a in zip(runner.items, answers) if item[0] == "check"]
    grades = [a for item, a in zip(runner.items, answers) if item[0] == "grade"]
    refusals = sum(a["outcome"] == "REFUSED" for a in checks)
    answered = len(checks) - refusals
    return {
        "parameter_space.is_self_consistent.s": cold["parameter_space.is_self_consistent"],
        "parameter_space.is_self_consistent.calls": len(checks),
        "parameter_space.is_self_consistent.domain_ratio":
            sum(a["consistent"] is True for a in checks) / len(checks),
        "twistability.check_twistable.s": cold["twistability.check_twistable"],
        "twistability.check_twistable.calls": len(checks),
        "twistability.check_twistable.refusals": refusals,
        "twistability.check_twistable.twistable_ratio":
            sum(a["outcome"] == "TWISTABLE" for a in checks) / max(answered, 1),
        "twistability.check_twistable.distinct_tuples":
            len({tuple(item[1]) for item in runner.items if item[0] == "check"}),
        "finite_graphs.apply_twist_metric.s": cold["finite_graphs.apply_twist_metric"],
        "finite_graphs.apply_twist_metric.calls": len(grades),
        "finite_graphs.apply_twist_metric.valid_ratio":
            sum(a["valid"] for a in grades) / len(grades),
        "finite_graphs.cycle_graph.s": setup["finite_graphs.cycle_graph"],
    }


def traced(runner: Runner, workload: str) -> dict:
    """One traced child per workload; the overhead is taken on ``workload``."""
    if workload == "classify-sweep":
        cli, attempted, failed = runner.classify_cli()
        reference = cli.wall
    else:
        child, result, attempted, failed = runner.workload_child(workload, "measure", warm=0)
        reference = result["passes"][0]["seconds"] if result else float("nan")
    metrics = {}
    for w in WORKLOADS:
        child, result, ops, wrong = runner.workload_child(w, "trace", warm=0)
        attempted += ops
        failed += wrong
        if result is None:
            continue
        metrics.update(layer_metrics(runner, w, result))
        if w == workload:
            cold = result["passes"][0]
            wall = cold["end"] - child.start if w == "classify-sweep" else cold["seconds"]
            metrics["trace.overhead_s"] = wall - reference
            # the command's cold_s includes its import; the other passes do not
            counted = ("setup", "cold") if w == "classify-sweep" else ("cold",)
            covered = sum(sum(self_times(result["spans"][k]).values()) for k in counted)
            sys.stderr.write(
                f"perfbench: {w} spans cover {covered:.4f} s of an untraced cold "
                f"{reference:.4f} s; traced wall {wall:.4f} s\n"
            )
            # a layer call without a span would leave its time uncovered
            attempted += 1
            if wall - covered > UNCOVERED_SHARE * wall:
                failed += 1
                sys.stderr.write(f"perfbench: {w} spans leave over "
                                 f"{UNCOVERED_SHARE:.0%} of the traced wall uncovered\n")
    units = {name: PER_LAYER[name][0] for name in metrics}
    return {"metrics": metrics, "units": units, "attempted": attempted, "failed": failed,
            "samples": {}}


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def report(workload: str, outcome: dict) -> None:
    print(f"workload {workload}: attempted {outcome['attempted']}, failed "
          f"{outcome['failed']}")
    for name, value in outcome["metrics"].items():
        n = outcome["samples"].get(name)
        note = f"  (median of {n})" if n else ""
        print(f"  {name:<60} {value:.6g} {outcome['units'][name]}{note}")
    ratio = outcome["failed"] / max(outcome["attempted"], 1)
    print(f"  {'failed_ratio':<60} {ratio:.6g} ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mhg_twist" / "__init__.py").is_file() or not (
        ROOT / "tests" / "oracles.py"
    ).is_file():
        sys.stderr.write("perfbench: needs src/mhg_twist and tests/oracles.py beside it\n")
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    # started before this process loads anything: see spawner.py
    spawner = subprocess.Popen(
        [sys.executable, str(HERE / "spawner.py"), str(CHILD_TIMEOUT_S)],
        cwd=ROOT, env=fixed_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        print("perfbench env " + json.dumps(environment(), sort_keys=True))
        runner = Runner(spawner, args.seed)
        # compile the engine's bytecode once, so no measured set-up pays for it
        runner.spawn(["-c", "import mhg_twist.cli"])
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        outcomes = {}
        for w in names:
            outcomes[w] = traced(runner, w) if args.trace else measure(runner, w, args.seconds)
            report(w, outcomes[w])
    finally:
        spawner.stdin.close()
        spawner.wait()
        spawner.stdout.close()
        shutil.rmtree(WORK, ignore_errors=True)

    attempted = sum(o["attempted"] for o in outcomes.values())
    failed = sum(o["failed"] for o in outcomes.values())
    metrics = {}
    for w, o in outcomes.items():
        prefix = "" if len(outcomes) == 1 else f"{w}."
        for name, value in o["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": o["units"][name]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
