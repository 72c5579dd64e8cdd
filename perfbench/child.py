"""One workload process: set up, run the passes, write a result file.

    python3 perfbench/child.py WORKLOAD SEED MODE WARM_PASSES OUT_JSON CSV_PREFIX

MODE is ``measure`` (passes timed per call, nothing else recorded) or
``trace`` (spans around every layer call, kept in memory and written out
at the end).  The first pass runs with every engine cache empty; the
warm passes repeat it in the same process.  Answers are written out
as plain data and checked by run.py after this process has exited.
"""
from __future__ import annotations

import io
import json
import sys
import time
import tracemalloc
from contextlib import contextmanager, nullcontext, redirect_stdout

import inputs


class Trace:
    """Spans kept in memory as [name, start, end, parent index or -1]."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def record(self, name: str, start: float, end: float):
        """A span measured outside a ``with`` block, under the open span."""
        self.spans.append([name, start, end, self._open[-1] if self._open else -1])


class NoTrace:
    enabled = False
    spans: list = []
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def record(self, name: str, start: float, end: float):
        pass


# --------------------------------------------------------------------------
# classify-sweep: the north-star command through mhg_twist.cli.main


def classify_setup(trace, _seed):
    with trace.span("cli.import"):
        import mhg_twist.cli  # noqa: F401  (the command's own import cost)
    return None


#: the names ``mhg_twist.cli`` imported, wrapped in spans during a pass
CLI_LAYERS = ("find_twists", "verify_theorem_twists", "verify_table1", "classification_rows")


def classify_pass(trace, _state, csv_path):
    """One ``mhg_twist.cli.main`` classify call in this process, stdout captured.

    Spans and per-diameter times come from wrapping the layer functions
    that ``mhg_twist.cli`` imported; a diameter's time runs from its
    ``find_twists`` call to the end of its ``classification_rows``.
    """
    from mhg_twist import cli
    from mhg_twist.parameter_space import enumerate_candidates

    layer = {name: getattr(cli, name) for name in CLI_LAYERS}
    per_delta, bounds = [], []

    def find_twists(delta, *args, **kwargs):
        per_delta.append({"delta": delta, "candidates": None})
        bounds.append([time.perf_counter(), None])
        if trace.enabled:
            with trace.span("parameter_space.enumerate_candidates"):
                per_delta[-1]["candidates"] = len(enumerate_candidates(delta))
        with trace.span("classifier.find_twists"):
            families = layer["find_twists"](delta, *args, **kwargs)
        per_delta[-1]["keys"] = len(families)
        per_delta[-1]["family_tuples"] = sum(len(f) for f in families.values())
        return families

    def verify(name):
        def call(*args, **kwargs):
            with trace.span("classifier.verify"):
                return layer[name](*args, **kwargs)
        return call

    def classification_rows(*args, **kwargs):
        with trace.span("classifier.classification_rows"):
            rows = layer["classification_rows"](*args, **kwargs)
        per_delta[-1]["rows"] = len(rows)
        bounds[-1][1] = time.perf_counter()
        return rows

    wrappers = {
        "find_twists": find_twists,
        "verify_theorem_twists": verify("verify_theorem_twists"),
        "verify_table1": verify("verify_table1"),
        "classification_rows": classification_rows,
    }
    stdout = io.StringIO()
    try:
        for name, fn in wrappers.items():
            setattr(cli, name, fn)
        with redirect_stdout(stdout):
            returncode = cli.main(inputs.classify_argv(csv_path))
    finally:
        for name, fn in layer.items():
            setattr(cli, name, fn)
    if bounds and bounds[-1][1] is not None:
        # the command's tail after the last rows: the CSV write and two lines
        trace.record("cli.csv_write", bounds[-1][1], time.perf_counter())
    op_s = [end - start for start, end in bounds if end is not None]
    answers = {"returncode": returncode, "stdout": stdout.getvalue(), "csv": csv_path,
               "deltas": per_delta}
    return op_s, answers


def classify_extra(trace, _state):
    from mhg_twist.classifier import find_twists

    for d in inputs.SWEEP_DELTAS:
        with trace.span("classifier.find_twists.warm"):
            find_twists(d)


# --------------------------------------------------------------------------
# homogeneity: the one-point extension search on relabelled graphs


def homogeneity_setup(trace, seed):
    import numpy as np

    from mhg_twist.finite_graphs import (
        FiniteMetricGraph,
        complete_multipartite,
        crown_graph,
        cycle_graph,
        icosahedron,
        johnson_graph,
        rook_graph,
    )

    constructors = {
        "icosahedron": icosahedron,
        "crown-5": lambda: crown_graph(5),
        "k333": lambda: complete_multipartite([3, 3, 3]),
        "rook-3": lambda: rook_graph(3),
        "c9": lambda: cycle_graph(9),
        "petersen": lambda: FiniteMetricGraph(inputs.petersen_adjacency()),
        "rook-4": lambda: rook_graph(4),
        "j52": lambda: johnson_graph(5, 2),
        "c5": lambda: cycle_graph(5),
    }
    plan = inputs.homogeneity_inputs(seed)

    def build(name, perm):
        with trace.span("finite_graphs.build"):
            base = constructors[name]()
            return FiniteMetricGraph(base.adjacency[np.ix_(perm, perm)])

    return {
        "graphs": [(name, build(name, perm)) for name, perm in plan["graphs"]],
        "covers": [(name, build(name, perm)) for name, perm in plan["covers"]],
    }


def homogeneity_pass(trace, state, _csv_path):
    from mhg_twist.finite_graphs import (
        check_antipodal_law,
        find_antipodal_cover,
        is_metrically_homogeneous,
    )

    op_s, graphs, covers = [], [], []
    for name, g in state["graphs"]:
        t0 = time.perf_counter()
        peak = None
        with trace.span(f"finite_graphs.is_metrically_homogeneous.{name}"):
            if trace.enabled:
                tracemalloc.start()
            result = is_metrically_homogeneous(g)
            if trace.enabled:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        with trace.span("finite_graphs.check_antipodal_law"):
            anti = check_antipodal_law(g)
        op_s.append(time.perf_counter() - t0)
        graphs.append({
            "graph": name,
            "homogeneous": result.homogeneous,
            "complete": result.complete,
            "states": result.states,
            "witness": result.witness,
            "antipodal": anti.verdict,
            "pairing": anti.pairing,
            "peak_bytes": peak,
        })
    for name, g in state["covers"]:
        t0 = time.perf_counter()
        with trace.span(f"finite_graphs.find_antipodal_cover.{name}"):
            report = find_antipodal_cover(g)
        op_s.append(time.perf_counter() - t0)
        covers.append({"base": name, "winners": list(report.winners)})
    return op_s, {"graphs": graphs, "covers": covers}


# --------------------------------------------------------------------------
# point-verdicts: single catalog checks and twisted-metric grades


def point_setup(trace, seed):
    from mhg_twist.finite_graphs import cycle_graph
    from mhg_twist.parameter_space import INFINITY, ParameterTuple
    from mhg_twist.permutations import Twist

    cycles = {}
    for n in inputs.CYCLE_SIZES:
        with trace.span("finite_graphs.cycle_graph"):
            cycles[n] = cycle_graph(n)
    calls = []
    for item in inputs.point_inputs(seed):
        if item[0] == "check":
            d, k1, k2, c0, c1 = item[1]
            params = ParameterTuple(d, INFINITY if k1 is None else k1, k2, c0, c1)
            calls.append(("check", params, Twist(item[2])))
        else:
            calls.append(("grade", cycles[item[1]], Twist(item[2])))
    return calls


def _params_data(p):
    return [p.delta, None if p.bipartite else p.k1, p.k2, p.c0, p.c1]


def point_pass(trace, calls, _csv_path):
    from mhg_twist.errors import EngineError, InvalidInputError
    from mhg_twist.finite_graphs import apply_twist_metric
    from mhg_twist.parameter_space import is_self_consistent
    from mhg_twist.twistability import check_twistable

    op_s, answers = [], []
    for kind, subject, twist in calls:
        if kind == "check":
            consistent = None
            t0 = time.perf_counter()
            if trace.enabled:
                with trace.span("parameter_space.is_self_consistent"):
                    consistent = is_self_consistent(subject)
            try:
                with trace.span("twistability.check_twistable"):
                    verdict = check_twistable(subject, twist)
            except InvalidInputError:
                op_s.append(time.perf_counter() - t0)
                answers.append({"outcome": "REFUSED", "consistent": consistent})
                continue
            except EngineError as exc:
                op_s.append(time.perf_counter() - t0)
                answers.append({"outcome": "ERROR", "error": repr(exc)})
                continue
            op_s.append(time.perf_counter() - t0)
            answers.append({
                "outcome": verdict.outcome,
                "triple": verdict.witness_triple,
                "k": verdict.witness_distance,
                "image": None if verdict.image_params is None
                else _params_data(verdict.image_params),
                "consistent": consistent,
            })
        else:
            t0 = time.perf_counter()
            with trace.span("finite_graphs.apply_twist_metric"):
                report = apply_twist_metric(subject, twist)
            op_s.append(time.perf_counter() - t0)
            answers.append({
                "valid": report.valid,
                "metric_ok": report.metric_ok,
                "triangle_witness": report.triangle_witness,
                "unit_connected": report.unit_connected,
                "geodesics_ok": report.geodesics_ok,
                "missing_geodesic": report.missing_geodesic,
                "matrix_sum": int(report.matrix.sum()),
            })
    return op_s, answers


WORKLOAD_FUNCS = {
    "classify-sweep": (classify_setup, classify_pass, classify_extra),
    "homogeneity": (homogeneity_setup, homogeneity_pass, None),
    "point-verdicts": (point_setup, point_pass, None),
}


def main(argv: list[str]) -> int:
    workload, seed, mode, warm, out_path, csv_path = argv
    setup, run_pass, extra = WORKLOAD_FUNCS[workload]
    traced = mode == "trace"
    setup_trace = Trace() if traced else NoTrace()
    state = setup(setup_trace, int(seed))
    ready = time.perf_counter()

    passes, spans = [], {"setup": setup_trace.spans}
    for i in range(1 + int(warm)):
        trace = Trace() if traced and i == 0 else NoTrace()
        t0 = time.perf_counter()
        op_s, answers = run_pass(trace, state, f"{csv_path}.{i}")
        end = time.perf_counter()
        passes.append({"seconds": end - t0, "end": end, "op_s": op_s, "answers": answers})
        if i == 0:
            spans["cold"] = trace.spans
    if traced and extra is not None:
        trace = Trace()
        extra(trace, state)
        spans["extra"] = trace.spans

    result = {"ready": ready, "passes": passes, "spans": spans}
    if workload == "homogeneity":
        result["edges"] = {name: g.edges() for name, g in state["graphs"]}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
