"""Command line front end.

Subcommands:
  twists    print the four closed-form twists for one diameter
  check     grade one (parameter tuple, permutation) pair
  classify  sweep diameters, verify the expected catalog, emit CSV
  cycle     list the twists of an n-cycle metric
  finite    build a finite graph, optionally twist its metric
  table1    print the expected parameter families for one diameter

Exit codes: 0 success (and all verifications passed), 1 a verification
reported a discrepancy, 2 bad input or budget refusal.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .classifier import (
    classification_rows,
    classify_cycle_twists,
    find_twists,
    verify_table1,
    verify_theorem_twists,
)
from .errors import EngineError, InvalidInputError
from .finite_graphs import (
    FiniteMetricGraph,
    apply_twist_metric,
    check_antipodal_law,
    complete_multipartite,
    crown_graph,
    cycle_graph,
    icosahedron,
    is_metrically_homogeneous,
    load_graph_file,
    rook_graph,
)
from .parameter_space import INFINITY, ParameterTuple, table1_rows
from .permutations import NAMED_TWISTS, Twist, mu, named_twists, parse_cycles

_CSV_FIELDS = ("sigma", "delta", "K1", "K2", "C", "Cprime", "verdict", "witness")


def _parse_k1(text: str):
    if text.lower() in ("inf", "infinity"):
        return INFINITY
    try:
        return int(text)
    except ValueError as exc:
        raise InvalidInputError(f"K1 must be an integer or 'inf', got {text!r}") from exc


def _parse_sigma(spec: str, delta: int) -> Twist:
    """A permutation from a name, mu:n:k, transposition:a:b, or cycles."""
    if spec in NAMED_TWISTS:
        return dict(named_twists(delta))[spec]
    if spec.startswith("mu:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise InvalidInputError(f"want mu:N:K, got {spec!r}")
        try:
            n, k = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise InvalidInputError(f"want integers in mu:N:K, got {spec!r}") from exc
        return mu(n, k)
    if spec.startswith("transposition:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise InvalidInputError(f"want transposition:a:b, got {spec!r}")
        try:
            a, b = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise InvalidInputError(
                f"want integers in transposition:a:b, got {spec!r}"
            ) from exc
        if not (1 <= a <= delta and 1 <= b <= delta and a != b):
            raise InvalidInputError(
                f"transposition needs two distinct points in 1..{delta}"
            )
        images = list(range(1, delta + 1))
        images[a - 1], images[b - 1] = b, a
        return Twist(images)
    return parse_cycles(spec, delta)


def _parse_graph(spec: str) -> tuple[str, FiniteMetricGraph]:
    if spec == "icosahedron":
        return spec, icosahedron()
    if spec.startswith("cycle:"):
        return spec, cycle_graph(_spec_int(spec))
    if spec.startswith("crown:"):
        return spec, crown_graph(_spec_int(spec))
    if spec.startswith("rook:"):
        return spec, rook_graph(_spec_int(spec))
    if spec.startswith("multipartite:"):
        body = spec.split(":", 1)[1]
        try:
            sizes = [int(x) for x in body.split(",")]
        except ValueError as exc:
            raise InvalidInputError(f"bad part sizes in {spec!r}") from exc
        return spec, complete_multipartite(sizes)
    if spec.startswith("file:"):
        return spec, load_graph_file(spec.split(":", 1)[1])
    raise InvalidInputError(
        f"unknown graph {spec!r}; want cycle:N, crown:N, rook:N, "
        "multipartite:a,b,..., icosahedron, or file:PATH"
    )


def _spec_int(spec: str) -> int:
    body = spec.split(":", 1)[1]
    try:
        return int(body)
    except ValueError as exc:
        raise InvalidInputError(f"bad count in {spec!r}") from exc


def _cmd_twists(args) -> int:
    for name, twist in named_twists(args.delta):
        print(f"{name} = {twist.cycles()}")
    return 0


def _cmd_check(args) -> int:
    from .twistability import check_twistable

    params = ParameterTuple.from_c_values(
        args.delta, _parse_k1(args.k1), args.k2, args.c, args.cprime
    )
    twist = _parse_sigma(args.sigma, args.delta)
    verdict = check_twistable(params, twist)
    print(verdict.to_json())
    return 0


def _cmd_classify(args) -> int:
    if args.delta_min > args.delta_max:
        raise InvalidInputError(
            f"--delta-min {args.delta_min} exceeds --delta-max {args.delta_max}"
        )
    all_rows = []
    ok = True
    for delta in range(args.delta_min, args.delta_max + 1):
        families = find_twists(delta)
        theorem = verify_theorem_twists(delta, families=families)
        for line in theorem.lines():
            print(line)
        ok = ok and theorem.passed
        if args.verify_table1:
            table = verify_table1(delta, families=families)
            for line in table.lines():
                print(line)
            ok = ok and table.passed
        if args.out:
            all_rows.extend(classification_rows(delta, families=families))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS, lineterminator="\n")
            writer.writeheader()
            writer.writerows(all_rows)
        print(f"wrote {len(all_rows)} rows to {args.out}")
    print(f"classification: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_cycle(args) -> int:
    twists = classify_cycle_twists(args.n)
    print(f"n={args.n} delta={args.n // 2} twists={len(twists)}")
    for t in twists:
        print(t.cycles())
    return 0


def _cmd_finite(args) -> int:
    spec, g = _parse_graph(args.graph)
    info: dict = {
        "graph": spec,
        "n": g.n,
        "edges": int(g.adjacency.sum()) // 2,
        "diameter": g.diameter,
    }
    if args.sigma is None:
        hom = is_metrically_homogeneous(g, cap=args.cap)
        anti = check_antipodal_law(g)
        info["homogeneous"] = hom.homogeneous
        info["homogeneity_states"] = hom.states
        info["antipodal"] = anti.verdict
        print(json.dumps(info, sort_keys=True))
        return 0
    twist = _parse_sigma(args.sigma, g.diameter)
    report = apply_twist_metric(g, twist)
    info["sigma"] = twist.cycles()
    info["report"] = json.loads(report.to_json())
    print(json.dumps(info, sort_keys=True))
    return 0


def _cmd_table1(args) -> int:
    for kind, params in table1_rows(args.delta):
        print(f"{kind}: {params}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhg-twist",
        description="twists of distance alphabets for metrically homogeneous graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("twists", help="print the four closed-form twists")
    p.add_argument("--delta", type=int, required=True)
    p.set_defaults(fn=_cmd_twists)

    p = sub.add_parser("check", help="grade one tuple against one permutation")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--k1", required=True, help="integer or 'inf'")
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--c", type=int, required=True, help="first cap (C)")
    p.add_argument("--cprime", type=int, required=True, help="second cap (C')")
    p.add_argument("--sigma", required=True,
                   help="rho, rho-inv, tau0, tau1, mu:N:K, transposition:a:b, or cycles")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("classify", help="sweep diameters and verify the catalog")
    p.add_argument("--delta-min", type=int, required=True)
    p.add_argument("--delta-max", type=int, required=True)
    p.add_argument("--out", help="write verdict rows to this CSV file")
    p.add_argument("--verify-table1", action="store_true",
                   help="also check families against the expected rows")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("cycle", help="list the twists of an n-cycle metric")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_cycle)

    p = sub.add_parser("finite", help="build a graph and optionally twist it")
    p.add_argument("--graph", required=True,
                   help="cycle:N, crown:N, rook:N, multipartite:a,b,..., "
                        "icosahedron, or file:PATH")
    p.add_argument("--sigma", default=None,
                   help="permutation to apply (named, mu:N:K, transposition:a:b, cycles)")
    p.add_argument("--cap", type=int, default=24,
                   help="vertex cap for the homogeneity search")
    p.set_defaults(fn=_cmd_finite)

    p = sub.add_parser("table1", help="print the expected families for one diameter")
    p.add_argument("--delta", type=int, required=True)
    p.set_defaults(fn=_cmd_table1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
