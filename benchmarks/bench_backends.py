"""Time the numba and numpy backends on the homogeneity kernel.

Usage: python3 benchmarks/bench_backends.py [--repeats N]

Covers the one-point extension search (is_metrically_homogeneous).
The numba timings exclude JIT compilation: each case is run once per
backend before the clock starts.
"""

import argparse
import time

from mhg_twist import (
    icosahedron,
    is_metrically_homogeneous,
    johnson_graph,
    resolve_backend,
)


def time_call(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    backends = ["numpy"]
    try:
        resolve_backend("numba")
        backends.append("numba")
    except Exception:
        print("numba not importable, timing numpy only")

    rows = []
    graph_cases = [
        ("homogeneity icosahedron (full)", icosahedron, {}),
        ("homogeneity johnson(6,3) depth 3", lambda: johnson_graph(6, 3),
         {"max_depth": 3}),
    ]
    for name, build, kw in graph_cases:
        g = build()
        cells = {}
        for backend in backends:
            is_metrically_homogeneous(g, backend=backend, **kw)  # warm
            cells[backend] = time_call(
                lambda: is_metrically_homogeneous(g, backend=backend, **kw),
                args.repeats,
            )
        rows.append((name, cells))

    width = max(len(name) for name, _ in rows)
    header = f"{'case':<{width}}  " + "  ".join(f"{b:>10}" for b in backends)
    if len(backends) == 2:
        header += f"  {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for name, cells in rows:
        line = f"{name:<{width}}  " + "  ".join(
            f"{cells[b] * 1000:>8.1f}ms" for b in backends
        )
        if len(backends) == 2:
            line += f"  {cells['numpy'] / cells['numba']:>7.1f}x"
        print(line)


if __name__ == "__main__":
    main()
