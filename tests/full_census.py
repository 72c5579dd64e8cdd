"""The full census of small Cayley graphs against the finite catalog.

tests/test_census.py runs the circulants with n = 5..20 and Z_2^3 in
the test suite.  This script runs the larger census, which takes about
half a minute and so stays out of it: every connected circulant
Cay(Z_n, S) with n = 5..30, one connection set per class under the
multipliers of Z_n, and every connected Cay(Z_2^4, S).  On each graph
the homogeneity search must prove exactly the catalog's cycles,
complete multipartite graphs and crowns (oracles.catalog_family), and
the graph count and the proved count of each family must match the
pins below.  Run from the repository root:

    PYTHONPATH=src python3 tests/full_census.py [circulants|z2-4]

It prints one line per census and exits 1 on a mismatch or a count
that differs from its pin.
"""

import itertools
import sys
import time

from test_census import cayley_graphs, census, multiplier_classes

#: graphs and proved graphs per family of each census
PINS = {
    "circulants": (18599, {"cycle": 26, "complete multipartite": 77, "crown": 6}),
    "z2-4": (31232, {"complete multipartite": 66, "crown": 120}),
}


def circulants():
    return [
        g
        for n in range(5, 31)
        for g in cayley_graphs(n, multiplier_classes(n), lambda v, s, n=n: (v + s) % n)
    ]


def z2_4():
    nonzero = range(1, 16)
    sets = [s for k in range(1, 16) for s in itertools.combinations(nonzero, k)]
    return cayley_graphs(16, sets, lambda v, s: v ^ s)


CENSUSES = {"circulants": circulants, "z2-4": z2_4}


def main(argv):
    names = argv or list(CENSUSES)
    failed = False
    for name in names:
        start = time.perf_counter()
        graphs = CENSUSES[name]()
        proved, mismatches = census(graphs)
        seconds = time.perf_counter() - start
        got = (len(graphs), dict(proved))
        ok = not mismatches and got == PINS[name]
        failed |= not ok
        print(
            f"{name}: {len(graphs)} graphs, proved {dict(sorted(proved.items()))}, "
            f"{len(mismatches)} mismatches, {seconds:.1f} s, {'ok' if ok else 'FAILED'}"
        )
        for edges in mismatches[:5]:
            print(f"  mismatch: {edges}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
