"""Independent plain-loop reference implementations.

Nothing in this module imports mhg_twist.  Every function is written in
the most literal way available (nested loops over small ranges, sets of
tuples, list-based BFS) so that agreement with the package is evidence,
not circularity.  All of it is slow and only ever runs on small inputs.
"""

from itertools import permutations


# ---------------------------------------------------------------------------
# distance relabelings


def rho_images(delta):
    out = []
    for i in range(1, delta + 1):
        out.append(2 * i if 2 * i <= delta else 2 * (delta - i) + 1)
    return tuple(out)


def rho_inverse_images(delta):
    # direct formula, not inversion of rho_images: the round trip is a test
    out = []
    for i in range(1, delta + 1):
        out.append(i // 2 if i % 2 == 0 else delta - (i - 1) // 2)
    return tuple(out)


def tau_images(delta, eps):
    out = []
    for i in range(1, delta + 1):
        j = (delta + eps) - i
        if 1 <= j <= delta and min(i, j) % 2 == 1:
            out.append(j)
        else:
            out.append(i)
    return tuple(out)


def mu_images(n, k):
    delta = n // 2
    out = []
    for i in range(1, delta + 1):
        v = (k * i) % n
        out.append(min(v, n - v))
    return tuple(out)


def units(n):
    from math import gcd

    return [k for k in range(1, n) if gcd(k, n) == 1]


# ---------------------------------------------------------------------------
# triples and parameter rules


def all_triples(delta):
    out = []
    for i in range(1, delta + 1):
        for j in range(i, delta + 1):
            for k in range(j, delta + 1):
                out.append((i, j, k))
    return out


def is_metric_triple(t):
    i, j, k = sorted(t)
    return i + j >= k


def realized(delta, k1, k2, c0, c1):
    """Triangle set from the admission rules.  k1 is None for infinity."""
    out = set()
    for t in all_triples(delta):
        if not is_metric_triple(t):
            continue
        p = sum(t)
        if p % 2 == 0:
            if p < c0:
                out.add(t)
        else:
            if k1 is None:
                continue
            if p >= 2 * k1 + 1 and p <= 2 * k2 + 2 * min(t) and p < c1:
                out.add(t)
    return out


def derive(triples, delta):
    """Re-read (k1, k2, c0, c1) off a triangle set.  k1 None when no odd k."""
    ks = []
    tset = set(tuple(sorted(t)) for t in triples)
    for k in range(1, delta + 1):
        if tuple(sorted((1, k, k))) in tset:
            ks.append(k)
    k1 = min(ks) if ks else None
    k2 = max(ks) if ks else 0
    perims = set(sum(t) for t in tset)
    c0 = 2 * delta + 2
    while c0 in perims:
        c0 += 2
    c1 = 2 * delta + 1
    while c1 in perims:
        c1 += 2
    return (k1, k2, c0, c1)


def image(triples, images):
    """Apply a distance relabeling to every triple, re-sorting each."""
    out = set()
    for t in triples:
        out.add(tuple(sorted(images[d - 1] for d in t)))
    return out


def has_all_geodesics(triples, delta):
    tset = set(tuple(sorted(t)) for t in triples)
    for k in range(1, delta):
        if (1, k, k + 1) not in tset:
            return False
    return True


def twist_verdict(triples, delta, images):
    """Outcome and witness of one catalog twist check, from plain loops.

    triples is a realized set, as ``realized`` builds it.  The witness
    of a METRIC_VIOLATION is the image's least non-metric triple in
    lexicographic order, that of a MISSING_GEODESIC the least k whose
    (1, k, k+1) the image lacks, and that of TWISTABLE the parameters
    derived from the image.
    """
    img = image(triples, images)
    bad = [t for t in img if not is_metric_triple(t)]
    if bad:
        return "METRIC_VIOLATION", min(bad)
    for k in range(1, delta):
        if (1, k, k + 1) not in img:
            return "MISSING_GEODESIC", k
    return "TWISTABLE", derive(img, delta)


def gamma_diameter(triples, i):
    tset = set(tuple(sorted(t)) for t in triples)
    best = 0
    for t in tset:
        a, b, c = t
        for k in (a, b, c):
            rest = sorted((a, b, c))
            rest.remove(k)
            if rest == [i, i] and k > best:
                best = k
    return best


def twist_families(delta, candidates):
    """Full-sweep twist families: every permutation of 1..delta against every tuple.

    candidates is a list of (k1, k2, c0, c1) with k1 None for infinity.
    Returns {images: [candidate indices]} for each non-identity
    permutation twisting at least one candidate, keyed in lexicographic
    image order, indices ascending.
    """
    sets = [realized(delta, *c) for c in candidates]
    geodesics = [(1, k, k + 1) for k in range(1, delta)]
    out = {}
    for images in permutations(range(1, delta + 1)):
        if images == tuple(range(1, delta + 1)):
            continue
        hits = []
        for i, ts in enumerate(sets):
            img = set()
            for t in ts:
                a, b, c = sorted(images[d - 1] for d in t)
                if a + b < c:
                    break
                img.add((a, b, c))
            else:
                if all(g in img for g in geodesics):
                    hits.append(i)
        if hits:
            out[images] = hits
    return out


# ---------------------------------------------------------------------------
# graphs


def bfs_distances(adj):
    """All-pairs BFS on a 0/1 adjacency list-of-lists.  -1 marks unreachable."""
    n = len(adj)
    dist = [[-1] * n for _ in range(n)]
    for s in range(n):
        dist[s][s] = 0
        queue = [s]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in range(n):
                if adj[u][v] and dist[s][v] == -1:
                    dist[s][v] = dist[s][u] + 1
                    queue.append(v)
    return dist


def vertex_triples(dist):
    """Sorted distance triples over all sets of three distinct vertices."""
    n = len(dist)
    out = set()
    for u in range(n):
        for v in range(u + 1, n):
            for w in range(v + 1, n):
                out.add(tuple(sorted((dist[u][v], dist[u][w], dist[v][w]))))
    return out


def twisted_report(dist, images):
    """Every field of a twisted-metric grade, from plain loops.

    dist is the path metric as a list of lists, images the permutation
    of 1..delta.  The triangle witness is the first (i, j) in row-major
    order with a shorter detour through some k, and k is the least
    midpoint of the shortest detour; the missing geodesic is the least
    k with (1, k, k+1) unrealized.
    """
    n = len(dist)
    delta = len(images)
    m = [[0 if dist[u][v] == 0 else images[dist[u][v] - 1] for v in range(n)]
         for u in range(n)]

    witness = None
    for i in range(n):
        for j in range(n):
            best = None
            for k in range(n):
                if best is None or m[i][k] + m[k][j] < m[i][best] + m[best][j]:
                    best = k
            if m[i][best] + m[best][j] < m[i][j]:
                witness = (i, best, j)
                break
        if witness is not None:
            break

    seen = [False] * n
    seen[0] = True
    queue = [0]
    while queue:
        u = queue.pop()
        for v in range(n):
            if m[u][v] == 1 and not seen[v]:
                seen[v] = True
                queue.append(v)
    unit_connected = all(seen)

    realized = vertex_triples(m)
    missing = None
    for k in range(1, delta):
        if (1, k, k + 1) not in realized:
            missing = k
            break

    metric_ok = witness is None
    geodesics_ok = missing is None
    return {
        "matrix": m,
        "valid": metric_ok and unit_connected and geodesics_ok,
        "metric_ok": metric_ok,
        "triangle_witness": witness,
        "unit_connected": unit_connected,
        "geodesics_ok": geodesics_ok,
        "missing_geodesic": missing,
        "realized": realized,
    }


def homogeneous(dist, max_n=6, max_depth=None):
    """Brute-force one-point extension check over ALL injective partial maps.

    Exponential and proud of it.  max_depth bounds the size of the maps
    checked (all of them, up to n-1 points, when None).  Returns
    (flag, witness) where witness is (domain, image, stuck) for a
    failing extension, or None.
    """
    n = len(dist)
    if n > max_n:
        raise ValueError("oracle capped at n=%d" % max_n)
    verts = range(n)
    top = n - 1 if max_depth is None else min(max_depth, n - 1)
    for m in range(1, top + 1):
        for dom in permutations(verts, m):
            for img in permutations(verts, m):
                iso = True
                for a in range(m):
                    for b in range(m):
                        if dist[dom[a]][dom[b]] != dist[img[a]][img[b]]:
                            iso = False
                            break
                    if not iso:
                        break
                if not iso:
                    continue
                for a in verts:
                    if a in dom:
                        continue
                    ok = False
                    for b in verts:
                        if all(
                            dist[a][dom[i]] == dist[b][img[i]]
                            for i in range(m)
                        ):
                            ok = True
                            break
                    if not ok:
                        return False, (dom, img, a)
    return True, None


def forced_extension(dist, dom, img):
    """The one total extension of the partial isometry dom -> img, if forced.

    A vertex's candidate images are the vertices whose distances to img
    equal its distances to dom.  Returns F as a tuple when every vertex
    has exactly one candidate and F is an automorphism (a bijection
    keeping every distance), else None.
    """
    n = len(dist)
    images = []
    for a in range(n):
        cands = []
        for b in range(n):
            if all(dist[a][dom[i]] == dist[b][img[i]] for i in range(len(dom))):
                cands.append(b)
                if len(cands) > 1:
                    return None
        if not cands:
            return None
        images.append(cands[0])
    if len(set(images)) != n:
        return None
    for a in range(n):
        for b in range(n):
            if dist[images[a]][images[b]] != dist[a][b]:
                return None
    return tuple(images)


def catalog_family(dist):
    """The finite catalog's Cayley family of a connected graph, or None.

    "cycle": every degree is 2.  "complete multipartite": the complement
    plus the identity is an equivalence relation (K_n included).
    "crown": bipartite, of diameter 3, every degree n/2 - 1, so each
    vertex misses one vertex across: K_{m,m} less a perfect matching.
    A graph in more than one family gets the first that holds.
    """
    n = len(dist)
    degrees = [sum(1 for v in range(n) if dist[u][v] == 1) for u in range(n)]
    if all(d == 2 for d in degrees):
        return "cycle"
    # each vertex with its non-neighbours: an equivalence relation when
    # every member of a vertex's set has the same set
    same = [frozenset(v for v in range(n) if dist[u][v] != 1) for u in range(n)]
    if all(same[v] == same[u] for u in range(n) for v in same[u]):
        return "complete multipartite"
    bipartite = all(
        (dist[0][u] + dist[0][v]) % 2 == 1
        for u in range(n)
        for v in range(n)
        if dist[u][v] == 1
    )
    diameter = max(max(row) for row in dist)
    if bipartite and diameter == 3 and all(2 * d == n - 2 for d in degrees):
        return "crown"
    return None


def least_twins(dist):
    """For each vertex v, the least of v and its twins.

    Twins are two vertices at the same distance from every third vertex.
    """
    n = len(dist)
    return [
        next(
            u
            for u in range(n)
            if u == v or all(dist[u][z] == dist[v][z] for z in range(n) if z not in (u, v))
        )
        for v in range(n)
    ]
