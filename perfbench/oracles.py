"""Reference computations that share no code with the library.

Graphs here are plain ``(n, rows)`` pairs: ``rows[v]`` is the neighbour
bitmask of vertex v.  Nothing in this module imports ``turanext``; every
answer the benchmark accepts is checked against one of these functions or
against a published sequence.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

# Published sequences, indexed by vertex count n = 0, 1, 2, ...
#: OEIS A006785, triangle-free graphs on n unlabeled nodes.
A006785 = (1, 1, 2, 3, 7, 14, 38, 107, 410, 1897, 12172)
#: OEIS A006786, squarefree (C4-free) graphs on n unlabeled nodes.
A006786 = (1, 1, 2, 4, 8, 18, 44, 117, 351, 1230, 5069)
#: OEIS A006855, ex(n, C4): most edges of a C4-free graph on n nodes.
A006855 = (0, 0, 1, 3, 4, 6, 7, 9, 11, 13, 16, 18, 21, 24, 27, 30, 33)

#: Class counts with no OEIS entry, recomputed by ``run.py --recompute-counts``
#: (orbit counting over labeled graphs, see ``labeled_class_counts``).
RECOMPUTED = {
    "K4": (1, 1, 2, 4, 10, 29, 120, 685),
    "C5": (1, 1, 2, 4, 11, 26, 80, 251),
}


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def from_edges(n: int, edges) -> tuple[int, tuple[int, ...]]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return n, tuple(rows)


def edges_of(g) -> list[tuple[int, int]]:
    n, rows = g
    return [(u, v) for u in range(n) for v in bits(rows[u]) if u < v]


def edge_count(g) -> int:
    return sum(r.bit_count() for r in g[1]) // 2


def delete_vertex(g, v: int):
    n, rows = g
    keep = [u for u in range(n) if u != v]
    index = {u: i for i, u in enumerate(keep)}
    out = []
    for u in keep:
        out.append(sum(1 << index[w] for w in bits(rows[u]) if w != v))
    return n - 1, tuple(out)


def permute(g, perm):
    """Copy of g in which vertex v becomes perm[v]."""
    n, rows = g
    out = [0] * n
    for v in range(n):
        out[perm[v]] = sum(1 << perm[u] for u in bits(rows[v]))
    return n, tuple(out)


# ---------------------------------------------------------------------------
# brute-force subgraph search


def embeddings(host, pattern):
    """Yield every injective map V(pattern) -> V(host) that keeps each edge.

    Plain backtracking in pattern-vertex order 0, 1, ...; the only pruning
    is that a candidate must be adjacent to the images of the earlier
    neighbours it has, which is the definition of an embedding.
    """
    hn, hrows = host
    pn, prows = pattern
    if pn > hn:
        return
    earlier = [[u for u in bits(prows[v]) if u < v] for v in range(pn)]
    image = [0] * pn
    full = (1 << hn) - 1

    def place(i: int, used: int):
        if i == pn:
            yield tuple(image)
            return
        cand = full & ~used
        for u in earlier[i]:
            cand &= hrows[image[u]]
        while cand:
            low = cand & -cand
            cand ^= low
            image[i] = low.bit_length() - 1
            yield from place(i + 1, used | low)

    yield from place(0, 0)


def find_embedding(host, pattern) -> bool:
    return next(embeddings(host, pattern), None) is not None


def is_free(host, pattern) -> bool:
    return not find_embedding(host, pattern)


def automorphisms(pattern) -> int:
    """|Aut| by trying every permutation (patterns have at most 6 vertices)."""
    n, rows = pattern
    edges = edges_of(pattern)
    return sum(
        1
        for p in permutations(range(n))
        if all((rows[p[u]] >> p[v]) & 1 for u, v in edges)
    )


def cliques(g, m: int) -> int:
    """m-cliques, by extending each clique only with higher-numbered vertices."""
    n, rows = g

    def grow(cand: int, need: int) -> int:
        if need == 0:
            return 1
        return sum(grow(cand & rows[v] & ~((2 << v) - 1), need - 1) for v in bits(cand))

    return grow((1 << n) - 1, m)


# ---------------------------------------------------------------------------
# closed-walk counts


def _walk_matrices(g):
    """A^2 and A^3 as integer matrices, from codegrees."""
    n, rows = g
    a2 = [[(rows[i] & rows[j]).bit_count() for j in range(n)] for i in range(n)]
    a3 = [[sum(a2[i][k] for k in bits(rows[j])) for j in range(n)] for i in range(n)]
    return a2, a3


def cycle_counts(g) -> tuple[int, int, int]:
    """(#C3, #C4, #C5) from traces of adjacency powers.

    tr A^3 = 6 C3;  tr A^4 = 8 C4 + 2 sum d^2 - 2 m;
    tr A^5 = 10 C5 + 5 tr A^3 + 5 sum_i (d_i - 2) (A^3)_ii.
    """
    n, rows = g
    a2, a3 = _walk_matrices(g)
    deg = [r.bit_count() for r in rows]
    m = sum(deg) // 2
    tr3 = sum(a3[i][i] for i in range(n))
    tr4 = sum(a2[i][j] * a2[j][i] for i in range(n) for j in range(n))
    tr5 = sum(a2[i][j] * a3[j][i] for i in range(n) for j in range(n))
    c3, r3 = divmod(tr3, 6)
    c4, r4 = divmod(tr4 - 2 * sum(d * d for d in deg) + 2 * m, 8)
    c5, r5 = divmod(tr5 - 5 * tr3 - 5 * sum((deg[i] - 2) * a3[i][i] for i in range(n)), 10)
    if r3 or r4 or r5:
        raise ArithmeticError("closed-walk counts are not divisible")
    return c3, c4, c5


def k23_count(g) -> int:
    """Copies of K_{2,3}: each has one pair on its 2-side, with 3 common neighbours."""
    n, rows = g
    return sum(math.comb((rows[u] & rows[v]).bit_count(), 3) for u, v in combinations(range(n), 2))


def p4_count(g) -> int:
    """Paths on 4 vertices: sum over middle edges of (d_u - 1)(d_v - 1), minus
    the 3 closed walks each triangle contributes."""
    n, rows = g
    deg = [r.bit_count() for r in rows]
    raw = sum((deg[u] - 1) * (deg[v] - 1) for u, v in edges_of(g))
    return raw - 3 * cycle_counts(g)[0]


def copies(g, name: str) -> int:
    """Copies of the named pattern in g."""
    if name == "K2":
        return edge_count(g)
    if name == "K3":
        return cycle_counts(g)[0]
    if name == "C4":
        return cycle_counts(g)[1]
    if name == "C5":
        return cycle_counts(g)[2]
    if name == "K4":
        return cliques(g, 4)
    if name == "P4":
        return p4_count(g)
    if name == "K23":
        return k23_count(g)
    raise KeyError(name)


def copies_through(g, v: int, name: str) -> int:
    return copies(g, name) - copies(delete_vertex(g, v), name)


# ---------------------------------------------------------------------------
# extremal values with closed forms


def turan_parts(n: int, r: int) -> list[int]:
    q, rem = divmod(n, r)
    return [q + 1] * rem + [q] * (r - rem)


def turan_cliques(n: int, r: int, m: int) -> int:
    """m-cliques of T(n, r): sum over m-subsets of parts of the product of sizes.

    By Zykov's theorem this is ex(n, K_m, K_{r+1}); m = 2 is Turan's theorem.
    """
    return sum(math.prod(c) for c in combinations(turan_parts(n, r), m))


# ---------------------------------------------------------------------------
# isomorphism certificates


def invariant(g) -> tuple:
    """Isomorphism invariant: sizes, components, triangles per vertex, and
    three rounds of colour refinement (hashes of neighbourhood colour multisets)."""
    n, rows = g
    tri = sorted(
        sum((rows[u] & rows[v]).bit_count() for v in bits(rows[u])) // 2 for u in range(n)
    )
    seen = comps = 0
    for v in range(n):
        if not (seen >> v) & 1:
            comps += 1
            frontier = 1 << v
            while frontier:
                seen |= frontier
                nxt = 0
                for u in bits(frontier):
                    nxt |= rows[u]
                frontier = nxt & ~seen
    nbrs = [list(bits(r)) for r in rows]
    colour = [len(x) for x in nbrs]
    for _ in range(3):
        colour = [hash((colour[v], tuple(sorted(colour[u] for u in nbrs[v])))) for v in range(n)]
    return (n, edge_count(g), comps, tuple(tri), tuple(sorted(colour)))


def isomorphic(g, h) -> bool:
    """Backtracking search for an isomorphism, vertices in breadth-first order."""
    if invariant(g) != invariant(h):
        return False
    n, grows = g
    _, hrows = h
    order: list[int] = []
    placed = 0
    for s in range(n):
        if (placed >> s) & 1:
            continue
        queue = [s]
        placed |= 1 << s
        while queue:
            v = queue.pop(0)
            order.append(v)
            for u in bits(grows[v] & ~placed):
                placed |= 1 << u
                queue.append(u)
    gdeg = [r.bit_count() for r in grows]
    hdeg = [r.bit_count() for r in hrows]
    image = [-1] * n

    def place(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if (used >> w) & 1 or hdeg[w] != gdeg[v]:
                continue
            if all(
                ((grows[v] >> order[j]) & 1) == ((hrows[w] >> image[order[j]]) & 1)
                for j in range(i)
            ):
                image[v] = w
                if place(i + 1, used | (1 << w)):
                    return True
        return False

    return place(0, 0)


def distinct_classes(graphs) -> bool:
    """True iff no two of the graphs are isomorphic."""
    groups: dict[tuple, list] = {}
    for g in graphs:
        groups.setdefault(invariant(g), []).append(g)
    for group in groups.values():
        for a, b in combinations(group, 2):
            if isomorphic(a, b):
                return False
    return True


# ---------------------------------------------------------------------------
# class counts by orbit counting over labeled graphs


def _cycle_types(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _cycle_types(n - k, k):
            yield (k, *rest)


def _representative(cycle_type) -> list[int]:
    perm, start = [], 0
    for k in cycle_type:
        perm.extend(start + (i + 1) % k for i in range(k))
        start += k
    return perm


def _class_size(n: int, cycle_type) -> int:
    denom = 1
    for k in set(cycle_type):
        c = cycle_type.count(k)
        denom *= k**c * math.factorial(c)
    return math.factorial(n) // denom


def _labeled_free(n: int, pattern) -> list[tuple[int, ...]]:
    """All labeled pattern-free graphs on n vertices (rows), grown vertex by vertex."""
    level = [()]
    for k in range(n):
        nxt = []
        for rows in level:
            for mask in range(1 << k):
                new = tuple(r | (1 << k) if (mask >> v) & 1 else r for v, r in enumerate(rows))
                new += (mask,)
                if is_free((k + 1, new), pattern):
                    nxt.append(new)
        level = nxt
    return level


def _free_extensions(rows: tuple[int, ...], pattern) -> int:
    """Neighbourhood masks for a new vertex that keep the graph pattern-free.

    A copy through the new vertex maps some pattern vertex x onto it, so the
    rest of the copy is an embedding of pattern - x whose images of x's
    neighbours lie in the mask.  Collect those image sets by brute force.
    """
    k = len(rows)
    pn, prows = pattern
    critical = set()
    for x in range(pn):
        others = [v for v in range(pn) if v != x]
        for image in embeddings((k, rows), delete_vertex(pattern, x)):
            critical.add(sum(1 << image[others.index(u)] for u in bits(prows[x])))
    return sum(1 for mask in range(1 << k) if not any(c & mask == c for c in critical))


def labeled_class_counts(pattern, top: int) -> list[int]:
    """Unlabeled pattern-free graph counts for n = 0..top, by Burnside's lemma.

    The number of classes is the average, over all permutations of the
    vertex set, of the labeled free graphs that the permutation fixes.  For
    the identity that is every labeled free graph (counted by extending the
    free graphs on n - 1 vertices); for any other permutation the fixed
    graphs are unions of edge orbits, tried one by one.
    """
    counts = [1]
    for n in range(1, top + 1):
        total = 0
        for cycle_type in _cycle_types(n):
            if cycle_type == (1,) * n:
                fixed = sum(_free_extensions(rows, pattern) for rows in _labeled_free(n - 1, pattern))
            else:
                perm = _representative(cycle_type)
                orbits, seen = [], set()
                for e in combinations(range(n), 2):
                    if e in seen:
                        continue
                    orbit, cur = [], e
                    while cur not in seen:
                        seen.add(cur)
                        orbit.append(cur)
                        cur = tuple(sorted((perm[cur[0]], perm[cur[1]])))
                    orbits.append(orbit)
                fixed = 0
                for choice in range(1 << len(orbits)):
                    edges = [e for i, o in enumerate(orbits) if (choice >> i) & 1 for e in o]
                    if is_free(from_edges(n, edges), pattern):
                        fixed += 1
            total += _class_size(n, cycle_type) * fixed
        count, rem = divmod(total, math.factorial(n))
        if rem:
            raise ArithmeticError("orbit count is not an integer")
        counts.append(count)
    return counts
