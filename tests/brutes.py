"""Slow, obviously-correct reference implementations used as test oracles.

Everything here works by direct enumeration (permutations, vertex subsets,
edge-set bitmasks) with no shared logic with the package's counting or
search kernels beyond the Graph container itself.  The canonical labeling
oracle is a frozen copy of the package's original, unpruned search, kept
self-contained so the pruned search can be checked byte for byte.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

from turanext.graphs import Graph, graph_from_edges


def embeddings_brute(host: Graph, pattern: Graph) -> int:
    """Count injective maps preserving pattern edges, by trying them all."""
    if pattern.n > host.n:
        return 0
    pedges = pattern.edges()
    count = 0
    for image in permutations(range(host.n), pattern.n):
        if all(host.has_edge(image[u], image[v]) for u, v in pedges):
            count += 1
    return count


def exists_brute(host: Graph, pattern: Graph) -> bool:
    """Whether some injective map preserves pattern edges: the scan of
    ``embeddings_brute``, stopped at the first match."""
    if pattern.n > host.n:
        return False
    pedges = pattern.edges()
    return any(
        all(host.has_edge(image[u], image[v]) for u, v in pedges)
        for image in permutations(range(host.n), pattern.n)
    )


def through_vertex_brute(host: Graph, v: int, pattern: Graph) -> int:
    """Count edge-preserving injective maps whose image contains host vertex v."""
    if pattern.n > host.n:
        return 0
    pedges = pattern.edges()
    count = 0
    for image in permutations(range(host.n), pattern.n):
        if v in image and all(host.has_edge(image[a], image[b]) for a, b in pedges):
            count += 1
    return count


def through_edge_brute(host: Graph, u: int, v: int, pattern: Graph) -> int:
    """Count edge-preserving injective maps sending some pattern edge onto {u, v}."""
    if pattern.n > host.n:
        return 0
    pedges = pattern.edges()
    target = {u, v}
    count = 0
    for image in permutations(range(host.n), pattern.n):
        if all(host.has_edge(image[a], image[b]) for a, b in pedges) and any(
            {image[a], image[b]} == target for a, b in pedges
        ):
            count += 1
    return count


def embedding_images_brute(host: Graph, pattern: Graph) -> list[tuple[int, ...]]:
    """Every edge-preserving injective map V(pattern) -> V(host), as the tuple
    of images of the pattern vertices."""
    if pattern.n > host.n:
        return []
    pedges = pattern.edges()
    adj = host.adj
    return [
        image
        for image in permutations(range(host.n), pattern.n)
        if all((adj[image[a]] >> image[b]) & 1 for a, b in pedges)
    ]


def automorphisms_brute(g: Graph) -> list[tuple[int, ...]]:
    """Every automorphism of g, as the tuple of vertex images, by trying
    every permutation (an edge-preserving bijection is an automorphism)."""
    return embedding_images_brute(g, g)


def stabilizer_chain_brute(g: Graph) -> list[tuple[int, ...]]:
    """Automorphisms generating Aut(g), for graphs too large to list it.

    For each vertex i and each vertex w, the first automorphism in
    lexicographic order that fixes 0..i-1 and sends i to w, if any: a
    transversal of each point stabilizer down the chain, so together they
    generate the group.  Permutations are built position by position, and a
    prefix is dropped once two mapped vertices disagree on adjacency.
    """
    n, adj = g.n, g.adj

    def fits(image: list[int], w: int) -> bool:
        j = len(image)
        return w not in image and all(
            (adj[j] >> u) & 1 == (adj[w] >> image[u]) & 1 for u in range(j)
        )

    def first(image: list[int]) -> tuple[int, ...] | None:
        if len(image) == n:
            return tuple(image)
        for w in range(n):
            if fits(image, w):
                found = first(image + [w])
                if found is not None:
                    return found
        return None

    out = []
    for i in range(n):
        fixed = list(range(i))
        for w in range(i + 1, n):
            found = first(fixed + [w]) if fits(fixed, w) else None
            if found is not None:
                out.append(found)
    return out


def copies_brute(host: Graph, pattern: Graph) -> int:
    aut = embeddings_brute(pattern, pattern)
    emb = embeddings_brute(host, pattern)
    assert emb % aut == 0
    return emb // aut


def cliques_brute(g: Graph, m: int) -> int:
    return sum(
        1
        for verts in combinations(range(g.n), m)
        if all(g.has_edge(u, v) for u, v in combinations(verts, 2))
    )


def clique_number_brute(g: Graph) -> int:
    for m in range(g.n, 1, -1):
        if cliques_brute(g, m):
            return m
    return 1 if g.n else 0


def chromatic_brute(g: Graph) -> int:
    if g.n == 0:
        return 0

    def colorable(k: int) -> bool:
        colors = [-1] * g.n

        def go(v: int) -> bool:
            if v == g.n:
                return True
            for c in range(k):
                if all(not g.has_edge(u, v) or colors[u] != c for u in range(v)):
                    colors[v] = c
                    if go(v + 1):
                        return True
            colors[v] = -1
            return False

        return go(0)

    for k in range(1, g.n + 1):
        if colorable(k):
            return k
    raise AssertionError("unreachable")


def _set_partitions(items: list[int]) -> list[list[list[int]]]:
    """Every partition of ``items`` into nonempty blocks: the first item joins
    a block of a partition of the rest, or a block of its own."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for blocks in _set_partitions(rest):
        for i in range(len(blocks)):
            out.append(blocks[:i] + [[first] + blocks[i]] + blocks[i + 1 :])
        out.append([[first]] + blocks)
    return out


def proper_partitions_brute(g: Graph, k: int) -> set[frozenset[frozenset[int]]]:
    """Partitions of V into exactly k nonempty independent classes, filtered
    from every set partition."""
    return {
        frozenset(frozenset(block) for block in blocks)
        for blocks in _set_partitions(list(range(g.n)))
        if len(blocks) == k
        and not any(g.has_edge(u, v) for block in blocks for u, v in combinations(block, 2))
    }


def max_edges_avoiding_brute(n: int, cores: list[Graph]) -> int:
    """Max edges over all labeled n-vertex graphs with no core subgraph (tiny n)."""
    slots = list(combinations(range(n), 2))
    best = 0
    for mask in range(1 << len(slots)):
        edges = [slots[i] for i in range(len(slots)) if (mask >> i) & 1]
        if len(edges) <= best:
            continue
        g = graph_from_edges(n, edges)
        if not any(embeddings_brute(g, core) for core in cores):
            best = len(edges)
    return best


def all_graphs(n: int):
    """Yield every labeled graph on n vertices (use only for n <= 5)."""
    slots = list(combinations(range(n), 2))
    for mask in range(1 << len(slots)):
        yield graph_from_edges(
            n, [slots[i] for i in range(len(slots)) if (mask >> i) & 1]
        )


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return graph_from_edges(n, edges)


def random_permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _oracle_bits(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def _oracle_refine(adj: tuple[int, ...], cells: list[int]) -> list[int]:
    while True:
        out: list[int] = []
        for cell in cells:
            groups: dict[tuple[int, ...], int] = {}
            for v in _oracle_bits(cell):
                sig = tuple((adj[v] & c).bit_count() for c in cells)
                groups[sig] = groups.get(sig, 0) | (1 << v)
            out.extend(groups[sig] for sig in sorted(groups, reverse=True))
        if len(out) == len(cells):
            return cells
        cells = out


def _oracle_homogeneous(adj: tuple[int, ...], cells: list[int]) -> bool:
    for ci in cells:
        for cj in cells:
            links = sum((adj[v] & cj).bit_count() for v in _oracle_bits(ci))
            full = ci.bit_count() * cj.bit_count() - (ci.bit_count() if ci == cj else 0)
            if links not in (0, full):
                return False
    return True


def _oracle_leaf(adj: tuple[int, ...], labeling: list[int]) -> bytes:
    bits = [
        (adj[labeling[j]] >> labeling[i]) & 1
        for j in range(1, len(labeling))
        for i in range(j)
    ]
    bits += [0] * (-len(bits) % 8)
    return bytes(
        int("".join(map(str, bits[k : k + 8])), 2) for k in range(0, len(bits), 8)
    )


def canonical_brute(g: Graph) -> tuple[bytes, Graph]:
    """Canonical form and canonical graph from the whole search tree.

    The tree is the package's: equitable refinement with cells split by
    their neighbor-count signatures in decreasing order, individualization
    of each vertex of the first non-singleton cell, and leaves at discrete
    or homogeneous partitions.  Every branch is explored; the least leaf
    certificate wins, and its first labeling gives the canonical graph.
    """
    if g.n == 0:
        return b"\x00", g
    best: list[tuple[bytes, list[int]]] = []

    def descend(cells: list[int]) -> None:
        cells = _oracle_refine(g.adj, cells)
        split = [i for i, c in enumerate(cells) if c.bit_count() > 1]
        if not split or _oracle_homogeneous(g.adj, cells):
            labeling = [v for c in cells for v in _oracle_bits(c)]
            cert = _oracle_leaf(g.adj, labeling)
            if not best or cert < best[0][0]:
                best[:] = [(cert, labeling)]
            return
        t = split[0]
        for v in _oracle_bits(cells[t]):
            descend(cells[:t] + [1 << v, cells[t] ^ (1 << v)] + cells[t + 1 :])

    descend([(1 << g.n) - 1])
    cert, labeling = best[0]
    position = {v: i for i, v in enumerate(labeling)}
    edges = [(position[u], position[v]) for u, v in g.edges()]
    return bytes([g.n]) + cert, graph_from_edges(g.n, edges)
