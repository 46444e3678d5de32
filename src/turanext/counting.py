"""Exact subgraph-copy counting over the bitset graphs.

A *copy* of a pattern T in a host G is a subgraph of G isomorphic to T
(not necessarily induced).  We count labeled embeddings -- injective maps
preserving edges -- and divide by the pattern's automorphism count.  The
division must be exact; a nonzero remainder means the embedding count
itself is wrong, so it is promoted to an internal error rather than
silently truncated.

One kernel serves every count and every existence test.  ``_plan`` orders
the pattern vertices greedily (each new vertex sees as many placed
neighbours as possible), starting from an optional prefix; ``_embed``
backtracks along that order, pins the prefix to given host vertices, and
stops once it has found ``limit`` embeddings.  Existence is counting with a
limit of 1, and the through-vertex and through-edge variants sum the kernel
over every root or every ordered pattern edge as prefix.  The candidates
for a vertex are the unused host vertices adjacent to the images of all its
placed neighbours, so every pattern edge is checked when its later endpoint
is placed; no degree filter is needed for correctness, and on the dense
hosts where counting is costly it prunes nothing.

All counts are Python ints and therefore exact at every size we accept.
"""

from __future__ import annotations

from .errors import InternalCheckError
from .graphs import Graph, _bits

PATTERN_CAP = 16


class Pattern:
    """A small pattern graph plus its lazily computed automorphism count."""

    __slots__ = ("graph", "_aut")

    def __init__(self, graph: Graph):
        if graph.n > PATTERN_CAP:
            raise ValueError(f"patterns are capped at {PATTERN_CAP} vertices")
        if graph.n == 0:
            raise ValueError("patterns must have at least one vertex")
        self.graph = graph
        self._aut: int | None = None

    @property
    def aut_count(self) -> int:
        if self._aut is None:
            self._aut = count_embeddings(self.graph, self.graph)
        return self._aut

    def __repr__(self) -> str:
        return f"Pattern({self.graph!r})"


def as_pattern(obj: Graph | Pattern) -> Pattern:
    return obj if isinstance(obj, Pattern) else Pattern(obj)


def _plan(t: Graph, prefix: tuple[int, ...] = ()) -> list[int]:
    """Vertex order for backtracking: each new vertex sees many placed neighbors.

    Starts with ``prefix`` if given, else with a maximum-degree vertex; then
    greedily picks the vertex with the most already-placed neighbors (ties:
    higher degree, then lower index).  On connected patterns every vertex
    after the first has a placed neighbor, so candidate sets stay small.
    """
    n = t.n
    adj = t.adj
    order = list(prefix) or [max(range(n), key=lambda v: (adj[v].bit_count(), -v))]
    placed = 0
    for v in order:
        placed |= 1 << v
    while len(order) < n:
        best = -1
        best_key = (-1, -1, 0)
        for v in range(n):
            if (placed >> v) & 1:
                continue
            key = ((adj[v] & placed).bit_count(), adj[v].bit_count(), -v)
            if key > best_key:
                best_key = key
                best = v
        order.append(best)
        placed |= 1 << best
    return order


def _embed(
    g: Graph,
    t: Graph,
    prefix: tuple[int, ...] = (),
    pinned: tuple[int, ...] = (),
    limit: int = 0,
) -> int:
    """Count injective edge-preserving maps t -> g sending prefix[i] to pinned[i].

    With ``limit`` > 0 the search stops once it has found at least ``limit``
    embeddings and returns a count of at least ``limit``.
    """
    n = t.n
    if n > g.n:
        return 0
    order = _plan(t, prefix)
    pos = {v: i for i, v in enumerate(order)}
    back = [
        [pos[u] for u in _bits(t.adj[v]) if pos[u] < i] for i, v in enumerate(order)
    ]
    gadj = g.adj
    # image[i] is the host neighborhood row of the vertex that order[i] maps to
    image = [0] * n
    avail = (1 << g.n) - 1
    for i, host in enumerate(pinned):
        if not (avail >> host) & 1:
            return 0
        for j in back[i]:
            if not (image[j] >> host) & 1:
                return 0
        image[i] = gadj[host]
        avail ^= 1 << host
    npin = len(pinned)
    if npin == n:
        return 1
    last = n - 1
    # no count reaches g.n ** n, so without a limit the search never stops early
    stop = limit if limit > 0 else g.n**n + 1

    def rec(i: int, avail: int) -> int:
        cand = avail
        for j in back[i]:
            cand &= image[j]
            if not cand:
                return 0
        if i == last:
            return cand.bit_count()
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            image[i] = gadj[low.bit_length() - 1]
            total += rec(i + 1, avail ^ low)
            if total >= stop:
                break
        return total

    return rec(npin, avail)


def count_embeddings(g: Graph, t: Graph | Pattern) -> int:
    """Number of injective maps V(t) -> V(g) sending edges to edges."""
    return _embed(g, as_pattern(t).graph)


def exists_embedding(g: Graph, t: Graph | Pattern) -> bool:
    return _embed(g, as_pattern(t).graph, limit=1) > 0


def count_copies(g: Graph, t: Graph | Pattern) -> int:
    """Number of subgraphs of g isomorphic to t (embeddings / automorphisms)."""
    pat = as_pattern(t)
    emb = count_embeddings(g, pat.graph)
    copies, rem = divmod(emb, pat.aut_count)
    if rem:
        raise InternalCheckError(
            f"embedding count {emb} not divisible by automorphism count {pat.aut_count}"
        )
    return copies


def automorphism_count(t: Graph) -> int:
    return as_pattern(t).aut_count


def _through_vertex(g: Graph, v: int, t: Graph | Pattern, limit: int) -> int:
    """Sum of the kernel over every pattern root pinned to host vertex v."""
    t = as_pattern(t).graph
    if not 0 <= v < g.n:
        raise ValueError("v is not a vertex of the host")
    if t.n > g.n:
        return 0
    total = 0
    for root in range(t.n):
        total += _embed(g, t, (root,), (v,), limit)
        if limit and total >= limit:
            return total
    return total


def embeddings_through_vertex(g: Graph, v: int, t: Graph | Pattern) -> int:
    """Embeddings of the pattern whose image contains host vertex v."""
    return _through_vertex(g, v, t, 0)


def exists_embedding_through_vertex(g: Graph, v: int, t: Graph | Pattern) -> bool:
    return _through_vertex(g, v, t, 1) > 0


def _through_edge(g: Graph, u: int, v: int, t: Graph | Pattern, limit: int) -> int:
    """Sum of the kernel over every ordered pattern edge pinned to (u, v)."""
    t = as_pattern(t).graph
    if not g.has_edge(u, v):
        raise ValueError("uv is not an edge of the host")
    total = 0
    for x, y in t.edges():
        for prefix in ((x, y), (y, x)):
            total += _embed(g, t, prefix, (u, v), limit)
            if limit and total >= limit:
                return total
    return total


def embeddings_through_edge(g: Graph, u: int, v: int, t: Graph | Pattern) -> int:
    """Embeddings whose image uses the host edge uv (in either orientation)."""
    return _through_edge(g, u, v, t, 0)


def exists_embedding_through_edge(g: Graph, u: int, v: int, t: Graph | Pattern) -> bool:
    return _through_edge(g, u, v, t, 1) > 0


# ---------------------------------------------------------------------------
# cliques (special-cased: the hot path of the whole package)


def count_cliques(g: Graph, m: int) -> int:
    """Number of m-vertex cliques in g (m = 1 counts vertices)."""
    if m < 1:
        raise ValueError("clique size must be >= 1")
    if m == 1:
        return g.n
    adj = g.adj
    full = (1 << g.n) - 1

    def rec(cand: int, need: int) -> int:
        if need == 1:
            return cand.bit_count()
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            if cand.bit_count() < need - 1:
                break
            total += rec(cand & adj[low.bit_length() - 1], need - 1)
        return total

    return rec(full, m)


def clique_masks(g: Graph, m: int) -> list[int]:
    """Vertex bitmasks of all m-cliques of g (ascending lowest member)."""
    if m < 1:
        raise ValueError("clique size must be >= 1")
    out: list[int] = []
    if m == 1:
        return [1 << v for v in range(g.n)]
    adj = g.adj

    def rec(cand: int, acc: int, need: int) -> None:
        if need == 0:
            out.append(acc)
            return
        while cand:
            low = cand & -cand
            cand ^= low
            if cand.bit_count() < need - 1:
                break
            v = low.bit_length() - 1
            rec(cand & adj[v], acc | low, need - 1)

    rec((1 << g.n) - 1, 0, m)
    return out


def clique_number(g: Graph) -> int:
    """Largest clique size (0 for the empty graph)."""
    if g.n == 0:
        return 0
    best = 1
    adj = g.adj

    def rec(cand: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while cand:
            if size + cand.bit_count() <= best:
                return
            low = cand & -cand
            cand ^= low
            rec(cand & adj[low.bit_length() - 1], size + 1)

    rec((1 << g.n) - 1, 0)
    return best


# ---------------------------------------------------------------------------
# derived counts


def pattern_degree(g: Graph, v: int, t: Graph | Pattern) -> int:
    """Number of copies of t in g whose vertex set contains v."""
    pat = as_pattern(t)
    emb = embeddings_through_vertex(g, v, pat.graph)
    deg, rem = divmod(emb, pat.aut_count)
    if rem:
        raise InternalCheckError(
            f"through-vertex embedding count {emb} not divisible by {pat.aut_count}"
        )
    return deg


def min_pattern_degree(g: Graph, t: Graph | Pattern) -> int:
    """Minimum over vertices of the copy count through that vertex."""
    if g.n == 0:
        raise ValueError("minimum pattern degree needs at least one vertex")
    pat = as_pattern(t)
    return min(pattern_degree(g, v, pat) for v in range(g.n))


def contains_subgraph(g: Graph, t: Graph | Pattern) -> bool:
    return exists_embedding(g, t)


def contains_any(g: Graph, patterns: list[Graph | Pattern]) -> bool:
    return any(exists_embedding(g, t) for t in patterns)
