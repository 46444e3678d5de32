"""Exact subgraph-copy counting over the bitset graphs.

A *copy* of a pattern T in a host G is a subgraph of G isomorphic to T
(not necessarily induced).  We count labeled embeddings -- injective maps
preserving edges -- and divide by the pattern's automorphism count.  The
division must be exact; a nonzero remainder means the embedding count
itself is wrong, so it is promoted to an internal error rather than
silently truncated.

One kernel serves every count and every existence test.  ``_plan`` compiles
a pattern into a plan: the pattern vertices in a greedy order (each new
vertex sees as many placed neighbours as possible) from an optional prefix,
and for each position the earlier positions adjacent to it.  ``_embed``
backtracks along a compiled plan, pins the prefix to given host vertices,
and stops once it has found ``limit`` embeddings.  Existence is counting
with a limit of 1, and the through-vertex and through-edge variants sum the
kernel over the plans of every root or every ordered pattern edge.
``Pattern`` owns the plans and compiles each one once, on first use.  The
candidates for a vertex are the unused host vertices adjacent to the images
of all its placed neighbours, so every pattern edge is checked when its
later endpoint is placed; no degree filter is needed for correctness, and
on the dense hosts where counting is costly it prunes nothing.

``critical_masks`` serves the exhaustive search's freeness filter with its
own recursion over a plan of t - v, one v per automorphism orbit, which
records where the neighbours of v land instead of counting.

All counts are Python ints and therefore exact at every size we accept.
"""

from __future__ import annotations

from functools import cached_property

from .errors import InternalCheckError
from .graphs import Graph, _bits, subgraph

PATTERN_CAP = 16

#: a compiled backtracking plan: for each position, the earlier positions
#: it is adjacent to (positions are indices into the vertex order)
Plan = list[list[int]]


class Pattern:
    """A small pattern graph plus its lazily compiled plans and symmetry data."""

    def __init__(self, graph: Graph):
        if graph.n > PATTERN_CAP:
            raise ValueError(f"patterns are capped at {PATTERN_CAP} vertices")
        if graph.n == 0:
            raise ValueError("patterns must have at least one vertex")
        self.graph = graph

    @cached_property
    def plan(self) -> Plan:
        """Plan of the whole pattern, from a maximum-degree vertex."""
        return _plan(self.graph)[1]

    @cached_property
    def root_plans(self) -> tuple[Plan, ...]:
        """Plan starting at vertex r, for every r."""
        return tuple(_plan(self.graph, (r,))[1] for r in range(self.graph.n))

    @cached_property
    def edge_plans(self) -> tuple[Plan, ...]:
        """Plan starting at (x, y) and at (y, x), for every edge xy."""
        t = self.graph
        return tuple(_plan(t, p)[1] for x, y in t.edges() for p in ((x, y), (y, x)))

    @cached_property
    def aut_count(self) -> int:
        return _embed(self.graph, self.plan)

    @cached_property
    def orbit_reps(self) -> tuple[int, ...]:
        """The lowest vertex of every automorphism orbit, ascending."""
        t = self.graph
        reps: list[int] = []
        for u in range(t.n):
            # an embedding of t into itself sending u to r is an automorphism
            if not any(_embed(t, self.root_plans[u], (r,), limit=1) for r in reps):
                reps.append(u)
        return tuple(reps)

    @cached_property
    def deletion_plans(self) -> tuple:
        """``_deletion_plan`` of every orbit representative, for ``critical_masks``."""
        return tuple(_deletion_plan(self.graph, v) for v in self.orbit_reps)

    def __repr__(self) -> str:
        return f"Pattern({self.graph!r})"


def as_pattern(obj: Graph | Pattern) -> Pattern:
    return obj if isinstance(obj, Pattern) else Pattern(obj)


def _plan(t: Graph, prefix: tuple[int, ...] = ()) -> tuple[list[int], Plan]:
    """Vertex order for backtracking and its plan; each new vertex sees many
    placed neighbors.

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
    pos = {v: i for i, v in enumerate(order)}
    back = [[pos[u] for u in _bits(adj[v]) if pos[u] < i] for i, v in enumerate(order)]
    return order, back


def _embed(g: Graph, back: Plan, pinned: tuple[int, ...] = (), limit: int = 0) -> int:
    """Count injective edge-preserving maps along plan ``back`` into g that send
    its first positions to the host vertices ``pinned``.

    With ``limit`` > 0 the search stops once it has found at least ``limit``
    embeddings and returns a count of at least ``limit``.
    """
    n = len(back)
    if n > g.n:
        return 0
    gadj = g.adj
    # image[i] is the host neighborhood row of the vertex that position i maps to
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
    return _embed(g, as_pattern(t).plan)


def exists_embedding(g: Graph, t: Graph | Pattern) -> bool:
    return _embed(g, as_pattern(t).plan, limit=1) > 0


def count_copies(g: Graph, t: Graph | Pattern) -> int:
    """Number of subgraphs of g isomorphic to t (embeddings / automorphisms)."""
    pat = as_pattern(t)
    emb = count_embeddings(g, pat)
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
    if not 0 <= v < g.n:
        raise ValueError("v is not a vertex of the host")
    total = 0
    for plan in as_pattern(t).root_plans:
        total += _embed(g, plan, (v,), limit)
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
    if not g.has_edge(u, v):
        raise ValueError("uv is not an edge of the host")
    total = 0
    for plan in as_pattern(t).edge_plans:
        total += _embed(g, plan, (u, v), limit)
        if limit and total >= limit:
            return total
    return total


def embeddings_through_edge(g: Graph, u: int, v: int, t: Graph | Pattern) -> int:
    """Embeddings whose image uses the host edge uv (in either orientation)."""
    return _through_edge(g, u, v, t, 0)


def exists_embedding_through_edge(g: Graph, u: int, v: int, t: Graph | Pattern) -> bool:
    return _through_edge(g, u, v, t, 1) > 0


# ---------------------------------------------------------------------------
# critical masks: the freeness filter of the exhaustive search


def _deletion_plan(t: Graph, v: int) -> tuple[Plan, list[int], int]:
    """Backtracking plan of t - v for ``_neighbour_images``.

    Per position: the positions of its placed neighbours, and whether it is
    a neighbour of v; then the position just past the last such neighbour.
    """
    others = [u for u in range(t.n) if u != v]
    if not others:
        return [], [], 0
    order, back = _plan(subgraph(t, others))
    sees = [(t.adj[v] >> others[w]) & 1 for w in order]
    split = max((i + 1 for i, s in enumerate(sees) if s), default=0)
    return back, sees, split


def _neighbour_images(
    g: Graph, plan: tuple[Plan, list[int], int], found: set[int]
) -> None:
    """Add to ``found`` every host set onto which some embedding of t - v maps N(v).

    Past the last neighbour of v in the plan only existence matters, so the
    search stops at the first completion, and skips a placement whose mask
    is already known.
    """
    back, sees, split = plan
    n = len(back)
    gadj = g.adj
    image = [0] * n

    def rec(i: int, avail: int, mask: int) -> bool:
        if i == split and mask in found:
            return True
        if i == n:
            found.add(mask)
            return True
        cand = avail
        for j in back[i]:
            cand &= image[j]
        while cand:
            low = cand & -cand
            cand ^= low
            image[i] = gadj[low.bit_length() - 1]
            if rec(i + 1, avail ^ low, mask | low if sees[i] else mask) and i >= split:
                return True
        return False

    rec(0, (1 << g.n) - 1, 0)


def critical_masks(g: Graph, t: Graph | Pattern) -> list[int]:
    """Minimal host vertex sets a new vertex must not see all of, to stay t-free.

    Joining a new vertex to the host vertices in ``mask`` creates a copy of
    t if and only if ``mask`` contains one of the returned sets: the new
    vertex plays some pattern vertex v, the rest of the copy is an embedding
    of t - v into g, and v's neighbours must land inside ``mask``.  One v
    per automorphism orbit suffices.  No returned set contains another;
    they come fewest vertices first.
    """
    pat = as_pattern(t)
    found: set[int] = set()
    if pat.graph.n - 1 <= g.n:
        for plan in pat.deletion_plans:
            _neighbour_images(g, plan, found)
    minimal: list[int] = []
    for mask in sorted(found, key=lambda m: (m.bit_count(), m)):
        if not any(c & mask == c for c in minimal):
            minimal.append(mask)
    return minimal


# ---------------------------------------------------------------------------
# cliques, counted and listed directly rather than through the kernel


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
    emb = embeddings_through_vertex(g, v, pat)
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
