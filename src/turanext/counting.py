"""Exact subgraph-copy counting over the bitset graphs.

A *copy* of a pattern T in a host G is a subgraph of G isomorphic to T (not
necessarily induced); an *embedding* is an injective map V(T) -> V(G) that
sends edges to edges.  Every copy is the image of exactly |Aut(T)|
embeddings.

One kernel serves every count and every existence test.  ``_plan`` compiles
a pattern into a plan: the pattern vertices in a greedy order (each new
vertex sees as many placed neighbours as possible) from an optional prefix,
and for each position the earlier positions adjacent to it.  ``_embed``
backtracks along a compiled plan, pins the prefix to given host vertices,
and stops once it has found ``limit`` embeddings.  ``Pattern`` owns the
plans and compiles each one once, on first use.  The candidates for a
vertex are the unused host vertices adjacent to the images of all its
placed neighbours, so every pattern edge is checked when its later endpoint
is placed; no degree filter is needed for correctness, and on the dense
hosts where counting is costly it prunes nothing.

The kernel counts copies directly, under symmetry-breaking order conditions
(Grochow and Kellis, RECOMB 2007).  ``Pattern`` walks a stabilizer chain once,
along its plan order: for each vertex a, the orbit of a under the
automorphisms that fix every earlier vertex, found by existence tests of T
in itself with those vertices pinned.  Asking f(a) < f(b) for every other
member b of that orbit leaves exactly one embedding f per copy.  A plan
carries these conditions per position, and the kernel masks each position's
candidates with them, pinned positions included.  So a copy count divides
nothing: the embedding counts are copy counts times |Aut(T)|, and |Aut(T)|
is the product of the chain's orbit sizes (orbit-stabilizer), so Aut(T) is
never enumerated.  The through-vertex and through-edge counts sum the kernel
over the plans of every root or every ordered pattern edge: the one
conditioned embedding of a copy through v sends exactly one root to v.

Existence tests use the plans without conditions and stop at the first
embedding, which conditions could only delay.  Through a vertex or an edge
they try one root or ordered edge per automorphism orbit: composing with an
automorphism moves any embedding through v onto that orbit's representative.

``critical_masks`` serves the exhaustive search's freeness filter with its
own recursion over a plan of t - v, one v per automorphism orbit, which
records where the neighbours of v land instead of counting.  It keeps one
embedding per orbit of the automorphisms fixing v, which all map the
neighbours of v onto the same host set.

All counts are Python ints and therefore exact at every size we accept.
"""

from __future__ import annotations

from functools import cached_property
from itertools import groupby
from math import prod
from typing import NamedTuple, Sequence

from .graphs import Graph, _bits, subgraph

PATTERN_CAP = 16


class Plan(NamedTuple):
    """A compiled backtracking plan.  Positions index ``order``; per position,
    ``back`` lists the earlier positions adjacent to it, ``under`` the earlier
    positions whose host image must lie below its own and ``over`` those whose
    host image must lie above it."""

    order: tuple[int, ...]
    back: list[list[int]]
    under: Sequence[Sequence[int]]
    over: Sequence[Sequence[int]]


#: per vertex a in plan order: a and the rest of its orbit under the
#: automorphisms that fix every earlier vertex
Chain = tuple[tuple[int, tuple[int, ...]], ...]


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
        return _plan(self.graph)

    @cached_property
    def root_plans(self) -> tuple[Plan, ...]:
        """Plan starting at vertex r, for every r."""
        return tuple(_plan(self.graph, (r,)) for r in range(self.graph.n))

    @cached_property
    def edge_plans(self) -> tuple[Plan, ...]:
        """Plan starting at (x, y) and at (y, x), for every edge xy."""
        t = self.graph
        return tuple(_plan(t, p) for x, y in t.edges() for p in ((x, y), (y, x)))

    @cached_property
    def chain(self) -> Chain:
        """The stabilizer chain along the order of ``plan``."""
        return _stabilizer_chain(self.graph, self.plan)

    @cached_property
    def aut_count(self) -> int:
        """|Aut(t)|: the product of the chain's orbit sizes."""
        return prod(len(orbit) + 1 for _, orbit in self.chain)

    @cached_property
    def conditions(self) -> list[tuple[int, int]]:
        """Pairs (a, b): a counted embedding f has f(a) < f(b)."""
        return _condition_pairs(self.chain)

    @cached_property
    def copy_plan(self) -> Plan:
        return _conditioned(self.plan, self.conditions)

    @cached_property
    def copy_root_plans(self) -> tuple[Plan, ...]:
        return tuple(_conditioned(p, self.conditions) for p in self.root_plans)

    @cached_property
    def copy_edge_plans(self) -> tuple[Plan, ...]:
        return tuple(_conditioned(p, self.conditions) for p in self.edge_plans)

    @cached_property
    def orbit_reps(self) -> tuple[int, ...]:
        """The lowest vertex of every automorphism orbit, ascending."""
        return tuple(plan.order[0] for plan in self.orbit_root_plans)

    @cached_property
    def orbit_root_plans(self) -> tuple[Plan, ...]:
        """``root_plans`` of one root per automorphism orbit: an embedding
        sending any root to v, composed with an automorphism, sends that
        orbit's representative to v."""
        return _orbit_plans(self.graph, self.root_plans, 1)

    @cached_property
    def orbit_edge_plans(self) -> tuple[Plan, ...]:
        """``edge_plans`` of one ordered edge per automorphism orbit."""
        return _orbit_plans(self.graph, self.edge_plans, 2)

    @cached_property
    def deletion_plans(self) -> tuple:
        """``_deletion_plan`` of every orbit representative, for ``critical_masks``."""
        return tuple(_deletion_plan(self.graph, v) for v in self.orbit_reps)

    def __repr__(self) -> str:
        return f"Pattern({self.graph!r})"


def as_pattern(obj: Graph | Pattern) -> Pattern:
    return obj if isinstance(obj, Pattern) else Pattern(obj)


def _plan(t: Graph, prefix: tuple[int, ...] = ()) -> Plan:
    """Vertex order for backtracking and its plan, without order conditions;
    each new vertex sees many placed neighbors.

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
    return Plan(tuple(order), back, [()] * n, [()] * n)


def _orbit_plans(t: Graph, plans: tuple[Plan, ...], k: int) -> tuple[Plan, ...]:
    """The first of ``plans`` in every automorphism orbit of their first ``k`` vertices."""
    reps: list[Plan] = []
    for plan in plans:
        # an embedding of t into itself is an automorphism
        if not any(_embed(t, rep, plan.order[:k], limit=1) for rep in reps):
            reps.append(plan)
    return tuple(reps)


def _stabilizer_chain(t: Graph, plan: Plan, start: int = 0) -> Chain:
    """For each position i >= ``start`` of ``plan`` (a plan of t without
    conditions), its vertex a and every other vertex that an automorphism of t
    fixing the vertices before a sends a to.

    An embedding of t into itself is an automorphism, so each orbit member is
    one pinned existence test: at most n(n - 1)/2 tests, with Aut(t) never
    listed.
    """
    order = plan.order
    return tuple(
        (order[i], tuple(b for b in order[i + 1 :] if _embed(t, plan, order[:i] + (b,), limit=1)))
        for i in range(start, len(order))
    )


def _condition_pairs(chain: Chain) -> list[tuple[int, int]]:
    """The order conditions of ``chain``: f(a) < f(b) for every other member b
    of the orbit of a, less those the rest imply (f(a) < f(b) < f(c) gives
    f(a) < f(c)), which the kernel would only check again."""
    above: dict[int, set[int]] = {}  # vertex -> the vertices that must map above it
    pairs: list[tuple[int, int]] = []
    for a, orbit in reversed(chain):
        implied = set().union(*(above[b] for b in orbit))
        pairs += [(a, b) for b in orbit if b not in implied]
        above[a] = implied.union(orbit)
    return pairs


def _conditioned(plan: Plan, pairs: list[tuple[int, int]]) -> Plan:
    """``plan`` asking f(a) < f(b) for every (a, b) in ``pairs``, checked at the
    later of the two positions."""
    pos = {v: i for i, v in enumerate(plan.order)}
    under: list[list[int]] = [[] for _ in pos]
    over: list[list[int]] = [[] for _ in pos]
    for a, b in pairs:
        i, k = pos[a], pos[b]
        if i < k:
            under[k].append(i)
        else:
            over[i].append(k)
    return plan._replace(under=under, over=over)


def _embed(g: Graph, plan: Plan, pinned: tuple[int, ...] = (), limit: int = 0) -> int:
    """Count injective edge-preserving maps along ``plan`` into g that meet its
    order conditions and send its first positions to the host vertices ``pinned``.

    With ``limit`` > 0 the search stops once it has found at least ``limit``
    maps and returns a count of at least ``limit``.
    """
    _, back, under, over = plan
    n = len(back)
    if n > g.n:
        return 0
    gadj = g.adj
    # image[i] is the host neighborhood row of the vertex that position i maps
    # to, and bit[i] that vertex as a one-bit mask
    image = [0] * n
    bit = [0] * n
    avail = (1 << g.n) - 1
    for i, host in enumerate(pinned):
        low = 1 << host
        if not avail & low:
            return 0
        for j in back[i]:
            if not image[j] & low:
                return 0
        for j in under[i]:
            if bit[j] > low:
                return 0
        for j in over[i]:
            if bit[j] < low:
                return 0
        image[i] = gadj[host]
        bit[i] = low
        avail ^= low
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
        for j in under[i]:
            cand &= -(bit[j] << 1)
        for j in over[i]:
            cand &= bit[j] - 1
        if i == last:
            return cand.bit_count()
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            image[i] = gadj[low.bit_length() - 1]
            bit[i] = low
            total += rec(i + 1, avail ^ low)
            if total >= stop:
                break
        return total

    return rec(npin, avail)


def _kernel_sum(g: Graph, plans: tuple[Plan, ...], pinned: tuple[int, ...], limit: int) -> int:
    """Sum of the kernel over ``plans``, each with its first positions pinned."""
    total = 0
    for plan in plans:
        total += _embed(g, plan, pinned, limit)
        if limit and total >= limit:
            return total
    return total


def count_copies(g: Graph, t: Graph | Pattern) -> int:
    """Number of subgraphs of g isomorphic to t: one embedding per copy meets
    the order conditions."""
    return _embed(g, as_pattern(t).copy_plan)


def count_embeddings(g: Graph, t: Graph | Pattern) -> int:
    """Number of injective maps V(t) -> V(g) sending edges to edges."""
    pat = as_pattern(t)
    return count_copies(g, pat) * pat.aut_count


def exists_embedding(g: Graph, t: Graph | Pattern) -> bool:
    return _embed(g, as_pattern(t).plan, limit=1) > 0


def automorphism_count(t: Graph) -> int:
    return as_pattern(t).aut_count


def _through_vertex(g: Graph, v: int, plans: tuple[Plan, ...], limit: int) -> int:
    """Sum of the kernel over ``plans``, which start at pattern roots, each
    pinned to v."""
    if not 0 <= v < g.n:
        raise ValueError("v is not a vertex of the host")
    return _kernel_sum(g, plans, (v,), limit)


def pattern_degree(g: Graph, v: int, t: Graph | Pattern) -> int:
    """Number of copies of t in g whose vertex set contains v."""
    return _through_vertex(g, v, as_pattern(t).copy_root_plans, 0)


def embeddings_through_vertex(g: Graph, v: int, t: Graph | Pattern) -> int:
    """Embeddings of the pattern whose image contains host vertex v."""
    pat = as_pattern(t)
    return pattern_degree(g, v, pat) * pat.aut_count


def exists_embedding_through_vertex(g: Graph, v: int, t: Graph | Pattern) -> bool:
    return _through_vertex(g, v, as_pattern(t).orbit_root_plans, 1) > 0


def _through_edge(g: Graph, u: int, v: int, plans: tuple[Plan, ...], limit: int) -> int:
    """Sum of the kernel over ``plans``, which start at ordered pattern edges,
    each pinned to (u, v)."""
    if not g.has_edge(u, v):
        raise ValueError("uv is not an edge of the host")
    return _kernel_sum(g, plans, (u, v), limit)


def copies_through_edge(g: Graph, u: int, v: int, t: Graph | Pattern) -> int:
    """Number of copies of t in g that use the host edge uv."""
    return _through_edge(g, u, v, as_pattern(t).copy_edge_plans, 0)


def embeddings_through_edge(g: Graph, u: int, v: int, t: Graph | Pattern) -> int:
    """Embeddings whose image uses the host edge uv (in either orientation)."""
    pat = as_pattern(t)
    return copies_through_edge(g, u, v, pat) * pat.aut_count


def exists_embedding_through_edge(g: Graph, u: int, v: int, t: Graph | Pattern) -> bool:
    return _through_edge(g, u, v, as_pattern(t).orbit_edge_plans, 1) > 0


# ---------------------------------------------------------------------------
# critical masks: the freeness filter of the exhaustive search


def _deletion_plan(t: Graph, v: int) -> tuple[Plan, list[int], int]:
    """Backtracking plan of t - v for ``_neighbour_images``.

    The plan's order names vertices of t, and its conditions come from the
    stabilizer chain of t with v fixed: the automorphisms fixing v act on
    t - v and keep N(v) in place, so one embedding per orbit of them finds
    every neighbour image.  Then, per position, whether it is a neighbour of
    v, and the position just past the last such neighbour.
    """
    others = [u for u in range(t.n) if u != v]
    if not others:
        return Plan((), [], [], []), [], 0
    sub = _plan(subgraph(t, others))
    order = tuple(others[w] for w in sub.order)
    chain = _stabilizer_chain(t, _plan(t, (v,) + order), start=1)
    plan = _conditioned(sub._replace(order=order), _condition_pairs(chain))
    sees = [(t.adj[v] >> u) & 1 for u in order]
    split = max((i + 1 for i, s in enumerate(sees) if s), default=0)
    return plan, sees, split


def _neighbour_images(
    g: Graph, dplan: tuple[Plan, list[int], int], found: set[int]
) -> None:
    """Add to ``found`` every host set onto which some embedding of t - v maps N(v).

    Past the last neighbour of v in the plan only existence matters, so the
    search stops at the first completion, and skips a placement whose mask
    is already known.
    """
    plan, sees, split = dplan
    _, back, under, over = plan
    n = len(back)
    gadj = g.adj
    image = [0] * n
    bit = [0] * n

    def rec(i: int, avail: int, mask: int) -> bool:
        if i == split and mask in found:
            return True
        if i == n:
            found.add(mask)
            return True
        cand = avail
        for j in back[i]:
            cand &= image[j]
        for j in under[i]:
            cand &= -(bit[j] << 1)
        for j in over[i]:
            cand &= bit[j] - 1
        while cand:
            low = cand & -cand
            cand ^= low
            image[i] = gadj[low.bit_length() - 1]
            bit[i] = low
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
        for dplan in pat.deletion_plans:
            _neighbour_images(g, dplan, found)
    minimal: list[int] = []
    # distinct sets of one size contain no other, so each size is checked
    # against the smaller sets kept so far only
    for _, same_size in groupby(sorted(found, key=lambda m: (m.bit_count(), m)), int.bit_count):
        minimal += [mask for mask in same_size if not any(c & mask == c for c in minimal)]
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
