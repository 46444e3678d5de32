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
plans and compiles each one once, on first use.  A call that passes a
graph rather than a ``Pattern`` goes through ``as_pattern``: every call with
an equal graph shares one ``Pattern`` (the last ``_PATTERN_MEMO`` graphs
used are kept), so callers never hold Patterns only to save compiling.
The candidates for a vertex are the unused host vertices adjacent to the
images of all its placed neighbours, so every pattern edge is checked when
its later endpoint is placed; no degree filter is needed for correctness,
and on the dense hosts where counting is costly it prunes nothing.

The last position is counted by popcount inside the loop over the
second-to-last, not placed.  A plan carries its last position's
constraints split at the second-to-last (``Tail``): the part fixed before
that loop is intersected once, and each candidate x there adds the
popcount of that set less x, cut by N(x) or by x's order only where the
split says so.  Only a prefix that pins every position but the last
reaches the last position's own lists; its candidates are counted before
the recursion starts.

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
never enumerated.

Through a host vertex or edge the kernel runs one plan per automorphism
orbit O of pattern roots or of ordered pattern edges, from O's least member
pinned to the host vertex or to (u, v).  The embeddings onto one copy of T
differ by automorphisms, so a copy that uses the host edge uv pulls (u, v)
back into exactly one orbit O, and its embeddings that send O's
representative to (u, v) form one coset of S_O, the automorphisms fixing
that representative pointwise.  Conditions from the stabilizer chain of S_O,
along the plan from the first unpinned position, keep one embedding per
coset: one per copy over all orbits.  By orbit-stabilizer |S_O| = |Aut(T)| /
|O|, so the chain stops once its orbit sizes multiply to |S_O|, and an orbit
with |S_O| = 1 needs none: for K3, C4, C5 and K4 a count through an edge is
one kernel call.  The orbits, with their sizes, come by union-find from the
generators of Aut(T) that the canonical labeling records, and a pinned chain
tests only vertices of one orbit.  The whole-pattern chain tests the
vertices of equal degree and neighbour degrees instead, so |Aut(T)| does not
rest on the generators; an orbit size that does not divide it, or a pinned
chain that ends short of |S_O|, raises ``InternalCheckError``.

Existence tests run the same copy plans and stop at the first embedding
they keep: a copy exists exactly when one of its embeddings meets the
conditions.  When the answer is no, which is every freeness re-check, the
conditions cut the search tree, by up to |Aut(T)| / |O| for a pinned plan.

``critical_masks`` serves the exhaustive search's freeness filter with its
own recursion, which records where the neighbours of v land instead of
counting.  It walks the plans of ``copy_root_plans``, from one v per
automorphism orbit, from position 1, so it places t - v and compiles no
plan or chain of its own.  Their conditions keep one embedding per coset of
the automorphisms fixing v, which all map the neighbours of v onto the same
host set.

All counts are Python ints and therefore exact at every size we accept.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache
from itertools import groupby
from math import prod
from typing import NamedTuple, Sequence

from .errors import InternalCheckError
from .graphs import Graph, _automorphism_generators, _bits, _find

PATTERN_CAP = 16
#: graphs whose compiled Pattern ``as_pattern`` keeps
_PATTERN_MEMO = 256


class Tail(NamedTuple):
    """The constraints of a plan's last position, split at the second-to-last
    position p.  ``back``, ``under`` and ``over`` are the last position's
    lists less p, fixed before p is placed; ``adjacent``, ``above`` and
    ``below`` say whether p was in them: the last image must be a neighbour
    of p's image, lie above it or lie below it."""

    back: tuple[int, ...]
    under: tuple[int, ...]
    over: tuple[int, ...]
    adjacent: bool
    above: bool
    below: bool


class Plan(NamedTuple):
    """A compiled backtracking plan.  Positions index ``order``; per position,
    ``back`` lists the earlier positions adjacent to it, ``under`` the earlier
    positions whose host image must lie below its own and ``over`` those whose
    host image must lie above it.  ``tail`` is ``_tail`` of the three lists,
    so a plan changed by ``_replace`` must get a new one: the kernel counts
    the last position by popcount inside the loop over the second-to-last,
    and reads the last position's lists only when the prefix pins every
    position but the last."""

    order: tuple[int, ...]
    back: list[list[int]]
    under: Sequence[Sequence[int]]
    over: Sequence[Sequence[int]]
    tail: Tail


#: per vertex a in plan order: a and the rest of its orbit under the
#: automorphisms that fix every earlier vertex
Chain = tuple[tuple[int, tuple[int, ...]], ...]

#: the first prefix of every automorphism orbit of prefixes, with the orbit's size
Orbits = tuple[tuple[tuple[int, ...], int], ...]


class Pattern:
    """A small pattern graph plus its lazily compiled plans and symmetry data.

    Plans are compiled for the whole pattern and for the first member of
    every automorphism orbit of roots and of ordered edges, each once.
    Every count and every existence test runs their conditioned ``copy_*``
    forms.
    """

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
    def generators(self) -> list[list[int]]:
        """Automorphisms generating Aut(t), as image lists."""
        return _automorphism_generators(self.graph)

    @cached_property
    def vertex_orbits(self) -> list[int]:
        """Per vertex, the least vertex of its automorphism orbit."""
        return _orbits([(v,) for v in range(self.graph.n)], self.generators)

    @cached_property
    def root_orbits(self) -> Orbits:
        """The least root of every automorphism orbit, as a prefix, with the orbit's size."""
        return _firsts([(v,) for v in range(self.graph.n)], self.vertex_orbits)

    @cached_property
    def edge_orbits(self) -> Orbits:
        """The first ordered edge of every automorphism orbit, in the order
        (x, y), (y, x) for each edge xy of ``graph.edges()``, with the orbit's size."""
        t = self.graph
        prefixes = [p for x, y in t.edges() for p in ((x, y), (y, x))]
        return _firsts(prefixes, _orbits(prefixes, self.generators))

    @cached_property
    def chain(self) -> Chain:
        """The stabilizer chain along the order of ``plan``.  It tests the
        vertices of equal degree and equal neighbour degrees, which every
        automorphism preserves, rather than those of one ``vertex_orbits``
        class: so |Aut(t)| does not rest on the generators, and
        ``_copy_plans`` checks the generators' orbits against it."""
        t = self.graph
        degree = [row.bit_count() for row in t.adj]
        invariant = [(degree[v], sorted(degree[u] for u in _bits(t.adj[v]))) for v in range(t.n)]
        return _stabilizer_chain(t, self.plan, invariant)

    @cached_property
    def aut_count(self) -> int:
        """|Aut(t)|: the product of the chain's orbit sizes."""
        return prod(len(orbit) + 1 for _, orbit in self.chain)

    @cached_property
    def copy_plan(self) -> Plan:
        """``plan`` keeping one embedding per copy."""
        return _conditioned(self.plan, _condition_pairs(self.chain))

    @cached_property
    def copy_root_plans(self) -> tuple[Plan, ...]:
        """The plan from the least root of every automorphism orbit, each
        keeping one embedding per copy through the host vertex its root is
        pinned to."""
        return self._copy_plans(self.root_orbits)

    @cached_property
    def copy_edge_plans(self) -> tuple[Plan, ...]:
        """The plan from the first ordered edge of every automorphism orbit,
        each keeping one embedding per copy that sends its ordered edge onto
        the host edge it is pinned to."""
        return self._copy_plans(self.edge_orbits)

    def _copy_plans(self, orbits: Orbits) -> tuple[Plan, ...]:
        """The plan from the first prefix of every orbit O in ``orbits``,
        conditioned by the chain of the pointwise stabilizer S_O of that prefix.

        The embeddings onto one copy that send the prefix to the pinned host
        vertices form one coset of S_O, and the conditions keep one embedding
        of each coset.  |S_O| = |Aut(t)| / |O| (orbit-stabilizer), so the
        chain stops once its orbit sizes multiply to |S_O|, and a plan whose
        S_O is trivial needs none.  Generators missing an automorphism would
        split an orbit: its size would not divide |Aut(t)|, or the chain,
        which tests one orbit only, would end short of |S_O|.  Both raise
        ``InternalCheckError``.
        """
        out = []
        for prefix, size in orbits:
            stabilizer, rest = divmod(self.aut_count, size)
            if rest:
                raise InternalCheckError("an orbit size does not divide |Aut|")
            plan = _plan(self.graph, prefix)
            if stabilizer > 1:
                chain = _stabilizer_chain(
                    self.graph, plan, self.vertex_orbits, len(prefix), stabilizer
                )
                plan = _conditioned(plan, _condition_pairs(chain))
            out.append(plan)
        return tuple(out)

    def __repr__(self) -> str:
        return f"Pattern({self.graph!r})"


def as_pattern(obj: Graph | Pattern) -> Pattern:
    """``obj`` if it is a Pattern, else the one Pattern that every call with
    an equal graph shares: Graphs are immutable and compare by value."""
    return obj if isinstance(obj, Pattern) else _compiled(obj)


@lru_cache(maxsize=_PATTERN_MEMO)
def _compiled(graph: Graph) -> Pattern:
    # lru_cache keeps no error, so a graph Pattern rejects raises on every call
    return Pattern(graph)


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
    empty = [()] * n
    return Plan(tuple(order), back, empty, empty, _tail(back, empty, empty))


def _tail(
    back: Sequence[Sequence[int]], under: Sequence[Sequence[int]], over: Sequence[Sequence[int]]
) -> Tail:
    """Split the last position's lists into the part fixed before the
    second-to-last position is placed and flags for that position."""
    last, penult = len(back) - 1, len(back) - 2
    rows = back[last], under[last], over[last]
    tback, tunder, tover = (tuple(j for j in row if j != penult) for row in rows)
    return Tail(tback, tunder, tover, *(penult in row for row in rows))


def _orbits(prefixes: list[tuple[int, ...]], generators: list[list[int]]) -> list[int]:
    """Per prefix, the index of the first prefix in its orbit under the group
    that ``generators`` generate; ``prefixes`` must be closed under it.

    Union-find joins each prefix with its image under every generator, keeping
    the least index as the root.
    """
    index = {p: i for i, p in enumerate(prefixes)}
    parent = list(range(len(prefixes)))
    for gamma in generators:
        for i, p in enumerate(prefixes):
            a, b = _find(parent, i), _find(parent, index[tuple(gamma[v] for v in p)])
            if a != b:
                parent[max(a, b)] = min(a, b)
    return [_find(parent, i) for i in range(len(prefixes))]


def _firsts(prefixes: list[tuple[int, ...]], orbits: list[int]) -> Orbits:
    """The first of ``prefixes`` in every orbit, by ``_orbits``, with the orbit's size."""
    sizes = Counter(orbits)
    return tuple((p, sizes[i]) for i, p in enumerate(prefixes) if orbits[i] == i)


def _stabilizer_chain(
    t: Graph, plan: Plan, orbit_of: Sequence[object], start: int = 0, stabilizer: int = 0
) -> Chain:
    """For each position i >= ``start`` of ``plan`` (a plan of t without
    conditions), its vertex a and every later vertex that an automorphism of t
    fixing the vertices before a sends a to.

    An embedding of t into itself is an automorphism, so each orbit member is
    one pinned existence test, with Aut(t) never listed.  Only the later
    vertices b with ``orbit_of[b] == orbit_of[a]`` are tested, so ``orbit_of``
    must label the vertices of each automorphism orbit alike.  With
    ``stabilizer`` > 0, the order of the automorphisms fixing the vertices
    before ``start``, the chain stops once its orbit sizes multiply to
    ``stabilizer``: the automorphisms fixing the vertices placed so far are
    then the identity alone, and every later orbit is trivial.  A chain that
    ends short of ``stabilizer`` raises ``InternalCheckError``.
    """
    chain = []
    reached = 1
    order = plan.order
    for i in range(start, len(order)):
        if reached == stabilizer:
            break
        a = order[i]
        orbit = tuple(
            b
            for b in order[i + 1 :]
            if orbit_of[b] == orbit_of[a] and _embed(t, plan, order[:i] + (b,), limit=1)
        )
        chain.append((a, orbit))
        reached *= len(orbit) + 1
    if stabilizer and reached != stabilizer:
        raise InternalCheckError("a stabilizer chain does not reach its stabilizer's order")
    return tuple(chain)


def _condition_pairs(chain: Chain) -> list[tuple[int, int]]:
    """The order conditions of ``chain``: f(a) < f(b) for every other member b
    of the orbit of a, less those the rest imply (f(a) < f(b) < f(c) gives
    f(a) < f(c)), which the kernel would only check again.  A vertex past the
    end of a stopped chain has a trivial orbit and implies nothing."""
    above: dict[int, set[int]] = {}  # vertex -> the vertices that must map above it
    pairs: list[tuple[int, int]] = []
    for a, orbit in reversed(chain):
        implied = set().union(*(above.get(b, ()) for b in orbit))
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
    return plan._replace(under=under, over=over, tail=_tail(plan.back, under, over))


def _embed(g: Graph, plan: Plan, pinned: tuple[int, ...] = (), limit: int = 0) -> int:
    """Count injective edge-preserving maps along ``plan`` into g that meet its
    order conditions and send its first positions to the host vertices ``pinned``.

    The last position is counted, not placed: at the second-to-last position
    its candidates from ``plan.tail``'s lists are intersected once, and each
    candidate x there adds the popcount of that set less x, cut by N(x) and
    by x's order when the tail's flags say so.  When ``pinned`` fixes every
    position but the last, the last position's candidates are counted
    directly and ``rec`` never runs.

    With ``limit`` > 0 the search stops once it has found at least ``limit``
    maps and returns a count of at least ``limit``.
    """
    _, back, under, over, tail = plan
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
    if npin == last:
        cand = avail
        for j in back[last]:
            cand &= image[j]
        for j in under[last]:
            cand &= -(bit[j] << 1)
        for j in over[last]:
            cand &= bit[j] - 1
        return cand.bit_count()
    penult = n - 2
    tback, tunder, tover, adjacent, above, below = tail
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
        total = 0
        if i == penult:
            # the last position's candidates that do not depend on x
            base = avail
            for j in tback:
                base &= image[j]
            for j in tunder:
                base &= -(bit[j] << 1)
            for j in tover:
                base &= bit[j] - 1
            if not base:
                return 0
            if adjacent and not (above or below):
                # the commonest tail, in a loop of its own: N(x) holds no x
                while cand:
                    low = cand & -cand
                    cand ^= low
                    total += (base & gadj[low.bit_length() - 1]).bit_count()
                    if total >= stop:
                        break
                return total
            while cand:
                low = cand & -cand
                cand ^= low
                last_cand = base & ~low
                if adjacent:
                    last_cand &= gadj[low.bit_length() - 1]
                if above:
                    last_cand &= -(low << 1)
                if below:
                    last_cand &= low - 1
                total += last_cand.bit_count()
                if total >= stop:
                    break
            return total
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
    return _embed(g, as_pattern(t).copy_plan, limit=1) > 0


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
    return _through_vertex(g, v, as_pattern(t).copy_root_plans, 1) > 0


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
    return _through_edge(g, u, v, as_pattern(t).copy_edge_plans, 1) > 0


# ---------------------------------------------------------------------------
# critical masks: the freeness filter of the exhaustive search


def _neighbour_images(g: Graph, plan: Plan, found: set[int]) -> None:
    """Add to ``found`` every host set onto which some embedding of t - v maps N(v).

    ``plan`` is a copy root plan of t from v.  Its conditions keep one
    embedding per coset of the automorphisms fixing v, which act on t - v
    and keep N(v) in place, so the kept embeddings find every neighbour
    image.  Position 0 is v, the new vertex outside the host, so its image
    row holds every host vertex and the search starts at position 1.  Past
    the last neighbour of v in the plan only existence matters, so the
    search stops at the first completion, and skips a placement whose mask
    is already known.
    """
    _, back, under, over, _ = plan
    n = len(back)
    # per position, whether it is a neighbour of v; then the position just
    # past the last such neighbour
    sees = [0 in row for row in back]
    split = max((i + 1 for i, s in enumerate(sees) if s), default=1)
    gadj = g.adj
    full = (1 << g.n) - 1
    image = [full] + [0] * (n - 1)
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

    rec(1, full, 0)


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
        for plan in pat.copy_root_plans:
            _neighbour_images(g, plan, found)
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
