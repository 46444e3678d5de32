"""Decomposition families and the bipartite excess numbers they define.

For a graph H with chromatic number r + 1 >= 3, the *decomposition family*
collects the bipartite graphs induced on two color classes of a proper
(r+1)-coloring of H.  The excess number biex(n, H) is the maximum number of
edges of an n-vertex graph containing no family member; it measures how much
can be packed into one part of a Turan graph without creating a copy of H,
which drives the lower-bound construction at the end of this module.

Containment convention: members are stored with their isolated vertices, but
a host contains a member iff the member's non-isolated core embeds into the
host *and* the host has at least as many vertices as the full member.  The
two readings agree whenever the host has at least |V(H)| vertices.  So an
n-vertex host is family-free iff it avoids ``_cores(family, n)``, the
stripped minimal members on at most n vertices; ``biex``, ``is_family_free``
and the construction's greedy overlay all test against those cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import search
from .counting import contains_subgraph, count_cliques, exists_embedding_through_edge
from .errors import InternalCheckError, SearchCapError
from .graphs import (
    Graph,
    _bits,
    canonical_form,
    chromatic_number,
    complete_graph,
    graph_from_edges,
    proper_partitions,
    strip_isolated,
    subgraph,
    turan_graph,
)

_FAMILY_CAP = 14
_CONSTRUCTION_CAP = 40


def min_color_class_size(h: Graph) -> int:
    """Smallest color-class size achievable in a proper coloring with chi(h) classes."""
    if h.n > _FAMILY_CAP:
        raise SearchCapError(f"graphs are capped at {_FAMILY_CAP} vertices here")
    if h.n == 0:
        raise ValueError("need at least one vertex")
    k = chromatic_number(h)
    return min(min(c.bit_count() for c in p) for p in proper_partitions(h, k))


@dataclass(frozen=True)
class DecompositionFamily:
    """Bipartite residues of a graph after deleting all but two color classes."""

    r: int
    members: tuple[Graph, ...]
    minimal_members: tuple[Graph, ...]


def _contains_member(host: Graph, member: Graph) -> bool:
    """Host contains the member under the core-plus-vertex-count convention."""
    return host.n >= member.n and contains_subgraph(host, strip_isolated(member))


def decomposition_family(h: Graph) -> DecompositionFamily:
    """All two-class induced subgraphs over proper (chi)-colorings of h.

    A member is the graph induced on the union of two color classes, so it is
    read off once per distinct class-pair vertex set, in first-seen order.
    Members keep vertices that end up isolated; deduplication is up to
    isomorphism.  Minimal members are those containing no other member.
    """
    if h.n > _FAMILY_CAP:
        raise SearchCapError(f"graphs are capped at {_FAMILY_CAP} vertices here")
    chi = chromatic_number(h)
    if chi < 3:
        raise ValueError(f"need chromatic number >= 3, got {chi}")
    pair_sets = dict.fromkeys(
        a | b for p in proper_partitions(h, chi) for a, b in combinations(p, 2)
    )
    seen: dict[bytes, Graph] = {}
    for mask in pair_sets:
        member = subgraph(h, _bits(mask))
        if member.edge_count() == 0:
            raise InternalCheckError("two color classes with no cross edges would merge")
        seen.setdefault(canonical_form(member), member)
    order = sorted(seen, key=lambda form: (seen[form].n, seen[form].edge_count(), form))
    members = tuple(seen[form] for form in order)
    minimal = tuple(
        a for a in members if not any(b is not a and _contains_member(a, b) for b in members)
    )
    return DecompositionFamily(r=chi - 1, members=members, minimal_members=minimal)


def _cores(fam: DecompositionFamily, n: int) -> list[Graph]:
    """An n-vertex host is family-free iff it contains none of these: the
    minimal members on at most n vertices, stripped of isolated vertices."""
    return [strip_isolated(m) for m in fam.minimal_members if m.n <= n]


def is_family_free(g: Graph, family: DecompositionFamily) -> bool:
    """True iff g contains no member (minimal members suffice by transitivity)."""
    return not any(contains_subgraph(g, core) for core in _cores(family, g.n))


@dataclass(frozen=True)
class BiexResult:
    """Exact family-free edge maximum with a witness graph."""

    n: int
    value: int
    witness: Graph
    exhaustive: bool


def biex(n: int, h: Graph) -> BiexResult:
    """Maximum edges of an n-vertex graph containing no decomposition-family member.

    Exhaustive search over the classes of graphs free of the minimal members'
    cores, exact as far as ``free_graph_classes`` reaches.  The witness is the
    canonical graph of the largest canonical form with the top edge count.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    fam = decomposition_family(h)
    cores = _cores(fam, n)
    if not cores:
        witness = complete_graph(n)
    else:
        # the level ascends by canonical form and max keeps the first maximum it meets
        witness = max(reversed(search.free_graph_classes(n, cores)[n]), key=Graph.edge_count)
    if not is_family_free(witness, fam):
        raise InternalCheckError("excess witness fails the family-freeness recheck")
    return BiexResult(n=n, value=witness.edge_count(), witness=witness, exhaustive=True)


def is_edge_critical(h: Graph) -> bool:
    """True iff deleting some single edge lowers the chromatic number."""
    if h.n > _FAMILY_CAP:
        raise SearchCapError(f"graphs are capped at {_FAMILY_CAP} vertices here")
    edges = h.edges()
    if not edges:
        raise ValueError("edge-criticality is undefined for edgeless graphs")
    chi = chromatic_number(h)
    for u, v in edges:
        smaller = graph_from_edges(h.n, [e for e in edges if e != (u, v)])
        if chromatic_number(smaller) < chi:
            return True
    return False


def lower_bound_construction(n: int, h: Graph, m: int) -> tuple[Graph, int]:
    """Turan graph with a family-free bipartite overlay in its largest part.

    The overlay is grown greedily on part 0's top = ceil(n/r) vertices over
    the pairs [0, half) x [half, top), half = ceil(top/2), u-major; a pair is
    kept unless it completes a family core.  Returns the graph and its
    m-clique count.  The graph has no copy of h.  A copy meets part 0 only
    in overlay edges.  Colour the other parts by part and part 0 by overlay
    side: that properly (r+1)-colours it, every class nonempty as
    chi(h) = r + 1.  So its two part-0 classes induce a family member inside
    the overlay, which avoids every core.  The recheck tries copies through
    the overlay edges alone, and is exact: without them g is the r-colourable
    T_r(n), so every copy of h, with chi(h) = r + 1, uses an overlay edge.
    """
    if n > _CONSTRUCTION_CAP:
        raise SearchCapError(f"construction is capped at n = {_CONSTRUCTION_CAP}")
    fam = decomposition_family(h)
    r = fam.r
    if not (r + 1 > m >= 2):
        raise ValueError("need chromatic number of h greater than m >= 2")
    if n < r:
        raise ValueError("need n >= r for a spanning multipartite base")
    top = (n + r - 1) // r
    half = (top + 1) // 2
    slots = [(u, v) for u in range(half) for v in range(half, top)]
    overlay = search._grow_free(top, _cores(fam, n), slots)
    g = graph_from_edges(n, turan_graph(n, r).edges() + overlay.edges())
    if any(exists_embedding_through_edge(g, u, v, h) for u, v in overlay.edges()):
        raise InternalCheckError("overlay construction produced a forbidden copy")
    return g, count_cliques(g, m)
