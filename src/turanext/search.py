"""Exact and heuristic maximization of pattern counts over forbidden-free hosts.

The exhaustive route enumerates, level by level, one representative per
isomorphism class of the graphs avoiding the forbidden patterns: each
k-vertex representative is extended by a new vertex with every possible
neighborhood, children that pick up a forbidden copy (necessarily through
the new vertex) are rejected, and the rest are deduplicated by canonical
form.  The rejection test is one pass per parent: ``critical_masks`` lists
the minimal parent vertex sets onto which some embedding of H - v maps the
neighbours of v, and a neighborhood is rejected exactly when it contains
one of them (for H = K_m these are the (m-1)-cliques).  Freeness is
hereditary, so deleting the last vertex of any free (k+1)-vertex graph
lands back in the level-k class list and the enumeration is complete.
Masks in one orbit of the parent's automorphism group give isomorphic
children, so each parent is extended only by the least mask of each orbit,
the first step of McKay's canonical augmentation ("Isomorph-free exhaustive
generation", J. Algorithms 26, 1998).  That roughly halves the canonical
labelings.  A class is represented by its canonical graph, decoded once
from the canonical form that deduplicated it, so a class list depends only
on the forbidden set and not on the order the children are generated in.
Class lists are cached per forbidden set, so scans that vary the counted
pattern or n reuse the expensive part.

The other two routes trade exhaustiveness for reach: an exact scan over
complete multipartite hosts (closed-form counts, any n), and plain
hill-climbing with restarts for lower-bound hunting up to 64 vertices.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator

from .closedform import Composition, Params, multipartite_pattern_count
from .counting import (
    Pattern,
    as_pattern,
    contains_subgraph,
    copies_through_edge,
    count_copies,
    critical_masks,
    exists_embedding_through_edge,
)
# unused here, but the benchmark's tracer wraps these names on this module
from .counting import (  # noqa: F401
    clique_masks,
    embeddings_through_edge,
    exists_embedding_through_vertex,
)
from .errors import InternalCheckError, SearchCapError
from .graphs import (
    Graph,
    _automorphism_generators,
    _graph_of_form,
    canonical_form,
    canonical_graph,
    chromatic_number,
    empty_graph,
    relabel,
    turan_graph,
)

_LEVEL_MASK_CAP = 700_000
_MULTIPARTITE_CAP = 10**7


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the search routes.

    No library routine reads ``mode``: the CLI picks the route from its own
    parameter.  It stays because the benchmark's worker passes it.
    """

    mode: str = "exhaustive"
    seed: int = 0
    iterations: int = 20
    workers: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("exhaustive", "multipartite", "local"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        if self.iterations < 1:
            raise ValueError("need iterations >= 1")
        if self.workers < 1:
            raise ValueError("need workers >= 1")


@dataclass(frozen=True)
class ExtremalResult:
    """Outcome of a count-maximization run, with re-verified witnesses."""

    n: int
    best: int
    witnesses: tuple[Graph, ...]
    exhaustive: bool
    unique_up_to_iso: bool


# ---------------------------------------------------------------------------
# isomorph-free enumeration of forbidden-free graphs

#: forbidden-set canonical forms -> per-level class representatives
_CLASS_CACHE: dict[tuple[bytes, ...], list[list[Graph]]] = {}


def _extend_one(parent: Graph, pats: list[Pattern]) -> list[bytes]:
    """Canonical forms of the free extensions of one parent, one per
    Aut(parent)-orbit of masks, in mask order.

    The new vertex k joins the parent vertices in ``mask``.  Since the parent
    is free, any forbidden copy in the child runs through k, so the child is
    free if and only if ``mask`` contains none of the parent's critical masks.

    An automorphism of the parent maps its critical masks onto critical
    masks, so an orbit of masks is free or not as a whole, and it maps the
    child of a mask onto the child of the image, which has the same
    canonical form.  Only the least mask of each orbit is kept, so the set
    of forms is that of every mask.  The masks are walked in ascending
    order, and the first unseen one marks its orbit through one image table
    per generator, built in O(1) per mask.  Any set of automorphisms keeps
    this sound; a generating set prunes every duplicate orbit.
    """
    k = parent.n
    critical = [c for p in pats for c in critical_masks(parent, p)]
    tables = []
    for gamma in _automorphism_generators(parent):
        image = [0] * (1 << k)
        for m in range(1, 1 << k):
            low = m & -m
            image[m] = image[m ^ low] | 1 << gamma[low.bit_length() - 1]
        tables.append(image)
    seen = bytearray(1 << k)
    out = []
    rows = parent.adj
    bit = 1 << k
    for mask in range(1 << k):
        if seen[mask]:
            continue
        seen[mask] = 1
        stack = [mask]
        while stack:
            m = stack.pop()
            for image in tables:
                m2 = image[m]
                if not seen[m2]:
                    seen[m2] = 1
                    stack.append(m2)
        if any(c & mask == c for c in critical):
            continue
        child = [*rows, mask]
        m = mask
        while m:
            low = m & -m
            child[low.bit_length() - 1] |= bit
            m ^= low
        out.append(canonical_form(Graph._trusted(k + 1, tuple(child))))
    return out


def free_graph_classes(
    n: int, forbidden: list[Graph | Pattern], workers: int = 1
) -> list[list[Graph]]:
    """Class representatives of the forbidden-free graphs, per vertex count 0..n.

    Returns a list of n+1 levels; level k holds exactly one representative of
    every isomorphism class of k-vertex graphs containing no forbidden
    pattern, in ascending canonical form.  The representative of a class is
    its canonical graph, decoded from the form.  Results are cached per
    forbidden set and extended on demand; each call gets its own level
    lists, so a caller's edits do not reach the cache.  Levels with at least
    4 parents per worker share one pool of ``workers`` processes.  This sets
    every exhaustive caller's reach: level k, whose extension tries
    ``len(parents) << k`` masks, is refused with ``SearchCapError`` before it
    is extended when that exceeds ``_LEVEL_MASK_CAP``, so the cache holds only
    complete levels, and a cached level is never refused.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if workers < 1:
        raise ValueError("need workers >= 1")
    pats = [as_pattern(f) for f in forbidden]
    if not pats:
        raise ValueError("need at least one forbidden pattern")
    key = tuple(sorted(canonical_form(p.graph) for p in pats))
    levels = _CLASS_CACHE.setdefault(key, [[empty_graph(0)]])

    pool = None
    try:
        while len(levels) <= n:
            parents = levels[-1]
            masks = len(parents) << (len(levels) - 1)
            if masks > _LEVEL_MASK_CAP:
                raise SearchCapError(
                    f"extending level {len(levels) - 1} would try {masks} "
                    f"neighbourhood masks, more than {_LEVEL_MASK_CAP}"
                )
            if workers > 1 and len(parents) >= 4 * workers:
                pool = pool or ProcessPoolExecutor(max_workers=workers)
                chunk = -(-len(parents) // (4 * workers))
                batches = list(pool.map(_extend_one, parents, repeat(pats), chunksize=chunk))
            else:
                batches = [_extend_one(parent, pats) for parent in parents]
            forms = sorted(set().union(*batches))
            levels.append([_graph_of_form(form) for form in forms])
    finally:
        if pool is not None:
            pool.shutdown()
    return [list(level) for level in levels[: n + 1]]


def _require_free_hosts(n: int, h: Pattern) -> None:
    """Raise ``ValueError`` unless some n-vertex graph is h-free: an edgeless
    h on at most n vertices lies in every n-vertex graph."""
    if h.graph.edge_count() == 0 and h.graph.n <= n:
        raise ValueError(
            f"H has no edges and at most {n} vertices, so every {n}-vertex graph contains it"
        )


def extremal_exact(
    n: int,
    t: Graph | Pattern,
    h: Graph | Pattern,
    cfg: SearchConfig | None = None,
) -> ExtremalResult:
    """Exhaustive maximum of copies of t over all h-free n-vertex graphs.

    Enumerates every isomorphism class of h-free graphs on n vertices and
    counts exactly, as far as ``free_graph_classes`` reaches.  The witnesses
    are the level graphs that attain the maximum, so they are canonical
    graphs, one per class, in ascending canonical form; each is re-checked
    (h-free, attains the maximum) before returning.
    """
    tp, hp = as_pattern(t), as_pattern(h)
    _require_free_hosts(n, hp)
    workers = cfg.workers if cfg is not None else 1
    level = free_graph_classes(n, [hp], workers=workers)[n]
    best = -1
    witnesses: list[Graph] = []
    for g in level:
        c = count_copies(g, tp)
        if c > best:
            best, witnesses = c, [g]
        elif c == best:
            witnesses.append(g)
    for w in witnesses:
        if contains_subgraph(w, hp) or count_copies(w, tp) != best:
            raise InternalCheckError("extremal witness failed re-verification")
    return ExtremalResult(
        n=n,
        best=best,
        witnesses=tuple(witnesses),
        exhaustive=True,
        unique_up_to_iso=len(witnesses) == 1,
    )


# ---------------------------------------------------------------------------
# exact optimization over complete multipartite hosts


def _nondecreasing_compositions(n: int, parts: int) -> Iterator[Composition]:
    """Nondecreasing compositions of n >= parts >= 1 into ``parts`` parts
    >= 1, in lexicographic order.  Each step raises the rightmost part that
    can grow, levels the parts after it up to it, and gives the rest of n to
    the last part."""
    comp = [1] * parts
    comp[-1] = n - parts + 1
    while True:
        yield tuple(comp)
        tail = comp[-1]  # sum of comp[i:] as i moves left
        for i in range(parts - 2, -1, -1):
            tail += comp[i]
            x = comp[i] + 1
            if x * (parts - i) <= tail:
                comp[i:-1] = [x] * (parts - 1 - i)
                comp[-1] = tail - x * (parts - 1 - i)
                break
        else:
            return


def extremal_multipartite(n: int, p: Params) -> tuple[Composition, int, bool]:
    """Exact argmax of the pattern count over complete r-partite hosts on n vertices.

    Scans nondecreasing compositions of n into r parts >= 1 (one per host up
    to isomorphism); ties are resolved toward the lexicographically smallest
    composition, and ``unique`` reports whether the argmax was a single host.
    Each composition costs O(r), so the scan raises ``SearchCapError`` before
    the one that would take its part visits, compositions times r, past
    ``_MULTIPARTITE_CAP``.
    """
    if n < p.r:
        raise ValueError(f"need n >= {p.r} to form {p.r} nonempty parts")
    best = -1
    arg: list[Composition] = []
    for scanned, comp in enumerate(_nondecreasing_compositions(n, p.r), 1):
        if scanned * p.r > _MULTIPARTITE_CAP:
            raise SearchCapError(
                f"scanning more than {scanned - 1} nondecreasing compositions of {n} "
                f"into {p.r} parts would visit more than {_MULTIPARTITE_CAP} parts"
            )
        value = multipartite_pattern_count(comp, p)
        if value > best:
            best, arg = value, [comp]
        elif value == best:
            arg.append(comp)
    return min(arg), best, len(arg) == 1


# ---------------------------------------------------------------------------
# hill-climbing lower bounds


def _random_multipartite_seed(n: int, h: Pattern, rng: random.Random) -> Graph:
    r = max(1, chromatic_number(h.graph) - 1)
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(turan_graph(n, r), perm)


def _random_free_seed(n: int, h: Pattern, rng: random.Random) -> Graph:
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(slots)
    return _grow_free(n, [h], slots)


def _toggle(g: Graph, u: int, v: int) -> Graph:
    rows = list(g.adj)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return Graph._trusted(g.n, tuple(rows))


def _grow_free(n: int, patterns: list[Graph | Pattern], slots: list[tuple[int, int]]) -> Graph:
    """Add the edges of the distinct vertex pairs ``slots`` in turn to the
    empty graph, skipping each one that some pattern has a copy through."""
    g = empty_graph(n)
    for u, v in slots:
        cand = _toggle(g, u, v)
        for p in patterns:
            if exists_embedding_through_edge(cand, u, v, p):
                break
        else:
            g = cand
    return g


def _climb(
    g: Graph, t: Pattern, h: Pattern, rng: random.Random, plateau_budget: int
) -> Graph:
    n = g.n
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    plateau = plateau_budget
    steps = 0
    max_steps = 8 * n * n
    while steps < max_steps:
        steps += 1
        rng.shuffle(slots)
        zero_moves: list[Graph] = []
        advanced = False
        for u, v in slots:
            if (g.adj[u] >> v) & 1:  # slots are in range: skip has_edge's checks
                delta = -copies_through_edge(g, u, v, t)
                cand = _toggle(g, u, v)
            else:
                cand = _toggle(g, u, v)
                if exists_embedding_through_edge(cand, u, v, h):
                    continue
                delta = copies_through_edge(cand, u, v, t)
            if delta > 0:
                g = cand
                advanced = True
                break
            if delta == 0:
                zero_moves.append(cand)
        if advanced:
            continue
        if zero_moves and plateau > 0:
            plateau -= 1
            g = rng.choice(zero_moves)
            continue
        break
    return g


def extremal_local_search(
    n: int,
    t: Graph | Pattern,
    h: Graph | Pattern,
    cfg: SearchConfig | None = None,
) -> ExtremalResult:
    """Heuristic maximization by edge toggles with restarts; never exhaustive.

    Restarts alternate between shuffled balanced multipartite seeds (always
    h-free) and randomized greedy maximal h-free seeds.  Additions that would
    create an h-copy are rejected, so every visited graph stays h-free; the
    best graph over all restarts is re-verified before returning.
    """
    if not 0 <= n <= 64:
        raise ValueError("need 0 <= n <= 64")
    cfg = cfg if cfg is not None else SearchConfig(mode="local")
    tp, hp = as_pattern(t), as_pattern(h)
    _require_free_hosts(n, hp)
    rng = random.Random(cfg.seed)
    best_graph: Graph | None = None
    best = -1
    for it in range(cfg.iterations):
        if it % 2 == 0:
            g = _random_multipartite_seed(n, hp, rng)
        else:
            g = _random_free_seed(n, hp, rng)
        g = _climb(g, tp, hp, rng, plateau_budget=2 * n)
        score = count_copies(g, tp)
        if score > best:
            best, best_graph = score, g
    assert best_graph is not None
    witness = canonical_graph(best_graph)
    if contains_subgraph(witness, hp) or count_copies(witness, tp) != best:
        raise InternalCheckError("local-search witness failed re-verification")
    return ExtremalResult(
        n=n,
        best=best,
        witnesses=(witness,),
        exhaustive=False,
        unique_up_to_iso=False,
    )
