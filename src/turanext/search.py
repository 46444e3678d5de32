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
    canonical_form,
    canonical_graph,
    chromatic_number,
    empty_graph,
    relabel,
    turan_graph,
)

_EXACT_CAP = 8
_EXACT_CAP_DENSE = 9


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


def _extend_one(parent: Graph, pats: list[Pattern]) -> list[tuple[bytes, Graph]]:
    """All free extensions of one parent, in mask order; (form, child).

    The new vertex k joins the parent vertices in ``mask``.  Since the parent
    is free, any forbidden copy in the child runs through k, so the child is
    free if and only if ``mask`` contains none of the parent's critical masks.
    """
    k = parent.n
    critical = [c for p in pats for c in critical_masks(parent, p)]
    out = []
    rows = parent.adj
    for mask in range(1 << k):
        if any(c & mask == c for c in critical):
            continue
        grown = tuple(
            row | (1 << k) if (mask >> v) & 1 else row for v, row in enumerate(rows)
        )
        child = Graph._trusted(k + 1, grown + (mask,))
        out.append((canonical_form(child), child))
    return out


def free_graph_classes(
    n: int, forbidden: list[Graph | Pattern], workers: int = 1
) -> list[list[Graph]]:
    """Class representatives of the forbidden-free graphs, per vertex count 0..n.

    Returns a list of n+1 levels; level k holds exactly one representative of
    every isomorphism class of k-vertex graphs containing no forbidden
    pattern, in ascending canonical form.  The representative of a class is
    the first child generated in (parent, mask) order.  Results are cached
    per forbidden set and extended on demand.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    pats = [as_pattern(f) for f in forbidden]
    if not pats:
        raise ValueError("need at least one forbidden pattern")
    key = tuple(sorted(canonical_form(p.graph) for p in pats))
    levels = _CLASS_CACHE.setdefault(key, [[empty_graph(0)]])

    while len(levels) <= n:
        parents = levels[-1]
        if workers > 1 and len(parents) >= 4 * workers:
            chunk = -(-len(parents) // (4 * workers))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                batches = list(
                    pool.map(_extend_one, parents, repeat(pats), chunksize=chunk)
                )
        else:
            batches = [_extend_one(parent, pats) for parent in parents]
        chosen: dict[bytes, Graph] = {}
        for batch in batches:
            for form, child in batch:
                chosen.setdefault(form, child)
        levels.append([chosen[form] for form in sorted(chosen)])
    return levels[: n + 1]


def _exact_cap(h: Pattern) -> int:
    """Dense forbidden patterns prune hard enough to afford one more level."""
    g = h.graph
    if g.n <= 3 and g.edge_count() == g.n * (g.n - 1) // 2:
        return _EXACT_CAP_DENSE
    return _EXACT_CAP


def extremal_exact(
    n: int,
    t: Graph | Pattern,
    h: Graph | Pattern,
    cfg: SearchConfig | None = None,
) -> ExtremalResult:
    """Exhaustive maximum of copies of t over all h-free n-vertex graphs.

    Enumerates every isomorphism class of h-free graphs on n vertices and
    counts exactly; witnesses are returned canonically labeled and deduped,
    and each is re-checked (h-free, attains the maximum) before returning.
    """
    tp, hp = as_pattern(t), as_pattern(h)
    cap = _exact_cap(hp)
    if n > cap:
        raise SearchCapError(
            f"exhaustive search is capped at n = {cap} for this forbidden pattern"
        )
    if n < 0:
        raise ValueError("need n >= 0")
    workers = cfg.workers if cfg is not None else 1
    level = free_graph_classes(n, [hp], workers=workers)[n]
    best = -1
    arg: list[Graph] = []
    for g in level:
        c = count_copies(g, tp)
        if c > best:
            best, arg = c, [g]
        elif c == best:
            arg.append(g)
    # the level is in ascending canonical form, so the witnesses are too
    witnesses = tuple(canonical_graph(g) for g in arg)
    for w in witnesses:
        if contains_subgraph(w, hp) or count_copies(w, tp) != best:
            raise InternalCheckError("extremal witness failed re-verification")
    return ExtremalResult(
        n=n,
        best=best,
        witnesses=witnesses,
        exhaustive=True,
        unique_up_to_iso=len(witnesses) == 1,
    )


# ---------------------------------------------------------------------------
# exact optimization over complete multipartite hosts


def _nondecreasing_compositions(n: int, parts: int, lo: int) -> list[Composition]:
    if parts == 1:
        return [(n,)] if n >= lo else []
    out = []
    for x in range(lo, n // parts + 1):
        out.extend((x, *rest) for rest in _nondecreasing_compositions(n - x, parts - 1, x))
    return out


def extremal_multipartite(n: int, p: Params) -> tuple[Composition, int, bool]:
    """Exact argmax of the pattern count over complete r-partite hosts on n vertices.

    Scans nondecreasing compositions of n into r parts >= 1 (one per host up
    to isomorphism); ties are resolved toward the lexicographically smallest
    composition, and ``unique`` reports whether the argmax was a single host.
    """
    if n < p.r:
        raise ValueError(f"need n >= {p.r} to form {p.r} nonempty parts")
    best = -1
    arg: list[Composition] = []
    for comp in _nondecreasing_compositions(n, p.r, 1):
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
    g = empty_graph(n)
    for u, v in slots:
        cand = _toggle(g, u, v)
        if not exists_embedding_through_edge(cand, u, v, h):
            g = cand
    return g


def _toggle(g: Graph, u: int, v: int) -> Graph:
    rows = list(g.adj)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return Graph._trusted(g.n, tuple(rows))


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
