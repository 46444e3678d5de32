"""Embedding/copy counters, clique counters, and the pinned variants."""

from __future__ import annotations

import math
import random
import signal
from contextlib import contextmanager
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brutes
from test_graphs import petersen
from turanext import counting, search
from turanext.counting import (
    Pattern,
    automorphism_count,
    clique_number,
    contains_any,
    contains_subgraph,
    copies_through_edge,
    count_cliques,
    count_copies,
    count_embeddings,
    critical_masks,
    embeddings_through_edge,
    embeddings_through_vertex,
    exists_embedding,
    exists_embedding_through_edge,
    exists_embedding_through_vertex,
    min_pattern_degree,
    pattern_degree,
)
from turanext.errors import InternalCheckError
from turanext.family import biex, lower_bound_construction
from turanext.graphs import (
    Graph,
    add_edge,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    empty_graph,
    graph_from_edges,
    is_isomorphic,
    path_graph,
    relabel,
    turan_graph,
)

# patterns chosen to cover automorphism-rich, path-like, and disconnected shapes
PATTERNS = {
    "K2": complete_graph(2),
    "P3": path_graph(3),
    "K3": complete_graph(3),
    "P4": path_graph(4),
    "C4": cycle_graph(4),
    "K4": complete_graph(4),
    "star3": complete_multipartite((1, 3)),
    "2K2": graph_from_edges(4, [(0, 1), (2, 3)]),
    "K2+iso": graph_from_edges(3, [(0, 1)]),
    # several orbits of roots and of ordered edges, some with a nontrivial
    # pointwise stabilizer, so a through-count runs conditioned pinned plans
    "diamond": graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    "paw": graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)]),
    "bull": graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)]),
    "house": graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4)]),
    # a triangle with a pendant edge at one corner and a pendant path of
    # length two at another: no automorphism but the identity
    "asym6": graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (1, 4), (0, 3), (3, 5)]),
    # no second-to-last plan position; two nonadjacent twins that an order
    # condition alone tells apart
    "K1": complete_graph(1),
    "E2": empty_graph(2),
}
# automorphism groups of order 10, 12, 48, 72, 72 and 120: each copy has that
# many embeddings, and the order conditions that keep one of them do the most
SYMMETRIC = {
    "C5": cycle_graph(5),
    "K23": complete_multipartite((2, 3)),
    "K222": complete_multipartite((2, 2, 2)),
    "K33": complete_multipartite((3, 3)),
    "2K3": graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
    "petersen": petersen(),
}
# one Pattern per name shared by every test, so its compiled plans are reused
# across hosts, limits and tests
SHARED = {name: Pattern(g) for name, g in PATTERNS.items()}


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_embeddings_and_copies_match_brute(name):
    pattern = PATTERNS[name]
    rng = random.Random(name)
    for _ in range(12):
        host = brutes.random_graph(rng, rng.randint(3, 6), rng.uniform(0.2, 0.8))
        embeddings = brutes.embeddings_brute(host, pattern)
        copies = brutes.copies_brute(host, pattern)
        for t in (pattern, SHARED[name]):
            assert count_embeddings(host, t) == embeddings
            assert count_copies(host, t) == copies
            assert exists_embedding(host, t) == (embeddings > 0)


def test_copies_known_values():
    assert count_copies(complete_multipartite((2, 2, 2)), cycle_graph(4)) == 15
    assert count_copies(turan_graph(6, 3), complete_graph(3)) == 8
    assert count_copies(complete_graph(5), complete_graph(3)) == 10
    assert count_copies(cycle_graph(5), path_graph(3)) == 5
    assert count_copies(empty_graph(4), complete_graph(2)) == 0


@pytest.mark.parametrize(
    "g,aut",
    [
        (path_graph(4), 2),
        (cycle_graph(4), 8),
        (cycle_graph(5), 10),
        (complete_graph(4), 24),
        (complete_multipartite((3, 3)), 72),
        (PATTERNS["2K2"], 8),
        (PATTERNS["star3"], 6),
    ],
)
def test_automorphism_counts(g, aut):
    assert automorphism_count(g) == aut


def test_petersen_counts():
    g = petersen()
    assert automorphism_count(g) == 120
    assert count_copies(g, complete_graph(3)) == 0
    assert count_copies(g, cycle_graph(5)) == 12
    assert clique_number(g) == 2


def test_pattern_validation():
    with pytest.raises(ValueError):
        Pattern(empty_graph(0))
    with pytest.raises(ValueError):
        Pattern(empty_graph(17))
    # the shared Patterns keep no error: a rejected graph raises on every call
    for _ in range(2):
        with pytest.raises(ValueError, match="capped"):
            counting.as_pattern(empty_graph(17))
    assert Pattern(complete_graph(3)).aut_count == 6


@pytest.mark.parametrize("n", range(1, 6))
def test_cliques_exhaustive_vs_brute(n):
    for g in brutes.all_graphs(n):
        assert clique_number(g) == brutes.clique_number_brute(g)
        for m in range(1, n + 1):
            assert count_cliques(g, m) == brutes.cliques_brute(g, m)


def test_clique_spot_values():
    assert count_cliques(complete_graph(8), 4) == 70
    assert clique_number(complete_graph(8)) == 8
    assert clique_number(turan_graph(9, 3)) == 3
    assert clique_number(empty_graph(3)) == 1
    assert clique_number(empty_graph(0)) == 0
    assert count_cliques(turan_graph(9, 3), 1) == 9


def test_through_vertex_sums_to_total():
    rng = random.Random(99)
    for name, pattern in sorted(PATTERNS.items()):
        host = brutes.random_graph(rng, 6, 0.5)
        total = count_embeddings(host, pattern)
        through = sum(
            embeddings_through_vertex(host, v, pattern) for v in range(host.n)
        )
        assert through == pattern.n * total, name


def test_through_edge_sums_to_total():
    rng = random.Random(7)
    for name, pattern in sorted(PATTERNS.items()):
        host = brutes.random_graph(rng, 6, 0.6)
        total = count_embeddings(host, pattern)
        through = sum(
            embeddings_through_edge(host, u, v, pattern) for u, v in host.edges()
        )
        assert through == len(pattern.edges()) * total, name


def _through_hosts(seed: str):
    """Every host on at most 4 vertices, then random hosts on 5 and 6."""
    for n in range(1, 5):
        yield from brutes.all_graphs(n)
    rng = random.Random(seed)
    for n in (5, 5, 6, 6):
        yield brutes.random_graph(rng, n, rng.uniform(0.3, 0.8))


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_through_vertex_and_edge_match_brute(name):
    pattern = PATTERNS[name]
    for host in _through_hosts(name):
        for v in range(host.n):
            brute = brutes.through_vertex_brute(host, v, pattern)
            for t in (pattern, SHARED[name]):
                assert embeddings_through_vertex(host, v, t) == brute
                assert exists_embedding_through_vertex(host, v, t) == (brute > 0)
        for u, v in host.edges():
            for a, b in ((u, v), (v, u)):
                brute = brutes.through_edge_brute(host, a, b, pattern)
                for t in (pattern, SHARED[name]):
                    assert embeddings_through_edge(host, a, b, t) == brute
                    assert exists_embedding_through_edge(host, a, b, t) == (brute > 0)


# the (adjacent, above, below) flags of the whole-pattern copy plan's tail:
# one pattern per way its last position can meet the second-to-last
TAILS = {
    "K1": (False, False, False),
    "K2": (True, True, False),
    "E2": (False, True, False),
    "P4": (False, False, False),
    "K23": (False, True, False),
    "C5": (True, False, False),
}


def _kept_images(host: Graph, plan: counting.Plan, t: Graph) -> list[tuple[int, ...]]:
    """The embeddings of t into host that meet the order conditions of
    ``plan``, by brute force, as the images of its positions in plan order."""
    out = []
    for image in brutes.embedding_images_brute(host, t):
        f = tuple(image[v] for v in plan.order)
        if all(f[j] < f[k] for k, row in enumerate(plan.under) for j in row) and all(
            f[j] > f[k] for k, row in enumerate(plan.over) for j in row
        ):
            out.append(f)
    return out


def _tail_hosts(seed: str):
    """The hosts of ``_through_hosts``, then dense ones on 5 and 6 vertices,
    where the 5-vertex patterns have many copies."""
    yield from _through_hosts(seed)
    yield from (complete_graph(5), complete_graph(6), complete_multipartite((3, 3)))
    rng = random.Random(seed)
    for n in (5, 6, 6):
        yield brutes.random_graph(rng, n, 0.8)


@pytest.mark.parametrize("name", sorted(TAILS))
def test_kernel_with_pinned_tails_matches_brute(name):
    """Every copy plan with all but its last two positions pinned, and with
    all but its last one pinned (the one case counted before the recursion),
    against the kept embeddings listed by brute force; with limits, the
    kernel stops at no fewer than the limit.  Counts and existence tests
    through the public functions run on these patterns in the tests above."""
    graph = {**PATTERNS, **SYMMETRIC}[name]
    pat = Pattern(graph)
    assert pat.copy_plan.tail[3:] == TAILS[name]
    plans = (pat.copy_plan,) + pat.copy_root_plans + pat.copy_edge_plans
    for host in _tail_hosts(name):
        for plan in plans:
            kept = _kept_images(host, plan, graph)
            for depth in sorted({max(graph.n - 2, 0), graph.n - 1}):
                for pinned in permutations(range(host.n), depth):
                    want = sum(f[:depth] == pinned for f in kept)
                    assert counting._embed(host, plan, pinned) == want
                    for limit in (1, 2):
                        got = counting._embed(host, plan, pinned, limit)
                        assert min(got, limit) == min(want, limit)


def test_plans_carry_their_tail():
    """Every plan a Pattern compiles carries the split of its own last
    position, so no plan changed by ``_replace`` keeps a stale one."""
    for graph in (*PATTERNS.values(), *SYMMETRIC.values()):
        pat = Pattern(graph)
        for plan in (pat.plan, pat.copy_plan, *pat.copy_root_plans, *pat.copy_edge_plans):
            assert plan.tail == counting._tail(plan.back, plan.under, plan.over)


def test_pattern_compiles_each_plan_once(monkeypatch):
    """Kernel calls on one Pattern compile each plan and each stabilizer chain
    once, and nothing on later calls.  The plans are the whole pattern's and
    those from the first root and the first ordered edge of each automorphism
    orbit: 1 + 1 + 1 for C5, 1 + 3 + 5 for the paw.  The chains are the whole
    pattern's and one per orbit whose prefix has a nontrivial pointwise
    stabilizer: C5's root; the paw's two roots of degree 3 and 1, and its
    pendant edge in both directions.  Existence tests and the critical masks
    run the same conditioned plans, and the automorphism count comes with
    them."""
    prefixes = []
    starts = []
    compile_plan = counting._plan
    compile_chain = counting._stabilizer_chain

    def counted_plan(t, prefix=()):
        prefixes.append(prefix)
        return compile_plan(t, prefix)

    def counted_chain(t, plan, orbit_of, start=0, stabilizer=0):
        starts.append((plan.order, start))
        return compile_chain(t, plan, orbit_of, start, stabilizer)

    monkeypatch.setattr(counting, "_plan", counted_plan)
    monkeypatch.setattr(counting, "_stabilizer_chain", counted_chain)
    for graph, plans, chains in ((cycle_graph(5), 3, 2), (PATTERNS["paw"], 9, 5)):
        prefixes.clear()
        starts.clear()
        pat = Pattern(graph)
        rng = random.Random("plans")
        hosts = [complete_graph(6)] + [brutes.random_graph(rng, 7, 0.6) for _ in range(3)]
        for i, host in enumerate(hosts):
            count_copies(host, pat)
            count_embeddings(host, pat)
            exists_embedding(host, pat)
            for v in range(host.n):
                pattern_degree(host, v, pat)
                embeddings_through_vertex(host, v, pat)
                exists_embedding_through_vertex(host, v, pat)
            for u, v in host.edges():
                copies_through_edge(host, u, v, pat)
                embeddings_through_edge(host, u, v, pat)
                exists_embedding_through_edge(host, u, v, pat)
            critical_masks(host, pat)
            if i == 0:
                first = (len(prefixes), len(starts))
        # the stabilizer chains, the existence tests and the critical masks
        # reuse the plans and chains already compiled
        assert (len(prefixes), len(starts)) == first == (plans, chains)
        assert len(set(prefixes)) == len(prefixes)
        assert len(set(starts)) == len(starts)


def test_as_pattern_shares_one_pattern_per_graph():
    g = cycle_graph(5)
    pat = counting.as_pattern(g)
    assert counting.as_pattern(Graph(g.n, g.adj)) is pat
    assert counting.as_pattern(pat) is pat


def test_family_compiles_its_core_once(monkeypatch):
    """``biex`` for n = 4..8 and the greedy overlay at n = 13 test the one
    C4 core of the K_{2,2,2} family against many hosts, through plain graphs:
    its whole-pattern, root and edge plans are each compiled once."""
    prefixes = []
    compile_plan = counting._plan

    def counted_plan(t, prefix=()):
        if is_isomorphic(t, cycle_graph(4)):
            prefixes.append(prefix)
        return compile_plan(t, prefix)

    monkeypatch.setattr(counting, "_plan", counted_plan)
    monkeypatch.setattr(search, "_CLASS_CACHE", {})
    counting._compiled.cache_clear()
    k222 = complete_multipartite((2, 2, 2))
    for n in range(4, 9):
        biex(n, k222)
    lower_bound_construction(13, k222, 2)
    assert len(prefixes) == len(set(prefixes)) == 3


def _brute_orbits(auts: list[tuple[int, ...]], prefixes: list[tuple[int, ...]]):
    """The first of ``prefixes`` in each orbit under ``auts``, with the orbit's size."""
    out, seen = [], set()
    for p in prefixes:
        if p not in seen:
            orbit = {tuple(a[v] for v in p) for a in auts}
            seen |= orbit
            out.append((p, len(orbit)))
    return tuple(out)


@pytest.mark.parametrize("name", sorted(PATTERNS) + sorted(set(SYMMETRIC) - {"petersen"}))
def test_orbits_and_copy_plans_match_brute(name):
    """The orbits of roots and of ordered edges, with their first members and
    sizes, against Aut(t) listed by brute force, and one copy plan per orbit.
    Pinned to its own prefix in t, a copy plan keeps exactly one of the
    automorphisms fixing that prefix: they form one coset of the stabilizer."""
    graph = {**PATTERNS, **SYMMETRIC}[name]
    pat = Pattern(graph)
    auts = brutes.automorphisms_brute(graph)
    assert pat.aut_count == len(auts)
    assert pat.root_orbits == _brute_orbits(auts, [(v,) for v in range(graph.n)])
    ordered = [p for x, y in graph.edges() for p in ((x, y), (y, x))]
    assert pat.edge_orbits == _brute_orbits(auts, ordered)
    assert len(pat.copy_root_plans) == len(pat.root_orbits)
    assert len(pat.copy_edge_plans) == len(pat.edge_orbits)
    orbits = pat.root_orbits + pat.edge_orbits
    for (prefix, _), plan in zip(orbits, pat.copy_root_plans + pat.copy_edge_plans):
        assert plan.order[: len(prefix)] == prefix
        assert counting._embed(graph, plan, prefix) == 1


def _copy(pattern_edges: list[tuple[int, int]], image: tuple[int, ...]):
    """The subgraph an embedding maps the pattern onto: vertex set and edge set."""
    return frozenset(image), frozenset(frozenset((image[a], image[b])) for a, b in pattern_edges)


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_symmetric_patterns_match_brute(name):
    """Copies are told apart by their vertex and edge sets, so the oracle
    divides by no automorphism count."""
    pattern = Pattern(SYMMETRIC[name])
    pedges = pattern.graph.edges()
    rng = random.Random(name)
    for n in (6, 7, 8, 9):
        host = brutes.random_graph(rng, n, rng.uniform(0.5, 0.9))
        images = brutes.embedding_images_brute(host, pattern.graph)
        mapped = [_copy(pedges, image) for image in images]
        copies = set(mapped)
        assert count_embeddings(host, pattern) == len(images)
        assert count_copies(host, pattern) == len(copies)
        assert exists_embedding(host, pattern) == bool(copies)
        for v in range(n):
            degree = sum(v in verts for verts, _ in copies)
            assert pattern_degree(host, v, pattern) == degree
            assert embeddings_through_vertex(host, v, pattern) == sum(v in im for im in images)
            assert exists_embedding_through_vertex(host, v, pattern) == (degree > 0)
        for u, v in host.edges():
            edge = frozenset((u, v))
            through = sum(edge in edges for _, edges in copies)
            for a, b in ((u, v), (v, u)):
                assert copies_through_edge(host, a, b, pattern) == through
                assert embeddings_through_edge(host, a, b, pattern) == sum(
                    edge in edges for _, edges in mapped
                )
                assert exists_embedding_through_edge(host, a, b, pattern) == (through > 0)


def test_petersen_in_complete_and_own_hosts():
    """Closed forms where the 10-vertex brute force would be too slow: K10
    holds 10!/120 Petersen copies, each spans all ten vertices and uses 15
    of the 45 edges, so by symmetry every edge lies in a third of them."""
    pattern = Pattern(petersen())
    k10 = complete_graph(10)
    assert count_copies(k10, pattern) == math.factorial(10) // 120 == 30240
    assert count_embeddings(k10, pattern) == math.factorial(10)
    assert pattern_degree(k10, 3, pattern) == 30240
    assert copies_through_edge(k10, 7, 2, pattern) == 30240 * 15 // 45
    assert embeddings_through_edge(k10, 2, 7, pattern) == 120 * 10080
    host = petersen()
    assert count_copies(host, pattern) == 1
    assert pattern_degree(host, 4, pattern) == 1
    assert embeddings_through_edge(host, 0, 1, pattern) == 120
    assert copies_through_edge(host, 0, 1, pattern) == 1
    assert copies_through_edge(add_edge(host, 0, 2), 0, 1, pattern) == 1


@contextmanager
def deadline(seconds: int):
    """Fail with TimeoutError, not hang, when the body runs past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _strongly_regular():
    """Three strongly regular graphs on 16 vertices and their |Aut|."""
    pairs = list(combinations(range(16), 2))
    # Cayley graph on Z4 x Z4 with connection set {±(0,1), ±(1,0), ±(1,1)}
    diffs = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    shrikhande = [(a, b) for a, b in pairs if ((a // 4 - b // 4) % 4, (a - b) % 4) in diffs]
    rook = [(a, b) for a, b in pairs if a // 4 == b // 4 or a % 4 == b % 4]
    # the folded 5-cube: 4-bit words joined when they differ in one bit or in all
    clebsch = [(a, b) for a, b in pairs if (a ^ b).bit_count() == 1 or a ^ b == 15]
    return {
        "shrikhande": (graph_from_edges(16, shrikhande), 192),
        "rook4x4": (graph_from_edges(16, rook), 1152),
        "clebsch": (graph_from_edges(16, clebsch), 1920),
    }


def test_automorphisms_at_pattern_cap_do_not_hang():
    """|Aut| is a product of orbit sizes, so 16! automorphisms cost no more
    than a few hundred pinned existence tests."""
    with deadline(60):
        assert automorphism_count(complete_graph(16)) == math.factorial(16)
        assert automorphism_count(empty_graph(16)) == math.factorial(16)
        for name, (g, aut) in _strongly_regular().items():
            assert automorphism_count(g) == aut, name


def test_copies_at_pattern_cap_do_not_hang():
    with deadline(60):
        assert count_copies(complete_graph(16), complete_graph(12)) == 1820
        assert count_copies(complete_graph(16), complete_graph(16)) == 1
        assert count_embeddings(complete_graph(16), empty_graph(16)) == math.factorial(16)


def test_copy_plans_check_the_generators_orbits():
    """Orbits from generators that miss an automorphism (K3 with the
    transposition (1 2) alone) or that hold a non-automorphism (a 3-cycle on
    K2 plus an isolated vertex) raise instead of miscounting: |Aut| comes
    from the whole-pattern chain, which does not use the generators."""
    pat = Pattern(complete_graph(3))
    pat.generators = [[0, 2, 1]]
    with pytest.raises(InternalCheckError, match="does not reach"):
        pat.copy_root_plans
    pat = Pattern(PATTERNS["K2+iso"])
    pat.generators = [[1, 2, 0]]
    with pytest.raises(InternalCheckError, match="does not divide"):
        pat.copy_root_plans


def _spider(*legs: int) -> Graph:
    """A centre 0 with a path of each given length hanging from it."""
    edges, n = [], 1
    for length in legs:
        edges += [(0 if k == 0 else n + k - 1, n + k) for k in range(length)]
        n += length
    return graph_from_edges(n, edges)


def _complement(g: Graph) -> Graph:
    pairs = combinations(range(g.n), 2)
    return graph_from_edges(g.n, [(u, v) for u, v in pairs if not g.has_edge(u, v)])


def _plan_heavy():
    """Patterns at or near the vertex cap with few automorphisms, so most
    pairs of roots or of ordered edges lie in different orbits; with |Aut|
    and the numbers of orbits of roots and of ordered edges."""
    asym8 = _complement(_spider(1, 2, 4))
    return {
        # 16 vertices, 105 edges, no automorphism but the identity
        "co-spider": (_complement(_spider(1, 2, 3, 4, 5)), 1, 16, 210),
        # 15 vertices, 91 edges, one twin pair: the ends of the two legs of
        # length one.  66 edges avoid both, so (182 + 2 * 66) / 2 arc orbits
        "co-twin-spider": (_complement(_spider(1, 1, 3, 4, 5)), 2, 14, 157),
        # two disjoint copies of an asymmetric 8-vertex graph with 21 edges
        "2-asym8": (
            graph_from_edges(16, asym8.edges() + [(u + 8, v + 8) for u, v in asym8.edges()]),
            2,
            8,
            42,
        ),
    }


@pytest.mark.parametrize("name", sorted(_plan_heavy()))
def test_plans_of_nearly_asymmetric_patterns_do_not_hang(name):
    """Orbits come from the automorphism generators, the pinned chains test
    one orbit only and the chain behind |Aut| only vertices of equal degree
    and neighbour degrees, so no family of plans proves two roots or two
    edges apart by failing searches of the pattern in itself."""
    graph, aut, roots, arcs = _plan_heavy()[name]
    pat = Pattern(graph)
    with deadline(30):
        families = [pat.copy_root_plans, pat.copy_edge_plans]
    assert pat.aut_count == aut
    assert [len(f) for f in families] == [roots, arcs]


def test_through_edge_requires_host_edge():
    host = path_graph(4)
    with pytest.raises(ValueError):
        embeddings_through_edge(host, 0, 2, complete_graph(2))
    with pytest.raises(ValueError):
        exists_embedding_through_edge(host, 0, 2, complete_graph(2))


def test_through_vertex_requires_host_vertex():
    host = path_graph(4)
    for v in (-1, 4):
        with pytest.raises(ValueError):
            embeddings_through_vertex(host, v, complete_graph(2))
        with pytest.raises(ValueError):
            exists_embedding_through_vertex(host, v, complete_graph(2))


def test_orbit_reps():
    def reps(g):
        return tuple(p[0] for p, _ in Pattern(g).root_orbits)

    assert reps(cycle_graph(5)) == (0,)
    assert reps(path_graph(4)) == (0, 1)
    assert reps(PATTERNS["star3"]) == (0, 1)
    assert reps(PATTERNS["K2+iso"]) == (0, 2)
    assert reps(complete_graph(1)) == (0,)


def _brute_relabeling(g: Graph, perms: list[tuple[int, ...]]) -> tuple[int, ...]:
    """A relabeling sending every graph of one isomorphism class to one graph."""
    return min(perms, key=lambda p: sorted(sorted((p[u], p[v])) for u, v in g.edges()))


def test_critical_masks_match_brute():
    """Joining a new vertex k to ``mask`` of any labeled parent on <= 5 vertices
    makes a forbidden copy exactly when ``mask`` contains a critical mask."""
    sets = [
        [Pattern(PATTERNS[name])]
        for name in ("K2+iso", "2K2", "P3", "P4", "C4", "K3", "K4", "star3")
    ] + [[Pattern(cycle_graph(5))], [Pattern(PATTERNS["C4"]), Pattern(PATTERNS["K3"])]]
    for k in range(6):
        perms = list(permutations(range(k)))
        # the brute verdict is the same for (parent, mask) and any relabeling
        # of both, so it is computed once per isomorphism class of parent
        verdicts: dict[tuple[tuple[int, ...], int], list[bool]] = {}
        for parent in brutes.all_graphs(k):
            per_set = []
            for forbidden in sets:
                masks = []
                for h in forbidden:
                    own = critical_masks(parent, h)
                    assert not any(a != b and a & b == a for a in own for b in own)
                    masks += own
                per_set.append(masks)
            perm = _brute_relabeling(parent, perms)
            rep = relabel(parent, perm)
            for mask in range(1 << k):
                image = sum(1 << perm[v] for v in range(k) if (mask >> v) & 1)
                key = (rep.adj, image)
                if key not in verdicts:
                    rows = [
                        row | (1 << k) if (image >> v) & 1 else row
                        for v, row in enumerate(rep.adj)
                    ]
                    child = Graph(k + 1, rows + [image])
                    verdicts[key] = [
                        any(brutes.through_vertex_brute(child, k, h.graph) > 0 for h in forbidden)
                        for forbidden in sets
                    ]
                got = [any(c & mask == c for c in masks) for masks in per_set]
                assert got == verdicts[key], (parent.edges(), mask)


def test_pattern_degree_bowtie():
    bowtie = graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    assert pattern_degree(bowtie, 0, complete_graph(3)) == 2
    assert pattern_degree(bowtie, 1, complete_graph(3)) == 1
    assert min_pattern_degree(bowtie, complete_graph(3)) == 1


def test_pattern_degree_sums_to_copies():
    rng = random.Random(3)
    for _ in range(10):
        host = brutes.random_graph(rng, 6, 0.5)
        for pattern in (complete_graph(3), cycle_graph(4), path_graph(4)):
            total = sum(pattern_degree(host, v, pattern) for v in range(host.n))
            assert total == pattern.n * count_copies(host, pattern)


def test_min_pattern_degree_rejects_empty_host():
    with pytest.raises(ValueError):
        min_pattern_degree(empty_graph(0), complete_graph(2))


def test_existence_checks():
    assert contains_subgraph(complete_multipartite((2, 3)), cycle_graph(4))
    assert not contains_subgraph(cycle_graph(5), cycle_graph(4))
    assert exists_embedding(cycle_graph(6), path_graph(4))
    assert contains_any(cycle_graph(6), [complete_graph(3), path_graph(3)])
    assert not contains_any(empty_graph(5), [complete_graph(2)])


@settings(max_examples=80)
@given(st.randoms(use_true_random=False))
def test_counts_invariant_under_host_relabeling(rng):
    host = brutes.random_graph(rng, 6, 0.5)
    perm = brutes.random_permutation(rng, 6)
    other = relabel(host, perm)
    for pattern in (complete_graph(3), cycle_graph(4), PATTERNS["2K2"]):
        assert count_copies(host, pattern) == count_copies(other, pattern)
    assert clique_number(host) == clique_number(other)


def test_pattern_larger_than_host_counts_zero():
    assert count_embeddings(path_graph(3), complete_graph(4)) == 0
    assert not exists_embedding(path_graph(3), cycle_graph(4))
