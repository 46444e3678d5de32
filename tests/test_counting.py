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
from turanext import counting
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
from turanext.graphs import (
    Graph,
    add_edge,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    empty_graph,
    graph_from_edges,
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


def test_pattern_compiles_each_plan_once(monkeypatch):
    """Kernel calls on one Pattern compile each plan once: the whole pattern,
    every root and every ordered edge, and nothing on later calls.  The order
    conditions and the automorphism count come with them."""
    prefixes = []
    compile_plan = counting._plan

    def counted(t, prefix=()):
        prefixes.append(prefix)
        return compile_plan(t, prefix)

    monkeypatch.setattr(counting, "_plan", counted)
    pat = Pattern(cycle_graph(5))
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
        if i == 0:
            first = len(prefixes)
    # the stabilizer chain and the orbit representatives pin prefixes of plans
    # already compiled, so they compile nothing of their own
    assert len(prefixes) == first == 1 + 5 + 2 * 5
    assert len(set(prefixes)) == len(prefixes)


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
    assert Pattern(cycle_graph(5)).orbit_reps == (0,)
    assert Pattern(path_graph(4)).orbit_reps == (0, 1)
    assert Pattern(PATTERNS["star3"]).orbit_reps == (0, 1)
    assert Pattern(PATTERNS["K2+iso"]).orbit_reps == (0, 2)
    assert Pattern(complete_graph(1)).orbit_reps == (0,)


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
