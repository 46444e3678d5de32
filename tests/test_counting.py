"""Embedding/copy counters, clique counters, and the pinned variants."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brutes
from turanext.counting import (
    Pattern,
    automorphism_count,
    clique_number,
    contains_any,
    contains_subgraph,
    count_cliques,
    count_copies,
    count_embeddings,
    embeddings_through_edge,
    embeddings_through_vertex,
    exists_embedding,
    exists_embedding_through_edge,
    exists_embedding_through_vertex,
    min_pattern_degree,
    pattern_degree,
)
from turanext.graphs import (
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


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_embeddings_and_copies_match_brute(name):
    pattern = PATTERNS[name]
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(12):
        host = brutes.random_graph(rng, rng.randint(3, 6), rng.uniform(0.2, 0.8))
        assert count_embeddings(host, pattern) == brutes.embeddings_brute(host, pattern)
        assert count_copies(host, pattern) == brutes.copies_brute(host, pattern)


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
    from test_graphs import petersen

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
            assert embeddings_through_vertex(host, v, pattern) == brute
            assert exists_embedding_through_vertex(host, v, pattern) == (brute > 0)
        for u, v in host.edges():
            for a, b in ((u, v), (v, u)):
                brute = brutes.through_edge_brute(host, a, b, pattern)
                assert embeddings_through_edge(host, a, b, pattern) == brute
                assert exists_embedding_through_edge(host, a, b, pattern) == (brute > 0)


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
