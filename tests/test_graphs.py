"""Graph container, generators, colorings, canonical forms, and graph6."""

from __future__ import annotations

import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brutes
from turanext import graphs
from turanext.errors import SearchCapError
from turanext.graphs import (
    Graph,
    _automorphism_generators,
    _bits,
    _graph_of_form,
    _refine,
    add_edge,
    anchored_turan_graph,
    blowup,
    canonical_form,
    canonical_graph,
    chromatic_number,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    empty_graph,
    graph6_decode,
    graph6_encode,
    graph_from_edges,
    is_isomorphic,
    path_graph,
    proper_partitions,
    read_edge_list,
    relabel,
    strip_isolated,
    subgraph,
    turan_graph,
)
from turanext.shorthand import parse_graph


@st.composite
def small_graphs(draw, max_n: int = 7):
    n = draw(st.integers(min_value=0, max_value=max_n))
    bits = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << bits) - 1)) if bits else 0
    slots = [(u, v) for v in range(n) for u in range(v)]
    return graph_from_edges(n, [slots[i] for i in range(bits) if (mask >> i) & 1])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return graph_from_edges(10, outer + inner + spokes)


# ---------------------------------------------------------------------------
# construction and validation


def test_graph_rejects_bad_adjacency():
    with pytest.raises(ValueError):
        Graph(2, [0b10, 0b00])  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, [0b1])  # loop
    with pytest.raises(ValueError):
        Graph(2, [0b100, 0b000])  # stray bit beyond n
    with pytest.raises(ValueError):
        Graph(2, [0])  # wrong row count
    with pytest.raises(ValueError):
        Graph(65, [0] * 65)


def test_graph_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(1, 1)])


@pytest.mark.parametrize(
    "vertices, bad",
    [([-1], -1), ([-1, 2], -1), ([5], 5), ([0, 3], 3)],
)
def test_subgraph_rejects_out_of_range_vertices(vertices, bad):
    with pytest.raises(ValueError, match=f"vertex {bad} outside"):
        subgraph(path_graph(3), vertices)


@pytest.mark.parametrize("u, v, bad", [(0, 5, 5), (-1, 1, -1), (3, 0, 3)])
def test_add_edge_rejects_out_of_range_vertices(u, v, bad):
    with pytest.raises(ValueError, match=f"vertex {bad} outside"):
        add_edge(path_graph(3), u, v)


@pytest.mark.parametrize("u, v, bad", [(-1, 1, -1), (7, 0, 7), (0, 3, 3)])
def test_has_edge_rejects_out_of_range_vertices(u, v, bad):
    with pytest.raises(ValueError, match=f"vertex {bad} outside"):
        path_graph(3).has_edge(u, v)


@pytest.mark.parametrize("v", [-1, 3])
def test_degree_rejects_out_of_range_vertices(v):
    with pytest.raises(ValueError, match=f"vertex {v} outside"):
        path_graph(3).degree(v)


@pytest.mark.parametrize(
    "make, n",
    [
        (cycle_graph, 200_000),
        (path_graph, 200_000),
        (complete_graph, 20_000),
        (empty_graph, 2_000_000),
        (lambda n: parse_graph(f"K^{{{n}}}_{{1,1}}"), 2_000_000),
    ],
    ids=["cycle", "path", "complete", "empty", "blocks-shorthand"],
)
def test_generators_reject_large_n_before_allocating(make, n):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"vertex count {n}"):
            make(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_turan_builders_skip_empty_parts():
    """T_r(n) with r > n is K_n: no r-entry tuple of part sizes is built."""
    tracemalloc.start()
    try:
        wide = turan_graph(5, 10**7)
        anchored = anchored_turan_graph(10**7, 2, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wide == complete_graph(5)
    assert anchored == complete_multipartite((3, 1, 1))
    assert peak < 1 << 20


def test_basic_accessors():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edge_count() == 3
    assert g.degrees() == (1, 2, 2, 1)
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 2)
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]


@pytest.mark.parametrize(
    "g,n,e",
    [
        (empty_graph(5), 5, 0),
        (complete_graph(5), 5, 10),
        (cycle_graph(5), 5, 5),
        (path_graph(5), 5, 4),
        (complete_multipartite((2, 2, 2)), 6, 12),
        (complete_multipartite((1, 1, 1)), 3, 3),
        (turan_graph(7, 3), 7, 16),
        (blowup(cycle_graph(5), 2), 10, 20),
    ],
)
def test_generator_sizes(g, n, e):
    assert (g.n, g.edge_count()) == (n, e)


def test_cycle_needs_three_vertices():
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_turan_graph_structure():
    g = turan_graph(10, 3)
    assert is_isomorphic(g, complete_multipartite((4, 3, 3)))
    # more parts than vertices degenerates to a complete graph
    assert is_isomorphic(turan_graph(3, 5), complete_graph(3))


def test_blowup_of_edge_is_complete_bipartite():
    assert is_isomorphic(blowup(complete_graph(2), 3), complete_multipartite((3, 3)))


def test_anchored_turan_graph_shape():
    # one part of size n-a holding vertex 0, balanced (r-1)-partite rest on a
    for r, a, n in [(2, 3, 7), (3, 4, 9), (3, 0, 5), (4, 6, 8)]:
        g = anchored_turan_graph(r, a, n)
        assert g.n == n
        assert g.degree(0) == a
        from turanext.closedform import turan_edge_count

        assert g.edge_count() == turan_edge_count(a, r - 1) + (n - a) * a
    with pytest.raises(ValueError):
        anchored_turan_graph(1, 0, 3)
    with pytest.raises(ValueError):
        anchored_turan_graph(2, 5, 5)


def test_subgraph_and_relabel():
    g = cycle_graph(5)
    h = subgraph(g, [1, 2, 3])
    assert h.edges() == [(0, 1), (1, 2)]
    perm = [4, 3, 2, 1, 0]
    assert is_isomorphic(relabel(g, perm), g)
    assert sorted(relabel(g, perm).degrees()) == sorted(g.degrees())
    with pytest.raises(ValueError):
        relabel(g, [0, 0, 1, 2, 3])


def test_surgery_outputs_equal_validated_graphs():
    # relabel, subgraph, add_edge and canonical_graph skip validation.
    rng = random.Random(5)
    for n in range(6):
        for g in brutes.all_graphs(n):
            outs = [
                relabel(g, brutes.random_permutation(rng, n)),
                subgraph(g, rng.sample(range(n), rng.randint(0, n))),
                canonical_graph(g),
            ]
            if n > 1:
                outs.append(add_edge(g, *rng.sample(range(n), 2)))
            for out in outs:
                assert out == Graph(out.n, out.adj), g.adj


def test_strip_isolated():
    g = graph_from_edges(6, [(1, 4)])
    s = strip_isolated(g)
    assert s.n == 2 and s.edge_count() == 1
    assert strip_isolated(empty_graph(4)).n == 0


# ---------------------------------------------------------------------------
# partitions and coloring


@pytest.mark.parametrize("n", range(1, 6))
def test_chromatic_number_exhaustive_vs_brute(n):
    for g in brutes.all_graphs(n):
        assert chromatic_number(g) == brutes.chromatic_brute(g)


def mycielskian(g: Graph) -> Graph:
    """Mycielski's construction: a shadow n + v of every vertex v, adjacent to
    the neighbours of v, and an apex 2n adjacent to every shadow.  It keeps
    the graph triangle-free and raises its chromatic number by one."""
    n = g.n
    shadows = [(n + u, v) for u, v in g.edges()] + [(n + v, u) for u, v in g.edges()]
    apex = [(n + v, 2 * n) for v in range(n)]
    return graph_from_edges(2 * n + 1, g.edges() + shadows + apex)


def kneser(n: int, k: int) -> Graph:
    """The k-subsets of {0, ..., n-1}, adjacent when disjoint."""
    subsets = [frozenset(c) for c in combinations(range(n), k)]
    return graph_from_edges(
        len(subsets),
        [(i, j) for j in range(len(subsets)) for i in range(j) if not subsets[i] & subsets[j]],
    )


def test_chromatic_number_spot_values():
    assert chromatic_number(empty_graph(0)) == 0
    assert chromatic_number(cycle_graph(5)) == 3
    assert chromatic_number(cycle_graph(6)) == 2
    assert chromatic_number(petersen()) == 3
    assert chromatic_number(complete_multipartite((3, 3, 3))) == 3
    assert chromatic_number(blowup(cycle_graph(5), 2)) == 3
    # the Groetzsch graph and the Mycielskian of C7 are triangle-free with
    # chromatic number 4; Kneser K(n, k) has n - 2k + 2 (Lovasz 1978); a
    # complete multipartite graph needs one colour per part
    assert chromatic_number(mycielskian(cycle_graph(5))) == 4
    assert chromatic_number(mycielskian(cycle_graph(7))) == 4
    assert chromatic_number(kneser(6, 2)) == 4
    assert chromatic_number(complete_multipartite((1,) * 6 + (2,) * 7)) == 13
    # reach is set by the placements a search makes, not by the vertex count:
    # the Mycielskian of the Groetzsch graph has 23 vertices and needs 5
    assert chromatic_number(mycielskian(mycielskian(cycle_graph(5)))) == 5
    assert chromatic_number(cycle_graph(63)) == 3
    assert chromatic_number(complete_graph(64)) == 64
    assert chromatic_number(empty_graph(64)) == 1


@pytest.mark.parametrize("n", range(6))
def test_proper_partitions_match_brute(n):
    """Every partition into k independent classes comes exactly once."""
    for g in brutes.all_graphs(n):
        for k in range(1, n + 2):
            got = [
                frozenset(frozenset(_bits(m)) for m in masks)
                for masks in proper_partitions(g, k)
            ]
            assert len(got) == len(set(got))
            assert set(got) == brutes.proper_partitions_brute(g, k)


def test_proper_partitions_of_five_cycle():
    c5 = cycle_graph(5)
    parts = list(proper_partitions(c5, 3))
    # 30 surjective proper 3-colorings / 3! orderings
    assert len(parts) == 5
    for masks in parts:
        assert len(masks) == 3
        assert all(c5.adj[v] & m == 0 for m in masks for v in _bits(m))


def test_proper_partitions_complete_graph():
    parts = list(proper_partitions(complete_graph(4), 4))
    assert len(parts) == 1
    assert list(proper_partitions(complete_graph(4), 3)) == []


K4_PLUS_SIX = graph_from_edges(10, complete_graph(4).edges())


def test_colouring_budget_refuses_a_long_search(monkeypatch):
    monkeypatch.setattr(graphs, "_PARTITION_WORK_CAP", 20)
    with pytest.raises(SearchCapError, match="20 placements"):
        chromatic_number(K4_PLUS_SIX)
    with pytest.raises(SearchCapError, match="20 placements"):
        list(proper_partitions(K4_PLUS_SIX, 4))


def test_chromatic_number_spends_one_budget_over_all_k(monkeypatch):
    # each k <= 4 finds or rules out a partition in at most 11 placements,
    # but the five searches make 21 together
    monkeypatch.setattr(graphs, "_PARTITION_WORK_CAP", 20)
    order = sorted(range(10), key=lambda v: (-K4_PLUS_SIX.degree(v), v))
    for k in range(5):
        next(graphs._partitions(K4_PLUS_SIX, k, order, [20]), None)
    with pytest.raises(SearchCapError):
        chromatic_number(K4_PLUS_SIX)
    monkeypatch.setattr(graphs, "_PARTITION_WORK_CAP", 21)
    assert chromatic_number(K4_PLUS_SIX) == 4


# ---------------------------------------------------------------------------
# canonical forms and isomorphism


@settings(max_examples=150)
@given(small_graphs(), st.randoms(use_true_random=False))
def test_canonical_form_is_relabeling_invariant(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_form(relabel(g, perm)) == canonical_form(g)


@settings(max_examples=60)
@given(small_graphs())
def test_canonical_graph_idempotent(g):
    c = canonical_graph(g)
    assert canonical_form(c) == canonical_form(g)
    assert canonical_graph(c) == c


def test_graph_of_form_inverts_canonical_form():
    """Decoding a form gives a valid graph with that form, the same graph
    under every relabeling: the canonical graph."""
    assert _graph_of_form(b"\x00") == empty_graph(0)
    assert _graph_of_form(b"\x01") == empty_graph(1)
    rng = random.Random(2024)
    corpus = [empty_graph(0), empty_graph(1), complete_graph(64), turan_graph(64, 5)]
    corpus += [brutes.random_graph(rng, n, rng.random()) for n in range(6, 65)]
    for g in corpus:
        form = canonical_form(g)
        decoded = _graph_of_form(form)
        assert decoded == Graph(decoded.n, decoded.adj), g.n
        assert canonical_form(decoded) == form, g.n
        for _ in range(2):
            h = relabel(g, brutes.random_permutation(rng, g.n))
            assert _graph_of_form(canonical_form(h)) == decoded, g.n


def _disjoint_union(*parts: Graph) -> Graph:
    edges, offset = [], 0
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.edges()]
        offset += part.n
    return graph_from_edges(offset, edges)


def _assert_matches_oracle(g: Graph) -> None:
    assert (canonical_form(g), canonical_graph(g)) == brutes.canonical_brute(g)


@pytest.mark.parametrize("n", range(6))
def test_canonical_labeling_matches_unpruned_oracle_on_all_graphs(n):
    for g in brutes.all_graphs(n):
        _assert_matches_oracle(g)


C4, C5, K3 = cycle_graph(4), cycle_graph(5), complete_graph(3)
SYMMETRIC_CORPUS = {
    "T(8,3)": turan_graph(8, 3),
    "T(11,3)": turan_graph(11, 3),
    "T(13,4)": turan_graph(13, 4),
    "T(14,3)": turan_graph(14, 3),
    "K_{5,5}": turan_graph(10, 2),
    "2C5": _disjoint_union(C5, C5),
    "3K3": _disjoint_union(K3, K3, K3),
    "C8": cycle_graph(8),
    "C12": cycle_graph(12),
    "C15": cycle_graph(15),
    "C5[2]": blowup(C5, 2),
    "C5[3]": blowup(C5, 3),
    "C7[2]": blowup(cycle_graph(7), 2),
    "C4[3]": blowup(C4, 3),
    "K3[3]": blowup(K3, 3),
    # Regular, so refinement leaves cells that hold several orbits.
    "2C4+K3": _disjoint_union(C4, C4, K3),
    "C3+C4+C5": _disjoint_union(K3, C4, C5),
    "K4+K_{3,3}": _disjoint_union(complete_graph(4), turan_graph(6, 2)),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC_CORPUS))
def test_canonical_labeling_matches_unpruned_oracle_on_symmetric_graphs(name):
    g = SYMMETRIC_CORPUS[name]
    rng = random.Random(name)
    _assert_matches_oracle(g)
    for _ in range(6):
        _assert_matches_oracle(relabel(g, brutes.random_permutation(rng, g.n)))


@settings(max_examples=100)
@given(small_graphs(max_n=9))
def test_canonical_labeling_matches_unpruned_oracle_on_drawn_graphs(g):
    _assert_matches_oracle(g)


@pytest.mark.parametrize("seed", range(3))
def test_canonical_labeling_matches_unpruned_oracle_on_random_graphs(seed):
    # G(n, n(n-1)/4), as in the benchmark's random corpus: refinement
    # alone settles these, so the unpruned oracle stays cheap.
    rng = random.Random(seed)
    for n in range(16, 49):
        slots = list(combinations(range(n), 2))
        _assert_matches_oracle(graph_from_edges(n, rng.sample(slots, len(slots) // 2)))


@pytest.mark.parametrize(
    "g",
    [
        turan_graph(32, 3),
        _disjoint_union(*[C5] * 4),
        _disjoint_union(*[K3] * 5),
    ],
    ids=["T(32,3)", "4C5", "5K3"],
)
def test_canonical_labeling_handles_large_automorphism_groups(g):
    # The unpruned search tree of each graph grows factorially with its size.
    rng = random.Random(g.n)
    h = relabel(g, brutes.random_permutation(rng, g.n))
    assert canonical_form(h) == canonical_form(g)
    assert canonical_graph(h) == canonical_graph(g)


def _refine_nodes(g: Graph):
    """Yield (cells, fresh) at each node of a few individualization paths.

    A path starts at the unit partition or at a single-vertex
    individualization, and individualizes the first vertex of the first
    non-singleton cell of the oracle's refinement until it is discrete.
    ``fresh`` is what the search would pass: every cell at a start, the new
    singleton below an individualization of an equitable partition.  The
    empty graph, whose search refines nothing, has no nodes.
    """
    full = (1 << g.n) - 1
    starts = [[full]] if g.n else []
    starts += [[1 << v, full ^ (1 << v)] for v in range(g.n) if g.n > 1]
    for cells in starts:
        fresh = list(cells)
        while True:
            yield cells, fresh
            cells = brutes._oracle_refine(g.adj, cells)
            split = [i for i, c in enumerate(cells) if c & (c - 1)]
            if not split:
                break
            t = split[0]
            low = cells[t] & -cells[t]
            cells = cells[:t] + [low, cells[t] ^ low] + cells[t + 1 :]
            fresh = [low]


def _assert_refine_matches_oracle(g: Graph) -> None:
    """``_refine`` against the oracle's all-cells rounds at each path node.

    The cells, their order and the homogeneity flag must all agree, whether
    ``_refine`` gets the fresh cells the search passes or every cell as
    fresh.  A flag that is too strict changes only speed, so the output
    tests cannot see it.
    """
    for cells, fresh in _refine_nodes(g):
        expected = brutes._oracle_refine(g.adj, cells)
        homogeneous = brutes._oracle_homogeneous(g.adj, expected)
        for given in (fresh, cells):
            assert _refine(g.adj, cells, given) == (expected, homogeneous), given


@pytest.mark.parametrize("n", range(6))
def test_refine_flags_homogeneity_on_all_graphs(n):
    for g in brutes.all_graphs(n):
        _assert_refine_matches_oracle(g)


def test_refine_matches_oracle_on_six_vertex_graphs():
    for g in _graphs_up_to_six():
        if g.n == 6:
            _assert_refine_matches_oracle(g)


@pytest.mark.parametrize("name", sorted(SYMMETRIC_CORPUS))
def test_refine_flags_homogeneity_on_symmetric_graphs(name):
    g = SYMMETRIC_CORPUS[name]
    _assert_refine_matches_oracle(g)
    perm = brutes.random_permutation(random.Random(name), g.n)
    _assert_refine_matches_oracle(relabel(g, perm))


def _mask_image(perm, mask: int) -> int:
    return sum(1 << perm[v] for v in range(len(perm)) if (mask >> v) & 1)


def _mask_orbits(n: int, perms) -> list[int]:
    """The least mask of the orbit of each of the 2^n masks under ``perms``."""
    tables = []
    for perm in perms:
        table = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            table[m] = table[m ^ low] | 1 << perm[low.bit_length() - 1]
        tables.append(table)
    least = [-1] * (1 << n)
    for mask in range(1 << n):
        if least[mask] < 0:
            least[mask] = mask
            stack = [mask]
            while stack:
                m = stack.pop()
                for table in tables:
                    if least[table[m]] < 0:
                        least[table[m]] = mask
                        stack.append(table[m])
    return least


def _assert_generators_give_brute_orbits(g: Graph) -> None:
    gens = _automorphism_generators(g)
    group = brutes.automorphisms_brute(g)
    assert {tuple(gamma) for gamma in gens} <= set(group)
    brute = [min(_mask_image(perm, m) for perm in group) for m in range(1 << g.n)]
    assert _mask_orbits(g.n, gens) == brute, g


def _graphs_up_to_six():
    """Every labeled graph on at most 5 vertices, and one labeled graph per
    isomorphism class on 6 vertices, also under a random relabeling."""
    for n in range(6):
        yield from brutes.all_graphs(n)
    rng = random.Random(6)
    seen = set()
    for g in brutes.all_graphs(6):
        form = canonical_form(g)
        if form not in seen:
            seen.add(form)
            yield g
            yield relabel(g, brutes.random_permutation(rng, 6))


def test_automorphism_generators_give_brute_orbits_on_small_graphs():
    """The least mask of each orbit is all ``_extend_one`` extends, so the
    generators must have the orbits of the whole group on vertex sets."""
    for g in _graphs_up_to_six():
        _assert_generators_give_brute_orbits(g)


@pytest.mark.parametrize("name", sorted(SYMMETRIC_CORPUS))
def test_automorphism_generators_give_brute_orbits_on_symmetric_graphs(name):
    g = SYMMETRIC_CORPUS[name]
    gens = _automorphism_generators(g)
    edges = g.edges()
    for gamma in gens:
        assert sorted(gamma) == list(range(g.n))
        assert all(g.has_edge(gamma[u], gamma[v]) for u, v in edges)
    chain = brutes.stabilizer_chain_brute(g)
    assert _mask_orbits(g.n, gens) == _mask_orbits(g.n, chain)


def test_isomorphism_spot_pairs():
    assert is_isomorphic(complete_multipartite((2, 2)), cycle_graph(4))
    assert is_isomorphic(turan_graph(4, 2), cycle_graph(4))
    # same degree sequence, different graphs
    two_triangles = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_isomorphic(cycle_graph(6), two_triangles)
    assert not is_isomorphic(path_graph(4), cycle_graph(4))


def test_canonical_form_distinguishes_regular_pairs():
    # 3-regular on 6 vertices: K_{3,3} vs the prism
    prism = graph_from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )
    assert canonical_form(prism) != canonical_form(complete_multipartite((3, 3)))


# ---------------------------------------------------------------------------
# graph6 and edge lists


def test_graph6_known_strings():
    assert graph6_encode(complete_graph(4)) == "C~"
    assert graph6_encode(path_graph(4)) == "Ch"
    assert graph6_encode(cycle_graph(5)) == "Dhc"
    assert graph6_decode("C~") == complete_graph(4)
    assert graph6_decode("Dhc") == cycle_graph(5)


@settings(max_examples=150)
@given(small_graphs())
def test_graph6_roundtrip(g):
    assert graph6_decode(graph6_encode(g)) == g


def test_graph6_long_form_roundtrip():
    g = turan_graph(64, 3)
    text = graph6_encode(g)
    assert text.startswith("~")
    assert graph6_decode(text) == g


def test_graph6_rejects_garbage():
    for bad in ["", "C~extra", "C", "\x19", "~~??", "C\x7f"]:
        with pytest.raises(ValueError):
            graph6_decode(bad)


def test_read_edge_list():
    g = read_edge_list("4\n0 1\n2 3\n")
    assert g.edges() == [(0, 1), (2, 3)]
    with pytest.raises(ValueError):
        read_edge_list("2\n0 5\n")
    with pytest.raises(ValueError):
        read_edge_list("")


def test_graph_equality_and_hash():
    a = cycle_graph(4)
    b = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert a == b and hash(a) == hash(b)
    assert a != path_graph(4)
    assert len({a, b, path_graph(4)}) == 2


def test_random_relabel_keeps_isomorphism():
    rng = random.Random(11)
    for _ in range(25):
        g = brutes.random_graph(rng, 7, 0.4)
        h = relabel(g, brutes.random_permutation(rng, 7))
        assert is_isomorphic(g, h)
