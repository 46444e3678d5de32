"""Decomposition families, excess edge maxima, and the overlay construction."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

import brutes
from turanext import family, graphs, search
from turanext.closedform import turan_clique_count, turan_edge_count
from turanext.counting import contains_subgraph, count_cliques
from turanext.errors import InternalCheckError, SearchCapError
from turanext.family import (
    biex,
    decomposition_family,
    is_edge_critical,
    is_family_free,
    lower_bound_construction,
    min_color_class_size,
)
from turanext.graphs import (
    blowup,
    canonical_form,
    chromatic_number,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    graph6_decode,
    graph6_encode,
    graph_from_edges,
    is_isomorphic,
    strip_isolated,
    turan_graph,
)
from turanext.shorthand import parse_graph

K3 = complete_graph(3)
K4 = complete_graph(4)
C5 = cycle_graph(5)
K222 = complete_multipartite((2, 2, 2))


@pytest.mark.parametrize(
    "h,sigma",
    [
        (K3, 1),
        (K4, 1),
        (C5, 1),
        (K222, 2),
        (complete_multipartite((3, 3, 3)), 3),
        (blowup(C5, 2), 2),
        (complete_multipartite((1, 2, 2)), 1),
        (complete_multipartite((5, 5, 5)), 5),
    ],
)
def test_min_color_class_size(h, sigma):
    assert min_color_class_size(h) == sigma


def test_family_of_cliques_is_single_edge():
    for h in (K3, K4):
        fam = decomposition_family(h)
        assert len(fam.members) == 1
        assert is_isomorphic(fam.members[0], complete_graph(2))
        assert fam.minimal_members == fam.members
        assert fam.r == chromatic_number(h) - 1


def test_family_of_k222():
    fam = decomposition_family(K222)
    assert len(fam.members) == 1
    assert is_isomorphic(fam.members[0], cycle_graph(4))


def test_family_of_five_cycle_has_edge_member():
    fam = decomposition_family(C5)
    assert any(strip_isolated(m).n == 2 for m in fam.minimal_members)


def test_family_members_are_bipartite():
    for h in (K222, blowup(C5, 2), complete_multipartite((2, 2, 3))):
        fam = decomposition_family(h)
        assert fam.members
        for member in fam.members:
            if member.edge_count():
                assert chromatic_number(member) == 2


#: H (graph6) -> (r, min color class size, [(member graph6, minimal)] in
#: member order), read at commit 00cb325.  EwC? is K3 + K2 + K1, whose
#: minimal member carries an isolated vertex.
PINNED_FAMILIES = {
    "FhCKG": (2, 1, [("CC", True), ("DgC", False), ("Dh?", False), ("EhCG", False)]),
    "E|fG": (3, 1, [("A_", True), ("BO", False), ("Bo", False), ("Ch", False)]),
    "Dvw": (2, 1, [("Bo", True), ("C]", False)]),
    "HFzf~z{": (2, 3, [("EFz_", True)]),
    "G]~v~w": (3, 2, [("C]", True)]),
    "I]KoWZBoo": (2, 2, [("E?r?", True), ("F]KGO", False), ("G]KoWW", False)]),
    "EwC?": (2, 1, [("B_", True), ("C_", False), ("C`", False), ("D`?", False)]),
    # K_{4,4,4,4} and C5[3], on 16 and 15 vertices
    "O?~vfb~~v}^w~~~~^~f~w": (3, 4, [("G?~vf_", True)]),
    "NFz_ww[?wF?[wFwF[B_": (
        2, 3, [("H??FFB_", True), ("IFCO_[MB_", False), ("JFz_wwB?oE?", False), ("KFz_ww[?wF?[", False)],
    ),
}


@pytest.mark.parametrize("h6", sorted(PINNED_FAMILIES))
def test_family_pinned_members(h6):
    r, sigma, members = PINNED_FAMILIES[h6]
    h = graph6_decode(h6)
    fam = decomposition_family(h)
    assert fam.r == r
    assert min_color_class_size(h) == sigma
    got = [(graph6_encode(m), m in fam.minimal_members) for m in fam.members]
    assert got == members
    assert fam.minimal_members == tuple(m for m in fam.members if m in fam.minimal_members)


def test_family_labels_each_class_pair_vertex_set_once(monkeypatch):
    # K4 + 4 isolated vertices: 4^4 colorings x 6 class pairs, but only
    # 6 x 2^4 distinct pair sets (two clique vertices and any isolated ones)
    calls = []

    def counted(g):
        calls.append(g)
        return canonical_form(g)

    monkeypatch.setattr(family, "canonical_form", counted)
    fam = decomposition_family(graph_from_edges(8, K4.edges()))
    assert len(calls) == 96
    assert [graph6_encode(m) for m in fam.members] == ["A_", "B_", "C_", "D_?", "E_??"]


def _family_forms_brute(h):
    """Canonical forms of the graphs induced on two classes of a proper
    chi-coloring, from every set partition of V(h)."""
    forms = set()
    for blocks in brutes.proper_partitions_brute(h, brutes.chromatic_brute(h)):
        for a, b in combinations(blocks, 2):
            keep = sorted(a | b)
            edges = [(i, j) for i, j in combinations(range(len(keep)), 2) if h.has_edge(keep[i], keep[j])]
            forms.add(brutes.canonical_brute(graph_from_edges(len(keep), edges))[0])
    return forms


def _edge_critical_brute(h):
    """Some single-edge deletion lowers the chromatic number: the definition."""
    chi = brutes.chromatic_brute(h)
    return any(
        brutes.chromatic_brute(graph_from_edges(h.n, [f for f in h.edges() if f != e])) < chi
        for e in h.edges()
    )


def test_family_matches_brute_and_edge_criticality():
    battery = {}
    for n in range(3, 6):
        for g in brutes.all_graphs(n):
            if brutes.chromatic_brute(g) >= 3:
                battery.setdefault(brutes.canonical_brute(g)[0], g)
    extra = [graph_from_edges(k + i, complete_graph(k).edges()) for k in (3, 4) for i in range(6)]
    extra += [blowup(C5, 2), W5, complete_multipartite((2, 2, 3)), graph6_decode("EwC?")]
    for g in extra:
        battery.setdefault(brutes.canonical_brute(g)[0], g)
    for h in battery.values():
        fam = decomposition_family(h)
        assert {brutes.canonical_brute(m)[0] for m in fam.members} == _family_forms_brute(h), graph6_encode(h)
        # the paper's edge-critical case: K2 lies in the family
        assert is_edge_critical(h) == any(m.edge_count() == 1 for m in fam.members), graph6_encode(h)
        assert is_edge_critical(h) == _edge_critical_brute(h), graph6_encode(h)


def test_family_refuses_more_vertices_than_a_pattern_holds():
    with pytest.raises(SearchCapError, match="patterns, capped at 16 vertices"):
        decomposition_family(graph_from_edges(17, K4.edges()))


K4_PLUS_SIX = graph_from_edges(10, K4.edges())


def test_colouring_budget_bounds_the_family_routines(monkeypatch):
    # chi(K4 plus six isolated vertices) takes 21 placements, its 4-colourings 5465
    monkeypatch.setattr(graphs, "_PARTITION_WORK_CAP", 20)
    for routine in (decomposition_family, min_color_class_size, is_edge_critical):
        with pytest.raises(SearchCapError, match="20 placements"):
            routine(K4_PLUS_SIX)
    monkeypatch.setattr(graphs, "_PARTITION_WORK_CAP", 1000)
    for routine in (decomposition_family, min_color_class_size):
        with pytest.raises(SearchCapError, match="1000 placements"):
            routine(K4_PLUS_SIX)
    # the first colouring already has a class pair spanning one edge
    assert is_edge_critical(K4_PLUS_SIX)


def test_family_answers_the_costliest_fourteen_vertex_labelling():
    # K5 plus nine isolated vertices listed isolated first: its colouring
    # stream makes 5 337 639 placements, the most of any 14-vertex H known
    fam = decomposition_family(graph6_decode("M?????????_B?F?F_"))
    assert [(m.n, m.edge_count()) for m in fam.members] == [(n, 1) for n in range(2, 12)]
    assert [graph6_encode(m) for m in fam.minimal_members] == ["A_"]


def test_family_rejects_bipartite_source():
    with pytest.raises(ValueError):
        decomposition_family(cycle_graph(4))


def test_stripping_preserves_containment():
    """Host has a member iff it has the stripped core and enough vertices."""
    rng = random.Random(5)
    fam = decomposition_family(blowup(C5, 2))
    members = list(fam.members)[:4]
    for _ in range(40):
        host = brutes.random_graph(rng, rng.randint(4, 9), rng.uniform(0.3, 0.8))
        for member in members:
            core = strip_isolated(member)
            direct = host.n >= member.n and brutes.exists_brute(host, member)
            via_core = host.n >= member.n and contains_subgraph(host, core)
            assert direct == via_core


def test_is_family_free_matches_brute():
    fam = decomposition_family(K222)
    rng = random.Random(17)
    for _ in range(30):
        host = brutes.random_graph(rng, rng.randint(3, 7), rng.uniform(0.2, 0.9))
        want = all(
            not (host.n >= m.n and brutes.exists_brute(host, m))
            for m in fam.members
        )
        assert is_family_free(host, fam) == want


# ---------------------------------------------------------------------------
# biex


def test_biex_of_edge_critical_graphs_is_zero():
    for h in (K3, K4, C5):
        # every member of a C5 family carries a third (isolated) vertex, so
        # containment only bites once the host has 3 vertices
        start = 3 if h is C5 else 0
        for n in range(start, 9):
            res = biex(n, h)
            assert res.value == 0
            assert res.witness.edge_count() == 0
            assert res.exhaustive


def test_biex_below_member_size_is_unconstrained():
    # no 3-vertex member fits in a 2-vertex host, so the edge survives
    assert biex(2, C5).value == 1


def test_biex_small_k222_values():
    fam = decomposition_family(K222)
    # ex(n, C4) for n = 1..8
    expected = {1: 0, 2: 1, 3: 3, 4: 4, 5: 6, 6: 7, 7: 9, 8: 11}
    for n, want in expected.items():
        res = biex(n, K222)
        assert res.value == want, n
        assert res.witness.n == n
        assert res.witness.edge_count() == want
        assert is_family_free(res.witness, fam)
        assert res.exhaustive


def test_biex_matches_labeled_brute_on_tiny_hosts():
    fam = decomposition_family(K222)
    cores = [strip_isolated(m) for m in fam.minimal_members]
    for n in range(1, 6):
        want = brutes.max_edges_avoiding_brute(n, cores)
        assert biex(n, K222).value == want


def test_biex_cap():
    with pytest.raises(SearchCapError):
        biex(11, K222)
    with pytest.raises(ValueError):
        biex(-1, K222)


def test_biex_refuses_a_family_by_the_work_of_its_levels():
    # K_{3,3,3}'s only core is K_{3,3}: level 8 -> 9 would try 8869 << 8 masks
    with pytest.raises(SearchCapError, match="extending level 8"):
        biex(9, complete_multipartite((3, 3, 3)))


def test_biex_star_lower_bound():
    # graphs whose every family member has two sides of size >= 2 admit stars
    for h in (K222, blowup(C5, 2)):
        assert min_color_class_size(h) >= 2
        for n in range(4, 9):
            assert biex(n, h).value >= n - 1


# ---------------------------------------------------------------------------
# edge criticality


def test_is_edge_critical():
    assert is_edge_critical(K3)
    assert is_edge_critical(K4)
    assert is_edge_critical(C5)
    assert not is_edge_critical(K222)
    assert not is_edge_critical(cycle_graph(4))
    with pytest.raises(ValueError):
        is_edge_critical(complete_graph(1))
    # one colouring scan answers these 15-vertex graphs
    assert is_edge_critical(graph_from_edges(15, K4.edges()))
    assert not is_edge_critical(blowup(C5, 3))


@pytest.mark.parametrize("n", range(2, 6))
def test_is_edge_critical_matches_the_definition_on_all_small_graphs(n):
    for h in brutes.all_graphs(n):
        if h.edge_count():
            assert is_edge_critical(h) == _edge_critical_brute(h), graph6_encode(h)


# ---------------------------------------------------------------------------
# the overlay construction


def test_lower_bound_construction_battery():
    # n=8 and n=13 put 4 and 7 vertices in part 0
    for n in (8, 13):
        g, count = lower_bound_construction(n, K222, 2)
        assert g.n == n
        assert not contains_subgraph(g, K222)
        assert count == count_cliques(g, 2) == g.edge_count()
        assert count >= turan_clique_count(n, 2, 2)
        assert g.edge_count() >= turan_edge_count(n, 2) + 1


#: (count, graph6) of the K_{2,2,2} overlay for m = 2.  The counts were taken
#: at commit 29fc22c, when the overlay was cut from a dense n-vertex seed; the
#: graph6 strings are those of the overlay grown inside part 0.
PINNED_CONSTRUCTIONS = {
    8: (19, "G[~vf_"),
    9: (24, "HFb~vrw"),
    10: (29, "IFb~vrw}?"),
    11: (35, "JFaF~z{~Fw?"),
    12: (41, "KFaF~z{~Fw^_"),
    13: (48, "L?}CF~}~f{^o~_"),
    14: (55, "M?}CF~}~f{^o~_~_?"),
    15: (63, "N?}CCB~~v}^w~o~o^w?"),
    16: (71, "O?}CCB~~v}^w~o~o^wF}?"),
}


@pytest.mark.parametrize("n", sorted(PINNED_CONSTRUCTIONS))
def test_lower_bound_construction_pinned_bytes(n):
    want_count, want_graph6 = PINNED_CONSTRUCTIONS[n]
    g, count = lower_bound_construction(n, K222, 2)
    assert count == g.edge_count() == want_count
    assert graph6_encode(g) == want_graph6


@pytest.mark.parametrize("n", range(8, 17))
def test_lower_bound_construction_overlay_is_bipartite_in_part_zero(n):
    # K_{2,2,2}'s family is {C4}; part 0 of T_2(n) has top = ceil(n/2) vertices
    g, _ = lower_bound_construction(n, K222, 2)
    top = (n + 1) // 2
    half = (top + 1) // 2
    base = turan_graph(n, 2)
    extra = [(u, v) for u, v in g.edges() if not base.has_edge(u, v)]
    assert set(base.edges()) <= set(g.edges())
    assert all(0 <= u < half <= v < top for u, v in extra)
    overlay = graph_from_edges(top, extra)
    assert not brutes.exists_brute(overlay, cycle_graph(4))


#: m = 2 construction counts of two forbidden graphs whose exhaustive search
#: stops before n = 9 (K_{3,3,3}) and n = 10 (K_{2,3,3})
OVERLAY_COUNTS = {
    "K_{3,3,3}": (complete_multipartite((3, 3, 3)), [26, 31, 38, 44, 52, 59, 68, 76]),
    "K_{2,3,3}": (complete_multipartite((2, 3, 3)), [25, 30, 37, 43, 50, 57, 66, 74]),
}


@pytest.mark.parametrize("name", sorted(OVERLAY_COUNTS))
def test_lower_bound_construction_counts_past_exhaustive_reach(name):
    h, want = OVERLAY_COUNTS[name]
    assert [lower_bound_construction(n, h, 2)[1] for n in range(9, 17)] == want


W5 = graph_from_edges(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)])

#: m-clique counts of the construction for n = 4..24, taken at commit 33c7c13,
#: when the overlay was cut by a greedy max cut from the top-degree vertices
#: of a dense family-free graph on all n vertices (None: that seed's
#: exhaustive search refused n)
SEEDED_COUNTS = {
    ("K_{2,2,2}", 2): [5, 8, 11, 15, 19, 24, 29, 35, 41, 48, 55, 63, 71, 80, 89, 99, 109, 120, 131, 143, 155],
    ("K_{2,2,3}", 2): [5, 8, 11, 15, 19, 24, 29, 35, 41, 48, 55, 63, 71, 80, 89, 99, 109, 120, 131, 143, 155],
    ("K_{3,3,3}", 2): [5, 8, 11, 16, 20, None, None, 37, 43, 51, 58, 67, 75, 84, 93, 104, 114, 126, 137, 149, 161],
    ("K_{2,3,3}", 2): [5, 8, 11, 16, 20, 25, None, 36, 42, 50, 57, 65, 73, 82, 91, 102, 112, 123, 134, 146, 158],
    ("K_{1,2,2}", 2): [5, 7, 10, 14, 18, 22, 27, 33, 39, 45, 52, 60, 68, 76, 85, 95, 105, 115, 126, 138, 150],
    ("K_{2,2,2,2}", 2): [6, 9, 13, 18, 23, 29, 36, 43, 51, 60, 69, 79, 90, 101, 113, 126, 139, 153, 168, 183, 199],
    ("K_{2,2,2,2}", 3): [4, 7, 12, 20, 28, 39, 54, 69, 88, 112, 136, 165, 200, 235, 276, 324, 372, 427, 490, 553, 624],
    ("C5", 2): [4, 6, 9, 12, 16, 20, 25, 30, 36, 42, 49, 56, 64, 72, 81, 90, 100, 110, 121, 132, 144],
    ("C5[2]", 2): [5, 8, 11, 15, 19, 24, 29, 35, 41, 48, 55, 63, 71, 80, 89, 99, 109, 120, 131, 143, 155],
    ("W5", 2): [5, 8, 12, 16, 21, 27, 33, 40, 48, 56, 65, 75, 85, 96, 108, 120, 133, 147, 161, 176, 192],
    ("W5", 3): [2, 4, 8, 12, 18, 27, 36, 48, 64, 80, 100, 125, 150, 180, 216, 252, 294, 343, 392, 448, 512],
}


@pytest.mark.parametrize("key", sorted(SEEDED_COUNTS), ids=lambda k: f"{k[0]}-m{k[1]}")
def test_lower_bound_construction_never_below_the_seeded_counts(key):
    name, m = key
    h = {"C5[2]": blowup(C5, 2), "W5": W5}.get(name) or parse_graph(name)
    for n, old in enumerate(SEEDED_COUNTS[key], start=4):
        count = lower_bound_construction(n, h, m)[1]
        assert old is None or count >= old, n


def test_lower_bound_construction_triangle_count():
    # a 4-chromatic forbidden graph allows maximizing triangles (m = 3 <= r)
    h = complete_multipartite((2, 2, 2, 2))
    g, count = lower_bound_construction(12, h, 3)
    assert not contains_subgraph(g, h)
    assert count == count_cliques(g, 3)
    assert count >= turan_clique_count(12, 3, 3)


def test_lower_bound_construction_recheck_catches_a_forbidden_overlay(monkeypatch):
    # the complete bipartite overlay on part 0 of T_2(8) is a C4, which closes
    # a K_{2,2,2} with two vertices of part 1
    monkeypatch.setattr(search, "_grow_free", lambda top, cores, slots: graph_from_edges(top, slots))
    with pytest.raises(InternalCheckError):
        lower_bound_construction(8, K222, 2)


def test_lower_bound_construction_validation():
    with pytest.raises(SearchCapError):
        lower_bound_construction(50, K222, 2)  # n too large
    with pytest.raises(SearchCapError, match="14-vertex H"):
        lower_bound_construction(20, blowup(C5, 3), 2)  # 15-vertex H
    with pytest.raises(ValueError):
        lower_bound_construction(10, K222, 4)  # m > r + 1
    with pytest.raises(ValueError):
        lower_bound_construction(1, K222, 2)  # n < r
