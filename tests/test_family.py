"""Decomposition families, excess edge maxima, and the overlay construction."""

from __future__ import annotations

import random

import pytest

import brutes
from turanext.closedform import turan_clique_count, turan_edge_count
from turanext.counting import contains_subgraph, count_cliques
from turanext.errors import SearchCapError
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
    chromatic_number,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    graph6_decode,
    graph6_encode,
    graph_from_edges,
    is_isomorphic,
    strip_isolated,
)

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
            direct = host.n >= member.n and brutes.embeddings_brute(host, member) > 0
            via_core = host.n >= member.n and contains_subgraph(host, core)
            assert direct == via_core


def test_is_family_free_matches_brute():
    fam = decomposition_family(K222)
    rng = random.Random(17)
    for _ in range(30):
        host = brutes.random_graph(rng, rng.randint(3, 7), rng.uniform(0.2, 0.9))
        want = all(
            not (host.n >= m.n and brutes.embeddings_brute(host, m) > 0)
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


# ---------------------------------------------------------------------------
# the overlay construction


def test_lower_bound_construction_battery():
    # n=8 exercises the exact-excess seed, n=13 the greedy fallback
    for n in (8, 13):
        g, count = lower_bound_construction(n, K222, 2)
        assert g.n == n
        assert not contains_subgraph(g, K222)
        assert count == count_cliques(g, 2) == g.edge_count()
        assert count >= turan_clique_count(n, 2, 2)
        assert g.edge_count() >= turan_edge_count(n, 2) + 1


#: (count, graph6) of the K_{2,2,2} overlay for m = 2, taken at commit 29fc22c:
#: n <= 10 reads biex's witness, n > 10 the greedy family-free graph
PINNED_CONSTRUCTIONS = {
    8: (19, "Gk~vf_"),
    9: (24, "HkR~vrw"),
    10: (29, "IkF~vrw}?"),
    11: (35, "JkEF~z{~Fw?"),
    12: (41, "KkEF~z{~Fw^_"),
    13: (48, "LkE?N~}~f{^o~_"),
    14: (55, "MkE?N~}~f{^o~_~_?"),
    15: (63, "NkE?KB~~v}^w~o~o^w?"),
    16: (71, "OkE?KB~~v}^w~o~o^wF}?"),
}


@pytest.mark.parametrize("n", sorted(PINNED_CONSTRUCTIONS))
def test_lower_bound_construction_pinned_bytes(n):
    want_count, want_graph6 = PINNED_CONSTRUCTIONS[n]
    g, count = lower_bound_construction(n, K222, 2)
    assert count == g.edge_count() == want_count
    assert graph6_encode(g) == want_graph6


def test_lower_bound_construction_triangle_count():
    # a 4-chromatic forbidden graph allows maximizing triangles (m = 3 <= r)
    h = complete_multipartite((2, 2, 2, 2))
    g, count = lower_bound_construction(12, h, 3)
    assert not contains_subgraph(g, h)
    assert count == count_cliques(g, 3)
    assert count >= turan_clique_count(12, 3, 3)


def test_lower_bound_construction_validation():
    with pytest.raises(SearchCapError):
        lower_bound_construction(50, K222, 2)  # n too large
    with pytest.raises(ValueError):
        lower_bound_construction(10, K222, 4)  # m > r + 1
    with pytest.raises(ValueError):
        lower_bound_construction(1, K222, 2)  # n < r
