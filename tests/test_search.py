"""Exhaustive class enumeration, exact extremal search, and the heuristics."""

from __future__ import annotations

import pytest

import brutes
from turanext import search as search_mod
from turanext.closedform import Params, turan_clique_count, turan_edge_count
from turanext.counting import contains_subgraph, count_copies
from turanext.errors import SearchCapError
from turanext.graphs import (
    canonical_form,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    graph_from_edges,
    is_isomorphic,
    path_graph,
    turan_graph,
)
from turanext.search import (
    SearchConfig,
    extremal_exact,
    extremal_local_search,
    extremal_multipartite,
    free_graph_classes,
)

K3 = complete_graph(3)
K4 = complete_graph(4)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(mode="annealing")
    with pytest.raises(ValueError):
        SearchConfig(iterations=0)
    with pytest.raises(ValueError):
        SearchConfig(workers=0)


def test_free_classes_known_counts():
    # triangle-free graph classes per vertex count
    sizes = [len(lvl) for lvl in free_graph_classes(8, [K3])]
    assert sizes == [1, 1, 2, 3, 7, 14, 38, 107, 410]
    # 4-cycle-free
    sizes = [len(lvl) for lvl in free_graph_classes(7, [cycle_graph(4)])]
    assert sizes == [1, 1, 2, 4, 8, 18, 44, 117]


def test_free_classes_known_counts_generic():
    """Forbidden sets that are not cliques, each level pinned."""
    star3 = complete_multipartite((1, 3))
    two_k2 = graph_from_edges(4, [(0, 1), (2, 3)])
    cases = [
        ([cycle_graph(5)], [1, 1, 2, 4, 11, 26, 80, 251]),
        ([path_graph(4)], [1, 1, 2, 4, 6, 9, 15, 21, 31]),
        ([star3], [1, 1, 2, 4, 7, 11, 19, 29, 46]),
        ([two_k2], [1, 1, 2, 4, 5, 6, 7, 8, 9]),
        ([cycle_graph(4), K3], [1, 1, 2, 3, 6, 11, 23, 48, 114]),
    ]
    for forbidden, sizes in cases:
        levels = free_graph_classes(len(sizes) - 1, forbidden)
        assert [len(lvl) for lvl in levels] == sizes, forbidden


def test_free_classes_match_labeled_brute():
    """Class counts at tiny n against direct labeled enumeration + dedup."""
    for forbidden in (K3, cycle_graph(4), complete_multipartite((1, 2))):
        levels = free_graph_classes(5, [forbidden])
        for n in range(0, 6):
            seen = set()
            for g in brutes.all_graphs(n):
                if brutes.embeddings_brute(g, forbidden) == 0:
                    seen.add(canonical_form(g))
            assert len(levels[n]) == len(seen), (n, forbidden)
            assert {canonical_form(g) for g in levels[n]} == seen


def test_free_classes_are_actually_free_and_distinct():
    levels = free_graph_classes(6, [K4])
    for n, lvl in enumerate(levels):
        forms = [canonical_form(g) for g in lvl]
        assert len(set(forms)) == len(forms)
        for g in lvl:
            assert g.n == n
            assert not contains_subgraph(g, K4)


def test_free_classes_worker_invariance():
    solo = [
        [canonical_form(g) for g in lvl]
        for lvl in free_graph_classes(6, [K3], workers=1)
    ]
    search_mod._CLASS_CACHE.clear()
    multi = [
        [canonical_form(g) for g in lvl]
        for lvl in free_graph_classes(6, [K3], workers=3)
    ]
    assert solo == multi


def test_free_classes_worker_invariance_generic():
    c5 = [cycle_graph(5)]
    search_mod._CLASS_CACHE.clear()
    solo = [[g.adj for g in lvl] for lvl in free_graph_classes(7, c5, workers=1)]
    search_mod._CLASS_CACHE.clear()
    multi = [[g.adj for g in lvl] for lvl in free_graph_classes(7, c5, workers=2)]
    assert solo == multi


def test_free_classes_rejects_empty_forbidden_list():
    with pytest.raises(ValueError):
        free_graph_classes(4, [])


def test_free_classes_rejects_negative_n():
    free_graph_classes(6, [K3])
    with pytest.raises(ValueError):
        free_graph_classes(-2, [K3])


def test_free_classes_levels_ascend_in_canonical_form():
    """extremal_exact and biex read their witnesses off this order."""
    cases = [([K3], 8), ([K4], 7), ([cycle_graph(5)], 7), ([cycle_graph(4), K3], 8)]
    for forbidden, top in cases:
        for lvl in free_graph_classes(top, forbidden):
            forms = [canonical_form(g) for g in lvl]
            assert all(a < b for a, b in zip(forms, forms[1:]))


# ---------------------------------------------------------------------------
# exact extremal search


def test_extremal_exact_known_triangle_optimum():
    res = extremal_exact(6, K3, K4)
    assert res.best == 8
    assert res.exhaustive and res.unique_up_to_iso
    assert is_isomorphic(res.witnesses[0], turan_graph(6, 3))


def test_extremal_exact_matches_closed_form_triangle_free_edges():
    for n in range(2, 8):
        res = extremal_exact(n, complete_graph(2), K3)
        assert res.best == turan_edge_count(n, 2)
        assert res.unique_up_to_iso
        assert is_isomorphic(res.witnesses[0], turan_graph(n, 2))


def test_extremal_exact_witnesses_are_verified_deduped():
    res = extremal_exact(5, K3, K4)
    forms = [canonical_form(w) for w in res.witnesses]
    assert forms == sorted(forms)
    assert len(set(forms)) == len(forms)
    for w in res.witnesses:
        assert count_copies(w, K3) == res.best
        assert not contains_subgraph(w, K4)


def test_extremal_exact_zero_case():
    # forbidding an edge leaves only empty graphs
    res = extremal_exact(4, K3, complete_graph(2))
    assert res.best == 0
    assert res.witnesses[0].edge_count() == 0


def test_extremal_exact_caps():
    with pytest.raises(SearchCapError):
        extremal_exact(9, K3, K4)
    with pytest.raises(SearchCapError):
        extremal_exact(10, complete_graph(2), K3)  # dense cap is 9
    with pytest.raises(ValueError):
        extremal_exact(-1, K3, K4)


def test_extremal_exact_worker_invariance():
    base = extremal_exact(6, K3, K4)
    search_mod._CLASS_CACHE.clear()
    threaded = extremal_exact(6, K3, K4, SearchConfig(workers=2))
    assert base.best == threaded.best
    assert [canonical_form(w) for w in base.witnesses] == [
        canonical_form(w) for w in threaded.witnesses
    ]


# ---------------------------------------------------------------------------
# multipartite scan


def _compositions_brute(n, parts):
    if parts == 1:
        yield (n,)
        return
    for first in range(1, n - parts + 2):
        for rest in _compositions_brute(n - first, parts - 1):
            yield (first, *rest)


@pytest.mark.parametrize("n,p", [(9, Params(2, 1, 3)), (11, Params(3, 1, 2)), (10, Params(2, 2, 2))])
def test_extremal_multipartite_matches_brute_scan(n, p):
    from turanext.closedform import multipartite_pattern_count

    comp, value, unique = extremal_multipartite(n, p)
    table = {}
    for raw in _compositions_brute(n, p.r):
        table.setdefault(tuple(sorted(raw)), multipartite_pattern_count(raw, p))
    best = max(table.values())
    argmax = sorted(c for c, v in table.items() if v == best)
    assert value == best
    assert comp == argmax[0]
    assert unique == (len(argmax) == 1)


def test_extremal_multipartite_boundary_small_n_prefers_imbalance():
    # on the threshold pair (1,3), tiny hosts favour a lopsided split
    comp, value, unique = extremal_multipartite(6, Params(2, 1, 3))
    assert comp == (1, 5)
    assert value == 10
    assert unique


def test_extremal_multipartite_needs_enough_vertices():
    with pytest.raises(ValueError):
        extremal_multipartite(2, Params(3, 1, 1))


# ---------------------------------------------------------------------------
# local search


def test_local_search_finds_turan_optimum():
    cfg = SearchConfig(mode="local", seed=0, iterations=20)
    res = extremal_local_search(6, complete_graph(2), K3, cfg)
    assert res.best == turan_edge_count(6, 2)
    assert not res.exhaustive
    assert not contains_subgraph(res.witnesses[0], K3)


def test_local_search_is_deterministic():
    cfg = SearchConfig(mode="local", seed=42, iterations=8)
    a = extremal_local_search(7, K3, K4, cfg)
    b = extremal_local_search(7, K3, K4, cfg)
    assert a.best == b.best
    assert [canonical_form(w) for w in a.witnesses] == [
        canonical_form(w) for w in b.witnesses
    ]


def test_local_search_matches_exact_on_small_instances():
    exact = extremal_exact(6, K3, K4).best
    cfg = SearchConfig(mode="local", seed=1, iterations=30)
    heur = extremal_local_search(6, K3, K4, cfg)
    assert heur.best == exact
    assert heur.n == 6


def test_local_search_witness_is_free():
    cfg = SearchConfig(mode="local", seed=5, iterations=6)
    res = extremal_local_search(10, K3, complete_multipartite((2, 2, 2)), cfg)
    assert not contains_subgraph(res.witnesses[0], complete_multipartite((2, 2, 2)))
    assert res.best == count_copies(res.witnesses[0], K3)
