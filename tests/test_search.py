"""Exhaustive class enumeration, exact extremal search, and the heuristics."""

from __future__ import annotations

import hashlib

import pytest

import brutes
from turanext import search as search_mod
from turanext.closedform import Params, turan_clique_count, turan_edge_count
from turanext.counting import Pattern, contains_subgraph, count_copies
from turanext.errors import SearchCapError
from turanext.graphs import (
    Graph,
    canonical_form,
    canonical_graph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    empty_graph,
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


def test_free_classes_start_one_pool_per_call(monkeypatch):
    """From an empty cache the K3 levels 6, 7 and 8 extend 14, 38 and 107
    parents, each at least 4 per worker, and share one pool."""
    monkeypatch.setattr(search_mod, "_CLASS_CACHE", {})
    started = []
    executor = search_mod.ProcessPoolExecutor

    def counted(*args, **kwargs):
        started.append(kwargs)
        return executor(*args, **kwargs)

    monkeypatch.setattr(search_mod, "ProcessPoolExecutor", counted)
    levels = free_graph_classes(8, [K3], workers=2)
    assert [len(lvl) for lvl in levels[5:8]] == [14, 38, 107]
    assert started == [{"max_workers": 2}]


@pytest.mark.parametrize("workers", [0, -2])
def test_free_classes_reject_workers_below_one(workers):
    with pytest.raises(ValueError, match="workers >= 1"):
        free_graph_classes(3, [K3], workers=workers)


K23 = complete_multipartite((2, 3))
#: sha256 of repr([[(g.n, g.adj) for g in lvl] for lvl in levels]).  Taken at
#: commit 9545d95, not from the code under test, as the ``canonical_graph``
#: image of the lists then returned, whose representative was the first child
#: of its class in (parent, mask) order and which were pinned against the
#: unpruned search that extended every free mask of every parent.
PINNED_CLASS_LISTS = [
    ("K3", [K3], 8, "62694e1a6ac62c20f4508ccea47cc2f9840b2c6d6a895a918e22f00f103643f6"),
    ("K4", [K4], 7, "7378a16552fb7dca632a6be10377121e6f9f105577cf77e2737692758341e5d6"),
    ("C4", [cycle_graph(4)], 8, "934af2d81556c3efb39278ad670da085bb25ecf57a7db381b7d0922034ab0c44"),
    ("C5", [cycle_graph(5)], 7, "27cec878f4558d8c0439b8a5064e9f85fba224c852214d2fa8389cfcd7a1e613"),
    ("P4", [path_graph(4)], 7, "3efc74cdb5665339cca54ebe1111cc380b966fdc016a6b3a90e3269e029bb0a6"),
    ("K13", [complete_multipartite((1, 3))], 7, "002dfb59bbd3749e3d5e0c5b3fa2e19e5b99bdd71cf4b59cf47f0d71f9bb23c5"),
    ("K23", [K23], 7, "d57ad4ab40f446859707bd986e2f650045693ef5d14037cca499384e6fd73d22"),
    ("2K2", [graph_from_edges(4, [(0, 1), (2, 3)])], 7, "7996391f515f167bfbfe3f8714970b34e27ba55ddb2f1bfe474250db415c718a"),
    ("K2+iso", [graph_from_edges(3, [(0, 1)])], 7, "b836252f6d0e652769d4606cf2d2396c03cf044310b9312171748aecb15f76a4"),
    ("C4,C5", [cycle_graph(4), cycle_graph(5)], 7, "c307a611cc1554deb953b712e2d007acbdad515019ba70d6a5eb060fa0ab5d62"),
]


@pytest.mark.parametrize("workers", [1, 2])
def test_free_classes_match_pinned_digests(workers):
    """Every level, representative, labeling and order is pinned: the
    canonical graphs of the classes, in ascending canonical form."""
    for name, forbidden, top, digest in PINNED_CLASS_LISTS:
        search_mod._CLASS_CACHE.clear()
        levels = free_graph_classes(top, forbidden, workers=workers)
        text = repr([[(g.n, g.adj) for g in lvl] for lvl in levels])
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


def test_free_classes_hold_canonical_graphs():
    """A class is represented by its canonical graph, whatever parent and
    mask generated it."""
    for name, forbidden, top, _ in PINNED_CLASS_LISTS:
        for lvl in free_graph_classes(top, forbidden):
            for g in lvl:
                assert canonical_graph(g) == g, (name, g.adj)


def test_free_classes_returns_fresh_level_lists():
    """A caller's edits to the returned levels do not reach the class cache."""
    free_graph_classes(5, [K3])[5].clear()
    assert len(free_graph_classes(5, [K3])[5]) == 14
    assert extremal_exact(5, complete_graph(2), K3).best == 6


def test_extend_one_keeps_one_child_per_brute_orbit():
    """One child per Aut(parent)-orbit of the free masks, orbits from every
    permutation of the parent and freeness from the containment kernel."""
    for forbidden in (K3, cycle_graph(4), K23):
        pats = [Pattern(forbidden)]
        for parent in [g for lvl in free_graph_classes(6, [forbidden]) for g in lvl]:
            k = parent.n
            group = brutes.automorphisms_brute(parent)
            orbits = set()
            for mask in range(1 << k):
                rows = [row | (mask >> v & 1) << k for v, row in enumerate(parent.adj)]
                if not contains_subgraph(Graph(k + 1, rows + [mask]), pats[0]):
                    images = (sum(1 << p[v] for v in range(k) if mask >> v & 1) for p in group)
                    orbits.add(frozenset(images))
            assert len(search_mod._extend_one(parent, pats)) == len(orbits), parent


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


def test_edgeless_forbidden_pattern_on_at_most_n_vertices_is_rejected():
    """An edgeless H on at most n vertices lies in every n-vertex graph, so
    neither route has an H-free host to search; on more vertices than n,
    every n-vertex graph is H-free."""
    for h in (complete_graph(1), empty_graph(3)):
        for search in (extremal_exact, extremal_local_search):
            with pytest.raises(ValueError, match="no edges"):
                search(3, K3, h)
    assert extremal_exact(2, complete_graph(2), empty_graph(3)).best == 1
    assert extremal_local_search(2, complete_graph(2), empty_graph(3)).best == 1
    assert extremal_exact(0, complete_graph(2), complete_graph(1)).best == 0


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


@pytest.mark.parametrize("n", range(1, 13))
def test_nondecreasing_compositions_are_the_sorted_brute_set(n):
    for parts in range(1, n + 1):
        want = sorted({tuple(sorted(c)) for c in _compositions_brute(n, parts)})
        assert list(search_mod._nondecreasing_compositions(n, parts)) == want


def test_extremal_multipartite_many_parts():
    # one part per vertex: the scan must not recurse once per part
    assert extremal_multipartite(1100, Params(1100, 1, 1)) == ((1,) * 1100, 1, True)


def test_extremal_multipartite_cap(monkeypatch):
    monkeypatch.setattr(search_mod, "_MULTIPARTITE_CAP", 100)
    with pytest.raises(SearchCapError):
        extremal_multipartite(40, Params(6, 1, 1))  # 1945 compositions
    # 300 compositions of 60 into 3 parts, the most any verify suite scans
    monkeypatch.setattr(search_mod, "_MULTIPARTITE_CAP", 300)
    assert extremal_multipartite(60, Params(3, 1, 1))[0] == (20, 20, 20)


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
