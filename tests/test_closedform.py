"""Closed-form counts: Turán quantities, the Eckhoff split, pattern counts."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from turanext.closedform import (
    Params,
    anchored_degree_count,
    check_count_step_identity,
    eckhoff_bound,
    eckhoff_decompose,
    kst_asymptotic_constant,
    multipartite_pattern_count,
    multiplicity_for,
    pointed_pattern_count,
    step_asymptotic_constant,
    turan_clique_count,
    turan_edge_count,
    turan_kst_count,
    turan_min_clique_degree,
    turan_part_sizes,
)
from turanext.counting import clique_masks, count_cliques, count_copies
from turanext.errors import InternalCheckError
from turanext.graphs import complete_multipartite, turan_graph


def test_params_validation():
    with pytest.raises(ValueError):
        Params(0, 1, 1)
    with pytest.raises(ValueError):
        Params(2, 0, 1)
    with pytest.raises(ValueError):
        Params(2, 3, 2)  # t < s


def test_params_properties():
    p = Params(3, 2, 5)
    assert p.gap == 3
    assert p.weight == Fraction(1)
    assert p.multiplicity == 2
    assert p.part_sizes() == (2, 2, 5)
    q = Params(3, 2, 2)
    assert q.weight == Fraction(1, 2)
    assert q.multiplicity == 1
    assert Params(2, 1, 1) == Params(2, 1, 1)
    assert len({Params(2, 1, 1), Params(2, 1, 1), Params(2, 1, 2)}) == 2


def test_multiplicity_for():
    assert multiplicity_for(2, 2, 4) == 1
    assert multiplicity_for(2, 3, 4) == 3


@pytest.mark.parametrize("r", range(1, 6))
@pytest.mark.parametrize("n", range(0, 21, 4))
def test_turan_sizes_and_edges_match_reality(n, r):
    sizes = turan_part_sizes(n, r)
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1
    assert sorted(sizes, reverse=True) == list(sizes)
    if n >= 1:
        g = turan_graph(n, r)
        assert g.edge_count() == turan_edge_count(n, r)


@pytest.mark.parametrize("r", range(1, 5))
@pytest.mark.parametrize("m", range(1, 5))
def test_turan_clique_count_vs_counter(r, m):
    for n in range(1, 13):
        want = count_cliques(turan_graph(n, r), m)
        assert turan_clique_count(n, r, m) == want


@pytest.mark.parametrize("r,m", [(2, 2), (3, 2), (3, 3), (4, 3)])
def test_turan_min_clique_degree_vs_counter(r, m):
    for n in range(r + 1, 12):
        g = turan_graph(n, r)
        per_vertex = [
            sum(1 for mask in clique_masks(g, m) if (mask >> v) & 1)
            for v in range(n)
        ]
        assert turan_min_clique_degree(n, r, m) == min(per_vertex)


def _elementary_symmetric_dp(values, m):
    """e_m of the multiset ``values`` by the standard O(len(values) * m) DP."""
    e = [1] + [0] * m
    for x in values:
        for k in range(m, 0, -1):
            e[k] += e[k - 1] * x
    return e[m]


@pytest.mark.parametrize("n", range(60))
def test_turan_clique_quantities_match_the_dp(n):
    """n < 60, 1 <= r < 70, m <= 7: both part sizes, r > n and r | n."""
    for r in range(1, 70):
        sizes = [x for x in turan_part_sizes(n, r) if x]
        for m in range(1, 8):
            assert turan_clique_count(n, r, m) == _elementary_symmetric_dp(sizes, m)
            if n >= r + 1 and r >= m:
                want = _elementary_symmetric_dp(turan_part_sizes(n, r)[1:], m - 1)
                assert turan_min_clique_degree(n, r, m) == want


def test_turan_clique_count_reads_two_part_sizes():
    # one part size: a single term; two sizes: a 200-step ratio chain
    assert turan_clique_count(40_000, 40_000, 20_000) == math.comb(40_000, 20_000)
    sizes = turan_part_sizes(600, 400)
    assert turan_clique_count(600, 400, 200) == _elementary_symmetric_dp(sizes, 200)
    assert turan_min_clique_degree(600, 400, 200) == _elementary_symmetric_dp(sizes[1:], 199)


# ---------------------------------------------------------------------------
# the edge-count split and the clique bound it feeds


def test_eckhoff_decompose_examples():
    assert eckhoff_decompose(7, 2) == (5, 1)
    assert eckhoff_decompose(10, 3) == (5, 2)
    assert eckhoff_decompose(0, 2) == (1, 0)


@pytest.mark.parametrize("omega", range(2, 8))
def test_eckhoff_decompose_reconstructs(omega):
    for e in range(0, 80):
        order, extra = eckhoff_decompose(e, omega)
        assert turan_edge_count(order, omega) + extra == e
        # the split is the canonical one: extra does not fill the next step
        assert turan_edge_count(order + 1, omega) > e


def _eckhoff_walk(e, omega):
    """The split by walking order up from 0 to the first window holding e."""
    order = 0
    while True:
        extra = e - turan_edge_count(order, omega)
        if extra * omega < (omega - 1) * order:
            return order, extra
        order += 1


@pytest.mark.parametrize("omega", range(2, 9))
def test_eckhoff_decompose_matches_the_walk(omega):
    for e in range(3000):
        assert eckhoff_decompose(e, omega) == _eckhoff_walk(e, omega)


@pytest.mark.parametrize("omega", [2, 3, 7, 10**6])
def test_eckhoff_decompose_bisects_huge_edge_counts(omega):
    e = 10**30
    order, extra = eckhoff_decompose(e, omega)
    assert turan_edge_count(order, omega) + extra == e
    assert 0 <= extra and extra * omega < (omega - 1) * order
    assert turan_edge_count(order + 1, omega) > e


def test_eckhoff_bound_examples_and_edge_identity():
    assert eckhoff_bound(10, 3, 3) == 5
    for omega in range(2, 7):
        for e in range(0, 60):
            assert eckhoff_bound(e, omega, 2) == e


def test_eckhoff_bound_rejects_bad_m():
    with pytest.raises(ValueError):
        eckhoff_bound(5, 3, 1)
    with pytest.raises(ValueError):
        eckhoff_bound(5, 2, 3)


# ---------------------------------------------------------------------------
# multipartite pattern counts against the generic counter


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


@pytest.mark.parametrize("r", [2, 3])
def test_pattern_count_matches_counter_on_all_small_hosts(r):
    """Dual route: closed-form counts vs the embedding counter, sums <= 12."""
    for s in range(1, 4):
        for t in range(s, 4):
            p = Params(r, s, t)
            pattern = complete_multipartite(p.part_sizes())
            for total in range(r, 13):
                for comp in _compositions(total, r):
                    host = complete_multipartite(comp)
                    assert multipartite_pattern_count(comp, p) == count_copies(
                        host, pattern
                    ), (comp, s, t)


def test_pointed_count_is_ordered_variant():
    p = Params(2, 1, 1)
    # K2 in K_{3,4}: pointed counts both orientations of the distinguished part
    assert pointed_pattern_count((3, 4), p) == 24
    assert multipartite_pattern_count((3, 4), p) == 12


def test_kst_count_examples():
    assert turan_kst_count(8, Params(2, 1, 3)) == 32
    assert turan_kst_count(6, Params(3, 1, 1)) == 8
    assert turan_kst_count(3, Params(3, 1, 1)) == 1
    assert turan_kst_count(2, Params(3, 1, 1)) == 0


# ---------------------------------------------------------------------------
# one pass over the parts that exist


def _pointed_double_sum(parts, p):
    """Oracle: sum over parts i of C(x_i, t) times C(x_j, s) for every j != i."""
    total = 0
    for i, x in enumerate(parts):
        term = math.comb(x, p.t)
        for j, y in enumerate(parts):
            if j != i:
                term *= math.comb(y, p.s)
        total += term
    return total


def _weak_compositions(total, parts):
    """Every composition of ``total`` into ``parts`` parts >= 0."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first, *rest)


@pytest.mark.parametrize("r", range(1, 6))
def test_pointed_recurrence_matches_double_sum(r):
    """Zero parts included: total <= 12, s <= 3, s <= t <= 4."""
    for s in range(1, 4):
        for t in range(s, 5):
            p = Params(r, s, t)
            for total in range(13):
                for comp in _weak_compositions(total, r):
                    want = _pointed_double_sum(comp, p)
                    assert pointed_pattern_count(comp, p) == want, (comp, s, t)
                    if s == t:
                        want //= r
                    assert multipartite_pattern_count(comp, p) == want, (comp, s, t)


def test_pointed_count_is_linear_in_parts():
    # one vertex per part: the double sum would take r^2 steps
    p = Params(30_000, 1, 1)
    assert pointed_pattern_count((1,) * 30_000, p) == 30_000
    assert multipartite_pattern_count((1,) * 30_000, p) == 1


WIDE = 10**7


@pytest.mark.parametrize(
    "compute, want",
    [
        (lambda: turan_clique_count(5, WIDE, 2), 10),
        (lambda: turan_edge_count(5, WIDE), 10),
        (lambda: turan_kst_count(5, Params(WIDE, 1, 1)), 0),
        (lambda: anchored_degree_count(Params(WIDE, 1, 1), 3, 5), 0),
    ],
    ids=["clique", "edge", "kst", "anchored"],
)
def test_turan_quantities_read_only_nonempty_parts(compute, want):
    """T_r(n) with r > n is K_n: no r-entry tuple of part sizes is built."""
    tracemalloc.start()
    try:
        got = compute()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 1 << 20


@pytest.mark.parametrize("r", range(1, 6))
def test_kst_count_below_r_vertices_matches_full_parts(r):
    for s, t in ((1, 1), (1, 2), (2, 3)):
        p = Params(r, s, t)
        for n in range(r + 2):
            full = multipartite_pattern_count(turan_part_sizes(n, r), p)
            assert turan_kst_count(n, p) == full


@pytest.mark.parametrize("r", [1, 3, WIDE])
def test_kst_count_rejects_negative_n(r):
    with pytest.raises(ValueError):
        turan_kst_count(-1, Params(r, 1, 1))


def test_anchored_degree_count_values():
    # r=2, s=t=1: the anchor sees every opposite vertex
    for n in range(2, 9):
        for a in range(n):
            assert anchored_degree_count(Params(2, 1, 1), a, n) == a
    assert anchored_degree_count(Params(2, 1, 2), 2, 6) == 7
    assert anchored_degree_count(Params(2, 1, 2), 0, 6) == 0


def test_anchored_degree_count_validation():
    with pytest.raises(ValueError):
        anchored_degree_count(Params(1, 1, 1), 0, 4)
    with pytest.raises(ValueError):
        anchored_degree_count(Params(2, 1, 1), 4, 4)


def test_non_exact_divisions_raise_internal_check_error(monkeypatch):
    from turanext import closedform

    monkeypatch.setattr(closedform, "pointed_pattern_count", lambda parts, p: 7)
    with pytest.raises(InternalCheckError, match="not divisible"):
        multipartite_pattern_count((3, 3), Params(2, 2, 2))
    # s = t makes both anchored terms equal; unequal ones leave half an edge
    values = iter((1, 0))
    monkeypatch.setattr(closedform, "turan_kst_count", lambda n, p: next(values))
    with pytest.raises(InternalCheckError, match="not an integer"):
        anchored_degree_count(Params(2, 1, 1), 1, 3)


def test_count_step_identity_small_grid():
    for r in (2, 3):
        for s, t in ((1, 1), (1, 2), (2, 3)):
            for n in range(r + 1, 40):
                assert check_count_step_identity(Params(r, s, t), n)


# ---------------------------------------------------------------------------
# asymptotic constants: ratios tighten toward 1 as n doubles


@pytest.mark.parametrize("r", [2, 3])
def test_asymptotic_constants_converge(r):
    for s in range(1, 4):
        for t in range(s, 4):
            p = Params(r, s, t)
            power = (r - 1) * s + t
            kst_c = float(kst_asymptotic_constant(p))
            step_c = float(step_asymptotic_constant(p))
            kst_err = []
            step_err = []
            for n in (1000, 2000, 4000):
                x = n / r
                kst_err.append(abs(turan_kst_count(n, p) / (kst_c * x**power) - 1))
                a = (r - 1) * n // r
                step_err.append(
                    abs(anchored_degree_count(p, a, n) / (step_c * x ** (power - 1)) - 1)
                )
            for errs in (kst_err, step_err):
                for before, after in zip(errs, errs[1:]):
                    # strictly closer, except degenerate cases that are exact
                    assert after < before or after < 1e-12, (s, t, errs)
                assert errs[2] < 0.05
