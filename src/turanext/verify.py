"""Desk-scale verification suites behind ``verify`` and the acceptance tests.

Each criterion gets one function returning its failure lines and its info
lines; ``run_criterion`` turns them into a CriterionResult.  The functions
are deliberately heavy on cross-checks that do NOT reuse the code under
test: a vectorized sweep over all labeled 7-vertex graphs, a self-contained
labeled branch search for 4-cycle-free edge maxima, embedding-based oracles
for the closed-form counts, and fixed-seed exact-rational identity batteries.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import analytic, closedform, counting, family, graphs, search
from .closedform import Params


@dataclass
class CriterionResult:
    name: str
    passed: bool
    lines: list[str] = field(default_factory=list)


#: A check's failure lines (none means it passed), then lines reported either way.
Outcome = tuple[list[str], list[str]]


def _fail_cap(fails: list[str], cap: int = 8) -> list[str]:
    if len(fails) <= cap:
        return fails
    return fails[:cap] + [f"... and {len(fails) - cap} more failures"]


# ---------------------------------------------------------------------------
# 1. exact clique maxima against the closed form, with unique balanced witnesses


def check_turan_exact() -> Outcome:
    fails: list[str] = []
    cases = 0
    for r in range(2, 5):
        forbidden = graphs.complete_graph(r + 1)
        for m in range(2, r + 1):
            target = graphs.complete_graph(m)
            for n in range(r + 1, 9):
                cases += 1
                res = search.extremal_exact(n, target, forbidden)
                want = closedform.turan_clique_count(n, r, m)
                balanced = graphs.turan_graph(n, r)
                if res.best != want:
                    fails.append(
                        f"(n={n}, m={m}, r={r}): best {res.best} != {want}"
                    )
                elif not res.unique_up_to_iso:
                    fails.append(
                        f"(n={n}, m={m}, r={r}): {len(res.witnesses)} witnesses"
                    )
                elif not graphs.is_isomorphic(res.witnesses[0], balanced):
                    fails.append(f"(n={n}, m={m}, r={r}): witness not balanced")
    return fails, [f"{cases} (n, m, r) instances checked"]


# ---------------------------------------------------------------------------
# 2. clique bound over every labeled 7-vertex graph (vectorized, independent)


def _popcount_u32(x):
    import numpy as np

    x = x - ((x >> np.uint32(1)) & np.uint32(0x55555555))
    x = (x & np.uint32(0x33333333)) + ((x >> np.uint32(2)) & np.uint32(0x33333333))
    x = (x + (x >> np.uint32(4))) & np.uint32(0x0F0F0F0F)
    return ((x * np.uint32(0x01010101)) >> np.uint32(24)).astype(np.uint8)


def check_eckhoff() -> Outcome:
    import numpy as np

    n = 7
    pairs = [(i, j) for j in range(n) for i in range(j)]
    bit_of = {p: b for b, p in enumerate(pairs)}
    total = 1 << len(pairs)
    masks = np.arange(total, dtype=np.uint32)
    edge_counts = _popcount_u32(masks)

    clique_hits: dict[int, "np.ndarray"] = {}
    for k in range(3, n + 1):
        acc = np.zeros(total, dtype=np.uint8)
        for verts in combinations(range(n), k):
            m = np.uint32(0)
            for p in combinations(verts, 2):
                m |= np.uint32(1 << bit_of[p])
            acc += (masks & m) == m
        clique_hits[k] = acc

    omega = np.ones(total, dtype=np.uint8)
    omega += edge_counts > 0
    for k in range(3, n + 1):
        omega += clique_hits[k] > 0

    max_e = len(pairs)
    bound2 = np.zeros((n + 1, max_e + 1), dtype=np.int64)
    bound3 = np.zeros((n + 1, max_e + 1), dtype=np.int64)
    for w in range(2, n + 1):
        for e in range(max_e + 1):
            bound2[w, e] = closedform.eckhoff_bound(e, w, 2)
            if w >= 3:
                bound3[w, e] = closedform.eckhoff_bound(e, w, 3)

    fails: list[str] = []
    ei = edge_counts.astype(np.int64)
    viol2 = (omega >= 2) & (ei > bound2[omega, edge_counts])
    viol3 = (omega >= 3) & (clique_hits[3].astype(np.int64) > bound3[omega, edge_counts])
    for name, viol in (("m=2", viol2), ("m=3", viol3)):
        bad = np.flatnonzero(viol)
        if bad.size:
            fails.append(f"{name}: {bad.size} violations, first mask {int(bad[0])}")

    # spot-check the pipeline itself against the package counters
    rng = random.Random(7)
    for _ in range(200):
        idx = rng.randrange(total)
        g = graphs.graph_from_edges(
            n, [p for p in pairs if (idx >> bit_of[p]) & 1]
        )
        if g.edge_count() != int(edge_counts[idx]):
            fails.append(f"mask {idx}: edge count mismatch")
        if counting.count_cliques(g, 3) != int(clique_hits[3][idx]):
            fails.append(f"mask {idx}: triangle count mismatch")
        if counting.clique_number(g) != int(omega[idx]):
            fails.append(f"mask {idx}: clique number mismatch")

    return fails, [
        f"all {total} labeled 7-vertex graphs checked for m in (2, 3); "
        "200 pipeline spot-checks against the package counters"
    ]


# ---------------------------------------------------------------------------
# 3. the count-step identity across the full desk grid


def check_count_step() -> Outcome:
    fails: list[str] = []
    cases = 0
    for r in range(2, 6):
        for s in range(1, 6):
            for t in range(s, 6):
                p = Params(r, s, t)
                for n in range(r + 1, 301):
                    cases += 1
                    if not closedform.check_count_step_identity(p, n):
                        fails.append(f"(r={r}, s={s}, t={t}, n={n})")
    return fails, [f"{cases} identity instances checked"]


# ---------------------------------------------------------------------------
# 4. anchored degree count against the embedding counter


def check_anchored_degree() -> Outcome:
    fails: list[str] = []
    cases = 0
    for r in range(2, 4):
        for s in range(1, 4):
            for t in range(s, 4):
                p = Params(r, s, t)
                pattern = graphs.complete_multipartite(p.part_sizes())
                for n in range(1, 13):
                    for a in range(n):
                        cases += 1
                        want = closedform.anchored_degree_count(p, a, n)
                        host = graphs.anchored_turan_graph(r, a, n)
                        got = counting.pattern_degree(host, 0, pattern)
                        if got != want:
                            fails.append(
                                f"(r={r}, s={s}, t={t}, a={a}, n={n}): "
                                f"closed {want} != counted {got}"
                            )
    return fails, [f"{cases} (p, a, n) instances checked"]


# ---------------------------------------------------------------------------
# 5. balanced compositions win uniquely in the balanced regime


def check_multipartite_balance() -> Outcome:
    fails: list[str] = []
    cases = 0
    for s, t in ((1, 1), (1, 2), (2, 3)):
        for r in (2, 3):
            p = Params(r, s, t)
            start = (r - 1) * s + t
            for n in range(start, 61):
                cases += 1
                comp, _, unique = search.extremal_multipartite(n, p)
                balanced = tuple(sorted(closedform.turan_part_sizes(n, r)))
                if comp != balanced or not unique:
                    fails.append(
                        f"(r={r}, s={s}, t={t}, n={n}): got {comp}, unique={unique}"
                    )
    return fails, [f"{cases} (p, n) instances checked"]


# ---------------------------------------------------------------------------
# 6. the threshold pair: offset location and gain magnitude


def check_boundary_offset() -> Outcome:
    p = Params(2, 1, 3)
    fails: list[str] = []
    lines: list[str] = []
    for n in (200, 400, 800):
        values = {
            a: closedform.multipartite_pattern_count((a, n - a), p)
            for a in range(1, n // 2 + 1)
        }
        a_star = max(values, key=lambda a: (values[a], a))
        x_star = n / 2 - a_star
        target = math.sqrt(3 * n) / 2
        lines.append(f"n={n}: argmax offset {x_star:.0f}, predicted {target:.2f}")
        if abs(x_star - target) > 0.25 * math.sqrt(3 * n):
            fails.append(f"n={n}: offset {x_star} too far from {target:.2f}")
        if n == 800:
            gain = values[a_star] - values[n // 2]
            # the predicted constant is for ordered embeddings; the scan counts
            # copies, so the scale carries the 1/(s! t!) conversion factor
            scale = (3 * p.s * p.t / 2) * (n / 2) ** (p.s + p.t - 2)
            scale /= math.factorial(p.s) * math.factorial(p.t)
            ratio = gain / scale
            lines.append(f"n=800: gain ratio {ratio:.4f} (window [0.6, 1.4])")
            if not 0.6 <= ratio <= 1.4:
                fails.append(f"n=800: gain ratio {ratio:.4f} outside [0.6, 1.4]")
    return fails, lines


# ---------------------------------------------------------------------------
# 7. strictly-unbalanced regime beats balanced by a constant factor


def check_case_c_gain() -> Outcome:
    p = Params(2, 1, 4)
    n = 500
    best = max(
        closedform.multipartite_pattern_count((a, n - a), p)
        for a in range(1, n // 2 + 1)
    )
    balanced = closedform.turan_kst_count(n, p)
    fails = []
    if best * 100 < 101 * balanced:
        fails.append(f"max {best} < 1.01 * balanced {balanced}")
    return fails, [f"n={n}: best/balanced = {best / balanced:.4f} (floor 1.01)"]


# ---------------------------------------------------------------------------
# 8. profile curvature: numeric differentiation against the closed form


def check_curvature() -> Outcome:
    fails: list[str] = []
    cases = 0
    for r in range(2, 5):
        for s in range(1, 5):
            for t in range(s, 10):
                cases += 1
                p = Params(r, s, t)
                closed = analytic.profile_curvature_closed(p)
                numeric = analytic.profile_curvature_numeric(p)
                if closed != 0:
                    ok = abs(numeric - closed) <= 1e-4 * abs(closed)
                else:
                    ok = abs(numeric) <= 1e-3
                if not ok:
                    fails.append(
                        f"(r={r}, s={s}, t={t}): closed {closed}, numeric {numeric:.6f}"
                    )
    return fails, [f"{cases} curvature comparisons"]


# ---------------------------------------------------------------------------
# 9. the exact rational transfer identity on fixed-seed random tuples


def check_transfer_identity() -> Outcome:
    rng = random.Random(64)
    fails: list[str] = []
    for i in range(500):
        r = rng.randint(2, 5)
        s = rng.randint(1, 5)
        t = s + rng.randint(0, 3)
        a1 = t + rng.randint(0, 20)
        rest = sorted(rng.randint(a1, a1 + 20) for _ in range(r - 1))
        parts = (a1, *rest)
        p = Params(r, s, t)
        if not analytic.transfer_identity_check(parts, p):
            fails.append(f"tuple {i}: parts={parts}, (r={r}, s={s}, t={t})")
    return fails, ["500 fixed-seed tuples checked exactly"]


# ---------------------------------------------------------------------------
# 10. convergence audits for the two asymptotic expansions


def check_convergence() -> Outcome:
    fails: list[str] = []
    lines: list[str] = []
    triples = ((2, 1, 2), (3, 2, 3), (2, 2, 3))

    for r, s, t in triples:
        p = Params(r, s, t)
        errs = []
        for n in (2000, 4000, 8000):
            lo = 3 * n // 10
            hi = (r - 1) * n // r
            errs.append(
                max(analytic.step_ratio_error(p, a, n) for a in range(lo, hi + 1))
            )
        lines.append(
            f"step ratio (r={r}, s={s}, t={t}): errors "
            + ", ".join(f"{e:.3e}" for e in errs)
        )
        if not (errs[1] <= 0.7 * errs[0] and errs[2] <= 0.7 * errs[1]):
            fails.append(f"step ratio (r={r}, s={s}, t={t}): no 0.7x shrink {errs}")

    for r, s, t in triples:
        p = Params(r, s, t)
        for alpha in (0.1, 1.0, 3.0):
            limit = analytic.offset_gain_limit(alpha, p).value
            ys = [
                x * abs(analytic.offset_gain_rate(x, alpha, p).value - limit)
                for x in (1e3, 1e4, 1e5)
            ]
            for y1, y2 in zip(ys, ys[1:]):
                denom = max(abs(y1), abs(y2))
                if denom > 1e-9 and abs(y2 - y1) / denom > 0.10:
                    fails.append(
                        f"gain rate (r={r}, s={s}, t={t}, alpha={alpha}): "
                        f"scaled residuals {ys} vary by more than 10%"
                    )
                    break
    return fails, lines


# ---------------------------------------------------------------------------
# 11. decomposition families and exact excess numbers


def _labeled_c4_free_max_edges(n: int) -> int:
    """Max edges over all labeled n-vertex graphs with no 4-cycle subgraph.

    Places vertices one at a time; the new vertex's neighborhood must not
    contain two earlier vertices with a common earlier neighbor (exactly the
    condition for a new 4-cycle).  No isomorphism reduction and no shared
    machinery with the class-based engine, so it serves as an independent
    oracle for the excess search.
    """
    adj = [0] * n
    best = 0

    def place(v: int, edges: int) -> None:
        nonlocal best
        if edges > best:
            best = edges
        if v == n:
            return
        conf = []
        for a in range(v):
            m = adj[a]
            u = 0
            while m:
                low = m & -m
                m ^= low
                u |= adj[low.bit_length() - 1]
            conf.append(u & ~(1 << a))
        vbit = 1 << v

        def choose(allowed: int, size: int) -> None:
            place(v + 1, edges + size)
            rem = allowed
            while rem:
                low = rem & -rem
                rem ^= low
                a = low.bit_length() - 1
                adj[v] |= low
                adj[a] |= vbit
                choose(rem & ~conf[a], size + 1)
                adj[v] ^= low
                adj[a] ^= vbit

        choose((1 << v) - 1, 0)

    place(0, 0)
    return best


def check_family_biex() -> Outcome:
    fails: list[str] = []
    lines: list[str] = []
    k2 = graphs.complete_graph(2)
    k3 = graphs.complete_graph(3)
    k222 = graphs.complete_multipartite((2, 2, 2))
    c4 = graphs.cycle_graph(4)

    fam3 = family.decomposition_family(k3)
    if len(fam3.members) != 1 or not graphs.is_isomorphic(fam3.members[0], k2):
        fails.append("family(K3) is not a single edge")
    fam222 = family.decomposition_family(k222)
    if len(fam222.members) != 1 or not graphs.is_isomorphic(fam222.members[0], c4):
        fails.append("family of the 3-partite (2,2,2) graph is not one 4-cycle")

    for n in range(1, 9):
        value = family.biex(n, k3).value
        if value != 0:
            fails.append(f"edge-critical excess at n={n} is {value}, want 0")

    for n in range(4, 9):
        ours = family.biex(n, k222).value
        independent = _labeled_c4_free_max_edges(n)
        lines.append(f"n={n}: excess {ours}, independent labeled search {independent}")
        if ours != independent:
            fails.append(f"n={n}: excess {ours} != independent {independent}")

    battery = [
        ("three parts of 2", k222),
        ("three parts of 3", graphs.complete_multipartite((3, 3, 3))),
        ("doubled 5-cycle", graphs.blowup(graphs.cycle_graph(5), 2)),
    ]
    for label, h in battery:
        sigma = family.min_color_class_size(h)
        if sigma < 2:
            fails.append(f"{label}: expected min color class >= 2, got {sigma}")
            continue
        for n in range(4, 9):
            value = family.biex(n, h).value
            if value < n - 1:
                fails.append(f"{label}: excess {value} < n-1 at n={n}")
    lines.append("star lower bound verified on the 3-graph battery for 4 <= n <= 8")
    return fails, lines


# ---------------------------------------------------------------------------
# 12. the overlay construction stays forbidden-free and beats the bare base


def check_construction() -> Outcome:
    fails: list[str] = []
    k222 = graphs.complete_multipartite((2, 2, 2))
    for n in range(8, 17):
        g, count = family.lower_bound_construction(n, k222, 2)
        base = closedform.turan_edge_count(n, 2)
        if counting.contains_subgraph(g, k222):
            fails.append(f"n={n}: construction contains the forbidden graph")
        if g.edge_count() < base + 1:
            fails.append(f"n={n}: {g.edge_count()} edges, need >= {base + 1}")
        if count != g.edge_count():
            fails.append(f"n={n}: reported count {count} != edges {g.edge_count()}")
    return fails, ["construction audited for 8 <= n <= 16"]


# ---------------------------------------------------------------------------
# registry

_REGISTRY: dict[str, Callable[[], Outcome]] = {
    "turan-exact": check_turan_exact,
    "eckhoff": check_eckhoff,
    "count-step": check_count_step,
    "anchored-degree": check_anchored_degree,
    "multipartite-balance": check_multipartite_balance,
    "boundary-offset": check_boundary_offset,
    "case-c-gain": check_case_c_gain,
    "curvature": check_curvature,
    "transfer-identity": check_transfer_identity,
    "convergence": check_convergence,
    "family-biex": check_family_biex,
    "construction": check_construction,
}


def suite_names() -> list[str]:
    return list(_REGISTRY)


def run_criterion(name: str) -> CriterionResult:
    check = _REGISTRY.get(name)
    if check is None:
        raise ValueError(f"unknown verify suite {name!r}; know {suite_names() + ['all']}")
    fails, info = check()
    return CriterionResult(name, not fails, _fail_cap(fails) + info)


def run_suite(name: str) -> list[CriterionResult]:
    if name == "all":
        return [run_criterion(key) for key in _REGISTRY]
    return [run_criterion(name)]
