"""Seeded inputs and job lists of the four workloads, as plain data.

Graphs are ``(n, rows)`` pairs built with the benchmark's own code, so the
same function serves the worker (which turns them into library graphs) and
the checker (which judges the answers).  The seed only relabels fixed
structures or draws random hosts; every seed yields the same job list.

Every job is a tuple ``(op_id, half, kind, *args)``.  ``half`` splits each
workload into a structured half (clique-forbidden sets, symmetric graphs,
complete multipartite hosts, clique patterns) and a generic half, and the
two halves are timed apart.
"""

from __future__ import annotations

import random
from itertools import combinations

from oracles import bits, edges_of, from_edges, permute, turan_parts

NAMES = ("enumerate", "canon", "count", "local")


def complete(n: int):
    return from_edges(n, combinations(range(n), 2))


def cycle(n: int):
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def path(n: int):
    return from_edges(n, [(v, v + 1) for v in range(n - 1)])


def multipartite(parts):
    owner = [i for i, s in enumerate(parts) for _ in range(s)]
    n = len(owner)
    return from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if owner[u] != owner[v]])


def disjoint(g, copies: int):
    n = g[0]
    return from_edges(
        n * copies, [(u + i * n, v + i * n) for i in range(copies) for u, v in edges_of(g)]
    )


def blowup(g, s: int):
    return from_edges(
        g[0] * s,
        [(u * s + a, v * s + b) for u, v in edges_of(g) for a in range(s) for b in range(s)],
    )


PATTERNS = {
    "K2": complete(2),
    "K3": complete(3),
    "K4": complete(4),
    "C4": cycle(4),
    "C5": cycle(5),
    "P4": path(4),
    "K23": multipartite((2, 3)),
    "K222": multipartite((2, 2, 2)),
}

# Sizes stop where the library's exhaustive levels and its canonical search
# still finish in about a second each (see README: T(20,3) and 4 C5 are out).
LEVEL_TOPS = {"K3": 8, "K4": 7, "C4": 8, "C5": 7}

SYMMETRIC = {
    "turan_8_3": multipartite(turan_parts(8, 3)),
    "turan_11_3": multipartite(turan_parts(11, 3)),
    "turan_14_3": multipartite(turan_parts(14, 3)),
    "turan_17_3": multipartite(turan_parts(17, 3)),
    "c5x2": disjoint(cycle(5), 2),
    "c5x3": disjoint(cycle(5), 3),
    "c10": cycle(10),
    "c15": cycle(15),
    "k3x3": disjoint(complete(3), 3),
    "k3x4": disjoint(complete(3), 4),
    "c9": cycle(9),
    "c12": cycle(12),
    "blowup_c5_3": blowup(cycle(5), 3),
    "blowup_c7_2": blowup(cycle(7), 2),
}
RANDOM_SIZES = range(16, 49)
RANDOM_PER_SIZE = 4

COUNT_PATTERNS = ("C4", "C5", "K4", "P4", "K23")
MULTIPARTITE_HOSTS = {"M5678": (5, 6, 7, 8), "M444444": (4,) * 6, "M3_5_8_13": (3, 5, 8, 13)}

LOCAL_JOBS = (
    # (half, T, H, n values, search seed, restarts)
    ("structured", "K3", "K4", (16, 17, 19, 22, 25, 28), 1, 4),
    ("generic", "C4", "C5", (16, 22, 28), 1, 2),
    ("generic", "C5", "K3", (16,), 1, 2),
)


def shuffled(g, rng: random.Random):
    perm = list(range(g[0]))
    rng.shuffle(perm)
    return permute(g, perm)


def gnm(n: int, m: int, rng: random.Random):
    return from_edges(n, rng.sample(list(combinations(range(n), 2)), m))


def random_regular(n: int, d: int, rng: random.Random):
    """A d-regular graph: the circulant with offsets 1..d/2, then 10 |E| random
    degree-preserving double-edge swaps (the swaps that keep it simple)."""
    edges = [tuple(sorted((v, (v + k) % n))) for v in range(n) for k in range(1, d // 2 + 1)]
    present = set(edges)
    for _ in range(10 * len(edges)):
        i, j = rng.randrange(len(edges)), rng.randrange(len(edges))
        (a, b), (c, e) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, e = e, c
        new1, new2 = tuple(sorted((a, c))), tuple(sorted((b, e)))
        if len({a, b, c, e}) < 4 or new1 in present or new2 in present:
            continue
        present -= {edges[i], edges[j]}
        present |= {new1, new2}
        edges[i], edges[j] = new1, new2
    return from_edges(n, edges)


def triangle_profile(g):
    n, rows = g
    return sorted(sum((rows[u] & rows[v]).bit_count() for v in bits(rows[u])) for u in range(n))


def swapped(g, rng: random.Random):
    """Same degree sequence, different triangle profile (so not isomorphic)."""
    n, rows = g
    edges = edges_of(g)
    base = triangle_profile(g)
    while True:
        (a, b), (c, d) = rng.sample(edges, 2)
        if len({a, b, c, d}) < 4 or (rows[a] >> c) & 1 or (rows[b] >> d) & 1:
            continue
        kept = [e for e in edges if e not in ((a, b), (c, d))]
        h = from_edges(n, kept + [(a, c), (b, d)])
        if triangle_profile(h) != base:
            return h


def build(workload: str, seed: int) -> dict:
    """Inputs (graphs by name) and the job list of one workload."""
    rng = random.Random(f"{workload}:{seed}")
    pats = {name: shuffled(g, rng) for name, g in PATTERNS.items()}
    graphs: dict[str, tuple] = {}
    jobs: list[tuple] = []
    if workload == "enumerate":
        for half, forbidden, exact in (
            ("structured", ("K3", "K4"), [("K2", "K3", n) for n in range(4, 9)] + [("K3", "K4", n) for n in range(4, 8)]),
            ("generic", ("C4", "C5"), []),
        ):
            for h in forbidden:
                for k in range(1, LEVEL_TOPS[h] + 1):
                    jobs.append((f"level:{h}:{k}", half, "level", h, k))
            for t, h, n in exact:
                jobs.append((f"exact:{t}:{h}:{n}", half, "exact", t, h, n))
        jobs += [(f"biex:{n}", "generic", "biex", n) for n in range(4, 9)]
    elif workload == "canon":
        for name, g in SYMMETRIC.items():
            graphs[name] = g
            jobs.append((f"canon:{name}", "structured", "canon", name))
        for n in RANDOM_SIZES:
            for i in range(RANDOM_PER_SIZE):
                g = gnm(n, n * (n - 1) // 4, rng)
                graphs[f"random_{n}_{i}"] = g
                graphs[f"random_{n}_{i}:swap"] = swapped(g, rng)
                jobs.append((f"canon:random_{n}_{i}", "generic", "canon", f"random_{n}_{i}"))
        for name in list(graphs):
            if not name.endswith(":swap"):
                graphs[name + ":a"] = shuffled(graphs[name], rng)
                graphs[name + ":b"] = shuffled(graphs[name], rng)
    elif workload == "count":
        graphs["G64"] = random_regular(64, 32, rng)
        graphs["G48"] = random_regular(48, 14, rng)
        for name, parts in MULTIPARTITE_HOSTS.items():
            graphs[name] = shuffled(multipartite(parts), rng)
        v64, w64 = rng.sample(range(64), 2)
        v24, w24 = rng.sample(range(24), 2)
        for p in COUNT_PATTERNS:
            jobs.append((f"copies:G64:{p}", "generic", "copies", "G64", p))
            jobs.append((f"copies:G48:{p}", "generic", "copies", "G48", p))
            jobs.append((f"embeddings:G48:{p}", "generic", "embeddings", "G48", p))
            jobs += [(f"degree:G64:{v}:{p}", "generic", "degree", "G64", p, v) for v in (v64, w64)]
            jobs += [(f"copies:{h}:{p}", "structured", "copies", h, p) for h in MULTIPARTITE_HOSTS]
            jobs.append((f"embeddings:M5678:{p}", "structured", "embeddings", "M5678", p))
            jobs += [(f"degree:M444444:{v}:{p}", "structured", "degree", "M444444", p, v) for v in (v24, w24)]
    elif workload == "local":
        for half, t, h, sizes, search_seed, restarts in LOCAL_JOBS:
            for n in sizes:
                jobs.append((f"local:{t}:{h}:{n}", half, "local", t, h, n, search_seed, restarts))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"patterns": pats, "graphs": graphs, "jobs": jobs}
