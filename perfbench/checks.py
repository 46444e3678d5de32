"""Judging one round's answers against oracles and properties.

``Checker(workload, seed).judge(outs)`` takes ``{op_id: answer}`` for one
round (the answers of ops that raised are left out) and returns
``{op_id: reason}`` for every wrong answer.  A run's rounds repeat the same
answers, so verdicts are cached on the answers themselves.
"""

from __future__ import annotations

import json

import oracles as o
import workloads

CLASS_COUNTS = {"K3": o.A006785, "C4": o.A006786, **o.RECOMPUTED}
#: chromatic number minus one of each forbidden pattern: the part count of the
#: Turan host that local search starts from and that Zykov's bound is about
PARTS = {"K3": 2, "K4": 3, "C5": 2}
CLIQUE_SIZE = {"K2": 2, "K3": 3, "K4": 4}


def _graph(out):
    n, rows = out
    rows = tuple(rows)
    if len(rows) != n or any(r >> n or (r >> v) & 1 for v, r in enumerate(rows)):
        raise ValueError("malformed adjacency rows")
    if any(((rows[u] >> v) & 1) != ((rows[v] >> u) & 1) for u in range(n) for v in range(u)):
        raise ValueError("asymmetric adjacency rows")
    return n, rows


class Checker:
    def __init__(self, workload: str, seed: int):
        self.data = workloads.build(workload, seed)
        self.jobs = {job[0]: job for job in self.data["jobs"]}
        self._memo: dict[str, dict[str, str]] = {}
        self._copies: dict[tuple, int] = {}

    def judge(self, outs: dict) -> dict[str, str]:
        key = json.dumps(outs, sort_keys=True)
        if key not in self._memo:
            wrong = {}
            for op, out in outs.items():
                try:
                    reason = self._check(self.jobs[op], out)
                except (ValueError, TypeError, KeyError, IndexError) as exc:
                    reason = f"unreadable answer: {exc}"
                if reason:
                    wrong[op] = reason
            wrong.update(self._cross_canon(outs))
            self._memo[key] = wrong
        return self._memo[key]

    def copies(self, host: str, g, pattern: str) -> int:
        key = (host, pattern)
        if key not in self._copies:
            self._copies[key] = o.copies(g, pattern)
        return self._copies[key]

    def _check(self, job, out) -> str | None:
        _, _, kind, *args = job
        return getattr(self, f"_check_{kind}")(out, *args)

    def _check_level(self, out, h, k):
        level = [_graph(g) for g in out]
        want = CLASS_COUNTS[h][k]
        if len(level) != want:
            return f"{len(level)} classes of {h}-free graphs on {k} vertices, expected {want}"
        if any(g[0] != k for g in level):
            return "a representative has the wrong vertex count"
        if any(not o.is_free(g, workloads.PATTERNS[h]) for g in level):
            return f"a representative contains {h}"
        if not o.distinct_classes(level):
            return "two representatives are isomorphic"
        return None

    def _check_exact(self, out, t, h, n):
        r, m = CLIQUE_SIZE[h] - 1, CLIQUE_SIZE[t]
        want = o.turan_cliques(n, r, m)
        if out["best"] != want:
            return f"ex({n}, {t}, {h}) = {out['best']}, Turan/Zykov give {want}"
        witnesses = [_graph(w) for w in out["witnesses"]]
        turan = workloads.multipartite(o.turan_parts(n, r))
        if not out["unique"] or len(witnesses) != 1 or not o.isomorphic(witnesses[0], turan):
            return f"witness is not the unique extremal graph T({n}, {r})"
        if not o.is_free(witnesses[0], workloads.PATTERNS[h]):
            return f"witness contains {h}"
        return None

    def _check_biex(self, out, n):
        w = _graph(out["witness"])
        if out["value"] != o.A006855[n]:
            return f"biex({n}, K222) = {out['value']}, ex({n}, C4) is {o.A006855[n]} (A006855)"
        if w[0] != n or o.edge_count(w) != out["value"] or not o.is_free(w, workloads.PATTERNS["C4"]):
            return "witness is not a C4-free graph with that many edges"
        return None

    def _check_canon(self, out, name):
        graphs = self.data["graphs"]
        if out["form_a"] != out["form_b"]:
            return "canonical_form changes under relabeling"
        if out["graph_a"] != out["graph_b"]:
            return "canonical_graph differs between relabelings"
        if not o.isomorphic(_graph(out["graph_a"]), graphs[name]):
            return "canonical_graph is not isomorphic to its input"
        if "form_swap" in out:
            if o.invariant(graphs[name]) == o.invariant(graphs[name + ":swap"]):
                return "edge-swapped partner is not provably non-isomorphic"
            if out["form_swap"] == out["form_a"]:
                return "non-isomorphic edge-swapped partner has the same form"
        return None

    def _cross_canon(self, outs) -> dict[str, str]:
        """Items with different invariants (so not isomorphic) need different forms."""
        by_form: dict[str, list[str]] = {}
        for op, out in outs.items():
            if op.startswith("canon:") and isinstance(out, dict) and "form_a" in out:
                by_form.setdefault(out["form_a"], []).append(op)
        wrong = {}
        graphs = self.data["graphs"]
        for ops in by_form.values():
            if len(ops) == 1:
                continue
            invs = {op: o.invariant(graphs[op.split(":", 1)[1]]) for op in ops}
            if len(set(invs.values())) > 1:
                for op in ops:
                    wrong[op] = "shares its form with a non-isomorphic graph"
        return wrong

    def _check_copies(self, out, host, p):
        want = self.copies(host, self.data["graphs"][host], p)
        return None if out == want else f"{out} copies of {p} in {host}, oracle says {want}"

    def _check_embeddings(self, out, host, p):
        want = self.copies(host, self.data["graphs"][host], p) * o.automorphisms(workloads.PATTERNS[p])
        return None if out == want else f"{out} embeddings of {p} in {host}, oracle says {want}"

    def _check_degree(self, out, host, p, v):
        want = o.copies_through(self.data["graphs"][host], v, p)
        return None if out == want else f"{out} copies of {p} through {host}:{v}, oracle says {want}"

    def _check_local(self, out, t, h, n, search_seed, restarts):
        w = _graph(out["witness"])
        best = out["best"]
        if w[0] != n or not o.is_free(w, workloads.PATTERNS[h]):
            return f"witness is not an {h}-free graph on {n} vertices"
        if o.copies(w, t) != best:
            return f"witness holds {o.copies(w, t)} copies of {t}, not best = {best}"
        floor = o.copies(workloads.multipartite(o.turan_parts(n, PARTS[h])), t)
        if best < floor:
            return f"best = {best} is below the Turan seed host's {floor}"
        if t in CLIQUE_SIZE and h in CLIQUE_SIZE:
            bound = o.turan_cliques(n, PARTS[h], CLIQUE_SIZE[t])
            if best > bound:
                return f"best = {best} exceeds Zykov's bound {bound}"
        return None
