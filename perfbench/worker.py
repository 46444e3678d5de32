"""One round of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED TRACE_FILE_OR_DASH

The round imports the library from ``src/``, builds the seeded inputs
(together: the set-up time), then runs the workload's job list once and
reports each job's seconds and answer.  With a trace file it also records
spans, writes them to that file and reports their summary.  The answers are
judged by ``run.py``, not here.

A timer signal interrupts the round every ``TICK_S`` seconds to time a
fixed piece of bitset work of the library's kind, written in the benchmark
(``Speedometer``).  On the 2-core machine of the figures in README.md the
speed changes by a quarter and more in phases of about a second, inside
single library calls; each job reports its seconds without the ticks and the tick's
(harmonic) mean time during the job, and ``run.py`` scales every time to one
tick speed, so those swings cancel.
"""

import json
import os
import random
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from spans import Tracer, Untraced  # noqa: E402

TICK_S = 0.02
#: a 16-regular graph on 32 vertices; a tick counts its 4-cliques and
#: refines a vertex partition by neighbour counts, the library's two kinds of work
TICK_ROWS = workloads.random_regular(32, 16, random.Random(0))[1]


def _cliques(cand: int, need: int) -> int:
    if need == 1:
        return cand.bit_count()
    total = 0
    while cand:
        low = cand & -cand
        cand ^= low
        total += _cliques(cand & TICK_ROWS[low.bit_length() - 1], need - 1)
    return total


def _refine() -> int:
    """Three rounds of splitting vertex cells by neighbour counts per cell."""
    cells = [0xFFFF, 0xFFFF0000]
    for _ in range(3):
        out = []
        for cell in cells:
            groups: dict[tuple, int] = {}
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                sig = tuple((TICK_ROWS[low.bit_length() - 1] & c).bit_count() for c in cells)
                groups[sig] = groups.get(sig, 0) | low
            out.extend(groups[sig] for sig in sorted(groups, reverse=True))
        cells = out
    return len(cells)


class Speedometer:
    """Samples ``(start, seconds)`` of one tick from a periodic timer."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._tick()

    def _tick(self, *_) -> None:
        t = time.perf_counter()
        _cliques((1 << len(TICK_ROWS)) - 1, 4)
        _refine()
        self.samples.append((t, time.perf_counter() - t))

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def during(self, start: float, end: float) -> tuple[float, float]:
        """Seconds of [start, end] outside the ticks, and the tick's harmonic
        mean time over the ticks inside it (or the two nearest ones)."""
        inside = [d for t, d in self.samples if start <= t < end]
        if not inside:
            before = [d for t, d in self.samples if t < start][-1:]
            after = [d for t, d in self.samples if t >= end][:1]
            near = before + after
            return end - start, len(near) / sum(1 / d for d in near)
        return end - start - sum(inside), len(inside) / sum(1 / d for d in inside)


SPEED = Speedometer()
T0 = time.perf_counter()


def rows(g) -> list:
    return [g.n, list(g.adj)]


def run_job(job, lib, tr, pats, graphs):
    _, _, kind, *args = job
    graphs_mod, counting, search, family = lib["graphs"], lib["counting"], lib["search"], lib["family"]
    if kind == "level":
        h, k = args
        level = tr.call("search.free_graph_classes", f"level{k}.{h}", lib["free_graph_classes"], k, [pats[h]])[k]
        return [rows(g) for g in level]
    if kind == "exact":
        t, h, n = args
        res = tr.call("search.extremal_exact", "", search.extremal_exact, n, pats[t], pats[h])
        return {"best": res.best, "unique": res.unique_up_to_iso, "witnesses": [rows(w) for w in res.witnesses]}
    if kind == "biex":
        (n,) = args
        res = tr.call("family.biex", "", family.biex, n, pats["K222"])
        return {"value": res.value, "witness": rows(res.witness)}
    if kind == "canon":
        (name,) = args
        form, canon = graphs_mod.canonical_form, graphs_mod.canonical_graph
        label = name if not name.startswith("random") else "random"
        out = {
            "form_a": tr.call("graphs.canonical_form", label, form, graphs[name + ":a"]).hex(),
            "form_b": tr.call("graphs.canonical_form", label, form, graphs[name + ":b"]).hex(),
            "graph_a": rows(tr.call("graphs.canonical_graph", label, canon, graphs[name + ":a"])),
            "graph_b": rows(tr.call("graphs.canonical_graph", label, canon, graphs[name + ":b"])),
        }
        if name + ":swap" in graphs:
            out["form_swap"] = tr.call("graphs.canonical_form", label, form, graphs[name + ":swap"]).hex()
        return out
    if kind == "copies":
        host, p = args
        return tr.call("counting.count_copies", p, counting.count_copies, graphs[host], pats[p])
    if kind == "embeddings":
        host, p = args
        return tr.call("counting.count_embeddings", p, counting.count_embeddings, graphs[host], pats[p])
    if kind == "degree":
        host, p, v = args
        return tr.call("counting.pattern_degree", p, counting.pattern_degree, graphs[host], v, pats[p])
    if kind == "local":
        t, h, n, search_seed, restarts = args
        cfg = search.SearchConfig(mode="local", seed=search_seed, iterations=restarts)
        res = tr.call("search.extremal_local_search", "", search.extremal_local_search, n, pats[t], pats[h], cfg)
        return {"best": res.best, "witness": rows(res.witnesses[0])}
    raise ValueError(f"unknown job kind {kind!r}")


def main() -> None:
    workload, seed, trace_file = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    from turanext import counting, family, graphs, search

    lib = {"graphs": graphs, "counting": counting, "search": search, "family": family,
           "free_graph_classes": search.free_graph_classes}
    data = workloads.build(workload, seed)
    pats = {name: graphs.Graph(*g) for name, g in data["patterns"].items()}
    host_graphs = {name: graphs.Graph(*g) for name, g in data["graphs"].items()}
    setup_end = time.perf_counter()

    tr = Tracer() if trace_file != "-" else Untraced()
    if trace_file != "-":
        tr.install(lib)
    results = []
    for job in data["jobs"]:
        start = time.perf_counter()
        try:
            out, err = run_job(job, lib, tr, pats, host_graphs), None
        except Exception as exc:  # an op that raises is reported as failed
            out, err = None, f"{type(exc).__name__}: {exc}"
        results.append({"op": job[0], "half": job[1], "span": (start, time.perf_counter()), "out": out, "err": err})
    time.sleep(2 * TICK_S)  # a tick after the last job
    SPEED.stop()
    for res in results:
        res["s"], res["cal"] = SPEED.during(*res.pop("span"))
    setup_s, setup_cal = SPEED.during(T0, setup_end)
    report = {
        "setup_s": setup_s,
        "setup_cal": setup_cal,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": results,
    }
    if trace_file != "-":
        report["trace"] = tr.summary()
        tr.write(trace_file)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
