"""Benchmark of the turanext library: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --recompute-counts

A run repeats whole rounds of the workload's job list until ``--seconds``
are spent (at least five rounds; six, half of them traced, with ``--trace 1``).
Each round is a fresh interpreter running ``worker.py``, so the library's
class cache and lazy pattern data start empty every time.  Answers are
judged by ``checks.py`` against oracles that share no code with the library.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics (medians over rounds), ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from checks import CLASS_COUNTS, Checker  # noqa: E402

#: seconds one speedometer tick takes at the reference speed; every reported
#: time is scaled to that speed (``scaled``), see worker.Speedometer
REF_CAL_S = 0.0005
#: no round starts after this many seconds of a run, and rounds are stopped
#: 20 s past it, so a run ends well within three minutes even when slow
BUDGET_S = 140
TRACE_DIR = os.path.join(ROOT, ".perfbench")

FUNCTIONS = (
    "graphs.canonical_form",
    "graphs.canonical_graph",
    "counting.clique_masks",
    "counting.exists_embedding_through_vertex",
    "counting.count_copies",
    "counting.count_embeddings",
    "counting.pattern_degree",
    "counting.embeddings_through_edge",
    "counting.exists_embedding_through_edge",
    "counting.contains_subgraph",
    "search.free_graph_classes",
    "search.extremal_exact",
    "search.extremal_local_search",
    "family.biex",
)
LAYERS = ("graphs", "counting", "search", "family")
#: the three top levels of each forbidden set get their own metrics
LEVEL_METRICS = {h: range(top - 2, top + 1) for h, top in workloads.LEVEL_TOPS.items()}


def run_round(workload: str, seed: int, trace_file: str | None, timeout: float = BUDGET_S) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), trace_file or "-"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scaled(seconds: float, cal: float) -> float:
    return seconds * REF_CAL_S / cal


def round_scale(r: dict) -> float:
    return REF_CAL_S / statistics.median(job["cal"] for job in r["jobs"])


def end_to_end(rounds: list[dict], scale: bool = True) -> dict:
    """Times are sums over jobs of each job's median over rounds, so a slow
    phase of the machine that hits one job in one round does not count;
    scaled to the reference speed unless ``scale`` is off."""
    med = statistics.median
    per_job: dict[str, list[float]] = {}
    half_of: dict[str, str] = {}
    for r in rounds:
        for job in r["jobs"]:
            per_job.setdefault(job["op"], []).append(scaled(job["s"], job["cal"]) if scale else job["s"])
            half_of[job["op"]] = job["half"]
    halves = {"structured": 0.0, "generic": 0.0}
    for op, times in per_job.items():
        halves[half_of[op]] += med(times)
    setups = [scaled(r["setup_s"], r["setup_cal"]) if scale else r["setup_s"] for r in rounds]
    return {
        "setup_s": (med(setups), "s"),
        "wall_s": (halves["structured"] + halves["generic"], "s"),
        "structured_s": (halves["structured"], "s"),
        "generic_s": (halves["generic"], "s"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in rounds), "MB"),
    }


def per_layer(r: dict) -> dict:
    """Per-layer metrics of one traced round, times scaled by the round's loop speed."""
    tr = r["trace"]
    out = {}
    for fn in FUNCTIONS:
        out[f"{fn}.calls"] = (tr["calls"].get(fn, 0), "count")
        out[f"{fn}.s"] = (tr["s"].get(fn, 0.0), "s")
    calls = tr["calls"].get("graphs.canonical_form", 0)
    out["graphs.canonical_form.us_per_call"] = (
        tr["s"].get("graphs.canonical_form", 0.0) / calls * 1e6 if calls else 0.0, "us")
    for item in (*workloads.SYMMETRIC, "random"):
        out[f"graphs.canonical_form.{item}.s"] = (tr["label_s"].get(f"graphs.canonical_form.{item}", 0.0), "s")
    for p in workloads.COUNT_PATTERNS:
        out[f"counting.count_copies.{p}.s"] = (tr["label_s"].get(f"counting.count_copies.{p}", 0.0), "s")
    sizes = {job["op"]: len(job["out"]) for job in r["jobs"] if job["op"].startswith("level:") and job["out"]}
    masks = children = kept = 0
    for h, top in workloads.LEVEL_TOPS.items():
        for k in range(1, top + 1):
            label = f"level{k}.{h}"
            lm = {
                "s": (tr["label_s"].get(f"search.free_graph_classes.{label}", 0.0), "s"),
                "masks_tried": (sizes.get(f"level:{h}:{k - 1}", 1 if k == 1 else 0) << (k - 1), "count"),
                "children": (tr["children"].get(label, 0), "count"),
                "kept": (sizes.get(f"level:{h}:{k}", 0), "count"),
            }
            if f"level:{h}:{k}" in sizes:
                masks += lm["masks_tried"][0]
                children += lm["children"][0]
                kept += lm["kept"][0]
            if k in LEVEL_METRICS[h]:
                out.update({f"search.level{k}.{h}.{q}": v for q, v in lm.items()})
    out["search.filter_pass"] = (children / masks if masks else 0.0, "ratio")
    out["search.dedupe_yield"] = (kept / children if children else 0.0, "ratio")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tr["self_s"].get(layer, 0.0), "s")
    out["search.extremal_local_search.best_copies"] = (
        sum(job["out"]["best"] for job in r["jobs"] if job["op"].startswith("local:") and job["out"]), "copies")
    out["trace.spans"] = (tr["spans"], "count")
    scale = round_scale(r)
    return {k: (v * scale if u in ("s", "us") else v, u) for k, (v, u) in out.items()}


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[list, list]:
    """Rounds until ``seconds`` are spent; with tracing, untraced and traced alternate."""
    untraced, traced = [], []
    trace_file = os.path.join(TRACE_DIR, f"trace-{workload}-seed{seed}.jsonl")
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
    start = time.perf_counter()
    last = 0.0
    min_rounds = 6 if trace else 5
    while True:
        done = len(untraced) + len(traced)
        elapsed = time.perf_counter() - start
        if done >= min_rounds and elapsed + last > seconds:
            break
        if done >= 2 and elapsed + last > BUDGET_S:
            break
        t = time.perf_counter()
        timeout = BUDGET_S + 20 - elapsed
        if trace and done % 2 == 1:
            traced.append(run_round(workload, seed, trace_file, timeout))
        else:
            untraced.append(run_round(workload, seed, None, timeout))
        last = time.perf_counter() - t
    return untraced, traced


def judge(checker: Checker, rounds: list[dict]) -> tuple[int, int, int, list[str]]:
    attempted = raised = wrong = 0
    notes: list[str] = []
    for r in rounds:
        outs = {}
        for job in r["jobs"]:
            attempted += 1
            if job["err"] is not None:
                raised += 1
                notes.append(f"{job['op']}: raised {job['err']}")
            else:
                outs[job["op"]] = job["out"]
        bad = checker.judge(outs)
        wrong += len(bad)
        notes += [f"{op}: {reason}" for op, reason in bad.items()]
    return attempted, raised, wrong, notes


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
    }


def benchmark(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "turanext", "__init__.py")):
        print("perfbench: the library sources (src/turanext) are missing", file=sys.stderr)
        return 2
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **machine()}
    print(json.dumps({"run": info}))
    untraced, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    checker = Checker(args.workload, args.seed)
    attempted, raised, wrong, notes = judge(checker, untraced + traced)
    for note in sorted(set(notes)):
        print(f"FAILED {note}")
    med = statistics.median
    if args.trace:
        layers = [per_layer(r) for r in traced]
        metrics = {k: ((statistics.median_low if isinstance(v, int) else med)([m[k][0] for m in layers]), u)
                   for k, (v, u) in layers[0].items()}
        overhead = end_to_end(traced)["wall_s"][0] / end_to_end(untraced)["wall_s"][0] - 1
        metrics["trace.overhead_pct"] = (100 * overhead, "%")
        self_s = ", ".join(f"{layer} {metrics[layer + '.self_s'][0]:.3f} s" for layer in LAYERS)
        print(f"self time per layer: {self_s}; tracing overhead {100 * overhead:.1f}%")
    else:
        metrics = end_to_end(untraced)
    raw = {k: v for k, (v, _) in end_to_end(untraced, scale=False).items()}
    print(json.dumps({"rounds": {"untraced": len(untraced), "traced": len(traced)}, "unscaled": raw, **info}))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": raised + wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _c15_as_c5x3(out, outs):
    form = outs["canon:c5x3"]["form_a"]
    return {**out, "form_a": form, "form_b": form}


#: workload -> list of (op -> corruption, ops expected to be reported failed)
CORRUPTIONS = {
    "enumerate": [({
        "level:K4:6": lambda out, outs: out[:-1],
        "level:C4:7": lambda out, outs: out[1:],
        "exact:K3:K4:7": lambda out, outs: {**out, "best": out["best"] + 1},
        "biex:8": lambda out, outs: {**out, "value": out["value"] - 1},
    }, {"level:K4:6", "level:C4:7", "exact:K3:K4:7", "biex:8"})],
    "canon": [({
        "canon:c5x3": lambda out, outs: {**out, "form_b": out["form_b"][:-2] + "00"},
        "canon:random_20_1": lambda out, outs: {**out, "form_swap": out["form_a"]},
    }, {"canon:c5x3", "canon:random_20_1"}),
        ({"canon:c15": _c15_as_c5x3}, {"canon:c15", "canon:c5x3"})],
    "count": [({
        "copies:G64:C5": lambda out, outs: out + 1,
        "embeddings:M5678:K23": lambda out, outs: out - 1,
    }, {"copies:G64:C5", "embeddings:M5678:K23"})],
    "local": [({
        "local:C5:K3:16": lambda out, outs: {**out, "best": out["best"] + 1},
    }, {"local:C5:K3:16"})],
}


def self_test() -> int:
    """Judge one real round per workload, then the same round with wrong
    answers planted, and see exactly the planted ops reported as failed."""
    ok = True
    for workload, cases in CORRUPTIONS.items():
        checker = Checker(workload, 0)
        real = run_round(workload, 0, None)
        attempted, raised, wrong, _ = judge(checker, [real])
        ok &= raised == wrong == 0
        print(f"{workload}: real round, {attempted} ops, {raised + wrong} failed")
        outs = {job["op"]: job["out"] for job in real["jobs"]}
        for changes, expected in cases:
            planted = {"jobs": [
                {**job, "out": changes[job["op"]](job["out"], outs)} if job["op"] in changes else job
                for job in real["jobs"]
            ]}
            _, raised, wrong, notes = judge(checker, [planted])
            flagged = {note.split(": ", 1)[0] for note in notes}
            passed = raised + wrong == len(expected) and flagged == expected
            ok &= passed
            print(f"{workload}: planted {sorted(changes)} -> {raised + wrong} failed {sorted(flagged)}: "
                  f"{'ok' if passed else 'WRONG'}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def recompute_counts(top: int = 7) -> int:
    """Class counts up to ``top`` vertices by orbit counting over labeled
    graphs (under a minute for 7), against the tables."""
    import oracles

    ok = True
    for name in ("K3", "C4", "K4", "C5"):
        counts = oracles.labeled_class_counts(workloads.PATTERNS[name], top)
        table = list(CLASS_COUNTS[name][: top + 1])
        same = counts[: len(table)] == table
        ok &= same
        print(f"{name}-free classes, n = 0..{top}: {counts}  table: {table}  {'agree' if same else 'DIFFER'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--recompute-counts", action="store_true")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.recompute_counts:
        return recompute_counts()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        return benchmark(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
