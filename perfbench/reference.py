"""Reference figures that are not timed workloads (see README).

    python3 perfbench/reference.py

Prints, one line each: the seconds of every ``turanext verify`` suite in a
fresh process, the tier-1 test command's wall time, the enumerate
workload's level-building with ``workers=1`` against ``workers=2``, and the
canonical-labeling inputs left out of the ``canon`` corpus, each stopped
after ``HANG_TIMEOUT_S``.  Runs take about ten minutes; nothing here is used
by ``run.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENV = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}

HANG_TIMEOUT_S = 90
CANON_SNIPPET = """
import ast, sys, time
from turanext import graphs
g = graphs.Graph(*ast.literal_eval(sys.argv[1]))
t = time.perf_counter()
graphs.canonical_form(g)
print(time.perf_counter() - t)
"""

LEVELS_SNIPPET = """
import sys, time
sys.path.insert(0, {here!r})
import workloads
from turanext import graphs, search
workers = int(sys.argv[1])
pats = {{h: graphs.Graph(*workloads.PATTERNS[h]) for h in workloads.LEVEL_TOPS}}
t = time.perf_counter()
for h, top in workloads.LEVEL_TOPS.items():
    search.free_graph_classes(top, [pats[h]], workers=workers)
print(time.perf_counter() - t)
"""


def timed(cmd: list[str], timeout: float | None = None) -> tuple[float, subprocess.CompletedProcess | None]:
    """Seconds and the finished process, or None when stopped at ``timeout``."""
    t = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc = None
    return time.perf_counter() - t, proc


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from turanext import verify

    print(f"nproc {len(os.sched_getaffinity(0))}, python {sys.version.split()[0]}")
    for suite in verify.suite_names():
        secs, proc = timed([sys.executable, "-m", "turanext.cli", "verify", suite])
        print(f"verify {suite}: {secs:.1f} s (exit {proc.returncode})", flush=True)
    secs, proc = timed([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"])
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    print(f"tier-1 tests: {secs:.1f} s ({tail})", flush=True)
    code = LEVELS_SNIPPET.format(here=HERE)
    for workers in (1, 2):
        _, proc = timed([sys.executable, "-c", code, str(workers)])
        print(f"enumerate levels (K3<=8, K4<=7, C4<=8, C5<=7), workers={workers}: "
              f"{float(proc.stdout):.2f} s", flush=True)
    sys.path.insert(0, HERE)
    import workloads as w

    left_out = {
        "T(23,3)": w.multipartite(w.turan_parts(23, 3)),
        "T(32,3)": w.multipartite(w.turan_parts(32, 3)),
        "4 C5": w.disjoint(w.cycle(5), 4),
        "5 K3": w.disjoint(w.complete(3), 5),
    }
    for name, g in left_out.items():
        secs, proc = timed([sys.executable, "-c", CANON_SNIPPET, repr(g)], HANG_TIMEOUT_S)
        shown = f"{float(proc.stdout):.1f} s" if proc else f"stopped after {secs:.0f} s"
        print(f"canonical_form({name}): {shown}", flush=True)
    cmd = [sys.executable, "-m", "turanext.cli", "exsearch", "mode=local", "n=32", "T=K3", "H=K4"]
    secs, proc = timed(cmd, HANG_TIMEOUT_S)
    shown = f"{secs:.1f} s (exit {proc.returncode})" if proc else f"stopped after {secs:.0f} s"
    print(f"turanext exsearch mode=local n=32 T=K3 H=K4: {shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
