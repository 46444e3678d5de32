"""In-memory spans around the calls the benchmark makes into the library.

A span is ``[name, label, start, end, parent]`` (``parent`` is an index into
the span list, -1 at the top; the trace file holds one span per line).  ``name`` is
``<module>.<function>`` of the library function called; ``label`` names the
input it ran on (a level, a corpus item, a pattern) or is empty.  Spans are
recorded at two boundaries: the benchmark's own calls, and the ``graphs``
and ``counting`` functions as the ``search`` and ``family`` modules bound
them at import.  Nothing under ``src/`` changes for this.
"""

from __future__ import annotations

import json
from time import perf_counter

# module name -> names it imported from graphs / counting (and biex's lazy
# import of search.free_graph_classes, which goes through the module attribute)
BOUND = {
    "search": (
        "canonical_form",
        "canonical_graph",
        "clique_masks",
        "exists_embedding_through_vertex",
        "count_copies",
        "contains_subgraph",
        "embeddings_through_edge",
        "exists_embedding_through_edge",
        "free_graph_classes",
    ),
    "family": (
        "canonical_form",
        "contains_subgraph",
        "exists_embedding_through_edge",
        "count_cliques",
    ),
}


class Untraced:
    """Calls straight through; the job code is the same in both modes."""

    def call(self, name, label, fn, *args):
        return fn(*args)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def call(self, name, label, fn, *args, **kwargs):
        rec = [name, label, 0.0, 0.0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = perf_counter()
            self._stack.pop()

    def install(self, modules: dict) -> None:
        """Replace the bound names in ``search`` and ``family`` by traced ones."""
        for mod_name, names in BOUND.items():
            mod = modules[mod_name]
            for attr in names:
                fn = getattr(mod, attr)
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{attr}"
                setattr(mod, attr, self._wrapped(name, fn))

    def _wrapped(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, "", fn, *args, **kwargs)

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summary(self) -> dict:
        """Per-function calls and seconds, per-label seconds, per-layer self time,
        and the canonical_form calls under each level span."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        by_label: dict[str, float] = {}
        self_s: dict[str, float] = {}
        child_s = [0.0] * len(self.spans)
        for name, label, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        level_of: list[str] = []
        children: dict[str, int] = {}
        for i, (name, label, start, end, parent) in enumerate(self.spans):
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            if label:
                key = f"{name}.{label}"
                by_label[key] = by_label.get(key, 0.0) + dur
            layer = name.split(".", 1)[0]
            self_s[layer] = self_s.get(layer, 0.0) + dur - child_s[i]
            level = label if label.startswith("level") else (level_of[parent] if parent >= 0 else "")
            level_of.append(level)
            if level and name == "graphs.canonical_form":
                children[level] = children.get(level, 0) + 1
        return {"calls": calls, "s": total, "label_s": by_label, "self_s": self_s,
                "children": children, "spans": len(self.spans)}
