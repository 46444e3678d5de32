"""Compact names for the graphs used on the command line.

Accepted forms: ``K5`` (complete), ``K_{2,2}`` / ``K_{1,2,2}`` (complete
multipartite by part sizes), ``K^{3}_{2,5}`` (3 parts: two of size 2, one of
size 5), ``C5`` (cycle), ``P4`` (path on 4 vertices), and anything else is
tried as a graph6 string.
"""

from __future__ import annotations

import re

from .graphs import (
    MAX_VERTICES,
    Graph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    graph6_decode,
    path_graph,
)

_COMPLETE = re.compile(r"^K(\d+)$")
_MULTIPARTITE = re.compile(r"^K_\{(\d+(?:,\d+)*)\}$")
_BLOCKS = re.compile(r"^K\^\{(\d+)\}_\{(\d+),(\d+)\}$")
_CYCLE = re.compile(r"^C(\d+)$")
_PATH = re.compile(r"^P(\d+)$")


def parse_graph(text: str) -> Graph:
    """Parse a graph shorthand, falling back to graph6."""
    s = text.strip()
    if m := _COMPLETE.match(s):
        return complete_graph(int(m.group(1)))
    if m := _MULTIPARTITE.match(s):
        return complete_multipartite(int(x) for x in m.group(1).split(","))
    if m := _BLOCKS.match(s):
        r, small, big = (int(m.group(i)) for i in (1, 2, 3))
        if r < 1:
            raise ValueError("need at least one part")
        if min(small, big) >= 1 and (n := (r - 1) * small + big) > MAX_VERTICES:
            raise ValueError(f"total vertex count {n} exceeds {MAX_VERTICES}")
        # Past that check more than MAX_VERTICES parts means an empty part,
        # which complete_multipartite rejects from the first ones alone.
        return complete_multipartite((small,) * min(r - 1, MAX_VERTICES) + (big,))
    if m := _CYCLE.match(s):
        return cycle_graph(int(m.group(1)))
    if m := _PATH.match(s):
        return path_graph(int(m.group(1)))
    return graph6_decode(s)
