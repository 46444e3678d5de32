"""Graphs on at most 64 vertices stored as adjacency bitsets.

The vertex set is always {0, ..., n-1} and row ``adj[v]`` has bit u set iff
uv is an edge, so neighborhood intersection is a single ``&``.  Graphs are
immutable values: every operation returns a new ``Graph``.

Alongside the representation this module provides the generators used
throughout (Turan graphs, complete multipartite graphs, blowups), exact
chromatic numbers and proper-partition enumeration at small sizes (a
partition is a tuple of class bitmasks, in the ``adj`` row format), a
self-contained canonical form for isomorphism testing, and graph6 I/O.

The canonical form is the least leaf certificate of an
individualization-refinement tree, whose leaves are the partitions that
refinement finds homogeneous (discrete ones included).  Refinement splits
cells by their neighbour counts into the cells that changed since the
partition was last equitable (the new singleton below an
individualization, then the fragments each round splits off), groups in
descending count.  Counts into the other cells are constant on each cell or
fixed by earlier fresh counts, so this is the descending lexicographic
order of the counts into all cells, and the bytes are those of refining
against every cell.  Automorphisms found at equal leaves prune the tree as
in McKay and Piperno, "Practical graph isomorphism, II" (J. Symb. Comput.
60, 2014) and Hartke and Radcliffe, "McKay's canonical graph labeling
algorithm" (2009): only one child per orbit of the prefix's pointwise
stabilizer is searched, and a branch that an automorphism maps onto a
searched one is left at once.  The pruned branches
hold the same certificates as the kept ones, so the bytes are those of the
full tree, and graphs with large automorphism groups (Turan graphs, disjoint
unions of cycles) label quickly.  The automorphisms recorded on the way,
with the permutations inside the cells of the best leaf, generate the whole
automorphism group; the isomorph-free search reads them off to extend one
neighbourhood per orbit.

A canonical form is n followed by the upper triangle of the canonically
relabeled adjacency matrix, so it encodes its canonical graph:
``_graph_of_form`` decodes it, inverting ``canonical_form`` on canonical
graphs, and ``canonical_graph`` is built through it.  The isomorph-free
search stores only forms and decodes each class's representative once.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import SearchCapError

MAX_VERTICES = 64

#: Canonical forms are opaque byte strings; equal iff the graphs are isomorphic.
CanonicalForm = bytes


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_vertex_count(n: int) -> None:
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")


class Graph:
    """Immutable undirected graph; ``adj[v]`` is the neighbor bitset of vertex v."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Iterable[int]):
        _check_vertex_count(n)
        rows = tuple(adj)
        if len(rows) != n:
            raise ValueError("adjacency row count does not match vertex count")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise ValueError("adjacency bits set at positions >= n")
            if (row >> v) & 1:
                raise ValueError(f"loop at vertex {v}")
        for v in range(n):
            for u in _bits(rows[v]):
                if not (rows[u] >> v) & 1:
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")
        self.n = n
        self.adj = rows

    @classmethod
    def _trusted(cls, n: int, rows: tuple[int, ...]) -> Graph:
        """Wrap rows the caller knows are valid (in range, loopless, symmetric)."""
        g = object.__new__(cls)
        g.n = n
        g.adj = rows
        return g

    def _vertex(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside range(0, {self.n})")
        return v

    def degree(self, v: int) -> int:
        return self.adj[self._vertex(v)].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[self._vertex(u)] >> self._vertex(v)) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v."""
        out = []
        for v in range(self.n):
            row = self.adj[v] >> (v + 1)
            for d in _bits(row):
                out.append((v, v + 1 + d))
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count()})"


# ---------------------------------------------------------------------------
# generators


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on n vertices with exactly the given undirected edges."""
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds {MAX_VERTICES}")
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop edge ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range: ({u}, {v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


def empty_graph(n: int) -> Graph:
    _check_vertex_count(n)
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    _check_vertex_count(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    # a generator, so graph_from_edges rejects a large n before any edge is made
    return graph_from_edges(n, ((v, (v + 1) % n) for v in range(n)))


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, ((v, v + 1) for v in range(n - 1)))


def _blocks_graph(sizes: Iterable[int]) -> Graph:
    """Complete multipartite graph with parts laid out as contiguous blocks."""
    sizes = [s for s in sizes if s > 0]
    n = sum(sizes)
    if n > MAX_VERTICES:
        raise ValueError(f"total vertex count {n} exceeds {MAX_VERTICES}")
    rows = []
    start = 0
    full = (1 << n) - 1
    for s in sizes:
        block = ((1 << s) - 1) << start
        rows.extend([full ^ block] * s)
        start += s
    return Graph(n, rows)


def complete_multipartite(parts: Iterable[int]) -> Graph:
    """Complete multipartite graph with the given part sizes (all >= 1)."""
    sizes = tuple(parts)
    if any(s < 1 for s in sizes):
        raise ValueError("every part must have size >= 1")
    return _blocks_graph(sizes)


def turan_graph(n: int, r: int) -> Graph:
    """Complete r-partite graph on n vertices with part sizes differing by <= 1.

    Larger parts come first and occupy contiguous vertex blocks.
    """
    from .closedform import turan_part_sizes

    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds {MAX_VERTICES}")
    return _blocks_graph(turan_part_sizes(n, r))


def anchored_turan_graph(r: int, a: int, n: int) -> Graph:
    """Complete r-partite graph: one part of size n-a plus a balanced rest.

    The first part {0, ..., n-a-1} holds the distinguished vertex 0; the
    remaining a vertices are split into r-1 parts as evenly as possible.
    """
    from .closedform import turan_part_sizes

    if r < 2:
        raise ValueError("need r >= 2")
    if not 0 <= a <= n - 1:
        raise ValueError("need 0 <= a <= n - 1")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds {MAX_VERTICES}")
    return _blocks_graph([n - a, *turan_part_sizes(a, r - 1)])


def blowup(graph: Graph, s: int) -> Graph:
    """Replace every vertex by an independent set of size s, edges by complete joins."""
    if s < 1:
        raise ValueError("blowup factor must be >= 1")
    n = graph.n * s
    if n > MAX_VERTICES:
        raise ValueError(f"blowup has {n} vertices, exceeding {MAX_VERTICES}")
    rows = []
    for v in range(graph.n):
        row = 0
        for u in _bits(graph.adj[v]):
            row |= ((1 << s) - 1) << (u * s)
        rows.extend([row] * s)
    return Graph(n, rows)


# ---------------------------------------------------------------------------
# surgery


def subgraph(graph: Graph, vertices: Iterable[int]) -> Graph:
    """Induced subgraph on the given vertices, relabeled in the order supplied."""
    verts = [graph._vertex(v) for v in vertices]
    index = {v: i for i, v in enumerate(verts)}
    if len(index) != len(verts):
        raise ValueError("duplicate vertices")
    rows = [0] * len(verts)
    for i, v in enumerate(verts):
        for u in _bits(graph.adj[v]):
            j = index.get(u)
            if j is not None:
                rows[i] |= 1 << j
    return Graph._trusted(len(verts), tuple(rows))


def relabel(graph: Graph, perm: Iterable[int]) -> Graph:
    """Relabeled copy where old vertex v becomes ``perm[v]``."""
    p = list(perm)
    if sorted(p) != list(range(graph.n)):
        raise ValueError("perm is not a permutation of the vertex set")
    rows = [0] * graph.n
    for v in range(graph.n):
        row = 0
        for u in _bits(graph.adj[v]):
            row |= 1 << p[u]
        rows[p[v]] = row
    # a relabeling of a valid graph is valid
    return Graph._trusted(graph.n, tuple(rows))


def add_edge(graph: Graph, u: int, v: int) -> Graph:
    """Copy of ``graph`` with edge uv added (idempotent)."""
    if u == v:
        raise ValueError("loop edge")
    for w in (u, v):
        graph._vertex(w)
    rows = list(graph.adj)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return Graph._trusted(graph.n, tuple(rows))


def strip_isolated(graph: Graph) -> Graph:
    """Drop degree-0 vertices, keeping the relative order of the rest."""
    keep = [v for v in range(graph.n) if graph.adj[v]]
    return subgraph(graph, keep)


# ---------------------------------------------------------------------------
# coloring

_CHROMATIC_CAP = 20
_PARTITION_CAP = 16


def _partitions(graph: Graph, k: int, order: list[int]) -> Iterator[tuple[int, ...]]:
    """Class masks of every partition of V into exactly k nonempty independent
    classes.  Vertices are placed in ``order`` and a class opens at its first
    vertex, so each unordered partition comes once."""
    n = graph.n
    adj = graph.adj
    masks: list[int] = []

    def grow(i: int) -> Iterator[tuple[int, ...]]:
        if len(masks) + (n - i) < k:
            return
        if i == n:
            if len(masks) == k:
                yield tuple(masks)
            return
        v = order[i]
        bit = 1 << v
        for j, m in enumerate(masks):
            if not (adj[v] & m):
                masks[j] = m | bit
                yield from grow(i + 1)
                masks[j] = m
        if len(masks) < k:
            masks.append(bit)
            yield from grow(i + 1)
            masks.pop()

    return grow(0)


def chromatic_number(graph: Graph) -> int:
    """Exact chromatic number (cap at 20 vertices): the least k with a
    partition into k independent classes, searched in descending-degree order."""
    if graph.n > _CHROMATIC_CAP:
        raise SearchCapError(
            f"chromatic number is exact only up to {_CHROMATIC_CAP} vertices"
        )
    order = sorted(range(graph.n), key=lambda v: (-graph.degree(v), v))
    # the empty graph's one partition is the empty tuple, so test for None
    return next(
        k for k in range(graph.n + 1) if next(_partitions(graph, k, order), None) is not None
    )


def proper_partitions(graph: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """All unordered partitions of V into exactly k nonempty independent
    classes, each as a tuple of k class bitmasks.

    Each unordered partition is produced exactly once (classes are grown in
    order of their smallest vertex).  If k < chi(graph) the stream is empty.
    """
    if graph.n > _PARTITION_CAP:
        raise SearchCapError(
            f"partition enumeration is exact only up to {_PARTITION_CAP} vertices"
        )
    if k <= 0:
        return
    yield from _partitions(graph, k, list(range(graph.n)))


# ---------------------------------------------------------------------------
# canonical forms

def _refine(
    adj: tuple[int, ...], cells: list[int], fresh: list[int]
) -> tuple[list[int], bool]:
    """Equitable refinement; cells split by neighbor counts, ordered invariantly.

    The result is that of rounds that split every cell by its vector of
    counts into all cells, groups in descending lexicographic order, until
    a round splits nothing.  A round here splits by the counts into the
    ``fresh`` cells only: the cells, in cell order, whose counts are not yet
    known to be fixed on every cell.  At the root that is the unit cell;
    below an individualization of an equitable partition, the new singleton
    {u}; in each later round, the fragments the previous round split off,
    less the last fragment of each split cell.  Every other count is
    constant on each cell, or fixed within it by fresh counts that come
    before it in cell order: the count into the last fragment is the count
    into the old cell, constant, less the counts into the fragments before
    it, and the count into the rest of an individualized cell is its old
    count less the count into {u}.  So two vertices of a cell have equal
    count vectors iff their fresh counts agree, and the first entry where
    the vectors differ is a fresh one.  Splitting by one fresh cell after
    another, groups in descending count, is then exactly the descending
    lexicographic order: the cells, their order, and every certificate built
    on them are those of the all-cells rounds.  Against a singleton {u} the
    split is pure bit work: ``X & adj[u]`` first, then ``X & ~adj[u]``.

    The flag returned with the cells says whether adjacency depends only on
    cell membership.  It is read off one vertex v of each non-singleton cell
    of the equitable result: v's neighbours in each cell c must be none of c
    or all of it, all but v itself in v's own cell.  Singletons follow by
    equitability, so a discrete partition is homogeneous.
    """
    while fresh:
        out: list[int] = []
        split: list[int] = []
        for cell in cells:
            if cell & (cell - 1) == 0:
                out.append(cell)
                continue
            pieces = [cell]
            size = cell.bit_count()
            for f in fresh:
                nxt: list[int] = []
                if f & (f - 1) == 0:
                    row = adj[f.bit_length() - 1]
                    for x in pieces:
                        a = x & row
                        if a and a != x:
                            nxt += (a, x ^ a)
                        else:
                            nxt.append(x)
                else:
                    for x in pieces:
                        if x & (x - 1) == 0:
                            nxt.append(x)
                            continue
                        groups: dict[int, int] = {}
                        y = x
                        while y:
                            low = y & -y
                            k = (adj[low.bit_length() - 1] & f).bit_count()
                            groups[k] = groups.get(k, 0) | low
                            y ^= low
                        nxt += [groups[k] for k in sorted(groups, reverse=True)]
                pieces = nxt
                if len(pieces) == size:
                    break
            out += pieces
            if len(pieces) > 1:
                split += pieces[:-1]
        cells, fresh = out, split
    for cell in cells:
        if cell & (cell - 1):
            v = cell.bit_length() - 1
            row = adj[v]
            rest = ~(1 << v)
            for c in cells:
                x = row & c
                if x and x != c & rest:
                    return cells, False
    return cells, True


def _leaf_bytes(adj: tuple[int, ...], labeling: list[int]) -> bytes:
    """Upper-triangle bits of the relabeled adjacency matrix, packed MSB-first."""
    n = len(labeling)
    buf = bytearray((n * (n - 1) // 2 + 7) // 8)
    pos = 0
    for j in range(1, n):
        row_j = adj[labeling[j]]
        for i in range(j):
            if (row_j >> labeling[i]) & 1:
                buf[pos >> 3] |= 0x80 >> (pos & 7)
            pos += 1
    return bytes(buf)


def _find(parent: list[int], v: int) -> int:
    """Root of v in a union-find forest, halving the path on the way."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _join_cycles(parent: list[int], cell: int, gamma: list[int]) -> None:
    """Merge the orbits of ``cell`` that ``gamma`` links, keeping least roots."""
    for v in _bits(cell):
        a, b = _find(parent, v), _find(parent, gamma[v])
        if a != b:
            parent[max(a, b)] = min(a, b)


def _canonical_search(
    adj: tuple[int, ...], n: int
) -> tuple[bytes, list[int], list[tuple[list[int], int]]]:
    """Least leaf certificate of the search tree, with the first labeling reaching it.

    A tree node is an ordered partition refined by ``_refine``.  It is a leaf
    when ``_refine`` finds it homogeneous, discrete ones included, and its
    cells in order label the graph; otherwise its children individualize
    each vertex of its first non-singleton cell in turn.  The certificate of
    a leaf is its ``_leaf_bytes``.

    Automorphisms prune the tree (McKay and Piperno, "Practical graph
    isomorphism, II", J. Symb. Comput. 60, 2014; Hartke and Radcliffe,
    "McKay's canonical graph labeling algorithm", 2009).  A leaf whose
    certificate equals the best one yields gamma: best[i] -> labeling[i], an
    automorphism because both labelings give the same relabeled adjacency
    matrix.  Refinement is label-equivariant and never moves an
    individualized vertex from its position, so gamma maps the best leaf's
    individualization sequence onto the current one term by term.  Hence:

    * at the node where the two sequences part, gamma maps the child on
      the best leaf's path, whose subtree is already searched, onto the
      current child, so the search leaves the current child at once;
    * a node individualizes only the least vertex of each orbit of its
      target cell under the recorded automorphisms that fix its
      individualized prefix pointwise, since such an automorphism carries
      the subtree of v onto the subtree of its image.

    A homogeneous leaf gives the same bytes for every order within its
    cells, so it is equivariant too.  An image of a subtree holds the same
    certificates, so neither rule changes the least one: the bytes are those
    of the full tree.

    The recorded automorphisms are returned too, as (gamma, mask of its
    fixed points); ``_automorphism_generators`` reads the group off them.
    """
    best_cert = b""
    best_labeling: list[int] = []
    best_path: list[int] = []
    path: list[int] = []
    gens: list[tuple[list[int], int]] = []  # (gamma, mask of its fixed points)
    orbits: list[tuple[list[int], int] | None] = []  # open node's union-find and cell

    def leaf(labeling: list[int]) -> int:
        """Depth to resume at: this leaf's parent's, or the node to jump back to."""
        nonlocal best_cert, best_labeling, best_path
        cert = _leaf_bytes(adj, labeling)
        if not best_labeling or cert < best_cert:
            best_cert, best_labeling, best_path = cert, labeling, path[:]
            return len(path)
        if cert > best_cert:
            return len(path)
        gamma = [0] * n
        for u, v in zip(best_labeling, labeling):
            gamma[u] = v
        fixed = 0
        for v in range(n):
            if gamma[v] == v:
                fixed |= 1 << v
        gens.append((gamma, fixed))
        depth = 0
        while path[depth] == best_path[depth]:
            depth += 1
        for node in orbits[: depth + 1]:
            if node is not None:
                _join_cycles(node[0], node[1], gamma)
        return depth

    def descend(cells: list[int], fresh: list[int]) -> int:
        """Search below ``cells``; return the depth to resume at."""
        cells, homogeneous = _refine(adj, cells, fresh)
        if homogeneous:
            if len(cells) == n:
                return leaf([cell.bit_length() - 1 for cell in cells])
            return leaf([v for cell in cells for v in _bits(cell)])
        target = next(idx for idx, cell in enumerate(cells) if cell & (cell - 1))
        depth = len(path)
        cell = cells[target]
        parent: list[int] = []
        orbits.append(None)
        back = depth
        for i, v in enumerate(_bits(cell)):
            if i == 1:
                # Orbits are needed from the second child on.
                parent = list(range(n))
                prefix = 0
                for u in path:
                    prefix |= 1 << u
                for gamma, fixed in gens:
                    if not prefix & ~fixed:
                        _join_cycles(parent, cell, gamma)
                orbits[depth] = (parent, cell)
            if i and _find(parent, v) != v:
                continue
            path.append(v)
            back = descend(
                cells[:target] + [1 << v, cell ^ (1 << v)] + cells[target + 1 :],
                [1 << v],
            )
            path.pop()
            if back < depth:
                break
        orbits.pop()
        return min(back, depth)

    descend([(1 << n) - 1], [(1 << n) - 1])
    return best_cert, best_labeling, gens


def canonical_form(graph: Graph) -> CanonicalForm:
    """Byte string equal for two graphs iff they are isomorphic."""
    if graph.n == 0:
        return b"\x00"
    return bytes([graph.n]) + _canonical_search(graph.adj, graph.n)[0]


def _graph_of_form(form: CanonicalForm) -> Graph:
    """The graph whose ``canonical_form`` is ``form``: its canonical graph.

    The first byte is n and the rest is ``_leaf_bytes`` of the best leaf,
    the upper triangle column by column, MSB first, padded to whole bytes.
    Read from the last column back, column j is the j lowest bits left, and
    its bit b is the pair (j - 1 - b, j).
    """
    n = form[0]
    rows = [0] * n
    if n > 1:
        width = n * (n - 1) // 2
        bits = int.from_bytes(form[1:], "big") >> (-width % 8)
        for j in range(n - 1, 0, -1):
            col = bits & ((1 << j) - 1)
            bits >>= j
            while col:
                low = col & -col
                i = j - low.bit_length()
                rows[i] |= 1 << j
                rows[j] |= 1 << i
                col ^= low
    return Graph._trusted(n, tuple(rows))


def canonical_graph(graph: Graph) -> Graph:
    """Canonically relabeled copy (equal for all members of an isomorphism class)."""
    return _graph_of_form(canonical_form(graph))


def _automorphism_generators(graph: Graph) -> list[list[int]]:
    """Permutations, as image lists, that generate the automorphism group.

    They are the automorphisms the canonical search records, together with
    the transposition of each two consecutive vertices of the canonical
    labeling that are twins (the same neighbours apart from each other).
    The best leaf lists its cells one after the other, and the cells of a
    homogeneous partition hold twins only, so these transpositions, each an
    automorphism, generate every permutation inside the cells: exactly the
    automorphisms fixing the best leaf's individualized vertices.  The empty graph, whose search
    records nothing, gets the whole symmetric group this way.  Up the best
    path, at each node every child in the orbit of the best child under the
    automorphisms fixing the node's prefix is either searched after it,
    reaching an equal leaf and so recording an automorphism that maps the
    best child onto it, or skipped as the image of a searched child under
    recorded automorphisms fixing that prefix.  Searched before it, such a
    child would have reached the least certificate first.  So each
    stabilizer along the path is generated, the whole group included.
    """
    n, adj = graph.n, graph.adj
    if n == 0:
        return []
    _, labeling, gens = _canonical_search(adj, n)
    out = [gamma for gamma, _ in gens]
    for u, v in zip(labeling, labeling[1:]):
        if not (adj[u] ^ adj[v]) & ~(1 << u | 1 << v):
            swap = list(range(n))
            swap[u], swap[v] = v, u
            out.append(swap)
    return out


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism test: cheap invariants first, canonical forms to finish."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canonical_form(g) == canonical_form(h)


# ---------------------------------------------------------------------------
# graph6 I/O (the published text format for undirected graphs)


def graph6_encode(graph: Graph) -> str:
    n = graph.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(
            chr(63 + ((n >> shift) & 63)) for shift in (12, 6, 0)
        )
    bits: list[int] = []
    for j in range(1, n):
        row_j = graph.adj[j]
        for i in range(j):
            bits.append((row_j >> i) & 1)
    while len(bits) % 6:
        bits.append(0)
    body = "".join(
        chr(63 + (bits[k] << 5 | bits[k + 1] << 4 | bits[k + 2] << 3
                  | bits[k + 3] << 2 | bits[k + 4] << 1 | bits[k + 5]))
        for k in range(0, len(bits), 6)
    )
    return head + body


def graph6_decode(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise ValueError("empty graph6 string")
    vals = [ord(ch) - 63 for ch in s]
    if any(v < 0 or v > 63 for v in vals):
        raise ValueError("graph6 characters must be in the range chr(63)..chr(126)")
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise ValueError("graph6 vertex counts above 258047 are unsupported")
        if len(vals) < 4:
            raise ValueError("malformed graph6 header")
        n = vals[1] << 12 | vals[2] << 6 | vals[3]
        body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    if n > MAX_VERTICES:
        raise ValueError(f"graph6 string encodes {n} vertices, above {MAX_VERTICES}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) < need:
        raise ValueError("truncated graph6 bit field")
    if len(body) > need:
        raise ValueError("trailing data after graph6 bit field")
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if (body[pos // 6] >> (5 - pos % 6)) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return Graph(n, rows)


def read_edge_list(text: str) -> Graph:
    """Parse the convenience edge-list format: first line n, then ``u v`` lines."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge list")
    n = int(lines[0])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return graph_from_edges(n, edges)
