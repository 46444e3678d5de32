"""Closed-form exact counts on complete multipartite graphs.

Everything here is plain integer / rational arithmetic: clique counts of
Turan graphs, the maximizing edge-count decomposition behind the clique
upper bound for graphs with bounded clique number, and the copy counts of
complete multipartite patterns inside complete multipartite hosts.  These
are the formula-side mirrors of the search-side results, so the two can
cross-check each other.

Each count is one pass over the parts that exist: a running recurrence for
the pointed count, and only the min(n, r) nonempty parts of T_r(n), not r.
Clique counts of T_r(n) read only its two part sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import InternalCheckError, SearchCapError

#: A multipartite shape: part sizes, one entry per part.
Composition = tuple[int, ...]

_COUNT_BITS_CAP = 1 << 20


@dataclass(frozen=True)
class Params:
    """Pattern parameters (r parts: r-1 of size s, one of size t >= s)."""

    r: int
    s: int
    t: int

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("need r >= 1")
        if self.s < 1:
            raise ValueError("need s >= 1")
        if self.t < self.s:
            raise ValueError("need t >= s")

    @property
    def gap(self) -> int:
        """t - s, the imbalance of the distinguished part."""
        return self.t - self.s

    @property
    def weight(self) -> Fraction:
        """1/2 when the two part sizes coincide (s = t), else 1."""
        return Fraction(1, 2) if self.s == self.t else Fraction(1)

    @property
    def multiplicity(self) -> int:
        return multiplicity_for(self.s, self.t, self.r)

    def part_sizes(self) -> Composition:
        return (self.s,) * (self.r - 1) + (self.t,)


def multiplicity_for(s: int, t: int, r: int) -> int:
    """Number of parts a size-t part can sit in without double counting.

    r - 1 when the sizes differ; 1 when s = t (all parts interchangeable).
    """
    return r - 1 if t != s else 1


# ---------------------------------------------------------------------------
# Turan graphs


def turan_part_sizes(n: int, r: int) -> Composition:
    """Part sizes of the balanced r-partition of n, largest first."""
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    q, rem = divmod(n, r)
    return (q + 1,) * rem + (q,) * (r - rem)


def _turan_parts(n: int, r: int) -> Composition:
    """The min(n, r) nonempty part sizes of T_r(n); for r > n it is K_n."""
    return (1,) * n if r > n >= 0 else turan_part_sizes(n, r)


def turan_edge_count(n: int, r: int) -> int:
    """Edges of the balanced complete r-partite graph on n vertices."""
    return turan_clique_count(n, r, 2)


def _two_size_symmetric(q: int, big: int, small: int, m: int) -> int:
    """e_m of ``big`` parts of size q + 1 and ``small`` parts of size q:
    sum_k C(big, k) (q+1)^k C(small, m-k) q^(m-k).  Its terms for k in
    [lo, hi] are positive (q = 0 leaves one), each the last times an exact
    ratio, so the sum costs O(m) small-factor steps.  A nonzero count on N
    vertices is at most C(N, m) <= min(2^N, N^m), refused past the bit cap."""
    lo, hi = max(0, m - small), min(big, m)
    if lo > hi:  # m > big + small
        return 0
    n = (q + 1) * big + q * small
    if min(n, m * n.bit_length()) > _COUNT_BITS_CAP:
        raise SearchCapError(f"a {m}-clique count on {n} vertices could top {_COUNT_BITS_CAP} bits")
    term = math.comb(big, lo) * (q + 1) ** lo * math.comb(small, m - lo) * q ** (m - lo)
    total = term
    for k in range(lo, hi):
        term, rem = divmod(
            term * (big - k) * (q + 1) * (m - k), (k + 1) * q * (small - m + k + 1)
        )
        if rem:
            raise InternalCheckError("clique-count term ratio is not exact")
        total += term
    return total


def turan_clique_count(n: int, r: int, m: int) -> int:
    """Number of m-cliques in the balanced complete r-partite graph on n vertices."""
    if m < 1:
        raise ValueError("clique size must be >= 1")
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    q, rem = divmod(n, r)  # rem parts of q + 1, min(n, r) - rem nonempty of q
    return _two_size_symmetric(q, rem, min(n, r) - rem, m)


def turan_min_clique_degree(n: int, r: int, m: int) -> int:
    """Minimum over vertices of the m-cliques through that vertex, in T_r(n).

    The minimum is attained in a largest part; removing one such vertex's
    part leaves an (r-1)-partition from which the remaining m-1 clique
    vertices are drawn.
    """
    if not (n >= r + 1 and r >= m and m >= 1):
        raise ValueError("need n >= r + 1 and r >= m >= 1")
    q, rem = divmod(n, r)
    if rem:
        return _two_size_symmetric(q, rem - 1, r - rem, m - 1)
    return _two_size_symmetric(q, 0, r - 1, m - 1)


# ---------------------------------------------------------------------------
# edge-count decomposition and the clique bound it certifies


class EckhoffSplit(NamedTuple):
    """Split e = (edges of T_omega(order)) + extra, with 0 <= extra bounded."""

    order: int
    extra: int


def eckhoff_decompose(e: int, omega: int) -> EckhoffSplit:
    """Write e as edges of a balanced omega-partite graph plus a small remainder.

    Finds the unique (order, extra) with
    ``e = turan_edge_count(order, omega) + extra``, ``extra >= 0`` and
    ``extra * omega < (omega - 1) * order``.
    """
    if e < 0:
        raise ValueError("edge count must be >= 0")
    if omega < 2:
        raise ValueError("need omega >= 2")
    # The windows [T(order), T(order + 1)) tile the nonnegative integers, so
    # order is the largest n with T(n) <= e; T(n) >= n^2 / 4 puts it below hi.
    lo, hi = 0, 2 * math.isqrt(e) + 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if turan_edge_count(mid, omega) <= e:
            lo = mid
        else:
            hi = mid
    extra = e - turan_edge_count(lo, omega)
    if extra * omega >= (omega - 1) * lo:
        raise InternalCheckError(
            f"edge decomposition missed its window at e={e}, omega={omega}"
        )
    return EckhoffSplit(lo, extra)


def eckhoff_bound(e: int, omega: int, m: int) -> int:
    """Upper bound on m-cliques among graphs with e edges and clique number <= omega."""
    if not (omega >= m >= 2):
        raise ValueError("need omega >= m >= 2")
    order, extra = eckhoff_decompose(e, omega)
    return turan_clique_count(order, omega, m) + turan_clique_count(
        extra, omega - 1, m - 1
    )


# ---------------------------------------------------------------------------
# multipartite pattern counts


def pointed_pattern_count(parts: Composition, p: Params) -> int:
    """Sum over parts i of C(x_i, t) * prod_{j != i} C(x_j, s).

    This counts the placements of the pattern with the size-t block pinned
    to part i; when s < t it already equals the copy count, when s = t each
    copy is seen once per part, i.e. r times.  One pass folds the parts in
    order: after x_1..x_k, ``prefix`` is prod_j C(x_j, s) and ``total`` is
    the sum above over those k parts.
    """
    if len(parts) != p.r:
        raise ValueError(f"need exactly {p.r} parts, got {len(parts)}")
    if any(x < 0 for x in parts):
        raise ValueError("part sizes must be >= 0")
    prefix, total = 1, 0
    for x in parts:
        c = math.comb(x, p.s)
        total = total * c + prefix * math.comb(x, p.t)
        prefix *= c
    return total


def multipartite_pattern_count(parts: Composition, p: Params) -> int:
    """Copies of the complete multipartite pattern inside the multipartite host.

    Host parts are independent sets, so every copy places each pattern part
    inside a single host part, whence the closed form.  The s = t division
    by r is exact because the pointed sum then counts each copy r times.
    """
    g = pointed_pattern_count(parts, p)
    if p.s == p.t:
        copies, rem = divmod(g, p.r)
        if rem:
            raise InternalCheckError("pointed count not divisible by part count")
        return copies
    return g


def turan_kst_count(n: int, p: Params) -> int:
    """Copies of the pattern in the balanced complete r'-partite graph on n.

    The host always has the pattern's own number of parts (balanced); use
    ``multipartite_pattern_count`` directly for other hosts.  With n < r it
    has fewer nonempty parts than the pattern's chromatic number r: no copy.
    """
    sizes = _turan_parts(n, p.r)
    return multipartite_pattern_count(sizes, p) if len(sizes) == p.r else 0


def anchored_degree_count(p: Params, a: int, n: int) -> int:
    """Copies through the anchor vertex of the anchored r-partite host.

    Host: one part of size n - a containing the anchor, plus T_{r-1}(a).
    A copy through the anchor either has its size-t block in the anchor's
    part (choose t-1 cofellows, then an all-s pattern in the rest) or its
    size-s block there (choose s-1, then the rest holds r-2 s-blocks and
    the t-block).  When s = t both readings coincide and the halving weight
    makes the count exact.
    """
    if p.r < 2:
        raise ValueError("need r >= 2")
    if not 0 <= a <= n - 1:
        raise ValueError("need 0 <= a <= n - 1")
    rest = Params(p.r - 1, p.s, p.s)
    mixed = Params(p.r - 1, p.s, p.t)
    term_t = math.comb(n - 1 - a, p.t - 1) * turan_kst_count(a, rest)
    term_s = math.comb(n - 1 - a, p.s - 1) * turan_kst_count(a, mixed)
    total = p.weight * (term_t + term_s)
    if total.denominator != 1:
        raise InternalCheckError("anchored degree count is not an integer")
    return int(total)


def check_count_step_identity(p: Params, n: int) -> bool:
    """Verify that consecutive balanced counts differ by an anchored degree.

    Going from n-1 to n vertices adds one vertex to a smallest part, so the
    count gain is exactly the copies through that vertex: the anchored host
    with anchor part of size ceil(n/r) (i.e. a = n - ceil(n/r)) is T_r(n)
    itself, viewed from the new vertex.
    """
    if p.r < 2:
        raise ValueError("need r >= 2")
    if n < 1:
        raise ValueError("need n >= 1")
    new_part = -(-n // p.r)
    gain = turan_kst_count(n, p) - turan_kst_count(n - 1, p)
    return gain == anchored_degree_count(p, n - new_part, n)


# ---------------------------------------------------------------------------
# asymptotic constants (used to sanity-check growth rates)


def kst_asymptotic_constant(p: Params) -> Fraction:
    """Leading coefficient of the balanced count against (n/r)^{(r-1)s+t}."""
    lead = multiplicity_for(p.s, p.t, p.r + 1)
    denom = math.factorial(p.s) ** (p.r - 1) * math.factorial(p.t)
    return Fraction(lead, denom)


def step_asymptotic_constant(p: Params) -> Fraction:
    """Leading coefficient of the count step against (n/r)^{(r-1)s+t-1}."""
    lead = p.weight * (p.s * multiplicity_for(p.s, p.t, p.r) + p.t)
    denom = math.factorial(p.s) ** (p.r - 1) * math.factorial(p.t)
    return Fraction(lead) / denom
