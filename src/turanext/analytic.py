"""Floating-point and exact-rational analysis of the count landscape.

This layer studies how the multipartite pattern count responds to moving
vertices between parts, in the regime where part sizes grow: the integer
threshold classification of (r, s, t) triples, the step polynomial whose
sign controls whether balancing helps, its normalized limit forms, the
log-count profile along one-parameter part deformations with its curvature
at the balanced point, a stability integral, and an exact rational identity
relating the count step to falling factorials.

Exact quantities use ``fractions.Fraction``; asymptotic quantities are
floats with log-domain scaling where magnitudes explode.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .closedform import (
    Composition,
    Params,
    anchored_degree_count,
    multipartite_pattern_count,
    multiplicity_for,
    pointed_pattern_count,
    turan_kst_count,
)
from .errors import InternalCheckError


class ThresholdCase(enum.Enum):
    """Which side of the balance/imbalance threshold a parameter triple is on."""

    CaseA = "CaseA"
    Boundary = "Boundary"
    CaseC = "CaseC"
    Undetermined = "Undetermined"


def classify(p: Params) -> ThresholdCase:
    """Integer-only threshold classification of (r, s, t).

    With q = t - s: below the balance threshold iff q^2 - q < 2s, exactly on
    it iff q^2 - q = 2s, in the strictly-unbalanced regime iff q^2 - q > rs.
    The band in between (nonempty only for r >= 3) is reported Undetermined.
    """
    if p.r < 2:
        raise ValueError("classification needs r >= 2")
    d = p.gap * p.gap - p.gap
    if d < 2 * p.s:
        return ThresholdCase.CaseA
    if d == 2 * p.s:
        return ThresholdCase.Boundary
    if d > p.r * p.s:
        return ThresholdCase.CaseC
    return ThresholdCase.Undetermined


def boundary_pairs(max_q: int) -> list[tuple[int, int]]:
    """All (s, t) sitting exactly on the threshold with 2 <= t - s <= max_q.

    The equality q^2 - q = 2s has one integer family: s = q(q-1)/2, t = s+q.
    """
    if max_q < 2:
        raise ValueError("need max_q >= 2")
    out = []
    for q in range(2, max_q + 1):
        s = q * (q - 1) // 2
        out.append((s, s + q))
    return out


@dataclass(frozen=True)
class AnalyticEval:
    """A float evaluation, optionally broken into labeled additive components."""

    value: float
    components: dict[str, float] | None = None


def _eval_from_components(components: dict[str, float]) -> AnalyticEval:
    return AnalyticEval(value=math.fsum(components.values()), components=components)


# ---------------------------------------------------------------------------
# the step polynomial and its limit forms


def step_ratio_poly_exact(z: Fraction | int, p: Params) -> Fraction:
    """Exact value of the four-term step polynomial at a rational point."""
    if p.r < 2:
        raise ValueError("need r >= 2")
    z = Fraction(z)
    s, t, r, q = p.s, p.t, p.r, p.gap
    lam = p.weight
    linear = s * lam * (s * multiplicity_for(s, t, r - 1) + t) * z
    constant = Fraction(-(s * s - s) * multiplicity_for(s, t, r), r - 1)
    leading = s * t * (r - 1) ** q * z ** (q + 1)
    subleading = -(t * t - t) * Fraction((r - 1) ** q, r - 1) * z**q
    return linear + constant + leading + subleading


def step_ratio_poly(z: float, p: Params) -> AnalyticEval:
    """Float step polynomial with its four terms exposed as components.

    Positive values mean growing the anchored part still gains copies; the
    balanced point corresponds to z = 1/(r-1).
    """
    if p.r < 2:
        raise ValueError("need r >= 2")
    s, t, r, q = p.s, p.t, p.r, p.gap
    lam = float(p.weight)
    return _eval_from_components(
        {
            "linear": s * lam * (s * multiplicity_for(s, t, r - 1) + t) * z,
            "constant": -(s * s - s) * multiplicity_for(s, t, r) / (r - 1),
            "leading": s * t * (r - 1) ** q * z ** (q + 1),
            "subleading": -(t * t - t) * float(Fraction((r - 1) ** q, r - 1)) * z**q,
        }
    )


def offset_gain_limit(z: float, p: Params) -> AnalyticEval:
    """Limit gain polynomial f(z) = (sz - q)(1+z)^q + (t + (r-2)s)z + q."""
    s, t, q = p.s, p.t, p.gap
    return _eval_from_components(
        {
            "product": (s * z - q) * (1 + z) ** q,
            "linear": (t + (p.r - 2) * s) * z,
            "constant": float(q),
        }
    )


def offset_gain_limit_deriv0(p: Params) -> int:
    """Exact derivative of the limit gain polynomial at zero: sr + q - q^2."""
    return p.s * p.r + p.gap - p.gap * p.gap


# ---------------------------------------------------------------------------
# exact count steps and their asymptotic scale


def scaled_degree_step(p: Params, a: int, n: int) -> Fraction:
    """Exact forward difference of the anchored degree count, unweighted.

    (F(a+1) - F(a)) divided by the coincidence weight, as an exact rational.
    """
    if not 1 <= a <= n - 2:
        raise ValueError("need 1 <= a <= n - 2")
    step = anchored_degree_count(p, a + 1, n) - anchored_degree_count(p, a, n)
    return Fraction(step) / p.weight


def step_scale(p: Params, a: int, n: int) -> float:
    """Normalizing magnitude C * a^{(r-2)s+t} * (n-a)^{s-2}, in log domain.

    1/C = (s!)^{r-1} t! (r-1)^{(r-2)s+t-1}.  The (n-a)^{s-2} factor is
    evaluated exactly as written, including the negative exponent at s = 1.
    """
    if not 1 <= a <= n - 2:
        raise ValueError("need 1 <= a <= n - 2")
    s, t, r = p.s, p.t, p.r
    e = (r - 2) * s + t
    log_inv_c = (
        (r - 1) * math.log(math.factorial(s))
        + math.log(math.factorial(t))
        + (e - 1) * math.log(r - 1)
    )
    return math.exp(e * math.log(a) + (s - 2) * math.log(n - a) - log_inv_c)


def _log_fraction(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


def step_ratio_error(p: Params, a: int, n: int) -> float:
    """|step / scale - poly((n-a)/a)|: how close the step is to its asymptote."""
    step = scaled_degree_step(p, a, n)
    s, t, r = p.s, p.t, p.r
    e = (r - 2) * s + t
    log_scale = (
        e * math.log(a)
        + (s - 2) * math.log(n - a)
        - (r - 1) * math.log(math.factorial(s))
        - math.log(math.factorial(t))
        - (e - 1) * math.log(r - 1)
    )
    if step > 0:
        ratio = math.exp(_log_fraction(step) - log_scale)
    elif step < 0:
        ratio = -math.exp(_log_fraction(-step) - log_scale)
    else:
        ratio = 0.0
    return abs(ratio - step_ratio_poly((n - a) / a, p).value)


# ---------------------------------------------------------------------------
# the two-parameter gain rate with explicit components


def _falling(x: float, k: int) -> float:
    """x(x - 1)...(x - k + 1), exact for an int x."""
    out = 1
    for i in range(k):
        out *= x - i
    return out


def offset_gain_rate(x: float, alpha: float, p: Params) -> AnalyticEval:
    """Finite-x gain rate, split into its three displayed components.

    Requires x > q so the falling factorials stay positive; converges to
    ``offset_gain_limit(alpha)`` as x grows.
    """
    s, t, q, r = p.s, p.t, p.gap, p.r
    if not x > q:
        raise ValueError("need x > t - s")
    if alpha < 0:
        raise ValueError("need alpha >= 0")
    scale = x**q
    h1 = (
        (s * alpha - q - (q * s + t) / x)
        * (1 + (1 - q) / x)
        * _falling(x + alpha * x, q)
        / scale
    )
    h2 = (t * alpha + q + (q * s - s) / x) * (1 + 1 / x) * _falling(x, q) / scale
    h3 = (
        (r - 2)
        * s
        * (alpha - 1 / x)
        * (1 + (1 - q) / x)
        * _falling(x, q)
        / scale
    )
    return _eval_from_components({"H1": h1, "H2": h2, "H3": h3})


# ---------------------------------------------------------------------------
# the log-count profile and its curvature at the balanced point


def log_count_profile(x: float, p: Params) -> float:
    """Log of the count profile along the one-parameter part deformation."""
    r, s, q = p.r, p.s, p.gap
    if not 0 < x < 1 / (r - 1):
        raise ValueError("need 0 < x < 1/(r-1)")
    first = x ** (r - 1) - (r - 1) * x**r
    second = (r - 1) * x**q + (1 - (r - 1) * x) ** q
    if first <= 0 or second <= 0:
        raise ValueError("profile undefined: nonpositive log argument")
    return s * math.log(first) + math.log(second)


def profile_curvature_closed(p: Params) -> int:
    """Closed-form curvature of the profile at x = 1/r."""
    q = p.gap
    return p.r * p.r * (p.r - 1) * (q * q - p.t - p.s * (p.r - 1))


def profile_curvature_numeric(p: Params) -> float:
    """Central second difference of the profile at 1/r with Richardson refinement."""
    x0 = 1 / p.r
    h = 1e-4 / p.r

    def second_diff(step: float) -> float:
        return (
            log_count_profile(x0 + step, p)
            - 2 * log_count_profile(x0, p)
            + log_count_profile(x0 - step, p)
        ) / (step * step)

    coarse = second_diff(h)
    fine = second_diff(h / 2)
    return (4 * fine - coarse) / 3


# ---------------------------------------------------------------------------
# quadrature


def _adaptive_simpson(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> float:
    budget = 10**6

    def simpson(l: float, r: float, fl: float, fm: float, fr: float) -> float:
        return (r - l) / 6 * (fl + 4 * fm + fr)

    def rec(
        l: float,
        r: float,
        fl: float,
        fm: float,
        fr: float,
        whole: float,
        eps: float,
    ) -> float:
        nonlocal budget
        budget -= 1
        if budget <= 0:
            raise InternalCheckError("quadrature exceeded its subdivision cap")
        m = (l + r) / 2
        lm, rm = (l + m) / 2, (m + r) / 2
        flm, frm = f(lm), f(rm)
        left = simpson(l, m, fl, flm, fm)
        right = simpson(m, r, fm, frm, fr)
        if abs(left + right - whole) <= 15 * eps:
            return left + right + (left + right - whole) / 15
        return rec(l, m, fl, flm, fm, left, eps / 2) + rec(
            m, r, fm, frm, fr, right, eps / 2
        )

    mid = (lo + hi) / 2
    flo, fmid, fhi = f(lo), f(mid), f(hi)
    return rec(lo, hi, flo, fmid, fhi, simpson(lo, hi, flo, fmid, fhi), tol)


def stability_integral(beta: float, p: Params) -> float:
    """Integral of z^{s-2} poly(z) / (1+z)^{(r-1)s+t} from 1/(r-1) to 1/beta - 1.

    Adaptive Simpson to absolute tolerance 1e-10; an empty interval (beta at
    its upper bound (r-1)/r) integrates to zero.
    """
    r, s, t = p.r, p.s, p.t
    if r < 2:
        raise ValueError("need r >= 2")
    if not 0 < beta <= (r - 1) / r:
        raise ValueError("need 0 < beta <= (r-1)/r")
    lo = 1 / (r - 1)
    hi = 1 / beta - 1
    if hi <= lo:
        return 0.0
    expo = (r - 1) * s + t

    def integrand(z: float) -> float:
        return z ** (s - 2) * step_ratio_poly(z, p).value / (1 + z) ** expo

    return _adaptive_simpson(integrand, lo, hi, 1e-10)


# ---------------------------------------------------------------------------
# exact rational identities


def transfer_identity_check(a_parts: Composition, p: Params) -> bool:
    """Exact check that the falling-factorial form equals the scaled count step.

    For nondecreasing part sizes with a_1 >= t, moving one vertex from the
    largest part to the smallest changes the pointed count by an amount that
    factors through falling factorials; both sides are evaluated as exact
    rationals and compared for equality.
    """
    r, s, t, q = p.r, p.s, p.t, p.gap
    if len(a_parts) != r:
        raise ValueError(f"need exactly {r} parts")
    if any(a_parts[i] > a_parts[i + 1] for i in range(r - 1)):
        raise ValueError("parts must be nondecreasing")
    a1, ar = a_parts[0], a_parts[-1]
    if a1 < t:
        raise ValueError("need smallest part >= t")
    if ar < 1:
        raise ValueError("need largest part >= 1")
    lhs = (
        Fraction(s * ar - t * (a1 + 1), a1 + 1 - s) * _falling(ar - s, q)
        + Fraction(t * ar - s * (a1 + 1), a1 + 1 - t) * _falling(a1 - s, q)
        + Fraction(s * (ar - a1 - 1), a1 + 1 - s)
        * sum(_falling(a_parts[i] - s, q) for i in range(1, r - 1))
    )
    moved = (a1 + 1, *a_parts[1:-1], ar - 1)
    denom = math.factorial(s)
    for x in a_parts:
        denom *= math.comb(x, s)
    h = Fraction(ar * math.factorial(t), denom)
    rhs = h * (pointed_pattern_count(moved, p) - pointed_pattern_count(a_parts, p))
    return lhs == rhs


def bipartite_offset_gain(n: int, x: int, p: Params) -> int:
    """Exact count change from offsetting a balanced bipartition by x.

    multipartite count of (n/2 - x, n/2 + x) minus the balanced count; n
    must be even and 0 <= x <= n/2 - s.
    """
    if p.r != 2:
        raise ValueError("offset gain is a two-part quantity (r = 2)")
    if n % 2:
        raise ValueError("need even n")
    half = n // 2
    if not 0 <= x <= half - p.s:
        raise ValueError("need 0 <= x <= n/2 - s")
    return multipartite_pattern_count((half - x, half + x), p) - turan_kst_count(n, p)
