"""Threshold classification and the asymptotic-side evaluations.

Exact rational identities are checked for equality; float quantities are
audited against independent closed forms, central differences, or actual
counts on large hosts.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from turanext.analytic import (
    ThresholdCase,
    bipartite_offset_gain,
    boundary_pairs,
    classify,
    log_count_profile,
    offset_gain_limit,
    offset_gain_limit_deriv0,
    offset_gain_rate,
    profile_curvature_closed,
    profile_curvature_numeric,
    scaled_degree_step,
    stability_integral,
    step_ratio_error,
    step_ratio_poly,
    step_ratio_poly_exact,
    step_scale,
    transfer_identity_check,
)
from turanext.closedform import (
    Params,
    anchored_degree_count,
    multipartite_pattern_count,
    turan_kst_count,
)


# ---------------------------------------------------------------------------
# classification


def test_classify_spot_cases():
    assert classify(Params(2, 1, 2)) is ThresholdCase.CaseA
    assert classify(Params(2, 1, 3)) is ThresholdCase.Boundary
    assert classify(Params(2, 1, 4)) is ThresholdCase.CaseC
    # q=3: q^2-q=6 sits in the dead band 2s=4 < 6 <= rs=6
    assert classify(Params(3, 2, 5)) is ThresholdCase.Undetermined
    with pytest.raises(ValueError):
        classify(Params(1, 1, 1))


def test_classify_agrees_with_curvature_sign_for_two_parts():
    for s in range(1, 7):
        for t in range(s, 13):
            p = Params(2, s, t)
            case = classify(p)
            closed = profile_curvature_closed(p)
            if case is ThresholdCase.CaseC:
                assert closed > 0
            elif case is ThresholdCase.Boundary:
                assert closed == 0
            else:
                assert case is ThresholdCase.CaseA and closed < 0


def test_classify_enum_values_are_their_names():
    for member in ThresholdCase:
        assert member.value == member.name


def test_boundary_pairs_listing():
    assert boundary_pairs(2) == [(1, 3)]
    assert boundary_pairs(3) == [(1, 3), (3, 6)]
    assert boundary_pairs(4) == [(1, 3), (3, 6), (6, 10)]
    with pytest.raises(ValueError):
        boundary_pairs(1)


def test_boundary_pairs_classify_boundary_and_kill_the_derivative():
    on_boundary = set(boundary_pairs(6))
    for s, t in on_boundary:
        p = Params(2, s, t)
        assert classify(p) is ThresholdCase.Boundary
        assert offset_gain_limit_deriv0(p) == 0
    # and the derivative vanishes at r=2 on exactly those pairs
    for s in range(1, 7):
        for t in range(s, 13):
            zero = offset_gain_limit_deriv0(Params(2, s, t)) == 0
            assert zero == ((s, t) in on_boundary)


# ---------------------------------------------------------------------------
# the step polynomial


def test_step_poly_exact_known_polynomials():
    # (2,1,1): 2z;  (2,1,3): 3z - 6z^2 + 3z^3;  (3,1,2): z + 4z^2
    for z in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(7, 3)):
        assert step_ratio_poly_exact(z, Params(2, 1, 1)) == 2 * z
        assert step_ratio_poly_exact(z, Params(2, 1, 3)) == 3 * z - 6 * z**2 + 3 * z**3
        assert step_ratio_poly_exact(z, Params(3, 1, 2)) == z + 4 * z**2


def test_step_poly_exact_equal_sides_closed_form():
    for r in (2, 3, 4):
        for s in (1, 2, 3):
            p = Params(r, s, s)
            for z in (Fraction(1, 3), Fraction(5, 7), Fraction(9, 2)):
                want = 2 * s * s * (z - Fraction(1, r - 1) + Fraction(1, s * (r - 1)))
                assert step_ratio_poly_exact(z, p) == want


def test_step_poly_exact_balanced_point_identity():
    for r in range(2, 6):
        for s in range(1, 7):
            for t in range(s, 7):
                p = Params(r, s, t)
                q = t - s
                got = step_ratio_poly_exact(Fraction(1, r - 1), p)
                if s < t:
                    assert got == Fraction(s * r + q - q * q, r - 1)
                else:
                    assert got == Fraction(2 * s, r - 1)


@pytest.mark.parametrize(
    "p",
    [Params(2, 1, 1), Params(2, 1, 2), Params(2, 1, 3), Params(3, 1, 2), Params(3, 2, 3), Params(2, 2, 3)],
    ids=str,
)
def test_step_poly_strictly_increases_past_balance(p):
    """Balanced-or-below triples keep gaining along the whole imbalance ray."""
    assert classify(p) in (ThresholdCase.CaseA, ThresholdCase.Boundary)
    lo = Fraction(1, p.r - 1)
    width = 10 - lo
    prev = step_ratio_poly_exact(lo, p)
    for i in range(1, 1001):
        cur = step_ratio_poly_exact(lo + width * Fraction(i, 1000), p)
        assert cur > prev
        prev = cur


def test_step_poly_float_matches_exact_and_components_sum():
    rng = random.Random(3)
    for _ in range(60):
        p = Params(rng.randint(2, 4), rng.randint(1, 3), rng.randint(1, 3) + 2)
        z = Fraction(rng.randint(1, 40), rng.randint(1, 9))
        ev = step_ratio_poly(float(z), p)
        assert ev.value == pytest.approx(float(step_ratio_poly_exact(z, p)), rel=1e-9)
        assert math.fsum(ev.components.values()) == pytest.approx(
            ev.value, abs=1e-12 * max(1.0, abs(ev.value))
        )


# ---------------------------------------------------------------------------
# limit gain polynomial


def test_gain_limit_vanishes_at_zero():
    for r in range(2, 5):
        for s in range(1, 4):
            for t in range(s, 6):
                assert offset_gain_limit(0.0, Params(r, s, t)).value == 0.0


def test_gain_limit_equal_sides_is_linear():
    # q = 0 collapses the polynomial to r*s*z
    for r in (2, 3, 4):
        for s in (1, 2):
            for z in (0.25, 1.0, 3.5):
                got = offset_gain_limit(z, Params(r, s, s)).value
                assert got == pytest.approx(r * s * z, rel=1e-12)


def test_gain_limit_derivative_matches_integer_form():
    h = 1e-6
    for r in range(2, 5):
        for s in range(1, 7):
            for t in range(s, 7):
                p = Params(r, s, t)
                numeric = (
                    offset_gain_limit(h, p).value - offset_gain_limit(-h, p).value
                ) / (2 * h)
                assert abs(numeric - offset_gain_limit_deriv0(p)) < 1e-4


# ---------------------------------------------------------------------------
# finite-x gain rate


def test_gain_rate_domain():
    with pytest.raises(ValueError):
        offset_gain_rate(2.0, 1.0, Params(2, 1, 3))  # x <= q
    with pytest.raises(ValueError):
        offset_gain_rate(10.0, -0.5, Params(2, 1, 3))


def test_gain_rate_exact_identity_one_gap():
    # (r,s,t) = (2,1,2) at alpha = 1 collapses to 3 - 3/x
    p = Params(2, 1, 2)
    for x in (5.0, 100.0, 1e4):
        assert offset_gain_rate(x, 1.0, p).value == pytest.approx(3 - 3 / x, abs=1e-12)


def test_gain_rate_components_and_limit():
    p = Params(2, 1, 2)
    ev = offset_gain_rate(1e6, 1.0, p)
    assert set(ev.components) == {"H1", "H2", "H3"}
    assert math.fsum(ev.components.values()) == pytest.approx(
        ev.value, abs=1e-12 * max(1.0, abs(ev.value))
    )
    assert abs(ev.value - offset_gain_limit(1.0, p).value) <= 1e-4


def test_gain_rate_equal_sides_third_component():
    # with no gap the third component is (r-2) s (alpha - 1/x)(1 + 1/x)
    for r, s, x, alpha in [(3, 1, 4.0, 0.7), (4, 2, 9.0, 1.3), (2, 1, 100.0, 0.5)]:
        ev = offset_gain_rate(x, alpha, Params(r, s, s))
        want = (r - 2) * s * (alpha - 1 / x) * (1 + 1 / x)
        assert ev.components["H3"] == pytest.approx(want, abs=1e-12)


def test_gain_rate_scaled_residual_stabilizes():
    p = Params(2, 1, 2)
    limit = offset_gain_limit(1.0, p).value
    ys = [x * abs(offset_gain_rate(x, 1.0, p).value - limit) for x in (1e3, 1e4, 1e5)]
    for a, b in zip(ys, ys[1:]):
        assert abs(b - a) <= 0.10 * max(a, b, 1e-9)


# ---------------------------------------------------------------------------
# count steps against the exact counting layer


def test_degree_step_edge_pattern_is_constant_two():
    p = Params(2, 1, 1)
    for n in (5, 9, 14):
        for a in range(1, n - 1):
            assert scaled_degree_step(p, a, n) == 2


def test_degree_step_matches_raw_difference():
    p = Params(2, 1, 2)
    step = scaled_degree_step(p, 3, 8)
    assert step == anchored_degree_count(p, 4, 8) - anchored_degree_count(p, 3, 8)
    with pytest.raises(ValueError):
        scaled_degree_step(p, 0, 8)
    with pytest.raises(ValueError):
        scaled_degree_step(p, 7, 8)


@pytest.mark.parametrize(
    "p,a,n",
    [
        (Params(2, 1, 1), 3, 10),
        (Params(2, 1, 3), 5, 40),
        (Params(3, 2, 3), 7, 30),
        (Params(4, 3, 5), 20, 90),
        (Params(3, 1, 2), 1, 3),
    ],
)
def test_step_scale_matches_exact_product(p, a, n):
    # C * a^{(r-2)s+t} * (n-a)^{s-2} with 1/C = (s!)^{r-1} t! (r-1)^{(r-2)s+t-1}
    e = (p.r - 2) * p.s + p.t
    inv_c = math.factorial(p.s) ** (p.r - 1) * math.factorial(p.t) * (p.r - 1) ** (e - 1)
    want = Fraction(a**e) * Fraction(n - a) ** (p.s - 2) / inv_c
    assert step_scale(p, a, n) == pytest.approx(float(want), rel=1e-12)
    with pytest.raises(ValueError):
        step_scale(p, 0, n)


def test_step_ratio_error_shrinks_with_n():
    p = Params(3, 2, 3)
    coarse = step_ratio_error(p, 1000, 2000)
    fine = step_ratio_error(p, 2000, 4000)
    assert fine < coarse


# ---------------------------------------------------------------------------
# log-count profile


def test_profile_domain():
    p = Params(2, 1, 3)
    for bad in (0.0, 1.0, -0.2, 1.4):
        with pytest.raises(ValueError):
            log_count_profile(bad, p)
    with pytest.raises(ValueError):
        log_count_profile(0.5, Params(3, 1, 2))  # needs x < 1/2


def test_profile_tracks_real_counts_on_large_hosts():
    for r, s, t, x, n in [
        (2, 1, 3, 0.3, 3000),
        (2, 2, 3, 0.42, 3000),
        (3, 1, 2, 0.28, 3000),
    ]:
        p = Params(r, s, t)
        a = round(x * n)
        parts = tuple([a] * (r - 1) + [n - (r - 1) * a])
        count = multipartite_pattern_count(parts, p)
        norm = math.log(math.factorial(t)) + (r - 1) * math.log(math.factorial(s))
        lhs = math.log(count) + norm - ((r - 1) * s + t) * math.log(n)
        assert abs(lhs - log_count_profile(a / n, p)) < 0.05


def test_curvature_closed_values():
    assert profile_curvature_closed(Params(2, 1, 4)) == 16
    assert profile_curvature_closed(Params(2, 1, 3)) == 0
    assert profile_curvature_closed(Params(3, 1, 4)) == 54


def test_curvature_numeric_agrees_with_closed():
    for r in (2, 3):
        for s in (1, 2, 3):
            for t in range(s, 7):
                p = Params(r, s, t)
                closed = profile_curvature_closed(p)
                numeric = profile_curvature_numeric(p)
                if closed != 0:
                    assert abs(numeric - closed) <= 1e-4 * abs(closed)
                else:
                    assert abs(numeric) <= 1e-3


# ---------------------------------------------------------------------------
# quadrature


def test_stability_integral_closed_form_value():
    # for (2,1,1) the integrand is 2/(1+z)^2; from 1 to 1.5 that's exactly 0.2
    assert stability_integral(0.4, Params(2, 1, 1)) == pytest.approx(0.2, abs=1e-9)


def test_stability_integral_boundary_triple_is_positive():
    assert stability_integral(0.45, Params(2, 1, 3)) > 0


def test_stability_integral_empty_interval_and_domain():
    assert stability_integral(0.5, Params(2, 1, 2)) == 0.0
    assert stability_integral(2 / 3, Params(3, 1, 2)) == 0.0
    with pytest.raises(ValueError):
        stability_integral(0.6, Params(2, 1, 2))
    with pytest.raises(ValueError):
        stability_integral(0.0, Params(2, 1, 2))


# ---------------------------------------------------------------------------
# exact rational identities


def test_transfer_identity_spot_tuples():
    assert transfer_identity_check((3, 3), Params(2, 1, 1))
    assert transfer_identity_check((4, 4, 4), Params(3, 1, 2))
    assert transfer_identity_check((5, 9), Params(2, 2, 3))


def test_transfer_identity_random_battery():
    rng = random.Random(7)
    for _ in range(50):
        r = rng.randint(2, 5)
        s = rng.randint(1, 5)
        t = s + rng.randint(0, 3)
        a1 = t + rng.randint(0, 12)
        rest = sorted(rng.randint(a1, a1 + 12) for _ in range(r - 1))
        assert transfer_identity_check((a1, *rest), Params(r, s, t))


def test_transfer_identity_preconditions():
    p = Params(3, 1, 2)
    with pytest.raises(ValueError):
        transfer_identity_check((4, 4), p)  # wrong arity
    with pytest.raises(ValueError):
        transfer_identity_check((5, 4, 6), p)  # not nondecreasing
    with pytest.raises(ValueError):
        transfer_identity_check((1, 4, 6), p)  # smallest part below t


def test_bipartite_offset_gain_exact_cases():
    assert bipartite_offset_gain(20, 0, Params(2, 2, 3)) == 0
    for n in (6, 10, 14):
        for x in range(0, n // 2):
            assert bipartite_offset_gain(n, x, Params(2, 1, 1)) == -x * x
    assert bipartite_offset_gain(400, 17, Params(2, 1, 3)) > 0


def test_bipartite_offset_gain_matches_direct_difference():
    p = Params(2, 2, 2)
    n = 30
    for x in (1, 4, 9):
        want = multipartite_pattern_count((15 - x, 15 + x), p) - turan_kst_count(n, p)
        assert bipartite_offset_gain(n, x, p) == want


def test_bipartite_offset_gain_domain():
    with pytest.raises(ValueError):
        bipartite_offset_gain(9, 1, Params(2, 1, 1))  # odd n
    with pytest.raises(ValueError):
        bipartite_offset_gain(10, 5, Params(2, 1, 1))  # x beyond n/2 - s
    with pytest.raises(ValueError):
        bipartite_offset_gain(10, 1, Params(3, 1, 1))  # needs two parts
