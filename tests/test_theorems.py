"""Tests for the verification campaigns and their statement-level examples."""
import json
import math

import numpy as np
import pytest

from oscillib.funcspace import (
    Interval,
    StepFunction,
    cutout,
    decreasing_rearrangement,
    random_step_function,
    stats,
    truncate,
)
from oscillib.geometry import GeometryContext
from oscillib.modulus import Modulus, norm_bound_check, oscillation_profile
from oscillib.theorems import (
    _normalized_to_unit_ball,
    linear_staircase,
    run_campaign,
    verify_cutout,
    verify_inf_bound,
    verify_dilation_invariance,
    verify_monotone_convexity,
    verify_rearrangement,
    verify_linear_threshold,
    verify_convexified,
)

GRID = np.linspace(1 / 64, 1.0, 64)


# ---------------------------------------------------------------------------
# rearrangement campaign


def test_rearrangement_small_campaign_clean():
    rep = verify_rearrangement(range(60), GRID)
    assert rep.failures == 0
    assert rep.trials == 60
    assert rep.worst_margin >= 0.0


@pytest.mark.parametrize(
    "seed", [760367782000543, 1022000886, 1041000311, 4042000716, 4052000779])
def test_rearrangement_large_mean_seeds(seed):
    # margins of -2.7e-13 to -1.3e-11 at t = 1/128 while window variances came
    # from uncentred prefix sums
    rep = verify_rearrangement([seed])
    assert rep.failures == 0


def test_rearrangement_monotone_fixed_point():
    # monotone functions rearrange to themselves: both profiles coincide
    sf = StepFunction(Interval(0, 1), (0.3, 0.6), (3.0, 2.0, 1.0))
    star = decreasing_rearrangement(sf)
    assert star == sf
    p1 = oscillation_profile(sf, GRID)
    p2 = oscillation_profile(star, GRID)
    assert p1.xi_values == p2.xi_values


def test_rearrangement_two_value_jump_profiles_equal():
    sf = StepFunction(Interval(0, 1), (0.5,), (0.0, 1.0))
    star = decreasing_rearrangement(sf)
    p1 = oscillation_profile(sf, GRID)
    p2 = oscillation_profile(star, GRID)
    assert np.allclose(p1.xi_values, p2.xi_values, atol=1e-14)


def test_campaign_deterministic_reports():
    a = verify_rearrangement(range(25), GRID)
    b = verify_rearrangement(range(25), GRID)
    assert a.to_json() == b.to_json()


def test_witness_rerun_reproduces_margin():
    rep = verify_rearrangement(range(40), GRID)
    seed = rep.witness["seed"]
    again = verify_rearrangement([seed], GRID)
    assert abs(again.worst_margin - rep.worst_margin) < 1e-12


# ---------------------------------------------------------------------------
# convexified comparison


def test_convexified_small_campaign_clean():
    rep = verify_convexified(range(40), GRID)
    assert rep.failures == 0


def test_convexified_monotone_reduces_to_rearrangement():
    # for a monotone function the companion of its profile is already convex,
    # so the convex minorant is the profile itself
    from oscillib.modulus import parabolic_convex_minorant

    psi = decreasing_rearrangement(random_step_function(5, 10))
    prof = oscillation_profile(psi, GRID)
    xi = np.asarray(prof.xi_values)
    _, conv = parabolic_convex_minorant(
        np.concatenate([[0.0], GRID]), np.concatenate([[0.0], xi])
    )
    assert np.allclose(conv[1:], xi, atol=1e-11)


def test_convexified_constant_function_all_zero():
    sf = StepFunction.constant(1.0, Interval(0, 1))
    prof = oscillation_profile(sf, GRID)
    assert max(prof.xi_values) == 0.0


# ---------------------------------------------------------------------------
# monotone convexity statements


def test_monotone_convexity_small_campaign_clean():
    rep = verify_monotone_convexity(range(40), GRID)
    assert rep.failures == 0


def test_monotone_convexity_linear_staircase_closed_form():
    # profile of a fine linear staircase: xi(t) ~ t/sqrt(12), companion t^4/12
    sf = linear_staircase(1.0, 256)
    prof = oscillation_profile(sf, GRID)
    xi = np.asarray(prof.xi_values)
    assert np.allclose(xi, GRID / math.sqrt(12.0), atol=1e-3)
    A = GRID * GRID * xi * xi
    second = A[2:] - 2 * A[1:-1] + A[:-2]
    assert np.min(second) >= -1e-9 * float(np.max(A))


def test_monotone_convexity_constant_trivially_convex():
    rep = verify_monotone_convexity([104], GRID)  # seeds can generate single-piece functions
    assert rep.failures == 0


# ---------------------------------------------------------------------------
# cutout campaign


def test_cutout_small_campaign_clean():
    rep = verify_cutout(range(80))
    assert rep.failures == 0
    assert rep.trials + rep.skipped == 80


def test_cutout_skip_path_for_constant():
    # single-piece functions cannot be normalized: counted as skipped
    rep = verify_cutout([104])
    assert rep.skipped + rep.trials == 1


def test_cutout_explicit_min_max_example():
    xi = Modulus.power(0.5)
    sf = StepFunction(Interval(0, 1), (0.25, 0.5, 0.75), (0.05, -0.05, 0.02, 0.08))
    prof = oscillation_profile(sf, GRID)
    ratio = max(np.asarray(prof.xi_values) / np.asarray(xi.eval(GRID)))
    vals = tuple(v / ratio for v in sf.values)
    sf = StepFunction(sf.domain, sf.breakpoints, vals)
    cuts = sf.cuts
    lo, hi = min(sf.values), max(sf.values)
    parts = [Interval(cuts[k], cuts[k + 1]) for k, v in enumerate(sf.values) if v in (lo, hi)]
    psi = cutout(sf, parts).function
    rep = norm_bound_check(psi, xi, 1.0, lengths=GRID[GRID <= psi.domain.length], tolerance=1e-9)
    assert rep.failures == 0


def test_truncate_then_cutout_reproduces_rearranged_window():
    # the reduction behind the rearrangement bound: truncating at the
    # rearranged levels and cutting the extreme sets matches the oscillation
    # of the rearranged function over the middle window
    xi = Modulus.power(0.5)
    found = 0
    for seed in range(40):
        base = random_step_function(seed, 12)
        prof = oscillation_profile(base, GRID)
        top = max(prof.xi_values)
        if top == 0.0:
            continue
        ratio = max(np.asarray(prof.xi_values) / np.asarray(xi.eval(GRID)))
        sf = StepFunction(
            base.domain, base.breakpoints, tuple(v / ratio for v in base.values)
        )
        star = decreasing_rearrangement(sf)
        if star.piece_count < 3:
            continue
        t1 = star.breakpoints[0]
        t2 = star.breakpoints[-1]
        b = star(t1)  # value right of the first cut
        a = star(t2)  # value right of the last cut (the minimum)
        trunc = truncate(sf, a, b)
        cuts = trunc.cuts
        parts = [
            Interval(cuts[k], cuts[k + 1])
            for k, v in enumerate(sf.values)
            if v > b or v <= a
        ]
        psi = cutout(trunc, parts).function
        d = psi.domain.length
        assert d == pytest.approx(t2 - t1, abs=1e-12)
        var_psi = stats(psi, psi.domain).variance
        var_star = stats(star, Interval(t1, t2)).variance
        assert var_psi == pytest.approx(var_star, rel=1e-9, abs=1e-12)
        assert var_star <= xi.eval(d) ** 2 + 1e-9
        found += 1
    assert found >= 10


# ---------------------------------------------------------------------------
# infimum bound campaign


def test_inf_bound_small_campaign_clean():
    rep = verify_inf_bound(range(40))
    assert rep.failures == 0


@pytest.mark.parametrize("xi", [Modulus.power(0.5), Modulus.linear(1.0)], ids=["power", "linear"])
def test_normalized_function_premises(xi):
    # the inf_bound campaign rescales once and checks membership of g only:
    # the margin of g must sit at rounding level, and -g must mirror g exactly
    ctx = GeometryContext(xi)
    checked = 0
    for seed in range(301):
        g = _normalized_to_unit_ball(random_step_function(seed, 16), xi)
        if g is None:
            continue
        neg = StepFunction(g.domain, g.breakpoints, tuple(-v for v in g.values))
        check = norm_bound_check(g, xi, 1.0)
        mirror = norm_bound_check(neg, xi, 1.0)
        assert check.worst_margin >= -1e-12
        assert (mirror.worst_margin, mirror.witness, mirror.trials) == (
            check.worst_margin, check.witness, check.trials)
        st, st_neg = stats(g, g.domain), stats(neg, neg.domain)
        assert (st_neg.mean, st_neg.second_moment) == (-st.mean, st.second_moment)
        mirrored = ctx.solve_tau_u(-st.mean, st.second_moment, g.domain.length).u
        assert ctx.inf_bound(neg) == mirrored
        checked += 1
    assert checked > 250


def test_inf_bound_constant_equality():
    ctx = GeometryContext(Modulus.power(0.5))
    sf = StepFunction.constant(-1.3, Interval(0, 1))
    assert ctx.inf_bound(sf) == pytest.approx(-1.3, abs=1e-12)


def test_inf_bound_linear_modulus_campaign():
    rep = verify_inf_bound(range(40), xi=Modulus.linear(1.0))
    assert rep.failures == 0


# ---------------------------------------------------------------------------
# dilation invariance


def test_dilation_small_campaign_clean():
    rep = verify_dilation_invariance(range(150))
    assert rep.failures == 0


def test_dilation_parabola_point_stays():
    # x on the lower parabola with offset a = x1: the dilation fixes it there
    xi = Modulus.power(2.0 / 3.0)
    a = 0.4
    t, s = 1.0, 0.35
    x = (a, a * a)
    y1 = a + (t / s) * (x[0] - a)
    y2 = a * a + (t / s) * (x[1] - a * a)
    assert y1 == a and y2 == a * a
    assert y2 <= y1 * y1 + xi.eval(s) ** 2


def test_dilation_identity_at_equal_scales():
    ctx = GeometryContext(Modulus.power(2.0 / 3.0))
    t = 1.0
    g = ctx.scaled_curve(t, 0.5)
    u = 0.7
    x1, x2 = u + g.x1, u * u + 2 * u * g.x1 + g.x2
    s = t  # no dilation
    y1 = 0.0 + (t / s) * (x1 - 0.0)
    y2 = 0.0 + (t / s) * (x2 - 0.0)
    assert (y1, y2) == (x1, x2)
    member = ctx.strip_contains(t, type(g)(y1, y2))
    assert member.inside


# ---------------------------------------------------------------------------
# linear threshold campaign


def test_linear_threshold_unit_slope():
    rep = verify_linear_threshold(1.0, Modulus.linear(1.0))
    assert rep.failures == 0
    assert rep.witness["worst_gap"] <= 1.0 / 512**2


def test_linear_threshold_zero_slope_trivial():
    rep = verify_linear_threshold(0.0, Modulus.linear(1.0))
    assert rep.failures == 0


def test_linear_threshold_calibrated_near_miss():
    # eps = 3 against xi(t) = t: the sharp constant is 3/sqrt(12); the
    # staircase must be fine enough that its discretization bump at the
    # smallest grid scale stays below the 1e-3 probe
    c_star = 3.0 / math.sqrt(12.0)
    passing = verify_linear_threshold(3.0, Modulus.linear(1.0), pieces=4096, bound=c_star + 1e-3)
    failing = verify_linear_threshold(3.0, Modulus.linear(1.0), pieces=4096, bound=c_star - 1e-3)
    assert passing.failures == 0
    assert failing.failures > 0


def test_linear_threshold_enforces_domination():
    with pytest.raises(ValueError):
        verify_linear_threshold(3.0, Modulus.linear(1.0))


# ---------------------------------------------------------------------------
# registry and report plumbing


def test_run_campaign_dispatch_and_unknown():
    rep = run_campaign("dilation", range(10))
    assert rep.name == "dilation"
    with pytest.raises(ValueError):
        run_campaign("nope", [1])


def test_report_json_schema():
    rep = verify_dilation_invariance(range(5))
    data = json.loads(rep.to_json())
    for key in ("name", "trials", "failures", "worst_margin", "tolerance", "witness"):
        assert key in data


def test_tolerance_override_loosens_failures():
    # an impossible statement fails at zero tolerance and passes with a huge one
    rep = verify_linear_threshold(3.0, Modulus.linear(1.0), bound=0.5)
    assert rep.failures > 0
    strict = run_campaign("rearrangement", range(5), GRID, tolerance=10.0)
    assert strict.tolerance == 10.0
    assert strict.failures == 0
