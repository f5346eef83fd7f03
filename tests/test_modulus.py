"""Tests for moduli, oscillation profiles, convexification and majorants."""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oscillib.funcspace import (
    DomainError,
    Interval,
    StepFunction,
    _prefix_integrals,
    random_step_function,
    stats,
)
from oscillib.modulus import (
    _CHUNK_ELEMENTS,
    Modulus,
    _SigmaEvaluator,
    check_companion_convex,
    ray_convex_majorant,
    mollified_majorant,
    norm_bound_check,
    oscillation_profile,
    parabolic_convex_minorant,
    stationary_lengths,
    sup_variance_at_lengths,
    worst_ratio,
)
from oscillib.theorems import default_length_grid

UNIT = Interval(0.0, 1.0)
GRID64 = np.linspace(1 / 64, 1.0, 64)


def staircase(eps: float, pieces: int) -> StepFunction:
    edges = np.linspace(0.0, 1.0, pieces + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return StepFunction(UNIT, tuple(edges[1:-1]), tuple(float(eps * m) for m in mids))


def brute_force_profile(sf: StepFunction, t: float, n_starts=2000, n_lengths=2000) -> float:
    """Dense window-grid oracle for the oscillation sup at scale t."""
    fine = np.linspace(sf.domain.left, sf.domain.right, 4001)
    idx = np.clip(np.searchsorted(sf.breakpoints, fine[:-1], side="right"), 0, len(sf.values) - 1)
    vals = np.asarray(sf.values)[idx]
    dx = np.diff(fine)
    P = np.concatenate([[0.0], np.cumsum(vals * dx)])
    Q = np.concatenate([[0.0], np.cumsum(vals * vals * dx)])
    best = 0.0
    for ell in np.linspace(t / n_lengths, t, 200):
        starts = np.linspace(sf.domain.left, sf.domain.right - ell, n_starts)
        i = np.searchsorted(fine, starts)
        j = np.searchsorted(fine, starts + ell)
        j = np.minimum(j, len(fine) - 1)
        span = fine[j] - fine[i]
        ok = span > 0
        m = (P[j] - P[i])[ok] / span[ok]
        q = (Q[j] - Q[i])[ok] / span[ok]
        best = max(best, float(np.max(q - m * m, initial=0.0)))
    return math.sqrt(best)


# ---------------------------------------------------------------------------
# modulus evaluation


def test_power_eval_and_derivative():
    xi = Modulus.power(0.5)
    assert xi.eval(0.25) == pytest.approx(0.5, abs=1e-15)
    assert xi.eval_derivative(0.25) == pytest.approx(1.0, abs=1e-15)
    assert xi.eval(0.0) == 0.0


def test_eval_domain_errors():
    xi = Modulus.power(0.5)
    with pytest.raises(DomainError):
        xi.eval(1.5)
    with pytest.raises(DomainError):
        xi.eval_derivative(0.0)


def test_linear_companion_is_convex():
    xi = Modulus.linear(0.25)
    grid = np.linspace(0, 1, 65)
    assert check_companion_convex(xi, grid)


def test_sampled_modulus_validation():
    with pytest.raises(ValueError):
        Modulus.sampled((0.0, 0.5, 1.0), (0.0, 0.4, 0.3))  # decreasing
    with pytest.raises(ValueError):
        Modulus.sampled((0.1, 1.0), (0.0, 1.0))  # grid not from 0
    with pytest.raises(ValueError):
        Modulus.power(1.5)  # alpha beyond 1


def test_modulus_rejects_non_finite():
    bad = [
        lambda: Modulus.power(0.5, horizon=math.nan),
        lambda: Modulus.power(math.nan),
        lambda: Modulus.power(0.5, scale=math.inf),
        lambda: Modulus.linear(math.inf),
        lambda: Modulus.sampled((0.0, 0.5, math.inf), (0.0, 0.5, 1.0)),
        lambda: Modulus.sampled((0.0, 0.5, 1.0), (0.0, math.nan, 1.0)),
    ]
    for make in bad:
        with pytest.raises(ValueError):
            make()


def test_sampled_interpolation_and_derivative():
    xi = Modulus.sampled((0.0, 0.5, 1.0), (0.0, 0.2, 1.0))
    assert xi.eval(0.25) == pytest.approx(0.1, abs=1e-15)
    assert xi.eval_derivative(0.25) == pytest.approx(0.4, rel=1e-6)


def test_modulus_json_round_trip():
    for xi in (Modulus.power(0.3, 2.0), Modulus.linear(0.7),
               Modulus.sampled((0.0, 1.0), (0.0, 2.0))):
        again = Modulus.from_json(xi.to_json())
        assert again == xi


# ---------------------------------------------------------------------------
# oscillation profile


def test_profile_constant_function_is_zero():
    prof = oscillation_profile(StepFunction.constant(4.0, UNIT), GRID64)
    assert all(v == 0.0 for v in prof.xi_values)
    for wit in prof.witnesses:
        assert stats(StepFunction.constant(4.0, UNIT), wit).variance == 0.0


def test_profile_jump_function_is_half_everywhere():
    sf = StepFunction(UNIT, (0.5,), (1.0, 0.0))
    prof = oscillation_profile(sf, GRID64)
    assert np.allclose(prof.xi_values, 0.5, atol=1e-13)
    oracle = brute_force_profile(sf, 0.5)
    assert oracle == pytest.approx(0.5, abs=1e-3)


def test_profile_staircase_approaches_linear_law():
    sf = staircase(1.0, 128)
    grid = np.linspace(1 / 32, 1.0, 32)
    prof = oscillation_profile(sf, grid)
    assert np.allclose(prof.xi_values, grid / math.sqrt(12.0), atol=4e-3)


def test_profile_monotone_in_length():
    sf = random_step_function(8, 14)
    prof = oscillation_profile(sf, GRID64)
    assert all(a <= b for a, b in zip(prof.xi_values, prof.xi_values[1:]))


def test_profile_matches_brute_force_on_random_functions():
    grid = np.linspace(0.1, 1.0, 10)
    for seed in (1, 4, 9):
        sf = random_step_function(seed, 6)
        prof = oscillation_profile(sf, grid)
        for t, xi_val in zip((0.3, 0.7, 1.0), np.asarray(prof.xi_values)[[2, 6, 9]]):
            oracle = brute_force_profile(sf, t)
            assert oracle <= xi_val + 1e-9  # profile is the exact sup
            assert xi_val == pytest.approx(oracle, abs=5e-3)


@pytest.mark.parametrize("factor", [-2.0, 0.5, 3.0, 1e-150, 1e150, 1e-300, 1e300])
def test_profile_scale_covariance(factor):
    sf = random_step_function(21, 10)
    scaled = StepFunction(sf.domain, sf.breakpoints, tuple(factor * v for v in sf.values))
    p1 = np.asarray(oscillation_profile(sf, GRID64).xi_values)
    p2 = np.asarray(oscillation_profile(scaled, GRID64).xi_values)
    assert np.allclose(p2, abs(factor) * p1, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("offset", [2.75, 1e6, 1e8, 1e12])
def test_profile_shift_invariance(offset):
    sf = random_step_function(22, 10)
    shifted = StepFunction(sf.domain, sf.breakpoints, tuple(v + offset for v in sf.values))
    # (v + c) - c is exact (Sterbenz), so the two functions differ by exactly c
    unshifted = StepFunction(sf.domain, sf.breakpoints, tuple(v - offset for v in shifted.values))
    p1 = np.asarray(oscillation_profile(unshifted, GRID64).xi_values)
    p2 = np.asarray(oscillation_profile(shifted, GRID64).xi_values)
    assert np.allclose(p2, p1, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e8, 1e10, 1e12])
def test_profile_witnesses_reproduce_values(offset):
    base = random_step_function(33, 12)
    sf = StepFunction(base.domain, base.breakpoints, tuple(v + offset for v in base.values))
    prof = oscillation_profile(sf, GRID64)
    for t, xi_val, wit in zip(prof.lengths, prof.xi_values, prof.witnesses):
        assert wit.length <= t * (1 + 1e-12)
        recomputed = math.sqrt(stats(sf, wit).variance)
        assert recomputed == pytest.approx(xi_val, rel=1e-12, abs=0.0)


def test_profile_of_equal_valued_split_matches_unsplit():
    # 15 pieces cut into 9 equal-valued sub-pieces each: the same function at
    # 135 pieces, above the piece count where an inexact enumeration once
    # took over (it reported xi 1.5e-3 too low here)
    base = random_step_function(287, 16)
    cuts = np.asarray(base.cuts)
    bp = [cuts[k] + (cuts[k + 1] - cuts[k]) * m / 9 for k in range(base.piece_count) for m in range(9)]
    split = StepFunction(base.domain, tuple(bp[1:]), tuple(np.repeat(base.values, 9)))
    assert split.piece_count == 135
    grid = default_length_grid(points=128)
    p1 = np.asarray(oscillation_profile(base, grid).xi_values)
    p2 = np.asarray(oscillation_profile(split, grid).xi_values)
    assert np.allclose(p2, p1, rtol=1e-12, atol=0.0)


def exact_variance(sf: StepFunction, window: Interval) -> Fraction:
    """Variance of ``sf`` over ``window`` in rational arithmetic."""
    left, right = Fraction(window.left), Fraction(window.right)
    cuts = [Fraction(x) for x in sf.cuts]
    first = second = Fraction(0)
    for k, v in enumerate(sf.values):
        overlap = min(cuts[k + 1], right) - max(cuts[k], left)
        if overlap > 0:
            first += Fraction(v) * overlap
            second += Fraction(v) ** 2 * overlap
    length = right - left
    return second / length - (first / length) ** 2


def test_profile_matches_exact_variance_of_its_witnesses():
    grid = default_length_grid(points=128)
    for seed in [*range(101), 745]:
        sf = random_step_function(seed, 16)
        prof = oscillation_profile(sf, grid)
        for xi_val, wit in zip(prof.xi_values, prof.witnesses):
            exact = exact_variance(sf, wit)
            assert abs(Fraction(xi_val) ** 2 - exact) <= Fraction(2e-12) * exact, (seed, wit)


def test_profile_rejects_bad_grid():
    sf = random_step_function(1, 4)
    with pytest.raises(ValueError):
        oscillation_profile(sf, [])
    with pytest.raises(ValueError):
        oscillation_profile(sf, [0.5, 1.5])


def test_stationary_lengths_cover_cut_differences():
    sf = random_step_function(13, 10)
    lengths = stationary_lengths(sf)[:, 1]
    cuts = np.asarray(sf.cuts)
    diffs = (cuts[None, :] - cuts[:, None]).ravel()
    for d in diffs[diffs > 0]:
        assert np.any(np.isclose(lengths, d, rtol=0, atol=1e-15))


def pieces_exactly(seed: int, pieces: int) -> StepFunction:
    rng = np.random.default_rng(seed)
    bp = np.sort(rng.uniform(0.0, 1.0, pieces - 1))
    return StepFunction(UNIT, tuple(bp), tuple(rng.uniform(-1.0, 1.0, pieces)))


def stationary_lengths_reference(sf: StepFunction) -> np.ndarray:
    """One (cut, piece) pair at a time: the loop `stationary_lengths` vectorises."""
    c, v, P, Q, _, _ = _prefix_integrals(sf)
    w = v * v
    rows = [(c[a], c[b] - c[a]) for a in range(len(c)) for b in range(a + 1, len(c))]
    for k in range(len(v) + 1):
        x = c[k]
        for p in range(len(v)):
            if c[p] > x:
                lo, hi = c[p] - x, c[p + 1] - x
                alpha = P[p] - P[k] + v[p] * (x - c[p])
                den = (Q[p] - Q[k] + w[p] * (x - c[p])) - 2.0 * alpha * v[p]
                if den != 0.0:
                    ell = 2.0 * alpha * alpha / den
                    if lo < ell <= hi:
                        rows.append((x, ell))
            if c[p + 1] < x:
                lo, hi = x - c[p + 1], x - c[p]
                alpha = P[k] - P[p] - v[p] * (x - c[p])
                den = (Q[k] - Q[p] - w[p] * (x - c[p])) - 2.0 * alpha * v[p]
                if den != 0.0:
                    ell = 2.0 * alpha * alpha / den
                    if lo < ell <= hi:
                        rows.append((x - ell, ell))
    out = [(min(max(left, c[0]), c[-1] - ell), ell) for left, ell in rows
           if 0 < ell <= sf.domain.length]
    return np.asarray(out, dtype=float).reshape(-1, 2)


def sorted_rows(rows: np.ndarray) -> np.ndarray:
    return rows[np.lexsort((rows[:, 1], rows[:, 0]))]


def test_stationary_lengths_match_loop_reference():
    functions = [random_step_function(s, 16) for s in range(2001)]
    functions += [pieces_exactly(s, n) for s in range(3) for n in (64, 128)]
    functions.append(pieces_exactly(5, 256))
    for sf in functions:
        assert np.array_equal(sorted_rows(stationary_lengths(sf)),
                              sorted_rows(stationary_lengths_reference(sf)))


@pytest.mark.parametrize("domain", [UNIT, Interval(-1.7, 0.3), Interval(1 / 3, 2.9)])
def test_stationary_windows_and_witnesses_lie_inside_the_domain(domain):
    # on the last two domains x - l and left + l round outside for most seeds
    grid = default_length_grid(domain.length, points=32)
    for seed in range(100):
        sf = random_step_function(seed, 16, domain=domain)
        left, length = stationary_lengths(sf).T
        assert np.all(left >= domain.left) and np.all(left <= domain.right - length)
        prof = oscillation_profile(sf, grid)
        for xi_val, wit in zip(prof.xi_values, prof.witnesses):
            assert math.sqrt(stats(sf, wit).variance) == pytest.approx(xi_val, rel=1e-12, abs=0.0)


def test_batch_blocks_match_single_length_calls():
    sf = pieces_exactly(7, 128)
    cand = np.unique(np.concatenate([default_length_grid(points=128), stationary_lengths(sf)[:, 1]]))
    rows = _CHUNK_ELEMENTS // (2 * (sf.piece_count + 1))
    assert len(cand) > 2 * rows and len(cand) % rows != 0
    ev = _SigmaEvaluator(sf)
    sup, wit_left = ev.batch(cand)
    single = [ev.batch([ell]) for ell in cand]
    assert np.array_equal(sup, np.concatenate([s for s, _ in single]))
    assert np.array_equal(wit_left, np.concatenate([x for _, x in single]))


def test_sup_variance_at_no_lengths():
    sup, wit_left = sup_variance_at_lengths(random_step_function(3, 8), [])
    assert sup.shape == (0,) and wit_left.shape == (0,)


@pytest.mark.parametrize("pieces, bound", [(128, 32e6), (1024, 128e6)], ids=["128", "1024"])
def test_profile_peak_memory_is_bounded(pieces, bound):
    sf = pieces_exactly(11, pieces)
    tracemalloc.start()
    try:
        oscillation_profile(sf, default_length_grid(points=128))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


# ---------------------------------------------------------------------------
# norm bound check


def test_norm_check_constant_zero_bound():
    rep = norm_bound_check(StepFunction.constant(2.0, UNIT), Modulus.power(0.5), 0.0)
    assert rep.failures == 0
    assert rep.worst_margin == 0.0


def test_norm_check_staircase_linear_modulus():
    rep = norm_bound_check(staircase(1.0, 256), Modulus.linear(1.0), 1.0,
                           lengths=np.linspace(1 / 64, 1, 64))
    assert rep.failures == 0
    assert rep.worst_margin > 0.0


def test_norm_check_jump_fails_for_small_scales():
    sf = StepFunction(UNIT, (0.5,), (0.0, 1.0))
    rep = norm_bound_check(sf, Modulus.power(0.5), 0.5)
    assert rep.failures > 0
    assert rep.worst_margin < 0.0
    # the binding witness straddles the jump
    assert rep.witness["window_left"] < 0.5 < rep.witness["window_right"]


def test_profile_is_smallest_admissible_modulus():
    # the sampled profile certifies the bound at its own scales (refinement
    # between nodes would probe where piecewise-linear interpolation
    # under-represents the true supremum)
    for seed in (2, 5, 12):
        sf = random_step_function(seed, 10)
        prof = oscillation_profile(sf, GRID64)
        if max(prof.xi_values) == 0.0:
            continue
        xi = prof.as_sampled_modulus()
        rep = norm_bound_check(sf, xi, 1.0, lengths=GRID64, tolerance=1e-9, refine=False)
        assert rep.failures == 0
        # smallest: shrinking the profile by any margin breaks the bound
        shrunk = Modulus.sampled(xi.grid, tuple(0.999 * v for v in xi.sample_values))
        rep2 = norm_bound_check(sf, shrunk, 1.0, lengths=GRID64, tolerance=1e-9, refine=False)
        assert rep2.failures > 0


@pytest.mark.parametrize("seed", [6, 58, 149])
def test_norm_check_refinement_reaches_dense_scan_minimum(seed):
    # on this coarse grid the worst margin lies between two grid lengths
    sf = random_step_function(seed, 8)
    xi = Modulus.power(0.5)
    lengths = default_length_grid(points=16)
    coarse = norm_bound_check(sf, xi, 1.0, lengths=lengths, refine=False)
    rep = norm_bound_check(sf, xi, 1.0, lengths=lengths)
    assert rep.worst_margin <= coarse.worst_margin

    dense = np.linspace(lengths[0], lengths[-1], 200_001)
    dense_min = min(
        float(np.min(np.asarray(xi.eval(chunk)) - np.sqrt(sup_variance_at_lengths(sf, chunk)[0])))
        for chunk in np.array_split(dense, 20)
    )
    assert abs(rep.worst_margin - dense_min) <= 1e-9

    wit = rep.witness
    st = stats(sf, Interval(wit["window_left"], wit["window_right"]))
    assert xi.eval(wit["length"]) - math.sqrt(st.variance) == pytest.approx(rep.worst_margin, abs=1e-12)


def test_worst_ratio_matches_manual_ratio():
    sf = StepFunction(UNIT, (0.5,), (0.0, 1.0))
    xi = Modulus.power(0.5)
    # sup over scales of 0.5/sqrt(l) on the default set: attained at its floor
    r = worst_ratio(sf, xi)
    assert r == pytest.approx(0.5 / math.sqrt(1e-4), rel=1e-6)


# ---------------------------------------------------------------------------
# parabolic convex minorant


def chord_envelope_oracle(s: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Pairwise-chord lower envelope oracle (cubic cost, transparent)."""
    out = F.copy()
    n = len(s)
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                if s[j] <= s[i] <= s[k] and s[k] > s[j]:
                    lam = (s[i] - s[j]) / (s[k] - s[j])
                    out[i] = min(out[i], (1 - lam) * F[j] + lam * F[k])
    return out


def test_conv_fixed_point_for_power():
    grid = np.linspace(0.0, 1.0, 33)
    f = np.sqrt(grid)  # s^2 f^2 = s^3 convex
    s, g = parabolic_convex_minorant(grid, f)
    assert np.allclose(g, f, atol=1e-13)


def test_conv_three_point_example():
    s, g = parabolic_convex_minorant(
        [0.0, 0.5, 1.0], [0.0, math.sqrt(0.4) / 0.5, math.sqrt(0.5)]
    )
    assert g[1] == pytest.approx(1.0, abs=1e-13)
    assert g[2] == pytest.approx(math.sqrt(0.5), abs=1e-13)


def test_conv_idempotent():
    rng = np.random.default_rng(0)
    grid = np.linspace(0.0, 1.0, 41)
    f = np.abs(rng.normal(size=41))
    f[0] = 0.0
    _, g = parabolic_convex_minorant(grid, f)
    _, g2 = parabolic_convex_minorant(grid, g)
    assert np.allclose(g2, g, atol=1e-12)


def test_conv_matches_chord_oracle():
    rng = np.random.default_rng(42)
    for _ in range(5):
        grid = np.linspace(0.0, 1.0, 33)
        f = np.abs(rng.normal(size=33))
        f[0] = 0.0
        s, g = parabolic_convex_minorant(grid, f)
        F = grid * grid * f * f
        oracle_env = chord_envelope_oracle(grid, F)
        g_oracle = np.zeros_like(grid)
        g_oracle[1:] = np.sqrt(np.maximum(oracle_env[1:], 0.0)) / grid[1:]
        assert np.allclose(g, g_oracle, atol=1e-10)


def test_conv_majorization_and_convexity():
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, 1.0, 65)
    f = np.abs(rng.normal(size=65))
    f[0] = 0.0
    _, g = parabolic_convex_minorant(grid, f)
    assert np.all(g <= f + 1e-13)
    F = grid * grid * g * g
    second = F[2:] - 2 * F[1:-1] + F[:-2]
    assert np.min(second) >= -1e-12


def test_conv_maximality():
    # raising any interior envelope value breaks convexity or majorization
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 1.0, 33)
    f = np.abs(rng.normal(size=33))
    f[0] = 0.0
    _, g = parabolic_convex_minorant(grid, f)
    F = grid * grid * g * g
    F_orig = grid * grid * f * f
    for k in range(1, len(grid) - 1):
        bumped = F.copy()
        bumped[k] += 1e-6
        second = bumped[2:] - 2 * bumped[1:-1] + bumped[:-2]
        breaks_convexity = np.min(second) < -1e-12
        breaks_majorization = bumped[k] > F_orig[k] + 1e-12
        assert breaks_convexity or breaks_majorization


def test_conv_rejects_negative_samples():
    with pytest.raises(ValueError):
        parabolic_convex_minorant([0.0, 1.0], [0.0, -1.0])


# ---------------------------------------------------------------------------
# A-convexity check


def test_check_companion_convex_power_true():
    grid = np.linspace(0.0, 1.0, 65)
    for alpha in (0.25, 0.5, 1.0):
        assert check_companion_convex(Modulus.power(alpha), grid)


def test_check_companion_convex_sampled_false():
    # valid modulus (non-decreasing) whose companion t^2 xi^2 is not convex:
    # xi^2 = min(4t, 1), whose companion 4t^3 -> t^2 loses slope at the kink
    xi = Modulus.sampled((0.0, 0.2, 0.25, 0.3, 1.0), (0.0, 0.8944271909999159, 1.0, 1.0, 1.0))
    assert not check_companion_convex(xi, np.asarray([0.0, 0.2, 0.25, 0.3, 1.0]))


def test_check_companion_convex_needs_three_points():
    with pytest.raises(ValueError):
        check_companion_convex(Modulus.linear(1.0), [0.0, 1.0])


# ---------------------------------------------------------------------------
# ray-built majorant


def check_majorant_contract(xi: Modulus, tilde: Modulus, t0: float, delta: float):
    grid = np.asarray(tilde.grid)
    vals = np.asarray(tilde.sample_values)
    assert vals[0] == 0.0
    assert np.all(np.diff(vals) >= -1e-15)
    assert np.min(vals - np.asarray(xi.eval(grid))) >= -1e-12
    assert tilde.eval(t0) <= xi.eval(t0) + delta + 1e-12
    # chord test handles the possibly non-uniform node at t0
    G = grid * vals
    h1 = grid[1:-1] - grid[:-2]
    h2 = grid[2:] - grid[1:-1]
    chord = G[:-2] + (G[2:] - G[:-2]) * h1 / (h1 + h2)
    assert np.min(2 * (chord - G[1:-1])) >= -1e-12


def test_majorant_on_already_convex_input():
    xi = Modulus.linear(1.0)  # t * xi = t^2 convex already
    tilde = ray_convex_majorant(xi, 0.5, 0.1, grid_points=513)
    check_majorant_contract(xi, tilde, 0.5, 0.1)


def test_majorant_sqrt_acceptance_shape():
    xi = Modulus.power(0.5)
    tilde = ray_convex_majorant(xi, 1.0, 0.1, grid_points=1025)
    check_majorant_contract(xi, tilde, 1.0, 0.1)
    assert tilde.eval(1.0) <= 1.1 + 1e-15


def test_majorant_interior_anchor():
    xi = Modulus.power(0.4, 0.8, horizon=2.0)
    tilde = ray_convex_majorant(xi, 0.7, 0.05, grid_points=1025)
    check_majorant_contract(xi, tilde, 0.7, 0.05)


def test_majorant_rejects_bad_args():
    xi = Modulus.power(0.5)
    with pytest.raises(ValueError):
        ray_convex_majorant(xi, 0.0, 0.1)
    with pytest.raises(ValueError):
        ray_convex_majorant(xi, 0.5, -1.0)


# ---------------------------------------------------------------------------
# mollified majorants


def test_mollified_dominates_linear():
    xi = Modulus.linear(1.0)
    for n in (5, 20):
        t = 0.3
        assert mollified_majorant(xi, n, t) >= xi.eval(t)


def test_mollified_converges():
    xi = Modulus.power(0.5)
    d10 = abs(mollified_majorant(xi, 10, 0.5) - xi.eval(0.5))
    d100 = abs(mollified_majorant(xi, 100, 0.5) - xi.eval(0.5))
    assert d100 < d10


def test_mollified_vanishes_at_small_scales():
    xi = Modulus.power(0.5)
    for n in (10, 50):
        v = mollified_majorant(xi, n, 1.0 / (4 * n))
        assert v < 0.3
    assert mollified_majorant(xi, 200, 1.0 / 800) < mollified_majorant(xi, 10, 1.0 / 40)


def test_mollified_companion_convex():
    xi = Modulus.power(0.5)
    n = 10
    ts = np.linspace(0.05, 1 - 1 / (2 * n), 33)
    A = np.asarray([t * t * mollified_majorant(xi, n, t) ** 2 for t in ts])
    second = A[2:] - 2 * A[1:-1] + A[:-2]
    assert np.min(second) > 0.0


def test_mollified_domain_errors():
    xi = Modulus.power(0.5)
    with pytest.raises(DomainError):
        mollified_majorant(xi, 10, 0.99)  # beyond T*(1 - 1/(2n))
    with pytest.raises(ValueError):
        mollified_majorant(xi, 0, 0.1)


def test_mollified_requires_convex_companion():
    xi = Modulus.sampled((0.0, 0.2, 0.25, 0.3, 1.0), (0.0, 0.8944271909999159, 1.0, 1.0, 1.0))
    assert not check_companion_convex(xi, np.linspace(0, 1, 257))
    with pytest.raises(ValueError):
        mollified_majorant(xi, 10, 0.25)
