"""Tests for exact step-function statistics, rearrangement, truncation, cutout."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillib.funcspace import (
    DomainError,
    Interval,
    StepFunction,
    cutout,
    decreasing_rearrangement,
    distribution_measure,
    random_step_function,
    stats,
    truncate,
)

UNIT = Interval(0.0, 1.0)


def riemann_stats(sf: StepFunction, window: Interval, n: int = 1_000_000):
    """Slow midpoint-rule oracle for mean / second moment over a window."""
    xs = window.left + (np.arange(n) + 0.5) * (window.length / n)
    idx = np.clip(np.searchsorted(sf.breakpoints, xs, side="right"), 0, len(sf.values) - 1)
    vals = np.asarray(sf.values)[idx]
    mean = float(np.mean(vals))
    second = float(np.mean(vals * vals))
    return mean, second


def staircase(eps: float, pieces: int) -> StepFunction:
    edges = np.linspace(0.0, 1.0, pieces + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return StepFunction(UNIT, tuple(edges[1:-1]), tuple(float(eps * m) for m in mids))


@st.composite
def step_functions(draw, max_pieces=8):
    n = draw(st.integers(min_value=1, max_value=max_pieces))
    widths = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    vals = draw(st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=n, max_size=n))
    cuts = np.concatenate([[0.0], np.cumsum(widths)])
    return StepFunction(Interval(0.0, float(cuts[-1])), tuple(cuts[1:-1]), tuple(vals))


# ---------------------------------------------------------------------------
# construction and invariants


def test_interval_requires_positive_length():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_interval_rejects_non_finite():
    for left, right in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (-1e308, 1e308)):
        with pytest.raises(ValueError):
            Interval(left, right)


def test_step_function_rejects_non_finite():
    with pytest.raises(ValueError):
        StepFunction(UNIT, (0.5,), (math.nan, 1.0))
    with pytest.raises(ValueError):
        StepFunction(UNIT, (0.5,), (1.0, -math.inf))
    with pytest.raises(ValueError):
        StepFunction(UNIT, (math.nan,), (1.0, 2.0))


def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction(UNIT, (0.5,), (1.0,))  # missing one value
    with pytest.raises(ValueError):
        StepFunction(UNIT, (0.5, 0.4), (1.0, 2.0, 3.0))  # not increasing
    with pytest.raises(ValueError):
        StepFunction(UNIT, (1.0,), (1.0, 2.0))  # breakpoint on the boundary


def test_normalize_merges_equal_neighbours():
    sf = StepFunction(UNIT, (0.25, 0.5), (1.0, 1.0, 2.0))
    out = sf.normalize()
    assert out.breakpoints == (0.5,)
    assert out.values == (1.0, 2.0)


def test_json_round_trip():
    sf = StepFunction(UNIT, (0.25, 0.5), (1.0, -2.0, 3.5))
    again = StepFunction.from_json(sf.to_json())
    assert again == sf


# ---------------------------------------------------------------------------
# stats


def test_stats_constant_function():
    sf = StepFunction.constant(3.7, UNIT)
    st_ = stats(sf, Interval(0.2, 0.9))
    assert st_.mean == pytest.approx(3.7, abs=0)
    assert st_.variance == 0.0


def test_stats_two_piece_example():
    # frozen from the midpoint-rule oracle; the values are exact fractions
    sf = StepFunction(UNIT, (0.5,), (1.0, 3.0))
    st_ = stats(sf, Interval(0.25, 0.75))
    assert st_.mean == pytest.approx(2.0, abs=1e-14)
    assert st_.second_moment == pytest.approx(5.0, abs=1e-14)
    assert st_.variance == pytest.approx(1.0, abs=1e-13)
    mean_o, second_o = riemann_stats(sf, Interval(0.25, 0.75))
    assert mean_o == pytest.approx(st_.mean, abs=1e-5)
    assert second_o == pytest.approx(st_.second_moment, abs=1e-5)


def test_stats_staircase_variance_matches_linear_limit():
    # variance of s -> eps*s over J is eps^2 |J|^2 / 12; staircases converge
    window = Interval(0.1, 0.9)
    eps = 2.0
    target = eps * eps * window.length**2 / 12.0
    errs = []
    for pieces in (64, 256, 1024):
        st_ = stats(staircase(eps, pieces), window)
        errs.append(abs(st_.variance - target))
    assert errs[-1] < errs[0]
    assert errs[-1] < 1e-5


def test_stats_window_outside_domain():
    sf = StepFunction.constant(1.0, UNIT)
    with pytest.raises(DomainError):
        stats(sf, Interval(0.5, 1.5))


def test_stats_additive_over_splits():
    sf = random_step_function(7, 10)
    J = Interval(0.13, 0.87)
    mid = 0.4
    whole = stats(sf, J)
    a = stats(sf, Interval(J.left, mid))
    b = stats(sf, Interval(mid, J.right))
    lhs = J.length * whole.mean
    rhs = a.length * a.mean + b.length * b.mean
    assert lhs == pytest.approx(rhs, rel=1e-13)
    lhs2 = J.length * whole.second_moment
    rhs2 = a.length * a.second_moment + b.length * b.second_moment
    assert lhs2 == pytest.approx(rhs2, rel=1e-13)


@pytest.mark.parametrize("shift", [-5.0, 0.3, 7.0])
def test_variance_invariant_under_value_shift(shift):
    sf = random_step_function(11, 12)
    shifted = StepFunction(sf.domain, sf.breakpoints, tuple(v + shift for v in sf.values))
    for J in (Interval(0.05, 0.6), Interval(0.3, 0.95), Interval(0.0, 1.0)):
        assert stats(shifted, J).variance == pytest.approx(stats(sf, J).variance, abs=1e-12)


# ---------------------------------------------------------------------------
# rearrangement and distribution


def test_rearrangement_of_monotone_is_identity():
    sf = StepFunction(UNIT, (0.3, 0.7), (5.0, 2.0, 1.0))
    assert decreasing_rearrangement(sf) == sf.normalize()


def test_rearrangement_two_piece_example():
    sf = StepFunction(UNIT, (0.5,), (0.0, 1.0))
    out = decreasing_rearrangement(sf)
    assert out.breakpoints == (0.5,)
    assert out.values == (1.0, 0.0)


def test_rearrangement_sort_oracle():
    sf = random_step_function(3, 9)
    out = decreasing_rearrangement(sf)
    assert list(out.values) == sorted(sf.values, reverse=True)[: len(out.values)] or (
        # normalization may merge equal neighbours; compare piece expansion
        sorted(out.values, reverse=True) == list(out.values)
    )
    assert all(a >= b for a, b in zip(out.values, out.values[1:]))


def test_rearrangement_preserves_integral():
    for seed in range(20):
        sf = random_step_function(seed, 12)
        out = decreasing_rearrangement(sf)
        assert out.total_integral() == pytest.approx(sf.total_integral(), abs=1e-13)


def test_rearrangement_idempotent():
    for seed in range(10):
        sf = random_step_function(seed, 10)
        once = decreasing_rearrangement(sf)
        assert decreasing_rearrangement(once) == once


@pytest.mark.parametrize("domain, breakpoints, values", [
    ((0.0, 1.0), (1e-20, 0.5), (0.0, 1.0, 2.0)),   # lands on the right end
    ((0.0, 1.0), (1e-20, 0.5), (1.0, 0.0, 2.0)),   # vanishes between two cuts
    ((-1.0, 1.0), (1e-20, 2e-20), (0.0, 5.0, 1.0)),  # vanishes at the left end
])
def test_rearrangement_merges_piece_below_rounding(domain, breakpoints, values):
    sf = StepFunction(Interval(*domain), breakpoints, values)
    out = decreasing_rearrangement(sf)
    assert all(a > b for a, b in zip(out.values, out.values[1:]))
    for lam in set(values) | {min(values) - 1.0}:
        assert abs(distribution_measure(out, lam) - distribution_measure(sf, lam)) <= math.ulp(
            sf.domain.length
        )


def test_distribution_measure_examples():
    sf = StepFunction(UNIT, (0.5,), (1.0, 0.0))
    assert distribution_measure(sf, -1.0) == 1.0
    assert distribution_measure(sf, 1.0) == 0.0
    assert distribution_measure(sf, 0.5) == 0.5


@settings(max_examples=150, deadline=None)
@given(step_functions())
def test_rearrangement_equidistributed(sf):
    out = decreasing_rearrangement(sf)
    levels = set(sf.values)
    lo, hi = min(sf.values), max(sf.values)
    levels |= {lo - 1.0, 0.5 * (lo + hi), hi + 1.0}
    for lam in levels:
        assert distribution_measure(out, lam) == pytest.approx(
            distribution_measure(sf, lam), abs=1e-12
        )


@settings(max_examples=100, deadline=None)
@given(step_functions())
def test_rearrangement_monotone_and_integral(sf):
    out = decreasing_rearrangement(sf)
    assert all(a >= b for a, b in zip(out.values, out.values[1:]))
    assert out.total_integral() == pytest.approx(sf.total_integral(), abs=1e-10)


# ---------------------------------------------------------------------------
# truncation


def test_truncate_noop_when_bounds_envelop():
    sf = random_step_function(5, 8)
    lo, hi = min(sf.values) - 1, max(sf.values) + 1
    assert truncate(sf, lo, hi) == sf


def test_truncate_clamps():
    sf = StepFunction(UNIT, (0.5,), (-1.0, 2.0))
    out = truncate(sf, 0.0, 1.0)
    assert out.values == (0.0, 1.0)


def test_truncate_rejects_inverted_bounds():
    sf = StepFunction.constant(0.0, UNIT)
    with pytest.raises(ValueError):
        truncate(sf, 1.0, 0.0)


def double_integral_variance(sf: StepFunction, J: Interval) -> float:
    """Oracle: variance = (1 / (2|J|^2)) * double integral of (f(x)-f(y))^2."""
    c = [J.left] + [b for b in sf.breakpoints if J.left < b < J.right] + [J.right]
    acc = 0.0
    for i in range(len(c) - 1):
        for j in range(len(c) - 1):
            xi = sf((c[i] + c[i + 1]) / 2)
            xj = sf((c[j] + c[j + 1]) / 2)
            acc += (xi - xj) ** 2 * (c[i + 1] - c[i]) * (c[j + 1] - c[j])
    return acc / (2.0 * J.length**2)


def test_truncation_never_increases_variance():
    rng = np.random.default_rng(99)
    for seed in range(10):
        sf = random_step_function(seed, 10)
        lo = float(rng.uniform(-0.5, 0.0))
        hi = float(rng.uniform(0.0, 0.5))
        cut = truncate(sf, lo, hi)
        for _ in range(5):
            a = float(rng.uniform(0.0, 0.8))
            b = float(rng.uniform(a + 0.05, 1.0))
            J = Interval(a, b)
            assert stats(cut, J).variance <= stats(sf, J).variance + 1e-12
            # double-integral identity backs the closed form
            assert double_integral_variance(sf, J) == pytest.approx(
                stats(sf, J).variance, rel=1e-10, abs=1e-12
            )


# ---------------------------------------------------------------------------
# cutout


def test_cutout_empty_translates_to_origin():
    sf = StepFunction(Interval(2.0, 3.0), (2.5,), (1.0, 4.0))
    res = cutout(sf, [])
    assert res.removed_measure == 0.0
    assert res.function.domain == Interval(0.0, 1.0)
    assert res.function.values == (1.0, 4.0)


def test_cutout_extreme_pieces_example():
    third = 1.0 / 3.0
    sf = StepFunction(UNIT, (third, 2 * third), (2.0, 5.0, 2.0))
    parts = [Interval(0.0, third), Interval(2 * third, 1.0)]
    res = cutout(sf, parts)
    assert res.function.values == (5.0,)
    assert res.function.domain.length == pytest.approx(third, abs=1e-15)
    assert res.removed_measure == pytest.approx(2 * third, abs=1e-15)


def test_cutout_left_piece_shifts_evaluation():
    # removing [0, 0.25] gives psi(tau) = phi(tau + 0.25)
    sf = StepFunction(UNIT, (0.25, 0.6), (9.0, 1.0, 4.0))
    res = cutout(sf, [Interval(0.0, 0.25)])
    psi = res.function
    assert psi.domain.length == pytest.approx(0.75, abs=1e-15)
    for tau in (0.01, 0.3, 0.5, 0.74):
        assert psi(tau) == sf(tau + 0.25)


def test_cutout_composes():
    sf = random_step_function(17, 8)
    cuts = sf.cuts
    if sf.piece_count < 4:
        pytest.skip("needs several pieces")
    e1 = [Interval(cuts[0], cuts[1])]
    e2_original = Interval(cuts[2], cuts[3])
    first = cutout(sf, e1)
    # image of e2 after removing e1 (e1 lies left of e2)
    shift = e1[0].length
    e2_image = Interval(e2_original.left - shift, e2_original.right - shift)
    twice = cutout(first.function, [e2_image])
    both = cutout(sf, [e1[0], e2_original])
    assert twice.function.values == both.function.values
    assert np.allclose(twice.function.breakpoints, both.function.breakpoints, atol=1e-12)


def test_cutout_transport_records():
    sf = StepFunction(UNIT, (0.25, 0.5), (1.0, 2.0, 3.0))
    res = cutout(sf, [Interval(0.25, 0.5)])
    assert res.transport == ((0, 0.0), (2, 0.25))


def test_cutout_rejects_non_aligned():
    sf = StepFunction(UNIT, (0.5,), (1.0, 2.0))
    with pytest.raises(ValueError):
        cutout(sf, [Interval(0.1, 0.3)])


def test_cutout_rejects_total_removal():
    sf = StepFunction(UNIT, (0.5,), (1.0, 2.0))
    with pytest.raises(DomainError):
        cutout(sf, [Interval(0.0, 0.5), Interval(0.5, 1.0)])


# ---------------------------------------------------------------------------
# random generation


def test_random_step_function_deterministic():
    a = random_step_function(123, 16)
    b = random_step_function(123, 16)
    assert a == b


def test_random_step_function_single_piece():
    sf = random_step_function(5, 1)
    assert sf.piece_count == 1
    assert sf.breakpoints == ()


def test_random_step_function_invariants_sweep():
    for seed in range(100):
        sf = random_step_function(seed, 16, (-2.0, 3.0))
        assert sf.piece_count == len(sf.breakpoints) + 1
        assert all(-2.0 <= v <= 3.0 for v in sf.values)
        assert all(
            sf.domain.left < b < sf.domain.right for b in sf.breakpoints
        )
        assert all(a < b for a, b in zip(sf.breakpoints, sf.breakpoints[1:]))


def test_random_step_function_rejects_bad_args():
    with pytest.raises(ValueError):
        random_step_function(0, 0)
    with pytest.raises(ValueError):
        random_step_function(0, 4, (1.0, 1.0))
