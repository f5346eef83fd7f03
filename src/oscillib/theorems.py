"""Numerical verification campaigns for the theorem-level statements.

Each campaign draws deterministic pseudo-random inputs from a seed list,
checks one proven inequality at its stated tolerance, and reports the worst
signed margin with a witness.  Violations are treated as regressions in the
numerics, not as counterexamples: every verified statement is a theorem.

Margins already include the stated slack of their statement, so a trial fails
exactly when its margin drops below the (default zero) extra tolerance.  The
exception is `norm_bound_check`, whose raw-margin report this module wraps the
same way.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .funcspace import (
    Interval,
    StepFunction,
    cutout,
    decreasing_rearrangement,
    random_step_function,
    _prefix_integrals,
)
from .geometry import GeometryContext
from .modulus import (
    Modulus,
    norm_bound_check,
    oscillation_profile,
    parabolic_convex_minorant,
    stationary_lengths,
    sup_variance_at_lengths,
    worst_ratio,
)
from .report import VerificationReport

__all__ = [
    "default_length_grid",
    "verify_rearrangement",
    "verify_convexified",
    "verify_monotone_convexity",
    "verify_cutout",
    "verify_inf_bound",
    "verify_dilation_invariance",
    "verify_linear_threshold",
    "linear_staircase",
    "CAMPAIGNS",
    "run_campaign",
]

_DOMAIN = Interval(0.0, 1.0)


def default_length_grid(total: float = 1.0, points: int = 128) -> np.ndarray:
    """Uniform window-length grid on (0, total]."""
    if points < 2:
        raise ValueError("grid needs at least 2 points")
    return np.linspace(total / points, total, points)


def _run_campaign(
    name: str,
    seeds: Sequence[int],
    trial: Callable[[int], tuple[float, dict] | None],
    tolerance: float = 0.0,
) -> VerificationReport:
    """Run one margin-producing trial per seed and reduce deterministically
    (min margin, earliest witness among ties)."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("campaign needs a non-empty seed list")

    worst = np.inf
    witness: dict = {}
    failures = 0
    skipped = 0
    trials = 0
    for seed in seeds:
        res = trial(seed)
        if res is None:
            skipped += 1
            continue
        trials += 1
        margin, wit = res
        if margin < -tolerance:
            failures += 1
        if margin < worst:
            worst = margin
            witness = wit
    if trials == 0:
        worst = 0.0
    return VerificationReport(
        name=name,
        trials=trials,
        failures=failures,
        worst_margin=float(worst),
        tolerance=float(tolerance),
        witness=witness,
        skipped=skipped,
    )


def _paired_profiles(sf: StepFunction, grid: np.ndarray):
    """Exact profiles of a function and of its decreasing rearrangement."""
    return oscillation_profile(sf, grid), oscillation_profile(decreasing_rearrangement(sf), grid)


# ---------------------------------------------------------------------------
# Rearrangement does not increase the oscillation modulus


def verify_rearrangement(
    seeds: Sequence[int],
    grid=None,
    pieces_max: int = 16,
    value_range: tuple[float, float] = (-1.0, 1.0),
    tolerance: float = 0.0,
) -> VerificationReport:
    """profile(rearranged) <= profile(original) * (1 + 1e-9) + 1e-12 on the grid."""
    grid = np.asarray(grid, dtype=float) if grid is not None else default_length_grid()

    def trial(seed: int):
        sf = random_step_function(seed, pieces_max, value_range, _DOMAIN)
        prof, prof_star = _paired_profiles(sf, grid)
        xi = np.asarray(prof.xi_values)
        xi_star = np.asarray(prof_star.xi_values)
        margins = xi * (1 + 1e-9) + 1e-12 - xi_star
        k = int(np.argmin(margins))
        return float(margins[k]), {"seed": int(seed), "length": float(grid[k])}

    return _run_campaign("rearrangement", seeds, trial, tolerance)


def verify_convexified(
    seeds: Sequence[int],
    grid=None,
    pieces_max: int = 12,
    value_range: tuple[float, float] = (-1.0, 1.0),
    tolerance: float = 0.0,
) -> VerificationReport:
    """profile(rearranged) <= parabolic convex minorant of profile(original),
    up to 1e-7 of the profile scale."""
    grid = np.asarray(grid, dtype=float) if grid is not None else default_length_grid()

    def trial(seed: int):
        sf = random_step_function(seed, pieces_max, value_range, _DOMAIN)
        prof, prof_star = _paired_profiles(sf, grid)
        xi = np.asarray(prof.xi_values)
        xi_star = np.asarray(prof_star.xi_values)
        scale = float(np.max(xi)) if xi.size else 0.0
        _, conv = parabolic_convex_minorant(
            np.concatenate([[0.0], grid]), np.concatenate([[0.0], xi])
        )
        margins = conv[1:] + 1e-7 * scale - xi_star
        k = int(np.argmin(margins))
        return float(margins[k]), {"seed": int(seed), "length": float(grid[k])}

    return _run_campaign("convexified", seeds, trial, tolerance)


# ---------------------------------------------------------------------------
# Convexity statements for monotone functions


def _second_differences(values: np.ndarray) -> np.ndarray:
    return values[2:] - 2.0 * values[1:-1] + values[:-2]


def verify_monotone_convexity(
    seeds: Sequence[int],
    grid=None,
    pieces_max: int = 12,
    value_range: tuple[float, float] = (-1.0, 1.0),
    tolerance: float = 0.0,
) -> VerificationReport:
    """For monotone functions, t^2 xi^2(t) and the anchored one-sided
    oscillation integrals are convex (second differences >= -1e-9 * scale)."""
    grid = np.asarray(grid, dtype=float) if grid is not None else default_length_grid()

    def trial(seed: int):
        base = random_step_function(seed, pieces_max, value_range, _DOMAIN)
        psi = decreasing_rearrangement(base)
        # scale floor: both checked quantities vanish identically on constant
        # stretches, where normalizing by their own max would divide noise by
        # noise; the data scale (span^2 * deviation^2) is the honest yardstick
        dev2 = max(1.0, (0.5 * (max(psi.values) - min(psi.values))) ** 2)
        prof = oscillation_profile(psi, grid)
        A = grid * grid * np.asarray(prof.xi_values) ** 2
        scale_a = max(float(np.max(np.abs(A))), float(grid[-1]) ** 2 * dev2)
        margin_a = float(np.min(_second_differences(A))) / scale_a + 1e-9

        c, P, Q = _prefix_integrals(psi)
        rng = np.random.default_rng(seed + 0x5EED)
        margins = [margin_a]
        left, right = psi.domain.left, psi.domain.right
        for _ in range(2):
            a = float(rng.uniform(left, left + 0.5 * (right - left)))
            b = float(rng.uniform(left + 0.5 * (right - left), right))
            for anchor, sign, span in ((a, 1.0, right - a), (b, -1.0, b - left)):
                ts = np.linspace(span / 64.0, span, 64)
                hi = anchor + sign * ts
                # F(t) = t * int psi^2 - (int psi)^2 over the one-sided window
                # of length t from the anchor; abs restores orientation
                Pv = np.interp(hi, c, P) - np.interp(anchor, c, P)
                Qv = np.interp(hi, c, Q) - np.interp(anchor, c, Q)
                F = ts * np.abs(Qv) - Pv * Pv
                scale_f = max(float(np.max(np.abs(F))), span * span * dev2)
                margins.append(float(np.min(_second_differences(F))) / scale_f + 1e-9)
        worst = min(margins)
        return float(worst), {"seed": int(seed)}

    return _run_campaign("monotone_convexity", seeds, trial, tolerance)


# ---------------------------------------------------------------------------
# Cutout along extreme-value pieces preserves the unit ball


def _normalized_to_unit_ball(sf: StepFunction, xi: Modulus) -> StepFunction | None:
    """Scale deviations from the mean so the class constant becomes one.

    The ratio search and the membership check refine different objectives, so
    after the initial scaling the membership check itself is used to polish
    the constant until its margin is non-negative.
    """
    ratio = worst_ratio(sf, xi)
    if ratio <= 0.0:
        return None
    widths = sf.piece_widths()
    mean = float(np.dot(widths, np.asarray(sf.values)) / sf.domain.length)

    def scaled(r: float) -> StepFunction:
        return StepFunction(sf.domain, sf.breakpoints,
                            tuple(mean + (v - mean) / r for v in sf.values))

    out = scaled(ratio)
    for _ in range(4):
        check = norm_bound_check(out, xi, 1.0)
        if check.worst_margin >= 0.0:
            break
        ell = float(check.witness["length"])
        xi_l = float(xi.eval(ell))
        if xi_l <= 0.0:
            break
        # margin = xi - sigma  =>  the factor still to be divided out
        ratio *= (xi_l - float(check.worst_margin)) / xi_l
        out = scaled(ratio)
    return out


def verify_cutout(
    seeds: Sequence[int],
    xi: Modulus | None = None,
    grid=None,
    pieces_max: int = 12,
    value_range: tuple[float, float] = (-1.0, 1.0),
    tolerance: float = 0.0,
) -> VerificationReport:
    """Deleting the min- and max-value pieces of a unit-norm function leaves a
    function that still satisfies the unit class bound (slack 1e-9).

    Membership is certified through the oscillation profile on the grid, and
    the cut function is checked at the same scales: below the grid floor a
    step function carries raw jumps and leaves every vanishing-modulus class,
    so sub-grid scales are not part of the testable statement.
    """
    xi = xi or Modulus.power(0.5)
    grid = np.asarray(grid, dtype=float) if grid is not None else default_length_grid()

    def trial(seed: int):
        base = random_step_function(seed, pieces_max, value_range, _DOMAIN)
        prof = oscillation_profile(base, grid)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = float(np.max(np.asarray(prof.xi_values) / np.asarray(xi.eval(grid))))
        if ratio <= 0.0:
            return None
        widths = base.piece_widths()
        mean = float(np.dot(widths, np.asarray(base.values)) / base.domain.length)
        sf = StepFunction(base.domain, base.breakpoints,
                          tuple(mean + (v - mean) / ratio for v in base.values))
        lo = min(sf.values)
        hi = max(sf.values)
        cuts = sf.cuts
        parts = [
            Interval(cuts[k], cuts[k + 1])
            for k, v in enumerate(sf.values)
            if v == lo or v == hi
        ]
        if len(parts) == sf.piece_count:
            return None
        psi = cutout(sf, parts).function
        d = psi.domain.length
        floor = float(grid[0])
        lengths = np.concatenate([grid[grid <= d], stationary_lengths(psi), [d]])
        lengths = lengths[lengths >= floor]
        if lengths.size == 0:
            return None
        check = norm_bound_check(psi, xi, 1.0, lengths=lengths, tolerance=1e-9)
        margin = float(check.worst_margin) + 1e-9
        return margin, {
            "seed": int(seed),
            "length": float(check.witness["length"]),
        }

    return _run_campaign("cutout", seeds, trial, tolerance)


# ---------------------------------------------------------------------------
# Upper bound on the infimum through the strip geometry


def verify_inf_bound(
    seeds: Sequence[int],
    xi: Modulus | None = None,
    pieces_max: int = 16,
    value_range: tuple[float, float] = (-1.0, 1.0),
    tolerance: float = 0.0,
) -> VerificationReport:
    """min(f) <= solver offset at the whole-domain statistics, for unit-norm
    functions; the mirrored statement is checked through -f."""
    xi = xi or Modulus.power(0.5)
    ctx = GeometryContext(xi)

    def trial(seed: int):
        base = random_step_function(seed, pieces_max, value_range, _DOMAIN)
        sf = _normalized_to_unit_ball(base, xi)
        if sf is None:
            sf = base  # constant: already in the unit ball, equality case
        margins = []
        for cur in (sf, StepFunction(sf.domain, sf.breakpoints, tuple(-v for v in sf.values))):
            u = ctx.inf_bound(cur)
            margins.append(u + 1e-9 - min(cur.values))
        return float(min(margins)), {"seed": int(seed)}

    return _run_campaign("inf_bound", seeds, trial, tolerance)


# ---------------------------------------------------------------------------
# Invariance of the offset domain under the parabolic dilation


def verify_dilation_invariance(
    seeds: Sequence[int],
    xi: Modulus | None = None,
    t: float = 1.0,
    tolerance: float = 0.0,
) -> VerificationReport:
    """Dilating a point with offset >= a from (a, a^2) by t/s keeps it below
    the strip roof at scale s (slack 1e-10)."""
    xi = xi or Modulus.power(2.0 / 3.0)
    ctx = GeometryContext(xi)
    if not (0 < t <= xi.horizon):
        raise ValueError(f"scale {t} outside (0, {xi.horizon}]")

    def trial(seed: int):
        rng = np.random.default_rng(seed)
        a = float(rng.uniform(-2.0, 2.0))
        tau = float(rng.uniform(0.0, t))
        u = a + float(rng.uniform(0.0, 2.0))
        s = float(rng.uniform(1e-3 * t, t * (1 - 1e-9)))
        g = ctx.scaled_curve(t, tau)
        x1 = u + g.x1
        x2 = u * u + 2.0 * u * g.x1 + g.x2
        y1 = a + (t / s) * (x1 - a)
        y2 = a * a + (t / s) * (x2 - a * a)
        margin = y1 * y1 + xi.eval(s) ** 2 + 1e-10 - y2
        return float(margin), {"seed": int(seed), "s": s, "a": a}

    return _run_campaign("dilation", seeds, trial, tolerance)


# ---------------------------------------------------------------------------
# Linear functions realize the membership threshold


def verify_linear_threshold(
    eps: float,
    xi: Modulus | None = None,
    pieces: int = 512,
    grid=None,
    bound: float = 1.0,
    tolerance: float = 0.0,
) -> VerificationReport:
    """A fine staircase of s -> eps*s satisfies the class bound against any
    modulus with xi(t) >= eps*t, and its window variances match the closed
    form eps^2 |J|^2 / 12 up to the staircase discretization bound.

    With ``bound`` other than one the domination precondition is skipped and
    the run acts as a calibration probe (near-miss constants are expected to
    flip the outcome around eps/sqrt(12) for a linear modulus).
    """
    xi = xi or Modulus.linear(max(eps, 1.0))
    grid = np.asarray(grid, dtype=float) if grid is not None else default_length_grid()
    if bound == 1.0 and np.any(np.asarray(xi.eval(grid)) < eps * grid - 1e-15):
        raise ValueError("modulus must dominate eps * t on the grid")
    sf = linear_staircase(eps, pieces)
    width = 1.0 / pieces
    gap_bound = eps * eps * width * width

    sup, _ = sup_variance_at_lengths(sf, grid)
    gaps = np.abs(sup - eps * eps * grid * grid / 12.0)
    gap_margins = gap_bound - gaps

    check = norm_bound_check(sf, xi, bound, lengths=grid)
    margins = np.concatenate([gap_margins, [check.worst_margin]])
    k = int(np.argmin(margins))
    worst = float(margins[k])
    witness = {
        "eps": float(eps),
        "pieces": int(pieces),
        "worst_gap": float(np.max(gaps)),
        "norm_margin": float(check.worst_margin),
    }
    return VerificationReport(
        name="linear_threshold",
        trials=int(len(grid)),
        failures=int(np.count_nonzero(margins < -tolerance)),
        worst_margin=worst,
        tolerance=float(tolerance),
        witness=witness,
    )


def linear_staircase(eps: float, pieces: int, domain: Interval = _DOMAIN) -> StepFunction:
    """Staircase sampling s -> eps*s at piece midpoints."""
    if pieces < 1:
        raise ValueError("need at least one piece")
    edges = np.linspace(domain.left, domain.right, pieces + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return StepFunction(domain, tuple(edges[1:-1]), tuple(float(eps * m) for m in mids))


# ---------------------------------------------------------------------------
# Registry for the command-line front end

CAMPAIGNS = {
    "rearrangement": lambda seeds, grid, tol: verify_rearrangement(seeds, grid, tolerance=tol),
    "convexified": lambda seeds, grid, tol: verify_convexified(seeds, grid, tolerance=tol),
    "monotone_convexity": lambda seeds, grid, tol: verify_monotone_convexity(seeds, grid, tolerance=tol),
    "cutout": lambda seeds, grid, tol: verify_cutout(seeds, grid=grid, tolerance=tol),
    "inf_bound": lambda seeds, grid, tol: verify_inf_bound(seeds, tolerance=tol),
    "dilation": lambda seeds, grid, tol: verify_dilation_invariance(seeds, tolerance=tol),
    "linear_threshold": lambda seeds, grid, tol: verify_linear_threshold(1.0, grid=grid, tolerance=tol),
}


def run_campaign(
    name: str,
    seeds: Sequence[int],
    grid=None,
    tolerance: float = 0.0,
) -> VerificationReport:
    try:
        fn = CAMPAIGNS[name]
    except KeyError:
        raise ValueError(
            f"unknown statement {name!r}; choose from {sorted(CAMPAIGNS)}"
        ) from None
    return fn(seeds, grid, tolerance)
