"""Moduli and the analytic operators on them.

Covers the oscillation modulus of a step function, membership checks against a
prescribed modulus, the parabolic convex minorant, the ray-built convex
majorant, and multiplicatively mollified smooth majorants.

The oscillation supremum is exact for step functions: at a fixed window length
the variance is a concave quadratic of the window position on every span where
the endpoint pieces stay fixed, and every length at which an interior maximum
can occur is enumerated in closed form (cut differences plus anchored
stationarity roots).  The only rounding is double arithmetic.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .funcspace import DomainError, Interval, StepFunction, _prefix_integrals
from .report import VerificationReport

__all__ = [
    "Modulus",
    "OscillationProfile",
    "ConstructionError",
    "oscillation_profile",
    "stationary_lengths",
    "sup_variance_at_lengths",
    "norm_bound_check",
    "worst_ratio",
    "parabolic_convex_minorant",
    "check_companion_convex",
    "ray_convex_majorant",
    "mollified_majorant",
]

# Above this piece count the O(n^2) stationary-length enumeration is replaced
# by adjacent cut differences only; see `stationary_lengths`.
_EXACT_ENUMERATION_MAX_PIECES = 128

# The window-variance kernel evaluates its lengths in row blocks of about this
# many span entries (2*(n+1) per length), which bounds its peak memory.
_CHUNK_ELEMENTS = 1 << 16

# Margin refinement: up to this many local minima are refined at once.  Each
# round samples the interior section points of every bracket in one kernel
# call and keeps the two cells around the best point, so a bracket shrinks by
# 2/(points+1) per round: (2/9)**16 is about 3e-11 of the starting bracket.
_REFINE_MAX_BRACKETS = 16
_REFINE_POINTS = 8
_REFINE_ROUNDS = 16


class ConstructionError(RuntimeError):
    """A geometric construction ran out of admissible points."""


# ---------------------------------------------------------------------------
# Modulus representations


@dataclass(frozen=True)
class Modulus:
    """A modulus on [0, T]: continuous, non-decreasing, zero at zero.

    Three kinds are supported: ``power`` (scale * t**alpha), ``linear``
    (slope * t) and ``sampled`` (piecewise-linear interpolation of a grid).
    Power and linear carry closed-form derivatives; sampled moduli fall back
    to central differences.
    """

    horizon: float
    kind: str
    alpha: float | None = None
    scale: float | None = None
    slope: float | None = None
    grid: tuple[float, ...] | None = None
    sample_values: tuple[float, ...] | None = None

    def __post_init__(self):
        numbers = (self.horizon, self.alpha, self.scale, self.slope,
                   *(self.grid or ()), *(self.sample_values or ()))
        if not all(math.isfinite(x) for x in numbers if x is not None):
            raise ValueError("modulus parameters must be finite")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.kind == "power":
            if self.alpha is None or not (0.0 < self.alpha <= 1.0):
                raise ValueError(f"power modulus needs alpha in (0, 1], got {self.alpha}")
            if self.scale is None or self.scale <= 0:
                raise ValueError(f"power modulus needs scale > 0, got {self.scale}")
        elif self.kind == "linear":
            if self.slope is None or self.slope <= 0:
                raise ValueError(f"linear modulus needs slope > 0, got {self.slope}")
        elif self.kind == "sampled":
            if self.grid is None or self.sample_values is None:
                raise ValueError("sampled modulus needs grid and values")
            g = np.asarray(self.grid, dtype=float)
            v = np.asarray(self.sample_values, dtype=float)
            if len(g) != len(v) or len(g) < 2:
                raise ValueError("sampled modulus needs matching grid/values of length >= 2")
            if g[0] != 0.0:
                raise ValueError("sampled modulus grid must start at 0")
            if np.any(np.diff(g) <= 0):
                raise ValueError("sampled modulus grid must be strictly increasing")
            if v[0] != 0.0:
                raise ValueError("modulus value at 0 must be 0")
            if np.any(v < 0):
                raise ValueError("modulus values must be non-negative")
            if np.any(np.diff(v) < 0):
                raise ValueError("modulus values must be non-decreasing")
            if abs(g[-1] - self.horizon) > 1e-12 * max(1.0, abs(self.horizon)):
                raise ValueError("sampled modulus grid must end at the horizon")
        else:
            raise ValueError(f"unknown modulus kind {self.kind!r}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def power(cls, alpha: float, scale: float = 1.0, horizon: float = 1.0) -> "Modulus":
        return cls(horizon=float(horizon), kind="power", alpha=float(alpha), scale=float(scale))

    @classmethod
    def linear(cls, slope: float, horizon: float = 1.0) -> "Modulus":
        return cls(horizon=float(horizon), kind="linear", slope=float(slope))

    @classmethod
    def sampled(cls, grid: Sequence[float], values: Sequence[float]) -> "Modulus":
        g = tuple(float(x) for x in grid)
        v = tuple(float(x) for x in values)
        return cls(horizon=g[-1], kind="sampled", grid=g, sample_values=v)

    # -- evaluation ---------------------------------------------------------

    def eval(self, t):
        """Evaluate the modulus at t (scalar or array), t in [0, T]."""
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0) or np.any(arr > self.horizon * (1 + 1e-12)):
            raise DomainError(f"argument outside [0, {self.horizon}]")
        if self.kind == "power":
            out = self.scale * np.power(arr, self.alpha)
        elif self.kind == "linear":
            out = self.slope * arr
        else:
            out = np.interp(arr, self.grid, self.sample_values)
        return float(out) if np.isscalar(t) or arr.ndim == 0 else out

    def eval_derivative(self, t):
        """Derivative at t > 0; central difference for sampled moduli."""
        arr = np.asarray(t, dtype=float)
        if np.any(arr <= 0) or np.any(arr > self.horizon * (1 + 1e-12)):
            raise DomainError(f"derivative needs argument in (0, {self.horizon}]")
        if self.kind == "power":
            out = self.scale * self.alpha * np.power(arr, self.alpha - 1.0)
        elif self.kind == "linear":
            out = np.full_like(arr, self.slope)
        else:
            h = max(1e-6 * self.horizon, 1e-9)
            hi = np.minimum(arr + h, self.horizon)
            lo = np.maximum(arr - h, 0.0)
            out = (np.interp(hi, self.grid, self.sample_values)
                   - np.interp(lo, self.grid, self.sample_values)) / (hi - lo)
        return float(out) if np.isscalar(t) or arr.ndim == 0 else out

    def companion(self, t):
        """The companion function t**2 * xi(t)**2."""
        arr = np.asarray(t, dtype=float)
        val = self.eval(arr)
        out = arr * arr * np.asarray(val) ** 2
        return float(out) if np.isscalar(t) or arr.ndim == 0 else out

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        out: dict = {"horizon": self.horizon, "kind": self.kind}
        if self.kind == "power":
            out["alpha"] = self.alpha
            out["scale"] = self.scale
        elif self.kind == "linear":
            out["slope"] = self.slope
        else:
            out["grid"] = list(self.grid)
            out["values"] = list(self.sample_values)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "Modulus":
        kind = data.get("kind")
        if kind == "power":
            return cls.power(data["alpha"], data.get("scale", 1.0), data["horizon"])
        if kind == "linear":
            return cls.linear(data["slope"], data["horizon"])
        if kind == "sampled":
            return cls.sampled(data["grid"], data["values"])
        raise ValueError(f"unknown modulus kind {kind!r}")

    @classmethod
    def from_json(cls, text: str) -> "Modulus":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class OscillationProfile:
    """Sampled oscillation modulus of a function over a length grid."""

    lengths: tuple[float, ...]
    xi_values: tuple[float, ...]
    witnesses: tuple[Interval, ...]

    def __post_init__(self):
        if np.any(np.diff(self.xi_values) < 0):
            raise AssertionError("oscillation profile must be non-decreasing")

    def as_sampled_modulus(self) -> Modulus:
        grid = (0.0, *self.lengths)
        values = (0.0, *self.xi_values)
        return Modulus.sampled(grid, values)

    def to_csv(self) -> str:
        lines = ["length,xi,witness_left,witness_right"]
        for t, xi, wit in zip(self.lengths, self.xi_values, self.witnesses):
            lines.append(f"{t:.17g},{xi:.17g},{wit.left:.17g},{wit.right:.17g}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Exact window-variance suprema


class _SigmaEvaluator:
    """Cached prefix data for repeated window-variance suprema on one function."""

    def __init__(self, sf: StepFunction):
        self.c, self.P, self.Q = _prefix_integrals(sf)
        self.v = np.asarray(sf.values)
        self.w = self.v * self.v
        self.total = sf.domain.length

    def batch(self, lengths) -> tuple[np.ndarray, np.ndarray]:
        """(variance_sup, witness_left) at each exact window length."""
        L = np.atleast_1d(np.asarray(lengths, dtype=float))
        total = self.total
        if np.any(L <= 0) or np.any(L > total * (1 + 1e-12)):
            raise ValueError(f"window lengths must lie in (0, {total}]")
        L = np.minimum(L, total)
        out = np.empty((2, len(L)))
        block = max(1, _CHUNK_ELEMENTS // (2 * len(self.c)))
        for k in range(0, len(L), block):
            out[:, k:k + block] = self._block(L[k:k + block])
        return out[0], out[1]

    def _block(self, L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c, P, Q, v, w = self.c, self.P, self.Q, self.v, self.w
        n = len(v)

        smax = c[-1] - L
        events = np.concatenate(
            [np.broadcast_to(c, (len(L), len(c))), c[None, :] - L[:, None]], axis=1
        )
        events = np.clip(events, c[0], smax[:, None])
        events.sort(axis=1)
        left = events[:, :-1]
        right = events[:, 1:]
        mid = 0.5 * (left + right)

        def piece_of(x: np.ndarray) -> np.ndarray:
            flat = np.searchsorted(c, x.ravel(), side="right") - 1
            return np.clip(flat, 0, n - 1).reshape(x.shape)

        i = piece_of(mid)
        j = piece_of(mid + L[:, None])
        vi, vj = v[i], v[j]
        dv = vj - vi
        dw = w[j] - w[i]
        # integral of sf over [s, s+l]:  m(s) = M0 + dv*s  on each span
        M0 = P[j] - P[i] + vj * (L[:, None] - c[j]) + vi * c[i]
        Q0 = Q[j] - Q[i] + w[j] * (L[:, None] - c[j]) + w[i] * c[i]
        ell = L[:, None]

        same_piece = i == j

        def variance_at(s: np.ndarray) -> np.ndarray:
            m = M0 + dv * s
            q = Q0 + dw * s
            out = q / ell - (m / ell) ** 2
            # a window inside one piece is constant: kill the rounding noise
            return np.where(same_piece, 0.0, out)

        with np.errstate(divide="ignore", invalid="ignore"):
            s_star = (ell * (vi + vj) / 2.0 - M0) / dv
        interior_ok = np.isfinite(s_star) & (s_star >= left) & (s_star <= right)
        s_star = np.where(interior_ok, s_star, left)

        cand_s = np.stack([left, s_star, right], axis=2)
        cand_v = np.stack(
            [variance_at(left),
             np.where(interior_ok, variance_at(s_star), -np.inf),
             variance_at(right)],
            axis=2,
        )
        flat_v = cand_v.reshape(len(L), -1)
        flat_s = cand_s.reshape(len(L), -1)
        best = np.argmax(flat_v, axis=1)
        rows = np.arange(len(L))
        return np.maximum(flat_v[rows, best], 0.0), flat_s[rows, best]


def sup_variance_at_lengths(sf: StepFunction, lengths) -> tuple[np.ndarray, np.ndarray]:
    """Exact sup of window variance at each exact window length.

    Returns (variance_sup, witness_left).  At fixed length the variance is a
    concave quadratic of the left endpoint wherever both endpoint pieces are
    fixed, so each span maximum is closed form.
    """
    return _SigmaEvaluator(sf).batch(lengths)


def stationary_lengths(sf: StepFunction) -> np.ndarray:
    """Window lengths at which the variance supremum can peak strictly inside.

    An interior local maximum of the window variance pins each endpoint either
    to a cut or to a point where the endpoint value matches the window
    mean-plus-deviation condition; the latter yields one closed-form length per
    (cut, piece) pair.  Together with pairwise cut differences these lengths
    make the running supremum over lengths exact.

    Above 128 pieces only adjacent cut differences are produced, which keeps
    huge staircases cheap.
    """
    c, P, Q = _prefix_integrals(sf)
    v = np.asarray(sf.values)
    w = v * v
    n = len(v)
    total = sf.domain.length

    if n > _EXACT_ENUMERATION_MAX_PIECES:
        out = np.diff(c)
        return np.unique(out[out > 0])

    diffs = (c[None, :] - c[:, None]).ravel()
    # row k anchors one endpoint at the cut x = c[k]; column p is the piece
    # holding the other endpoint
    x = c[:, None]
    c_lo, c_hi, P_lo, Q_lo = c[:-1], c[1:], P[:-1], Q[:-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # window [x, x+l], right endpoint inside piece p; the window must
        # straddle at least one cut, otherwise its variance is identically 0
        alpha = P_lo - P[:, None] + v * (x - c_lo)
        den = (Q_lo - Q[:, None] + w * (x - c_lo)) - 2.0 * alpha * v
        ell = 2.0 * alpha * alpha / den
        right = ell[(c_lo > x) & (den != 0.0) & (c_lo - x < ell) & (ell <= c_hi - x)]
        # window [x-l, x], left endpoint inside piece p
        alpha = P[:, None] - P_lo - v * (x - c_lo)
        den = (Q[:, None] - Q_lo - w * (x - c_lo)) - 2.0 * alpha * v
        ell = 2.0 * alpha * alpha / den
        left = ell[(c_hi < x) & (den != 0.0) & (x - c_hi < ell) & (ell <= x - c_lo)]
    out = np.unique(np.concatenate([diffs[diffs > 0], right, left]))
    return out[(out > 0) & (out <= total)]


def _running_supremum(cand: np.ndarray, sup: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running max over sorted lengths plus the index where it was achieved."""
    running = np.maximum.accumulate(sup)
    is_new = np.empty(len(sup), dtype=bool)
    is_new[0] = True
    is_new[1:] = sup[1:] > running[:-1]
    idx = np.where(is_new, np.arange(len(sup)), 0)
    achieved = np.maximum.accumulate(idx)
    return running, achieved


def oscillation_profile(sf: StepFunction, lengths) -> OscillationProfile:
    """Oscillation modulus of ``sf`` sampled on the given length grid.

    The sup over windows of length at most t is taken over an exact candidate
    set: the requested grid and all stationary lengths of ``sf``.
    """
    grid = np.asarray(lengths, dtype=float)
    total = sf.domain.length
    if grid.size == 0:
        raise ValueError("empty length grid")
    if np.any(grid <= 0) or np.any(grid > total * (1 + 1e-12)):
        raise ValueError(f"length grid must lie in (0, {total}]")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("length grid must be strictly increasing")
    cand = np.unique(np.concatenate([grid, stationary_lengths(sf)]))
    cand = np.minimum(cand, total)

    sup, wit_left = sup_variance_at_lengths(sf, cand)
    running, achieved = _running_supremum(cand, sup)

    pos = np.searchsorted(cand, grid * (1 + 1e-15), side="right") - 1
    xi = np.sqrt(running[pos])
    witnesses = []
    for p in pos:
        k = achieved[p]
        witnesses.append(Interval(float(wit_left[k]), float(wit_left[k] + cand[k])))
    return OscillationProfile(
        lengths=tuple(float(t) for t in grid),
        xi_values=tuple(float(x) for x in xi),
        witnesses=tuple(witnesses),
    )


# ---------------------------------------------------------------------------
# Membership against a prescribed modulus


def _check_lengths(sf: StepFunction, lengths) -> np.ndarray:
    """Sorted distinct check lengths in (0, |domain|].

    By default: a geometric and a uniform grid plus the stationary lengths.
    """
    total = sf.domain.length
    if lengths is None:
        cand = np.concatenate([
            np.geomspace(total * 1e-4, total, 129),
            np.linspace(total / 128.0, total, 128),
            stationary_lengths(sf),
        ])
    else:
        cand = np.asarray(lengths, dtype=float)
    cand = np.unique(cand[(cand > 0) & (cand <= total * (1 + 1e-12))])
    if cand.size == 0:
        raise ValueError("no admissible lengths to check")
    return np.minimum(cand, total)


def _refine_local_minima(
    values: np.ndarray,
    cand: np.ndarray,
    objective: Callable[[np.ndarray], np.ndarray],
) -> tuple[float, float]:
    """Section-search the deepest interior local minima of the sampled objective.

    ``objective`` maps an array of lengths to objective values; every round
    evaluates all brackets in one call.  Returns the (argmin, min) over all
    refined brackets; the caller still owns the grid minimum itself.
    """
    interior = np.where((values[1:-1] <= values[:-2]) & (values[1:-1] <= values[2:]))[0] + 1
    order = interior[np.argsort(values[interior])][:_REFINE_MAX_BRACKETS]
    if order.size == 0:
        return float("nan"), np.inf
    lo, hi = cand[order - 1], cand[order + 1]
    best_x = np.full(order.size, np.nan)
    best_f = np.full(order.size, np.inf)
    rows = np.arange(order.size)
    offsets = np.arange(1, _REFINE_POINTS + 1)
    for _ in range(_REFINE_ROUNDS):
        cell = (hi - lo) / (_REFINE_POINTS + 1)
        x = lo[:, None] + cell[:, None] * offsets
        f = objective(x.ravel()).reshape(x.shape)
        k = np.argmin(f, axis=1)
        better = f[rows, k] < best_f
        best_x = np.where(better, x[rows, k], best_x)
        best_f = np.where(better, f[rows, k], best_f)
        lo, hi = best_x - cell, best_x + cell
    k = int(np.argmin(best_f))
    return float(best_x[k]), float(best_f[k])


def norm_bound_check(
    sf: StepFunction,
    xi: Modulus,
    bound: float,
    lengths=None,
    tolerance: float = 0.0,
    refine: bool = True,
) -> VerificationReport:
    """Check variance over every window J against bound**2 * xi(|J|)**2.

    The margin at a length is bound*xi - sup-deviation; the check runs over an
    exact candidate length set and refines the local margin minima, batched
    through the window-variance kernel, before reporting.
    """
    total = sf.domain.length
    if xi.horizon < total * (1 - 1e-12):
        raise ValueError(f"modulus horizon {xi.horizon} smaller than domain length {total}")
    if bound < 0:
        raise ValueError("bound must be non-negative")
    cand = _check_lengths(sf, lengths)
    ev = _SigmaEvaluator(sf)

    def margins_at(ell) -> tuple[np.ndarray, np.ndarray]:
        sup, wit_left = ev.batch(ell)
        return bound * np.asarray(xi.eval(ell)) - np.sqrt(sup), wit_left

    margins, wit_left = margins_at(cand)
    k = int(np.argmin(margins))
    worst, worst_len, worst_left = float(margins[k]), float(cand[k]), float(wit_left[k])
    if refine:
        x, fx = _refine_local_minima(margins, cand, lambda ell: margins_at(ell)[0])
        if fx < worst:
            worst, worst_len = fx, x
            worst_left = float(ev.batch([x])[1][0])

    failures = int(np.count_nonzero(margins < -tolerance))
    if failures == 0 and worst < -tolerance:
        failures = 1
    return VerificationReport(
        name="norm_bound",
        trials=int(len(cand)),
        failures=failures,
        worst_margin=worst,
        tolerance=float(tolerance),
        witness={
            "length": worst_len,
            "window_left": worst_left,
            "window_right": worst_left + worst_len,
        },
    )


def worst_ratio(sf: StepFunction, xi: Modulus, lengths=None, refine: bool = True) -> float:
    """Supremum of sup-deviation(l) / xi(l) over the candidate lengths.

    This is the smallest admissible class constant for ``sf`` relative to
    ``xi`` on the checked scales; dividing the deviation of ``sf`` from its
    mean by it normalizes the class constant to one.
    """
    cand = _check_lengths(sf, lengths)
    ev = _SigmaEvaluator(sf)

    def ratios_at(ell) -> np.ndarray:
        xs = np.asarray(xi.eval(ell))
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(xs > 0, np.sqrt(ev.batch(ell)[0]) / xs, 0.0)

    ratios = ratios_at(cand)
    best = float(np.max(ratios))
    if refine:
        _, fx = _refine_local_minima(-ratios, cand, lambda ell: -ratios_at(ell))
        best = max(best, -fx)
    return best


# ---------------------------------------------------------------------------
# Parabolic convex minorant


def _lower_hull(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower convex hull of points sorted by x (monotone chain)."""
    hx: list[float] = []
    hy: list[float] = []
    for x, y in zip(xs, ys):
        while len(hx) >= 2:
            cross = (hx[-1] - hx[-2]) * (y - hy[-2]) - (hy[-1] - hy[-2]) * (x - hx[-2])
            if cross <= 0:
                hx.pop()
                hy.pop()
            else:
                break
        hx.append(float(x))
        hy.append(float(y))
    return np.asarray(hx), np.asarray(hy)


def parabolic_convex_minorant(grid, values) -> tuple[np.ndarray, np.ndarray]:
    """Largest g <= f on the sample grid such that s**2 g(s)**2 is convex.

    Works through the substitution F(s) = s**2 f(s)**2: the answer is the
    lower convex envelope of the F samples, mapped back by sqrt(.)/s.
    Returns (grid, g) as arrays; g(0) = 0.
    """
    s = np.asarray(grid, dtype=float)
    f = np.asarray(values, dtype=float)
    if len(s) != len(f) or len(s) < 2:
        raise ValueError("need matching grid/values with at least two samples")
    if s[0] != 0.0:
        raise ValueError("sample grid must contain 0 as its first point")
    if np.any(np.diff(s) <= 0):
        raise ValueError("sample grid must be strictly increasing")
    if np.any(f < 0):
        raise ValueError("samples must be non-negative")
    F = s * s * f * f
    hx, hy = _lower_hull(s, F)
    envelope = np.interp(s, hx, hy)
    g = np.zeros_like(s)
    pos = s > 0
    g[pos] = np.sqrt(np.maximum(envelope[pos], 0.0)) / s[pos]
    return s, g


# ---------------------------------------------------------------------------
# Convexity check for the companion function


def check_companion_convex(xi: Modulus, grid) -> bool:
    """True iff the generalized second differences of the companion function
    t**2 xi(t)**2 on the grid stay above -1e-12 times its maximum (reduces to
    plain second differences on uniform grids).
    """
    t = np.asarray(grid, dtype=float)
    if len(t) < 3:
        raise ValueError("need at least 3 grid points")
    if np.any(np.diff(t) <= 0):
        raise ValueError("grid must be strictly increasing")
    A = np.asarray(xi.companion(t))
    h1 = t[1:-1] - t[:-2]
    h2 = t[2:] - t[1:-1]
    chord = A[:-2] + (A[2:] - A[:-2]) * h1 / (h1 + h2)
    second = 2.0 * (chord - A[1:-1])
    tol = 1e-12 * float(np.max(np.abs(A))) if A.size else 0.0
    return bool(np.all(second >= -tol))


# ---------------------------------------------------------------------------
# Ray-built majorant with t * xi(t) convex


def ray_convex_majorant(xi: Modulus, t0: float, delta: float,
                        grid_points: int = 1025, max_rays: int = 200) -> Modulus:
    """Continuous increasing majorant of xi matching it at t0 up to delta,
    with t * majorant(t) convex.

    Works on G(t) = t*xi(t): lifts G at t0 by delta*t0, extends affinely to
    the right with a slope clearing G, then walks rays of slope xi(t0)/2**n
    from the origin leftwards, picking on each ray the admissible point of
    smallest abscissa; the final segment closes to the origin along the last
    ray.  Output is a sampled modulus on a uniform grid.
    """
    T = xi.horizon
    if not (0.0 < t0 <= T):
        raise ValueError(f"t0 must lie in (0, {T}]")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if grid_points < 3:
        raise ValueError("need at least 3 grid points")
    step = T / (grid_points - 1)
    grid = np.linspace(0.0, T, grid_points)
    # the lifted node is a kink of the construction: sample it exactly
    grid = np.unique(np.concatenate([grid, [t0]]))
    G = grid * np.asarray(xi.eval(grid))

    xi_t0 = float(xi.eval(t0))
    lift = (t0, t0 * (xi_t0 + delta))
    chord0 = xi_t0 + delta  # slope of the segment origin -> lifted point

    right = grid[grid > t0 + 1e-15]
    if right.size:
        G_right = right * np.asarray(xi.eval(right))
        slopes = (G_right - lift[1]) / (right - t0)
        # floor at the origin-chord slope so a first ray segment can still
        # undercut it (slopes must strictly decrease leftwards)
        k_prev = max(float(np.max(slopes)), chord0) + 1e-9
    else:
        k_prev = math.inf

    nodes = [lift]
    k_right = k_prev if math.isfinite(k_prev) else None
    closing_slope = None
    for n in range(1, max_rays + 1):
        prev_t, prev_g = nodes[-1]
        cand = grid[(grid > 0) & (grid < prev_t / 2.0)]
        if cand.size == 0:
            closing_slope = prev_g / prev_t
            break
        ray = xi_t0 / (2.0 ** n)
        node_g = ray * cand
        with np.errstate(divide="ignore", invalid="ignore"):
            k = (prev_g - node_g) / (prev_t - cand)
        ok = (node_g >= np.interp(cand, grid, G)) & (k < k_prev)
        if np.any(ok):
            # segment must clear G at every grid point it spans
            span = (grid[None, :] >= cand[:, None]) & (grid[None, :] <= prev_t)
            seg = node_g[:, None] + k[:, None] * (grid[None, :] - cand[:, None])
            above = np.all(np.where(span, seg - G[None, :], 0.0) >= 0.0, axis=1)
            ok &= above
        idx = np.flatnonzero(ok)
        if idx.size == 0:
            continue
        first = idx[0]
        t_n = float(cand[first])
        nodes.append((t_n, float(node_g[first])))
        k_prev = float(k[first])
        if t_n < step * (1 + 1e-12):
            closing_slope = ray
            break
    else:
        raise ConstructionError(
            f"no admissible ray point found within {max_rays} rays; "
            "refine the grid or reduce delta"
        )
    if closing_slope is None:
        # loop broke via empty candidate set handled above; keep for safety
        closing_slope = nodes[-1][1] / nodes[-1][0]

    # assemble piecewise-linear G-tilde: origin -> nodes (ascending t) -> right ray
    xs = [0.0] + [t for t, _ in reversed(nodes)]
    ys = [0.0] + [g for _, g in reversed(nodes)]
    g_tilde = np.interp(grid, xs, ys)
    if k_right is not None:
        right_mask = grid > t0
        g_tilde[right_mask] = lift[1] + k_right * (grid[right_mask] - t0)
    values = np.zeros_like(grid)
    pos = grid > 0
    values[pos] = g_tilde[pos] / grid[pos]
    values[0] = 0.0
    # rounding guard: the analytic construction is non-decreasing
    values = np.maximum.accumulate(values)
    return Modulus.sampled(tuple(grid), tuple(values))


# ---------------------------------------------------------------------------
# Mollified smooth majorants


@lru_cache(maxsize=1)
def _bump_mass() -> float:
    val, _ = quad(lambda x: math.exp(-1.0 / (1.0 - x * x)) if abs(x) < 1 else 0.0,
                  -1.0, 1.0, epsabs=1e-15, epsrel=1e-13, limit=200)
    return val


def _bump(x: float) -> float:
    if abs(x) >= 1.0:
        return 0.0
    return math.exp(-1.0 / (1.0 - x * x))


def mollified_majorant(xi: Modulus, n: int, t: float) -> float:
    """Smooth majorant value xi_n(t) via multiplicative convolution.

    xi_n(t)**2 = t/n + integral of xi(t*u)**2 * u**2 * Psi_n(u) du, where
    Psi_n is the symmetric normalized bump supported on [1-1/(2n), 1+1/(2n)];
    symmetry about u=1 makes both moment conditions exact.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    T = xi.horizon
    probe = np.linspace(0.0, T, 257)
    if not check_companion_convex(xi, probe):
        raise ValueError("modulus fails the companion-convexity precondition")
    half = 1.0 / (2.0 * n)
    t_max = T * (1.0 - half)
    if not (0.0 < t <= t_max * (1 + 1e-12)):
        raise DomainError(f"t must lie in (0, {t_max}] for n={n}")
    norm = 2.0 * n / _bump_mass()

    def integrand(u: float) -> float:
        psi = norm * _bump((u - 1.0) / half)
        if psi == 0.0:
            return 0.0
        x = xi.eval(min(t * u, T))
        return x * x * u * u * psi

    val, _ = quad(integrand, 1.0 - half, 1.0 + half,
                  epsabs=1e-14, epsrel=1e-11, limit=200)
    return math.sqrt(t / n + val)
