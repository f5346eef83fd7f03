"""Extremal-curve geometry for smooth moduli.

Provides the auxiliary radius function, the extremal curve and its scaled
restriction to the parabolic strip, membership tests, and the solver that
coordinatizes strip points by (tangency parameter, vertical offset).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .funcspace import DomainError, StepFunction, stats
from .modulus import Modulus, check_companion_convex, norm_bound_check

__all__ = [
    "PlanePoint",
    "TauU",
    "StripMembership",
    "GeometryContext",
]

# Relative slack treated as rounding when a point sits marginally above the
# strip; beyond it the solver refuses instead of clamping.
_CLAMP_REL = 1e-9
_CLAMP_ABS = 1e-12

# Rounding slack of the unit-ball membership check in `inf_bound`.
_NORM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class PlanePoint:
    """A (mean, second moment) pair."""

    x1: float
    x2: float


@dataclass(frozen=True)
class TauU:
    """Solver output: curve parameter in [0, t] and vertical offset."""

    tau: float
    u: float
    clamped: bool = False


@dataclass(frozen=True)
class StripMembership:
    inside: bool
    lower_margin: float
    upper_margin: float


class GeometryContext:
    """A smooth modulus with its derived curve evaluators and solver state.

    Only power and linear moduli are accepted: the radius function needs a
    closed-form derivative, and the smoothness reduction for general moduli
    lives with the majorant machinery, not here.
    """

    def __init__(self, xi: Modulus, probe_points: int = 129):
        if xi.kind not in ("power", "linear"):
            raise ValueError(
                f"geometry needs a smooth modulus kind (power or linear), got {xi.kind!r}"
            )
        T = xi.horizon
        probe = np.linspace(T / probe_points, T, probe_points)
        if np.any(np.asarray(xi.eval_derivative(probe)) <= 0):
            raise ValueError("modulus derivative must be positive on (0, T]")
        if not check_companion_convex(xi, np.linspace(0.0, T, probe_points)):
            raise ValueError("modulus fails the companion-convexity requirement")
        self.xi = xi
        self.horizon = T
        # scalar closures keep the bisection loop off the array machinery
        if xi.kind == "power":
            a, sc = xi.alpha, xi.scale
            k1 = sc * math.sqrt(1.0 + 2.0 * a)
            k2 = sc * sc * (2.0 + 2.0 * a)
            self._curve1 = lambda tau: k1 * tau ** (1.0 + a)
            self._curve2 = lambda tau: k2 * tau ** (1.0 + 2.0 * a)
            self._xi_sq = lambda t: (sc * t ** a) ** 2
        else:
            m = xi.slope
            self._curve1 = lambda tau: math.sqrt(3.0) * m * tau * tau
            self._curve2 = lambda tau: 4.0 * m * m * tau ** 3
            self._xi_sq = lambda t: (m * t) ** 2

    # -- curve primitives ---------------------------------------------------

    def radius(self, s: float) -> float:
        """sqrt(xi^2(s) + 2 s xi(s) xi'(s)); zero at s = 0."""
        if not (0.0 <= s <= self.horizon * (1 + 1e-12)):
            raise DomainError(f"argument {s} outside [0, {self.horizon}]")
        if s == 0.0:
            return 0.0
        x = self.xi.eval(s)
        dx = self.xi.eval_derivative(s)
        return math.sqrt(x * x + 2.0 * s * x * dx)

    def extremal_curve(self, tau: float) -> PlanePoint:
        """The extremal curve (tau * radius, tau * (radius^2 + xi^2))."""
        if tau < 0:
            raise DomainError(f"curve parameter {tau} must be non-negative")
        if tau == 0.0:
            return PlanePoint(0.0, 0.0)
        return PlanePoint(self._curve1(tau), self._curve2(tau))

    def scaled_curve(self, t: float, tau: float) -> PlanePoint:
        """The scaled curve: extremal_curve(tau) / t."""
        if t <= 0:
            raise DomainError(f"scale {t} must be positive")
        g = self.extremal_curve(tau)
        return PlanePoint(g.x1 / t, g.x2 / t)

    def gap(self, t: float, tau: float) -> float:
        """Vertical gap of the scaled curve over the lower parabola."""
        if t <= 0:
            raise DomainError(f"scale {t} must be positive")
        if tau < 0:
            raise DomainError(f"curve parameter {tau} must be non-negative")
        g1 = self._curve1(tau) / t
        return self._curve2(tau) / t - g1 * g1

    # -- strip and solver ---------------------------------------------------

    def strip_contains(self, t: float, p: PlanePoint) -> StripMembership:
        """Membership of p in the parabolic strip at scale t, with margins."""
        if not (0.0 < t <= self.horizon * (1 + 1e-12)):
            raise DomainError(f"scale {t} outside (0, {self.horizon}]")
        x = self.xi.eval(min(t, self.horizon))
        lower = p.x2 - p.x1 * p.x1
        upper = p.x1 * p.x1 + x * x - p.x2
        return StripMembership(inside=bool(lower >= 0 and upper >= 0),
                               lower_margin=lower, upper_margin=upper)

    def solve_tau_u(self, y1: float, y2: float, t: float) -> TauU:
        """Unique (tau, u) with y1 = u + g1(tau), y2 = u^2 + 2u g1(tau) + g2(tau).

        The gap of the scaled curve is strictly increasing on [0, t], so the
        curve parameter comes from bisecting the gap against y2 - y1^2; the
        offset follows from the first coordinate.
        """
        if not (0.0 < t <= self.horizon * (1 + 1e-12)):
            raise DomainError(f"scale {t} outside (0, {self.horizon}]")
        target = y2 - y1 * y1
        gmax = self._xi_sq(min(t, self.horizon))
        scale = max(1.0, gmax)
        if target < -(_CLAMP_REL * scale + _CLAMP_ABS):
            raise ValueError(f"point ({y1}, {y2}) lies below the parabola at scale {t}")
        clamped = False
        if target <= 0.0:
            return TauU(tau=0.0, u=y1, clamped=False)
        if target >= gmax:
            if target > gmax * (1 + _CLAMP_REL) + _CLAMP_ABS:
                raise ValueError(f"point ({y1}, {y2}) lies above the strip at scale {t}")
            tau = t
            clamped = target > gmax
        else:
            lo, hi = 0.0, t
            for _ in range(90):
                mid = 0.5 * (lo + hi)
                if self.gap(t, mid) < target:
                    lo = mid
                else:
                    hi = mid
                if hi - lo <= 1e-13 * t:
                    break
            tau = 0.5 * (lo + hi)
        g1 = self._curve1(tau) / t if tau > 0 else 0.0
        return TauU(tau=tau, u=y1 - g1, clamped=clamped)

    def u_monotone_in_t(self, p: PlanePoint, t1: float, t2: float) -> tuple[float, float]:
        """Offsets of p at two scales; the smaller scale gives the smaller one."""
        if not (0.0 < t1 < t2):
            raise ValueError(f"need 0 < t1 < t2, got {t1}, {t2}")
        member = self.strip_contains(t1, p)
        if not member.inside or member.lower_margin <= 0:
            raise ValueError("point must lie strictly above the parabola inside the smaller strip")
        u1 = self.solve_tau_u(p.x1, p.x2, t1).u
        u2 = self.solve_tau_u(p.x1, p.x2, t2).u
        if not (u1 < u2 + 1e-12):
            raise AssertionError(f"offset ordering violated: {u1} >= {u2}")
        return u1, u2

    # -- the infimum bound --------------------------------------------------

    def inf_bound(self, sf: StepFunction) -> float:
        """Upper bound for the essential infimum of a unit-norm function.

        The function must satisfy the class bound with constant one (checked);
        the bound is the solver offset at the whole-domain statistics.
        """
        total = sf.domain.length
        if total > self.horizon * (1 + 1e-12):
            raise ValueError(f"domain length {total} exceeds the modulus horizon {self.horizon}")
        check = norm_bound_check(sf, self.xi, 1.0, tolerance=_NORM_TOLERANCE)
        if not check.passed:
            raise ValueError(
                f"function is not in the unit ball: worst margin {check.worst_margin}"
            )
        st = stats(sf, sf.domain)
        return self.solve_tau_u(st.mean, st.second_moment, total).u
