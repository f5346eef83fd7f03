"""Exact representation and manipulation of piecewise-constant functions.

All integral statistics are closed-form sums over overlapped pieces, so the
only error anywhere is double rounding: there is no quadrature in this module.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "DomainError",
    "Interval",
    "StepFunction",
    "IntervalStats",
    "CutoutResult",
    "stats",
    "decreasing_rearrangement",
    "distribution_measure",
    "truncate",
    "cutout",
    "random_step_function",
]

# Guard below which a negative centred variance is attributed to rounding and
# clamped (centred values lie in [-1, 1]; prefix sums can lose a few more bits
# than a single subtraction would).
_VARIANCE_GUARD = 1e-12


class DomainError(ValueError):
    """An evaluation or window fell outside the function's domain."""


@dataclass(frozen=True)
class Interval:
    """A finite interval with positive length."""

    left: float
    right: float

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.left, self.right, self.right - self.left)):
            raise ValueError(f"interval needs finite ends and length, got [{self.left}, {self.right}]")
        if not (self.left < self.right):
            raise ValueError(f"interval needs left < right, got [{self.left}, {self.right}]")

    @property
    def length(self) -> float:
        return self.right - self.left

    def contains(self, other: "Interval") -> bool:
        return self.left <= other.left and other.right <= self.right


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function on a finite interval.

    ``breakpoints`` are the interior cut points, strictly increasing and
    strictly inside the domain; ``values`` has one entry per piece.  Adjacent
    pieces may carry equal values; :meth:`normalize` merges them.
    """

    domain: Interval
    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if not all(math.isfinite(x) for x in bp + vals):
            raise ValueError("breakpoints and values must be finite")
        if len(vals) != len(bp) + 1:
            raise ValueError(
                f"need one value per piece: {len(bp)} breakpoints require "
                f"{len(bp) + 1} values, got {len(vals)}"
            )
        prev = self.domain.left
        for b in bp:
            if not (prev < b < self.domain.right):
                raise ValueError(
                    f"breakpoint {b} not strictly increasing inside "
                    f"({self.domain.left}, {self.domain.right})"
                )
            prev = b

    @property
    def cuts(self) -> tuple[float, ...]:
        """All cut points including the domain endpoints."""
        return (self.domain.left, *self.breakpoints, self.domain.right)

    @property
    def piece_count(self) -> int:
        return len(self.values)

    def piece_widths(self) -> np.ndarray:
        c = np.asarray(self.cuts)
        return np.diff(c)

    def __call__(self, x: float) -> float:
        """Evaluate at x (right-continuous; the last piece is closed)."""
        if not (self.domain.left <= x <= self.domain.right):
            raise DomainError(f"{x} outside domain [{self.domain.left}, {self.domain.right}]")
        idx = int(np.searchsorted(self.breakpoints, x, side="right"))
        return self.values[idx]

    def normalize(self) -> "StepFunction":
        """Merge adjacent pieces with equal values."""
        bp: list[float] = []
        vals: list[float] = [self.values[0]]
        for b, v in zip(self.breakpoints, self.values[1:]):
            if v == vals[-1]:
                continue
            bp.append(b)
            vals.append(v)
        return StepFunction(self.domain, tuple(bp), tuple(vals))

    def total_integral(self) -> float:
        # fsum: correctly rounded, so equidistributed functions integrate
        # to bit-identical totals regardless of piece order
        return math.fsum(w * v for w, v in zip(self.piece_widths(), self.values))

    def to_json_dict(self) -> dict:
        return {
            "domain": [self.domain.left, self.domain.right],
            "breakpoints": list(self.breakpoints),
            "values": list(self.values),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "StepFunction":
        try:
            left, right = data["domain"]
            bp = data["breakpoints"]
            vals = data["values"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed step-function record: {exc}") from exc
        return cls(Interval(float(left), float(right)), tuple(bp), tuple(vals))

    @classmethod
    def from_json(cls, text: str) -> "StepFunction":
        return cls.from_json_dict(json.loads(text))

    @classmethod
    def constant(cls, value: float, domain: Interval) -> "StepFunction":
        return cls(domain, (), (float(value),))


@dataclass(frozen=True)
class IntervalStats:
    """Mean, second moment and variance of a step function over a window."""

    mean: float
    second_moment: float
    variance: float
    length: float


@dataclass(frozen=True)
class CutoutResult:
    """Result of deleting a set of pieces and gluing the survivors."""

    function: StepFunction
    removed_measure: float
    transport: tuple[tuple[int, float], ...] = field(default=())


def _prefix_integrals(sf: StepFunction):
    """Cuts, centred values ``u = (v - mid) / half`` in [-1, 1], prefix
    integrals of ``u`` and ``u**2``, and ``mid``, ``half``.  Centring keeps
    window variances clear of cancellation against a large mean (Chan, Golub
    & LeVeque, Amer. Statist. 37(3), 1983); ``-sf`` centres to exactly ``-u``."""
    c = np.asarray(sf.cuts)
    v = np.asarray(sf.values)
    lo, hi = float(v.min()), float(v.max())
    mid = 0.5 * lo + 0.5 * hi
    half = (0.5 * hi - 0.5 * lo) or 1.0
    u = (v - mid) / half
    w = np.diff(c)
    P = np.concatenate(([0.0], np.cumsum(u * w)))
    Q = np.concatenate(([0.0], np.cumsum(u * u * w)))
    return c, u, P, Q, mid, half


def _window_moments(c, u, P, Q, left, right) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of the centred values ``u`` over the windows
    ``[left, right]`` (arrays), from the prefix integrals of
    :func:`_prefix_integrals`.  A window inside one piece has variance 0."""
    left, right = np.asarray(left, dtype=float), np.asarray(right, dtype=float)
    n = len(u)
    i = np.clip(np.searchsorted(c, left, side="right") - 1, 0, n - 1)
    j = np.clip(np.searchsorted(c, right, side="right") - 1, 0, n - 1)
    length = right - left
    w = u * u
    m = (P[j] + u[j] * (right - c[j]) - (P[i] + u[i] * (left - c[i]))) / length
    q = (Q[j] + w[j] * (right - c[j]) - (Q[i] + w[i] * (left - c[i]))) / length
    same_piece = np.searchsorted(c, right, side="left") - 1 == i
    return m, np.where(same_piece, 0.0, q - m * m)


def stats(sf: StepFunction, window: Interval) -> IntervalStats:
    """Exact mean / second moment / variance of ``sf`` over ``window``."""
    if not sf.domain.contains(window):
        raise DomainError(
            f"window [{window.left}, {window.right}] not inside domain "
            f"[{sf.domain.left}, {sf.domain.right}]"
        )
    c, u, P, Q, mid, half = _prefix_integrals(sf)
    (m,), (variance,) = _window_moments(c, u, P, Q, [window.left], [window.right])
    if variance < 0.0:
        # Analytically variance >= 0; anything below is rounding.
        if variance < -_VARIANCE_GUARD:
            raise AssertionError(f"variance {variance} below rounding guard")
        variance = 0.0
    mean = mid + half * float(m)
    variance = float(variance) * half * half
    return IntervalStats(mean=mean, second_moment=mean * mean + variance, variance=variance,
                         length=window.length)


def distribution_measure(sf: StepFunction, level: float) -> float:
    """Measure of the super-level set ``{s : sf(s) > level}``."""
    widths = sf.piece_widths()
    return math.fsum(w for w, v in zip(widths, sf.values) if v > level)


def decreasing_rearrangement(sf: StepFunction) -> StepFunction:
    """Non-increasing function on the same domain, equidistributed with ``sf``.

    Pieces are sorted by value descending; ties keep the original order, so the
    output is deterministic.  A piece narrower than the rounding at its new
    position merges into its neighbour.  The result is normalized.
    """
    widths = sf.piece_widths()
    order = sorted(range(sf.piece_count), key=lambda i: (-sf.values[i], i))
    bp: list[float] = []
    vals = [sf.values[order[0]]]
    pos = sf.domain.left
    for k, i in zip(order, order[1:]):
        pos += float(widths[k])
        if pos <= (bp[-1] if bp else sf.domain.left):
            vals[-1] = sf.values[i]
        elif pos < sf.domain.right:
            bp.append(pos)
            vals.append(sf.values[i])
    return StepFunction(sf.domain, tuple(bp), tuple(vals)).normalize()


def truncate(sf: StepFunction, lo: float, hi: float) -> StepFunction:
    """Clamp all values into [lo, hi]; the domain is unchanged."""
    if lo > hi:
        raise ValueError(f"truncation needs lo <= hi, got [{lo}, {hi}]")
    vals = tuple(min(max(v, lo), hi) for v in sf.values)
    return StepFunction(sf.domain, sf.breakpoints, vals)


def _covered_piece_indices(sf: StepFunction, parts: Sequence[Interval]) -> list[int]:
    """Map piece-aligned intervals to the piece indices they cover exactly."""
    cuts = sf.cuts
    tol = 1e-12 * max(1.0, sf.domain.length)
    covered: set[int] = set()
    for part in parts:
        if not sf.domain.contains(part):
            raise DomainError(f"cutout interval [{part.left}, {part.right}] outside domain")
        li = min(range(len(cuts)), key=lambda k: abs(cuts[k] - part.left))
        ri = min(range(len(cuts)), key=lambda k: abs(cuts[k] - part.right))
        if abs(cuts[li] - part.left) > tol or abs(cuts[ri] - part.right) > tol or li >= ri:
            raise ValueError(
                f"cutout interval [{part.left}, {part.right}] is not aligned with "
                f"piece boundaries (general measurable cutouts are unsupported)"
            )
        for k in range(li, ri):
            if k in covered:
                raise ValueError("cutout intervals overlap after normalization")
            covered.add(k)
    return sorted(covered)


def cutout(sf: StepFunction, removed: Sequence[Interval]) -> CutoutResult:
    """Delete piece-aligned intervals and glue the survivors onto [0, d].

    Equivalent to composing with the inverse of ``h(s) = |[left, s] \\ E|``:
    surviving pieces keep their order and widths.
    """
    covered = set(_covered_piece_indices(sf, removed))
    widths = sf.piece_widths()
    removed_measure = float(sum(widths[k] for k in covered))
    survivors = [k for k in range(sf.piece_count) if k not in covered]
    if not survivors:
        raise DomainError("cutout removes the whole domain")
    d = float(sum(widths[k] for k in survivors))
    vals = [sf.values[k] for k in survivors]
    transport = []
    bp = []
    pos = 0.0
    for k in survivors:
        transport.append((k, pos))
        pos += float(widths[k])
        bp.append(pos)
    bp = bp[:-1]
    out = StepFunction(Interval(0.0, d), tuple(bp), tuple(vals))
    return CutoutResult(function=out, removed_measure=removed_measure, transport=tuple(transport))


def random_step_function(
    seed: int,
    pieces_max: int,
    value_range: tuple[float, float] = (-1.0, 1.0),
    domain: Interval = Interval(0.0, 1.0),
) -> StepFunction:
    """Deterministic pseudo-random step function of the seed.

    Breakpoints are drawn uniformly in the domain and sorted; values are
    uniform in ``value_range``.
    """
    if pieces_max < 1:
        raise ValueError("pieces_max must be >= 1")
    lo, hi = value_range
    if not (lo < hi):
        raise ValueError(f"empty value range [{lo}, {hi}]")
    rng = np.random.default_rng(seed)
    pieces = int(rng.integers(1, pieces_max + 1))
    raw = np.sort(rng.uniform(domain.left, domain.right, size=pieces - 1))
    # Coincident or boundary-touching draws have probability zero but would
    # violate the invariants, so drop them.
    bp = []
    prev = domain.left
    for b in raw:
        if prev < b < domain.right:
            bp.append(float(b))
            prev = b
    vals = rng.uniform(lo, hi, size=len(bp) + 1)
    return StepFunction(domain, tuple(bp), tuple(float(v) for v in vals))
