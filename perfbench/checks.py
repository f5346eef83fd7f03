"""Output checks, run outside the timed region.

Each check returns a list of problems; an empty list means the output is
correct.  The dense scan is the benchmark's own numpy code and shares nothing
with the program's kernel.
"""
from __future__ import annotations

import json

import numpy as np

from oscillib.funcspace import Interval, StepFunction, stats

# Slack for comparing two double evaluations of one window variance.  Both the
# kernel and `stats` difference prefix integrals, so their rounding grows as
# eps * max(v^2) * |domain| / |window|: a 5e-8 window of a 96-piece function
# was measured 2.6e-9 apart (relative).
_REL = 1e-9
_ABS = 1e-12
_CONDITIONING = 64 * float(np.finfo(float).eps)


def check_campaign(rc: int, report_text: str, statement: str, seeds: int) -> list[str]:
    """Exit code 0, zero failures, and every seed accounted for."""
    problems = []
    if rc != 0:
        problems.append(f"{statement}: exit code {rc}")
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError as exc:
        return problems + [f"{statement}: unreadable report ({exc})"]
    if report.get("name") != statement:
        problems.append(f"{statement}: report names {report.get('name')!r}")
    if report.get("failures") != 0:
        problems.append(f"{statement}: {report.get('failures')} failures")
    if report.get("trials", 0) + report.get("skipped", 0) != seeds:
        problems.append(f"{statement}: trials {report.get('trials')} + skipped "
                        f"{report.get('skipped')} != {seeds} seeds")
    return problems


def dense_scan(cuts: np.ndarray, values: np.ndarray, grid: np.ndarray,
               positions: int = 1024, subdiv: int = 2) -> np.ndarray:
    """Lower bound on the variance supremum over windows of length <= each
    grid length, from a dense set of windows.

    Left endpoints are a uniform grid plus every cut; lengths are the grid
    refined `subdiv` times.  Window statistics come from the piecewise-linear
    prefix integrals, which are exact at any point.
    """
    w = np.diff(cuts)
    P = np.concatenate(([0.0], np.cumsum(values * w)))
    Q = np.concatenate(([0.0], np.cumsum(values * values * w)))
    lo, hi = cuts[0], cuts[-1]
    steps = np.concatenate(([0.0], grid))
    lengths = (steps[:-1, None] + np.outer(np.diff(steps), np.arange(1, subdiv + 1) / subdiv)).ravel()
    best = np.empty(len(lengths))
    base = np.linspace(0.0, 1.0, positions)
    for k, ell in enumerate(lengths):
        a = np.concatenate((lo + base * (hi - lo - ell), cuts[cuts <= hi - ell]))
        b = a + ell
        m = (np.interp(b, cuts, P) - np.interp(a, cuts, P)) / ell
        q = (np.interp(b, cuts, Q) - np.interp(a, cuts, Q)) / ell
        best[k] = np.max(q - m * m)
    return np.maximum.accumulate(best)[subdiv - 1::subdiv]


def check_profile(rc: int, csv_text: str, sf: StepFunction, grid: np.ndarray) -> list[str]:
    """One CSV row per grid length, xi non-decreasing, witnesses of length
    <= t whose variance is xi(t)^2, and xi^2 never below the dense scan."""
    if rc != 0:
        return [f"profile: exit code {rc}"]
    lines = csv_text.strip().splitlines()
    if not lines or lines[0] != "length,xi,witness_left,witness_right":
        return ["profile: missing CSV header"]
    try:
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        return [f"profile: unreadable CSV ({exc})"]
    if rows.shape != (len(grid), 4):
        return [f"profile: {rows.shape[0]} rows for {len(grid)} grid lengths"]
    t, xi, left, right = rows.T
    problems = []
    scale = float(np.max(np.square(sf.values))) * sf.domain.length
    if not np.allclose(t, grid, rtol=1e-12, atol=0.0):
        problems.append("profile: lengths differ from the grid")
    if np.any(np.diff(xi) < 0):
        problems.append("profile: xi decreases")
    for k in range(len(grid)):
        if right[k] - left[k] > t[k] * (1 + 1e-12):
            problems.append(f"profile: witness at t={t[k]} is longer than t")
            continue
        if xi[k] == 0.0 or not (left[k] < right[k]):
            continue
        var = stats(sf, Interval(left[k], right[k])).variance
        xi2 = xi[k] * xi[k]
        slack = _REL * xi2 + _ABS + _CONDITIONING * scale / (right[k] - left[k])
        if abs(var - xi2) > slack:
            problems.append(f"profile: witness variance {var!r} != xi^2 {xi2!r} at t={t[k]}")
    cuts = np.asarray(sf.cuts)
    scan = dense_scan(cuts, np.asarray(sf.values), grid)
    below = xi * xi < scan - (_REL * scan + _ABS)
    if np.any(below):
        k = int(np.argmax(below))
        problems.append(f"profile: xi^2 {xi[k] ** 2!r} below dense scan {scan[k]!r} at t={t[k]}")
    return problems
