"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that the traced run's deterministic counts repeat exactly at one seed,
that the predicted bypasses read zero, that the output checks reject wrong
outputs, and that the harness fails without printing a result when the
program's sources are absent.  Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from checks import check_campaign, check_profile  # noqa: E402
from workloads import GRID, random_pieces  # noqa: E402

DETERMINISTIC = (".calls", ".lengths", ".spans")
# function -> workloads on which it must never run
BYPASSED = {
    "modulus.norm_bound_check": ("verify_profile", "profile_large"),
    "modulus.worst_ratio": ("verify_profile", "profile_large"),
    "modulus.oscillation_profile": ("verify_certify",),
    "modulus.sup_variance_at_lengths": ("verify_certify",),
}
# function -> workloads on which it must run, so a zero above is not vacuous
EXERCISED = {
    "modulus.stationary_lengths": ("verify_profile", "verify_certify", "profile_large"),
    "modulus.sup_variance_at_lengths": ("verify_profile", "profile_large"),
    "modulus.norm_bound_check": ("verify_certify",),
    "geometry.GeometryContext.gap": ("verify_certify",),
}


def traced(workload: str, seed: int = 7, seconds: int = 2) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return {k: m["value"] for k, m in result["metrics"].items()}


def check_traced_runs(errors: list[str]) -> None:
    for workload in ("verify_profile", "verify_certify", "profile_large"):
        first, second = traced(workload), traced(workload)
        for name, value in first.items():
            if name.endswith(DETERMINISTIC) and second[name] != value:
                errors.append(f"{workload}: {name} {value} then {second[name]}")
        for fn, workloads in BYPASSED.items():
            if workload in workloads and first[f"{fn}.calls"] != 0:
                errors.append(f"{workload}: {fn} called {first[fn + '.calls']} times")
        for fn, workloads in EXERCISED.items():
            if workload in workloads and first[f"{fn}.calls"] == 0:
                errors.append(f"{workload}: {fn} never called")


def check_output_checks(errors: list[str]) -> None:
    """Wrong outputs must be caught; the right one must pass."""
    from oscillib.modulus import oscillation_profile

    sf = random_pieces(np.random.default_rng(3), 24)
    grid = np.linspace(1.0 / GRID, 1.0, GRID)
    good = oscillation_profile(sf, grid).to_csv()
    if check_profile(0, good, sf, grid):
        errors.append(f"correct profile rejected: {check_profile(0, good, sf, grid)}")
    header, *rows = good.strip().splitlines()

    def scaled(factor: float, k: int) -> str:
        t, xi, a, b = rows[k].split(",")
        return ",".join([t, repr(float(xi) * factor), a, b])

    wrong = {
        "row missing": [header, *rows[:-1]],
        "xi too low": [header, *rows[:-1], scaled(0.999, -1)],
        "xi decreasing": [header, *rows[:5], scaled(0.5, 5), *rows[6:]],
        "witness too long": [header, rows[0].rsplit(",", 1)[0] + ",0.9", *rows[1:]],
    }
    for what, lines in wrong.items():
        if not check_profile(0, "\n".join(lines) + "\n", sf, grid):
            errors.append(f"profile check missed: {what}")
    if not check_profile(1, good, sf, grid):
        errors.append("profile check missed a non-zero exit code")
    report = {"name": "inf_bound", "trials": 10, "skipped": 0, "failures": 0}
    if check_campaign(0, json.dumps(report), "inf_bound", 10):
        errors.append("correct campaign report rejected")
    for what, change in {"failures": {"failures": 1}, "lost seeds": {"trials": 9},
                         "statement": {"name": "cutout"}}.items():
        if not check_campaign(0, json.dumps({**report, **change}), "inf_bound", 10):
            errors.append(f"campaign check missed: {what}")


def check_fails_without_program(errors: list[str]) -> None:
    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "verify_profile",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    errors: list[str] = []
    check_output_checks(errors)
    check_fails_without_program(errors)
    check_traced_runs(errors)
    for e in errors:
        print("FAIL", e)
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
