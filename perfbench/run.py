"""oscillib benchmark: drives `oscillib.cli.main` in-process and checks every output.

    python3 perfbench/run.py --workload verify_profile --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each run starts its workers one after another, each a fresh single-threaded
process (worker.py) that sets up, measures and checks.  An untraced run
splits `--seconds` of op time over three workers, so set-up is measured three
times.  A traced run does a fixed amount of work, derived from `--seconds`,
once untraced and once traced, and reports per-layer metrics and the tracing
overhead.  The last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracing import layer_metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# name -> (what one item is, rounds per second measured at the defining
# commit; only sizes the fixed work of a traced run)
WORKLOADS = {
    "verify_profile": ("trial", 2.2),
    "verify_certify": ("trial", 1.8),
    "profile_large": ("profile", 0.55),
}
UNTRACED_WORKERS = 3
DEADLINE_S = 170.0
# Median seconds of worker.reference_job on the machine the benchmark was
# defined on (Xeon, 2 vCPUs).  Round rates and set-up times are scaled by the
# reference time measured beside them over this constant, which cancels the
# machine's speed swings; see README.
REFERENCE_S = 0.009


def machine_metadata() -> dict:
    """Interpreter, package versions and host facts, read without side effects."""
    meta = {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            meta["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), "unknown")
        with open("/proc/meminfo", encoding="utf-8") as fh:
            kb = next(int(line.split()[1]) for line in fh if line.startswith("MemTotal"))
            meta["ram_gb"] = round(kb / 1024**2, 2)
    except (OSError, StopIteration, ValueError):
        meta.setdefault("cpu", "unknown")
    return meta


class WorkerError(RuntimeError):
    """A worker process did not produce a result."""


def run_worker(workload: str, seed: int, child: int, workdir: Path, deadline: float,
               budget: float | None = None, rounds: int | None = None,
               trace: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--child", str(child), "--workdir", str(workdir / str(child)),
           "--trace", str(int(trace))]
    if budget is not None:
        cmd += ["--budget", repr(budget)]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    env = {k: v for k, v in os.environ.items() if k not in ("OSCILLIB_THREADS", "PYTHONPATH")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def adjusted_rates(rounds: list[list[float]]) -> list[float]:
    """Items per second of each round, at the reference machine speed."""
    return [items / secs * ref / REFERENCE_S for items, secs, ref in rounds]


def slow_percentile(rates: list[float]) -> tuple[int, float]:
    """The lowest-rate percentile with at least ten samples below it."""
    n = len(rates)
    if n < 11:
        return 0, min(rates)
    pct = int(100 * 10 / n) + 1
    return pct, statistics.quantiles(rates, n=100)[pct - 1]


def measure(workload: str, seed: int, seconds: int, workdir: Path) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + DEADLINE_S
    results = [run_worker(workload, seed, child, workdir, deadline,
                          budget=seconds / UNTRACED_WORKERS)
               for child in range(UNTRACED_WORKERS)]
    rounds = [r for res in results for r in res["rounds"]]
    rates = adjusted_rates(rounds)
    raw = sum(i for i, _, _ in rounds) / sum(s for _, s, _ in rounds)
    metrics = {
        "items_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_kb"] for r in results) * 1024 / 1e6,
                        "unit": "MB"},
        "setup_s": {"value": statistics.median(
            r["setup_s"] * REFERENCE_S / r["setup_reference_s"] for r in results), "unit": "s"},
    }
    item = WORKLOADS[workload][0]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    pct, slow = slow_percentile(rates)
    lines = [
        f"workload {workload}  seed {seed}  {seconds} s of ops over {UNTRACED_WORKERS} workers",
        f"  items_per_s  {metrics['items_per_s']['value']:.6g} 1/s  ({item}s_per_s: median of "
        f"{len(rates)} rounds; p{pct} {slow:.6g}; unadjusted overall {raw:.6g})",
        f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.6g} MB  (median of workers)",
        f"  setup_s      {metrics['setup_s']['value']:.6g} s  (speed-adjusted median; "
        f"unadjusted {[round(r['setup_s'], 3) for r in results]})",
        f"  failed_share {failed / max(attempted, 1):.6g}  ({failed} of {attempted} ops)",
    ]
    problems = [p for r in results for p in r["problems"]]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, lines + problems


def trace_rounds(workload: str, seconds: int) -> int:
    return max(1, round(seconds * WORKLOADS[workload][1] / 2))


def measure_traced(workload: str, seed: int, seconds: int, workdir: Path) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + DEADLINE_S
    rounds = trace_rounds(workload, seconds)
    plain, traced = (run_worker(workload, seed, 0, workdir, deadline, rounds=rounds, trace=t)
                     for t in (False, True))
    item = WORKLOADS[workload][0]
    layers = traced["layers"]
    items = sum(i for i, _, _ in traced["rounds"])
    rate = {name: statistics.median(adjusted_rates(res["rounds"]))
            for name, res in (("traced", traced), ("untraced", plain))}
    metrics = {name: {"value": layers[name], "unit": _layer_unit(name)}
               for name in layer_metric_names()}
    for fn in ("stationary_lengths", "norm_bound_check", "worst_ratio"):
        key = f"modulus.{fn}"
        metrics[f"{key}.calls_per_trial"] = {"value": layers[f"{key}.calls"] / items,
                                             "unit": "1/trial"}
    metrics["trace.items_per_s"] = {"value": rate["traced"], "unit": "1/s"}
    metrics["trace.untraced_items_per_s"] = {"value": rate["untraced"], "unit": "1/s"}
    metrics["trace.overhead_items_per_s"] = {"value": rate["traced"] - rate["untraced"],
                                             "unit": "1/s"}
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    lines = [f"workload {workload}  seed {seed}  traced: {rounds} rounds, {items} {item}s"]
    width = max(len(n) for n in metrics)
    lines += [f"  {name:<{width}}  {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    problems = plain["problems"] + traced["problems"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, lines + problems


def _layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "oscillib" / "cli.py").is_file():
        print(f"error: no oscillib sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    workdir = HERE / ".work" / str(os.getpid())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            run = measure_traced if args.trace else measure
            results[name], lines = run(name, args.seed, args.seconds, workdir)
            print("\n".join(lines), flush=True)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("meta " + json.dumps(machine_metadata(), sort_keys=True))
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
