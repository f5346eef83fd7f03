"""One benchmark process: set up, run rounds of CLI calls, check every output.

Started by run.py.  Set-up is import, input generation and one warm-up op,
followed by five reference-job timings that give the machine's speed.
Then either rounds run until `--budget` seconds of op time are spent, or
exactly `--rounds` rounds run (the fixed work of a traced run, so its counts
repeat).  The last stdout line is a JSON summary.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    from oscillib import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"oscillib imported from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def reference_job() -> float:
    """Seconds for a fixed job owned by the benchmark: interpreter loop plus
    array work.  Timed before each round and after every op, it measures the
    machine's speed while the round ran."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(40000):
        acc += i * i % 7
    a = np.sin(np.arange(1 << 17, dtype=float))
    a.sort()
    np.cumsum(a * a)
    return time.perf_counter() - start


def _run_op(cli, op, tracer, op_index: int) -> tuple[float, list[str]]:
    """Call cli.main in-process; return (seconds, problems)."""
    op.output.unlink(missing_ok=True)
    sink = io.StringIO()
    if tracer is not None:
        tracer.op = op_index
        tracer.active = True
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(op.argv)
    except Exception:
        # the op's own failure is counted; the run goes on
        elapsed = time.perf_counter() - start
        return elapsed, [f"{' '.join(op.argv)} raised:\n{traceback.format_exc()}"]
    finally:
        if tracer is not None:
            tracer.active = False
    elapsed = time.perf_counter() - start
    text = op.output.read_text(encoding="utf-8") if op.output.exists() else ""
    problems = op.check(rc, text)
    if problems and rc != 0:
        problems.append(sink.getvalue().strip())
    return elapsed, problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--child", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--budget", type=float, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    cli = _import_program()
    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    workload.prepare(args.seed, args.child, workdir)
    attempted = failed = 0
    problems: list[str] = []
    for op in workload.warmup():
        _, found = _run_op(cli, op, None, -1)
        attempted += 1
        failed += bool(found)
        problems += found
    setup_s = time.perf_counter() - _T0
    setup_reference_s = statistics.median(reference_job() for _ in range(5))

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    rounds = []
    spent = 0.0
    for k, ops in enumerate(workload.rounds()):
        if args.rounds is not None and k >= args.rounds:
            break
        if args.budget is not None and spent >= args.budget:
            break
        seconds = 0.0
        items = 0
        reference = [reference_job()]
        for op in ops:
            elapsed, found = _run_op(cli, op, tracer, attempted)
            reference.append(reference_job())
            attempted += 1
            seconds += elapsed
            items += op.items
            if found:
                failed += 1
                problems += found
        spent += seconds
        rounds.append([items, seconds, sum(reference) / len(reference)])

    result = {
        "setup_s": setup_s,
        "setup_reference_s": setup_reference_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "layers": tracer.summary() if tracer else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
