"""Per-layer tracing by wrapping the program's public functions from outside.

The modules bind functions by value (`from .modulus import norm_bound_check`),
so patching one module attribute misses most calls.  `Tracer.install` replaces
the function at every oscillib module attribute that holds it, and methods on
their class.  Spans are kept in memory while tracing is active and reduced to
per-function calls, total time and self time at the end.
"""
from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

# (module, qualified name) of every function timed by a span.
TIMED = [
    ("cli", "main"),
    ("theorems", "verify_convexified"),
    ("theorems", "verify_inf_bound"),
    ("modulus", "stationary_lengths"),
    ("modulus", "sup_variance_at_lengths"),
    ("modulus", "oscillation_profile"),
    ("modulus", "parabolic_convex_minorant"),
    ("modulus", "worst_ratio"),
    ("modulus", "norm_bound_check"),
    ("geometry", "GeometryContext.inf_bound"),
    ("geometry", "GeometryContext.solve_tau_u"),
    ("funcspace", "random_step_function"),
    ("funcspace", "decreasing_rearrangement"),
    ("funcspace", "stats"),
]

# Called tens of times per solve; only counted, so tracing stays cheap.
COUNTED = [("geometry", "GeometryContext.gap")]


def _count_stationary(args, kwargs, out):
    return {"lengths": len(out)}


def _count_sup_variance(args, kwargs, out):
    sf = args[0] if args else kwargs["sf"]
    n_lengths = len(out[0])
    # one closed-form span per event interval: 2(n+1) events give 2n+1 spans
    return {"lengths": n_lengths, "spans": n_lengths * (2 * len(sf.values) + 1)}


# Work counts taken from a call's arguments and result, after its span ends.
COUNTERS = {
    "modulus.stationary_lengths": (("lengths",), _count_stationary),
    "modulus.sup_variance_at_lengths": (("lengths", "spans"), _count_sup_variance),
}


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for module, qual in TIMED:
        key = f"{module}.{qual}"
        names += [f"{key}.calls", f"{key}.total_s", f"{key}.self_s"]
        names += [f"{key}.{field}" for field in COUNTERS.get(key, ((), None))[0]]
    names += [f"{module}.{qual}.calls" for module, qual in COUNTED]
    return names


class Tracer:
    """Wraps the traced functions; records spans only while `active`."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def install(self, package: str = "oscillib") -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for module, qual in TIMED + COUNTED:
            owner = sys.modules[f"{package}.{module}"]
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            key = f"{module}.{qual}"
            if (module, qual) in COUNTED:
                wrapper = self._counting(key, orig)
            else:
                wrapper = self._timing(key, orig)
            setattr(owner, attr, wrapper)
            if not path:
                # every by-value binding of the same function object
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, name, wrapper)

    def _counting(self, key, fn):
        tracer = self
        calls = f"{key}.calls"
        tracer.counts[calls] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timing(self, key, fn):
        tracer = self
        name_id = len(self.names)
        self.names.append(key)
        fields, counter = COUNTERS.get(key, ((), None))
        for field in fields:
            self.counts[f"{key}.{field}"] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append(idx)
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer.stack.pop()
                tracer.spans[idx] = (tracer.op, name_id, start, end, parent)
            if counter is not None:
                for field, n in counter(args, kwargs, out).items():
                    tracer.counts[f"{key}.{field}"] += n
            return out

        return wrapper

    def summary(self) -> dict:
        """calls / total_s / self_s per timed function, plus the counters."""
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        child = [0] * len(self.spans)
        for op, name_id, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        selft = [0] * len(self.names)
        for k, (op, name_id, start, end, parent) in enumerate(self.spans):
            calls[name_id] += 1
            total[name_id] += end - start
            selft[name_id] += end - start - child[k]
        out: dict[str, float] = {}
        for i, key in enumerate(self.names):
            out[f"{key}.calls"] = calls[i]
            out[f"{key}.total_s"] = total[i] / 1e9
            out[f"{key}.self_s"] = selft[i] / 1e9
        out.update(self.counts)
        return out
