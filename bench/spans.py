"""Tracing from outside the package.

`Tracer.install` rebinds public functions of the hermitia modules to
wrappers that record one span per call (name, start, end, parent span, CLI
call id) in memory, plus counts derived from arguments and return values.
`layer_metrics` turns the spans of one or more passes into per-function
calls, total time and self time.  Nothing under src/ changes.

`field` and `intarith` are not wrapped: they are millions of tiny calls, and
a Python wrapper around each would cost more than the work it measures.
Their time shows inside the self time of their callers.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

# the public functions wrapped in the traced run, as module.function
FUNCTIONS = [
    "cli.main",
    "polyspace.wkk", "polyspace.stacked_word_matrix", "polyspace.eigen_kernel",
    "polyspace.membership", "polyspace.act_poly",
    "linalg.quad_kernel", "linalg.matvec_is_zero", "linalg.quad_rank_modular",
    "linalg.kernel_dim_upper_bound",
    "hsum.eval_exact", "hsum.average_quadrature",
    "forms.expand_P", "forms.alpha",
    "cfrac.hurwitz_cf",
    "lfun.l_closed_form", "lfun.theta",
]


def _kernel_counts(args: dict, result) -> dict[str, int]:
    rows = args["rows"]
    return {"cells": len(rows) * len(rows[0]) if rows else 0, "vectors": len(result)}


# function -> counts derived from its bound arguments and its return value
DERIVED = {
    # the a-range of the window scan: |a| <= Delta * den(z)^2
    "hsum.eval_exact": lambda args, result: {"window_a": args["delta"] * args["z"].den ** 2},
    "cfrac.hurwitz_cf": lambda args, result: {"steps": len(result.alphas)},
    "linalg.quad_rank_modular": lambda args, result: {"primes": len(result.primes)},
    "linalg.quad_kernel": _kernel_counts,
}
COUNTERS = [
    "hsum.eval_exact.window_a",
    "cfrac.hurwitz_cf.steps",
    "linalg.quad_rank_modular.primes",
    "linalg.quad_kernel.cells",
    "linalg.quad_kernel.vectors",
]
# function -> the input a cache would be keyed on; calls / distinct inputs
# is the share of calls a cache could serve
REPEAT_KEYS = {
    "forms.expand_P": lambda args: (args["f"].d, args["k"], args["delta"]),
    "polyspace.stacked_word_matrix": lambda args: (args["f"].d, args["k"]),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, call id]
        self.call_id = 0
        self.counts: Counter[str] = Counter()
        self.inputs: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []

    def install(self) -> list[str]:
        """Wrap every target in every hermitia module namespace that binds
        it (modules that import a function by name, and the package's
        re-exports).  Returns the targets that no longer exist."""
        modules = [m for n, m in sys.modules.items() if n == "hermitia" or n.startswith("hermitia.")]
        missing = []
        for name in FUNCTIONS:
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules.get(f"hermitia.{mod_name}"), fn_name, None)
            if original is None:
                missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        return missing

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        derive, key = DERIVED.get(name), REPEAT_KEYS.get(name)
        signature = inspect.signature(fn) if derive or key else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                if derive:
                    for counter, value in derive(bound, result).items():
                        self.counts[f"{name}.{counter}"] += value
                if key:
                    self.inputs[name].add(key(bound))
            return result

        return wrapper


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(passes: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-pass means of calls, total and self time for every target, plus
    the derived counts.  Each pass is {"spans", "counts", "distinct"}; a
    target never called (or no longer present) reports zeros."""
    calls: Counter[str] = Counter()
    total: Counter[str] = Counter()
    own: Counter[str] = Counter()
    counts: Counter[str] = Counter()
    distinct: Counter[str] = Counter()
    for p in passes:
        for span, self_s in zip(p["spans"], self_times(p["spans"])):
            name = span[0]
            calls[name] += 1
            total[name] += span[2] - span[1]
            own[name] += self_s
        counts.update(p["counts"])
        distinct.update(p["distinct"])
    n = len(passes)
    out: dict[str, tuple[float, str]] = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = (calls[name] / n, "count")
        out[f"{name}.total_s"] = (total[name] / n, "s")
        out[f"{name}.self_s"] = (own[name] / n, "s")
    for counter in COUNTERS:
        out[counter] = (counts[counter] / n, "count")
    primes, rank_calls = counts["linalg.quad_rank_modular.primes"], calls["linalg.quad_rank_modular"]
    out["linalg.quad_rank_modular.primes_per_call"] = (primes / rank_calls if rank_calls else 0, "ratio")
    for name in REPEAT_KEYS:
        ratio = calls[name] / distinct[name] if distinct[name] else 0
        out[f"{name}.repeat_ratio"] = (ratio, "ratio")
    return out
