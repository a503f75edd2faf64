"""Span tracer for the sqfpairs layers, installed from outside the package.

`install` replaces each traced public function by a wrapper under every
name by which a caller reaches it: the defining module's attribute and
every by-name import of it in the other package modules (for example
`counting.solve_circle` and `asymptotic.build_sieve`).  The package code
is not edited.

Each call records one span (function, parent span, start, end) in flat
arrays; `summary` turns them into per-function call counts, self times
(span minus the time covered by its child spans) and total times
(outermost spans only, so recursion is not counted twice), plus the
per-function counters the hooks collect.

The tracer keeps one span stack and assumes traced functions are called
from one thread; the benchmark pins SQFPAIRS_THREADS=1, and the worker
threads of the pair probe call no traced function.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, function) pairs traced, named as "<module>.<function>".
TRACED = (
    ("ntcore", "sqrt_mod"),
    ("ntcore", "primes_upto"),
    ("expsums", "kloosterman_direct"),
    ("expsums", "gauss_direct"),
    ("expsums", "gauss_reduce"),
    ("lambdasums", "solve_circle"),
    ("lambdasums", "lambda_direct"),
    ("lambdasums", "lambda_fast_odd"),
    ("lambdasums", "lambda_any"),
    ("lambdasums", "lambda_any_table"),
    ("counting", "build_sieve"),
    ("counting", "count_pairs_direct"),
    ("counting", "congruent_pair_count"),
    ("counting", "count_pairs_mobius"),
    ("asymptotic", "constant_c"),
    ("asymptotic", "error_scan"),
    ("asymptotic", "harmonic_lambda_sums"),
    ("verify", "run_suites"),
    ("cli", "main"),
)

LAYERS = ("ntcore", "expsums", "lambdasums", "counting", "asymptotic", "verify", "cli")


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id = array("i")
        self._parent = array("i")
        self._outermost = array("b")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._depth: list[int] = []
        # Counters filled by the per-function hooks.
        self.solve_seen: set[int] = set()
        self.solve_repeats = 0
        self.solve_pairs = 0
        self.sieve_limits: list[int] = []
        self.probe_heights: list[int] = []
        self.constant_cutoffs: list[int] = []

    def wrap(self, name, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        self._depth.append(0)
        name_id, parent, outermost = self._name_id, self._parent, self._outermost
        starts, ends, stack, depth = self._start, self._end, self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            outermost.append(depth[nid] == 0)
            ends.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                depth[nid] -= 1
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per-function calls, self_s and total_s with the hook counters,
        the span count, and covered_s: the summed duration of the spans
        whose parent is a top-level span (for the CLI, those called from
        cli.main)."""
        k = len(self.names)
        name_id = np.asarray(self._name_id, dtype=np.int64)
        parent = np.asarray(self._parent, dtype=np.int64)
        outer = np.asarray(self._outermost, dtype=bool)
        dur = np.asarray(self._end) - np.asarray(self._start)
        nested = parent >= 0
        under_top = nested.copy()
        under_top[nested] = parent[parent[nested]] < 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - covered
        calls = np.bincount(name_id, minlength=k)
        self_s = np.bincount(name_id, weights=self_time, minlength=k)
        total_s = np.bincount(name_id[outer], weights=dur[outer], minlength=k)
        functions = {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i])}
            for i, name in enumerate(self.names)
        }
        counters = {
            "lambdasums.solve_circle": {"first_calls": len(self.solve_seen),
                                        "repeat_calls": self.solve_repeats,
                                        "pairs": self.solve_pairs},
            "counting.build_sieve": {"bytes": sum((n + 1) / 8 for n in self.sieve_limits)},
            "counting.count_pairs_direct": {"lookups": sum(h * h for h in self.probe_heights)},
            "asymptotic.constant_c": {"primes": sum(_prime_count(p) for p in self.constant_cutoffs)},
        }
        for name, values in counters.items():
            if name in functions:
                functions[name].update(values)
        return {"functions": functions, "covered_s": float(dur[under_top].sum()), "spans": int(dur.size)}


def _prime_count(n: int) -> int:
    """pi(n) by a plain sieve, independent of the package's own."""
    if n < 2:
        return 0
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return int(flags.sum())


def _on_solve(tracer, args, kwargs, result):
    q = int(_arg(args, kwargs, 0, "q"))
    if q in tracer.solve_seen:
        tracer.solve_repeats += 1
    else:
        tracer.solve_seen.add(q)
        tracer.solve_pairs += len(result)


def _on_sieve(tracer, args, kwargs, result):
    tracer.sieve_limits.append(int(_arg(args, kwargs, 0, "N")))


def _on_probe(tracer, args, kwargs, result):
    tracer.probe_heights.append(int(_arg(args, kwargs, 0, "H")))


def _on_constant(tracer, args, kwargs, result):
    tracer.constant_cutoffs.append(int(_arg(args, kwargs, 0, "P")))


HOOKS = {
    "lambdasums.solve_circle": _on_solve,
    "counting.build_sieve": _on_sieve,
    "counting.count_pairs_direct": _on_probe,
    "asymptotic.constant_c": _on_constant,
}


def install(tracer: Tracer, package) -> None:
    """Wrap every TRACED function wherever the package's modules bind it."""
    modules = [package] + [sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS]
    for module_name, func_name in TRACED:
        name = f"{module_name}.{func_name}"
        original = getattr(sys.modules[f"{package.__name__}.{module_name}"], func_name)
        wrapped = tracer.wrap(name, original, HOOKS.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
