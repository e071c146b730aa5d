"""Span recorder that wraps ncfock's public functions from outside.

Every public module-level function of the six layer modules is replaced by
a wrapper that records one span (name, parent, start, end, request, error)
and, for a few functions, counts work from its arguments or return value.
The name is patched in every ``ncfock`` module namespace that binds the
function, so a call from one module into another is attributed to the
callee's layer: ``poisson.von_neumann_margin`` calling ``sup_norm_bounds``
opens a ``freealg`` span.  Spans stay in memory until the loop ends.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "ncfock"
LAYERS = ("cli", "freealg", "numerics", "pick", "poisson", "ideals")
NORM_REQUEST = "cli:poisson vonneumann"


def _dim3(a) -> int:
    """Computed flop proxy of a dense factorization: rows * cols * min(rows, cols)."""
    shape = np.shape(a)
    if len(shape) != 2:
        return int(np.prod(shape))
    return shape[0] * shape[1] * min(shape)


def _out_path(argv) -> str:
    argv = list(argv)
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def _count_report(args, kwargs, out):
    path = _out_path(args[0] if args else kwargs.get("argv") or [])
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def _count_terms(args, kwargs, out):
    return sum(len(p.terms) for row in out.entries for p in row)


def _count_entries(args, kwargs, out):
    return out.shape[0] * out.shape[1]


# counter name -> {function: count(args, kwargs, return value)}
COUNTERS = {
    "numerics.dim3": {
        "psd_check": lambda a, k, out: _dim3(a[0]),
        "operator_norm": lambda a, k, out: _dim3(a[0]),
        "max_generalized_eigenvalue": lambda a, k, out: _dim3(a[0]) + _dim3(a[1]),
        "hermitian_sqrt": lambda a, k, out: _dim3(a[0]),
    },
    "pick.interpolant_terms": {"lagrange_interpolant": _count_terms},
    "freealg.mult_entries": {"mult_matrix": _count_entries,
                             "truncated_mult_matrix": _count_entries},
    "poisson.kernel_rows": {"poisson_kernel": lambda a, k, out: out.matrix.shape[0]},
    "ideals.ambient_dim": {
        "build_quotient": lambda a, k, out: (
            a[0].m + 1 if a[0].n == 1 else (a[0].n ** (a[0].m + 1) - 1) // (a[0].n - 1))},
    "cli.report_bytes": {"main": _count_report},
}


class Spans:
    """Column store of spans in typed arrays (about 30 bytes per span)."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")

    def __len__(self):
        return len(self.name)

    def open(self, name: int, parent: int, request: int) -> int:
        self.name.append(name)
        self.parent.append(parent)
        self.request.append(request)
        self.start.append(0.0)
        self.end.append(0.0)
        self.failed.append(1)
        return len(self.name) - 1

    def close(self, sid: int, start: float, end: float, failed: bool):
        self.start[sid] = start
        self.end[sid] = end
        self.failed[sid] = failed

    def columns(self) -> dict:
        """The span fields as numpy arrays (views, no copy)."""
        return {field: np.frombuffer(getattr(self, field), dtype=dtype) for field, dtype in
                (("name", np.intc), ("parent", np.intc), ("request", np.intc),
                 ("start", np.float64), ("end", np.float64), ("failed", np.int8))}


class Tracer:
    """Records spans of ncfock's public functions while installed."""

    def __init__(self):
        self.names = []          # span name index -> "layer.function"
        self.spans = Spans()
        self.stack = []
        self.request = -1        # index of the request in flight
        self.counters = Counter()
        self._patches = []

    def _wrap(self, layer: str, fname: str, fn):
        name = len(self.names)
        self.names.append(f"{layer}.{fname}")
        counts = [(counter, funcs[fname]) for counter, funcs in COUNTERS.items()
                  if counter.startswith(layer + ".") and fname in funcs]
        spans, stack, counters = self.spans, self.stack, self.counters

        def wrapper(*args, **kwargs):
            sid = spans.open(name, stack[-1] if stack else -1, self.request)
            stack.append(sid)
            failed = True
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                stack.pop()
                spans.close(sid, start, end, failed)
            for counter, count in counts:
                counters[counter] += count(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(layer, fname, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
                            self._patches.append((m, attr, fn))
        return self

    def uninstall(self):
        for m, attr, fn in reversed(self._patches):
            setattr(m, attr, fn)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis --------------------------------------------------------
    def self_times(self) -> np.ndarray:
        """Per span: duration minus the time its direct child spans cover."""
        col = self.spans.columns()
        duration = col["end"] - col["start"]
        child = np.zeros_like(duration)
        nested = col["parent"] >= 0
        np.add.at(child, col["parent"][nested], duration[nested])
        return duration - child

    def layer_metrics(self, kinds: list, wall: float) -> dict:
        """Per-layer metrics of a traced loop.

        kinds[i] is the label of request i; wall is the loop's wall time.
        Work counters are divided by the requests the loop completed, so a
        faster program does not inflate them.
        """
        col = self.spans.columns()
        layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in self.names] or [0],
                            dtype=np.intc)[col["name"]]
        size = len(LAYERS)
        own = np.bincount(layer_of, weights=self.self_times(), minlength=size)
        calls = np.bincount(layer_of, minlength=size)
        errors = np.bincount(layer_of, weights=col["failed"], minlength=size)
        out = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = int(calls[i])
            out[f"{layer}.self_s"] = float(own[i])
            out[f"{layer}.errors"] = int(errors[i])
        roots = col["parent"] < 0
        out["bench.self_s"] = wall - float((col["end"] - col["start"])[roots].sum())
        requests = max(len(kinds), 1)
        for counter in COUNTERS:
            out[counter] = self.counters[counter] / requests

        requests_of = self.requests_of
        norm_requests = sum(k.startswith(NORM_REQUEST) for k in kinds)
        bounds = requests_of("freealg.sup_norm_bounds").size
        out["freealg.bounds_per_norm_request"] = bounds / norm_requests if norm_requests else 0.0
        builds = requests_of("poisson.poisson_kernel")
        out["poisson.kernel_builds_per_request"] = (
            builds.size / np.unique(builds).size if builds.size else 0.0)
        ideal_requests = sum(":ideal" in k for k in kinds)
        quotients = requests_of("ideals.build_quotient").size
        out["ideals.builds_per_request"] = quotients / ideal_requests if ideal_requests else 0.0
        return out

    def requests_of(self, function: str) -> np.ndarray:
        """The request index of every span of one function."""
        col = self.spans.columns()
        idx = self.names.index(function) if function in self.names else -1
        return col["request"][col["name"] == idx]

    def calls_by_kind(self, function: str, kinds: list) -> dict:
        """Mean calls of one function per request, by request label."""
        made = Counter(self.requests_of(function).tolist())
        total = defaultdict(list)
        for i, kind in enumerate(kinds):
            total[kind].append(made[i])
        return {k: sum(v) / len(v) for k, v in sorted(total.items()) if sum(v)}

    def write(self, path: str):
        """Write the span names and columns to a compressed numpy archive.

        Times are seconds from the first span's start; parent and request
        are -1 for a root span and for a call outside any request.
        """
        col = self.spans.columns()
        origin = col["start"][0] if col["start"].size else 0.0
        col["start"] = col["start"] - origin
        col["end"] = col["end"] - origin
        np.savez_compressed(path, names=np.array(self.names), **col)
