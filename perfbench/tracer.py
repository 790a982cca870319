"""Spans around calls into each ionlattice module, installed from outside.

Every public function of a layer module is replaced by a wrapper that
records a span: name, start, end, the index of the enclosing span and
whether an exception left it. The modules import each other's functions by
name (``from .spectrum import build_spectrum``), so a wrapper replaces the
function in every ionlattice namespace that holds it. Calls to scipy's
``quad`` from ``ionlattice.quadrature`` are counted without a span, so their
time stays in the quadrature layer. Spans stay in memory until ``dump``.

Pool workers get a tracer of their own through the pool's initializer and
write their spans when the worker exits.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import types
from collections import Counter
from multiprocessing import util

LAYERS = ("lattice", "spectrum", "covariance", "quadrature", "entanglement", "witness", "cli")

#: private cli functions traced as well: one row task, and the file write
CLI_PRIVATE = ("_row_worker", "_emit")

#: keeps a pool worker's tracer alive until the worker exits
_worker_tracer = None


class Tracer:
    """Spans and counts of one process of one traced sample."""

    def __init__(self, sample: int, out_dir: str):
        self.sample = sample
        self.out_dir = out_dir
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, raised]
        self.stack = []
        self.counts = Counter()

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                stack.pop()
                span[2] = clock()

        traced.perfbench_original = fn
        return traced

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.perfbench_original = fn
        return counted

    def install(self):
        """Wrap every layer's functions in all ionlattice namespaces.

        Functions already wrapped by another tracer (a forked pool worker
        inherits its parent's) are wrapped afresh from their originals.
        """
        import ionlattice.cli  # noqa: F401  (imports every layer)

        def original(obj):
            return getattr(obj, "perfbench_original", obj)

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"ionlattice.{layer}"]
            for attr, obj in vars(module).items():
                fn = original(obj)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and not (layer == "cli" and attr in CLI_PRIVATE):
                    continue
                wrappers[fn] = self._span(f"{layer}.{attr}", fn)
        quadrature = sys.modules["ionlattice.quadrature"]
        quadrature.quad = self._count("quadrature.quad", original(quadrature.quad))

        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "ionlattice"]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                fn = original(obj)
                if isinstance(fn, types.FunctionType) and fn in wrappers:
                    setattr(ns, attr, wrappers[fn])

        cli = sys.modules["ionlattice.cli"]
        pool_class = getattr(cli.ProcessPoolExecutor, "perfbench_original", cli.ProcessPoolExecutor)

        def traced_pool(*args, **kwargs):
            return pool_class(*args, initializer=_start_worker,
                              initargs=(self.sample, self.out_dir), **kwargs)

        traced_pool.perfbench_original = pool_class
        cli.ProcessPoolExecutor = traced_pool

    def dump(self):
        """Write this process's spans and counts to the output directory."""
        path = os.path.join(self.out_dir, f"spans-{self.sample}-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump({"sample": self.sample, "pid": os.getpid(), "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


def _start_worker(sample: int, out_dir: str):
    global _worker_tracer
    _worker_tracer = Tracer(sample, out_dir)
    _worker_tracer.install()
    # runs when the worker process ends, after its last task
    util.Finalize(_worker_tracer, _worker_tracer.dump, exitpriority=10)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def load(out_dir: str, sample: int) -> list:
    """Span records of one sample, one per process."""
    records = []
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith(f"spans-{sample}-"):
            with open(os.path.join(out_dir, entry)) as fh:
                records.append(json.load(fh))
    return records
