"""Span tracer for the benchmark's traced run.

Spans are recorded from outside the package: the benchmark rebinds the
functions that ``specnorm.cli`` imports (and cli's own public functions) to
wrappers, and routes its own direct library calls through the same wrappers.
``numpy.linalg.eigh/eigvalsh/svd`` get call/matrix counters. Nothing under
``src/`` changes, and an untraced run calls the original functions.

A span is ``(name, start, end, parent, op)``; its layer is the part of the
name before the first dot (the specnorm module that defines the function).
Spans live in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import threading
import time
import types

import numpy as np

LINALG = ("eigh", "eigvalsh", "svd")
# Called by the benchmark directly, not through specnorm.cli.
DIRECT = ("mc_quantiles_joint", "joint_statistic")


def _pivot_work(args: dict):
    """Cache hit or miss of one pivot-law call, decided before it runs."""
    from specnorm.inference import pivot_cache_path

    path = pivot_cache_path(
        args["f_exponent"], args["g_exponent"], args["replications"], args["bm_steps"],
        args["seed"], args["cache_dir"],
    )
    hit = path.is_file()

    def done(_result) -> dict:
        if hit:
            return {"hit": 1}
        return {
            "miss": 1, "paths": args["replications"], "threads": args["threads"],
            "bytes_written": path.stat().st_size if path.is_file() else 0,
        }

    return done


# Work done by one call, read from its arguments and result: rows simulated,
# CSV bytes read, tensor bytes built, pivot cache hits, misses and paths.
WORK = {
    "simulate": lambda args: lambda r: {"rows": r.T},
    "ingest_csv": lambda args: lambda r: {"bytes": os.path.getsize(args["path"])},
    "estimate_sequential_sdo": lambda args: lambda r: {"tensor_bytes": r.tensor.nbytes},
    "mc_quantiles": _pivot_work,
    "mc_quantiles_joint": lambda args: lambda r: {"paths": args["replications"], "threads": args["threads"]},
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory spans for the ops of one run, single-threaded by design.

    Only calls made on the thread that created the tracer while an op is
    open are recorded; worker threads of the Monte Carlo engine run inside
    the span of the call that started them.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.cpu: list[float] = []  # process CPU seconds, all threads, per span
        self.rss_kb: list[int] = []  # RSS high-water growth not inside a child span
        self.work: dict[int, dict] = {}  # span index -> WORK counts
        self.linalg: list[tuple[str, int, int | None, int]] = []  # kind, matrices, span, op
        self.warnings: list[tuple[str, int | None, int]] = []  # category, span, op
        self.op: int | None = None
        self._stack: list[list[int]] = []  # [span index, high-water growth of children]
        self._thread = threading.get_ident()

    def _recording(self) -> bool:
        return self.op is not None and threading.get_ident() == self._thread

    def _innermost(self) -> int | None:
        return self._stack[-1][0] if self._stack else None

    def call(self, name: str, fn, args, kwargs, work=None):
        if not self._recording():
            return fn(*args, **kwargs)
        done = None
        if work is not None:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            done = work(bound.arguments)
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._innermost(), self.op])
        self.cpu.append(0.0)
        self.rss_kb.append(0)
        frame = [index, 0]
        self._stack.append(frame)
        rss0 = _maxrss_kb()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if done is not None:
                self.work[index] = done(result)
            return result
        finally:
            t1 = time.perf_counter()
            cpu1 = time.process_time()
            growth = _maxrss_kb() - rss0
            self._stack.pop()
            self.spans[index][1] = t0
            self.spans[index][2] = t1
            self.cpu[index] = cpu1 - cpu0
            self.rss_kb[index] = growth - frame[1]
            if self._stack:
                self._stack[-1][1] += growth

    def count_linalg(self, kind: str, a) -> None:
        if self._recording():
            shape = np.shape(a)
            self.linalg.append((kind, int(np.prod(shape[:-2], dtype=np.int64)), self._innermost(), self.op))

    def count_warning(self, category: type) -> None:
        if self._recording():
            self.warnings.append((category.__name__, self._innermost(), self.op))

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


def _traced(tracer: Tracer, name: str, fn):
    work = WORK.get(fn.__name__)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, work)

    return wrapper


def _counted(tracer: Tracer, kind: str, fn):
    @functools.wraps(fn)
    def wrapper(a, *args, **kwargs):
        tracer.count_linalg(kind, a)
        return fn(a, *args, **kwargs)

    return wrapper


def _cli_functions(cli) -> dict[str, object]:
    """The specnorm functions ``specnorm.cli`` imports, plus its public ones."""
    found = {}
    for name, obj in vars(cli).items():
        if not inspect.isfunction(obj):
            continue
        module = obj.__module__
        imported = module.startswith("specnorm.") and module != cli.__name__
        if imported or name in cli.__all__:
            found[name] = obj
    return found


def library(tracer: Tracer | None) -> types.SimpleNamespace:
    """Namespace of the specnorm functions the benchmark calls.

    With a tracer, every function is wrapped in a span named
    ``<module>.<function>`` and rebound inside ``specnorm.cli`` so the CLI's
    own calls are traced too; numpy.linalg decompositions are counted.
    """
    from specnorm import cli, inference

    funcs = _cli_functions(cli)
    for name in DIRECT:
        funcs[name] = getattr(inference, name)
    if tracer is None:
        return types.SimpleNamespace(**funcs)
    wrapped = {}
    for name, fn in funcs.items():
        layer = fn.__module__.rsplit(".", 1)[-1]
        wrapped[name] = _traced(tracer, f"{layer}.{name}", fn)
        if getattr(cli, name, None) is fn:
            setattr(cli, name, wrapped[name])
    for kind in LINALG:
        setattr(np.linalg, kind, _counted(tracer, kind, getattr(np.linalg, kind)))
    return types.SimpleNamespace(**wrapped)


def span_cost(samples: int = 20000) -> tuple[float, float]:
    """Seconds one traced span and one linalg counter add, measured here."""
    tracer = Tracer()
    tracer.op = 0
    noop = lambda: None  # noqa: E731
    wrapped = _traced(tracer, "cal.noop", noop)
    counted = _counted(tracer, "eigh", lambda a: None)
    a = np.zeros((2, 2))
    t0 = time.perf_counter()
    for _ in range(samples):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(samples):
        wrapped()
    span = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(samples):
        counted(a)
    count = time.perf_counter() - t0
    return max(span - bare, 0.0) / samples, max(count - bare, 0.0) / samples
