"""Outside-in layer spans for traced benchmark runs.

The benchmark never edits the program. For each layer it replaces
module-level names of the ``reelab`` package with timing wrappers, in every
``reelab`` module namespace that holds the same function object, and puts
the originals back afterwards. A call passes through exactly one binding,
so a name imported into several modules still counts once per call. A name
that no longer exists is skipped and its layer reports 0 calls.

A span's self time is its duration minus the time its child spans cover.
Children on the same thread run one after another, so their durations add.
Children on pool threads (verify trials) may overlap, so their parent, the
span that is open on the main thread, subtracts the union of their
intervals.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import threading
from collections import defaultdict
from time import perf_counter


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Per-layer call counts, total time, self time and extra counters.

    Each thread records into its own tables, so the wrappers take no lock;
    the tables are merged when read.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._tables = []
        self._main_stack = self._thread_state()[0]
        self._patches = []

    def _thread_state(self):
        local = self._local
        local.stack = []
        local.stats = defaultdict(lambda: [0, 0.0, 0.0])
        local.counters = defaultdict(float)
        # list.append is atomic, so threads may register concurrently
        self._tables.append((local.stats, local.counters))
        return local.stack, local.stats, local.counters

    def _merged(self, column: int) -> defaultdict:
        out = defaultdict(int if column == 0 else float)
        for stats, _ in self._tables:
            for layer, row in list(stats.items()):
                out[layer] += row[column]
        return out

    @property
    def calls(self) -> defaultdict:
        return self._merged(0)

    @property
    def total_s(self) -> defaultdict:
        return self._merged(1)

    @property
    def self_s(self) -> defaultdict:
        return self._merged(2)

    @property
    def counters(self) -> defaultdict:
        out = defaultdict(float)
        for _, counters in self._tables:
            for key, value in list(counters.items()):
                out[key] += value
        return out

    def _wrap(self, layer: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            local = tracer._local
            try:
                stack, stats, counters = local.stack, local.stats, local.counters
            except AttributeError:
                stack, stats, counters = tracer._thread_state()
            parent = stack[-1] if stack else None
            foreign = None
            if parent is None and stack is not tracer._main_stack and tracer._main_stack:
                foreign = tracer._main_stack[-1]
            # [time covered by same-thread children, intervals of pool-thread children]
            frame = [0.0, []]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                covered = frame[0]
                if frame[1]:
                    covered += _union_length(list(frame[1]), t0, t1)
                if parent is not None:
                    parent[0] += dur
                elif foreign is not None:
                    foreign[1].append((t0, t1))
                row = stats[layer]
                row[0] += 1
                row[1] += dur
                row[2] += max(0.0, dur - covered)
            if after is not None:
                after(counters, args, kwargs, result)
            return result

        return wrapper

    def patch(self, layer: str, module: str, attr: str, after=None) -> None:
        """Wrap module.attr in every reelab namespace bound to the same object."""
        try:
            mod = importlib.import_module(module)
        except ImportError:
            return
        original = getattr(mod, attr, None)
        if original is None:
            return
        wrapper = self._wrap(layer, original, after)
        for name, space in list(sys.modules.items()):
            if space is None or not (name == "reelab" or name.startswith("reelab.")):
                continue
            for key, value in list(vars(space).items()):
                if value is original:
                    setattr(space, key, wrapper)
                    self._patches.append((space, key, original))

    def patch_method(self, layer: str, module: str, cls_name: str, method: str) -> None:
        try:
            cls = getattr(importlib.import_module(module), cls_name)
        except (ImportError, AttributeError):
            return
        original = cls.__dict__.get(method)
        if original is None:
            return
        setattr(cls, method, self._wrap(layer, original))
        self._patches.append((cls, method, original))

    def patch_module_functions(self, layer: str, module: str) -> None:
        """Wrap every function of the module that is public or imported elsewhere."""
        try:
            mod = importlib.import_module(module)
        except ImportError:
            return
        imported = set()
        for name, space in list(sys.modules.items()):
            if space is not None and name.startswith("reelab.") and space is not mod:
                imported.update(id(v) for v in vars(space).values())
        for attr, value in list(vars(mod).items()):
            if not inspect.isfunction(value) or value.__module__ != module:
                continue
            if not attr.startswith("_") or id(value) in imported:
                self.patch(layer, module, attr)

    def unpatch(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


def _record_solve(counters, args, kwargs, result) -> None:
    counters["solver.iterations"] += float(getattr(result, "iterations", 0))
    counters["solver.converged"] += 1.0 if getattr(result, "converged", False) else 0.0


def _record_dumps(counters, args, kwargs, result) -> None:
    counters["statefile.dumps.bytes"] += len(result)


def _record_loads(counters, args, kwargs, result) -> None:
    text = args[0] if args else kwargs.get("text", "")
    counters["statefile.loads.bytes"] += len(text)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every reelab module."""
    tracer.patch("hermitian.eigh", "reelab.hermitian", "_eigh")
    tracer.patch("hermitian.log_dd", "reelab.hermitian", "_log_divided_differences")
    tracer.patch("states.partial_transpose", "reelab.states", "_partial_transpose_b")
    tracer.patch_method("states.density_ctor", "reelab.states", "DensityMatrix", "__init__")
    tracer.patch_module_functions("entropy", "reelab.entropy")
    tracer.patch_module_functions("criteria", "reelab.criteria")
    tracer.patch("solver.ree_ppt", "reelab.solver", "ree_ppt", _record_solve)
    tracer.patch("statefile.dumps", "reelab.statefile", "dumps_state", _record_dumps)
    tracer.patch("statefile.loads", "reelab.statefile", "loads_state", _record_loads)
    tracer.patch("verify.trial", "reelab.verify", "_run_trial")
    tracer.patch("verify.run_suite", "reelab.verify", "run_suite")
    tracer.patch("cli.main", "reelab.cli", "main")


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Install the spans and turn them on; remove them on exit.

    Yields pause, a context manager under which calls are not traced, for
    the checks that run between operations.
    """

    @contextlib.contextmanager
    def pause():
        was, tracer.enabled = tracer.enabled, False
        try:
            yield
        finally:
            tracer.enabled = was

    install(tracer)
    tracer.enabled = True
    try:
        yield pause
    finally:
        tracer.enabled = False
        tracer.unpatch()


def layer_metrics(tracer: Tracer, verify_workers: int) -> dict:
    """The per-layer metrics of BENCHMARK.json, as name -> (value, unit)."""
    calls, self_s, counters, total_s = tracer.calls, tracer.self_s, tracer.counters, tracer.total_s
    solves = calls["solver.ree_ppt"]
    out = {}
    for layer in (
        "hermitian.eigh",
        "hermitian.log_dd",
        "states.partial_transpose",
        "states.density_ctor",
        "solver.ree_ppt",
        "statefile.dumps",
        "statefile.loads",
        "cli.main",
        "entropy",
        "criteria",
    ):
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    out["hermitian.eigh.calls_per_solve"] = (calls["hermitian.eigh"] / solves if solves else 0.0, "count")
    out["solver.iterations_per_solve"] = (counters["solver.iterations"] / solves if solves else 0.0, "count")
    out["solver.converged_frac"] = (counters["solver.converged"] / solves if solves else 0.0, "ratio")
    out["statefile.dumps.bytes"] = (int(counters["statefile.dumps.bytes"]), "bytes")
    out["statefile.loads.bytes"] = (int(counters["statefile.loads.bytes"]), "bytes")
    busy = total_s["verify.trial"]
    wall = total_s["verify.run_suite"]
    out["verify.trial.calls"] = (calls["verify.trial"], "count")
    out["verify.trial.busy_s"] = (busy, "s")
    out["verify.run_suite.wall_s"] = (wall, "s")
    out["verify.pool_utilisation"] = (busy / (wall * verify_workers) if wall > 0 else 0.0, "ratio")
    return out
