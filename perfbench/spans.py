"""Span tracing of the mppabsorber layers from outside the package.

The tracer replaces, for the traced pass only, the public functions each
module calls by name with a wrapper that records a span (name, start, end,
parent). A function bound under several names (`from .acoustics import
absorption_spectrum` in annealing and cli) is replaced under every name in
every module of the package, so calls through any of them are seen. Class
dunders are replaced on the class. Spans live in flat arrays in memory and
are written once, when the run ends.

A target that no longer exists, or that exists but is never called on a
workload that should reach it, is reported as absent.
"""

import contextlib
import functools
import importlib
import json
from array import array
from time import perf_counter_ns

import numpy as np


def _element_span(args, kwargs):
    element = args[0] if args else kwargs.get("element")
    return "acoustics.pipe_matrix" if type(element).__name__ == "StraightPipe" else "acoustics.element_matrix"


def _spectrum_points(result):
    return len(result.frequencies)


def _accepted(result):
    return 1 if result else 0


# (span name, module, attribute or Class.method, span namer, counter of the result)
TARGETS = [
    ("acoustics.mpp_impedance", "acoustics", "mpp_normalized_impedance", None, None),
    ("acoustics.pipe_matrix", "acoustics", "element_matrix", _element_span, None),
    ("acoustics.compose", "acoustics", "TransferMatrix.__matmul__", None, None),
    ("acoustics.reflection", "acoustics", "absorption_spectrum", None, _spectrum_points),
    ("acoustics.chain_matrix", "acoustics", "chain_matrix", None, None),
    ("spectrum.validate", "spectrum", "AbsorptionSpectrum.__post_init__", None, None),
    ("spectrum.band", "spectrum", "effective_band", None, None),
    ("spectrum.band", "spectrum", "effective_bands", None, None),
    ("structure.build_chain", "structure", "build_chain", None, None),
    ("structure.build_chain", "structure", "single_chamber_chain", None, None),
    ("annealing.objective", "annealing", "objective", None, None),
    ("annealing.move", "annealing", "neighbor", None, None),
    ("annealing.accept", "annealing", "accept", None, _accepted),
    ("annealing.loop", "annealing", "anneal", None, None),
    ("annealing.multi", "annealing", "anneal_multi", None, None),
    ("configio.load", "configio", "load_config", None, None),
    ("cli.csv", "cli", "spectrum_csv", None, len),
    ("cli.report", "cli", "band_report", None, None),
    ("cli.simulate", "cli", "cmd_simulate", None, None),
    ("cli.main", "cli", "main", None, None),
]

ROOT = "bench.op"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self.counts = {}
        self.missing = []
        self._restore = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, name):
        index = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def _exit(self, index):
        self.end[index] = perf_counter_ns()
        self._stack.pop()

    def _call(self, name, fn, args, kwargs):
        index = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(index)

    def _count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrapper(self, name, fn, namer, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if len(self._stack) == 1:  # outside a workload operation, e.g. an output check
                return fn(*args, **kwargs)
            span = namer(args, kwargs) if namer else name
            result = self._call(span, fn, args, kwargs)
            if counter is not None:
                try:
                    self._count(span, counter(result))
                except (AttributeError, TypeError):
                    pass  # the result no longer has the counted shape; the count stays absent
            return result

        return wrapper

    def install(self, package):
        """Wrap every target in the modules of `package`."""
        modules = {}
        for _, module_name, _, _, _ in TARGETS:
            try:
                modules[module_name] = importlib.import_module(f"{package.__name__}.{module_name}")
            except ImportError:
                modules[module_name] = None
        for name, module_name, attr, namer, counter in TARGETS:
            module = modules[module_name]
            class_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, class_name, None) if class_name else module
            fn = vars(owner).get(fn_name) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrapper(name, fn, namer, counter)
            owners = [owner] if class_name else [package, *filter(None, modules.values())]
            for owner in owners:
                for key in [k for k, v in vars(owner).items() if v is fn]:
                    setattr(owner, key, wrapper)
                    self._restore.append((owner, key, fn))

    def uninstall(self):
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    @contextlib.contextmanager
    def root(self):
        """Span of one workload operation, the parent of the layer spans."""
        index = self._enter(ROOT)
        try:
            yield
        finally:
            self._exit(index)

    def _arrays(self):
        return tuple(np.array(column) for column in (self.name_id, self.start, self.end, self.parent))

    def profile(self):
        """Per span name: calls, total ns (outermost spans only) and self ns.

        Self time is a span's duration minus the durations of its direct
        children; the layers run on one thread, so children never overlap.
        """
        ids, start, end, parent = self._arrays()
        duration = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(ids))
        self_ns = duration - child
        outermost = ~has_parent.copy()
        outermost[has_parent] = ids[parent[has_parent]] != ids[has_parent]
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids[outermost], weights=duration[outermost], minlength=n)
        own = np.bincount(ids, weights=self_ns, minlength=n)
        return {
            name: {"calls": int(calls[i]), "total_ns": float(total[i]), "self_ns": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def nesting_errors(self):
        """Spans that do not lie inside their parent's interval."""
        _, start, end, parent = self._arrays()
        has_parent = parent >= 0
        p = parent[has_parent]
        bad = (start[has_parent] < start[p]) | (end[has_parent] > end[p]) | (end[has_parent] < start[has_parent])
        return int(np.count_nonzero(bad)) + int(np.count_nonzero(end[~has_parent] < start[~has_parent]))

    def write(self, path):
        """Spans as arrays (name id, start ns, end ns, parent index) plus the name table."""
        ids, start, end, parent = self._arrays()
        np.savez(path, name_id=ids, start_ns=start, end_ns=end, parent=parent,
                 names=np.array(json.dumps(self.names)))
