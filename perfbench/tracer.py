"""Call counting and spans around the program's layers.

A `Tracer` replaces the public functions of the `sfista` modules with
wrappers, on the module objects where the program looks them up, and wraps
the oracle callables of the problems the benchmark builds.  With
`keep_spans=False` it only counts calls; with `keep_spans=True` it also
records one span per call: name, start, end and the span that was open when
the call began.  Spans stay in memory until `write_spans`.

Oracle calls made inside `reference_solve` are counted apart, under
`<oracle>@reference_solve`, and get no span of their own: they belong to the
reference optimum, not to the solver run being measured.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import os
import time
from array import array

import numpy as np

from sfista import bounds, certificates, classic, engine, harness, problems

# (module, attribute, span name).  harness imports make_instance by name, so
# it is wrapped in both places the program looks it up.
LAYER_FUNCTIONS = (
    (problems, "make_instance", "problems.make_instance"),
    (harness, "make_instance", "problems.make_instance"),
    (problems, "power_iteration", "problems.power_iteration"),
    (problems, "reference_solve", "problems.reference_solve"),
    (engine, "step", "engine.step"),
    (engine, "run", "engine.run"),
    (certificates, "stationarity_residual", "certificates.stationarity_residual"),
    (certificates, "residual_pair", "certificates.residual_pair"),
    (certificates, "lower_model_update", "certificates.lower_model_update"),
    (certificates, "sample_points", "certificates.sampled_checks"),
    (certificates, "lower_model_gap", "certificates.sampled_checks"),
    (certificates, "lower_model_violation", "certificates.sampled_checks"),
    (certificates, "check_eps_subgradient", "certificates.sampled_checks"),
    (bounds, "check", "bounds.check"),
    (bounds, "predicted_iterations", "bounds.predicted_iterations"),
    (harness, "capture_run", "harness.capture_run"),
    (harness, "invariant_report", "harness.invariant_report"),
    (harness, "bounds_suite", "harness.bounds_suite"),
    (harness, "write_trace", "harness.write_trace"),
    (classic, "equivalence_check", "classic.equivalence_check"),
)

REFERENCE_SOLVE = "problems.reference_solve"


class Tracer:
    def __init__(self, keep_spans: bool):
        self.keep_spans = keep_spans
        self.counts: collections.Counter = collections.Counter()
        self.trace_bytes = 0
        self._in_reference = 0
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_name = array("q")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._open: list[int] = []

    # -- spans ---------------------------------------------------------------

    def _begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        idx = len(self._span_name)
        self._span_name.append(name_id)
        self._parent.append(self._open[-1] if self._open else -1)
        self._end.append(0)
        self._open.append(idx)
        self._start.append(time.perf_counter_ns())
        return idx

    def _finish(self, idx: int) -> None:
        self._end[idx] = time.perf_counter_ns()
        self._open.pop()

    def _call(self, name, fn, args, kwargs):
        self.counts[name] += 1
        if not self.keep_spans:
            return fn(*args, **kwargs)
        idx = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._finish(idx)

    # -- wrappers ------------------------------------------------------------

    def _oracle(self, name, fn):
        if getattr(fn, "tracer", None) is self:
            return fn

        def wrapper(*args, **kwargs):
            if self._in_reference:
                self.counts[f"{name}@reference_solve"] += 1
                return fn(*args, **kwargs)
            return self._call(name, fn, args, kwargs)

        wrapper.tracer = self
        return wrapper

    def wrap_problem(self, problem):
        """The problem with counting (and span) wrappers on its four oracles."""
        f, h = problem.f, problem.h
        f = dataclasses.replace(f, value=self._oracle("problems.f_value", f.value),
                                grad=self._oracle("problems.f_grad", f.grad))
        h = dataclasses.replace(h, value=self._oracle("problems.h_value", h.value),
                                prox=self._oracle("problems.h_prox", h.prox))
        return dataclasses.replace(problem, f=f, h=h)

    def _layer(self, name, fn):
        if name == "problems.make_instance":
            def wrapper(*args, **kwargs):
                return self.wrap_problem(self._call(name, fn, args, kwargs))
        elif name == REFERENCE_SOLVE:
            def wrapper(problem, *args, **kwargs):
                self._in_reference += 1
                try:
                    return self._call(name, fn, (self.wrap_problem(problem),) + args,
                                      kwargs)
                finally:
                    self._in_reference -= 1
        elif name == "harness.write_trace":
            def wrapper(path, *args, **kwargs):
                out = self._call(name, fn, (path,) + args, kwargs)
                self.trace_bytes += os.path.getsize(path)
                return out
        else:
            def wrapper(*args, **kwargs):
                return self._call(name, fn, args, kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function of LAYER_FUNCTIONS for the duration."""
        saved = [(module, attr, getattr(module, attr))
                 for module, attr, _ in LAYER_FUNCTIONS]
        try:
            for (module, attr, name), (_, _, fn) in zip(LAYER_FUNCTIONS, saved):
                setattr(module, attr, self._layer(name, fn))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    # -- summaries -----------------------------------------------------------

    def busy(self) -> dict:
        """Per span name: (total seconds, self seconds).

        Self time is a span's duration minus that of its direct children;
        calls are sequential, so the children never overlap.
        """
        names = np.frombuffer(self._span_name, dtype=np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        dur = (np.frombuffer(self._end, dtype=np.int64)
               - np.frombuffer(self._start, dtype=np.int64)).astype(float)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested],
                               minlength=len(dur))
        total = np.bincount(names, weights=dur, minlength=len(self._names))
        own = np.bincount(names, weights=dur - children, minlength=len(self._names))
        return {name: (total[i] * 1e-9, own[i] * 1e-9)
                for i, name in enumerate(self._names)}

    def write_spans(self, path) -> None:
        """Spans as CSV rows: name, start_ns, end_ns, parent row (-1 at top)."""
        with open(path, "w") as out:
            out.write("name,start_ns,end_ns,parent\n")
            for i in range(len(self._span_name)):
                out.write(f"{self._names[self._span_name[i]]},{self._start[i]},"
                          f"{self._end[i]},{self._parent[i]}\n")
