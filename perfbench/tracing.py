"""Span tracing around mirrorpair's public functions, from outside the package.

`install()` replaces module attributes at the places where mirrorpair looks
them up at call time (for example `entanglement.selected_transfer_rows`,
which `degree_sweep` calls by its global name) with wrappers that record a
span per call: name, start, end, parent span and run id.  `uninstall()` puts
the originals back, so untraced passes run the unmodified functions.

Spans stay in memory.  Self time is a span's duration minus the time of its
child spans.  Work counts (right-hand sides solved, bytes of the noise
tensors, CSV bytes, pool tasks and their pickled size) are computed from the
arguments and results at the same boundaries.

Under the CLI's process pool only parent-side spans are kept.  Each task is
sent through `_child_call`, which traces the task in the worker process and
returns per-layer totals and counts with the result; these are merged into
the parent's totals without adding spans.
"""

from __future__ import annotations

import functools
import importlib
import pathlib
import pickle
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from mirrorpair import cli, dynamics, entanglement, model, readout

#: Tracer that the installed wrappers record into; replaced in pool workers.
_CURRENT = None

OPTIMIZE = "entanglement.optimize_separability"


class Tracer:
    """In-memory span recorder for one traced pass (one run id)."""

    def __init__(self, run_id=0):
        self.run_id = run_id
        self.spans = []          # (id, name, start, end, parent, run_id, self_s)
        self._stack = []         # [id, name, start, child_time, parent]
        self._next_id = 1
        self.counts = defaultdict(int)
        self.rhs = defaultdict(list)     # selector bytes -> arrays of |omega|
        self.remote = []                 # totals returned by pool workers
        self.violations = 0              # spans whose children outlast them

    def open(self, name):
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0, parent])
        self._next_id += 1

    def close(self):
        end = time.perf_counter()
        span_id, name, start, child_time, parent = self._stack.pop()
        dur = end - start
        if child_time > dur:
            self.violations += 1
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.append((span_id, name, start, end, parent, self.run_id,
                           dur - child_time))

    def innermost(self):
        return self._stack[-1][1] if self._stack else None

    def totals(self):
        """Per-name calls, total time, self time and call durations."""
        out = {}
        for _, name, start, end, _, _, self_s in self.spans:
            t = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0, "durations": []})
            t["calls"] += 1
            t["total_s"] += end - start
            t["self_s"] += self_s
            t["durations"].append(end - start)
        return out

    def export(self):
        """Totals, counts and right-hand-side keys, for sending to a parent."""
        return {
            "totals": self.totals(),
            "counts": dict(self.counts),
            "rhs": {k: np.unique(np.concatenate(v)) for k, v in self.rhs.items()},
            "violations": self.violations,
        }

    def merge(self, exported):
        self.remote.append(exported["totals"])
        for k, v in exported["counts"].items():
            self.counts[k] += v
        for k, v in exported["rhs"].items():
            self.rhs[k].append(v)
        self.violations += exported["violations"]


# ---------------------------------------------------------------------------
# Wrappers


def _spanned(name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = _CURRENT
        tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close()
        if after is not None:
            after(tracer, out, args, kwargs)
        return out
    return wrapper


def _count_rhs(tracer, out, args, kwargs):
    omegas, selectors = args[1], args[2]
    w = np.abs(np.atleast_1d(np.asarray(omegas, dtype=float)))
    sel = np.asarray(selectors, dtype=complex).reshape(dynamics.N_STATE, -1)
    tracer.counts["dynamics.selected_transfer_rows.rhs"] += w.size * sel.shape[1]
    for j in range(sel.shape[1]):
        tracer.rhs[sel[:, j].tobytes()].append(w)


def _count_bytes(key):
    def after(tracer, out, args, kwargs):
        tracer.counts[key] += np.asarray(out).nbytes
    return after


def _count_written(tracer, out, args, kwargs):
    tracer.counts["cli.write_text.bytes"] += out


def _counted(key, fn, only_under=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = _CURRENT
        if only_under is None or tracer.innermost() == only_under:
            tracer.counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


class TracedPool(ProcessPoolExecutor):
    """The CLI's process pool with a parent-side span and task accounting."""

    def __enter__(self):
        _CURRENT.open("cli.pool")
        return super().__enter__()

    def __exit__(self, *exc):
        try:
            return super().__exit__(*exc)
        finally:
            _CURRENT.close()

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        tasks = list(zip(*iterables))
        tracer = _CURRENT
        tracer.counts["cli.tasks"] += len(tasks)
        tracer.counts["cli.pool.task_bytes"] += sum(
            len(pickle.dumps(t, pickle.HIGHEST_PROTOCOL)) for t in tasks
        )
        target = (fn.__module__, fn.__name__)
        results = super().map(_child_call, [target] * len(tasks), tasks,
                              timeout=timeout, chunksize=chunksize)

        def merged():
            for res, exported in results:
                tracer.merge(exported)
                yield res
        return merged()


def _child_call(target, task):
    """Run one pool task in a worker process under a fresh tracer."""
    global _CURRENT
    if not _INSTALLED:
        install()
    _CURRENT = Tracer(run_id=-1)
    module, name = target
    fn = getattr(importlib.import_module(module), name)
    fn = getattr(fn, "__wrapped__", fn)     # tasks are counted by the parent
    result = fn(*task)
    return result, _CURRENT.export()


# (owner, attribute, wrapper factory); owners sharing one original get the
# same wrapper so a call is recorded once whichever name it goes through.
def _patch_table():
    stf = _spanned("dynamics.selected_transfer_rows",
                   dynamics.selected_transfer_rows, _count_rhs)
    ss = _spanned("model.steady_state", model.steady_state)
    return [
        (dynamics, "selected_transfer_rows", stf),
        (entanglement, "selected_transfer_rows", stf),
        (readout, "selected_transfer_rows", stf),
        (model, "steady_state", ss),
        (dynamics, "steady_state", ss),
        (readout, "steady_state", ss),
        (dynamics.NoiseModel, "input_spectrum",
         _spanned("dynamics.input_spectrum", dynamics.NoiseModel.input_spectrum,
                  _count_bytes("dynamics.input_spectrum.bytes"))),
        (dynamics.NoiseModel, "commutator_spectrum",
         _spanned("dynamics.commutator_spectrum",
                  dynamics.NoiseModel.commutator_spectrum,
                  _count_bytes("dynamics.commutator_spectrum.bytes"))),
        (dynamics, "build_linear_system",
         _spanned("dynamics.build_linear_system", dynamics.build_linear_system)),
        (entanglement, "degree_sweep",
         _spanned("entanglement.degree_sweep", entanglement.degree_sweep)),
        (entanglement, "optimize_separability",
         _spanned(OPTIMIZE, entanglement.optimize_separability)),
        (entanglement, "separability_products",
         _counted("entanglement.separability_products.evals",
                  entanglement.separability_products, only_under=OPTIMIZE)),
        (readout, "two_channel_spectra",
         _spanned("readout.two_channel_spectra", readout.two_channel_spectra)),
        (readout, "output_spectrum",
         _spanned("readout.output_spectrum", readout.output_spectrum)),
        (readout, "output_spectrum_via_transfer",
         _spanned("readout.output_spectrum_via_transfer",
                  readout.output_spectrum_via_transfer)),
        (cli, "run_sweep", _spanned("cli.run_sweep", cli.run_sweep)),
        (cli, "_eval_chunk", _counted("cli.tasks", cli._eval_chunk)),
        (cli, "ProcessPoolExecutor", TracedPool),
        (pathlib.Path, "write_text",
         _spanned("cli.write_text", pathlib.Path.write_text, _count_written)),
    ]


_INSTALLED = []


def install():
    """Swap the wrappers in; returns nothing, undo with `uninstall()`."""
    if _INSTALLED:
        raise RuntimeError("tracing already installed")
    for owner, attr, wrapper in _patch_table():
        _INSTALLED.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)


def uninstall():
    while _INSTALLED:
        owner, attr, original = _INSTALLED.pop()
        setattr(owner, attr, original)


def traced(fn, run_id):
    """Run fn() with tracing on under a root span "pass"; returns
    (fn's result, tracer)."""
    global _CURRENT
    _CURRENT = tracer = Tracer(run_id)
    install()
    try:
        tracer.open("pass")
        try:
            out = fn()
        finally:
            tracer.close()
    finally:
        uninstall()
        _CURRENT = None
    return out, tracer
