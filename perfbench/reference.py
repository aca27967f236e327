"""Fixed reference work that gauges how fast the host runs right now.

On a shared host the same code runs up to about twice as fast or slow for
minutes at a time, and process CPU time moves with it (the cycles are
slower, not stolen), so no clock inside a run removes that drift.  The
measurement process therefore runs a fixed probe, which uses no mirrorpair
code, before and after every timed pass, and divides each pass time by
how much slower than nominal the probes around it ran (`host_factors`).  A
change to mirrorpair leaves the probes unchanged, so the scaled time moves
with the program and not with the host.

Code with different working sets speeds up by different amounts when the
host does, so each workload has a probe made of plain numpy/scipy
operations of the kind and size that its passes spend their time on:

- sweep-fig2: adjoint-style batched complex solves of 10x10 systems in
  chunks of 256 frequencies, the quadratic-form contractions, and
  per-value `.12e` formatting joined into CSV lines;
- readout: the same solves and contractions in one batch of 8000
  frequencies, whose arrays leave the caches;
- separability: bounded scalar minimizations of 4x4 covariance functions.

sweep-thermal computes on two worker processes and formats its CSV in one,
so its probe is the sweep-fig2 work once alone and once beside a helper
process that runs it on the other core (`PAIRED`).  One probe takes
0.05-0.25 s, at most a fifth of a pass.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import statistics
import time

import numpy as np
from scipy.optimize import minimize_scalar

#: A probe is the median of this many repeats: host speed changes within
#: tens of milliseconds, and one repeat alone varies by about 20%.
REPEATS = 3
#: Probes on each side of a pass that set its host factor.
WINDOW = 3

_rng = np.random.default_rng(12345)
_DRIFT = -0.1 * np.eye(10) + 0.5 * _rng.standard_normal((10, 10))
_COUPLING = _rng.standard_normal((10, 8))
_SELECTORS = _rng.standard_normal((10, 4)) + 0j
_SPECTRA = _rng.standard_normal((8000, 8, 8)) + 0j
_VALUES = _rng.standard_normal((5, 2000))
_COV = np.diag([1.5, 0.8, 1.2, 0.9]) + 0.05


def _solve(n, k, chunks):
    w = np.linspace(0.5, 1.5, n)
    shifted = (-1j * w[:, None, None] * np.eye(10) - _DRIFT).transpose(0, 2, 1)
    for _ in range(chunks):
        x = np.linalg.solve(shifted, np.broadcast_to(_SELECTORS[:, :k], (n, 10, k)))
        rows = x.transpose(0, 2, 1) @ _COUPLING
        np.einsum("nk,nkl,nl->n", rows[:, 0], _SPECTRA[:n], rows[:, 0].conj())


def _format(rows):
    lines = []
    for i in range(rows):
        lines.append(",".join(format(_VALUES[j][i], ".12e") for j in range(5)))
    return "\n".join(lines)


def _minimize():
    for k in range(100):
        scale = np.diag([1.0, 1.0, 1.0 + 0.01 * k, 1.0])
        m = scale @ _COV @ scale

        def f(la, m=m):
            a = np.exp(la)
            return float(np.linalg.det(m[:2, :2]) / a + a * np.trace(m[2:, 2:]))

        minimize_scalar(f, bounds=(-3.0, 3.0), method="bounded")


def _sweep():
    _solve(256, 4, 8)
    _format(2000)


def _readout():
    _solve(8000, 1, 1)


#: Probe work per workload, and the seconds one repeat of it takes at
#: nominal host speed (2-core x86-64 VM, OpenBLAS on one thread).
PROBES = {
    "sweep-fig2": (_sweep, 0.035),
    "sweep-thermal": (_sweep, 0.080),
    "readout": (_readout, 0.048),
    "separability": (_minimize, 0.022),
}
#: Workloads whose passes keep both cores busy for part of the time.  Their
#: probe times its work once alone and once while a helper process runs
#: the same work on the other core, and adds the two.
PAIRED = {"sweep-thermal"}


def _helper(conn):
    while conn.recv():
        _sweep()
        conn.send(True)


@contextlib.contextmanager
def prober(workload):
    """Yields a function that times the workload's reference work now
    (median of REPEATS); starts and stops the helper of a paired probe."""
    work, _ = PROBES[workload]
    conn = helper = None
    if workload in PAIRED:
        conn, child = multiprocessing.Pipe()
        helper = multiprocessing.get_context("fork").Process(
            target=_helper, args=(child,), daemon=True)
        helper.start()

    def once():
        t0 = time.perf_counter()
        work()
        if helper is not None:          # again, with the other core busy
            conn.send(True)
            work()
        seconds = time.perf_counter() - t0
        if helper is not None:
            conn.recv()
        return seconds

    def probe():
        return statistics.median(once() for _ in range(REPEATS))

    try:
        yield probe
    finally:
        if helper is not None:
            conn.send(False)
            helper.join(10)
            if helper.is_alive():
                helper.kill()
                helper.join()


def host_factors(workload, probes):
    """How much slower than nominal the host ran during each pass.

    Pass i lies between probes[i] and probes[i + 1]; its factor is the
    median of the up to 2 * WINDOW probes nearest it, over the nominal
    time.  The median over a window follows drifts that last seconds or
    more but not the probes' own jitter.
    """
    nominal = PROBES[workload][1]
    return [statistics.median(probes[max(0, i + 1 - WINDOW):i + 1 + WINDOW])
            / nominal for i in range(len(probes) - 1)]
