"""Correctness gate, run after the timed passes.

Tolerances are loose enough that a change at the ulp level passes and tight
enough that a wrong formula, a dropped row or a misplaced flag fails.  Each
check returns (problems, max_rel_err); a non-empty problem list fails every
pass whose output it covers.

The sweep reference is an extended-precision (mpmath) evaluation of the
adjoint resolvent rows c^T (-i w - A)^{-1} B and of the quadratic forms
behind E(omega), written here from the documented formulas, independent of
the package's solves and einsums.
"""

from __future__ import annotations

import json
import math

import mpmath
import numpy as np
from scipy.constants import hbar as HBAR, k as KB

from mirrorpair import cli, dynamics, entanglement, model
import workloads

#: Relative tolerance of E(omega) against the extended-precision reference.
#: CSV values carry 13 significant digits; double-precision solves near the
#: log-grid ends lose a few more.
DEGREE_RTOL = 1e-8
#: Relative agreement of two double-precision assemblies of one quantity.
ASSEMBLY_RTOL = 1e-9
#: Points per temperature compared with the reference.
REFERENCE_POINTS = 32


class ResolventReference:
    """E(omega) at (omega, T) in extended precision."""

    SELECTORS = (entanglement.U_SELECTOR, entanglement.V_SELECTOR,
                 entanglement.Q1_SELECTOR, entanglement.P1_SELECTOR)

    def __init__(self, params, dps=30):
        lin = dynamics.build_linear_system(params)
        self.mp = mpmath.mp.clone()
        self.mp.dps = dps
        self.drift = self.mp.matrix(lin.drift.tolist())
        self.coupling = self.mp.matrix(lin.noise_coupling.tolist())
        # The sweeps use the default ("corrected") Brownian kernel.
        self.pref = self.mp.mpf(params.big_gamma) / params.big_omega
        self._rows = {}

    def rows(self, w):
        """The four selector rows c^T M(w), each a list of 8 mp complexes."""
        if w not in self._rows:
            mp = self.mp
            shifted_t = (-1j * mp.mpf(w) * mp.eye(10) - self.drift).T
            out = []
            for c in self.SELECTORS:
                x = mp.lu_solve(shifted_t, mp.matrix(c.tolist()))
                out.append([sum(x[i] * self.coupling[i, k] for i in range(10))
                            for k in range(8)])
            self._rows[w] = out
        return self._rows[w]

    def _brownian(self, w, temperature):
        mp = self.mp
        w = mp.mpf(w)
        x = mp.mpf(HBAR) * w / (2 * mp.mpf(KB) * temperature)
        return self.pref * (w * mp.coth(x) + w)

    def _form(self, left, right, d_diag, off):
        """left^T D right for D = diag(d) with +-off on the vacuum pairs."""
        total = sum(left[k] * d_diag[k] * right[k] for k in range(8))
        for k in (2, 4, 6):
            total += left[k] * off * right[k + 1] - left[k + 1] * off * right[k]
        return total

    def degree(self, w, temperature):
        rp, rm = self.rows(w), self.rows(-w)
        diag_p = [self._brownian(w, temperature)] * 2 + [1] * 6
        diag_m = [self._brownian(-w, temperature)] * 2 + [1] * 6
        var = [
            (self._form(rp[i], rm[i], diag_p, 1j)
             + self._form(rm[i], rp[i], diag_m, 1j)).real / 4
            for i in (0, 1)
        ]
        # Antisymmetric part: 2*pref*w on the Brownian diagonal, +-2i pairs.
        ca_p = [2 * self.pref * w] * 2 + [0] * 6
        ca_m = [-2 * self.pref * w] * 2 + [0] * 6
        comm = (self._form(rp[2], rm[3], ca_p, 2j)
                + self._form(rm[2], rp[3], ca_m, 2j)) / 4
        return var[0] * var[1] / abs(comm) ** 2


def _rel(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.maximum(np.abs(b), np.finfo(float).tiny)
    return float(np.max(np.abs(a - b) / scale)) if a.size else 0.0


def reference_indices(spec, rng):
    """Grid indices compared with the reference: both ends, the point
    nearest Omega and random interior points."""
    n = spec["count"]
    grid = workloads.omega_grid(spec)
    fixed = {0, n - 1, int(np.argmin(np.abs(grid - model.PhysicalParams().big_omega)))}
    rest = np.setdiff1d(np.arange(n), sorted(fixed))
    extra = rng.choice(rest, size=min(rest.size, REFERENCE_POINTS - len(fixed)),
                       replace=False)
    return sorted(fixed.union(extra.tolist()))


def check_sweep(spec, out_dir, rng):
    problems = []
    max_err = 0.0
    lines = (out_dir / "sweep.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    if tuple(header) != cli.CSV_COLUMNS:
        return [f"sweep.csv header {header}"], math.inf
    temps = spec["temperatures"]
    n = spec["count"]
    if len(lines) - 1 != n * len(temps):
        return [f"sweep.csv has {len(lines) - 1} rows, want {n * len(temps)}"], math.inf
    fields = [line.split(",") for line in lines[1:]]
    num = np.array([f[:7] for f in fields], dtype=float).reshape(len(temps), n, 7)
    flags = np.array([f[7:] for f in fields]).reshape(len(temps), n, 2)
    grid = workloads.omega_grid(spec)
    degree = num[..., 5]
    for j, temp in enumerate(temps):
        for col, want, label in ((0, grid, "omega"), (1, np.full(n, temp), "temperature")):
            err = _rel(num[j, :, col], want)
            if err > 1e-11:
                problems.append(f"T={temp}: {label} column off by {err:.2e}")
    product = num[..., 2] * num[..., 3] / num[..., 4]
    err = _rel(product, degree)
    if err > 1e-10:
        problems.append(f"var_u*var_v/commutator_sq differs from degree by {err:.2e}")
    if _rel(num[..., 6], np.minimum(degree, 1.0)) > 1e-11:
        problems.append("degree_clipped is not min(degree, 1)")
    for col, bound, label in ((0, 1.0, "entangled"), (1, 0.25, "epr")):
        # A value within CSV rounding of the threshold may go either way.
        clear = np.abs(degree - bound) > 1e-11 * bound
        want = np.where(degree < bound, "true", "false")
        if np.any((flags[..., col] != want) & clear):
            problems.append(f"{label} flag disagrees with degree")

    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    for j, entry in enumerate(summary["temperatures"]):
        if _rel(entry["min_degree"], degree[j].min()) > 1e-11:
            problems.append(f"summary min_degree wrong at T={entry['temperature']}")

    ref = ResolventReference(model.PhysicalParams())
    for i in reference_indices(spec, rng):
        for j, temp in enumerate(temps):
            want = float(ref.degree(float(grid[i]), temp))
            err = abs(degree[j, i] - want) / abs(want)
            max_err = max(max_err, err)
            if err > DEGREE_RTOL:
                problems.append(f"degree at omega={grid[i]:.6e}, T={temp}: "
                                f"{degree[j, i]:.12e} vs reference {want:.12e}")
    return problems, max_err


def check_readout(outputs):
    problems = []
    pairs = [
        ("direct1", "transfer1"), ("direct2", "transfer2"),
        ("s11", "direct1"), ("s22", "direct2"),
    ]
    max_err = 0.0
    for a, b in pairs:
        err = _rel(outputs[a], outputs[b])
        max_err = max(max_err, err)
        if err > ASSEMBLY_RTOL:
            problems.append(f"readout {a} vs {b}: rel err {err:.2e}")
    base = outputs["s11"] + outputs["s22"]
    cross = 2.0 * outputs["s12"].real
    for mode, want in (("sum", base + cross), ("difference", base - cross)):
        err = _rel(outputs[mode], want)
        max_err = max(max_err, err)
        if err > 1e-12:
            problems.append(f"combine_currents {mode}: rel err {err:.2e}")
    return problems, max_err


def check_separability(states, outputs):
    problems = []
    kinds, r = states["kinds"], states["r"]
    best, at_unit = outputs["best"], outputs["at_unit"]
    sep = kinds == workloads.SEPARABLE
    if np.any(best[sep] < 1.0 - 1e-9) or np.any(at_unit[sep] < 1.0 - 1e-9):
        problems.append("a separable state gave a product below 1")
    if np.any(best > at_unit * (1.0 + 1e-12)):
        problems.append("optimum worse than a = 1")
    eq = kinds == workloads.TMSV_EQUAL
    err_eq = _rel(best[eq], np.exp(-4.0 * r[eq]))
    if err_eq > 1e-9:
        problems.append(f"TMSV with equal scalings: rel err {err_eq:.2e} to e^(-4r)")
    uneq = kinds == workloads.TMSV_UNEQUAL
    grid = np.exp(np.linspace(np.log(1e-3), np.log(1e3), 20001))
    brute = entanglement.separability_products(states["covs"][uneq], grid).min(axis=1)
    if np.any(best[uneq] > brute * (1.0 + 1e-9)):
        problems.append("optimum above the dense log-grid minimum")
    return problems, err_eq
