"""Extended-precision oracle for the sweep kernel.

The reference solves the adjoint resolvent rows c^T (-i w - A)^{-1} B in
30-digit arithmetic at +w and at -w separately and contracts them with the
full 8x8 input spectra, [r(w) D(w) r(-w) + r(-w) D(-w) r(w)] / 4, as written
in the documented formulas.  It shares no arithmetic with the package's
temperature-factored evaluation.
"""

import numpy as np
import pytest
from scipy.constants import hbar as HBAR, k as KB

from mirrorpair import NoiseModel, build_linear_system, degree_sweep, fig2_params
from mirrorpair.entanglement import (
    P1_SELECTOR, Q1_SELECTOR, U_SELECTOR, V_SELECTOR,
)

mpmath = pytest.importorskip("mpmath")

OMEGA_FACTORS = (1e-2, 0.5, 0.9, 1.0, 1.1, 2.0, 1e2)
TEMPERATURES = (0.0, 0.1, 300.0)


class Reference:
    """E(omega) ingredients at (omega, T) in extended precision."""

    def __init__(self, params, dps=30):
        lin = build_linear_system(params)
        self.mp = mpmath.mp.clone()
        self.mp.dps = dps
        self.drift = self.mp.matrix(lin.drift.tolist())
        self.coupling = self.mp.matrix(lin.noise_coupling.tolist())
        self.pref = self.mp.mpf(params.big_gamma) / params.big_omega
        self._rows = {}

    def rows(self, w):
        """Rows c^T M(w) for u, v, q1, p1; each a list of 8 mp complexes."""
        if w not in self._rows:
            mp = self.mp
            shifted_t = (-1j * mp.mpf(w) * mp.eye(10) - self.drift).T
            out = []
            for c in (U_SELECTOR, V_SELECTOR, Q1_SELECTOR, P1_SELECTOR):
                x = mp.lu_solve(shifted_t, mp.matrix(c.tolist()))
                out.append([sum(x[i] * self.coupling[i, k] for i in range(10))
                            for k in range(8)])
            self._rows[w] = out
        return self._rows[w]

    def spectrum(self, w, temperature):
        """The full input spectral matrix D(w) as an 8x8 nested list."""
        mp = self.mp
        w = mp.mpf(w)
        if temperature == 0.0:
            s_xi = self.pref * w * (mp.sign(w) + 1)
        else:
            x = mp.mpf(HBAR) * w / (2 * mp.mpf(KB) * temperature)
            s_xi = self.pref * (w * mp.coth(x) + w)
        d = [[mp.mpc(0)] * 8 for _ in range(8)]
        d[0][0] = d[1][1] = s_xi
        for k in (2, 4, 6):
            d[k][k] = d[k + 1][k + 1] = mp.mpc(1)
            d[k][k + 1] = mp.mpc(0, 1)
            d[k + 1][k] = mp.mpc(0, -1)
        return d

    @staticmethod
    def form(left, d, right):
        return sum(left[k] * d[k][l] * right[l]
                   for k in range(8) for l in range(8))

    def point(self, w, temperature):
        rp, rm = self.rows(w), self.rows(-w)
        dp, dm = self.spectrum(w, temperature), self.spectrum(-w, temperature)

        def corr(i, j, plus, minus):
            return (self.form(rp[i], plus, rm[j])
                    + self.form(rm[i], minus, rp[j])) / 4

        var_u = corr(0, 0, dp, dm).real
        var_v = corr(1, 1, dp, dm).real
        # Antisymmetric part D(w) - D(-w)^T, computed here by differencing in
        # extended precision rather than from the closed form.
        ap = [[dp[k][l] - dm[l][k] for l in range(8)] for k in range(8)]
        am = [[dm[k][l] - dp[l][k] for l in range(8)] for k in range(8)]
        comm_sq = abs(corr(2, 3, ap, am)) ** 2
        return {"var_u": var_u, "var_v": var_v, "commutator_sq": comm_sq,
                "degree": var_u * var_v / comm_sq}


@pytest.fixture(scope="module")
def reference():
    return Reference(fig2_params())


@pytest.mark.parametrize("temperature", TEMPERATURES)
def test_degree_sweep_matches_extended_precision(reference, temperature):
    params = fig2_params()
    sys = build_linear_system(params)
    omegas = np.array(OMEGA_FACTORS) * params.big_omega
    noise = NoiseModel(temperature, params.big_gamma, params.big_omega)
    got = degree_sweep(sys, noise, omegas)
    for i, w in enumerate(omegas):
        want = reference.point(float(w), temperature)
        for key, value in want.items():
            rel = abs(got[key][i] - float(value)) / abs(float(value))
            assert rel <= 1e-9, (w, key, rel)
