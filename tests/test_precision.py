"""Extended-precision oracles for the sweep kernel and the readout spectra.

The reference solves the adjoint resolvent rows c^T (-i w - A)^{-1} B in
30-digit arithmetic at +w and at -w separately and contracts them with the
full 8x8 input spectra, [r(w) D(w) r(-w) + r(-w) D(-w) r(w)] / 4, as written
in the documented formulas.  It shares no arithmetic with the package's
temperature-factored evaluation, nor with the closed-form readout
contraction.
"""

import numpy as np
import pytest
from scipy.constants import hbar as HBAR, k as KB

from mirrorpair import (
    NoiseModel, build_linear_system, degree_sweep, fig2_params, output_spectrum,
    output_spectrum_via_transfer, steady_state, two_channel_spectra,
)
from mirrorpair.dynamics import (
    IQ1, IQ2, IYA1, IYA2, IYIN1, IYIN2, N_STATE,
    selected_transfer_rows,
)
from mirrorpair.entanglement import (
    P1_SELECTOR, Q1_SELECTOR, U_SELECTOR, V_SELECTOR,
)

mpmath = pytest.importorskip("mpmath")

#: The last four straddle the two zero crossings of the commutator at the
#: Fig. 2 point (0.923915 and 1.070685 Omega), where E(omega) is largest and
#: the commutator is smallest against its ingredients.
OMEGA_FACTORS = (1e-2, 0.5, 0.9, 1.0, 1.1, 2.0, 1e2,
                 0.923905, 0.923925, 1.070675, 1.070695)
TEMPERATURES = (0.0, 0.1, 300.0)


class Reference:
    """E(omega) ingredients at (omega, T) in extended precision."""

    def __init__(self, params, dps=30, kernel="corrected"):
        lin = build_linear_system(params)
        self.mp = mpmath.mp.clone()
        self.mp.dps = dps
        self.drift = self.mp.matrix(lin.drift.tolist())
        self.coupling = self.mp.matrix(lin.noise_coupling.tolist())
        self.pref = self.mp.mpf(params.big_gamma) / params.big_omega
        if kernel == "halved":
            self.pref /= 2
        self._rows = {}

    def selected_rows(self, w, selectors):
        """Rows c^T M(w) for the selectors; each a list of 8 mp complexes."""
        mp = self.mp
        shifted_t = (-1j * mp.mpf(w) * mp.eye(10) - self.drift).T
        out = []
        for c in selectors:
            x = mp.lu_solve(shifted_t, mp.matrix(list(map(float, c))))
            out.append([sum(x[i] * self.coupling[i, k] for i in range(10))
                        for k in range(8)])
        return out

    def rows(self, w):
        """Rows c^T M(w) for u, v, q1, p1."""
        if w not in self._rows:
            self._rows[w] = self.selected_rows(
                w, (U_SELECTOR, V_SELECTOR, Q1_SELECTOR, P1_SELECTOR))
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


def test_unit_rows_at_resonance_match_extended_precision():
    # At omega = Omega the shifted drift has condition ~4e7.  The adjoint
    # solve keeps every row to rounding, where rows of the dense
    # transfer_matrix are off by ~1e-11.  The X_b and Y_b rows held only
    # ~1e-9 while they were solved in one 6x6 block with the two mirrors;
    # in the 4x4 block of the relative mode they hold ~1e-16.
    params = fig2_params()
    sys = build_linear_system(params)
    w = params.big_omega
    got = selected_transfer_rows(sys, [w], np.eye(N_STATE))[0]
    ref = Reference(params, dps=40).selected_rows(w, np.eye(N_STATE))
    for i, row in enumerate(ref):
        want = np.array([complex(x) for x in row])
        rel = np.linalg.norm(got[i] - want) / np.linalg.norm(want)
        assert rel <= 1e-14, (i, rel)


READOUT_OMEGA_FACTORS = (1e-2, 0.9, 1.0, 1.1, 1e2)


class ReadoutReference(Reference):
    """Output spectra of the meter channels in extended precision."""

    def __init__(self, params, kernel):
        super().__init__(params, kernel=kernel)
        mp = self.mp
        self.gamma_a = mp.mpf(params.gamma_a)
        self.g_alpha = mp.mpf(params.g) * steady_state(params).alpha

    def currents(self, w):
        """Noise-space rows at w of Y_out_1, Y_out_2 (from q_j), of the same
        outputs from Y_out = sqrt(gamma_a) Y_a - Y_in, and of the two
        oriented currents gain * q_j +- refl * Y_in_j."""
        mp = self.mp
        units = [[1.0 if i == j else 0.0 for i in range(10)]
                 for j in (IQ1, IQ2, IYA1, IYA2)]
        q1, q2, ya1, ya2 = self.selected_rows(w, units)
        den = self.gamma_a / 2 - 1j * mp.mpf(w)
        gain = 2 * self.g_alpha * mp.sqrt(self.gamma_a) / den
        refl = (self.gamma_a / 2 + 1j * mp.mpf(w)) / den

        def row(signal, scale, index, vacuum):
            out = [scale * x for x in signal]
            out[index] += vacuum
            return out

        root = mp.sqrt(self.gamma_a)
        return {
            "direct1": row(q1, gain, IYIN1, refl),
            "direct2": row(q2, -gain, IYIN2, refl),
            "transfer1": row(ya1, root, IYIN1, -1),
            "transfer2": row(ya2, root, IYIN2, -1),
            "current1": row(q1, gain, IYIN1, refl),
            "current2": row(q2, gain, IYIN2, -refl),
        }

    def spectra(self, w, temperature):
        plus, minus = self.currents(w), self.currents(-w)
        dp, dm = self.spectrum(w, temperature), self.spectrum(-w, temperature)

        def s(a, b):
            return (self.form(plus[a], dp, minus[b])
                    + self.form(minus[a], dm, plus[b])) / 2

        out = {k: s(k, k).real for k in plus if not k.startswith("current")}
        out["s12"] = s("current1", "current2")
        return out


@pytest.mark.parametrize("kernel", ["corrected", "halved"])
def test_readout_spectra_match_extended_precision(kernel):
    params = fig2_params()
    sys = build_linear_system(params)
    ref = ReadoutReference(params, kernel)
    omegas = np.array(READOUT_OMEGA_FACTORS) * params.big_omega
    for temperature in (0.0, 300.0):
        noise = NoiseModel(temperature, params.big_gamma, params.big_omega,
                           kernel)
        got = {f"{name}{ch}": fn(sys, noise, omegas, ch)
               for ch in (1, 2)
               for name, fn in (("direct", output_spectrum),
                                ("transfer", output_spectrum_via_transfer))}
        got["s12"] = two_channel_spectra(sys, noise, omegas).s12
        for i, w in enumerate(omegas):
            want = ref.spectra(float(w), temperature)
            for key, value in want.items():
                have = complex(got[key][i])
                # The two output currents commute, so the exact imaginary
                # part of s12 is zero: it is checked on the scale of |s12|.
                checks = [(have.real, value.real, abs(value.real)),
                          (have.imag, value.imag, abs(value))]
                for part, (x, exact, norm) in zip(("re", "im"), checks):
                    rel = abs(x - float(exact)) / float(norm)
                    assert rel <= 1e-9, (w, temperature, key, part, rel)
