"""Extended-precision oracles for the sweep kernel and the readout spectra.

The reference solves the adjoint resolvent rows c^T (-i w - A)^{-1} B in
30-digit arithmetic at +w and at -w separately and contracts them with the
full 8x8 input spectra, [r(w) D(w) r(-w) + r(-w) D(-w) r(w)] / 4, as written
in the documented formulas.  It shares no arithmetic with the package's
temperature-factored evaluation, nor with the closed-form readout
contraction.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.constants import hbar as HBAR, k as KB

from mirrorpair import (
    NoiseModel, build_linear_system, degree_sweep, fig2_params, output_spectrum,
    output_spectrum_via_transfer, steady_state, transfer_matrix,
    two_channel_spectra,
)
from mirrorpair.dynamics import (
    IQ1, IQ2, IXA1, IXA2, IYA1, IYA2, IYIN1, IYIN2, N_STATE,
    _row_factors, hybrid_grid, noise_weights, selected_transfer_rows,
)
from mirrorpair.entanglement import (
    D_SELECTOR, P1_SELECTOR, Q1_SELECTOR, SWEEP_SELECTORS, U_SELECTOR,
    V_SELECTOR,
)

from conftest import P_STAR, mirror_blocks, mirror_poles, working_points

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


@pytest.mark.parametrize("temperature", TEMPERATURES)
def test_sweep_commutator_at_the_hybrid_grid_crossings(reference,
                                                       temperature):
    # The hybrid grid's one point within 2e-4 Omega of each zero crossing
    # of the commutator (0.924 and 1.0705 Omega).  There the sweep and the
    # four-row forms of tests/test_entanglement.py are held to each other
    # only on the scale of the cancelling terms; the sweep itself is held to
    # the reference (measured: -4.7e-13 and -6.1e-14).
    params = fig2_params()
    w = hybrid_grid(params.big_omega)
    near = np.any([np.abs(w / params.big_omega - c) <= 2e-4
                   for c in (0.923915, 1.070685)], axis=0)
    assert near.sum() == 2
    noise = NoiseModel(temperature, params.big_gamma, params.big_omega)
    got = degree_sweep(build_linear_system(params), noise, w)["commutator_sq"]
    for w_k, have in zip(w[near], got[near]):
        want = float(reference.point(float(w_k), temperature)["commutator_sq"])
        assert abs(have - want) <= 1e-12 * want, (w_k, have / want - 1.0)


def test_transfer_rows_commutator_at_the_crossings(reference):
    # The generic path's commutator, the form of its q1 and p1 rows, at the
    # four points that straddle the zero crossings of the commutator
    # (measured: within 4.3e-12; the rows of a dense 10x10 LU, as
    # transfer_matrix forms them, were off by up to 4.6e-8 there).  The
    # commutator does not depend on temperature.
    params = fig2_params()
    w = np.array(OMEGA_FACTORS[-4:]) * params.big_omega
    q1, p1 = selected_transfer_rows(
        build_linear_system(params), w,
        np.column_stack([Q1_SELECTOR, P1_SELECTOR])).transpose(1, 0, 2)
    noise = NoiseModel(0.1, params.big_gamma, params.big_omega)
    got = noise.form(w, *noise_weights(q1, p1)).imag ** 2
    for w_k, have in zip(w, got):
        want = float(reference.point(float(w_k), 0.1)["commutator_sq"])
        assert abs(have - want) <= 5e-12 * want, (w_k, have / want - 1.0)


#: The unit rows that carry d = q1 - q2: all but the meter amplitudes.
CARRY_D = [i for i in range(N_STATE) if i not in (IXA1, IXA2)]


def unit_row_errors(params, w):
    """Relative errors of the ten unit rows of selected_transfer_rows at w
    against the 40-digit Reference, shape (10,)."""
    got = selected_transfer_rows(build_linear_system(params), [w],
                                 np.eye(N_STATE))[0]
    ref = Reference(params, dps=40).selected_rows(w, np.eye(N_STATE))
    want = np.array([[complex(x) for x in row] for row in ref])
    return np.linalg.norm(got - want, axis=-1) / np.linalg.norm(want, axis=-1)


@pytest.mark.filterwarnings("ignore:expected entangler coupling")
def test_unit_rows_at_resonance_match_extended_precision():
    # At omega = Omega the shifted drift has condition ~4e7 at the Fig. 2
    # point and ~1e9 at P*, where rows of the dense transfer_matrix are off
    # by ~1e-11.  The closed form keeps every row to rounding there.  At
    # P*'s relative mechanical pole the rows that carry d hold only its
    # ~eps |mech D| / |den| (TestClosedFormRows); at the optical pole pair
    # (69.101 Omega) the closed form meets no cancellation.
    params = fig2_params()
    err = unit_row_errors(params, params.big_omega)
    assert err.max() <= 1e-14, err
    star = fig2_params(**P_STAR)
    for w in (star.big_omega, relative_mechanical_pole(star)[0],
              optical_pole(star)):
        err = unit_row_errors(star, w)
        tol = np.full(N_STATE, 1e-14)
        tol[CARRY_D] += 4.0 * np.finfo(float).eps * den_cancellation(star, w)
        assert np.all(err <= tol), (w / star.big_omega, err / tol)


def test_weak_entangler_relative_row_at_its_pole():
    # At a weak entangler drive the relative mode is a lightly damped
    # oscillator a little stiffer than Omega.  At its pole the determinant
    # of the {q-, p-} Schur complement C is ~1e-5 of c00 c11: a batched LU
    # solve of the 4x4 block is off by 2.2e-12 here, det C taken as
    # c00 c11 - c01 c10 by 2.1e-12, and det P taken as d - omega^2 instead
    # of (r - omega)(r + omega) by 1.3e-12.
    params, w = weak_entangler_pole()
    assert w / params.big_omega == pytest.approx(1.0000025, abs=1e-7)
    sys = build_linear_system(params)
    got = selected_transfer_rows(sys, [w], D_SELECTOR[:, None])[0, 0]
    want = np.array([complex(x) for x in Reference(params, dps=40)
                     .selected_rows(w, [D_SELECTOR])[0]])
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def relative_mechanical_pole(params):
    """Frequency and damping of the least damped pole of the relative
    block {q-, p-, X_b, Y_b}, where that block is nearly singular."""
    _, relative = mirror_blocks(build_linear_system(params))
    poles = np.linalg.eigvals(relative)
    pole = poles[np.argmin(np.abs(poles.real))]
    return abs(pole.imag), -pole.real


def optical_pole(params):
    """Frequency of the fastest pole of the relative block, the optical
    pole pair near |Delta_b| (69.101 Omega at P*)."""
    _, relative = mirror_blocks(build_linear_system(params))
    return np.abs(np.linalg.eigvals(relative).imag).max()


def weak_entangler_pole():
    """A weak entangler drive and the frequency of its relative-mode pole,
    a little stiffer than Omega."""
    params = fig2_params(p_in_b=5e-11)
    return params, relative_mechanical_pole(params)[0]


def den_cancellation(params, w):
    """|mech D| / |den| of the d row of selected_transfer_rows at w: how far
    mech D and the spring term cancel in den = mech D + 4 Omega G^2 |beta|^2
    Delta_b.  A scale for a bound, so double precision suffices."""
    om = params.big_omega
    beta = steady_state(params).beta
    mech = (om - w) * (om + w) - 1j * params.big_gamma * w
    kappa = 0.5 * params.gamma_b - 1j * w
    spring = (kappa - 1j * params.delta_b) * (kappa + 1j * params.delta_b)
    mech_d = mech * spring
    den = mech_d + 4.0 * om * params.big_g ** 2 * abs(beta) ** 2 * params.delta_b
    return np.abs(mech_d) / np.abs(den)


def closed_form_row_errors(params, omegas):
    """Relative errors of the closed-form u and d rows against the 40-digit
    Reference, shape (n, 2)."""
    got = selected_transfer_rows(build_linear_system(params),
                                 np.array(omegas), SWEEP_SELECTORS)
    ref = Reference(params, dps=40)
    err = np.empty((len(omegas), 2))
    for i, w in enumerate(omegas):
        for k, row in enumerate(ref.selected_rows(w, (U_SELECTOR,
                                                      D_SELECTOR))):
            want = np.array([complex(x) for x in row])
            err[i, k] = (np.linalg.norm(got[i, k] - want)
                         / np.linalg.norm(want))
    return err


class TestClosedFormRows:
    """The u and d rows of selected_transfer_rows, the rows of the sweep and
    the readout, against the 40-digit resolvent at 1e-14."""

    def test_fig2_frequencies(self):
        params = fig2_params()
        err = closed_form_row_errors(
            params, [f * params.big_omega for f in OMEGA_FACTORS])
        assert err.max() <= 1e-14, err

    def test_weak_entangler_pole(self):
        params, w = weak_entangler_pole()
        assert closed_form_row_errors(params, [w]).max() <= 1e-14

    @pytest.mark.filterwarnings("ignore:expected entangler coupling")
    @pytest.mark.parametrize("factor", [0.5, 1.0, 68.5, 69.101, 69.7,
                                        "optical pole"])
    def test_stable_point(self, factor):
        # Near the optical pole pair a solve of the relative block's 4x4
        # system, which is ill-conditioned there, leaves the d row off by
        # 1.4e-13 (69.101 Omega) and 5.5e-15 (69.7 Omega); the closed form
        # never forms that system.  The grid points are whole numbers of
        # s^-1, whose squares are exact; at the pole itself (69.1010452
        # Omega) D taken as kappa^2 + Delta_b^2 instead of its factors
        # would be 8.8e-14 off.
        params = fig2_params(**P_STAR)
        if factor == "optical pole":
            w = optical_pole(params)
        else:
            w = factor * params.big_omega
        err = closed_form_row_errors(params, [w])
        assert err.max() <= 1e-14, err

    @pytest.mark.filterwarnings("ignore:expected entangler coupling")
    def test_stable_point_relative_mechanical_pole(self):
        # The known limit of the closed form.  At P*'s relative mechanical
        # pole mech D and the spring term cancel in den to ~1e-5, so the d
        # row holds only ~eps |mech D| / |den| (measured <= 1.08 of that,
        # 2.4e-11 at the pole itself); the u row never meets den.
        params = fig2_params(**P_STAR)
        om = params.big_omega
        pole, damping = relative_mechanical_pole(params)
        assert pole / om == pytest.approx(0.924958508, abs=1e-9)
        assert damping / om == pytest.approx(7.9e-7, rel=0.01)
        offsets = [0.0] + [sign * 10.0 ** k for k in range(-8, -3)
                           for sign in (-1.0, 1.0)]
        w = np.array([pole + offset * om for offset in offsets])
        err = closed_form_row_errors(params, w)
        assert err[:, 0].max() <= 1e-14, err[:, 0]
        tol = 1e-14 + 4.0 * np.finfo(float).eps * den_cancellation(params, w)
        assert np.all(err[:, 1] <= tol), err[:, 1] / tol

    @pytest.mark.filterwarnings("ignore:expected entangler coupling")
    @settings(max_examples=40, deadline=None)
    @given(point=working_points())
    def test_closed_form_agrees_at_random_working_points(self, point):
        # The dense transfer_matrix on the same (model) system, across the
        # poles of the centre of mass and the relative mode.  The rows are
        # held to 1e-12 plus 4 eps times the larger condition number of the
        # two shifted mirror blocks, {q+, p+} and {q-, p-, X_b, Y_b}, and
        # the dense LU is allowed its own normwise error on top, 8 eps
        # cond ||M|| (as check_rows_against_transfer_matrix allows it).
        params, _ = point
        sys = build_linear_system(params)
        blocks = mirror_blocks(sys)
        w = np.concatenate([np.geomspace(0.1, 10.0, 65) * params.big_omega,
                            mirror_poles(sys)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = selected_transfer_rows(sys, w, SWEEP_SELECTORS)
        cond = np.max([np.linalg.cond(
            -1j * w[:, None, None] * np.eye(len(b)) - b.T) for b in blocks],
            axis=0)
        eps = np.finfo(float).eps
        for i, w_k in enumerate(w):
            m = transfer_matrix(sys, w_k)
            want = SWEEP_SELECTORS.T @ m
            shifted = -1j * w_k * np.eye(N_STATE) - sys.drift
            tol = ((1e-12 + 4.0 * eps * cond[i]) * np.linalg.norm(want, axis=-1)
                   + 8.0 * eps * np.linalg.cond(shifted) * np.linalg.norm(m, 2))
            err = np.linalg.norm(got[i] - want, axis=-1)
            assert np.all(err <= tol), (w_k, err / tol)


def reference_factors(params, omegas):
    """The five factors of dynamics._row_factors from the 40-digit u and d
    rows, shape (5, n): |u_xi|^2, |d_xi|^2, |d_Xb|^2 + |d_Yb|^2,
    |u_Xin1|^2 / |u_xi|^2 and Im(d_Xb conj(d_Yb))."""
    ref = Reference(params, dps=40)
    out = np.empty((5, len(omegas)))
    for i, w in enumerate(omegas):
        u, d = ref.selected_rows(w, (U_SELECTOR, D_SELECTOR))
        u2, v2 = abs(u[0]) ** 2, abs(d[0]) ** 2
        out[:, i] = [float(x) for x in (
            u2, v2, abs(d[6]) ** 2 + abs(d[7]) ** 2, abs(u[2]) ** 2 / u2,
            (d[6] * ref.mp.conj(d[7])).imag)]
    return out


def factor_errors(params, omegas):
    """Relative errors of dynamics._row_factors against reference_factors,
    shape (5, n)."""
    w = np.array(omegas, dtype=float)
    got = np.array(_row_factors(build_linear_system(params), w))
    want = reference_factors(params, w)
    return np.abs(got - want) / np.abs(want)


class TestRowFactors:
    """dynamics._row_factors, from which every sweep weight and direct
    readout spectrum is formed, against the 40-digit rows at 1e-14; the
    factors are exact sums of products of the closed form, so where the
    rows hold, they hold."""

    def test_fig2_frequencies(self):
        params = fig2_params()
        err = factor_errors(params, [f * params.big_omega
                                     for f in OMEGA_FACTORS])
        assert err.max() <= 1e-14, err

    def test_weak_entangler_pole(self):
        params, w = weak_entangler_pole()
        assert factor_errors(params, [w]).max() <= 1e-14

    @pytest.mark.filterwarnings("ignore:expected entangler coupling")
    def test_stable_point_optical_pole(self):
        # P*'s entangled band at its optical pole pair: the pole itself and
        # the grid point 69.101 Omega (measured: 1.8e-16).
        params = fig2_params(**P_STAR)
        pole = optical_pole(params)
        assert pole / params.big_omega == pytest.approx(69.101, abs=1e-3)
        err = factor_errors(params, [pole, 69.101 * params.big_omega])
        assert err.max() <= 1e-14, err

    @pytest.mark.filterwarnings("ignore:expected entangler coupling")
    def test_stable_point_relative_mechanical_pole(self):
        # The rows' known limit carries over: v2, ent and twist are squared
        # moduli or products of the d row's entries over den, so they hold
        # twice its bound, 1e-14 + 8 eps |mech D| / |den| (measured <= 1.73
        # eps |mech D| / |den|, 1.7e-11 at the pole); u2 and meter never
        # meet den and hold 1e-14.
        params = fig2_params(**P_STAR)
        om = params.big_omega
        pole, _ = relative_mechanical_pole(params)
        offsets = [0.0] + [sign * 10.0 ** k for k in range(-8, -3)
                           for sign in (-1.0, 1.0)]
        w = np.array([pole + offset * om for offset in offsets])
        err = factor_errors(params, w)
        assert err[[0, 3]].max() <= 1e-14, err[[0, 3]]
        tol = 1e-14 + 8.0 * np.finfo(float).eps * den_cancellation(params, w)
        assert np.all(err[[1, 2, 4]] <= tol), (err[[1, 2, 4]] / tol).max()


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
