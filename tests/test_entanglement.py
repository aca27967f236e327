"""Tests for the entanglement degree and the Gaussian separability checker."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import expm

from mirrorpair import (
    GaussianState,
    NoiseModel,
    build_linear_system,
    degree_sweep,
    entanglement,
    optimize_separability,
    output_spectrum,
    readout,
    separability_product,
    tmsv_state,
    two_channel_spectra,
)
from mirrorpair import dynamics
from mirrorpair.dynamics import (
    IP2, IQ1, IQ2, IXB, IXI1, IXI2, IXINB, IYB, IYIN1, IYIN2, IYINB,
    LinearSystem, frequency_grid, hybrid_grid, noise_weights,
    selected_transfer_rows,
)
from mirrorpair.entanglement import (
    P1_SELECTOR, Q1_SELECTOR, SWEEP_SELECTORS, SYMPLECTIC_FORM, U_SELECTOR,
    V_SELECTOR, separability_optimum, separability_products,
)
from mirrorpair.oracle import sample_separable_covariances
from mirrorpair.errors import (
    DegenerateCommutatorError,
    InvalidParameterError,
    SingularityError,
    UnphysicalStateError,
)

from conftest import (
    P_STAR, RATE_FIELDS, make_params, meter_output, mirror_poles,
    working_points,
)


#: The Fig. 2 point's commutator changes sign near these omega / Omega.
COMMUTATOR_CROSSINGS = (0.923915, 1.070685)


def chi(omega, params):
    om = params.big_omega
    return om / (om ** 2 - omega ** 2 - 1j * params.big_gamma * omega)


def four_row_forms(sys, noise, w):
    """Var(u), Var(v) and the commutator squared, each the form of two rows
    of one solve of u, v, q1 and p1."""
    selectors = np.column_stack([U_SELECTOR, V_SELECTOR, Q1_SELECTOR,
                                 P1_SELECTOR])
    u, v, q1, p1 = selected_transfer_rows(sys, w, selectors).transpose(1, 0, 2)

    def form(ri, rj):
        return noise.form(w, *noise_weights(ri, rj))

    return {"var_u": 0.5 * form(u, u).real, "var_v": 0.5 * form(v, v).real,
            "commutator_sq": form(q1, p1).imag ** 2}


def row_forms(sys, noise, w):
    """The sweep's six planes (6, n), the auto forms of the two oriented
    currents and their cross form as the forms (noise_weights,
    NoiseModel.form) of the closed-form rows themselves: u and d of
    selected_transfer_rows, q1 = (u + d) / 2 with p1 = -i rho q1, and the
    currents gain q_j +- refl Y_in_j.  The planes of Var(u) and Var(v) are
    half the weights of (u, u) and (v, v) = rho^2 (d, d), since
    Var = Re F / 2; xi and pairs are the weights of (q1, p1).  Also returns
    |d_Xb|^2 + |d_Yb|^2."""
    u, d = selected_transfer_rows(sys, w, SWEEP_SELECTORS).transpose(1, 0, 2)
    rho = w / sys.params.big_omega
    q1, q2 = 0.5 * (u + d), 0.5 * (u - d)
    uu, dd = noise_weights(u, u), noise_weights(d, d)
    _, xi, _, pairs = noise_weights(q1, -1j * q1)
    planes = np.stack([0.5 * uu[0], 0.5 * (rho * rho * dd[0]),
                       0.5 * uu[2], 0.5 * (rho * rho * dd[2]),
                       rho * xi, rho * pairs])
    gain, refl = meter_output(sys, w)
    c1, c2 = gain[:, None] * q1, gain[:, None] * q2
    c1[:, IYIN1] += refl
    c2[:, IYIN2] -= refl
    forms = np.stack([noise.form(w, *noise_weights(a, b))
                      for a, b in ((c1, c1), (c2, c2), (c1, c2))])
    entangler = np.abs(d[:, IXINB]) ** 2 + np.abs(d[:, IYINB]) ** 2
    return planes, forms, entangler


class TestDegreeSweep:
    def test_decoupled_commutator_closed_form(self, decoupled):
        # with g = G = 0 the only contribution is mechanical:
        # <[R_q1, R_p1]> = i Gamma omega^2 |chi|^2 / Omega^2
        params, sys = decoupled
        noise = NoiseModel(0.0, params.big_gamma, params.big_omega)
        for w in (0.4e5, 1.0e5, 2.3e5):
            out = degree_sweep(sys, noise, [w])
            expected = (
                params.big_gamma * w ** 2 * abs(chi(w, params)) ** 2
                / params.big_omega ** 2
            )
            assert out["commutator_sq"][0] == pytest.approx(
                expected ** 2, rel=1e-10
            )

    @pytest.mark.parametrize("temperature", [0.0, 0.1, 300.0])
    def test_decoupled_variances_closed_form(self, decoupled, temperature):
        # with g = G = 0 each mirror is a free Brownian oscillator, so
        # Var(u) = |chi|^2 [S_xi(w) + S_xi(-w)] / 2 and, since
        # p = -i (w / Omega) q, Var(v) = (w / Omega)^2 Var(u)
        params, sys = decoupled
        noise = NoiseModel(temperature, params.big_gamma, params.big_omega)
        w = hybrid_grid(params.big_omega)
        out = degree_sweep(sys, noise, w)
        expected = 0.5 * abs(chi(w, params)) ** 2 * (
            noise.brownian_spectrum(w) + noise.brownian_spectrum(-w)
        )
        rho = w / params.big_omega
        assert np.allclose(out["var_u"], expected, rtol=1e-10, atol=0)
        assert np.allclose(out["var_v"], rho ** 2 * expected, rtol=1e-10,
                           atol=0)

    def test_no_entangler_never_entangled(self, meters_only):
        params, sys = meters_only
        noise = NoiseModel.from_params(params)
        w = np.linspace(0.5, 1.5, 201) * params.big_omega
        out = degree_sweep(sys, noise, w)
        assert np.all(out["degree"] >= 1.0 - 1e-9)

    def test_variances_do_not_decrease_with_temperature(self, fig2):
        # Thermal noise only adds to the mirrors' motion: at every omega of
        # the grid, Var(u) and Var(v) do not decrease from T to T.
        params, sys = fig2
        omegas = hybrid_grid(params.big_omega)
        previous = None
        for temp in (0.1, 1.0, 4.0, 77.0, 300.0):
            noise = NoiseModel(temp, params.big_gamma, params.big_omega)
            out = degree_sweep(sys, noise, omegas)
            if previous is not None:
                for key in ("var_u", "var_v"):
                    assert np.all(out[key] >= previous[key]), (temp, key)
            previous = out

    def test_zero_frequency_has_no_degree(self, fig2, fig2_noise):
        # The commutator is proportional to omega, so E(0) is undefined;
        # the readout spectra at omega = 0 are finite.
        _, sys = fig2
        w = [0.0, sys.params.big_omega]
        with pytest.raises(DegenerateCommutatorError):
            degree_sweep(sys, fig2_noise, w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spectra = two_channel_spectra(sys, fig2_noise, w)
            got = (output_spectrum(sys, fig2_noise, w, 1), spectra.s11,
                   spectra.s12)
        assert all(np.isfinite(x).all() for x in got)

    def test_minimum_at_mechanical_resonance(self, fig2, fig2_noise):
        _, sys = fig2
        om = sys.params.big_omega
        w = np.linspace(0.5, 1.5, 401) * om
        out = degree_sweep(sys, fig2_noise, w)
        assert w[np.argmin(out["degree"])] == pytest.approx(om, abs=w[1] - w[0])

    def test_epr_at_low_temperature(self, fig2):
        params, sys = fig2
        noise = NoiseModel(0.1, params.big_gamma, params.big_omega)
        degree = degree_sweep(sys, noise, [params.big_omega])["degree"][0]
        assert degree < 0.25

    def test_entangled_at_4k(self, fig2):
        params, sys = fig2
        noise = NoiseModel(4.0, params.big_gamma, params.big_omega)
        degree = degree_sweep(sys, noise, [params.big_omega])["degree"][0]
        assert degree < 1.0

    def test_halved_kernel_entangled_but_not_epr_at_4k(self, fig2):
        params, sys = fig2
        noise = NoiseModel(4.0, params.big_gamma, params.big_omega, "halved")
        degree = degree_sweep(sys, noise, [params.big_omega])["degree"][0]
        assert 0.25 < degree < 1.0

    def test_halved_kernel_also_shows_entanglement(self, fig2):
        params, sys = fig2
        noise = NoiseModel(0.1, params.big_gamma, params.big_omega, "halved")
        degree = degree_sweep(sys, noise, [params.big_omega])["degree"][0]
        assert degree < 0.25

    def test_degree_monotone_in_temperature(self, fig2):
        params, sys = fig2
        degrees = []
        for temp in np.geomspace(0.1, 300.0, 12):
            noise = NoiseModel(temp, params.big_gamma, params.big_omega)
            degrees.append(
                degree_sweep(sys, noise, [params.big_omega])["degree"][0]
            )
        assert all(b >= a - 1e-9 for a, b in zip(degrees, degrees[1:]))

    def test_commutator_bitwise_temperature_independent(self, fig2):
        params, sys = fig2
        w = np.linspace(0.5, 1.5, 51) * params.big_omega
        ref = None
        for temp in (0.1, 4.0, 300.0):
            noise = NoiseModel(temp, params.big_gamma, params.big_omega)
            comm = degree_sweep(sys, noise, w)["commutator_sq"]
            if ref is None:
                ref = comm
            else:
                assert np.array_equal(comm, ref)

    def test_reference_point_takes_the_position_rows(
            self, fig2, decoupled, meters_only, monkeypatch):
        # Every system of build_linear_system is the model, whose u and d
        # rows the sweep and the readout take in closed form: none of them
        # reaches selected_transfer_rows, which the via-transfer readout does.
        def forbidden(*args, **kwargs):
            raise AssertionError("the model's rows need no solve")

        monkeypatch.setattr(dynamics, "_transfer_rows", forbidden)
        for params, sys in (fig2, decoupled, meters_only):
            noise = NoiseModel.from_params(params)
            w = np.linspace(0.5, 1.5, 101) * params.big_omega
            degree_sweep(sys, noise, w)
            entanglement._planes(sys, w)
            output_spectrum(sys, noise, w, 1)
            two_channel_spectra(sys, noise, w)
            with pytest.raises(AssertionError, match="no solve"):
                readout.output_spectrum_via_transfer(sys, noise, w, 1)

    @pytest.mark.parametrize("temperature", [0.0, 0.1, 300.0])
    def test_sweep_is_the_form_of_its_position_rows(self, fig2, temperature):
        # The sweep forms its planes from the real factors of the u and d
        # rows, not from the rows.  Bit for bit: the Brownian planes x_u and
        # x_v are those of the rows (u2 and v2 are the squared moduli of the
        # rows' own entries).  The forms agree with those of the rows to
        # 8 eps: Var(u) and Var(v) relative to themselves, and the
        # commutator relative to its Brownian and vacuum terms, which cancel
        # near its zero crossings (measured: 3.8 eps and 3.3 eps).
        params, sys = fig2
        noise = NoiseModel(temperature, params.big_gamma, params.big_omega)
        w = hybrid_grid(params.big_omega)
        planes = entanglement._planes(sys, w)
        rows, _, _ = row_forms(sys, noise, w)
        assert np.array_equal(planes[:2], rows[:2])
        out = degree_sweep(sys, noise, w)
        var = noise._form_real(w, rows[:2], rows[2:4], temperature)
        want = {"var_u": var[0], "var_v": var[1],
                "commutator_sq": noise._form_imag(w, rows[4], rows[5]) ** 2}
        eps = np.finfo(float).eps
        for key in ("var_u", "var_v"):
            rel = np.abs(out[key] - want[key]) / want[key]
            assert rel.max() <= 8.0 * eps, (key, rel.max() / eps)
        terms = noise.pref * w * np.abs(planes[4]) + np.abs(planes[5])
        gap = np.abs(np.sqrt(out["commutator_sq"])
                     - np.sqrt(want["commutator_sq"]))
        assert np.all(gap <= 8.0 * eps * terms), (gap / terms).max() / eps

    @pytest.mark.parametrize("temperature", [0.0, 0.1, 300.0])
    @pytest.mark.parametrize("grid", ["hybrid", "crossings"])
    def test_position_rows_agree_with_four_row_forms(self, fig2, temperature,
                                                     grid):
        # The commutator vanishes near 0.923917 and 1.070688 Omega.  Within
        # 2e-4 Omega of each, its Brownian and vacuum terms cancel by up to
        # 1.8e6 times, and both paths round to a few 1e-16 of those terms:
        # there the commutator is held to the terms, not to itself.  The
        # hybrid grid has one point there at each crossing (0.924 and
        # 1.0705 Omega); at 0.924 Omega the two paths are ~5e-13 off the
        # reference in opposite directions.  tests/test_precision.py holds
        # the sweep to the reference at both points.
        params, sys = fig2
        om = params.big_omega
        noise = NoiseModel(temperature, params.big_gamma, om)
        if grid == "hybrid":
            w = hybrid_grid(om)
            near = np.any([np.abs(w / om - c) <= 2e-4
                           for c in COMMUTATOR_CROSSINGS], axis=0)
            assert near.sum() == 2
        else:
            w = np.concatenate([np.linspace(c - 2e-4, c + 2e-4, 401)
                                for c in COMMUTATOR_CROSSINGS]) * om
            near = np.ones(w.size, dtype=bool)
        out = degree_sweep(sys, noise, w)
        want = four_row_forms(sys, noise, w)
        for key in want:
            far = ~near if key == "commutator_sq" else slice(None)
            rel = np.abs(out[key] - want[key])[far] / want[key][far]
            assert rel.max(initial=0.0) <= 1e-12, (key, rel.max())
        q1, p1 = selected_transfer_rows(
            sys, w[near], np.column_stack([Q1_SELECTOR, P1_SELECTOR])
        ).transpose(1, 0, 2)
        _, xi_imag, _, pairs = noise_weights(q1, p1)
        terms = noise.pref * w[near] * np.abs(xi_imag) + np.abs(pairs)
        gap = np.abs(np.sqrt(out["commutator_sq"][near])
                     - np.sqrt(want["commutator_sq"][near]))
        assert np.all(gap <= 2e-15 * terms), (gap / terms).max()

    @pytest.mark.parametrize("case", ["q damping", "unequal Omega",
                                      "noise into q", "silent", "X_b ulp",
                                      "Y_b ulp"])
    def test_hand_built_system_is_refused(self, fig2, case):
        # The sweep and the readout take the model's closed-form rows, which
        # only a drift and coupling equal to the model's have.  The first
        # three edits break p_j = (-i omega / Omega) q_j, with which those
        # rows would put Var(v) off by up to 1% (q damping) or 100%; the last
        # two differ from the model in one entangler entry by one ulp, where
        # they would still pass any value check.  No edit can be made: the
        # system's arrays are read-only and LinearSystem takes none.
        params, model = fig2
        om = params.big_omega
        sys = LinearSystem(params)
        drift, coupling = sys.drift, sys.noise_coupling
        if case == "q damping":
            edits = [(drift, (IQ1, IQ1), -1e-3 * om),
                     (drift, (IQ2, IQ2), -1e-3 * om)]
        elif case == "unequal Omega":
            edits = [(drift, (IQ2, IP2), 1.001 * drift[IQ2, IP2])]
        elif case == "noise into q":
            edits = [(coupling, (IQ1, IXI1), 1.0),
                     (coupling, (IQ2, IXI2), 1.0)]
        elif case == "silent":
            edits = [(coupling, slice(None), 0.0)]
        else:
            entry = (IXB, IQ1) if case == "X_b ulp" else (IYB, IXB)
            edits = [(drift, entry, np.nextafter(drift[entry], np.inf))]
        hand_built = {"drift": drift.copy(), "noise_coupling": coupling.copy()}
        for array, entry, value in edits:
            with pytest.raises(ValueError, match="read-only"):
                array[entry] = value
            hand_built["drift" if array is drift else "noise_coupling"][
                entry] = value
        assert not all(np.array_equal(hand_built[k], getattr(model, k))
                       for k in hand_built)
        with pytest.raises(TypeError):
            LinearSystem(params, **hand_built)
        assert np.array_equal(drift, model.drift)
        assert np.array_equal(coupling, model.noise_coupling)
        noise = NoiseModel(0.1, params.big_gamma, om)
        w = np.linspace(0.5, 1.5, 101) * om
        got, want = degree_sweep(sys, noise, w), degree_sweep(model, noise, w)
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key]), key

    def test_degenerate_commutator_raises(self, fig2):
        params, _ = fig2
        noise = NoiseModel.from_params(params)
        with pytest.raises(DegenerateCommutatorError):
            entanglement._degree(np.zeros((6, 1)), noise,
                                 np.array([params.big_omega]),
                                 noise.temperature)


@pytest.mark.filterwarnings("ignore:expected entangler coupling")
class TestRowFactorForms:
    # The sweep's planes and the direct readout spectra are formed from the
    # five real factors of dynamics._row_factors, never from rows; here
    # they are held to the forms of the rows themselves (row_forms).
    SUMS = (0, 1, 2, 3, 4)      # the planes that are sums of squares

    @settings(max_examples=40, deadline=None)
    @given(point=working_points())
    def test_weights_and_spectra_are_the_forms_of_the_rows(self, point):
        # Over the mirror blocks' poles too.  Bounds: 16 eps relative for
        # every plane that is a sum of squares and for the auto spectra
        # (measured over 300 draws: 5.4 eps and 4.0 eps); the (q1, p1)
        # pairs plane to 4 eps of rho (|d_Xb|^2 + |d_Yb|^2), because the
        # rows' Im(d_Xb conj d_Yb) cancels and the factor does not (0.92
        # eps); the cross spectrum, a difference of the two mirrors' terms,
        # to 16 eps of the auto spectrum that bounds it (3.8 eps; up to
        # 47% of itself).  Im s12 is 0.
        params, kernel = point
        sys = build_linear_system(params)
        noise = NoiseModel.from_params(params, kernel)
        w = np.concatenate([np.geomspace(0.1, 10.0, 65) * params.big_omega,
                            mirror_poles(sys)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = entanglement._planes(sys, w)
            spectra = two_channel_spectra(sys, noise, w)
            direct = [output_spectrum(sys, noise, w, j) for j in (1, 2)]
            want, forms, entangler = row_forms(sys, noise, w)
        eps = np.finfo(float).eps
        for k in self.SUMS:
            rel = np.abs(got[k] - want[k]) / want[k]
            assert rel.max() <= 16.0 * eps, (k, rel.max() / eps)
        rho = w / params.big_omega
        assert np.all(np.abs(got[5] - want[5])
                      <= 4.0 * eps * rho * entangler)
        auto = forms[:2].real
        for have in (spectra.s11, spectra.s22, *direct):
            assert np.all(np.abs(have - auto) <= 16.0 * eps * auto)
        assert np.all(np.abs(spectra.s12 - forms[2])
                      <= 16.0 * eps * auto[0])
        assert not spectra.s12.imag.any()

    def test_extreme_working_points_stay_finite(self):
        # Each rate and power of the reference point scaled by its own
        # factor 10**[-30, 30] (seeded; draws outside MAGNITUDE_RANGE are
        # refused and skipped), over [1e-3, 1e3] Omega: wherever the forms
        # of the rows are finite and raise no warning, the sweep's planes
        # and the readout spectra are finite and raise none either.
        rng = np.random.default_rng(2002)
        base = make_params()
        evaluated = 0
        for _ in range(600):
            values = {f: getattr(base, f) * 10.0 ** rng.uniform(-30.0, 30.0)
                      for f in RATE_FIELDS}
            values["delta_b"] *= rng.choice([-1.0, 1.0])
            try:
                params = make_params(**values)
                sys = build_linear_system(params)
                w = np.geomspace(1e-3, 1e3, 61) * params.big_omega
                frequency_grid(w)
            except InvalidParameterError:
                continue
            noise = NoiseModel.from_params(params)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    want = row_forms(sys, noise, w)
                except (RuntimeWarning, SingularityError):
                    continue
                if not all(np.isfinite(x).all() for x in want):
                    continue
                spectra = two_channel_spectra(sys, noise, w)
                got = (entanglement._planes(sys, w), spectra.s11,
                       spectra.s12, output_spectrum(sys, noise, w, 1))
            assert all(np.isfinite(x).all() for x in got), values
            evaluated += 1
        assert evaluated >= 300, evaluated


def _sweep_at(params, kernel, omegas):
    noise = NoiseModel.from_params(params, kernel)
    return degree_sweep(build_linear_system(params), noise, omegas)


def _mapped(params, **changes):
    """params with changes; a draw that leaves MAGNITUDE_RANGE is skipped."""
    try:
        return dataclasses.replace(params, **changes)
    except InvalidParameterError:
        assume(False)


@pytest.mark.filterwarnings("ignore:expected entangler coupling")
class TestExactInvariances:
    # E(omega) is dimensionless and the drift sees the drives only through
    # g*alpha, G*beta and the photon flux P/(hbar*omega_0).  Factors that
    # are powers of 4 (square roots of powers of 2 are exact) must leave
    # every bit of E unchanged.
    GRID = np.geomspace(0.1, 10.0, 129)

    @settings(max_examples=30, deadline=None)
    @given(point=working_points(), k=st.integers(-2, 2))
    def test_rates_powers_and_temperature_scale_out(self, point, k):
        params, kernel = point
        lam = 4.0 ** k
        scaled = _mapped(params, **{f: getattr(params, f) * lam
                                    for f in RATE_FIELDS})
        omegas = self.GRID * params.big_omega
        want = _sweep_at(params, kernel, omegas)
        got = _sweep_at(scaled, kernel, lam * omegas)
        assert np.array_equal(got["degree"], want["degree"])
        assert np.array_equal(got["var_u"], want["var_u"] / lam)

    @settings(max_examples=30, deadline=None)
    @given(point=working_points(),
           pair=st.sampled_from([("g", "p_in_a"), ("big_g", "p_in_b")]))
    def test_coupling_doubled_with_power_quartered(self, point, pair):
        params, kernel = point
        coupling, power = pair
        mapped = _mapped(params, **{coupling: 2.0 * getattr(params, coupling),
                                    power: getattr(params, power) / 4.0})
        omegas = self.GRID * params.big_omega
        assert np.array_equal(_sweep_at(mapped, kernel, omegas)["degree"],
                              _sweep_at(params, kernel, omegas)["degree"])

    @settings(max_examples=30, deadline=None)
    @given(point=working_points())
    def test_meter_carrier_and_power_quadrupled(self, point):
        params, kernel = point
        mapped = _mapped(params, omega_a0=4.0 * params.omega_a0,
                         p_in_a=4.0 * params.p_in_a)
        omegas = self.GRID * params.big_omega
        assert np.array_equal(_sweep_at(mapped, kernel, omegas)["degree"],
                              _sweep_at(params, kernel, omegas)["degree"])


def commutator_sum(params, kernel):
    """(1/pi) int_0^inf Im F(q1, p1) d omega, with Im F read from the sweep's
    xi and pairs planes: 1/2 in a stationary state, where it is
    [q1, p1] = i.

    Trapezoid rule over [1e-3, 1e14] s^-1 on geometric points merged with
    sinh-clustered points around each |Im lambda| of the drift, of
    half-width |Re lambda|, at 1500 and at 2999 points per part (nested
    grids), and Richardson extrapolation of the two sums."""
    sys = build_linear_system(params)
    noise = NoiseModel.from_params(params, kernel)
    lo, hi = 1e-3, 1e14
    poles = np.linalg.eigvals(sys.drift)
    centres = set(zip(np.abs(poles.imag), np.abs(poles.real)))
    sums = []
    for m in (1500, 2999):
        parts = [np.geomspace(lo, hi, m)]
        for c, h in centres:
            t = np.linspace(-np.arcsinh(c / h), np.arcsinh((hi - c) / h), m)
            parts.append(c + h * np.sinh(t))
        w = np.unique(np.concatenate(parts))
        w = w[(w >= lo) & (w <= hi)]
        planes = entanglement._planes(sys, w)
        f = noise._form_imag(w, planes[4], planes[5])
        sums.append(np.sum(np.diff(w) * (f[1:] + f[:-1])) / (2.0 * np.pi))
    return (4.0 * sums[1] - sums[0]) / 3.0


class TestCommutatorSumRule:
    # The equal-time commutator is the integral of its spectrum, which E's
    # denominator reads per frequency.  This oracle needs no reference
    # value and shares no code with the 30-digit one.
    FREE_MIRROR = dict(g=0.0, big_g=0.0, big_gamma=1e3)

    @pytest.mark.parametrize("point", [FREE_MIRROR, dict(big_g=0.0), P_STAR],
                             ids=["free-mirror", "meters-only", "P*"])
    def test_corrected_kernel_keeps_the_canonical_commutator(self, point):
        total = commutator_sum(make_params(**point), "corrected")
        assert abs(total - 0.5) <= 1e-6, total

    def test_halved_kernel_halves_the_free_mirror_commutator(self):
        total = commutator_sum(make_params(**self.FREE_MIRROR), "halved")
        assert abs(total - 0.25) <= 1e-6, total

    def test_unstable_point_breaks_the_rule(self):
        # The Fig. 2 point's drift has an eigenvalue with real part
        # +4.5e5 s^-1: its resolvent spectra describe no stationary state.
        total = commutator_sum(make_params(), "corrected")
        assert total == pytest.approx(0.24329, abs=1e-4)


class TestGaussianState:
    def test_vacuum_is_physical_and_separable(self):
        state = GaussianState(cov=0.5 * np.eye(4))
        assert state.physicality_margin() == pytest.approx(0.0, abs=1e-12)
        product, bound = separability_product(state)
        assert bound == 1.0
        assert product == pytest.approx(1.0, rel=1e-14)

    def test_thermal_product(self):
        nbar = 1.7
        state = GaussianState(cov=(nbar + 0.5) * np.eye(4))
        product, _ = separability_product(state)
        assert product == pytest.approx((1.0 + 2.0 * nbar) ** 2, rel=1e-12)

    def test_tmsv_product_closed_form(self):
        for r in (0.3, 1.0, 2.0):
            state = tmsv_state(r)
            q_sum = state.cov[0, 0] + state.cov[2, 2] + 2 * state.cov[0, 2]
            p_diff = state.cov[1, 1] + state.cov[3, 3] - 2 * state.cov[1, 3]
            assert q_sum == pytest.approx(np.exp(-2 * r), rel=1e-12)
            assert p_diff == pytest.approx(np.exp(-2 * r), rel=1e-12)
            product, _ = separability_product(state)
            assert product == pytest.approx(np.exp(-4 * r), rel=1e-12)

    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    def test_tmsv_product_precision_limit(self, r):
        # Var(q1 + q2) = e^{-2r} is a difference of entries of size
        # cosh(2r)/2, so the product's relative error grows as
        # eps cosh^2(2r): at most 1.0 of it was measured for these r
        product, _ = separability_product(tmsv_state(r))
        exact = np.exp(-4.0 * r)
        eps = np.finfo(float).eps
        assert abs(product - exact) / exact <= 4.0 * eps * np.cosh(2.0 * r) ** 2

    def test_large_r_verdict_survives_rounding(self):
        # the product rounds to 0 here, far below its true e^{-4r}, but the
        # verdict product < 1 is still right
        for r in (10.0, 20.0):
            assert separability_product(tmsv_state(r))[0] < 1.0
            assert optimize_separability(tmsv_state(r))[1] < 1.0

    def test_tmsv_zero_is_vacuum(self):
        assert np.allclose(tmsv_state(0.0).cov, 0.5 * np.eye(4))

    def test_tmsv_remains_physical_at_large_r(self):
        state = tmsv_state(20.0)
        assert state.physicality_margin() >= -1e-9 * np.abs(state.cov).max()

    def test_physicality_allowance_scales_with_the_state(self):
        # eigvalsh rounds the margin of these physical states down to about
        # -2 eps times the largest eigenvalue: a fixed -1e-9 refused 795 of
        # them, the first at r = 10 with scalings (1, 1.3)
        rng = np.random.default_rng(5)
        rs = rng.uniform(0.0, 20.0, 2000)
        scalings = np.exp(rng.uniform(-1.0, 1.0, (2000, 2)))
        for r, pair in zip(rs, scalings):
            tmsv_state(r, tuple(pair))
        tmsv_state(10.0, (1.0, 1.3))

    def test_physicality_allowance_still_refuses(self):
        cov = tmsv_state(10.0, (1.0, 1.3)).cov
        with pytest.raises(UnphysicalStateError):
            GaussianState(cov=cov - 1e-6 * np.abs(cov).max() * np.eye(4))
        with pytest.raises(UnphysicalStateError):
            GaussianState(cov=(0.5 - 2e-9) * np.eye(4))

    def test_negative_r_rejected(self):
        with pytest.raises(InvalidParameterError):
            tmsv_state(-0.1)
        with pytest.raises(InvalidParameterError, match="^r must be finite"):
            tmsv_state(np.nan)
        with pytest.raises(InvalidParameterError):
            tmsv_state(0.5, (0.0, 1.0))
        with pytest.raises(InvalidParameterError, match="^local_scalings"):
            tmsv_state(0.5, (1.0,))

    def test_unphysical_state_raises(self):
        with pytest.raises(UnphysicalStateError) as excinfo:
            GaussianState(cov=0.1 * np.eye(4))
        assert excinfo.value.margin < 0

    def test_bad_shapes_rejected(self):
        with pytest.raises(InvalidParameterError):
            GaussianState(cov=np.eye(3))
        with pytest.raises(InvalidParameterError):
            GaussianState(cov=np.eye(4), mean=np.zeros(3))

    def test_file_roundtrip(self, tmp_path):
        state = tmsv_state(0.8)
        path = tmp_path / "state.txt"
        state.to_file(path)
        loaded = GaussianState.from_file(path)
        assert np.allclose(loaded.cov, state.cov, rtol=0, atol=1e-15)
        assert np.all(loaded.mean == 0)

    def test_file_roundtrip_with_mean(self, tmp_path):
        state = GaussianState(cov=np.eye(4), mean=np.array([1.0, -2.0, 0.5, 0.0]))
        path = tmp_path / "state.txt"
        state.to_file(path)
        loaded = GaussianState.from_file(path)
        assert np.allclose(loaded.mean, state.mean, rtol=0, atol=1e-15)

    def test_file_bad_shape(self, tmp_path):
        path = tmp_path / "bad.txt"
        np.savetxt(path, np.eye(3))
        with pytest.raises(InvalidParameterError):
            GaussianState.from_file(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        cov = 0.5 * np.eye(4)
        cov[1, 3] = cov[3, 1] = bad
        with pytest.raises(InvalidParameterError):
            GaussianState(cov=cov)
        with pytest.raises(InvalidParameterError):
            GaussianState(cov=0.5 * np.eye(4), mean=[0.0, bad, 0.0, 0.0])

    def test_symmetry_tolerance_is_that_of_allclose(self):
        # the largest cov[2, 0] that np.allclose(cov, cov.T) accepts, found
        # to the ulp: require_physical must accept it and reject the next
        cov = np.eye(4)
        cov[0, 2] = 0.1

        def with_entry(x):
            out = cov.copy()
            out[2, 0] = x
            return out

        x = 0.1 + (1e-8 + 1e-5 * 0.1)
        while np.allclose(with_entry(x), with_entry(x).T):
            x = np.nextafter(x, np.inf)
        while not np.allclose(with_entry(x), with_entry(x).T):
            x = np.nextafter(x, -np.inf)
        GaussianState(cov=with_entry(x))
        with pytest.raises(UnphysicalStateError, match="not symmetric"):
            GaussianState(cov=with_entry(np.nextafter(x, np.inf)))


class TestSeparabilityWeighting:
    def test_zero_weight_rejected(self):
        state = tmsv_state(0.5)
        with pytest.raises(InvalidParameterError):
            separability_product(state, 0.0)
        for bad in (0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidParameterError):
                separability_products(state.cov, [1.0, bad])

    def test_vectorized_matches_scalar(self):
        covs, _ = sample_separable_covariances(seed=3, count=16)
        a_values = np.array([-2.0, 0.25, 0.5, 1.0, 2.0, 4.0])
        batch = separability_products(covs, a_values)
        assert batch.shape == (16, 6)
        for i in range(4):
            for k, a in enumerate(a_values):
                single, _ = separability_product(GaussianState(cov=covs[i]), a)
                assert batch[i, k] == single

    def test_sign_of_a_only_enters_through_magnitude(self):
        state = tmsv_state(0.7)
        plus = separability_products(state.cov, [2.0])[0]
        # q weighting uses |a| while the relative sign sits in the p part, so
        # a and -a give the same product for symmetric states
        minus_cov = state.cov.copy()
        assert separability_products(minus_cov, [2.0])[0] == pytest.approx(
            plus, rel=1e-14
        )

    def test_optimizer_beats_unit_weight_for_scaled_tmsv(self):
        state = tmsv_state(1.0, local_scalings=(1.0, 2.0))
        at_unit, _ = separability_product(state, 1.0)
        best_a, best = optimize_separability(state)
        assert best <= at_unit + 1e-12
        assert best < at_unit  # unit weighting is strictly suboptimal here
        assert best < 1.0  # the optimal weighting recovers the violation

    def test_strong_local_scaling_defeats_fixed_weighting_family(self):
        # the u, v weights share a single parameter, so they cannot undo an
        # arbitrary local symplectic scaling; for a strong enough one the
        # criterion stops certifying even though the state stays entangled
        state = tmsv_state(1.0, local_scalings=(1.0, 3.0))
        _, best = optimize_separability(state)
        assert best > 1.0

    def test_optimizer_matches_brute_force(self):
        for r, scalings in ((0.5, (1.0, 2.0)), (1.2, (0.7, 1.4))):
            state = tmsv_state(r, local_scalings=scalings)
            _, best = optimize_separability(state)
            grid = np.exp(np.linspace(np.log(1e-3), np.log(1e3), 20001))
            brute = separability_products(state.cov, grid).min()
            # the continuous search can only undercut the discrete grid
            assert best <= brute * (1.0 + 1e-12)
            assert best == pytest.approx(brute, rel=1e-4)

    def test_optimizer_on_vacuum_returns_unit_product(self):
        best_a, best = optimize_separability(GaussianState(cov=0.5 * np.eye(4)))
        assert best == pytest.approx(1.0, rel=1e-9)

    def test_optimizer_rejects_unphysical(self):
        with pytest.raises(UnphysicalStateError):
            optimize_separability(GaussianState(cov=0.05 * np.eye(4)))

    def test_separable_samples_respect_bound(self):
        covs, _ = sample_separable_covariances(seed=5, count=500)
        a_values = 2.0 ** np.arange(-5, 6, dtype=float)
        products = separability_products(covs, a_values)
        assert products.min() >= 1.0 - 1e-9


def _random_tmsv(seed, count):
    """TMSV states with r in [0, 1.5] and local scalings e^[-1, 1]."""
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.0, 1.5, size=count)
    scal = np.exp(rng.uniform(-1.0, 1.0, size=(count, 2)))
    return np.stack([tmsv_state(ri, tuple(si)).cov for ri, si in zip(r, scal)])


def _random_symplectic_images(seed, count):
    """S diag(n1, n1, n2, n2) S^T with S = expm(Sigma H), H random symmetric:
    every two-mode Gaussian state has this form (Williamson)."""
    rng = np.random.default_rng(seed)
    h = rng.normal(scale=0.5, size=(count, 4, 4))
    s = np.stack([expm(SYMPLECTIC_FORM @ (x + x.T)) for x in h])
    nu = 0.5 + rng.exponential(0.3, size=(count, 2))
    covs = s * np.repeat(nu, 2, axis=1)[:, None, :] @ s.transpose(0, 2, 1)
    return 0.5 * (covs + covs.transpose(0, 2, 1))


_RANDOM_STATES = {
    "separable": lambda: sample_separable_covariances(seed=41, count=300)[0],
    "tmsv": lambda: _random_tmsv(42, 300),
    "symplectic": lambda: _random_symplectic_images(43, 300),
}


def _smallest_pt_symplectic_eigenvalue(covs):
    """Smallest symplectic eigenvalue of the partial transpose (p2 -> -p2)."""
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    pt = flip @ covs @ flip
    return np.abs(np.linalg.eigvals(1j * SYMPLECTIC_FORM @ pt)).min(axis=-1)


@pytest.mark.parametrize("kind", sorted(_RANDOM_STATES))
class TestClosedFormOptimum:
    """Independent oracles for separability_optimum over random states."""

    def test_dense_grid_brackets_the_optimum(self, kind):
        covs = _RANDOM_STATES[kind]()
        best_a, best = separability_optimum(covs)
        grid = np.exp(np.linspace(np.log(1e-3), np.log(1e3), 20001))
        brute = separability_products(covs, grid).min(axis=1)
        # the grid brackets every optimum here, and its spacing bounds how
        # far its minimum can sit above the true one
        assert np.all((best_a > 1e-3) & (best_a < 1e3))
        assert np.all(best <= brute * (1.0 + 1e-12))
        assert np.all(best >= brute * (1.0 - 1e-4))

    def test_not_above_unit_weighting(self, kind):
        covs = _RANDOM_STATES[kind]()
        _, best = separability_optimum(covs)
        assert np.all(best <= separability_products(covs, [1.0])[:, 0])

    def test_flagged_states_fail_ppt(self, kind):
        # PPT is necessary and sufficient for two-mode Gaussian states
        # (Simon, PRL 84, 2726, 2000): whatever the product criterion flags
        # must have a partial-transpose symplectic eigenvalue below 1/2
        covs = _RANDOM_STATES[kind]()
        _, best = separability_optimum(covs)
        flagged = best < 1.0
        if kind == "separable":
            assert not np.any(flagged)
        else:
            assert flagged.sum() >= 5
        assert np.all(_smallest_pt_symplectic_eigenvalue(covs[flagged]) < 0.5)

    def test_margin_is_the_smallest_eigenvalue(self, kind):
        for cov in _RANDOM_STATES[kind]():
            h = cov + 0.5j * SYMPLECTIC_FORM
            margin = GaussianState(cov=cov).physicality_margin()
            assert margin == float(np.linalg.eigvalsh(h).min())

    def test_batched_equals_per_state(self, kind):
        covs = _RANDOM_STATES[kind]()
        best_a, best = separability_optimum(covs)
        for i, cov in enumerate(covs):
            a_i, best_i = separability_optimum(cov)
            assert (a_i, best_i) == (best_a[i], best[i]), i
            assert optimize_separability(GaussianState(cov=cov)) == (a_i, best_i)


@pytest.mark.parametrize("seed", [7, 31])
def test_per_state_loop_is_the_batched_calls(seed):
    # the separability workload's loop: one GaussianState, the product at
    # a = 1 and the optimum per state, bit for bit the batched calls; the
    # large-r TMSVs round their products to 0 or below
    covs = np.concatenate([
        sample_separable_covariances(seed, 200)[0], _random_tmsv(seed, 200),
        np.stack([tmsv_state(r).cov for r in (5.0, 10.0, 20.0)]),
        tmsv_state(8.0, (1.0, 1.3)).cov[None],
    ])
    at_unit, best_a, best = (np.empty(len(covs)) for _ in range(3))
    for i, cov in enumerate(covs):
        state = GaussianState(cov=cov)
        at_unit[i], _ = separability_product(state, 1.0)
        best_a[i], best[i] = optimize_separability(state)
    batched_a, batched = separability_optimum(covs)
    assert at_unit.tobytes() == separability_products(covs, [1.0])[:, 0].tobytes()
    assert best_a.tobytes() == batched_a.tobytes()
    assert best.tobytes() == batched.tobytes()


def _vacuum_with(index, value):
    cov = 0.5 * np.eye(4)
    cov[index] = value
    return cov


#: Covariances that are not a finite real array of shape (..., 4, 4).
BAD_COVS = {
    "nan": _vacuum_with((0, 2), np.nan), "inf": _vacuum_with((1, 3), np.inf),
    "3x3": 0.5 * np.eye(3), "vector": np.full(4, 0.5),
}


@pytest.mark.parametrize("covs", BAD_COVS.values(), ids=BAD_COVS.keys())
@pytest.mark.parametrize("call", [
    lambda covs: separability_products(covs, [1.0]), separability_optimum,
], ids=["separability_products", "separability_optimum"])
def test_batched_calls_check_their_covariances(call, covs):
    # A NaN entry gave a NaN product, and a (3, 3) array a raw IndexError.
    with pytest.raises(InvalidParameterError, match="covs"):
        call(covs)


class TestSeparabilityOptimumInput:
    def test_inexact_roots_never_beat_unit_weighting(self, monkeypatch):
        # with every root made positive and off by 1e-3, no root-derived
        # candidate hits the optimum a = 1 of equal-scaling TMSV states; a = 1
        # is a candidate of its own, so the result is still exactly f(1)
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda m: np.abs(eigvals(m)) * (1.0 + 1e-3))
        covs = np.stack([tmsv_state(r, (1.3, 1.3)).cov for r in (0.2, 0.9)])
        best_a, best = separability_optimum(covs)
        assert np.all(best_a == 1.0)
        assert np.all(best == separability_products(covs, [1.0])[:, 0])

    def test_batch_shapes(self):
        covs = _random_tmsv(45, 6).reshape(2, 3, 4, 4)
        best_a, best = separability_optimum(covs)
        assert best_a.shape == best.shape == (2, 3)
        a0, b0 = separability_optimum(covs[1, 2])
        assert (a0.shape, b0.shape) == ((), ())
        assert (a0, b0) == (best_a[1, 2], best[1, 2])

    @pytest.mark.parametrize("entries", [
        {(0, 0): 0.0}, {(1, 1): 0.0}, {(2, 2): np.inf}, {(3, 3): np.nan},
        {(2, 2): 1e200, (3, 3): 1e200},     # Var q2 Var p2 overflows
    ])
    def test_degenerate_or_non_finite_rejected(self, entries):
        cov = 0.5 * np.eye(4)
        for index, value in entries.items():
            cov[index] = value
        with pytest.raises(InvalidParameterError):
            separability_optimum(cov)
