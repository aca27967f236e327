"""Tests for the homodyne readout channels and current combination."""

import tracemalloc

import numpy as np
import pytest

from mirrorpair import (
    NoiseModel,
    dynamics,
    model,
    readout,
    build_linear_system,
    combine_currents,
    fig2_params,
    gain_condition,
    hybrid_grid,
    output_spectrum,
    output_spectrum_via_transfer,
    steady_state,
    two_channel_spectra,
)
from mirrorpair.dynamics import selected_transfer_rows, IYIN1, IYIN2, IQ1, IQ2, N_STATE
from mirrorpair.errors import InvalidParameterError

from conftest import P_STAR, meter_output, raises_one_line


class TestMeterGain:
    @pytest.mark.parametrize("overrides", [{}, P_STAR], ids=["fig2", "pstar"])
    def test_row_factor_meter_is_gain_squared(self, overrides):
        # Every readout spectrum takes |gain|^2 as 4 meter of _row_factors.
        sys = build_linear_system(fig2_params(**overrides))
        w = dynamics.frequency_grid(
            np.geomspace(0.01, 100.0, 7) * sys.params.big_omega)
        meter = dynamics._row_factors(sys, w)[3]
        gain, _ = meter_output(sys, w)
        assert np.allclose(4.0 * meter, np.abs(gain) ** 2, rtol=1e-14, atol=0)


class TestGainCondition:
    def test_hand_arithmetic_at_resonance(self):
        params = fig2_params()
        ss = steady_state(params)
        w = params.big_omega
        by_hand = (params.g * ss.alpha) ** 2 / (
            (params.gamma_a ** 2 / 4.0 + w ** 2) / 4.0
        )
        ratio, ok = gain_condition(build_linear_system(params), w)
        assert ratio == pytest.approx(by_hand, rel=1e-12)
        # at the reference working point the ratio sits below the default
        # threshold of 10
        assert 8.0 < ratio < 10.0
        assert not ok

    def test_threshold_adjustable(self):
        params = fig2_params()
        sys = build_linear_system(params)
        _, ok = gain_condition(sys, params.big_omega, threshold=5.0)
        assert ok

    def test_ratio_decreases_with_frequency(self):
        sys = build_linear_system(fig2_params())
        r1, _ = gain_condition(sys, 0.5e5)
        r2, _ = gain_condition(sys, 1.5e5)
        assert r1 > r2

    @pytest.mark.parametrize("omega", [0.0, 1e3, 1e5, 3.3e7])
    @pytest.mark.parametrize("overrides", [{}, P_STAR], ids=["fig2", "pstar"])
    def test_ratio_is_meter_gain_over_gamma_a(self, overrides, omega):
        # The ratio is formed from g alpha and gamma_a of the system in the
        # order written in the docstring, to the bit; and
        # 4 g^2 alpha^2 / (gamma_a^2/4 + w^2) is |gain|^2 / gamma_a.
        sys = build_linear_system(fig2_params(**overrides))
        p = sys.params
        ratio, ok = gain_condition(sys, omega)
        g_alpha = p.g * sys.steady.alpha
        by_hand = g_alpha ** 2 / ((p.gamma_a ** 2 / 4.0 + omega ** 2) / 4.0)
        assert ratio.hex() == float(by_hand).hex()
        assert ok == (by_hand > 10.0)
        gain, _ = meter_output(sys, omega)
        assert ratio == pytest.approx(abs(gain) ** 2 / p.gamma_a, rel=1e-14)

    def test_no_meter_coupling_has_no_gain(self, decoupled):
        # g = 0: no mirror signal reaches the meter output.
        _, sys = decoupled
        assert gain_condition(sys, 1e5) == (0.0, False)
        assert gain_condition(sys, 0.0, threshold=-1.0) == (0.0, True)

    def test_reads_the_working_point_of_the_system(self, monkeypatch):
        sys = build_linear_system(fig2_params())
        calls, solve = [], model.steady_state

        def counted(params):
            calls.append(params)
            return solve(params)

        for owner in (model, readout, dynamics):
            monkeypatch.setattr(owner, "steady_state", counted)
        gain_condition(sys, 1e5)
        assert calls == []


class TestOutputSpectrum:
    def test_vacuum_floor_without_coupling(self, decoupled):
        # g = 0: the output is pure reflected vacuum, spectrum exactly 1
        params, sys = decoupled
        noise = NoiseModel(0.0, params.big_gamma, params.big_omega)
        w = np.linspace(0.2, 3.0, 7) * params.big_omega
        s = output_spectrum(sys, noise, w, 1)
        assert np.allclose(s, 1.0, rtol=0, atol=1e-12)

    def test_direct_matches_transfer_assembly(self, fig2, fig2_noise):
        _, sys = fig2
        w = np.linspace(0.5, 1.5, 41) * sys.params.big_omega
        for channel in (1, 2):
            direct = output_spectrum(sys, fig2_noise, w, channel)
            via = output_spectrum_via_transfer(sys, fig2_noise, w, channel)
            assert np.allclose(direct, via, rtol=1e-10, atol=0)

    def test_scalar_input_returns_float(self, fig2, fig2_noise):
        _, sys = fig2
        s = output_spectrum(sys, fig2_noise, sys.params.big_omega, 1)
        assert isinstance(s, float)

    def test_meter_signal_dominates_when_gain_large(self, meters_only):
        # with readout but no entangler, the thermal peak towers over vacuum
        params, sys = meters_only
        noise = NoiseModel(300.0, params.big_gamma, params.big_omega)
        peak = output_spectrum(sys, noise, params.big_omega, 1)
        assert peak > 1e3


class TestTwoChannelCombination:
    def test_sum_estimates_center_of_mass(self, fig2, fig2_noise):
        # dual-path check: combine the oriented currents, and assemble the
        # same observable from a single noise-space coefficient row
        _, sys = fig2
        params = sys.params
        w = np.linspace(0.8, 1.2, 21) * params.big_omega
        spectra = two_channel_spectra(sys, fig2_noise, w)
        combined = combine_currents(spectra, "sum")

        sel = np.zeros((N_STATE, 2))
        sel[IQ1, 0] = 1.0
        sel[IQ2, 1] = 1.0
        e1 = np.zeros(8)
        e1[IYIN1] = 1.0
        e2 = np.zeros(8)
        e2[IYIN2] = 1.0

        def coeff(wa):
            rows = selected_transfer_rows(sys, wa, sel)
            gain, refl = (f[:, None] for f in meter_output(sys, wa))
            # oriented currents: i_j = gain * q_j + sign_j * refl * Y_in_j
            return (
                gain * (rows[:, 0, :] + rows[:, 1, :])
                + refl * e1 - refl * e2
            )

        dp = fig2_noise.input_spectrum(w)
        dm = fig2_noise.input_spectrum(-w)
        plus = np.einsum("nk,nkl,nl->n", coeff(w), dp, coeff(-w))
        minus = np.einsum("nk,nkl,nl->n", coeff(-w), dm, coeff(w))
        direct = 0.5 * (plus + minus).real
        assert np.allclose(combined, direct, rtol=1e-10, atol=0)

        # s12 from the same dense einsum path, one oriented current per side.
        def current(wa, j):
            rows = selected_transfer_rows(sys, wa, sel)
            e = e1 if j == 0 else -e2
            gain, refl = (f[:, None] for f in meter_output(sys, wa))
            return gain * rows[:, j, :] + refl * e

        s12 = 0.5 * (
            np.einsum("nk,nkl,nl->n", current(w, 0), dp, current(-w, 1))
            + np.einsum("nk,nkl,nl->n", current(-w, 0), dm, current(w, 1))
        )
        assert np.allclose(spectra.s12.real, s12.real, rtol=1e-10, atol=0)
        # The two output currents commute, so the exact imaginary part is 0
        # and both paths hold rounding noise only, on the scale of |s12|.
        scale = np.abs(s12).max()
        assert np.allclose(spectra.s12.imag, s12.imag, rtol=0,
                           atol=1e-12 * scale)

    @pytest.mark.parametrize("temperature", [0.0, 0.1, 300.0])
    def test_auto_spectra_are_the_single_channel_spectra(self, fig2,
                                                         temperature):
        # Both paths form their spectra in one place (readout._spectra), so
        # they agree bitwise.  The two oriented currents have one auto
        # spectrum, s11 = s22 bit for bit, and a real cross spectrum: in the
        # factors of the u and d rows the meter pair terms cancel exactly.
        params, sys = fig2
        noise = NoiseModel(temperature, params.big_gamma, params.big_omega)
        w = np.concatenate([np.geomspace(1e-2, 1e2, 37),
                            np.linspace(0.5, 1.5, 41)]) * params.big_omega
        spectra = two_channel_spectra(sys, noise, w)
        assert np.array_equal(output_spectrum(sys, noise, w, 1), spectra.s11)
        assert np.array_equal(output_spectrum(sys, noise, w, 2), spectra.s22)
        assert np.array_equal(spectra.s11, spectra.s22)
        assert spectra.s11 is not spectra.s22
        assert np.all(spectra.s12.imag == 0.0)

    def test_difference_differs_from_sum(self, fig2, fig2_noise):
        _, sys = fig2
        w = np.array([sys.params.big_omega])
        spectra = two_channel_spectra(sys, fig2_noise, w)
        s_sum = combine_currents(spectra, "sum")
        s_diff = combine_currents(spectra, "difference")
        assert s_sum[0] != pytest.approx(s_diff[0], rel=1e-6)
        assert s_sum[0] + s_diff[0] == pytest.approx(
            2.0 * (spectra.s11[0] + spectra.s22[0]), rel=1e-12
        )

    def test_uncorrelated_channels_double_the_vacuum_floor(self, decoupled):
        params, sys = decoupled
        noise = NoiseModel(0.0, params.big_gamma, params.big_omega)
        w = np.linspace(0.5, 1.5, 5) * params.big_omega
        spectra = two_channel_spectra(sys, noise, w)
        combined = combine_currents(spectra, "sum")
        assert np.allclose(combined, 2.0, rtol=0, atol=1e-12)

    def test_no_cross_spectrum_without_entangler(self, meters_only):
        # With G = 0 the two mirrors and their meters are independent: s12
        # is rounding against each channel's signal above the floor 1.
        params, sys = meters_only
        noise = NoiseModel.from_params(params)
        spectra = two_channel_spectra(sys, noise,
                                      hybrid_grid(params.big_omega))
        assert np.all(np.abs(spectra.s12) <= 1e-13 * (spectra.s11 - 1.0))

    @pytest.mark.parametrize("temperature", [0.0, 0.1, 300.0])
    def test_spectrum_matrix_positive_semidefinite(self, temperature):
        # The two currents commute, so [[s11, s12], [s12*, s22]] is the
        # covariance of a pair of observables; with s11 = s22 and s12 real
        # its eigenvalues are s11 +- |s12|.  At the Fig. 2 point at 300 K
        # the smaller one is 3e-15 of s11; at P* at 0 K it is 0.65 of it.
        for overrides in ({}, P_STAR):
            params = fig2_params(**overrides)
            sys = build_linear_system(params)
            noise = NoiseModel(temperature, params.big_gamma,
                               params.big_omega)
            spectra = two_channel_spectra(sys, noise,
                                          hybrid_grid(params.big_omega))
            assert np.all(spectra.s11 > 0.0)
            assert np.all(np.abs(spectra.s12) - spectra.s11
                          <= 1e-12 * spectra.s11)

    def test_bad_mode_rejected(self, decoupled):
        params, sys = decoupled
        noise = NoiseModel(0.0, params.big_gamma, params.big_omega)
        spectra = two_channel_spectra(sys, noise, np.arange(1, 4) * 1e5)
        with pytest.raises(InvalidParameterError):
            combine_currents(spectra, "average")


class TestReadoutSolveCount:
    # The direct spectra take the real factors of the u and d rows from one
    # closed-form call (_row_factors) and never solve; the via-transfer
    # spectra take the Y_a rows from one adjoint solve.
    @pytest.mark.parametrize("call,rows", [
        (lambda sys, noise, w: readout.two_channel_spectra(sys, noise, w),
         "_row_factors"),
        (lambda sys, noise, w: readout.output_spectrum(sys, noise, w, 1),
         "_row_factors"),
        (lambda sys, noise, w: readout.output_spectrum(sys, noise, w, 2),
         "_row_factors"),
        (lambda sys, noise, w: readout.output_spectrum_via_transfer(
            sys, noise, w, 1), "selected_transfer_rows"),
        (lambda sys, noise, w: readout.output_spectrum_via_transfer(
            sys, noise, w, 2), "selected_transfer_rows"),
    ], ids=["two_channel", "direct1", "direct2", "transfer1", "transfer2"])
    def test_one_positive_frequency_solve(self, fig2, fig2_noise,
                                          monkeypatch, call, rows):
        _, sys = fig2
        calls = []
        solve = getattr(readout, rows)

        def spy(sys, omegas, *selectors):
            calls.append(np.array(omegas))
            return solve(sys, omegas, *selectors)

        def forbidden(*args, **kwargs):
            raise AssertionError("readout must not call this")

        for name in ("_row_factors", "selected_transfer_rows"):
            monkeypatch.setattr(readout, name,
                                spy if name == rows else forbidden)
        monkeypatch.setattr(NoiseModel, "input_spectrum", forbidden)
        for module in (readout, dynamics, model):
            monkeypatch.setattr(module, "steady_state", forbidden)
        w = np.linspace(0.5, 1.5, 33) * sys.params.big_omega
        call(sys, fig2_noise, w)
        assert len(calls) == 1
        assert np.array_equal(calls[0], w)

    def test_bad_channel_rejected_before_solving(self, fig2, fig2_noise):
        _, sys = fig2
        for fn in (output_spectrum, output_spectrum_via_transfer):
            with pytest.raises(InvalidParameterError):
                fn(sys, fig2_noise, [1e5], 3)


def test_transfer_spectrum_memory_is_bounded_by_the_piece():
    # output_spectrum_via_transfer solves the adjoint system in CHUNK
    # pieces: on 2e5 frequencies it peaked at 4.8 MB traced, where one
    # batch (CHUNK = 10**6) peaked at 154 MB.  This guards the pieces.
    params = fig2_params()
    sys = build_linear_system(params)
    noise = NoiseModel(0.1, params.big_gamma, params.big_omega)
    omegas = np.linspace(0.5, 1.5, 200_000) * params.big_omega
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        output_spectrum_via_transfer(sys, noise, omegas, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, peak


class TestClosedFormContraction:
    """NoiseModel.form on the weights of noise_weights against the dense 8x8
    contraction, on random rows where no term vanishes by symmetry."""

    @pytest.mark.parametrize("kernel", ["corrected", "halved"])
    @pytest.mark.parametrize("temperature", [0.0, 300.0])
    def test_matches_dense_input_spectrum(self, kernel, temperature):
        rng = np.random.default_rng(3)
        w = np.array([1e3, 0.9e5, 1e5, 1.1e5, 1e7])
        ci, cj = (rng.normal(size=(2, w.size, 8))
                  + 1j * rng.normal(size=(2, w.size, 8)))
        noise = NoiseModel(temperature, 1.0, 1e5, kernel)
        dp, dm = noise.input_spectrum(w), noise.input_spectrum(-w)

        def dense(a, b):
            return 0.5 * (np.einsum("nk,nkl,nl->n", a, dp, b.conj())
                          + np.einsum("nk,nkl,nl->n", a.conj(), dm, b))

        def form(a, b):
            return noise.form(w, *dynamics.noise_weights(a, b))

        want = dense(ci, cj)
        got = form(ci, cj)
        # Real and imaginary parts each to 1e-13 of |s|; at 300 K the
        # imaginary part is ~1e-9 of |s|, so it is still checked.
        tol = 1e-13 * np.abs(want)
        assert np.all(np.abs(got.real - want.real) <= tol)
        assert np.all(np.abs(got.imag - want.imag) <= tol)
        assert np.all(np.abs(want.imag) > 100.0 * tol)
        auto = dense(ci, ci)
        got_auto = form(ci, ci)
        assert np.allclose(got_auto.real, auto.real, rtol=1e-13, atol=0)
        assert np.all(np.abs(auto.imag) <= 1e-13 * np.abs(auto))
        # Real arithmetic makes the form exactly hermitian in its rows.
        assert np.array_equal(form(cj, ci), got.conj())
        assert np.all(got_auto.imag == 0.0)


class TestReadoutInput:
    @pytest.mark.parametrize("omega", [[1.0, 2.0], np.array([1e5]), np.nan,
                                       np.inf, None, "1e5", 1j, 1e31])
    def test_bad_gain_condition_omega(self, fig2, omega):
        _, sys = fig2
        raises_one_line(lambda: gain_condition(sys, omega), "omega")

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf, None,
                                           "10"])
    def test_bad_gain_condition_threshold(self, fig2, threshold):
        _, sys = fig2
        raises_one_line(lambda: gain_condition(sys, 1e5, threshold),
                        "threshold")

    def test_gain_condition_takes_numpy_scalars(self, fig2):
        _, sys = fig2
        want = gain_condition(sys, 1e5)
        assert gain_condition(sys, np.float64(1e5)) == want
        assert gain_condition(sys, np.array(1e5)) == want
        assert gain_condition(sys, 0.0, threshold=-1e40)[1]
