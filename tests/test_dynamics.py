import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.constants import hbar as HBAR, k as KB

from mirrorpair import (
    NoiseModel, SdeRun, build_linear_system, classical_sde_psd, degree_sweep,
    fig2_params, hybrid_grid, is_stable, output_spectrum,
    output_spectrum_via_transfer, stability_margin, transfer_matrix,
    two_channel_spectra,
)
from mirrorpair import dynamics
from mirrorpair.dynamics import (
    IP1, IP2, IQ1, IQ2, IXA1, IXA2, IXB, IYA1, IYA2, IYB, IXI1, IXI2, IXIN1,
    IXIN2, IXINB, IYINB, N_NOISE, N_STATE, LinearSystem, _closed_form,
    _nonzero, _row_factors, frequency_grid, selected_transfer_rows,
)
from mirrorpair.entanglement import (
    P1_SELECTOR, Q1_SELECTOR, SWEEP_SELECTORS, U_SELECTOR,
)
from mirrorpair.errors import (
    DriftUnstableError, InvalidParameterError, SingularityError,
)

from conftest import (
    MIRROR_STATES, P_STAR, make_params, mirror_blocks, mirror_rotation,
    raises_one_line, working_points,
)


def chi(omega, params):
    """Bare mechanical susceptibility, inverted by hand from the 2x2 block."""
    om = params.big_omega
    return om / (om ** 2 - omega ** 2 - 1j * params.big_gamma * omega)


class TestDriftStructure:
    def test_position_rows_single_entry(self, fig2):
        _, sys = fig2
        for iq, ip in ((IQ1, IP1), (IQ2, IP2)):
            row = sys.drift[iq].copy()
            assert row[ip] == sys.params.big_omega
            row[ip] = 0.0
            assert not row.any()

    def test_resonant_meter_amplitude_rows_decouple_from_mechanics(self, fig2):
        _, sys = fig2
        for ix in (IXA1, IXA2):
            assert not sys.drift[ix, [IQ1, IP1, IQ2, IP2]].any()

    def test_decoupled_blocks(self, decoupled):
        _, sys = decoupled
        a = sys.drift
        optical = [IXA1, IYA1, IXA2, IYA2, IXB, IYB]
        for ix in optical:
            assert not a[ix, [IQ1, IP1, IQ2, IP2]].any()
        for im in (IQ1, IP1, IQ2, IP2):
            assert not a[im, optical].any()
        # mirror-1 and mirror-2 blocks independent
        assert not a[np.ix_([IQ1, IP1], [IQ2, IP2])].any()

    def test_noise_couplings(self, fig2):
        params, sys = fig2
        b = sys.noise_coupling
        assert b[IP1, IXI1] == 1.0
        assert b[IXA1, 2] == pytest.approx(np.sqrt(params.gamma_a))
        assert b[IYB, 7] == pytest.approx(np.sqrt(params.gamma_b))
        assert np.count_nonzero(b) == 8

    def test_entangler_couples_to_relative_coordinate(self, fig2):
        _, sys = fig2
        a = sys.drift
        assert a[IXB, IQ1] == -a[IXB, IQ2]
        assert a[IYB, IQ1] == -a[IYB, IQ2]

    def test_require_stable_raises_at_strong_drive(self):
        # The drift's eigenvalues are computed once, for the check and for
        # the error alike.
        params = fig2_params()
        calls = []
        eigvals = np.linalg.eigvals

        def spy(matrix):
            calls.append(matrix.shape)
            return eigvals(matrix)

        with mock.patch.object(np.linalg, "eigvals", spy):
            with pytest.raises(DriftUnstableError) as err:
                build_linear_system(params, require_stable=True)
        assert calls == [(N_STATE, N_STATE)]
        assert max(z.real for z in err.value.eigenvalues) > 0
        assert np.array_equal(err.value.eigenvalues,
                              eigvals(build_linear_system(params).drift))

    def test_unstable_message_lists_plain_eigenvalues(self):
        eigenvalues = np.array([-1.0 + 2.0j, 451245.77 + 485988.97j, 0.0 - 3.0j])
        message = str(DriftUnstableError(eigenvalues))
        assert "np." not in message
        assert message.endswith("[(451245.77+485988.97j), -3j]")

    def test_meters_only_config_is_stable(self, meters_only):
        _, sys = meters_only
        assert is_stable(sys)
        assert stability_margin(sys) == pytest.approx(-sys.params.big_gamma / 2)


#: Every public entry that takes one frequency, as f(sys, noise, omega).
FREQUENCY_ENTRIES = {
    "transfer_matrix": lambda sys, noise, w: transfer_matrix(sys, w),
}
BAD_FREQUENCIES = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "None": None,
                   "text": "1e5", "list": [1e5]}


class TestTransferMatrix:
    @pytest.mark.parametrize("omega", BAD_FREQUENCIES.values(),
                             ids=BAD_FREQUENCIES.keys())
    @pytest.mark.parametrize("entry", FREQUENCY_ENTRIES.values(),
                             ids=FREQUENCY_ENTRIES.keys())
    def test_bad_frequency_is_an_invalid_parameter(self, fig2, fig2_noise,
                                                   entry, omega):
        _, sys = fig2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="omega"):
                entry(sys, fig2_noise, omega)

    def test_high_frequency_rolloff(self, fig2):
        _, sys = fig2
        norms = [np.linalg.norm(transfer_matrix(sys, w)) for w in (1e9, 1e10)]
        assert norms[1] == pytest.approx(norms[0] / 10.0, rel=1e-3)

    def test_reality_symmetry(self, fig2):
        _, sys = fig2
        m = transfer_matrix(sys, 0.7e5)
        m_neg = transfer_matrix(sys, -0.7e5)
        assert np.allclose(m_neg, m.conj(), rtol=1e-12, atol=1e-300)

    def test_singular_shifted_drift_raises(self, fig2, monkeypatch):
        # LAPACK's LinAlgError on a singular shifted drift becomes a
        # SingularityError that names omega.
        _, sys = fig2

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(SingularityError,
                           match="singular at omega=0") as err:
            transfer_matrix(sys, 0.0)
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)

    def test_decoupled_mirror_matches_closed_form(self, decoupled):
        params, sys = decoupled
        for w in (0.3e5, 1.0e5, 2.7e5):
            m = transfer_matrix(sys, w)
            assert m[IQ1, IXI1] == pytest.approx(chi(w, params), rel=1e-12)

    def test_commutator_part_temperature_independent(self, fig2):
        # reconstruct the antisymmetric output spectrum from the transfer
        # matrix and the closed-form antisymmetric input spectrum
        _, sys = fig2
        params = sys.params
        w = 1e5
        m_p = transfer_matrix(sys, w)
        m_m = transfer_matrix(sys, -w)
        anti = []
        for temp in (0.0, 0.1, 300.0):
            noise = NoiseModel(temp, params.big_gamma, params.big_omega)
            anti.append(m_p @ noise.commutator_spectrum(w) @ m_m.T)
        scale = np.abs(anti[0]).max()
        assert np.allclose(anti[0], anti[1], rtol=0, atol=1e-12 * scale)
        assert np.allclose(anti[0], anti[2], rtol=0, atol=1e-12 * scale)
        # it is genuinely antisymmetric under (omega, transpose) reversal
        noise = NoiseModel(0.0, params.big_gamma, params.big_omega)
        back = m_m @ noise.commutator_spectrum(-w) @ m_p.T
        assert np.allclose(anti[0], -back.T, rtol=0, atol=1e-12 * scale)


def check_rows_against_transfer_matrix(sys, selectors, omegas,
                                       lu_allowance=False):
    """selected_transfer_rows against c^T M(omega) from the dense path, each
    row to 1e-12 of its norm.  With lu_allowance, plus 8 eps cond ||M||, the
    normwise error of the dense LU itself, for unit selectors."""
    rows = selected_transfer_rows(sys, omegas, selectors)
    for i, w in enumerate(omegas):
        m = transfer_matrix(sys, w)
        want = selectors.T @ m
        err = np.linalg.norm(rows[i] - want, axis=-1)
        tol = 1e-12 * np.linalg.norm(want, axis=-1)
        if lu_allowance:
            cond = np.linalg.cond(-1j * w * np.eye(N_STATE) - sys.drift)
            tol += 8.0 * np.finfo(float).eps * cond * np.linalg.norm(m, 2)
        assert np.all(err <= tol), (w, err / tol)


#: Model points away from the fixtures, as overrides of the Fig. 2 point.
MODEL_POINTS = {
    "p_in_a": dict(p_in_a=0.0), "p_in_b": dict(p_in_b=0.0),
    "no_meters": dict(g=0.0), "p_star": P_STAR,
    "weak_entangler": dict(p_in_b=5e-11),
    "opposite_detuning": dict(delta_b=-fig2_params().delta_b),
    "wide_cavities": dict(gamma_a=1e7, gamma_b=1e7),
}


class TestTransferRows:
    @pytest.mark.parametrize("point", ["fig2", "decoupled", "meters_only",
                                       *MODEL_POINTS])
    def test_rows_hold_at_model_points(self, request, point):
        # The reference point, the decoupled mirrors, the meters alone,
        # either drive off (p_in_a = 0, p_in_b = 0) or the meters' coupling
        # (g = 0), P*, a vanishing entangler drive, the entangler detuned to
        # the other side, and cavities 100 times wider than Omega.  Omega is
        # left out: the shifted drift has condition ~4e7 there at the Fig. 2
        # point, and neither solve holds 1e-12 on every row.
        if point in MODEL_POINTS:
            sys = build_linear_system(make_params(**MODEL_POINTS[point]))
        else:
            _, sys = request.getfixturevalue(point)
        omegas = np.array([1e-2, 0.5, 0.9, 1.1, 2.0, 1e2]) * sys.params.big_omega
        check_rows_against_transfer_matrix(sys, np.eye(N_STATE), omegas)

    @pytest.mark.filterwarnings("ignore:expected entangler coupling")
    @settings(max_examples=40, deadline=None)
    @given(point=working_points())
    def test_rows_hold_at_random_working_points(self, point):
        # Here the dense path is the less accurate one: at drawn points its
        # rows were off by up to 2e-4 (at cond 2e17).  So the dense LU is
        # allowed its own normwise error on top of 1e-12 (measured: at most
        # 1.4 eps cond ||M|| over 3000 draws; check_rows_against_transfer_matrix
        # allows 8).
        params, _ = point
        sys = build_linear_system(params)
        omegas = np.array([1e-2, 0.5, 0.9, 1.0, 1.1, 2.0, 1e2]) * params.big_omega
        check_rows_against_transfer_matrix(sys, np.eye(N_STATE), omegas,
                                           lu_allowance=True)

    def test_rows_match_transfer_matrix(self, fig2):
        # Unit selectors and the sweep selectors other than v, whose rows
        # carry no cancellation; v is checked by tests/test_precision.py.
        # omega = Omega is left out: the shifted drift has condition ~4e7
        # there, and neither solve holds 1e-12 on every row.
        params, sys = fig2
        selectors = np.column_stack(
            [np.eye(N_STATE), U_SELECTOR, Q1_SELECTOR, P1_SELECTOR])
        omegas = np.array([1e-2, 0.5, 0.9, 1.1, 2.0, 1e2]) * params.big_omega
        check_rows_against_transfer_matrix(sys, selectors, omegas)

    @pytest.mark.parametrize("grid", ["hybrid", "resonance"])
    def test_centre_of_mass_row_matches_closed_form(self, fig2, grid):
        # The entangler pushes only on q1 - q2, so u = q1 + q2 is a free
        # damped oscillator read by the two meters with opposite signs.
        params, sys = fig2
        om, gamma_a = params.big_omega, params.gamma_a
        omegas = (hybrid_grid(om) if grid == "hybrid"
                  else np.linspace(0.999, 1.001, 2001) * om)
        chi = 1.0 / ((om - omegas) * (om + omegas) - 1j * params.big_gamma * omegas)
        meter = (params.g * sys.steady.alpha * np.sqrt(gamma_a)
                 / (gamma_a / 2.0 - 1j * omegas))
        want = np.zeros((omegas.size, N_NOISE), dtype=complex)
        want[:, IXI1] = want[:, IXI2] = om * chi
        want[:, IXIN1] = om * chi * meter
        want[:, IXIN2] = -want[:, IXIN1]
        got = selected_transfer_rows(sys, omegas, U_SELECTOR[:, None])[:, 0]
        # Relative per channel, so every other channel must be exactly 0.
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    def test_complex_selectors_keep_their_imaginary_part(self, fig2):
        # The rows are linear in the selectors, complex ones included: the
        # rows of a + i b are rows(a) + i rows(b) to rounding, where a cast
        # of the selectors to float would return rows(a).
        params, sys = fig2
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(2, N_STATE, 3))
        omegas = np.array([1e-2, 0.5, 0.9, 1.0, 1.1, 2.0, 1e2]) * params.big_omega
        got = selected_transfer_rows(sys, omegas, a + 1j * b)
        want = (selected_transfer_rows(sys, omegas, a)
                + 1j * selected_transfer_rows(sys, omegas, b))
        err = np.linalg.norm(got - want, axis=-1)
        assert np.all(err <= 1e-15 * np.linalg.norm(want, axis=-1))

    @pytest.mark.filterwarnings("ignore:expected entangler coupling")
    @settings(max_examples=40, deadline=None)
    @given(point=working_points())
    def test_no_working_point_needs_lapack(self, point):
        # Every row is the closed form of the model, at every model system.
        params, _ = point
        sys = build_linear_system(params)
        calls = []
        solve = np.linalg.solve

        def spy(*args):
            calls.append(args[0].shape)
            return solve(*args)

        omegas = np.array([1e-2, 0.5, 1.0, 2.0, 1e2]) * params.big_omega
        with mock.patch.object(np.linalg, "solve", spy):
            rows = selected_transfer_rows(sys, omegas, np.eye(N_STATE))
        assert calls == []
        assert np.isfinite(rows).all()

    @pytest.mark.filterwarnings("ignore:expected entangler coupling")
    @settings(max_examples=40, deadline=None)
    @given(point=working_points())
    def test_mirror_blocks_decouple(self, point):
        # The entangler pushes on q1 - q2 and is driven by it, so in the
        # mirror coordinates the centre of mass and the relative block do
        # not reach each other, and neither reads a meter's phase
        # quadrature: the u row has no entangler entries, and every row is
        # made of u and d.
        params, _ = point
        sys = build_linear_system(params)
        t = mirror_rotation()
        a = t @ sys.drift @ np.linalg.inv(t)
        com, rel = MIRROR_STATES
        assert not a[np.ix_(com, rel)].any()
        assert not a[np.ix_(rel, com)].any()
        assert not a[np.ix_(com + rel, [IYA1, IYA2])].any()
        w = np.array([0.5, 1.0, 2.0]) * params.big_omega
        u = selected_transfer_rows(sys, w, SWEEP_SELECTORS)[:, 0]
        assert not u[:, [IXINB, IYINB]].any()

    @pytest.mark.filterwarnings("ignore:expected entangler coupling")
    @pytest.mark.parametrize("block", [0, 1], ids=["centre_of_mass", "relative"])
    @settings(max_examples=40, deadline=None)
    @given(point=working_points())
    def test_model_rows_match_lapack_on_their_block(self, block, point):
        # The u row is the q+ row of the resolvent of the centre-of-mass
        # block times that block's noise coupling, the d row the q- row of
        # the relative block's: on the channels that drive the block
        # directly (xi_1, xi_2 into p+- and X_inb, Y_inb into X_b, Y_b),
        # against LAPACK on the block alone, on a grid across the block's
        # poles.  LAPACK is off by up to ~cond * eps near a pole, hence
        # that allowance above 1e-12.
        params, _ = point
        sys = build_linear_system(params)
        a = mirror_blocks(sys)[block]
        b = (mirror_rotation() @ sys.noise_coupling)[MIRROR_STATES[block]]
        channels = [IXI1, IXI2, IXINB, IYINB]
        assert not np.delete(b, channels, axis=1).any()
        m = len(a)
        w = np.concatenate([np.geomspace(0.1, 10.0, 129) * params.big_omega,
                            np.abs(np.linalg.eigvals(a).imag)])
        w = w[w > 0.0]
        got = selected_transfer_rows(sys, w, SWEEP_SELECTORS)[:, block]
        shifted = -1j * w[:, None, None] * np.eye(m) - a
        want = np.linalg.solve(shifted, np.broadcast_to(
            b.astype(complex), (w.size, m, N_NOISE)))[:, 0]
        err = np.linalg.norm(got[:, channels] - want[:, channels], axis=-1)
        tol = 1e-12 + 4.0 * np.finfo(float).eps * np.linalg.cond(shifted)
        assert np.all(err <= tol * np.linalg.norm(want, axis=-1))

    @pytest.mark.filterwarnings("ignore:expected entangler coupling")
    @pytest.mark.parametrize("block", [0, 1], ids=["centre_of_mass", "relative"])
    @settings(max_examples=40, deadline=None)
    @given(point=working_points())
    def test_closed_form_determinants_are_the_block_determinants(self, block,
                                                                 point):
        # mech = det(-i w - A_com) and den = det(-i w - A_rel), so a zero of
        # either is a pole of the rows.  A determinant by LU holds about
        # eps (|w| + ||A||)^m.
        params, _ = point
        sys = build_linear_system(params)
        a = mirror_blocks(sys)[block]
        m = len(a)
        w = np.geomspace(0.1, 10.0, 33) * params.big_omega
        got = _closed_form(sys, w)[3 * block]
        want = np.linalg.det(-1j * w[:, None, None] * np.eye(m) - a)
        scale = (w + np.linalg.norm(a, 2)) ** m
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("point", ["fig2", "decoupled", "p_star"])
    def test_rows_at_negative_omega_are_the_conjugates(self, fig2, decoupled,
                                                       point):
        # A and B are real, so M(-w) = conj M(w), and the rows at w = 0 are
        # real: noise_weights relies on it.
        sys = {"fig2": fig2[1], "decoupled": decoupled[1],
               "p_star": build_linear_system(make_params(**P_STAR))}[point]
        selectors = np.column_stack([np.eye(N_STATE), SWEEP_SELECTORS])
        w = np.array([0.0, 1e-2, 0.5, 1.0, 2.0, 1e2]) * sys.params.big_omega
        plus = selected_transfer_rows(sys, w, selectors)
        minus = selected_transfer_rows(sys, -w, selectors)
        err = np.linalg.norm(minus - plus.conj(), axis=-1)
        assert np.all(err <= 4.0 * np.finfo(float).eps
                      * np.linalg.norm(plus, axis=-1))
        assert not plus[0].imag.any()

    @pytest.mark.filterwarnings("ignore:expected entangler coupling")
    @pytest.mark.parametrize("point", ["fig2", "p_star", "decoupled",
                                       "weak_entangler"])
    def test_row_factors_are_the_squared_rows(self, fig2, decoupled, point):
        # u2 and v2 of _row_factors are the squared moduli of the xi_1
        # entries of the u and d rows, bit for bit, on the hybrid grid: the
        # sweep's Brownian planes are those of the rows.
        if point in MODEL_POINTS:
            sys = build_linear_system(make_params(**MODEL_POINTS[point]))
        else:
            sys = {"fig2": fig2[1], "decoupled": decoupled[1]}[point]
        w = hybrid_grid(sys.params.big_omega)
        xi = selected_transfer_rows(sys, w, SWEEP_SELECTORS)[..., IXI1].T
        u2, v2 = _row_factors(sys, w)[:2]
        squared = xi.real * xi.real + xi.imag * xi.imag
        assert np.array_equal(squared[0], u2)
        assert np.array_equal(squared[1], v2)

    def test_singular_single_state_block_raises(self):
        # _nonzero passes a determinant with no zero entry through and
        # raises on one: -i omega - 0 vanishes at omega = 0 only.
        shifted = -1j * np.array([1.0, 0.0]) - 0.0
        first = shifted[:1]
        assert _nonzero(first) is first
        with pytest.raises(SingularityError):
            _nonzero(shifted)


#: Every public entry that takes a frequency grid, as f(sys, noise, omegas).
GRID_ENTRIES = {
    "selected_transfer_rows":
        lambda sys, noise, w: selected_transfer_rows(sys, w, SWEEP_SELECTORS),
    "degree_sweep": degree_sweep,
    "output_spectrum": lambda sys, noise, w: output_spectrum(sys, noise, w, 1),
    "output_spectrum_via_transfer":
        lambda sys, noise, w: output_spectrum_via_transfer(sys, noise, w, 1),
    "two_channel_spectra": two_channel_spectra,
}
BAD_GRIDS = {
    "nan": np.nan, "inf": [1e5, np.inf], "-inf": [-np.inf], "None": None,
    "empty": [], "2-D": [[1e5]], "complex": 1e5 + 1j, "text": ["1e5"],
    "ragged": [[1e5], [1e5, 2e5]],
}

#: Selectors that are not a finite numeric (10, k) array with k >= 1.
BAD_SELECTORS = {
    "1-D": np.ones(N_STATE), "9 rows": np.ones((N_STATE - 1, 2)),
    "transposed": [[1.0] * N_STATE], "no column": np.ones((N_STATE, 0)),
    "nan": np.full((N_STATE, 1), np.nan), "inf": np.full((N_STATE, 1), np.inf),
    "text": [["1"]] * N_STATE, "None": None,
    "ragged": [[1.0]] * (N_STATE - 1) + [[1.0, 2.0]],
}


class TestFrequencyGrid:
    @pytest.mark.parametrize("grid", BAD_GRIDS.values(), ids=BAD_GRIDS.keys())
    @pytest.mark.parametrize("entry", GRID_ENTRIES.values(),
                             ids=GRID_ENTRIES.keys())
    def test_bad_grid_is_an_invalid_parameter(self, fig2, fig2_noise, entry,
                                              grid):
        _, sys = fig2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="omegas"):
                entry(sys, fig2_noise, grid)

    @pytest.mark.parametrize("selectors", BAD_SELECTORS.values(),
                             ids=BAD_SELECTORS.keys())
    def test_bad_selectors_are_an_invalid_parameter(self, fig2, selectors):
        _, sys = fig2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="selectors"):
                selected_transfer_rows(sys, [1e5], selectors)

    @pytest.mark.parametrize("grid", [1e5, 0, [1, 2], (0.5, -3e4),
                                      np.array([2.0, 1e20], np.float32)])
    def test_real_grid_becomes_a_float_vector(self, grid):
        w = frequency_grid(grid)
        assert w.dtype == float and w.shape == (np.size(grid),)
        assert np.array_equal(w, np.ravel(np.asarray(grid, dtype=float)))


#: Every public entry that takes a system and its noise, as f(sys, noise).
NOISE_ENTRIES = {
    "degree_sweep": lambda sys, noise: degree_sweep(sys, noise, [1e5]),
    "output_spectrum": lambda sys, noise: output_spectrum(sys, noise, 1e5, 1),
    "output_spectrum_via_transfer":
        lambda sys, noise: output_spectrum_via_transfer(sys, noise, 1e5, 1),
    "two_channel_spectra":
        lambda sys, noise: two_channel_spectra(sys, noise, [1e5]),
    "classical_sde_psd": lambda sys, noise: classical_sde_psd(
        sys, noise, SdeRun(seed=0, dt=1e-6, total_time=1e-5, burn_in=0.0,
                           trajectories=2)),
}


class TestNoiseModel:
    def test_vacuum_blocks(self, fig2_noise):
        d = fig2_noise.input_spectrum(0.8e5)
        for k in (2, 4, 6):
            blk = d[k:k + 2, k:k + 2]
            assert np.allclose(blk, [[1, 1j], [-1j, 1]])
        # distinct modes uncorrelated
        off = d[2:4, 4:6]
        assert not off.any()
        assert not d[:2, 2:].any()

    def test_brownian_antisymmetric_part_is_state_independent(self):
        params = fig2_params()
        w = 0.9e5
        for kernel, factor in (("corrected", 1.0), ("halved", 0.5)):
            expected = 2.0 * factor * params.big_gamma * w / params.big_omega
            for temp in (0.0, 0.1, 300.0):
                noise = NoiseModel(temperature=temp, big_gamma=params.big_gamma,
                                   big_omega=params.big_omega, kernel=kernel)
                da = noise.commutator_spectrum(w)
                assert da[0, 0] == expected
                assert da[1, 1] == expected
                # numeric differencing agrees to the precision allowed by the
                # magnitude of the symmetric thermal part it cancels against
                anti = noise.brownian_spectrum(w) - noise.brownian_spectrum(-w)
                floor = 1e-12 * abs(noise.brownian_spectrum(w))
                assert anti == pytest.approx(expected, abs=max(floor, 1e-12 * expected))

    def test_symmetrized_part_even_and_positive(self, fig2_noise):
        ws = np.array([0.1e5, 1e5, 3e5])
        sym_pos = 0.5 * (fig2_noise.brownian_spectrum(ws)
                         + fig2_noise.brownian_spectrum(-ws))
        sym_neg = 0.5 * (fig2_noise.brownian_spectrum(-ws)
                         + fig2_noise.brownian_spectrum(ws))
        assert np.all(sym_pos > 0)
        assert np.allclose(sym_pos, sym_neg)

    def test_commutator_spectrum_temperature_independent(self):
        params = fig2_params()
        w = 1.1e5
        anti = []
        for temp in (0.0, 0.1, 300.0):
            noise = NoiseModel(temp, params.big_gamma, params.big_omega)
            anti.append(noise.commutator_spectrum(w))
            # closed form agrees with differencing the full input spectrum,
            # up to the cancellation floor set by the thermal magnitude
            diff = noise.input_spectrum(w) - noise.input_spectrum(-w).T
            floor = 1e-12 * np.abs(noise.input_spectrum(w)).max()
            assert np.allclose(diff, anti[-1], rtol=0,
                               atol=max(floor, 1e-12 * np.abs(anti[-1]).max()))
        assert np.array_equal(anti[0], anti[1])
        assert np.array_equal(anti[0], anti[2])

    def test_classical_limit_matches_equipartition_scaling(self):
        # kB T >> hbar omega: symmetrized thermal spectrum -> 2 Gamma kB T / (hbar Omega)
        params = fig2_params()
        noise = NoiseModel(300.0, params.big_gamma, params.big_omega)
        w = 1e3
        sym = 0.5 * (noise.brownian_spectrum(w) + noise.brownian_spectrum(-w))
        expected = 2.0 * params.big_gamma * KB * 300.0 / (HBAR * params.big_omega)
        assert sym == pytest.approx(expected, rel=1e-3)

    def test_halved_kernel_is_half_strength(self):
        params = fig2_params()
        full = NoiseModel(4.0, params.big_gamma, params.big_omega, "corrected")
        half = NoiseModel(4.0, params.big_gamma, params.big_omega, "halved")
        w = 0.6e5
        assert half.brownian_spectrum(w) == pytest.approx(
            0.5 * full.brownian_spectrum(w), rel=1e-14
        )

    def test_zero_frequency_limit_continuous(self):
        params = fig2_params()
        noise = NoiseModel(4.0, params.big_gamma, params.big_omega)
        assert noise.brownian_spectrum(0.0) == pytest.approx(
            noise.brownian_spectrum(1e-6), rel=1e-9
        )

    @pytest.mark.parametrize("kernel,factor", [("corrected", 1.0), ("halved", 0.5)])
    def test_pref_is_the_kernel_prefactor(self, kernel, factor):
        params = fig2_params()
        noise = NoiseModel(4.0, params.big_gamma, params.big_omega, kernel)
        assert noise.pref == factor * params.big_gamma / params.big_omega

    @pytest.mark.parametrize("kernel", ["corrected", "halved"])
    @pytest.mark.parametrize("temp", [0.0, 0.1, 300.0])
    def test_symmetrized_spectrum_closed_form(self, kernel, temp):
        params = fig2_params()
        noise = NoiseModel(temp, params.big_gamma, params.big_omega, kernel)
        ws = np.array([1e3, 0.5e5, 1e5, 1.7e5, 1e7])
        s_sym = noise.symmetrized_spectrum(ws)
        summed = noise.brownian_spectrum(ws) + noise.brownian_spectrum(-ws)
        assert np.allclose(s_sym, summed, rtol=1e-14, atol=0)
        assert np.array_equal(noise.symmetrized_spectrum(-ws), s_sym)
        if temp == 0.0:
            assert np.array_equal(s_sym, 2.0 * noise.pref * ws)
        assert noise.symmetrized_spectrum(1e5) == s_sym[2]

    @pytest.mark.parametrize("kernel", ["corrected", "halved"])
    def test_form_is_elementwise_in_temperature(self, kernel):
        # One broadcast over a (k, 1, 1) temperature axis gives, row by
        # row, the bits of form at each temperature alone, 0 K and
        # omega = 0 included.
        params = fig2_params()
        temps = np.array([0.0, 1e-3, 0.1, 4.0, 300.0])
        ws = np.array([0.0, 1e3, 0.5e5, 1e5, 1.7e5, 1e7, 1e9])
        rng = np.random.default_rng(2)
        xi_real, xi_imag, vacuum, pairs = rng.uniform(-1.0, 1.0, (4, 3, ws.size))
        noise = NoiseModel(1.0, params.big_gamma, params.big_omega, kernel)
        real = noise._form_real(ws, xi_real, vacuum, temps[:, None, None])
        assert real.shape == (temps.size, 3, ws.size)
        imag = noise._form_imag(ws, xi_imag, pairs)
        for temp, row in zip(temps, real):
            alone = NoiseModel(temp, params.big_gamma, params.big_omega, kernel)
            form = alone.form(ws, xi_real, xi_imag, vacuum, pairs)
            assert np.array_equal(row, form.real), temp
            assert np.array_equal(imag, form.imag), temp

    def test_unknown_kernel_rejected(self):
        with pytest.raises(InvalidParameterError):
            NoiseModel(1.0, 1.0, 1.0, kernel="bogus")

    # Temperature cases keep their bare ids: [-1.0], [nan], [inf].  A
    # NoiseModel takes one temperature: a sweep's temperature axis is the
    # private argument of _form_real.
    @pytest.mark.parametrize("field,value", [
        pytest.param("temperature", v, id=str(v)) for v in (-1.0, np.nan, np.inf)
    ] + [
        pytest.param("temperature", (0.1, 4.0), id="tuple"),
        pytest.param("temperature", np.array([0.1, 4.0]), id="array"),
    ] + [
        (f, v) for f in ("big_gamma", "big_omega")
        for v in (0.0, -1.0, np.nan, np.inf)
    ])
    def test_bad_temperature_rejected(self, field, value):
        good = {"temperature": 1.0, "big_gamma": 1.0, "big_omega": 1e5}
        with pytest.raises(InvalidParameterError, match=field):
            NoiseModel(**{**good, field: value})

    @pytest.mark.parametrize("field,factor", [("big_gamma", 10.0),
                                              ("big_omega", 2.0)])
    @pytest.mark.parametrize("entry", NOISE_ENTRIES.values(),
                             ids=NOISE_ENTRIES.keys())
    def test_noise_of_other_mechanics_is_refused(self, meters_only, entry,
                                                 field, factor):
        # NoiseModel repeats the mechanics of PhysicalParams; a spectrum of
        # the system with another Gamma or Omega in its Brownian kernel is
        # not the model's (at the Fig. 2 point E(Omega) is 1.00e-2, and
        # 6.0e-4 with 10 Gamma in the noise).
        params, sys = meters_only
        noise = NoiseModel.from_params(params)
        other = dataclasses.replace(
            noise, **{field: factor * getattr(noise, field)})
        with pytest.raises(InvalidParameterError, match="big_omega"):
            entry(sys, other)


def test_hybrid_grid_shape_and_refinement():
    grid = hybrid_grid(1e5)
    assert np.all(np.diff(grid) > 0)
    assert grid[0] == pytest.approx(1e3)
    assert grid[-1] == pytest.approx(1e7)
    near = grid[(grid >= 0.5e5) & (grid <= 1.5e5)]
    assert near.size >= 2001
    assert 1e5 in grid


class TestLinearSystem:
    def test_params_is_the_only_argument(self, fig2):
        # The system is the model at its params: everything else is derived,
        # read-only, with the bits of build_linear_system's.
        params, sys = fig2
        init = [f.name for f in dataclasses.fields(LinearSystem) if f.init]
        assert init == ["params"]
        with pytest.raises(TypeError):
            LinearSystem(params, sys.drift)
        model = LinearSystem(params)
        assert model.params is params and model.steady == sys.steady
        for name in ("drift", "noise_coupling"):
            array = getattr(model, name)
            assert np.array_equal(array, getattr(sys, name)), name
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    def test_fields_are_the_model(self):
        # The system holds the model at params and nothing derived for one
        # solver: every row is the closed form of params and steady.
        assert [f.name for f in dataclasses.fields(LinearSystem)] == [
            "params", "steady", "drift", "noise_coupling"]

    @pytest.mark.parametrize("name", ["steady", "drift", "noise_coupling"])
    def test_derived_field_cannot_be_given(self, fig2, name):
        # No derived field can be handed in or swapped for another value:
        # not at construction, not by dataclasses.replace, not by assignment.
        params, _ = fig2
        sys = LinearSystem(params)
        value = getattr(sys, name)
        with pytest.raises(TypeError, match=name):
            LinearSystem(params, **{name: value})
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(sys, **{name: value})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sys, name, value)
        assert getattr(sys, name) is value

    def test_steady_state_is_looked_up_once_per_system(self, fig2,
                                                       monkeypatch):
        # perfbench/tracing.py counts dynamics.steady_state by its name in
        # the module: one call per system.
        params, _ = fig2
        calls = []
        steady_state = dynamics.steady_state

        def spy(p):
            calls.append(p)
            return steady_state(p)

        monkeypatch.setattr(dynamics, "steady_state", spy)
        build_linear_system(params)
        assert calls == [params]


class TestHybridGridInput:
    @pytest.mark.parametrize("big_omega", [np.nan, np.inf, -1.0, 0.0, 1e31,
                                           "1e5", None, [1e5]])
    def test_bad_big_omega_is_an_invalid_parameter(self, big_omega):
        raises_one_line(lambda: hybrid_grid(big_omega), "big_omega")
