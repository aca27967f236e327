import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.constants import hbar as HBAR, k as KB

from mirrorpair import (
    NoiseModel, build_linear_system, degree_sweep, fig2_params, hybrid_grid,
    is_stable, output_spectrum, output_spectrum_via_transfer,
    spectral_matrix, stability_margin, transfer_matrix,
    two_channel_spectra,
)
from mirrorpair.dynamics import (
    IP1, IP2, IQ1, IQ2, IXA1, IXA2, IXB, IYA1, IYA2, IYB, IXI1, IXI2, IXIN1,
    IXIN2, MIRROR_ROTATION, N_NOISE, N_STATE, LinearSystem, _solve_closed_form,
    frequency_grid, selected_transfer_rows,
)
from mirrorpair.entanglement import (
    P1_SELECTOR, Q1_SELECTOR, SWEEP_SELECTORS, U_SELECTOR,
)
from mirrorpair.errors import (
    DriftUnstableError, InvalidParameterError, SingularityError,
)

from conftest import raises_one_line, working_points


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
        params = fig2_params()
        with pytest.raises(DriftUnstableError) as err:
            build_linear_system(params, require_stable=True)
        assert max(z.real for z in err.value.eigenvalues) > 0

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
    "spectral_matrix": spectral_matrix,
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

    def test_singular_shifted_drift_raises(self, fig2):
        # A drift of -I but for a zero at X_b leaves -i omega I - A with a
        # zero pivot at omega = 0 only.
        _, sys = fig2
        drift = -np.eye(N_STATE)
        drift[IXB, IXB] = 0.0
        hand_built = with_drift(sys, drift)
        with pytest.raises(SingularityError, match="singular at omega=0"):
            transfer_matrix(hand_built, 0.0)
        m = transfer_matrix(hand_built, 1.0)
        assert m.shape == (N_STATE, N_NOISE) and np.isfinite(m).all()

    def test_decoupled_mirror_matches_closed_form(self, decoupled):
        params, sys = decoupled
        for w in (0.3e5, 1.0e5, 2.7e5):
            m = transfer_matrix(sys, w)
            assert m[IQ1, IXI1] == pytest.approx(chi(w, params), rel=1e-12)


def with_drift(sys, drift):
    """A hand-built LinearSystem: sys with its drift matrix replaced."""
    return LinearSystem(drift=np.array(drift, dtype=float),
                        noise_coupling=sys.noise_coupling,
                        params=sys.params, steady=sys.steady)


def with_4x4_block(sys, block):
    """A hand-built LinearSystem: drift -I but for block on
    {X_a1, Y_a1, X_b, Y_b}, which the plan keeps as one 4x4 block."""
    drift = -np.eye(N_STATE)
    idx = [IXA1, IYA1, IXB, IYB]
    drift[np.ix_(idx, idx)] = block
    hand_built = with_drift(sys, drift)
    assert tuple(idx) in hand_built.blocks
    return hand_built


def check_rows_against_transfer_matrix(sys, selectors, omegas):
    """selected_transfer_rows against c^T M(omega) from the dense path."""
    rows = selected_transfer_rows(sys, omegas, selectors)
    for i, w in enumerate(omegas):
        want = selectors.T @ transfer_matrix(sys, w)
        err = np.linalg.norm(rows[i] - want, axis=-1)
        assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=-1)), (w, err)


class TestAdjointSolve:
    def test_block_plan_at_reference_point(self, fig2):
        # The mirror rotation puts q+, p+, q- and p- in the slots of q1, p1,
        # q2 and p2: the centre of mass {q+, p+} splits off the relative
        # mode and the entangler {q-, p-, X_b, Y_b}.
        _, sys = fig2
        assert sys.blocks == (
            (IYA1,), (IYA2,), (IQ1, IP1), (IQ2, IP2, IXB, IYB), (IXA1,), (IXA2,),
        )
        # Every rotated entry is exact: the rotation undoes to the same bits.
        back = np.linalg.inv(MIRROR_ROTATION)
        assert np.array_equal(sys.basis, back)
        assert np.array_equal(back @ sys.basis_drift @ MIRROR_ROTATION, sys.drift)
        assert np.array_equal(back @ sys.basis_coupling, sys.noise_coupling)

    def test_dense_drift_is_one_core(self, fig2):
        _, sys = fig2
        rng = np.random.default_rng(3)
        dense = with_drift(sys, rng.normal(size=(N_STATE, N_STATE)))
        assert dense.blocks == (tuple(range(N_STATE)),)
        check_rows_against_transfer_matrix(dense, np.eye(N_STATE), [0.0, 0.5, 3.0])

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

    def test_singular_core_raises(self, fig2):
        # A rank-1 drift whose mirror pairs differ: the rotation does not
        # split it, and LAPACK finds the one core singular at omega = 0.
        _, sys = fig2
        u = np.ones(N_STATE)
        u[[IQ2, IP2]] = 2.0
        singular = with_drift(sys, np.outer(u, u))
        assert len(singular.blocks) == 1
        with pytest.raises(SingularityError):
            selected_transfer_rows(singular, [1.0, 0.0], np.eye(N_STATE))
        # The all-ones drift splits off q- and p-, whose zero diagonals raise.
        ones = with_drift(sys, np.ones((N_STATE, N_STATE)))
        assert ones.blocks == ((IQ2,), (IP2,), (IQ1, IP1, *range(IXA1, N_STATE)))
        with pytest.raises(SingularityError):
            selected_transfer_rows(ones, [1.0, 0.0], np.eye(N_STATE))

    @pytest.mark.parametrize("spring", [-1.0, 1.0], ids=["oscillator", "saddle"])
    def test_closed_form_block_matches_transfer_matrix(self, fig2, spring):
        # The 2x2 block [[0, Omega], [spring * Omega, -Gamma]] has determinant
        # -spring * Omega^2: the oscillator takes the factored real part of
        # det(-i omega - A_b), the saddle the plain one.
        params, sys = fig2
        om = params.big_omega
        drift = -np.eye(N_STATE)
        drift[IQ1, IQ1], drift[IQ1, IP1], drift[IP1, IQ1] = 0.0, om, spring * om
        block = with_drift(sys, drift)
        assert (IQ1, IP1) in block.blocks
        omegas = np.array([0.0, 0.5, 0.999, 1.0, 2.0]) * om
        check_rows_against_transfer_matrix(block, np.eye(N_STATE), omegas)

    def test_singular_closed_form_block_raises(self, fig2):
        # Two identical undamped mirrors: the centre-of-mass 2x2 block is
        # exactly singular at omega = Omega, and no division warns first.
        _, sys = fig2
        drift = sys.drift.copy()
        drift[IP1, IP1] = drift[IP2, IP2] = 0.0
        undamped = with_drift(sys, drift)
        assert (IQ1, IP1) in undamped.blocks
        omega = sys.params.big_omega
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            selected_transfer_rows(undamped, [0.5 * omega], np.eye(N_STATE))
            with pytest.raises(SingularityError):
                selected_transfer_rows(undamped, [0.5 * omega, omega],
                                       np.eye(N_STATE))

    def test_asymmetric_drift_keeps_unrotated_plan(self, fig2):
        # Mirror 2 a little stiffer: the rotation would couple q+ to p-, so
        # the plan stays the unrotated one with its 6x6 core.
        params, sys = fig2
        drift = sys.drift.copy()
        drift[IQ2, IP2] *= 1.01
        drift[IP2, IQ2] *= 1.01
        asymmetric = with_drift(sys, drift)
        assert asymmetric.blocks == (
            (IYA1,), (IYA2,), (IQ1, IP1, IQ2, IP2, IXB, IYB), (IXA1,), (IXA2,),
        )
        assert np.array_equal(asymmetric.basis, np.eye(N_STATE))
        assert asymmetric.basis_drift is asymmetric.drift
        assert asymmetric.basis_coupling is asymmetric.noise_coupling
        omegas = np.array([0.5, 0.9, 1.1, 2.0]) * params.big_omega
        check_rows_against_transfer_matrix(asymmetric, np.eye(N_STATE), omegas)

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

    @pytest.mark.filterwarnings("ignore:expected entangler coupling")
    @pytest.mark.parametrize("idx", [[IQ1, IP1], [IQ2, IP2, IXB, IYB]],
                             ids=["centre_of_mass", "relative"])
    @settings(max_examples=40, deadline=None)
    @given(point=working_points())
    def test_closed_form_4x4_matches_lapack(self, idx, point):
        # The closed-form solve of the centre-of-mass block {q+, p+} and of
        # the relative block {q-, p-, X_b, Y_b} (by 2x2-block elimination)
        # against LAPACK on the same block, on a grid across the block's
        # poles.  Every selector the package solves gives the relative
        # block a right-hand side in {q-, p-} only (nothing feeds X_b or
        # Y_b), so the two leading unit vectors span them.  LAPACK itself is
        # off by up to ~cond * eps near a pole (2e-7 at one drawn point, where
        # the closed form held 2e-13 of a 50-digit solve), hence that
        # allowance above 1e-12.
        params, _ = point
        sys = build_linear_system(params)
        assert tuple(idx) in sys.blocks
        m = len(idx)
        block = sys.basis_drift[np.ix_(idx, idx)]
        poles = np.abs(np.linalg.eigvals(block).imag)
        omegas = np.concatenate(
            [np.geomspace(0.1, 10.0, 129) * params.big_omega, poles])
        rhs = np.broadcast_to(np.eye(m)[:, None, :2], (m, omegas.size, 2))
        got = _solve_closed_form(block, omegas, rhs)
        shifted_t = -1j * omegas[:, None, None] * np.eye(m) - block.T
        want = np.linalg.solve(shifted_t, rhs.transpose(1, 0, 2)).transpose(1, 0, 2)
        err = np.linalg.norm(got - want, axis=0)
        tol = 1e-12 + 4.0 * np.finfo(float).eps * np.linalg.cond(shifted_t)
        assert np.all(err <= tol[:, None] * np.linalg.norm(want, axis=0))

    def test_dense_closed_form_4x4_matches_transfer_matrix(self, fig2):
        # Every entry nonzero, so det Q det R / det T, which the drift of
        # build_linear_system leaves 0, enters det C.
        _, sys = fig2
        block = np.random.default_rng(5).normal(size=(4, 4))
        block[2:, 2:] = [[-1.0, 2.0], [-2.0, -1.0]]
        dense = with_4x4_block(sys, block)
        check_rows_against_transfer_matrix(dense, np.eye(N_STATE),
                                           [0.0, 0.5, 1.0, 2.0, 10.0])

    def test_4x4_block_with_undamped_trailing_pair_takes_lapack(
            self, fig2, monkeypatch):
        # The trailing pair is an undamped oscillator (trace 0), whose
        # shifted determinant vanishes at omega = 1: no elimination on it.
        _, sys = fig2
        block = with_4x4_block(sys, [[-1.0, 0.0, 1.0, 0.0],
                                     [1.0, -1.0, 0.0, 0.0],
                                     [0.0, 1.0, 0.0, 1.0],
                                     [0.0, 0.0, -1.0, 0.0]])
        omegas = [0.0, 0.5, 1.0, 2.0]
        calls = []
        solve = np.linalg.solve

        def spy(*args):
            calls.append(args[0].shape)
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", spy)
        selected_transfer_rows(block, omegas, np.eye(N_STATE))
        assert calls == [(len(omegas), 4, 4)]
        monkeypatch.undo()
        check_rows_against_transfer_matrix(block, np.eye(N_STATE), omegas)

    def test_singular_closed_form_4x4_raises(self, fig2):
        # Two equal rows make the block singular, so at omega = 0 det C is
        # exactly 0 while det T is 1; no division warns first.
        _, sys = fig2
        singular = with_4x4_block(sys, [[-1.0, 0.0, 1.0, 0.0],
                                        [-1.0, 0.0, 1.0, 0.0],
                                        [0.0, 0.0, -1.0, 1.0],
                                        [0.0, 1.0, 0.0, -1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            selected_transfer_rows(singular, [0.5], np.eye(N_STATE))
            with pytest.raises(SingularityError):
                selected_transfer_rows(singular, [0.5, 0.0], np.eye(N_STATE))

    def test_reference_point_needs_no_lapack(self, fig2, monkeypatch):
        # Every block of the Fig. 2 plan is solved in closed form.
        params, sys = fig2

        def refuse(*args):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        omegas = np.array([1e-2, 0.5, 1.0, 2.0, 1e2]) * params.big_omega
        rows = selected_transfer_rows(sys, omegas, np.eye(N_STATE))
        assert np.isfinite(rows).all()

    def test_singular_single_state_block_raises(self, fig2):
        _, sys = fig2
        drift = -np.eye(N_STATE)
        drift[IXB, IXB] = 0.0
        singular = with_drift(sys, drift)
        assert (IXB,) in singular.blocks
        selected_transfer_rows(singular, [1.0], np.eye(N_STATE))
        with pytest.raises(SingularityError):
            selected_transfer_rows(singular, [1.0, 0.0], np.eye(N_STATE))


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

    # Temperature cases keep their bare ids: [-1.0], [nan], [inf].
    @pytest.mark.parametrize("field,value", [
        pytest.param("temperature", v, id=str(v)) for v in (-1.0, np.nan, np.inf)
    ] + [
        (f, v) for f in ("big_gamma", "big_omega")
        for v in (0.0, -1.0, np.nan, np.inf)
    ])
    def test_bad_temperature_rejected(self, field, value):
        good = {"temperature": 1.0, "big_gamma": 1.0, "big_omega": 1e5}
        with pytest.raises(InvalidParameterError):
            NoiseModel(**{**good, field: value})


class TestSpectralMatrix:
    def test_decoupled_position_spectrum_matches_closed_form(self, decoupled):
        params, sys = decoupled
        noise = NoiseModel(0.0, params.big_gamma, params.big_omega)
        for w in (0.5e5, 1.0e5, 1.5e5):
            s = spectral_matrix(sys, noise, w)
            sym = 0.5 * (s[IQ1, IQ1] + spectral_matrix(sys, noise, -w)[IQ1, IQ1])
            expected = 0.5 * abs(chi(w, params)) ** 2 * (
                noise.brownian_spectrum(w) + noise.brownian_spectrum(-w)
            )
            assert sym.real == pytest.approx(expected, rel=1e-10)
            assert abs(sym.imag) < 1e-12 * abs(sym.real)

    def test_no_cross_correlation_without_entangler(self, meters_only):
        params, sys = meters_only
        noise = NoiseModel.from_params(params)
        s = spectral_matrix(sys, noise, 1e5)
        assert abs(s[IQ1, IQ2]) == 0.0
        assert abs(s[IP1, IP2]) == 0.0

    def test_symmetrized_spectrum_positive_semidefinite(self, fig2, fig2_noise):
        _, sys = fig2
        s = spectral_matrix(sys, fig2_noise, sys.params.big_omega)
        sym = 0.5 * (s + s.conj().T)
        eigs = np.linalg.eigvalsh(sym)
        assert eigs.min() >= -1e-10 * np.linalg.norm(s)

    def test_diagonal_hermitian_combination_real(self, fig2, fig2_noise):
        _, sys = fig2
        w = 0.9e5
        s = spectral_matrix(sys, fig2_noise, w)
        s_m = spectral_matrix(sys, fig2_noise, -w)
        for i in range(N_STATE):
            val = s[i, i] + s_m[i, i]
            assert abs(val.imag) <= 1e-10 * max(abs(val.real), 1e-300)

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

    def test_position_spectrum_monotone_in_temperature(self, fig2):
        _, sys = fig2
        params = sys.params
        w = params.big_omega
        values = []
        for temp in (0.1, 1.0, 4.0, 77.0, 300.0):
            noise = NoiseModel(temp, params.big_gamma, params.big_omega)
            s = spectral_matrix(sys, noise, w)[IQ1, IQ1]
            s_m = spectral_matrix(sys, noise, -w)[IQ1, IQ1]
            values.append((s + s_m).real)
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_hybrid_grid_shape_and_refinement():
    grid = hybrid_grid(1e5)
    assert np.all(np.diff(grid) > 0)
    assert grid[0] == pytest.approx(1e3)
    assert grid[-1] == pytest.approx(1e7)
    near = grid[(grid >= 0.5e5) & (grid <= 1.5e5)]
    assert near.size >= 2001
    assert 1e5 in grid


BAD_DRIFTS = {
    "3x3": np.zeros((3, 3)), "list": np.zeros((N_STATE, N_STATE)).tolist(),
    "nan": np.full((N_STATE, N_STATE), np.nan),
    "inf": np.full((N_STATE, N_STATE), np.inf),
    "complex": np.zeros((N_STATE, N_STATE), dtype=complex),
    "text": np.full((N_STATE, N_STATE), "1"), "None": None,
}


class TestLinearSystemInput:
    @pytest.mark.parametrize("drift", BAD_DRIFTS.values(),
                             ids=BAD_DRIFTS.keys())
    def test_bad_drift_is_an_invalid_parameter(self, fig2, drift):
        _, sys = fig2
        raises_one_line(lambda: LinearSystem(
            drift=drift, noise_coupling=sys.noise_coupling.copy(),
            params=sys.params, steady=sys.steady), "drift")

    @pytest.mark.parametrize("coupling", [
        np.zeros((N_STATE, N_STATE)), np.zeros((N_STATE, N_NOISE)).tolist(),
        np.full((N_STATE, N_NOISE), np.nan),
        np.zeros((N_STATE, N_NOISE), dtype=complex),
    ], ids=["10x10", "list", "nan", "complex"])
    def test_bad_noise_coupling_is_an_invalid_parameter(self, fig2, coupling):
        _, sys = fig2
        raises_one_line(lambda: LinearSystem(
            drift=sys.drift.copy(), noise_coupling=coupling,
            params=sys.params, steady=sys.steady), "noise_coupling")

    def test_the_callers_arrays_stay_its_own(self, fig2):
        # The system keeps read-only copies of drift and noise_coupling: the
        # caller may edit its arrays afterwards, and that edit reaches
        # neither the system nor its record of being the model's assembly.
        _, sys = fig2
        drift, coupling = sys.drift.copy(), sys.noise_coupling.copy()
        copied = LinearSystem(drift=drift, noise_coupling=coupling,
                              params=sys.params, steady=sys.steady)
        assert copied._assembled
        drift[IQ1, IP1] = coupling[IP1, IXI1] = 1.0
        assert drift.flags.writeable and coupling.flags.writeable
        assert np.array_equal(copied.drift, sys.drift)
        assert np.array_equal(copied.noise_coupling, sys.noise_coupling)
        assert copied._assembled
        for array in (copied.drift, copied.noise_coupling):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 1.0


class TestHybridGridInput:
    @pytest.mark.parametrize("big_omega", [np.nan, np.inf, -1.0, 0.0, 1e31,
                                           "1e5", None, [1e5]])
    def test_bad_big_omega_is_an_invalid_parameter(self, big_omega):
        raises_one_line(lambda: hybrid_grid(big_omega), "big_omega")
