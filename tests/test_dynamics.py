import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.constants import hbar as HBAR, k as KB

from mirrorpair import (
    NoiseModel, build_linear_system, degree_sweep, fig2_params, hybrid_grid,
    is_stable, output_spectrum, output_spectrum_via_transfer,
    stability_margin, transfer_matrix, two_channel_spectra,
)
from mirrorpair import dynamics
from mirrorpair.dynamics import (
    ADJOINT_PLAN, IP1, IP2, IQ1, IQ2, IXA1, IXA2, IXB, IYA1, IYA2, IYB, IXI1,
    IXI2, IXIN1, IXIN2, MIRROR_ROTATION, N_NOISE, N_STATE, LinearSystem,
    _nonzero, _solve_closed_form, frequency_grid, selected_transfer_rows,
)
from mirrorpair.entanglement import (
    P1_SELECTOR, Q1_SELECTOR, SWEEP_SELECTORS, U_SELECTOR,
)
from mirrorpair.errors import (
    DriftUnstableError, InvalidParameterError, SingularityError,
)

from conftest import (
    P_STAR, make_params, raises_one_line, rotated, working_points,
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


def check_plan(sys):
    """ADJOINT_PLAN is a back-substitution order of the rotated adjoint
    system of sys, and the rotation undoes to the bits of sys."""
    assert sorted(sum(ADJOINT_PLAN, ())) == list(range(N_STATE))
    a, b = rotated(sys)
    for k, block in enumerate(ADJOINT_PLAN):
        # Row j of the transposed system couples x_j to every x_i with
        # a[i, j] != 0: none of those may be solved after j's block.
        later = list(sum(ADJOINT_PLAN[k + 1:], ()))
        assert not a[np.ix_(later, block)].any(), block
    back = np.linalg.inv(MIRROR_ROTATION)
    assert np.array_equal(back @ a @ MIRROR_ROTATION, sys.drift)
    assert np.array_equal(back @ b, sys.noise_coupling)


def dense_block_solve(block, w, rhs):
    """x with (-i w - block)^T x = rhs by batched LAPACK, in the layout of
    _solve_closed_form: rhs and x of shape (m, n, k)."""
    shifted_t = -1j * w[:, None, None] * np.eye(len(block)) - block.T
    return np.linalg.solve(shifted_t,
                           rhs.transpose(1, 0, 2)).transpose(1, 0, 2)


def check_block_against_dense_solve(block, omegas):
    """_solve_closed_form against dense_block_solve on the unit right-hand
    sides, each solution to 1e-12 of its norm."""
    block, w = np.array(block, dtype=float), np.array(omegas, dtype=float)
    m = len(block)
    rhs = np.broadcast_to(np.eye(m)[:, None, :], (m, w.size, m))
    got = _solve_closed_form(block, w, rhs)
    want = dense_block_solve(block, w, rhs)
    err = np.linalg.norm(got - want, axis=0)
    assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=0)), err


#: Model points away from the fixtures, as overrides of the Fig. 2 point.
PLAN_POINTS = {
    "p_in_a": dict(p_in_a=0.0), "p_in_b": dict(p_in_b=0.0),
    "no_meters": dict(g=0.0), "p_star": P_STAR,
    "weak_entangler": dict(p_in_b=5e-11),
    "opposite_detuning": dict(delta_b=-fig2_params().delta_b),
    "wide_cavities": dict(gamma_a=1e7, gamma_b=1e7),
}


class TestAdjointSolve:
    @pytest.mark.parametrize("point", ["fig2", "decoupled", "meters_only",
                                       *PLAN_POINTS])
    def test_plan_holds_at_model_points(self, request, point):
        # The reference point, the decoupled mirrors, the meters alone,
        # either drive off (p_in_a = 0, p_in_b = 0) or the meters' coupling
        # (g = 0), P*, a vanishing entangler drive, the entangler detuned to
        # the other side, and cavities 100 times wider than Omega.  Omega is
        # left out: the shifted drift has condition ~4e7 there at the Fig. 2
        # point, and neither solve holds 1e-12 on every row.
        if point in PLAN_POINTS:
            sys = build_linear_system(make_params(**PLAN_POINTS[point]))
        else:
            _, sys = request.getfixturevalue(point)
        check_plan(sys)
        omegas = np.array([1e-2, 0.5, 0.9, 1.1, 2.0, 1e2]) * sys.params.big_omega
        check_rows_against_transfer_matrix(sys, np.eye(N_STATE), omegas)

    @pytest.mark.filterwarnings("ignore:expected entangler coupling")
    @settings(max_examples=40, deadline=None)
    @given(point=working_points())
    def test_plan_holds_at_random_working_points(self, point):
        # Here the dense path is the less accurate one: at drawn points its
        # rows were off by up to 2e-4 (at cond 2e17), and at eleven points
        # where they were more than 3e-12 off, the block solve held 4e-15
        # of a 40-digit solve.  So the dense LU is allowed its own normwise
        # error on top of 1e-12 (measured: at most 1.4 eps cond ||M|| over
        # 3000 draws; check_rows_against_transfer_matrix allows 8).
        params, _ = point
        sys = build_linear_system(params)
        check_plan(sys)
        omegas = np.array([1e-2, 0.5, 0.9, 1.0, 1.1, 2.0, 1e2]) * params.big_omega
        check_rows_against_transfer_matrix(sys, np.eye(N_STATE), omegas,
                                           lu_allowance=True)

    def test_block_plan_at_reference_point(self, fig2):
        # The mirror rotation puts q+, p+, q- and p- in the slots of q1, p1,
        # q2 and p2: the centre of mass {q+, p+} splits off the relative
        # mode and the entangler {q-, p-, X_b, Y_b}.  At the reference point
        # no block splits further: each is strongly connected in the rotated
        # drift, so the fixed plan is the finest order there.
        _, sys = fig2
        assert ADJOINT_PLAN == (
            (IYA1,), (IYA2,), (IQ1, IP1), (IQ2, IP2, IXB, IYB), (IXA1,), (IXA2,),
        )
        a, _ = rotated(sys)
        back = np.linalg.inv(MIRROR_ROTATION)
        assert np.array_equal(a, MIRROR_ROTATION @ sys.drift @ back)
        for block in ADJOINT_PLAN:
            m = len(block)
            linked = (a[np.ix_(block, block)] != 0).astype(int)
            reach = np.linalg.matrix_power(np.eye(m, dtype=int) + linked, m)
            assert reach.all(), block

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

    @pytest.mark.parametrize("spring", [-1.0, 1.0], ids=["oscillator", "saddle"])
    def test_closed_form_2x2_matches_dense_solve(self, fig2, spring):
        # The 2x2 block [[0, Omega], [spring * Omega, -1]] has determinant
        # -spring * Omega^2: the oscillator takes the factored real part of
        # det(-i omega - A_b), the saddle the plain one.
        om = fig2[0].big_omega
        check_block_against_dense_solve([[0.0, om], [spring * om, -1.0]],
                                        np.array([0.0, 0.5, 0.999, 1.0, 2.0]) * om)

    def test_singular_closed_form_2x2_raises(self, fig2):
        # The centre of mass of two identical undamped mirrors is exactly
        # singular at omega = Omega, and no division warns first.
        om = fig2[0].big_omega
        block = np.array([[0.0, om], [-om, 0.0]])
        rhs = np.ones((2, 2, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _solve_closed_form(block, np.array([0.5 * om]), rhs[:, :1])
            with pytest.raises(SingularityError):
                _solve_closed_form(block, np.array([0.5 * om, om]), rhs)

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
        assert tuple(idx) in ADJOINT_PLAN
        m = len(idx)
        block = rotated(sys)[0][np.ix_(idx, idx)]
        poles = np.abs(np.linalg.eigvals(block).imag)
        omegas = np.concatenate(
            [np.geomspace(0.1, 10.0, 129) * params.big_omega, poles])
        rhs = np.broadcast_to(np.eye(m)[:, None, :2], (m, omegas.size, 2))
        got = _solve_closed_form(block, omegas, rhs)
        want = dense_block_solve(block, omegas, rhs)
        err = np.linalg.norm(got - want, axis=0)
        shifted_t = -1j * omegas[:, None, None] * np.eye(m) - block.T
        tol = 1e-12 + 4.0 * np.finfo(float).eps * np.linalg.cond(shifted_t)
        assert np.all(err <= tol[:, None] * np.linalg.norm(want, axis=0))

    def test_dense_closed_form_4x4_matches_dense_solve(self):
        # Every entry nonzero, so det Q det R / det T, which the drift of
        # build_linear_system leaves 0, enters det C.
        block = np.random.default_rng(5).normal(size=(4, 4))
        block[2:, 2:] = [[-1.0, 2.0], [-2.0, -1.0]]
        check_block_against_dense_solve(block, [0.0, 0.5, 1.0, 2.0, 10.0])

    def test_singular_closed_form_4x4_raises(self):
        # Two equal rows make the block singular, so at omega = 0 det C is
        # exactly 0 while det T is 1; no division warns first.
        block = np.array([[-1.0, 0.0, 1.0, 0.0],
                          [-1.0, 0.0, 1.0, 0.0],
                          [0.0, 0.0, -1.0, 1.0],
                          [0.0, 1.0, 0.0, -1.0]])
        rhs = np.ones((4, 2, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _solve_closed_form(block, np.array([0.5]), rhs[:, :1])
            with pytest.raises(SingularityError):
                _solve_closed_form(block, np.array([0.5, 0.0]), rhs)

    @pytest.mark.filterwarnings("ignore:expected entangler coupling")
    @settings(max_examples=40, deadline=None)
    @given(point=working_points())
    def test_no_working_point_needs_lapack(self, point):
        # Every block of ADJOINT_PLAN is one division or a closed form, at
        # every model system.
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

    def test_singular_single_state_block_raises(self):
        # A zero diagonal entry: -i omega - 0 vanishes at omega = 0 only.
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
        # solver: the adjoint solve forms its rotated pair per call.
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
