"""Tests for the Monte Carlo SDE oracle and the Gaussian-state generators."""

import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov

from mirrorpair import (
    NoiseModel,
    SdeRun,
    classical_sde_psd,
    tmsv_state,
)
from mirrorpair.dynamics import IXA1, IQ1, N_STATE
from mirrorpair.entanglement import SYMPLECTIC_FORM
from mirrorpair.errors import DriftUnstableError, InvalidParameterError
from mirrorpair.oracle import (
    OracleSpectra,
    _discretize,
    sample_separable_covariances,
    white_noise_intensities,
)


class TestSdeRunValidation:
    def test_bad_settings_rejected(self):
        good = dict(seed=1, dt=1e-6, total_time=1.0, burn_in=0.0,
                    trajectories=2)
        for field, value in [
            ("dt", 0.0), ("total_time", -1.0), ("trajectories", 0),
            ("dt", np.nan), ("total_time", np.inf), ("burn_in", np.inf),
            ("trajectories", 2.5), ("trajectories", True),
        ]:
            with pytest.raises(InvalidParameterError, match=field):
                SdeRun(**{**good, field: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, "x", None, True])
    def test_seed_must_be_an_integer_at_least_0(self, seed):
        with pytest.raises(InvalidParameterError, match="seed"):
            SdeRun(seed=seed, dt=1e-6, total_time=1.0, burn_in=0.0,
                   trajectories=2)
        with pytest.raises(InvalidParameterError, match="seed"):
            sample_separable_covariances(seed=seed, count=4)

    @pytest.mark.parametrize("record", [
        ((N_STATE,),), ((-1,),), ((IQ1, 1.0),), ((True,),), (IQ1,), [(IQ1,)],
        ((IQ1,), [IXA1]),
    ])
    def test_record_must_hold_state_indices(self, record):
        with pytest.raises(InvalidParameterError, match="record"):
            SdeRun(seed=0, dt=1e-6, total_time=1.0, burn_in=0.0,
                   trajectories=2, record=record)

    def test_step_count_bounded(self):
        with pytest.raises(InvalidParameterError, match="steps"):
            SdeRun(seed=1, dt=1e-30, total_time=1e30, burn_in=0.0,
                   trajectories=2)
        with pytest.raises(InvalidParameterError, match="steps"):
            SdeRun(seed=1, dt=1e-6, total_time=50.0, burn_in=60.0,
                   trajectories=2)
        SdeRun(seed=1, dt=1e-6, total_time=50.0, burn_in=40.0,
               trajectories=2)

    def test_recorded_values_bounded(self):
        # classical_sde_psd records signals x steps x trajectories floats:
        # 1e7 steps x 1e6 trajectories would be 72.8 TiB, refused before
        # numpy is asked for it.  The run of 2 x 5e7 values above, the
        # bound, still constructs, and so do 1e8 values over two signals.
        with pytest.raises(InvalidParameterError, match="trajectories"):
            SdeRun(seed=0, dt=1e-6, total_time=10.0, burn_in=0.0,
                   trajectories=10 ** 6)
        with pytest.raises(InvalidParameterError, match="trajectories"):
            SdeRun(seed=0, dt=1e-6, total_time=10.0, burn_in=0.0,
                   trajectories=6, record=((IQ1,), (IXA1,)))
        SdeRun(seed=0, dt=1e-6, total_time=10.0, burn_in=0.0,
               trajectories=5, record=((IQ1,), (IXA1,)))

    def test_a_periodogram_needs_two_recorded_steps(self, decoupled):
        # total_time / dt rounds to the recorded steps: 0 and 1 are refused,
        # and 2 give a periodogram with a finite standard error.
        for total_time in (4e-7, 1.4e-6):
            with pytest.raises(InvalidParameterError, match="total_time"):
                SdeRun(seed=0, dt=1e-6, total_time=total_time, burn_in=0.0,
                       trajectories=2)
        params, sys = decoupled
        noise = NoiseModel(4.0, params.big_gamma, params.big_omega)
        run = SdeRun(seed=0, dt=1e-6, total_time=1.6e-6, burn_in=0.0,
                     trajectories=2)
        spectra = classical_sde_psd(sys, noise, run)
        assert spectra.psd.shape == spectra.stderr.shape == (1, 2)
        assert np.all(np.isfinite(spectra.stderr))

    def test_a_standard_error_needs_two_trajectories(self):
        with pytest.raises(InvalidParameterError, match="trajectories"):
            SdeRun(seed=0, dt=1e-6, total_time=1e-3, burn_in=0.0,
                   trajectories=1)

    def test_unstable_system_rejected(self, fig2, fig2_noise, monkeypatch):
        # The drift's eigenvalues are computed once, for the check and for
        # the error alike (dynamics._require_stable).
        _, sys = fig2
        run = SdeRun(seed=1, dt=1e-7, total_time=1e-4, burn_in=0.0,
                     trajectories=2)
        calls = []
        eigvals = np.linalg.eigvals

        def spy(matrix):
            calls.append(np.shape(matrix))
            return eigvals(matrix)

        monkeypatch.setattr(np.linalg, "eigvals", spy)
        with pytest.raises(DriftUnstableError) as excinfo:
            classical_sde_psd(sys, fig2_noise, run)
        assert calls == [(N_STATE, N_STATE)]
        assert np.max(np.real(excinfo.value.eigenvalues)) > 0


class TestDiscretization:
    def test_exact_scheme_matches_scalar_ou_closed_form(self, decoupled):
        # with g = 0 the meter quadrature is a pure Ornstein-Uhlenbeck
        # process: relaxation gamma_a/2, increment variance 1 - e^{-gamma_a dt}
        params, sys = decoupled
        noise = NoiseModel(0.0, params.big_gamma, params.big_omega)
        dt = 3e-6
        phi, root = _discretize(sys, noise, dt)
        cov = root @ root.T
        lam = params.gamma_a / 2.0
        assert phi[IXA1, IXA1] == pytest.approx(np.exp(-lam * dt), rel=1e-10)
        assert cov[IXA1, IXA1] == pytest.approx(
            1.0 - np.exp(-2.0 * lam * dt), rel=1e-10
        )

    def test_long_step_matches_the_stationary_covariance(self, decoupled):
        # Over dt = 1e-3 s the meters relax 50 e-folds.  The increment
        # covariance of a stationary process is P - phi P phi^T, with P
        # the Lyapunov solution of A P + P A^T + Q = 0.
        params, sys = decoupled
        noise = NoiseModel(4.0, params.big_gamma, params.big_omega)
        dt = 1e-3
        phi, root = _discretize(sys, noise, dt)
        b = sys.noise_coupling
        q = b @ np.diag(white_noise_intensities(noise)) @ b.T
        p = solve_continuous_lyapunov(sys.drift, -q)
        expected = p - phi @ p @ phi.T
        cov = root @ root.T
        assert np.abs(cov - expected).max() <= 1e-9 * np.abs(expected).max()
        assert cov[IXA1, IXA1] == pytest.approx(1.0, rel=1e-12)
        run = SdeRun(seed=0, dt=dt, total_time=0.1, burn_in=0.0,
                     trajectories=4)
        spectra = classical_sde_psd(sys, noise, run)
        assert np.all(np.isfinite(spectra.psd))

    def test_euler_and_exact_agree_to_second_order(self, decoupled):
        params, sys = decoupled
        noise = NoiseModel(0.0, params.big_gamma, params.big_omega)
        dt = 1e-9
        phi_e = np.eye(N_STATE) + sys.drift * dt
        phi_x, _ = _discretize(sys, noise, dt)
        step = np.linalg.norm(sys.drift) * dt
        assert np.linalg.norm(phi_e - phi_x) <= step ** 2

    def test_white_intensities_match_symmetrized_inputs(self, fig2_noise):
        d = white_noise_intensities(fig2_noise)
        assert d.shape == (8,)
        # optical vacua are unit white noise
        assert np.allclose(d[2:], 1.0, rtol=1e-12)
        # thermal channels take the symmetrized resonance value
        w = fig2_noise.big_omega
        sym = 0.5 * (fig2_noise.brownian_spectrum(w)
                     + fig2_noise.brownian_spectrum(-w))
        assert d[0] == pytest.approx(sym, rel=1e-12)
        assert d[1] == pytest.approx(sym, rel=1e-12)


class TestClassicalSdePsd:
    def test_ou_lorentzian_spectrum(self, decoupled):
        params, sys = decoupled
        noise = NoiseModel(0.0, params.big_gamma, params.big_omega)
        run = SdeRun(seed=20240817, dt=1e-6, total_time=2e-2, burn_in=2e-4,
                     trajectories=160, record=((IXA1,),))
        spectra = classical_sde_psd(sys, noise, run)
        lam = params.gamma_a / 2.0
        for w in (0.0, 0.5e5, 1.0e5, 2.0e5):
            expected = params.gamma_a / (lam ** 2 + w ** 2)
            measured = spectra.at(w, bins=40)
            assert measured == pytest.approx(expected, rel=0.10)

    def test_seed_determinism(self, decoupled):
        params, sys = decoupled
        noise = NoiseModel(0.0, params.big_gamma, params.big_omega)
        run = SdeRun(seed=5, dt=2e-6, total_time=2e-3, burn_in=1e-4,
                     trajectories=8, record=((IXA1,),))
        a = classical_sde_psd(sys, noise, run)
        b = classical_sde_psd(sys, noise, run)
        assert np.array_equal(a.psd, b.psd)
        other = SdeRun(seed=6, dt=2e-6, total_time=2e-3, burn_in=1e-4,
                       trajectories=8, record=((IXA1,),))
        c = classical_sde_psd(sys, noise, other)
        assert not np.array_equal(a.psd, c.psd)

    def test_summed_record_channels(self, decoupled):
        params, sys = decoupled
        noise = NoiseModel(300.0, params.big_gamma, params.big_omega)
        run = SdeRun(seed=9, dt=2e-6, total_time=1e-3, burn_in=0.0,
                     trajectories=4, record=((IQ1,), (IQ1, IXA1)))
        spectra = classical_sde_psd(sys, noise, run)
        assert spectra.psd.shape[0] == 2
        assert spectra.psd.shape == spectra.stderr.shape
        assert np.all(spectra.psd >= 0.0)

    def test_repeated_record_index_is_summed(self, decoupled):
        params, sys = decoupled
        noise = NoiseModel(300.0, params.big_gamma, params.big_omega)
        run = SdeRun(seed=9, dt=2e-6, total_time=1e-3, burn_in=0.0,
                     trajectories=4, record=((IQ1,), (IQ1, IQ1)))
        psd = classical_sde_psd(sys, noise, run).psd
        assert np.allclose(psd[1], 4.0 * psd[0], rtol=1e-12, atol=0)

    def test_bin_averaging_helper(self):
        spectra = OracleSpectra(
            omegas=np.array([0.0, 1.0, 2.0, 3.0]),
            psd=np.array([[4.0, 8.0, 16.0, 32.0]]),
            stderr=np.zeros((1, 4)),
        )
        assert spectra.at(2.1) == 16.0
        assert spectra.at(2.1, bins=2) == pytest.approx((16.0 + 32.0) / 2.0)


class TestSeparableSampler:
    def test_shapes_and_symmetry(self):
        covs, means = sample_separable_covariances(seed=1, count=64)
        assert covs.shape == (64, 4, 4)
        assert means.shape == (64, 4)
        assert np.allclose(covs, covs.transpose(0, 2, 1), rtol=0, atol=1e-12)

    def test_states_are_physical(self):
        covs, _ = sample_separable_covariances(seed=2, count=256)
        h = covs + 0.5j * SYMPLECTIC_FORM
        margins = np.linalg.eigvalsh(h).min(axis=1)
        assert margins.min() >= -1e-9

    def test_states_are_ppt(self):
        # separable states stay physical under partial transposition
        # (p2 -> -p2), a necessary condition the sampler must respect
        covs, _ = sample_separable_covariances(seed=3, count=256)
        flip = np.diag([1.0, 1.0, 1.0, -1.0])
        pt = flip @ covs @ flip
        h = pt + 0.5j * SYMPLECTIC_FORM
        margins = np.linalg.eigvalsh(h).min(axis=1)
        assert margins.min() >= -1e-9

    def test_mixture_covariance_matches_direct_sampling(self):
        # verify the mixture second-moment assembly against brute-force
        # sampling from one generated state's mixture representation
        covs, means = sample_separable_covariances(seed=4, count=1)
        rng = np.random.default_rng(99)
        # sample directly from the Gaussian with that covariance and compare
        draws = rng.multivariate_normal(means[0], covs[0], size=200000)
        emp = np.cov(draws.T)
        assert np.allclose(emp, covs[0], rtol=0.05, atol=0.05 * np.abs(covs[0]).max())

    def test_sampler_determinism(self):
        a, ma = sample_separable_covariances(seed=7, count=16)
        b, mb = sample_separable_covariances(seed=7, count=16)
        assert np.array_equal(a, b)
        assert np.array_equal(ma, mb)

    def test_count_validation(self):
        with pytest.raises(InvalidParameterError):
            sample_separable_covariances(seed=1, count=0)
        with pytest.raises(InvalidParameterError):
            sample_separable_covariances(seed=1, count=2.5)


class TestTmsv:
    def test_local_scaling_preserves_physicality(self):
        for s in (0.3, 1.0, 2.5):
            state = tmsv_state(1.5, local_scalings=(s, 1.0 / s))
            assert state.physicality_margin() >= -1e-9

    def test_ppt_violated_for_entangled_state(self):
        state = tmsv_state(1.0)
        flip = np.diag([1.0, 1.0, 1.0, -1.0])
        pt = flip @ state.cov @ flip
        h = pt + 0.5j * SYMPLECTIC_FORM
        assert np.linalg.eigvalsh(h).min() < -0.1
