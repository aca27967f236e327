"""Tests for the entanglement degree and the Gaussian separability checker."""

import numpy as np
import pytest
from scipy.linalg import expm

from mirrorpair import (
    GaussianState,
    NoiseModel,
    build_linear_system,
    degree_sweep,
    fig2_params,
    optimize_separability,
    separability_product,
    tmsv_state,
)
from mirrorpair.dynamics import (
    LinearSystem, N_NOISE, N_STATE, hybrid_grid, noise_weights,
    selected_transfer_rows,
)
from mirrorpair.entanglement import (
    SWEEP_SELECTORS, SYMPLECTIC_FORM, separability_optimum,
    separability_products,
)
from mirrorpair.oracle import sample_separable_covariances
from mirrorpair.errors import (
    DegenerateCommutatorError,
    InvalidParameterError,
    UnphysicalStateError,
)


def chi(omega, params):
    om = params.big_omega
    return om / (om ** 2 - omega ** 2 - 1j * params.big_gamma * omega)


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

    def test_no_entangler_never_entangled(self, meters_only):
        params, sys = meters_only
        noise = NoiseModel.from_params(params)
        w = np.linspace(0.5, 1.5, 201) * params.big_omega
        out = degree_sweep(sys, noise, w)
        assert np.all(out["degree"] >= 1.0 - 1e-9)

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

    @pytest.mark.parametrize("temperature", [0.0, 0.1, 300.0])
    def test_sweep_is_the_form_of_its_rows(self, fig2, temperature):
        # Var(u), Var(v) and the commutator are each one NoiseModel.form of
        # a pair of rows, bit for bit, and nothing else enters.
        params, sys = fig2
        noise = NoiseModel(temperature, params.big_gamma, params.big_omega)
        w = hybrid_grid(params.big_omega)
        out = degree_sweep(sys, noise, w)
        u, v, q1, p1 = selected_transfer_rows(
            sys, w, SWEEP_SELECTORS).transpose(1, 0, 2)

        def form(ri, rj):
            return noise.form(w, *noise_weights(ri, rj))

        assert np.array_equal(out["var_u"], 0.5 * form(u, u).real)
        assert np.array_equal(out["var_v"], 0.5 * form(v, v).real)
        assert np.array_equal(out["commutator_sq"], form(q1, p1).imag ** 2)

    def test_degenerate_commutator_raises(self, fig2):
        _, sys = fig2
        silent = LinearSystem(
            drift=sys.drift,
            noise_coupling=np.zeros((N_STATE, N_NOISE)),
            params=sys.params,
            steady=sys.steady,
        )
        noise = NoiseModel.from_params(sys.params)
        with pytest.raises(DegenerateCommutatorError):
            degree_sweep(silent, noise, [sys.params.big_omega])


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

    def test_tmsv_zero_is_vacuum(self):
        assert np.allclose(tmsv_state(0.0).cov, 0.5 * np.eye(4))

    def test_tmsv_remains_physical_at_large_r(self):
        state = tmsv_state(20.0)
        assert state.physicality_margin() >= -1e-9 * np.abs(state.cov).max()

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
        a_values = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
        batch = separability_products(covs, a_values)
        assert batch.shape == (16, 5)
        for i in range(4):
            for k, a in enumerate(a_values):
                single, _ = separability_product(GaussianState(cov=covs[i]), a)
                assert batch[i, k] == pytest.approx(single, rel=1e-13)

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

    def test_batched_equals_per_state(self, kind):
        covs = _RANDOM_STATES[kind]()
        best_a, best = separability_optimum(covs)
        for i, cov in enumerate(covs):
            a_i, best_i = separability_optimum(cov)
            assert (a_i, best_i) == (best_a[i], best[i]), i
            assert optimize_separability(GaussianState(cov=cov)) == (a_i, best_i)


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
