"""Acceptance gate: end-to-end checks of the documented product claims.

Each test prints a single PASS/FAIL line so the gate can be read off the
pytest -s output at a glance.
"""

import dataclasses
import time

import numpy as np
import pytest
from scipy.constants import c as C_LIGHT, hbar as HBAR

from mirrorpair import (
    NoiseModel,
    SdeRun,
    build_linear_system,
    classical_sde_psd,
    degree_sweep,
    fig2_params,
    gain_condition,
    hybrid_grid,
    output_spectrum,
    output_spectrum_via_transfer,
    separability_product,
    tmsv_state,
)
from mirrorpair.cli import SweepSpec, run_sweep
from mirrorpair.dynamics import IQ1, IQ2
from mirrorpair.entanglement import separability_optimum, separability_products
from mirrorpair.oracle import sample_separable_covariances
from conftest import make_params


def _report(number: int, label: str, ok: bool):
    print(f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({label}) failed"


@pytest.fixture(scope="module")
def fig2_system():
    params = fig2_params()
    return params, build_linear_system(params)


def _grid(params, count=2001):
    return np.linspace(0.5, 1.5, count) * params.big_omega


def test_criterion_1_resonance_locus(fig2_system):
    params, sys = fig2_system
    omegas = _grid(params)
    step = omegas[1] - omegas[0]
    t0 = time.perf_counter()
    ok = True
    for temp in (0.1, 1.0, 4.0):
        noise = NoiseModel(temp, params.big_gamma, params.big_omega)
        degree = degree_sweep(sys, noise, omegas)["degree"]
        argmin = omegas[np.argmin(degree)]
        ok = ok and abs(argmin - params.big_omega) <= step
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(1, "resonance locus", ok)


def test_criterion_2_epr_at_low_temperature(fig2_system):
    params, sys = fig2_system
    ok = True
    for kernel in ("corrected", "halved"):
        cold = NoiseModel(0.1, params.big_gamma, params.big_omega, kernel)
        warm = NoiseModel(4.0, params.big_gamma, params.big_omega, kernel)
        e_cold = degree_sweep(sys, cold, [params.big_omega])["degree"][0]
        e_warm = degree_sweep(sys, warm, [params.big_omega])["degree"][0]
        print(f"  kernel={kernel}: E(Omega, 0.1 K) = {e_cold:.5f}, "
              f"E(Omega, 4 K) = {e_warm:.5f}")
        ok = ok and e_cold < 0.25 and e_warm < 1.0
    _report(2, "EPR at low temperature", ok)


def test_criterion_3_thermal_degradation(fig2_system):
    params, sys = fig2_system
    omegas = _grid(params)
    temps = np.geomspace(0.1, 300.0, 20)
    at_resonance = []
    measures = []
    for temp in temps:
        noise = NoiseModel(temp, params.big_gamma, params.big_omega)
        degree = degree_sweep(sys, noise, omegas)["degree"]
        at_resonance.append(
            degree_sweep(sys, noise, [params.big_omega])["degree"][0]
        )
        measures.append(np.count_nonzero(degree < 1.0))
    ok = all(b >= a - 1e-9 for a, b in zip(at_resonance, at_resonance[1:]))
    ok = ok and all(b <= a for a, b in zip(measures, measures[1:]))
    _report(3, "thermal degradation", ok)


def test_criterion_4_no_entangler_soundness():
    params = make_params(big_g=0.0)
    sys = build_linear_system(params)
    omegas = _grid(params)
    ok = True
    for temp in (0.1, 4.0, 300.0):
        noise = NoiseModel(temp, params.big_gamma, params.big_omega)
        degree = degree_sweep(sys, noise, omegas)["degree"]
        ok = ok and bool(np.all(degree >= 1.0 - 1e-9))
    _report(4, "separable-configuration soundness", ok)


def test_criterion_5_separability_theorem_suite():
    t0 = time.perf_counter()
    covs, _ = sample_separable_covariances(seed=20240501, count=100_000)
    a_values = 2.0 ** np.arange(-5, 6, dtype=float)
    products = separability_products(covs, a_values)
    ok = bool(products.min() >= 1.0 - 1e-9)
    # the true optimum over a > 0 of every sample, in one batched call
    _, best = separability_optimum(covs)
    ok = ok and bool(best.min() >= 1.0 - 1e-9)
    product, _ = separability_product(tmsv_state(1.0), 1.0)
    ok = ok and abs(product - np.exp(-4.0)) <= 1e-12
    ok = ok and (time.perf_counter() - t0) < 60.0
    _report(5, "separability theorem suite", ok)


def test_criterion_6a_decoupled_closed_form():
    params = make_params(g=0.0, big_g=0.0)
    sys = build_linear_system(params)
    noise = NoiseModel(4.0, params.big_gamma, params.big_omega)
    omegas = hybrid_grid(params.big_omega)
    om = params.big_omega
    chi = om / (om ** 2 - omegas ** 2 - 1j * params.big_gamma * omegas)
    expected = 0.5 * np.abs(chi) ** 2 * (
        noise.brownian_spectrum(omegas) + noise.brownian_spectrum(-omegas)
    )
    # Two independent identical mirrors: <R_u^2> = 2 <R_q1^2>, where
    # <R_q1^2> = |chi|^2 [S_xi(w) + S_xi(-w)] / 4.
    measured = degree_sweep(sys, noise, omegas)["var_u"]
    rel = np.abs(measured - expected) / expected
    _report(6, "oracle 6a decoupled closed form", bool(rel.max() <= 1e-8))


def test_criterion_6b_monte_carlo_periodogram():
    # the reference working point is formally unstable, so the time-domain
    # cross-check runs on a stabilized variant (entangler off, heavier
    # mechanical damping) where a stationary state exists
    params = make_params(big_g=0.0, big_gamma=1e3, temperature=300.0)
    sys = build_linear_system(params)
    noise = NoiseModel(300.0, params.big_gamma, params.big_omega)
    run = SdeRun(seed=20240817, dt=2e-5, total_time=0.1, burn_in=5e-3,
                 trajectories=800, record=((IQ1, IQ2),))
    spectra = classical_sde_psd(sys, noise, run)
    order = np.argsort(np.abs(spectra.omegas - params.big_omega))[:11]
    mc = spectra.psd[0, order].mean()
    # The periodogram of u = q1 + q2 estimates [S_uu(w) + S_uu(-w)] / 2,
    # and the sweep's var_u is <R_u^2> = [S_uu(w) + S_uu(-w)] / 4.
    var_u = degree_sweep(sys, noise, spectra.omegas[order])["var_u"]
    theory = 2.0 * var_u.mean()
    rel = abs(mc / theory - 1.0)
    print(f"  MC/theory at resonance: {mc:.6e} / {theory:.6e} "
          f"(rel {rel:.3%}, {run.trajectories} trajectories)")
    _report(6, "oracle 6b Monte Carlo periodogram", rel <= 0.05)


def test_criterion_6c_commutator_temperature_independent(fig2_system):
    params, sys = fig2_system
    omegas = _grid(params, count=201)
    ref = None
    ok = True
    for temp in (0.1, 4.0, 300.0):
        noise = NoiseModel(temp, params.big_gamma, params.big_omega)
        comm = degree_sweep(sys, noise, omegas)["commutator_sq"]
        if ref is None:
            ref = comm
        else:
            ok = ok and bool(np.all(np.abs(comm - ref) <= 1e-10 * ref))
    _report(6, "oracle 6c commutator T-independence", ok)


def test_criterion_7_readout_consistency(fig2_system):
    params, sys = fig2_system
    noise = NoiseModel(4.0, params.big_gamma, params.big_omega)
    omegas = _grid(params, count=101)
    ok = True
    for channel in (1, 2):
        direct = output_spectrum(sys, noise, omegas, channel)
        via = output_spectrum_via_transfer(sys, noise, omegas, channel)
        ok = ok and bool(
            np.all(np.abs(direct - via) <= 1e-10 * np.abs(direct))
        )
    # independent scalar arithmetic for the gain-condition figure of merit
    omega_laser = 2.0 * np.pi * C_LIGHT / 1.064e-6
    alpha_in = np.sqrt(params.p_in_a / (HBAR * omega_laser))
    alpha = 2.0 * alpha_in / np.sqrt(params.gamma_a)
    by_hand = (params.g * alpha) ** 2 / (
        (params.gamma_a ** 2 / 4.0 + params.big_omega ** 2) / 4.0
    )
    ratio, _ = gain_condition(sys, params.big_omega)
    ok = ok and abs(ratio / by_hand - 1.0) <= 1e-12
    _report(7, "readout consistency", ok)


def test_criterion_8_worker_determinism(tmp_path):
    params = fig2_params()
    spec = SweepSpec(
        params=params,
        omega_min=0.5 * params.big_omega,
        omega_max=1.5 * params.big_omega,
        omega_count=600,
        temperatures=(0.1, 4.0),
    )
    run_sweep(spec, tmp_path / "w1")
    run_sweep(dataclasses.replace(spec, workers=8), tmp_path / "w8")
    serial = (tmp_path / "w1" / "sweep.csv").read_bytes()
    parallel = (tmp_path / "w8" / "sweep.csv").read_bytes()
    _report(8, "worker determinism", serial == parallel)
