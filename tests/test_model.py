import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.constants
from hypothesis import given, strategies as st
from scipy.constants import c as C_LIGHT, hbar as HBAR

import mirrorpair
from mirrorpair import (
    NoiseModel, PhysicalParams, build_linear_system, fig2_params,
    power_to_amplitude, steady_state,
)
from mirrorpair import model
from mirrorpair.errors import InvalidParameterError
from mirrorpair.model import MAGNITUDE_RANGE

from conftest import make_params

OMEGA_1064 = 2.0 * np.pi * C_LIGHT / 1.064e-6


def test_si_constants_equal_scipy_bit_for_bit():
    assert model.HBAR == scipy.constants.hbar
    assert model.KB == scipy.constants.k
    assert model.C_LIGHT == scipy.constants.c


def test_import_loads_no_scipy():
    # scipy is needed only by the Monte Carlo oracle's matrix exponential,
    # which imports it on first use.
    code = ("import mirrorpair, sys; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    env = dict(os.environ,
               PYTHONPATH=str(Path(mirrorpair.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_zero_power_gives_zero_amplitude():
    assert power_to_amplitude(0.0, OMEGA_1064) == 0.0


def test_unit_photon_flux_by_construction():
    omega = OMEGA_1064
    assert power_to_amplitude(HBAR * omega, omega) == pytest.approx(1.0, rel=1e-15)


def test_amplitude_against_hand_arithmetic():
    # Independent scalar evaluation of sqrt(P / hbar omega).
    power = 5e-3
    expected = (power / (HBAR * OMEGA_1064)) ** 0.5
    assert power_to_amplitude(power, OMEGA_1064) == pytest.approx(expected, rel=1e-14)


def test_amplitude_rejects_bad_arguments():
    with pytest.raises(InvalidParameterError):
        power_to_amplitude(1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        power_to_amplitude(1.0, -1.0)
    with pytest.raises(InvalidParameterError):
        power_to_amplitude(-1.0, OMEGA_1064)
    with pytest.raises(InvalidParameterError):
        power_to_amplitude(np.nan, OMEGA_1064)
    with pytest.raises(InvalidParameterError):
        power_to_amplitude(1.0, np.inf)


@given(st.floats(min_value=1e-9, max_value=1e3))
def test_amplitude_square_scales_linearly_in_power(power):
    base = power_to_amplitude(power, OMEGA_1064)
    doubled = power_to_amplitude(2.0 * power, OMEGA_1064)
    assert doubled ** 2 == pytest.approx(2.0 * base ** 2, rel=1e-12)


def test_steady_state_no_drive():
    ss = steady_state(make_params(p_in_a=0.0, p_in_b=0.0))
    assert ss.alpha == 0.0
    assert ss.beta == 0.0


def test_steady_state_resonant_entangler():
    params = fig2_params(delta_b=1e-30)  # effectively on resonance
    ss = steady_state(params)
    beta_in = power_to_amplitude(params.p_in_b, params.omega_b0)
    assert abs(ss.beta.imag) < 1e-20 * abs(ss.beta)
    assert abs(ss.beta) == pytest.approx(
        2.0 * beta_in / np.sqrt(params.gamma_b), rel=1e-13
    )


def test_steady_state_amplitudes_match_scalar_oracle():
    params = fig2_params()
    ss = steady_state(params)
    beta_in = (params.p_in_b / (HBAR * params.omega_b0)) ** 0.5
    expected = abs(
        params.gamma_b ** 0.5 * beta_in
        / (params.gamma_b / 2.0 - 1j * params.delta_b)
    ) ** 2
    assert abs(ss.beta) ** 2 == pytest.approx(expected, rel=1e-13)
    alpha_in = (params.p_in_a / (HBAR * params.omega_a0)) ** 0.5
    assert ss.alpha == pytest.approx(2.0 * alpha_in / params.gamma_a ** 0.5, rel=1e-13)


def test_steady_state_structure():
    ss = steady_state(fig2_params())
    assert ss.alpha > 0 and isinstance(ss.alpha, float)  # alpha real positive


def test_power_doubling_doubles_photon_numbers():
    p1 = fig2_params()
    p2 = fig2_params(p_in_a=2 * p1.p_in_a, p_in_b=2 * p1.p_in_b)
    s1, s2 = steady_state(p1), steady_state(p2)
    assert s2.alpha ** 2 == pytest.approx(2 * s1.alpha ** 2, rel=1e-13)
    assert abs(s2.beta) ** 2 == pytest.approx(2 * abs(s1.beta) ** 2, rel=1e-13)


def test_steady_state_is_deterministic():
    a = steady_state(fig2_params())
    b = steady_state(fig2_params())
    assert a == b


def test_coupling_ordering_warns():
    with pytest.warns(UserWarning, match="big_g"):
        PhysicalParams(g=5.0, big_g=0.5)


@pytest.mark.parametrize("field,value", [
    ("gamma_a", 0.0), ("gamma_b", -1.0), ("big_omega", 0.0),
    ("gamma_b", 0.0), ("big_gamma", -2.0), ("temperature", -0.1),
    ("p_in_a", -1e-3), ("g", -0.5),
    ("gamma_b", np.inf), ("temperature", np.nan), ("g", np.nan),
    ("delta_b", -np.inf),
    ("big_gamma", 1e308), ("omega_a0", 5e-324), ("p_in_b", 1e31),
    ("delta_b", -1e-31), ("temperature", 2e30),
    ("g", "0.5"), ("g", None), ("big_omega", 1e5 + 0j),
])
def test_parameter_validation(field, value):
    with pytest.raises(InvalidParameterError, match=f"^{field} must be"):
        PhysicalParams(**{field: value})


def test_magnitude_range_ends_and_zero_accepted():
    lo, hi = MAGNITUDE_RANGE
    make_params(big_gamma=hi, delta_b=-lo, g=0.0, big_g=0.0, temperature=0.0)
    make_params(big_gamma=lo, delta_b=-hi)


def test_every_parameter_reaches_the_model():
    # A field that no equation reads would be a config key that silently
    # does nothing: scaling each one must move the drift, the noise
    # coupling or the thermal spectrum.
    def model_arrays(params):
        sys = build_linear_system(params)
        noise = NoiseModel.from_params(params)
        return (sys.drift, sys.noise_coupling,
                noise.symmetrized_spectrum(params.big_omega))

    base = fig2_params()
    ref = model_arrays(base)
    inert = [
        f.name for f in fields(base)
        if all(np.array_equal(a, b) for a, b in zip(
            ref, model_arrays(replace(base, **{f.name: 1.1 * getattr(base, f.name)}))
        ))
    ]
    assert inert == []
