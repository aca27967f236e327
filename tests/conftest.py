import warnings

import numpy as np
import pytest
from hypothesis import strategies as st

from mirrorpair import NoiseModel, build_linear_system, fig2_params
from mirrorpair.dynamics import BROWNIAN_KERNELS, IXB, IYB, N_STATE
from mirrorpair.errors import InvalidParameterError


def make_params(**overrides):
    """PhysicalParams with the g < big_g ordering warning silenced, for
    deliberately degenerate configurations (G = 0 and the like)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return fig2_params(**overrides)


def raises_one_line(call, name):
    """Assert that call raises an InvalidParameterError whose message names
    the argument name and fits on one line, with no warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match=name) as info:
            call()
    assert "\n" not in str(info.value)


#: Fields that carry a rate (1/s), a power or the temperature: scaling all
#: of them and the frequency by one factor is a change of time unit.
RATE_FIELDS = ("gamma_a", "gamma_b", "big_omega", "big_gamma", "g", "big_g",
               "delta_b", "p_in_a", "p_in_b", "temperature")


#: P*, a stable working point with a second entangled band at the damped
#: optical pole pair (-0.0243 +- 69.101 i) Omega, close to |delta_b|.
P_STAR = dict(delta_b=-6.91e6, p_in_b=7.03e-3, gamma_b=4.87e3, big_g=80.6,
              g=1.28e-3, big_gamma=1.1e-2, p_in_a=8.7e-7)


def meter_output(sys, w):
    """(gain, refl) of the meter output current at the working point in
    sys, from the documented formulas
    gain = 2 g alpha sqrt(gamma_a) / (gamma_a/2 - i w) and
    refl = (gamma_a/2 + i w) / (gamma_a/2 - i w)."""
    p, w = sys.params, np.asarray(w)
    gain = (2.0 * (p.g * sys.steady.alpha) * np.sqrt(p.gamma_a)
            / (p.gamma_a / 2.0 - 1j * w))
    refl = (p.gamma_a / 2.0 + 1j * w) / (p.gamma_a / 2.0 - 1j * w)
    return gain, refl


#: The states of the centre-of-mass block {q+, p+} and of the relative
#: block {q-, p-, X_b, Y_b} in the coordinates of mirror_rotation.
MIRROR_STATES = ([0, 1], [2, 3, IXB, IYB])


def mirror_rotation():
    """T with T x = (q+, p+, q-, p-, the rest of x unchanged), q+- = q1 +- q2
    and p+- = p1 +- p2."""
    t = np.eye(N_STATE)
    t[:4, :4] = np.kron([[1.0, 1.0], [1.0, -1.0]], np.eye(2))
    return t


def mirror_blocks(sys):
    """The centre-of-mass block {q+, p+} and the relative block {q-, p-,
    X_b, Y_b} of the drift of sys (MIRROR_STATES).  In these coordinates
    the drift is block triangular, so the poles of the u and d rows are the
    eigenvalues of the two blocks."""
    t = mirror_rotation()
    a = t @ sys.drift @ np.linalg.inv(t)
    return tuple(a[np.ix_(s, s)] for s in MIRROR_STATES)


def mirror_poles(sys):
    """|Im| of the eigenvalues of both mirror_blocks, the frequencies of
    the poles of the u and d rows, zeros (overdamped poles) left out."""
    poles = np.abs(np.concatenate(
        [np.linalg.eigvals(b) for b in mirror_blocks(sys)]).imag)
    return poles[poles > 0.0]


@st.composite
def working_points(draw):
    """The reference point with each rate and power scaled by its own
    factor 10**[-3, 3], either sign of delta_b, a temperature of 0 or
    0.1 K or 300 K times such a factor, and either Brownian kernel."""
    base = fig2_params()
    factor = st.floats(-3.0, 3.0).map(lambda x: 10.0 ** x)
    values = {f: getattr(base, f) * draw(factor) for f in RATE_FIELDS}
    values["delta_b"] *= draw(st.sampled_from([-1.0, 1.0]))
    values["temperature"] = (draw(st.sampled_from([0.0, 0.1, 300.0]))
                             * draw(factor))
    return fig2_params(**values), draw(st.sampled_from(BROWNIAN_KERNELS))


@pytest.fixture(scope="session")
def fig2():
    params = fig2_params()
    sys = build_linear_system(params)
    return params, sys


@pytest.fixture(scope="session")
def fig2_noise(fig2):
    params, _ = fig2
    return NoiseModel.from_params(params)


@pytest.fixture(scope="session")
def decoupled():
    """Two bare mirrors plus idle cavities: g = G = 0."""
    params = make_params(g=0.0, big_g=0.0)
    sys = build_linear_system(params)
    return params, sys


@pytest.fixture(scope="session")
def meters_only():
    """Meters read the mirrors but the entangler is off: G = 0, g > 0."""
    params = make_params(big_g=0.0)
    sys = build_linear_system(params)
    return params, sys
