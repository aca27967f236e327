"""Physical parameters, unit conversions and the classical working point.

Two movable mirrors close a pair of meter cavities (modes a1, a2) and share
a third driven cavity mode b that couples to their relative displacement.
This module holds every experimental constant of that setup, converts drive
powers to photon-flux amplitudes, and computes the classical steady state
around which the dynamics is linearized.

Conventions: mechanical position/momentum are dimensionless with [q, p] = i;
the meter detuning is fixed to zero and the meter amplitude alpha is real.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

#: Exact 2019-SI constants (reduced Planck, Boltzmann, speed of light);
#: bit-identical to scipy.constants.hbar, k and c.
HBAR = 6.62607015e-34 / (2 * np.pi)
KB = 1.380649e-23
C_LIGHT = 299792458.0

#: Default drive wavelength (m) used to fix the optical carrier frequencies.
#: Only the ratio P / (hbar * omega) enters the dynamics, so the exact carrier
#: matters little; 1064 nm is the standard Nd:YAG choice.
DEFAULT_WAVELENGTH = 1.064e-6

DEFAULT_OPTICAL_FREQUENCY = 2.0 * np.pi * C_LIGHT / DEFAULT_WAVELENGTH

#: Allowed magnitudes of nonzero parameters, in SI units.  The linearized
#: model multiplies and squares a few parameters at a time; beyond this range
#: intermediate products leave double precision (at big_gamma = 1e308 the
#: commutator of E(omega) underflows to zero, and an omega_a0 of 5e-324
#: makes hbar * omega_a0 zero).
MAGNITUDE_RANGE = (1e-30, 1e30)


def _is_real(v):
    """A real number (bools and numpy scalars too) or a real numpy array."""
    return isinstance(v, numbers.Real) or (
        isinstance(v, np.ndarray) and v.dtype.kind in "biuf")


def check_numbers(values, signed=(), positive=(), nonnegative=(), nonzero=(),
                  counts=(), indices=(), magnitude=MAGNITUDE_RANGE):
    """Raise InvalidParameterError unless the named entries of values (a
    dict, such as vars(self)) obey the package's input contract.

    Every signed, positive, nonnegative or nonzero value must be a real
    number (or a tuple of them, checked element by element), finite and
    either 0 or of a magnitude within magnitude, which is MAGNITUDE_RANGE for
    SI values; positive values must be > 0, nonnegative ones >= 0 and
    nonzero ones != 0.  counts must be integers >= 1 and indices (such as
    seeds) integers >= 0, not bools; a tuple of indices is checked element
    by element.
    """
    for names, least in ((counts, 1), (indices, 0)):
        for name in names:
            v = values[name]
            if not all(isinstance(n, (int, np.integer))
                       and not isinstance(n, bool) and n >= least
                       for n in (v if isinstance(v, tuple) else (v,))):
                raise InvalidParameterError(
                    f"{name} must be an integer >= {least}, got {v!r}")
    lo, hi = magnitude
    for names, sign, holds in ((signed, None, None),
                               (positive, "> 0", np.greater),
                               (nonnegative, ">= 0", np.greater_equal),
                               (nonzero, "!= 0", np.not_equal)):
        for name in names:
            v = values[name]
            real = all(map(_is_real, v if isinstance(v, tuple) else (v,)))
            x = np.asarray(v, dtype=float) if real else None
            if not real:
                rule = "real"
            elif not np.isfinite(x).all():
                rule = "finite"
            elif not np.all((x == 0) | ((lo <= abs(x)) & (abs(x) <= hi))):
                rule = "0 or of magnitude %g to %g" % magnitude
            elif sign and not np.all(holds(x, 0)):
                rule = sign
            else:
                continue
            raise InvalidParameterError(f"{name} must be {rule}, got {v!r}")


@dataclass(frozen=True)
class PhysicalParams:
    """All experimental constants of the two-mirror setup, in SI units.

    omega_a0, omega_b0     drive laser angular frequencies
    gamma_a, gamma_b       cavity linewidths (1/s)
    big_omega              mechanical angular frequency (rad/s)
    big_gamma              mechanical damping rate (1/s)
    g, big_g               meter / entangler optomechanical couplings (1/s)
    p_in_a, p_in_b         input powers (W)
    delta_b                effective entangler detuning (rad/s)
    temperature            bath temperature (K)
    """

    omega_a0: float = DEFAULT_OPTICAL_FREQUENCY
    omega_b0: float = DEFAULT_OPTICAL_FREQUENCY
    gamma_a: float = 1.0e5
    gamma_b: float = 1.0e5
    big_omega: float = 1.0e5
    big_gamma: float = 1.0
    g: float = 0.5
    big_g: float = 5.0
    p_in_a: float = 5.0e-4
    p_in_b: float = 5.0e-3
    delta_b: float = 1.0e5
    temperature: float = 0.1

    def __post_init__(self):
        check_numbers(
            vars(self),
            signed=("delta_b",),
            positive=("omega_a0", "omega_b0", "gamma_a", "gamma_b",
                      "big_omega", "big_gamma"),
            nonnegative=("g", "big_g", "p_in_a", "p_in_b", "temperature"),
        )
        if not self.g < self.big_g:
            warnings.warn(
                "expected entangler coupling big_g > meter coupling g; "
                f"got g={self.g}, big_g={self.big_g}",
                stacklevel=2,
            )


def fig2_params(**overrides) -> PhysicalParams:
    """The default working point used throughout the test suite."""
    return PhysicalParams(**overrides)


@dataclass(frozen=True)
class SteadyState:
    """Classical amplitudes and static displacements of the working point."""

    alpha: float            # meter intracavity amplitude, real by convention
    beta: complex           # entangler intracavity amplitude
    q1_ss: float
    q2_ss: float


def power_to_amplitude(power: float, drive_frequency: float) -> float:
    """Photon-flux amplitude sqrt(P / hbar omega) of a drive of power P."""
    check_numbers({"power": power, "drive_frequency": drive_frequency},
                  positive=("drive_frequency",), nonnegative=("power",))
    return float(np.sqrt(power / (HBAR * drive_frequency)))


def steady_state(params: PhysicalParams) -> SteadyState:
    """Classical steady state of the driven cavities and the mirrors.

    With the meter on resonance, alpha = sqrt(gamma_a) * alpha_in / (gamma_a/2)
    is real; the entangler amplitude picks up the detuning phase.  The static
    mirror displacements are opposite for the two mirrors: the entangler pushes
    them apart while the meters push them back.
    """
    alpha_in = power_to_amplitude(params.p_in_a, params.omega_a0)
    beta_in = power_to_amplitude(params.p_in_b, params.omega_b0)

    alpha = np.sqrt(params.gamma_a) * alpha_in / (params.gamma_a / 2.0)
    beta = (
        np.sqrt(params.gamma_b) * beta_in
        / (params.gamma_b / 2.0 - 1j * params.delta_b)
    )
    push = (
        params.big_g * abs(beta) ** 2 - params.g * alpha ** 2
    ) / params.big_omega
    return SteadyState(alpha=float(alpha), beta=complex(beta),
                       q1_ss=-push, q2_ss=push)
