"""Homodyne readout of the mirror positions through the meter outputs.

The cavity boundary relation a_out = sqrt(gamma_a) a - a_in turns the meter
phase quadrature into

    Y_out_j(omega) = gain_j(omega) q_j(omega) + refl(omega) Y_in_j(omega),

with gain(omega) = 2 g alpha sqrt(gamma_a) / (gamma_a/2 - i omega) and a pure
phase factor refl(omega) = (gamma_a/2 + i omega) / (gamma_a/2 - i omega) on
the reflected vacuum.  Mirror 2 couples to its meter with the opposite sign,
so its channel carries gain with an extra factor -1; the combiner removes the
orientation so that "sum" always estimates the center-of-mass signal q1 + q2.

Each spectrum costs one batched adjoint solve at +omega for the coefficient
rows c(omega) of the output in noise space.  A and B are real, and gain and
refl at -omega are the conjugates of their values at +omega, so the rows at
-omega are conj(c(omega)).  The hermitian form
[c_i(w) D(w) c_j(-w) + c_i(-w) D(-w) c_j(w)] / 2 then reduces in closed form
to the noise weights of dynamics.noise_power_weights (auto spectra) and
dynamics.noise_cross_weights (the cross spectrum s12).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    IQ1, IQ2, IYA1, IYA2, IYIN1, IYIN2, N_NOISE, N_STATE,
    LinearSystem, NoiseModel, noise_cross_weights, noise_power_weights,
    selected_transfer_rows,
)
from .errors import GridMismatchError, InvalidParameterError
from .model import PhysicalParams, SteadyState, steady_state

_CHANNELS = {1: (IQ1, IYA1, IYIN1, 1.0), 2: (IQ2, IYA2, IYIN2, -1.0)}


def _channel(channel):
    """(q index, Y_a index, Y_in index, sign) of meter channel 1 or 2."""
    if channel not in _CHANNELS:
        raise InvalidParameterError("channel must be 1 or 2")
    return _CHANNELS[channel]


@dataclass(frozen=True)
class ReadoutChannel:
    """Transfer functions of one meter output channel."""

    g_alpha: float
    gamma_a: float
    sign: float = 1.0       # -1 for the mirror-2 channel

    @classmethod
    def for_mirror(cls, params: PhysicalParams, channel: int):
        """Channel of mirror 1 or 2; solves the working point of params."""
        return cls._at(params, steady_state(params), channel)

    @classmethod
    def for_system(cls, sys: LinearSystem, channel: int):
        """Channel of mirror 1 or 2 at the working point already in sys."""
        return cls._at(sys.params, sys.steady, channel)

    @classmethod
    def _at(cls, params: PhysicalParams, ss: SteadyState, channel: int):
        return cls(
            g_alpha=params.g * ss.alpha,
            gamma_a=params.gamma_a,
            sign=_channel(channel)[3],
        )

    def gain(self, omega):
        """Position-to-output transfer 2 g alpha sqrt(gamma_a)/(gamma_a/2 - i w)."""
        return (
            2.0 * self.g_alpha * np.sqrt(self.gamma_a)
            / (self.gamma_a / 2.0 - 1j * np.asarray(omega))
        )

    def noise_reflection(self, omega):
        w = np.asarray(omega)
        return (self.gamma_a / 2.0 + 1j * w) / (self.gamma_a / 2.0 - 1j * w)


def gain_condition(params: PhysicalParams, omega: float, threshold: float = 10.0):
    """Measurement-gain figure of merit g^2 alpha^2 / [(gamma_a^2/4 + w^2)/4].

    Returns (ratio, ratio > threshold).  The readout faithfully tracks the
    mirror position only when the ratio is large.
    """
    ss = steady_state(params)
    ratio = (params.g * ss.alpha) ** 2 / (
        (params.gamma_a ** 2 / 4.0 + omega ** 2) / 4.0
    )
    return float(ratio), bool(ratio > threshold)


def _state_rows(sys, w, indices):
    """Rows e_i^T M(omega) for the state indices, from one solve: (n, k, 8)."""
    sel = np.zeros((N_STATE, len(indices)))
    sel[indices, np.arange(len(indices))] = 1.0
    return selected_transfer_rows(sys, w, sel)


def _auto_spectrum(noise, w, rows):
    """[c(w) D(w) c(-w) + c(-w) D(-w) c(w)] / 2 for the rows c at +omega."""
    brownian, vacuum = noise_power_weights(rows)
    return 0.5 * noise.symmetrized_spectrum(w) * brownian + vacuum


def _cross_spectrum(noise, w, ci, cj):
    """[c_i(w) D(w) c_j(-w) + c_i(-w) D(-w) c_j(w)] / 2 for rows at +omega."""
    xi, vac, pairs = noise_cross_weights(ci, cj)
    return (
        (0.5 * noise.symmetrized_spectrum(w) * xi.real + vac)
        + 1j * (noise.pref * w * xi.imag + pairs)
    )


def _meter_rows(sys, w, channel, q_rows):
    """Noise-space rows of Y_out_j: sign * gain * q_j + refl * Y_in_j."""
    chan = ReadoutChannel.for_system(sys, channel)
    e_yin = np.zeros(N_NOISE)
    e_yin[_channel(channel)[2]] = 1.0
    return (
        chan.sign * chan.gain(w)[:, None] * q_rows
        + chan.noise_reflection(w)[:, None] * e_yin
    )


def output_spectrum(sys: LinearSystem, noise: NoiseModel, omegas, channel: int):
    """Symmetrized spectrum of Y_out_j, assembled directly from the
    input-output relation: gain * q_j response + reflected vacuum, including
    the interference term carried by the correlated intracavity solution."""
    w = np.atleast_1d(np.asarray(omegas, dtype=float))
    q_rows = _state_rows(sys, w, [_channel(channel)[0]])[:, 0]
    out = _auto_spectrum(noise, w, _meter_rows(sys, w, channel, q_rows))
    return out if np.ndim(omegas) else float(out[0])


def output_spectrum_via_transfer(
    sys: LinearSystem, noise: NoiseModel, omegas, channel: int
):
    """Same spectrum assembled from the boundary relation
    Y_out = sqrt(gamma_a) Y_cav - Y_in using the full transfer matrix."""
    _, iya, iyin, _ = _channel(channel)
    w = np.atleast_1d(np.asarray(omegas, dtype=float))
    rows = np.sqrt(sys.params.gamma_a) * _state_rows(sys, w, [iya])[:, 0]
    rows[:, iyin] -= 1.0
    out = _auto_spectrum(noise, w, rows)
    return out if np.ndim(omegas) else float(out[0])


@dataclass(frozen=True)
class TwoChannelSpectra:
    """Auto- and cross-spectra of the two sign-corrected output currents.

    The stored currents are oriented so each carries +gain * q_j; s12 is the
    hermitian-combination cross spectrum between them.
    """

    omegas: np.ndarray
    s11: np.ndarray
    s22: np.ndarray
    s12: np.ndarray


def two_channel_spectra(sys: LinearSystem, noise: NoiseModel, omegas):
    """Evaluate both oriented output currents and their cross-spectrum."""
    w = np.atleast_1d(np.asarray(omegas, dtype=float))
    q_rows = _state_rows(sys, w, [IQ1, IQ2])
    # Orient each current so that its signal term is +gain * q_j.
    c1, c2 = (
        _CHANNELS[j][3] * _meter_rows(sys, w, j, q_rows[:, j - 1])
        for j in (1, 2)
    )
    return TwoChannelSpectra(
        omegas=w,
        s11=_auto_spectrum(noise, w, c1),
        s22=_auto_spectrum(noise, w, c2),
        s12=_cross_spectrum(noise, w, c1, c2),
    )


def combine_currents(spectra, mode: str, second=None):
    """Combine two channels measured on identical grids.

    mode="sum" estimates the center-of-mass coordinate (q1 + q2); "difference"
    the relative coordinate.  Accepts either a TwoChannelSpectra (preferred,
    includes the cross term) or two plain (omegas, psd) pairs treated as
    uncorrelated channels.  The two vacuum floors add incoherently.
    """
    if mode not in ("sum", "difference"):
        raise InvalidParameterError("mode must be 'sum' or 'difference'")
    s = 1.0 if mode == "sum" else -1.0
    if isinstance(spectra, TwoChannelSpectra):
        return spectra.s11 + spectra.s22 + 2.0 * s * spectra.s12.real
    if second is None:
        raise InvalidParameterError("second channel spectrum required")
    w1, p1 = spectra
    w2, p2 = second
    if np.shape(w1) != np.shape(w2) or not np.array_equal(w1, w2):
        raise GridMismatchError("channel spectra are on different grids")
    return np.asarray(p1) + np.asarray(p2)
