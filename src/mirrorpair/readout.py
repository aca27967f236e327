"""Homodyne readout of the mirror positions through the meter outputs.

The cavity boundary relation a_out = sqrt(gamma_a) a - a_in turns the meter
phase quadrature into

    Y_out_j(omega) = gain_j(omega) q_j(omega) + refl(omega) Y_in_j(omega),

with gain(omega) = 2 g alpha sqrt(gamma_a) / (gamma_a/2 - i omega) and a pure
phase factor refl(omega) = (gamma_a/2 + i omega) / (gamma_a/2 - i omega) on
the reflected vacuum.  Mirror 2 couples to its meter with the opposite sign,
so its channel carries gain with an extra factor -1; the combiner removes the
orientation so that "sum" always estimates the center-of-mass signal q1 + q2.

The oriented rows of the currents are built once, by _currents, for one
channel or both.  Each spectrum costs one batched adjoint solve at +omega for
the coefficient rows c(omega) of the output in noise space.  A and B are
real, and gain and refl at -omega are the conjugates of their values at
+omega, so the rows at -omega are conj(c(omega)).  Every spectrum is then
the hermitian form [c_i(w) D(w) c_j(-w) + c_i(-w) D(-w) c_j(w)] / 2, one
NoiseModel.form call on the weights of dynamics.noise_weights(c_i, c_j):
the single home of the closed form that the entanglement sweep uses as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    IQ1, IQ2, IYA1, IYA2, IYIN1, IYIN2, N_STATE,
    LinearSystem, NoiseModel, frequency_grid, noise_weights,
    selected_transfer_rows,
)
from .errors import InvalidParameterError
# steady_state is not called here; the benchmark's trace table patches
# readout.steady_state by name, so the name stays until that table changes.
from .model import steady_state  # noqa: F401

_CHANNELS = {1: (IQ1, IYA1, IYIN1, 1.0), 2: (IQ2, IYA2, IYIN2, -1.0)}


def _channel(channel):
    """(q index, Y_a index, Y_in index, sign) of meter channel 1 or 2."""
    if channel not in _CHANNELS:
        raise InvalidParameterError("channel must be 1 or 2")
    return _CHANNELS[channel]


@dataclass(frozen=True)
class ReadoutChannel:
    """Transfer functions of a meter output channel.

    Both channels share them; mirror 2's opposite sign lives in _CHANNELS.
    """

    g_alpha: float
    gamma_a: float

    @classmethod
    def for_system(cls, sys: LinearSystem):
        """The channel at the working point already in sys."""
        return cls(g_alpha=sys.params.g * sys.steady.alpha,
                   gamma_a=sys.params.gamma_a)

    def gain(self, omega):
        """Position-to-output transfer 2 g alpha sqrt(gamma_a)/(gamma_a/2 - i w)."""
        return (
            2.0 * self.g_alpha * np.sqrt(self.gamma_a)
            / (self.gamma_a / 2.0 - 1j * np.asarray(omega))
        )

    def noise_reflection(self, omega):
        w = np.asarray(omega)
        return (self.gamma_a / 2.0 + 1j * w) / (self.gamma_a / 2.0 - 1j * w)


def gain_condition(sys: LinearSystem, omega: float, threshold: float = 10.0):
    """Measurement-gain figure of merit g^2 alpha^2 / [(gamma_a^2/4 + w^2)/4]
    at the working point already in sys.

    Returns (ratio, ratio > threshold).  The readout faithfully tracks the
    mirror position only when the ratio is large.
    """
    chan = ReadoutChannel.for_system(sys)
    ratio = chan.g_alpha ** 2 / ((chan.gamma_a ** 2 / 4.0 + omega ** 2) / 4.0)
    return float(ratio), bool(ratio > threshold)


def _currents(sys, w, channels):
    """Noise-space rows of the oriented output currents, from one solve.

    Row k is gain * q_j + sign_j * refl * Y_in_j for channel j = channels[k],
    so that every current carries +gain * q_j.  Returns (len(channels), n, 8).
    """
    specs = [_channel(j) for j in channels]
    sel = np.eye(N_STATE)[:, [iq for iq, _, _, _ in specs]]
    rows = selected_transfer_rows(sys, w, sel).transpose(1, 0, 2)
    # gain and refl are the same for both channels; only the sign differs.
    chan = ReadoutChannel.for_system(sys)
    gain, refl = chan.gain(w)[:, None], chan.noise_reflection(w)
    for k, (_, _, iyin, sign) in enumerate(specs):
        rows[k] = gain * rows[k]
        rows[k, :, iyin] += sign * refl
    return rows


def output_spectrum(sys: LinearSystem, noise: NoiseModel, omegas, channel: int):
    """Symmetrized spectrum of Y_out_j, assembled directly from the
    input-output relation: gain * q_j response + reflected vacuum, including
    the interference term carried by the correlated intracavity solution."""
    w = frequency_grid(omegas)
    rows = _currents(sys, w, (channel,))[0]
    out = noise.form(w, *noise_weights(rows, rows)).real
    return out if np.ndim(omegas) else float(out[0])


def output_spectrum_via_transfer(
    sys: LinearSystem, noise: NoiseModel, omegas, channel: int
):
    """Same spectrum assembled from the boundary relation
    Y_out = sqrt(gamma_a) Y_cav - Y_in using the full transfer matrix."""
    _, iya, iyin, _ = _channel(channel)
    w = frequency_grid(omegas)
    rows = selected_transfer_rows(sys, w, np.eye(N_STATE)[:, [iya]])[:, 0]
    rows = np.sqrt(sys.params.gamma_a) * rows
    rows[:, iyin] -= 1.0
    out = noise.form(w, *noise_weights(rows, rows)).real
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
    w = frequency_grid(omegas)
    c = _currents(sys, w, (1, 2))
    # s[j - 1, k - 1] is the form of currents j and k; broadcasting copies no row.
    s = noise.form(w, *noise_weights(c[:, None], c[None]))
    return TwoChannelSpectra(omegas=w, s11=s[0, 0].real, s22=s[1, 1].real,
                             s12=s[0, 1])


def combine_currents(spectra: TwoChannelSpectra, mode: str):
    """Spectrum of the sum or the difference of the two oriented currents.

    mode="sum" estimates the center-of-mass coordinate (q1 + q2) and
    "difference" the relative coordinate: s11 + s22 +- 2 Re s12.  The cross
    term s12 is required, because the entangler correlates the channels.
    """
    if mode not in ("sum", "difference"):
        raise InvalidParameterError("mode must be 'sum' or 'difference'")
    s = 1.0 if mode == "sum" else -1.0
    return spectra.s11 + spectra.s22 + 2.0 * s * spectra.s12.real
