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
channel or both, from q1 = (u + d) / 2 and q2 = (u - d) / 2 at +omega, the
model's closed-form rows (dynamics.susceptibility_rows).  A hand-built
LinearSystem has none, so output_spectrum and two_channel_spectra raise
InvalidParameterError for it; output_spectrum_via_transfer takes any
system (see dynamics.LinearSystem).  A and B are
real, and gain and refl at -omega are the conjugates of their values at
+omega, so the rows at -omega are conj(c(omega)).  Every spectrum is then
the hermitian form [c_i(w) D(w) c_j(-w) + c_i(-w) D(-w) c_j(w)] / 2, one
NoiseModel.form call on the weights of dynamics.noise_weights(c_i, c_j):
the single home of the closed form that the entanglement sweep uses as well.
output_spectrum_via_transfer builds the same spectrum from the Y_a rows of
the adjoint solve instead, as an independent check.  Each spectrum is
evaluated in the sweep's CHUNK pieces (dynamics._by_piece), with the
bits of one call: at 8000 omega the three direct spectra took about four
fifths of the time of one call (see dynamics.CHUNK).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    IYA1, IYA2, IYIN1, IYIN2, N_STATE,
    LinearSystem, NoiseModel, _by_piece, _frequency, frequency_grid,
    noise_weights, selected_transfer_rows, susceptibility_rows,
)
from .errors import InvalidParameterError
from .model import check_numbers
# steady_state is not called here; the benchmark's trace table patches
# readout.steady_state by name, so the name stays until that table changes.
from .model import steady_state  # noqa: F401

_CHANNELS = {1: (IYA1, IYIN1, 1.0), 2: (IYA2, IYIN2, -1.0)}
#: check_numbers' magnitude range for a value with no range but finiteness.
_ANY_FINITE = (0.0, np.finfo(float).max)


def _channel(channel):
    """(Y_a index, Y_in index, sign) of meter channel 1 or 2."""
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

    def __post_init__(self):
        # g alpha comes from any valid working point, so only its sign and
        # finiteness are checked, not its magnitude.
        check_numbers(vars(self), positive=("gamma_a",),
                      nonnegative=("g_alpha",), magnitude=_ANY_FINITE)

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
    mirror position only when the ratio is large.  omega is one real number
    under the rule of transfer_matrix, and threshold a finite real number;
    anything else raises InvalidParameterError.
    """
    omega = _frequency(omega)
    check_numbers({"threshold": threshold}, signed=("threshold",),
                  magnitude=_ANY_FINITE)
    chan = ReadoutChannel.for_system(sys)
    ratio = chan.g_alpha ** 2 / ((chan.gamma_a ** 2 / 4.0 + omega ** 2) / 4.0)
    return float(ratio), bool(ratio > threshold)


def _currents(sys, w, channels):
    """Noise-space rows of the oriented output currents.

    Row k is gain * q_j + sign_j * refl * Y_in_j for channel j = channels[k],
    so that every current carries +gain * q_j, with q_j = (u +- d) / 2 from
    susceptibility_rows.  Returns (len(channels), n, 8).
    """
    specs = [_channel(j) for j in channels]
    u, d = susceptibility_rows(sys, w)
    rows = np.stack([0.5 * (u + sign * d) for _, _, sign in specs])
    # gain and refl are the same for both channels; only the sign differs.
    chan = ReadoutChannel.for_system(sys)
    gain, refl = chan.gain(w)[:, None], chan.noise_reflection(w)
    for k, (_, iyin, sign) in enumerate(specs):
        rows[k] = gain * rows[k]
        rows[k, :, iyin] += sign * refl
    return rows


def _auto_spectrum(noise, omegas, current):
    """Symmetrized spectrum of one current, from current(piece), its
    noise-space rows on each CHUNK piece of the checked grid of omegas: the
    auto form, a float for a scalar omega."""
    def spectrum(piece):
        rows = current(piece)
        return noise.form(piece, *noise_weights(rows, rows)).real

    out = _by_piece(spectrum, frequency_grid(omegas))
    return out if np.ndim(omegas) else float(out[0])


def output_spectrum(sys: LinearSystem, noise: NoiseModel, omegas, channel: int):
    """Symmetrized spectrum of Y_out_j, assembled directly from the
    input-output relation: gain * q_j response + reflected vacuum, including
    the interference term carried by the correlated intracavity solution."""
    return _auto_spectrum(noise, omegas,
                          lambda w: _currents(sys, w, (channel,))[0])


def output_spectrum_via_transfer(
    sys: LinearSystem, noise: NoiseModel, omegas, channel: int
):
    """Same spectrum assembled from the boundary relation
    Y_out = sqrt(gamma_a) Y_cav - Y_in, from the Y_a rows of the adjoint
    solve (selected_transfer_rows): an independent check of
    output_spectrum, which shares no rows with it."""
    iya, iyin, _ = _channel(channel)

    def current(w):
        rows = selected_transfer_rows(sys, w, np.eye(N_STATE)[:, [iya]])
        rows = np.sqrt(sys.params.gamma_a) * rows[:, 0]
        rows[:, iyin] -= 1.0
        return rows

    return _auto_spectrum(noise, omegas, current)


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

    def spectra(piece):
        c = _currents(sys, piece, (1, 2))
        out = np.empty((3, piece.size), dtype=complex)
        # The auto forms on the path of output_spectrum, then the one cross
        # form.
        out[:2] = noise.form(piece, *noise_weights(c, c))
        out[2] = noise.form(piece, *noise_weights(c[0], c[1]))
        return out

    s11, s22, s12 = _by_piece(spectra, w)
    return TwoChannelSpectra(omegas=w, s11=s11.real, s22=s22.real, s12=s12)


def combine_currents(spectra: TwoChannelSpectra, mode: str):
    """Spectrum of the sum or the difference of the two oriented currents.

    mode="sum" estimates the center-of-mass coordinate (q1 + q2) and
    "difference" the relative coordinate: s11 + s22 +- 2 Re s12.  The cross
    term s12 is required, because the entangler correlates the channels.

    Known limit: near the mechanical resonance the difference cancels
    mirror signals 1e11 (0.1 K) to 1e14 (300 K) times the shot-noise floor
    down to about that floor.  At the Fig. 2 point at omega = Omega it is
    off a 30-digit contraction of the difference current by 2.3e-5 at
    0.1 K (a figure that moves with the rows' last bits) and by 2.0e-2 at
    300 K, where it returns the bare floor 2.0.
    """
    if mode not in ("sum", "difference"):
        raise InvalidParameterError("mode must be 'sum' or 'difference'")
    s = 1.0 if mode == "sum" else -1.0
    return spectra.s11 + spectra.s22 + 2.0 * s * spectra.s12.real
