"""Homodyne readout of the mirror positions through the meter outputs.

The cavity boundary relation a_out = sqrt(gamma_a) a - a_in turns the meter
phase quadrature into

    Y_out_j(omega) = gain_j(omega) q_j(omega) + refl(omega) Y_in_j(omega),

with gain(omega) = 2 g alpha sqrt(gamma_a) / (gamma_a/2 - i omega), which is
2 c_a of dynamics._closed_form, and a pure phase factor
refl(omega) = (gamma_a/2 + i omega) / (gamma_a/2 - i omega) on the
reflected vacuum.  Mirror 2 couples to its meter with the opposite sign,
so its channel carries gain with an extra factor -1; the combiner removes the
orientation so that "sum" always estimates the center-of-mass signal q1 + q2.

The oriented currents gain * q_j +- refl * Y_in_j carry +gain * q_j, with
q1 = (u + d) / 2 and q2 = (u - d) / 2 and u, d the model's closed-form rows
(dynamics.selected_transfer_rows).  A and B are real, and gain and refl at
-omega are the conjugates of their values at +omega, so the rows at -omega
are conj(c(omega)), and every spectrum is the hermitian form
[c_i(w) D(w) c_j(-w) + c_i(-w) D(-w) c_j(w)] / 2: one NoiseModel.form call
on four weights.  NoiseModel is the single home of that closed form, and
the entanglement sweep uses it as well.  The direct spectra never build
the rows: _spectra forms the weights of the auto and the cross form of the
two currents from the real factors of u and d (dynamics._row_factors), in
which the two auto spectra are one and the cross spectrum is real.
output_spectrum_via_transfer builds the same spectrum from the complex Y_a
rows of dynamics.selected_transfer_rows, made of the same u and d, and
their weights (dynamics.noise_weights) instead: a check of the real-factor
contraction against the complex-row one, not of the rows.
Each spectrum is evaluated in the sweep's CHUNK pieces
(dynamics._by_piece), with the bits of one call; the pieces bound the
memory of the rows of output_spectrum_via_transfer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    IYA1, IYA2, IYIN1, IYIN2, N_STATE,
    LinearSystem, NoiseModel, _by_piece, _frequency, _row_factors,
    frequency_grid, noise_weights, selected_transfer_rows,
)
from .errors import InvalidParameterError
from .model import check_numbers
# steady_state is not called here; the benchmark's trace table patches
# readout.steady_state by name, so the name stays until that table changes.
from .model import steady_state  # noqa: F401

_CHANNELS = {1: (IYA1, IYIN1), 2: (IYA2, IYIN2)}
#: check_numbers' magnitude range for a value with no range but finiteness.
_ANY_FINITE = (0.0, np.finfo(float).max)


def _channel(channel):
    """(Y_a index, Y_in index) of meter channel 1 or 2."""
    if channel not in _CHANNELS:
        raise InvalidParameterError("channel must be 1 or 2")
    return _CHANNELS[channel]


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
    g_alpha, gamma_a = sys.params.g * sys.steady.alpha, sys.params.gamma_a
    ratio = g_alpha ** 2 / ((gamma_a ** 2 / 4.0 + omega ** 2) / 4.0)
    return float(ratio), bool(ratio > threshold)


def _spectra(sys, noise, w):
    """The auto form and the cross form of the two oriented currents on the
    checked grid w, shape (2, n), from the real factors of the model's u
    and d rows (dynamics._row_factors).

    Current j is gain q_j +- refl Y_in_j, with gain = 2 c_a,
    |gain|^2 = 4 meter and |refl| = 1, and q_j = (u +- d) / 2.  Summed
    over the two Brownian channels, q_j conj(q_k) is (u2 + v2) / 2 for
    j = k and (u2 - v2) / 2 for j != k, the cross terms of u and d
    cancelling; the meter channels give the same times meter; the entangler
    channels of q_j are +-d / 2; and the reflected vacuum meets no Y_in
    entry of q_j.  So, in the factors of _row_factors,

        auto:  xi_real = |gain|^2 (u2 + v2) / 2,
               vacuum = |gain|^2 (meter (u2 + v2) / 2 + ent / 4) + 1,
        cross: xi_real = |gain|^2 (u2 - v2) / 2,
               vacuum = |gain|^2 (meter (u2 - v2) / 2 - ent / 4),

    and xi_imag and pairs are 0 in both: the meter pair terms of the cross
    form cancel exactly, and so do those of the entangler pair.
    """
    u2, v2, ent, meter, _ = _row_factors(sys, w)
    gain2 = 4.0 * meter
    mirrors = 0.5 * np.stack([u2 + v2, u2 - v2])       # auto, cross
    vacuum = gain2 * (meter * mirrors + [[0.25], [-0.25]] * ent)
    vacuum[0] += 1.0
    return noise.form(w, gain2 * mirrors, 0.0, vacuum, 0.0)


def output_spectrum(sys: LinearSystem, noise: NoiseModel, omegas, channel: int):
    """Symmetrized spectrum of Y_out_j, assembled directly from the
    input-output relation: gain * q_j response + reflected vacuum, including
    the interference term carried by the correlated intracavity solution.
    Both channels have the same spectrum (see _spectra)."""
    _channel(channel)
    noise._check_mechanics(sys)
    out = _by_piece(lambda w: _spectra(sys, noise, w)[0].real,
                    frequency_grid(omegas))
    return out if np.ndim(omegas) else float(out[0])


def output_spectrum_via_transfer(
    sys: LinearSystem, noise: NoiseModel, omegas, channel: int
):
    """Same spectrum assembled from the boundary relation
    Y_out = sqrt(gamma_a) Y_cav - Y_in, from the complex Y_a rows of
    selected_transfer_rows and their hermitian form (noise_weights).  Both
    spectra take the closed form of dynamics._closed_form, so this checks
    output_spectrum's contraction of the real row factors, not the rows;
    the rows are checked against the dense transfer_matrix and the
    extended-precision references of the tests."""
    iya, iyin = _channel(channel)
    noise._check_mechanics(sys)

    def spectrum(w):
        rows = selected_transfer_rows(sys, w, np.eye(N_STATE)[:, [iya]])
        rows = np.sqrt(sys.params.gamma_a) * rows[:, 0]
        rows[:, iyin] -= 1.0
        return noise.form(w, *noise_weights(rows, rows)).real

    out = _by_piece(spectrum, frequency_grid(omegas))
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
    """Evaluate both oriented output currents and their cross-spectrum.

    s11 and s22 are equal bit for bit and s12 is real (see _spectra)."""
    w = frequency_grid(omegas)
    noise._check_mechanics(sys)
    auto, cross = _by_piece(lambda piece: _spectra(sys, noise, piece), w)
    s11 = auto.real
    return TwoChannelSpectra(omegas=w, s11=s11, s22=s11.copy(), s12=cross)


def combine_currents(spectra: TwoChannelSpectra, mode: str):
    """Spectrum of the sum or the difference of the two oriented currents.

    mode="sum" estimates the center-of-mass coordinate (q1 + q2) and
    "difference" the relative coordinate: s11 + s22 +- 2 Re s12.  The cross
    term s12 is required, because the entangler correlates the channels.

    Known limit: near the mechanical resonance the difference cancels
    mirror signals 1e11 (0.1 K) to 1e14 (300 K) times the shot-noise floor
    down to about that floor.  At the Fig. 2 point at omega = Omega it is
    off a 30-digit contraction of the difference current by 2.3e-5 at
    0.1 K (a figure that moves with the last bits of s11 and s12) and by
    2.0e-2 at 300 K, where it returns the bare floor 2.0; at 0.999 Omega
    by 1.7e-10 and 1.2e-7.
    """
    if mode not in ("sum", "difference"):
        raise InvalidParameterError("mode must be 'sum' or 'difference'")
    s = 1.0 if mode == "sum" else -1.0
    return spectra.s11 + spectra.s22 + 2.0 * s * spectra.s12.real
