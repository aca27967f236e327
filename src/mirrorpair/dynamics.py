"""Linear quadrature dynamics and frequency-domain spectra.

The fluctuations around the steady state form a 10-component vector

    x = (q1, p1, q2, p2, X_a1, Y_a1, X_a2, Y_a2, X_b, Y_b)

driven by 8 noise channels

    n = (xi_1, xi_2, X^in_a1, Y^in_a1, X^in_a2, Y^in_a2, X^in_b, Y^in_b)

through dx/dt = A x + B n.  Optical quadratures are X = a + a^dag,
Y = -i(a - a^dag).  Spectra use the e^{+i omega t} transform convention with
no 2*pi: S_OP(omega) = integral ds e^{i omega s} <O(0) P(s)>, assembled as
S(omega) = M(omega) D(omega) M(-omega)^T with M the transfer matrix.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import DriftUnstableError, InvalidParameterError, SingularityError
from .model import (
    HBAR, KB, PhysicalParams, SteadyState, _is_real, check_numbers,
    steady_state,
)

N_STATE = 10
N_NOISE = 8

# State indices.
IQ1, IP1, IQ2, IP2, IXA1, IYA1, IXA2, IYA2, IXB, IYB = range(10)
# Noise indices.
IXI1, IXI2, IXIN1, IYIN1, IXIN2, IYIN2, IXINB, IYINB = range(8)

#: Brownian-noise normalizations.  "corrected" uses the prefactor
#: Gamma*omega/Omega, which preserves the canonical mirror commutator and the
#: classical equipartition limit; "halved" keeps the half-strength prefactor
#: Gamma*omega/(2*Omega) sometimes quoted for this model.
BROWNIAN_KERNELS = ("corrected", "halved")


def _mirror_map(scale):
    """Identity but for scale * [[I, I], [I, -I]] on (q1, p1, q2, p2)."""
    t = np.eye(N_STATE)
    t[:IP2 + 1, :IP2 + 1] = scale * np.kron([[1.0, 1.0], [1.0, -1.0]], np.eye(2))
    t.setflags(write=False)
    return t


#: The mirror rotation x' = T x: q+ = q1 + q2, p+ = p1 + p2, q- = q1 - q2
#: and p- = p1 - p2 in the slots of q1, p1, q2 and p2, every other state kept.
#: Its inverse is the same map halved, so both have entries 0, +-1 and +-1/2.
MIRROR_ROTATION, _MIRROR_INVERSE = _mirror_map(1.0), _mirror_map(0.5)


#: Diagonal blocks of the adjoint solve in the rotated coordinates, in
#: solve order: the meter phase quadratures, the centre of mass {q+, p+},
#: the relative mode with the entangler {q-, p-, X_b, Y_b} and the meter
#: amplitude quadratures.  The slots of q1, p1, q2 and p2 hold q+, p+, q-
#: and p-.  A block is solved after every block that it drives, for every
#: model system (tests/test_dynamics.py).
ADJOINT_PLAN = ((IYA1,), (IYA2,), (IQ1, IP1), (IQ2, IP2, IXB, IYB),
                (IXA1,), (IXA2,))


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """The linearized model at params: drift, noise coupling and the steady
    state they are assembled at, as read-only arrays.

    params is the only argument; build_linear_system is the documented
    maker and adds the optional stability check.  The model's u = q1 + q2
    and d = q1 - q2 rows, the only rows a sweep or a readout spectrum
    needs, have the closed form of susceptibility_rows.

    The adjoint solve (selected_transfer_rows) runs in the coordinates
    x' = T x with T = MIRROR_ROTATION, which separates the centre-of-mass
    oscillator {q+, p+} from the relative mode and the entangler
    {q-, p-, X_b, Y_b} (ADJOINT_PLAN).  The two mirrors are identical, so
    their entries are equal or opposite and every rotated entry is exact in
    binary: the rotation undoes to the same bits.  The rotated drift
    T A T^-1 and coupling T B are worked out once, here.
    """

    params: PhysicalParams
    steady: SteadyState = field(init=False)
    drift: np.ndarray = field(init=False)           # (10, 10) real
    noise_coupling: np.ndarray = field(init=False)  # (10, 8) real
    #: The drift T A T^-1 and the coupling T B of the solve coordinates.
    basis_drift: np.ndarray = field(init=False, repr=False)
    basis_coupling: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ss = steady_state(self.params)
        a, b = _assemble(self.params, ss)
        rotated_a = MIRROR_ROTATION @ a @ _MIRROR_INVERSE
        rotated_b = MIRROR_ROTATION @ b
        for array in (a, b, rotated_a, rotated_b):
            array.setflags(write=False)
        for name, value in (("steady", ss), ("drift", a),
                            ("noise_coupling", b), ("basis_drift", rotated_a),
                            ("basis_coupling", rotated_b)):
            object.__setattr__(self, name, value)


def build_linear_system(
    params: PhysicalParams, require_stable: bool = False
) -> LinearSystem:
    """Assemble the linearized quadrature dynamics: LinearSystem(params).

    Each mirror: dq/dt = Omega p; dp/dt = -Omega q - Gamma p, plus radiation
    pressure (-1)^{j+1} g alpha X_aj from its meter and (-1)^j G (Re(beta) X_b
    + Im(beta) Y_b) from the entangler, plus thermal force xi_j.  The meter
    phase quadrature reads the mirror position at rate 2 g alpha; the
    entangler quadratures rotate at the detuning and are pushed by q1 - q2.

    With ``require_stable`` the drift eigenvalues are checked and a
    DriftUnstableError (carrying them) is raised if any real part is
    non-negative.  By default the check is left to the caller: the strongly
    driven working points of interest are formally unstable, and their
    frequency-domain spectra are still evaluated (see README).
    """
    sys = LinearSystem(params)
    if require_stable:
        eigenvalues = np.linalg.eigvals(sys.drift)
        if not eigenvalues.real.max() < 0.0:
            raise DriftUnstableError(eigenvalues)
    return sys


def _assemble(params: PhysicalParams, ss: SteadyState):
    """The drift (10, 10) and noise coupling (10, 8) of build_linear_system
    at params and the steady state ss."""
    galpha = params.g * ss.alpha
    gbeta_r = params.big_g * ss.beta.real
    gbeta_i = params.big_g * ss.beta.imag
    omega_m = params.big_omega

    a = np.zeros((N_STATE, N_STATE))
    for j, (iq, ip, ix, iy) in enumerate(
        [(IQ1, IP1, IXA1, IYA1), (IQ2, IP2, IXA2, IYA2)]
    ):
        sj = 1.0 if j == 0 else -1.0      # (-1)^{j+1} for mirrors 1, 2
        a[iq, ip] = omega_m
        a[ip, iq] = -omega_m
        a[ip, ip] = -params.big_gamma
        a[ip, ix] = sj * galpha
        a[ip, IXB] = -sj * gbeta_r
        a[ip, IYB] = -sj * gbeta_i
        # Meter on resonance: the amplitude quadrature decays freely and the
        # position signal appears only in the phase quadrature.
        a[ix, ix] = -params.gamma_a / 2.0
        a[iy, iq] = 2.0 * sj * galpha
        a[iy, iy] = -params.gamma_a / 2.0
    a[IXB, IXB] = -params.gamma_b / 2.0
    a[IXB, IYB] = -params.delta_b
    a[IXB, IQ1] = 2.0 * gbeta_i
    a[IXB, IQ2] = -2.0 * gbeta_i
    a[IYB, IYB] = -params.gamma_b / 2.0
    a[IYB, IXB] = params.delta_b
    a[IYB, IQ1] = -2.0 * gbeta_r
    a[IYB, IQ2] = 2.0 * gbeta_r

    b = np.zeros((N_STATE, N_NOISE))
    b[IP1, IXI1] = 1.0
    b[IP2, IXI2] = 1.0
    for ix, k in ((IXA1, IXIN1), (IYA1, IYIN1), (IXA2, IXIN2), (IYA2, IYIN2)):
        b[ix, k] = np.sqrt(params.gamma_a)
    b[IXB, IXINB] = np.sqrt(params.gamma_b)
    b[IYB, IYINB] = np.sqrt(params.gamma_b)
    return a, b


def stability_margin(sys: LinearSystem) -> float:
    """Largest real part among drift eigenvalues (negative means stable)."""
    return float(np.linalg.eigvals(sys.drift).real.max())


def is_stable(sys: LinearSystem) -> bool:
    return stability_margin(sys) < 0.0


def _wcoth(w, temperature):
    """omega * coth(hbar omega / 2 kB T), even in omega; |omega| at T = 0.

    Elementwise in temperature: a float, or an array of temperatures that
    broadcasts against w, so that one call covers every temperature of a
    sweep ((k, 1) against (n,) gives (k, n)).  Each element has the bits of
    a call at its temperature alone.
    """
    t = np.asarray(temperature, dtype=float)
    cold = t == 0.0
    x = HBAR * w / (2.0 * KB * np.where(cold, 1.0, t))
    zero = x == 0.0
    if zero.any():
        # omega -> 0 limit of w*coth(hbar w / 2 kB T) is 2 kB T / hbar.
        out = np.where(zero, 2.0 * KB * t / HBAR,
                       w / np.tanh(np.where(zero, 1.0, x)))
    else:
        out = w / np.tanh(x)
    return np.where(cold, np.abs(w), out) if cold.any() else out


@dataclass(frozen=True)
class NoiseModel:
    """Input noise spectra: vacuum optical channels plus mirror Brownian force.

    The optical channels are delta-correlated vacuum inputs, so per mode
    <X X> = <Y Y> = 1 and <X Y> = -<Y X> = i, independent of frequency.
    The Brownian force spectrum is
    S_xi(omega) = pref * omega * [coth(hbar omega / 2 kB T) + 1]
    with pref = Gamma/Omega ("corrected" kernel) or Gamma/(2 Omega) ("halved").
    """

    temperature: float
    big_gamma: float
    big_omega: float
    kernel: str = "corrected"

    def __post_init__(self):
        if self.kernel not in BROWNIAN_KERNELS:
            raise InvalidParameterError(f"unknown Brownian kernel {self.kernel!r}")
        check_numbers(vars(self), positive=("big_gamma", "big_omega"),
                      nonnegative=("temperature",))

    @classmethod
    def from_params(cls, params: PhysicalParams, kernel: str = "corrected"):
        return cls(
            temperature=params.temperature,
            big_gamma=params.big_gamma,
            big_omega=params.big_omega,
            kernel=kernel,
        )

    @property
    def pref(self) -> float:
        """Brownian kernel prefactor: Gamma/Omega, or Gamma/(2 Omega) halved."""
        pref = self.big_gamma / self.big_omega
        if self.kernel == "halved":
            pref /= 2.0
        return pref

    def brownian_spectrum(self, omega):
        """Non-symmetrized thermal-force spectrum, elementwise over omega."""
        w = np.asarray(omega, dtype=float)
        out = self.pref * (_wcoth(w, self.temperature) + w)
        return out if out.shape else float(out)

    def symmetrized_spectrum(self, omega):
        """S_sym(omega) = S_xi(omega) + S_xi(-omega) in closed form.

        Equal to 2 * pref * omega * coth(hbar omega / 2 kB T), and to
        2 * pref * |omega| at T = 0.  This is the only temperature-dependent
        input of Var(u) and Var(v) (see entanglement.sweep_weights).
        """
        out = self._symmetrized(omega, self.temperature)
        return out if out.shape else float(out)

    def _symmetrized(self, omega, temperature):
        """symmetrized_spectrum at temperature, elementwise (_wcoth)."""
        return 2.0 * self.pref * _wcoth(np.asarray(omega, dtype=float),
                                        temperature)

    def form(self, omega, xi_real, xi_imag, vacuum, pairs):
        """[r_i(w) D(w) r_j(-w) + r_i(-w) D(-w) r_j(w)] / 2 from the weights of
        noise_weights(r_i, r_j), against which omega broadcasts.  Only the
        antisymmetric part of D enters the imaginary part (commutator_spectrum),
        so it is temperature independent, and exactly 0 when r_i equals r_j."""
        s = self._form_real(omega, xi_real, vacuum, self.temperature)
        out = np.empty(np.shape(s), dtype=complex)
        out.real = s
        out.imag = self._form_imag(omega, xi_imag, pairs)
        return out

    def _form_real(self, omega, xi_real, vacuum, temperature):
        """The real part of form, S_sym/2 xi_real + vacuum, at temperature in
        place of the model's own, elementwise (_wcoth): temperatures of
        shape (k, 1, 1) against weights of shape (m, n) give (k, m, n)."""
        return 0.5 * self._symmetrized(omega, temperature) * xi_real + vacuum

    def _form_imag(self, omega, xi_imag, pairs):
        """The imaginary part of form, which has no temperature in it."""
        return self.pref * omega * xi_imag + pairs

    def commutator_spectrum(self, omega):
        """Antisymmetric part D(omega) - D(-omega)^T in closed form.

        This is the spectrum of the canonical input commutators and carries
        no temperature dependence: the thermal coth terms cancel exactly,
        leaving 2 * pref * omega on the Brownian diagonal and the constant
        +-2i off-diagonals of the optical vacuum blocks.  Evaluating it
        analytically avoids the catastrophic cancellation of differencing
        two nearly equal large thermal spectra at high temperature.

        Accepts a scalar (returns (8, 8)) or shape (n,) (returns (n, 8, 8)).
        """
        w = np.asarray(omega, dtype=float)
        return self._noise_matrix(w, 2.0 * self.pref * w, 0.0, 2j)

    def input_spectrum(self, omega):
        """Non-symmetrized 8x8 input spectral matrix D(omega).

        Accepts a scalar (returns (8, 8)) or an array of shape (n,)
        (returns (n, 8, 8)).
        """
        return self._noise_matrix(omega, self.brownian_spectrum(omega), 1.0, 1j)

    @staticmethod
    def _noise_matrix(omega, brownian, vacuum, pair):
        """8x8 matrix per omega: brownian on both Brownian diagonals, vacuum
        on the optical diagonal and +pair / -pair at (X, Y) / (Y, X) of each
        optical mode.  (8, 8) for a scalar omega, else (n, 8, 8)."""
        w = np.asarray(omega, dtype=float)
        d = np.zeros(np.atleast_1d(w).shape + (N_NOISE, N_NOISE), dtype=complex)
        d[..., IXI1, IXI1] = brownian
        d[..., IXI2, IXI2] = brownian
        for k in (IXIN1, IXIN2, IXINB):
            d[..., k, k] = vacuum
            d[..., k + 1, k + 1] = vacuum
            d[..., k, k + 1] = pair
            d[..., k + 1, k] = -pair
        return d[0] if w.shape == () else d


def transfer_matrix(sys: LinearSystem, omega: float) -> np.ndarray:
    """M(omega) = (-i omega I - A)^{-1} B, mapping noise inputs to the state.

    omega is one real number under the value rule of frequency_grid
    (_frequency); anything else raises InvalidParameterError.
    """
    shifted = -1j * _frequency(omega) * np.eye(N_STATE) - sys.drift
    try:
        return np.linalg.solve(shifted, sys.noise_coupling.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise SingularityError(
            f"shifted drift matrix singular at omega={omega!r}"
        ) from exc


def _shown(value) -> str:
    """reprlib.repr(value) on one line, for an error message."""
    return " ".join(reprlib.repr(value).split())


def _frequency(omega) -> float:
    """omega as a float: one real number (a numpy scalar or 0-d array too),
    finite and 0 or of a magnitude within model.MAGNITUDE_RANGE, the rule of
    frequency_grid for one value; anything else raises
    InvalidParameterError naming omega."""
    if not _is_real(omega) or np.ndim(omega):
        raise InvalidParameterError(
            f"omega must be a real number, got {_shown(omega)}")
    check_numbers({"omega": omega}, signed=("omega",))
    return float(omega)


def frequency_grid(omegas) -> np.ndarray:
    """omegas as a float array of shape (n,), n >= 1.

    Accepts a real number or a non-empty 1-D sequence of real numbers, each
    finite and 0 or of a magnitude within model.MAGNITUDE_RANGE (the signed
    rule of check_numbers); anything else raises InvalidParameterError.
    """
    try:
        w = np.asarray(omegas)
    except ValueError:      # a ragged nesting of sequences
        w = None
    if w is None or w.ndim > 1 or w.size == 0:
        raise InvalidParameterError(
            "omegas must be a real number or a non-empty 1-D sequence of "
            f"real numbers, got {reprlib.repr(omegas)}")
    check_numbers({"omegas": w}, signed=("omegas",))
    return np.atleast_1d(w.astype(float, copy=False))


#: Frequencies per piece of a sweep (entanglement.sweep_weights) and of a
#: readout spectrum.  The pieces bound the memory of the adjoint solve of
#: readout.output_spectrum_via_transfer: on 2e5 omega its tracemalloc peak
#: was 3.2 MB in pieces and 154 MB in one piece.  At the Fig. 2 point
#: (medians of 35 interleaved calls, two runs, 2-core x86-64 VM) the two
#: via-transfer spectra on 8000 omega took 10.5-12.6 ms in pieces of 2048
#: and 12.4-14.2 ms in pieces of 4096 or in one piece.  The sweep holds a
#: few real arrays per omega.  On 10^4 omega one batch of
#: entanglement._position_weights took 0.7 ms against 1.1 ms in pieces;
#: on 2e5 omega the pieces took 25-26 ms against 31-34 ms for one batch,
#: with a tracemalloc peak of 20 MB against 38 MB (medians of 60 and 15
#: interleaved calls, three runs).  A sweep may ask for cli.MAX_SWEEP_ROWS
#: = 10^6 frequencies, so the pieces stay, for the large grids, and the
#: piece stays at 2048.
CHUNK = 2048


def _by_piece(evaluate, w):
    """evaluate(piece) on the ceil(n / CHUNK) pieces of np.array_split of
    the checked grid w, in order, joined on the last axis.  Every step of a
    sweep or a spectrum is elementwise in omega, so the pieces give the
    bits of one call on w.  Each piece is stored into one output as it is
    made, so the result is held once, not once in pieces and once joined."""
    pieces = np.array_split(w, -(-w.size // CHUNK))
    first = np.asarray(evaluate(pieces[0]))
    out = np.empty(first.shape[:-1] + w.shape, first.dtype)
    out[..., :first.shape[-1]] = first
    stop = first.shape[-1]
    for piece in pieces[1:]:
        start, stop = stop, stop + piece.size
        out[..., start:stop] = evaluate(piece)
    return out


def _closed_form(sys, w):
    """mech, kappa, D, den and c_a of susceptibility_rows on the checked grid
    w, each of shape (n,).

    A zero mech or den raises SingularityError (_nonzero), so that no
    caller divides by it.
    """
    p, ss = sys.params, sys.steady
    om = p.big_omega
    gbeta_r, gbeta_i = p.big_g * ss.beta.real, p.big_g * ss.beta.imag
    mech = np.empty(w.shape, dtype=complex)
    mech.real = (om - w) * (om + w)
    mech.imag = -p.big_gamma * w
    kappa = np.empty(w.shape, dtype=complex)
    kappa.real = 0.5 * p.gamma_b
    kappa.imag = -w
    spring = (kappa - 1j * p.delta_b) * (kappa + 1j * p.delta_b)
    den = (mech * spring
           + 4.0 * om * (gbeta_r * gbeta_r + gbeta_i * gbeta_i) * p.delta_b)
    c_a = p.g * ss.alpha * np.sqrt(p.gamma_a) / (0.5 * p.gamma_a - 1j * w)
    return _nonzero(mech), kappa, spring, _nonzero(den), c_a


def susceptibility_rows(sys: LinearSystem, w):
    """The u = q1 + q2 and d = q1 - q2 rows of the transfer matrix in the
    closed form of the model: the mechanical susceptibility and the optical
    spring of the entangler.

    With mech = (Omega - w)(Omega + w) - i Gamma w, c_a = g alpha
    sqrt(gamma_a) / (gamma_a/2 - i w), kappa = gamma_b/2 - i w,
    D = kappa^2 + Delta_b^2 and den = mech D + 4 Omega G^2 |beta|^2 Delta_b,
    on the noise channels (xi_1, xi_2, X_in1, Y_in1, X_in2, Y_in2, X_inb,
    Y_inb):

        u = (Omega / mech) [1, 1, c_a, 0, -c_a, 0, 0, 0]
        d = (Omega / den) [D, -D, D c_a, 0, D c_a, 0,
                           sqrt(gamma_b) (-2 G beta_r kappa - 2 G beta_i Delta_b),
                           sqrt(gamma_b) (2 G beta_r Delta_b - 2 G beta_i kappa)]

    The entangler does not reach the centre of mass u.  D is formed as
    (kappa - i Delta_b)(kappa + i Delta_b), so nothing cancels near
    w = |Delta_b|, and the real part of mech as in _shifted_det.  Near a
    lightly damped pole of the relative mode mech D and the spring term
    cancel in den, as they do in the adjoint solve's relative block: at the
    stable point P* (tests/test_precision.py), whose relative mechanical
    pole at 0.92496 Omega has a damping of 7.9e-7 Omega, the d row holds
    only ~eps |mech D| / |den|, 2.4e-11 there, and the block solver no better.

    The sweep and the readout need only the real factors of these rows
    (_row_factors); the rows themselves are the reference those factors are
    tested against.  A zero mech or den raises SingularityError
    (_closed_form).

    w: a float array of shape (n,) as frequency_grid returns it; it is not
    checked again.  Returns shape (2, n, 8): the u row, then the d row.
    """
    mech, kappa, spring, den, c_a = _closed_form(sys, w)
    p, ss = sys.params, sys.steady
    om, g_b = p.big_omega, p.gamma_b
    gbeta_r, gbeta_i = p.big_g * ss.beta.real, p.big_g * ss.beta.imag
    rows = np.zeros((2, w.size, N_NOISE), dtype=complex)
    u, d = rows
    u[:, IXI1] = u[:, IXI2] = om / mech
    u[:, IXIN1] = u[:, IXI1] * c_a
    u[:, IXIN2] = -u[:, IXIN1]
    scale = om / den
    d[:, IXI1] = scale * spring
    d[:, IXI2] = -d[:, IXI1]
    d[:, IXIN1] = d[:, IXIN2] = d[:, IXI1] * c_a
    scale *= np.sqrt(g_b)
    d[:, IXINB] = scale * (-2.0 * gbeta_r * kappa - 2.0 * gbeta_i * p.delta_b)
    d[:, IYINB] = scale * (2.0 * gbeta_r * p.delta_b - 2.0 * gbeta_i * kappa)
    return rows


def _row_factors(sys, w):
    """The real factors of the model's u and d rows (susceptibility_rows)
    that every sweep weight and readout spectrum is made of, per omega.

    Returns (u2, v2, ent, meter, twist), each of shape (n,):

        u2 = |Omega / mech|^2,  v2 = |Omega D / den|^2,
        ent = |d_Xb|^2 + |d_Yb|^2
            = |Omega / den|^2 4 gamma_b G^2 |beta|^2 (|kappa|^2 + Delta_b^2),
        meter = |c_a|^2,
        twist = Im(d_Xb conj(d_Yb)) = |Omega / den|^2 4 gamma_b G^2 |beta|^2 w Delta_b.

    The Brownian channels of u and d carry u2 and v2 each, their meter
    channels u2 meter and v2 meter each, and the entangler inputs reach d
    alone.  u2 and v2 are the squared moduli of the rows' own first
    entries, so they have the rows' bits.  ent and twist are products of
    |Omega / den|^2 with sums of positive terms, so nothing cancels in
    them, where Im(d_Xb conj d_Yb) formed from the rows' entries cancels
    far from omega = |Delta_b|.  A zero mech or den raises
    SingularityError, as in susceptibility_rows (_closed_form).

    w: a float array of shape (n,) as frequency_grid returns it.
    """
    mech, kappa, spring, den, c_a = _closed_form(sys, w)
    p = sys.params
    scale = p.big_omega / den
    u, d = p.big_omega / mech, scale * spring
    # Omega / den times the modulus 2 G |beta| sqrt(gamma_b) of the
    # entangler's coupling to d.
    e = scale * (2.0 * p.big_g * abs(sys.steady.beta) * np.sqrt(p.gamma_b))
    e2 = e.real * e.real + e.imag * e.imag
    return (u.real * u.real + u.imag * u.imag,
            d.real * d.real + d.imag * d.imag,
            e2 * (kappa.real * kappa.real + w * w + p.delta_b * p.delta_b),
            c_a.real * c_a.real + c_a.imag * c_a.imag,
            e2 * (w * p.delta_b))


def selected_transfer_rows(sys: LinearSystem, omegas, selectors) -> np.ndarray:
    """Rows c^T M(omega) of the transfer matrix for selection vectors c.

    The model's sweep and readout take their u and d rows from
    susceptibility_rows instead.  This solve gives every selector the
    closed form does not cover and output_spectrum_via_transfer, and it is
    the independent check of the closed form.  Near an ill-conditioned
    relative block it is the less accurate of the two (the d row at P*'s
    optical pole, tests/test_precision.py).

    Solving the adjoint system per selector avoids forming the full transfer
    matrix and, crucially, avoids the catastrophic cancellation that appears
    when nearly-equal large matrix entries are differenced afterwards (the
    relative-momentum response is ~14 orders of magnitude below individual
    mirror responses at strong entangler drive).

    The solve runs in the rotated coordinates of LinearSystem: the
    selectors are rotated once per call, c^T T^-1, and the solutions are
    contracted with the rotated coupling T B.  The adjoint system is block
    triangular there, with the blocks of ADJOINT_PLAN.  The meter phase
    quadratures are solved first and the meter amplitude quadratures last,
    by one complex division each; the centre-of-mass block {q+, p+} is a
    2x2 solved in closed form; and so is the 4x4 block {q-, p-, X_b, Y_b}
    of the relative mode and the entangler, by 2x2-block elimination.  No
    block goes through LAPACK.  Leaving the meter states out of the
    relative block keeps the mirror rows accurate: near the two zero
    crossings of the commutator at the Fig. 2 point the commutator of its
    q1 and p1 rows stays within ~3e-12 of a 30-digit reference
    (tests/test_precision.py holds it to 5e-12), where the rows of a dense
    10x10 LU were off by up to ~5e-8.  The split also keeps the X_b and Y_b
    rows to rounding at omega = Omega, where the 6x6 mirror-entangler core
    lost ~1e-9 of them.

    One routine, _solve_closed_form, solves both blocks.  The block's
    shifted transpose is [[P, Q], [R, T]], T the trailing pair, or the whole
    block of a 2x2, which is adj(T) / det T.  The trailing pair of the 4x4
    is the damped entangler {X_b, Y_b}, whose shifted determinant
    (gamma_b/2 - i omega)^2 + Delta_b^2 no real omega zeroes.  For a 4x4,
    with K = Q T^-1 R and C = P - K,
    x_m = adj(C) (r_m - Q T^-1 r_o) / det C and x_o = T^-1 (r_o - R x_m),
    from per-omega coefficients T^-1 and C^-1 built once per call for all k
    columns.  Every 2x2 determinant det(-i omega - A_b) = (d - omega^2)
    + i t omega, d and t the block's determinant and trace (_shifted_det),
    has its real part formed as (r - omega)(r + omega), r = sqrt(d), when
    d > 0; the square root of a rounded square is exact, so the
    centre-of-mass block gives (Omega - omega)(Omega + omega) - i Gamma
    omega, with no cancellation of omega^2 against Omega^2 near resonance.
    det C is formed as det P - tr(adj(P) K) + det Q det R / det T: at the
    pole of a weakly driven relative mode C's own products cancel to ~1e-5,
    and this keeps the q1 - q2 row to ~4e-16 of a 40-digit reference where
    LAPACK is off by ~2e-12.  The known limit: the X_b and Y_b unit rows
    lose ~2e-12 at a narrow entangler resonance, where LAPACK keeps 3e-16,
    because x_o cancels when T^-1 is large; no package selector reaches
    them (nothing feeds X_b or Y_b).  A zero diagonal, det T or det C
    raises SingularityError before any division (_nonzero).

    omegas: shape (n,), see frequency_grid; selectors: a finite numeric
    array of shape (10, k), k >= 1; anything else raises
    InvalidParameterError.  Returns (n, k, 8).
    """
    w = frequency_grid(omegas)
    try:
        c = np.asarray(selectors)
    except ValueError:      # a ragged nesting of sequences
        c = None
    if (c is None or not np.issubdtype(c.dtype, np.number) or c.ndim != 2
            or c.shape[0] != N_STATE or c.shape[1] == 0
            or not np.isfinite(c).all()):
        raise InvalidParameterError(
            f"selectors must be a finite numeric ({N_STATE}, k) array with "
            f"k >= 1, got {reprlib.repr(selectors)}")
    return _transfer_rows(sys, w, c)


def _transfer_rows(sys, w, selectors):
    """selected_transfer_rows on a checked grid w and checked selectors."""
    sel = np.asarray(selectors, dtype=complex).T @ _MIRROR_INVERSE   # (k, 10)
    n, k = w.size, sel.shape[0]
    a = sys.basis_drift
    # Solutions as planes, x[s] = the (n, k) values of state s, so that a
    # block reads only the planes of the solved states that feed it, and
    # the final contraction with B is one matrix product.
    x = np.empty((N_STATE, n, k), dtype=complex)
    solved = []
    for block in ADJOINT_PLAN:
        idx, m = list(block), len(block)
        rhs = np.broadcast_to(sel[:, idx].T[:, None, :], (m, n, k))
        drives = a[:, idx].any(axis=1)
        feeds = [s for s in solved if drives[s]]
        if feeds:
            feed = a[np.ix_(feeds, idx)].T @ x[feeds].reshape(len(feeds), -1)
            rhs = rhs + feed.reshape(m, n, k)
        if m == 1:
            x[idx[0]] = rhs[0] / _nonzero(-1j * w - a[idx[0], idx[0]])[:, None]
        else:
            x[idx] = _solve_closed_form(a[np.ix_(idx, idx)], w, rhs)
        solved += idx
    return (x.reshape(N_STATE, -1).T @ sys.basis_coupling).reshape(n, k, -1)


def _shifted_det(block, w):
    """det(-i w - block) = (d - w^2) + i t w of a real (2, 2) block, with d
    and t its determinant and trace, for every omega of w.

    For d > 0 the real part is formed as (r - w)(r + w), r = sqrt(d), with
    no cancellation of w^2 against d near w = r.
    """
    (a00, a01), (a10, a11) = block
    d = a00 * a11 - a01 * a10
    det = np.empty(w.shape, dtype=complex)
    if d > 0.0:
        r = np.sqrt(d)
        det.real = (r - w) * (r + w)
    else:
        det.real = d - w * w
    det.imag = (a00 + a11) * w
    return det


def _nonzero(det):
    """det itself, after raising SingularityError if any entry is 0, so
    that nothing divides by it."""
    if not det.all():
        raise SingularityError("shifted drift matrix singular on grid")
    return det


def _apply(inv, x0, x1):
    """A 2x2 matrix, given as its entries (i00, i01, i10, i11), times the
    pair of planes (x0, x1)."""
    return inv[0] * x0 + inv[1] * x1, inv[2] * x0 + inv[3] * x1


def _solve_closed_form(block, w, rhs):
    """x with (-i w - block)^T x = rhs for every omega, in closed form (see
    selected_transfer_rows).

    block: (2, 2) real, or (4, 4) real with its trailing pair of nonzero
    trace and determinant, such as the damped entangler pair; w: (n,);
    rhs: (m, n, k) for an (m, m) block.  Returns (m, n, k).
    """
    s = -1j * w
    # The shifted transpose is [[P, Q], [R, T]] per omega, T = s - o its
    # trailing pair (the whole block for m = 2) and, for m = 4, P = s - m
    # with Q and R constant.
    bt = block.T
    (o00, o01), (o10, o11) = bt[-2:, -2:]
    det_t = _nonzero(_shifted_det(block[-2:, -2:], w))
    adj_t = ((s - o11)[:, None], o01, o10, (s - o00)[:, None])
    if len(block) == 2:
        return np.stack(_apply(adj_t, *rhs)) / det_t[:, None]
    (m00, m01), (m10, m11) = bt[:2, :2]
    q, r = -bt[:2, 2:], -bt[2:, :2]
    inv_t = 1.0 / det_t
    # T^-1 = (s I + adj(-o)) / det T, so K = Q T^-1 R = (k0 + s k1) / det T
    # with the constants k0 = Q adj(-o) R and k1 = Q R.
    k0, k1 = q @ np.array([[-o11, o01], [o10, -o00]]) @ r, q @ r
    (k00, k01), (k10, k11) = [[(k0[i, j] + s * k1[i, j]) * inv_t
                               for j in (0, 1)] for i in (0, 1)]
    p00, p11 = s - m00, s - m11
    # det C = det P - tr(adj(P) K) + det K, with det P of the real-part
    # recipe and det K = det Q det R / det T: near a pole of P no term
    # cancels against another, where c00 c11 - c01 c10 loses ~2e-12.
    inv_c = 1.0 / _nonzero(
        _shifted_det(block[:2, :2], w)
        - (p11 * k00 + p00 * k11 + m01 * k10 + m10 * k01)
        + (q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0])
        * (r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]) * inv_t)
    # C^-1 = adj(C) / det C, C = [[p00 - k00, -m01 - k01], [-m10 - k10, p11 - k11]],
    # and T^-1, each as four (n, 1) coefficients for the k columns.
    c_inv = [c[:, None] for c in ((p11 - k11) * inv_c, (m01 + k01) * inv_c,
                                  (m10 + k10) * inv_c, (p00 - k00) * inv_c)]
    t_inv = [c * inv_t[:, None] for c in adj_t]
    rm0, rm1, ro0, ro1 = rhs
    y0, y1 = _apply(t_inv, ro0, ro1)
    xm0, xm1 = _apply(c_inv, rm0 - (q[0, 0] * y0 + q[0, 1] * y1),
                      rm1 - (q[1, 0] * y0 + q[1, 1] * y1))
    xo0, xo1 = _apply(t_inv, ro0 - (r[0, 0] * xm0 + r[0, 1] * xm1),
                      ro1 - (r[1, 0] * xm0 + r[1, 1] * xm1))
    return np.stack([xm0, xm1, xo0, xo1])


# The input spectrum D(omega) is the Brownian diagonal plus constant vacuum
# blocks, and the rows at -omega are the conjugates of the rows r at +omega
# (A and B are real).  The hermitian form
#     [r_i(w) D(w) r_j(-w) + r_i(-w) D(-w) r_j(w)] / 2
# of any two rows therefore reduces to the weights of noise_weights, which
# depend on the rows alone, and a closed form in the noise, NoiseModel.form.
# The weights are sums of real products, not of complex ones, because numpy's
# complex multiply can differ from re*re + im*im in the last bit: so r_i = r_j
# gives an exactly real form, and the same bits as the sums of |r_k|^2.

def noise_weights(ri, rj):
    """Weights of the hermitian form of the rows ri and rj at +omega.

    ri, rj: (..., 8) noise-space rows.  Returns (xi_real, xi_imag, vacuum,
    pairs), each of shape (...): the real and imaginary parts of the
    Brownian sum of r_i conj(r_j), the real part of the same sum over the
    vacuum channels, and Re sum_pairs [r_i,X conj(r_j,Y) - r_i,Y conj(r_j,X)]
    over the (X, Y) vacuum pairs.  xi_imag and pairs are exactly 0 when ri
    equals rj; for an auto form, rj is ri, they are not computed.
    """
    a, b = np.moveaxis(ri, -1, 0), np.moveaxis(rj, -1, 0)     # channel planes
    re = a.real * b.real + a.imag * b.imag
    # Sums over the channel planes in order: the bits of numpy's sum over a
    # short last axis, at a fraction of the cost of that reduction.
    xi_real = reduce(np.add, re[IXI1:IXI2 + 1])
    vacuum = reduce(np.add, re[IXIN1:])
    if rj is ri:
        zero = np.zeros_like(xi_real)
        return xi_real, zero, vacuum, zero
    ai, bi = a[IXI1:IXI2 + 1], b[IXI1:IXI2 + 1]
    xa, ya, xb, yb = a[IXIN1::2], a[IYIN1::2], b[IXIN1::2], b[IYIN1::2]
    pairs = ((xa.real * yb.real + xa.imag * yb.imag)
             - (ya.real * xb.real + ya.imag * xb.imag))
    return (xi_real, reduce(np.add, ai.imag * bi.real - ai.real * bi.imag),
            vacuum, reduce(np.add, pairs))


def spectral_matrix(sys: LinearSystem, noise: NoiseModel, omega: float) -> np.ndarray:
    """Stationary cross-spectral matrix S(omega) = M(omega) D(omega) M(-omega)^T.

    Entry (i, j) is the stationary limit of <x_i(omega) x_j(-omega)>.  Because
    A and B are real, M(-omega) is the conjugate of M(omega) and S is Hermitian
    positive semidefinite whenever D is.  omega has the input contract of
    transfer_matrix, which checks it before anything else is evaluated.
    """
    m_plus = transfer_matrix(sys, omega)
    m_minus = transfer_matrix(sys, -omega)
    return m_plus @ noise.input_spectrum(omega) @ m_minus.T


def hybrid_grid(big_omega: float) -> np.ndarray:
    """Frequency grid refined around the mechanical resonance.

    2001 linear points over [0.5, 1.5] Omega (where the mechanical response
    peaks) merged with 512 log-spaced points over [1e-2, 1e2] Omega.
    big_omega must be > 0 and within model.MAGNITUDE_RANGE.
    """
    check_numbers({"big_omega": big_omega}, positive=("big_omega",))
    lin = np.linspace(0.5 * big_omega, 1.5 * big_omega, 2001)
    log = np.geomspace(1e-2 * big_omega, 1e2 * big_omega, 512)
    return np.unique(np.concatenate([lin, log]))
