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
    HBAR, KB, PhysicalParams, SteadyState, check_numbers, steady_state,
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


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Immutable drift/noise-coupling pair plus the parameters behind it.

    The adjoint solve (selected_transfer_rows) runs in the coordinates
    x' = T x, with T the identity or MIRROR_ROTATION, whichever gives the
    drift the finer block plan (_adjoint_blocks).  For the mirror-symmetric
    drift of build_linear_system the rotation separates the centre-of-mass
    oscillator {q+, p+} from the relative mode and the entangler
    {q-, p-, X_b, Y_b}.  There the entries of the two mirrors are equal or
    opposite, so every rotated entry is exact in binary (the rotation undoes
    to the same bits).  A drift without that symmetry keeps T = I and its
    own plan.  The choice, the rotated drift T A T^-1, the rotated coupling
    T B and the plan are worked out once, here.
    """

    drift: np.ndarray           # (10, 10) real
    noise_coupling: np.ndarray  # (10, 8) real
    params: PhysicalParams
    steady: SteadyState
    #: T^-1 of the solve coordinates: a selector c enters as c^T T^-1.
    basis: np.ndarray = field(init=False, repr=False)
    #: The drift T A T^-1 and the coupling T B of the solve coordinates.
    basis_drift: np.ndarray = field(init=False, repr=False)
    basis_coupling: np.ndarray = field(init=False, repr=False)
    #: Diagonal blocks of the adjoint solve, in solve order (_adjoint_blocks),
    #: as indices of the solve coordinates: with the rotation, the slots of
    #: q1, p1, q2 and p2 hold q+, p+, q- and p-.
    blocks: tuple = field(init=False, repr=False)

    def __post_init__(self):
        a, b, basis = self.drift, self.noise_coupling, np.eye(N_STATE)
        plan = _adjoint_blocks(a)
        rotated = MIRROR_ROTATION @ a @ _MIRROR_INVERSE
        finer = _adjoint_blocks(rotated)
        if len(finer) > len(plan):
            basis, a, b, plan = (_MIRROR_INVERSE, rotated,
                                 MIRROR_ROTATION @ b, finer)
        for array in (self.drift, self.noise_coupling, basis, a, b):
            array.setflags(write=False)
        for name, value in (("basis", basis), ("basis_drift", a),
                            ("basis_coupling", b), ("blocks", plan)):
            object.__setattr__(self, name, value)


def _adjoint_blocks(drift) -> tuple:
    """Block back-substitution order of (-i omega I - A)^T x = c.

    Row j of the transposed system couples x_j to x_i for every state i
    that j drives (drift[i, j] != 0).  The blocks are the strongly connected
    components of that graph, found from its boolean transitive closure, in
    topological order: a component is solved after every component it
    drives.  A state reaches strictly more states than any state of another
    component that it drives, so sorting the components by the number of
    states they reach, then by their first index, gives that order.
    Returns a tuple of sorted index tuples; a drift with no such structure
    gives the single block of all states.
    """
    n = len(drift)
    reach = (np.asarray(drift) != 0) | np.eye(n, dtype=bool)   # [i, j]: j -> i
    while not np.array_equal(closed := reach @ reach, reach):
        reach = closed
    same = reach & reach.T
    order = np.argsort(reach.sum(axis=0), kind="stable")
    return tuple(dict.fromkeys(tuple(np.flatnonzero(same[s]).tolist())
                               for s in order))


def build_linear_system(
    params: PhysicalParams, require_stable: bool = False
) -> LinearSystem:
    """Assemble the linearized quadrature dynamics.

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
    ss = steady_state(params)
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

    sys = LinearSystem(drift=a, noise_coupling=b, params=params, steady=ss)
    if require_stable and not is_stable(sys):
        raise DriftUnstableError(np.linalg.eigvals(a))
    return sys


def stability_margin(sys: LinearSystem) -> float:
    """Largest real part among drift eigenvalues (negative means stable)."""
    return float(np.linalg.eigvals(sys.drift).real.max())


def is_stable(sys: LinearSystem) -> bool:
    return stability_margin(sys) < 0.0


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

    def _wcoth(self, w):
        """omega * coth(hbar omega / 2 kB T), even in omega; |omega| at T = 0."""
        if self.temperature == 0.0:
            return np.abs(w)
        x = HBAR * w / (2.0 * KB * self.temperature)
        safe = np.where(x == 0.0, 1.0, x)
        # omega -> 0 limit of w*coth(hbar w / 2 kB T) is 2 kB T / hbar.
        return np.where(
            x == 0.0, 2.0 * KB * self.temperature / HBAR, w / np.tanh(safe)
        )

    def brownian_spectrum(self, omega):
        """Non-symmetrized thermal-force spectrum, elementwise over omega."""
        w = np.asarray(omega, dtype=float)
        out = self.pref * (self._wcoth(w) + w)
        return out if out.shape else float(out)

    def symmetrized_spectrum(self, omega):
        """S_sym(omega) = S_xi(omega) + S_xi(-omega) in closed form.

        Equal to 2 * pref * omega * coth(hbar omega / 2 kB T), and to
        2 * pref * |omega| at T = 0.  This is the only temperature-dependent
        input of Var(u) and Var(v) (see entanglement.sweep_weights).
        """
        w = np.asarray(omega, dtype=float)
        out = 2.0 * self.pref * self._wcoth(w)
        return out if out.shape else float(out)

    def form(self, omega, xi_real, xi_imag, vacuum, pairs):
        """[r_i(w) D(w) r_j(-w) + r_i(-w) D(-w) r_j(w)] / 2 from the weights of
        noise_weights(r_i, r_j), against which omega broadcasts.  Only the
        antisymmetric part of D enters the imaginary part (commutator_spectrum),
        so it is temperature independent, and exactly 0 when r_i equals r_j."""
        s = 0.5 * self.symmetrized_spectrum(omega) * xi_real + vacuum
        out = np.empty(np.shape(s), dtype=complex)
        out.real = s
        out.imag = self.pref * omega * xi_imag + pairs
        return out

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

    omega is one real number under the value rule of frequency_grid;
    anything else raises InvalidParameterError.
    """
    w = frequency_grid(omega)
    if np.ndim(omega):
        raise InvalidParameterError(
            f"omega must be a real number, got {reprlib.repr(omega)}")
    shifted = -1j * w[0] * np.eye(N_STATE) - sys.drift
    try:
        return np.linalg.solve(shifted, sys.noise_coupling.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise SingularityError(
            f"shifted drift matrix singular at omega={omega!r}"
        ) from exc


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


def selected_transfer_rows(sys: LinearSystem, omegas, selectors) -> np.ndarray:
    """Rows c^T M(omega) of the transfer matrix for selection vectors c.

    Solving the adjoint system per selector avoids forming the full transfer
    matrix and, crucially, avoids the catastrophic cancellation that appears
    when nearly-equal large matrix entries are differenced afterwards (the
    relative-momentum response is ~14 orders of magnitude below individual
    mirror responses at strong entangler drive).

    The solve runs in the coordinates of sys.basis (see LinearSystem): the
    selectors are rotated once per call, c^T T^-1, and the solutions are
    contracted with the rotated coupling T B.  The adjoint system is block
    triangular there (sys.blocks, see _adjoint_blocks).  At the reference
    point the meter phase quadratures are solved first and the meter
    amplitude quadratures last, by one complex division each; the
    centre-of-mass block {q+, p+} is a 2x2 solved in closed form; and only
    the 4x4 block {q-, p-, X_b, Y_b} of the relative mode and the entangler
    goes through a batched LU factorization.  Leaving the meter states out of
    that factorization keeps the mirror rows accurate: near the two zero
    crossings of the commutator at the Fig. 2 point the commutator stays
    within ~1e-11 of a 30-digit reference, where a dense 10x10 LU is off by
    up to ~2e-8 (tests/test_precision.py).  The split also keeps the X_b and
    Y_b rows to rounding at omega = Omega, where the 6x6 mirror-entangler
    core lost ~1e-9 of them.

    A 2x2 block is solved by its adjugate over det(-i omega - A_b) =
    (d - omega^2) + i t omega, with d and t the block's determinant and
    trace.  For d > 0 the real part is formed as (r - omega)(r + omega) with
    r = sqrt(d); the square root of a rounded square is exact, so the
    centre-of-mass block gives (Omega - omega)(Omega + omega) - i Gamma
    omega, with no cancellation of omega^2 against Omega^2 near resonance.
    A zero determinant or diagonal raises SingularityError before any
    division.

    omegas: shape (n,), see frequency_grid; selectors: shape (10, k).
    Returns (n, k, 8).
    """
    w = frequency_grid(omegas)
    sel = np.asarray(selectors, dtype=complex).T @ sys.basis     # (k, 10)
    n, k = w.size, sel.shape[0]
    a = sys.basis_drift
    # Solutions as planes, x[s] = the (n, k) values of state s, so that a
    # block reads only the planes of the solved states that feed it, and
    # the final contraction with B is one matrix product.
    x = np.empty((N_STATE, n, k), dtype=complex)
    solved = []
    for block in sys.blocks:
        idx, m = list(block), len(block)
        rhs = np.broadcast_to(sel[:, idx].T[:, None, :], (m, n, k))
        drives = a[:, idx].any(axis=1)
        feeds = [s for s in solved if drives[s]]
        if feeds:
            feed = a[np.ix_(feeds, idx)].T @ x[feeds].reshape(len(feeds), -1)
            rhs = rhs + feed.reshape(m, n, k)
        if m == 1:
            diag = -1j * w - a[idx[0], idx[0]]
            if not diag.all():
                raise SingularityError("shifted drift matrix singular on grid")
            x[idx[0]] = rhs[0] / diag[:, None]
        elif m == 2:
            x[idx] = _solve_2x2(a[np.ix_(idx, idx)], w, rhs)
        else:
            shifted_t = np.empty((n, m * m), dtype=complex)
            shifted_t[:] = -a[np.ix_(idx, idx)].T.ravel()
            shifted_t[:, ::m + 1] -= 1j * w[:, None]     # the diagonal
            try:
                x[idx] = np.linalg.solve(
                    shifted_t.reshape(n, m, m), rhs.transpose(1, 0, 2)
                ).transpose(1, 0, 2)
            except np.linalg.LinAlgError as exc:
                raise SingularityError(
                    "shifted drift matrix singular on grid") from exc
        solved += idx
    return (x.reshape(N_STATE, -1).T @ sys.basis_coupling).reshape(n, k, -1)


def _solve_2x2(block, w, rhs):
    """x with (-i w - block)^T x = rhs for every omega, by the adjugate.

    block: (2, 2) real; w: (n,); rhs: (2, n, k).  Returns (2, n, k).
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
    if not det.all():
        raise SingularityError("shifted drift matrix singular on grid")
    s00, s11, det = (-1j * w - a00)[:, None], (-1j * w - a11)[:, None], det[:, None]
    r0, r1 = rhs
    return np.stack([(s11 * r0 + a10 * r1) / det, (s00 * r1 + a01 * r0) / det])


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
    equals rj.
    """
    a, b = np.moveaxis(ri, -1, 0), np.moveaxis(rj, -1, 0)     # channel planes
    re = a.real * b.real + a.imag * b.imag
    ai, bi = a[IXI1:IXI2 + 1], b[IXI1:IXI2 + 1]
    xa, ya, xb, yb = a[IXIN1::2], a[IYIN1::2], b[IXIN1::2], b[IYIN1::2]
    pairs = ((xa.real * yb.real + xa.imag * yb.imag)
             - (ya.real * xb.real + ya.imag * xb.imag))
    # Sums over the channel planes in order: the bits of numpy's sum over a
    # short last axis, at a fraction of the cost of that reduction.
    return (reduce(np.add, re[IXI1:IXI2 + 1]),
            reduce(np.add, ai.imag * bi.real - ai.real * bi.imag),
            reduce(np.add, re[IXIN1:]), reduce(np.add, pairs))


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
    """
    lin = np.linspace(0.5 * big_omega, 1.5 * big_omega, 2001)
    log = np.geomspace(1e-2 * big_omega, 1e2 * big_omega, 512)
    return np.unique(np.concatenate([lin, log]))
