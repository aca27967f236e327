"""Frequency-resolved entanglement degree and the variance-product criterion.

For any frequency-domain operator O(omega) define the hermitian combination
R_O(omega) = [O(omega) + O(-omega)] / 2.  With u = q1 + q2 and v = p1 - p2,
the degree of entanglement is

    E(omega) = <R_u^2> <R_v^2> / |<[R_q1, R_p1]>|^2 .

E < 1 certifies that the two mirrors are inseparable; E < 1/4 additionally
certifies EPR-type correlations.  The underlying inequality is the
variance-product bound for separable states

    Var(|a| q1 + q2/a) * Var(|a| p1 - p2/a) >= |<[q1, p1]>|^2 ,

implemented here as a standalone checker on two-mode Gaussian covariance
matrices (ordering q1, p1, q2, p2; vacuum variance 1/2; [q, p] = i so the
bound is 1).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import (
    IP1, IP2, IQ1, IQ2, N_STATE, LinearSystem, NoiseModel, _by_piece,
    _row_factors, frequency_grid,
)
# The sweep never calls selected_transfer_rows; the benchmark's trace table
# patches entanglement.selected_transfer_rows by name, so the name stays.
from .dynamics import selected_transfer_rows  # noqa: F401
from .errors import (
    DegenerateCommutatorError, InvalidParameterError, UnphysicalStateError,
)


def _selector(*pairs):
    c = np.zeros(N_STATE)
    for idx, coeff in pairs:
        c[idx] = coeff
    return c


U_SELECTOR = _selector((IQ1, 1.0), (IQ2, 1.0))
D_SELECTOR = _selector((IQ1, 1.0), (IQ2, -1.0))
V_SELECTOR = _selector((IP1, 1.0), (IP2, -1.0))
Q1_SELECTOR = _selector((IQ1, 1.0))
P1_SELECTOR = _selector((IP1, 1.0))
#: The u = q1 + q2 and d = q1 - q2 selectors, as columns: the rows of
#: dynamics.susceptibility_rows.
SWEEP_SELECTORS = np.stack([U_SELECTOR, D_SELECTOR], axis=1)

#: Symplectic form for (q1, p1, q2, p2) with [q, p] = i.
SYMPLECTIC_FORM = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])


def sweep_weights(sys: LinearSystem, omegas) -> np.ndarray:
    """Temperature-independent reduction of the transfer rows behind E(omega).

    The grid is checked once and evaluated in order, in the ceil(n / CHUNK)
    pieces of np.array_split (dynamics._by_piece).  For rows
    r = c^T M(omega) at +omega (the rows at -omega are their conjugates
    because A and B are real) and
    F(r_i, r_j) = NoiseModel.form(omega, *noise_weights(r_i, r_j)),

        Var(u) = Re F(u, u) / 2,  Var(v) = Re F(v, v) / 2,
        <[R_q1, R_p1]> = i Im F(q1, p1).

    The weights are formed in closed form from the real factors of the
    model's u and d = q1 - q2 rows (_position_weights), with no row and no
    sum over channels; noise_weights of dynamics.susceptibility_rows gives
    the same to rounding.

    Returns the weights of the pairs (u, u), (v, v) and (q1, p1), the pieces
    joined: shape (4, 3, n), in the order of noise_weights.
    """
    return _sweep_weights(sys, frequency_grid(omegas))


def _sweep_weights(sys, w):
    """sweep_weights on a checked grid w."""
    return _by_piece(lambda piece: _position_weights(sys, piece), w)


def _position_weights(sys, w):
    """The sweep weights of the model from the real factors of its u and d
    rows (dynamics._row_factors), by the q-row identity.

    Row q_j of the model's drift is Omega at p_j and nothing else, and no
    noise enters q_j, so p_j = (-i omega / Omega) q_j at every omega.  With
    rho = omega / Omega the momentum rows are v = -i rho d and
    p1 = -i rho q1, q1 = (u + d) / 2.  So the weights of (v, v) are rho^2
    times those of (d, d).  Those of (q1, p1) close over q1 alone:
    q1 conj(p1) = i rho |q1|^2 per channel, so xi_real and vacuum are 0,
    xi_imag is rho times the Brownian sum of |q1|^2, and pairs is
    -2 rho sum_pairs Im(q1_X conj q1_Y).  In the factors u2, v2, ent, meter
    and twist of _row_factors:

        (u, u):   xi_real = 2 u2,  vacuum = 2 u2 meter
        (d, d):   xi_real = 2 v2,  vacuum = 2 v2 meter + ent
        (q1, p1): xi_imag = rho (u2 + v2) / 2,  pairs = -rho twist / 2

    The Brownian entries of q1 are (u + d)/2 and (u - d)/2 of the common
    entries of u and d, whose cross terms cancel in the sum, and its meter
    pairs have no Y entry, so only the entangler pair is left in pairs.
    """
    u2, v2, ent, meter, twist = _row_factors(sys, w)
    rho = w / sys.params.big_omega
    out = np.zeros((4, 3, w.size))
    out[0, 0], out[0, 1] = 2.0 * u2, 2.0 * v2
    out[2, 0], out[2, 1] = out[0, 0] * meter, out[0, 1] * meter + ent
    out[:, 1] *= rho * rho
    out[1, 2] = 0.5 * rho * (u2 + v2)
    out[3, 2] = -0.5 * rho * twist
    return out


def degree_from_weights(weights, noise: NoiseModel, omegas) -> dict:
    """E(omega) and its ingredients from sweep_weights(sys, omegas).

    O(n) per noise model: a sweep solves once and evaluates its
    temperatures from the same weights.  Returns the dict of degree_sweep.
    """
    return _degree(weights, noise, frequency_grid(omegas))


def _degree(weights, noise, w, temperatures=None):
    """degree_from_weights on a checked grid w, at noise.temperature or, in
    its place, at each of a (k,) array of temperatures in one broadcast.

    The commutator has no temperature in it, so it is formed and checked
    once: commutator_sq has shape (n,) either way, and var_u, var_v and
    degree have shape (n,) at one temperature and (k, n) at k, one row per
    temperature with the bits of a call at that temperature alone.
    """
    xi_real, xi_imag, vacuum, pairs = weights
    # <[R_q1, R_p1]>: the closed-form antisymmetric part keeps it exactly
    # temperature independent, with no difference of two thermal forms.
    comm_sq = noise._form_imag(w, xi_imag[2], pairs[2]) ** 2
    if np.any(comm_sq == 0.0):
        raise DegenerateCommutatorError(
            "commutator denominator vanished on the grid"
        )
    if temperatures is None:
        temperatures = noise.temperature
    t = np.asarray(temperatures, dtype=float)[..., None, None]
    var = 0.5 * noise._form_real(w, xi_real[:2], vacuum[:2], t)
    var_u, var_v = var[..., 0, :], var[..., 1, :]
    return {
        "var_u": var_u,
        "var_v": var_v,
        "commutator_sq": comm_sq,
        "degree": var_u * var_v / comm_sq,
    }


def degree_sweep(sys: LinearSystem, noise: NoiseModel, omegas) -> dict:
    """E(omega) over a frequency grid, solved as mirrorpair --sweep solves it.

    Returns a dict of arrays: var_u, var_v, commutator_sq, degree.  The
    quadratic forms are built from transfer rows, never from the full
    transfer matrix, so that the strongly suppressed relative-momentum
    variance is computed without catastrophic cancellation.  The grid is
    checked once and evaluated as sweep_weights evaluates it, in CHUNK
    pieces, in bounded memory.
    """
    w = frequency_grid(omegas)
    return _degree(_sweep_weights(sys, w), noise, w)


@dataclass(frozen=True)
class GaussianState:
    """Two-mode Gaussian state: mean over (q1, p1, q2, p2) and 4x4 covariance.

    Covariance entries are symmetrized second moments
    cov_ij = <Delta O_i Delta O_j + Delta O_j Delta O_i> / 2.  Construction
    checks physicality (require_physical), so every instance is physical.
    """

    cov: np.ndarray
    mean: np.ndarray = field(default_factory=lambda: np.zeros(4))

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        mean = np.asarray(self.mean, dtype=float)
        if cov.shape != (4, 4) or mean.shape != (4,):
            raise InvalidParameterError("cov must be 4x4 and mean length 4")
        if not (np.isfinite(cov).all() and np.isfinite(mean).all()):
            raise InvalidParameterError("cov and mean must be finite")
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "mean", mean)
        self.require_physical()

    def physicality_margin(self) -> float:
        """Smallest eigenvalue of cov + (i/2) Sigma; >= 0 for physical states."""
        h = self.cov + 0.5j * SYMPLECTIC_FORM
        return float(np.linalg.eigvalsh(h).min())

    def require_physical(self):
        margin = self.physicality_margin()
        if margin < -1e-9:      # allowance for rounding in eigvalsh
            raise UnphysicalStateError(margin)
        # np.allclose(cov, cov.T) for finite entries, at a tenth of its cost
        cov = self.cov
        if not np.all(np.abs(cov - cov.T) <= 1e-8 + 1e-5 * np.abs(cov.T)):
            raise UnphysicalStateError(0.0, "covariance matrix not symmetric")

    @classmethod
    def from_file(cls, path) -> "GaussianState":
        """Load from whitespace-separated text: 4 covariance rows, then an
        optional fifth row holding the mean vector."""
        try:
            with warnings.catch_warnings():     # no data is reported below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(Path(path), ndmin=2)
        except ValueError as exc:
            raise InvalidParameterError(f"{path}: not numeric: {exc}") from exc
        if data.size == 0:
            raise InvalidParameterError(f"{path}: no data")
        if data.shape == (4, 4):
            return cls(cov=data)
        if data.shape == (5, 4):
            return cls(cov=data[:4], mean=data[4])
        raise InvalidParameterError(
            f"expected a 4x4 matrix plus optional mean row, got {data.shape}"
        )

    def to_file(self, path):
        rows = self.cov
        if np.any(self.mean):
            rows = np.vstack([self.cov, self.mean])
        np.savetxt(Path(path), rows, fmt="%.17e")


def _moments(covs):
    """qa, qb, qc, pa, pb, pc: Var q1, Var q2, Cov(q1, q2), the same for p."""
    c = np.asarray(covs, dtype=float)
    pairs = ((0, 0), (2, 2), (0, 2), (1, 1), (3, 3), (1, 3))
    return tuple(c[..., i, j] for i, j in pairs)


def _products(moments, a):
    """Var(|a| q1 + q2/a) Var(|a| p1 - p2/a), with t = a^2 and s = sign a:
    (qa t + 2 s qc + qb/t)(pa t - 2 s pc + pb/t).  a (..., m) broadcasts
    against the batch shape of the moments; returns shape (..., m)."""
    qa, qb, qc, pa, pb, pc = (m[..., None] for m in moments)
    t, s = a * a, np.sign(a)
    return (qa * t + 2.0 * s * qc + qb / t) * (pa * t - 2.0 * s * pc + pb / t)


def separability_products(covs, a_values) -> np.ndarray:
    """Vectorized variance products for stacked covariances.

    covs: (..., 4, 4); a_values: (m,).  Returns products of shape (..., m)
    where product[..., k] = Var(|a| q1 + q2/a) * Var(|a| p1 - p2/a) at
    a = a_values[k].
    """
    a = np.asarray(a_values, dtype=float)
    if not np.all(np.isfinite(a) & (a != 0.0)):
        raise InvalidParameterError("a must be finite and nonzero")
    return _products(_moments(covs), a)


def separability_optimum(covs):
    """(best_a, best_product) over a > 0 for physical covs (..., 4, 4).

    With t = a^2 the product's stationary points are the positive roots of
    qa pa t^4 + (qc pa - pc qa) t^3 - (qc pb - pc qb) t - qb pb, one of which
    exists since qa pa >= 1/4 and qb pb > 0.  Every root's real part > 0 and
    a = 1 are scored exactly, so no candidate undercuts the true minimum and
    best_product <= product(a = 1).
    """
    moments = _moments(covs)
    qa, qb, qc, pa, pb, pc = moments
    lead = qa * pa
    comp = np.zeros(lead.shape + (4, 4))    # companions of the monic quartics
    with np.errstate(all="ignore"):
        comp[..., 0, 0] = (pc * qa - qc * pa) / lead
        comp[..., 0, 2] = (qc * pb - pc * qb) / lead
        comp[..., 0, 3] = qb * pb / lead
    if not np.isfinite(comp).all():
        raise InvalidParameterError("needs finite covs with Var q1 Var p1 > 0")
    comp[..., [1, 2, 3], [0, 1, 2]] = 1.0
    roots = np.linalg.eigvals(comp).real
    a = np.sqrt(np.where(roots > 0.0, roots, 1.0))
    a = np.concatenate([a, np.ones(lead.shape + (1,))], axis=-1)
    products = _products(moments, a)
    k = np.argmin(products, axis=-1)[..., None]
    return (np.take_along_axis(a, k, axis=-1)[..., 0],
            np.take_along_axis(products, k, axis=-1)[..., 0])


def separability_product(state: GaussianState, a: float = 1.0):
    """Variance product and the separable-state bound for one weighting a.

    product < bound certifies entanglement; product < bound/4 certifies EPR
    correlations.  The bound |<[q1, p1]>|^2 is 1 in this convention.
    """
    product = float(separability_products(state.cov, [float(a)])[0])
    return product, 1.0


def optimize_separability(state: GaussianState):
    """Most violating weighting a > 0 and its product, in closed form."""
    best_a, best = separability_optimum(state.cov)
    return float(best_a), float(best)
