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
    _row_factors, _shown, frequency_grid,
)
# The sweep never calls selected_transfer_rows; the benchmark's trace table
# patches entanglement.selected_transfer_rows by name, so the name stays.
from .dynamics import selected_transfer_rows  # noqa: F401
from .errors import (
    DegenerateCommutatorError, InvalidParameterError, UnphysicalStateError,
)
from .model import _is_real


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
#: The u = q1 + q2 and d = q1 - q2 selectors, as columns: the model's
#: closed-form rows (dynamics.selected_transfer_rows).
SWEEP_SELECTORS = np.stack([U_SELECTOR, D_SELECTOR], axis=1)

#: Symplectic form for (q1, p1, q2, p2) with [q, p] = i.
SYMPLECTIC_FORM = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])
#: (i/2) Sigma, the term physicality_margin adds to a covariance.
_HALF_I_SIGMA = 0.5j * SYMPLECTIC_FORM
#: eigvalsh's rounding per unit of trace(cov), which bounds the largest
#: eigenvalue of cov + (i/2) Sigma of a physical state.
_EIGVALSH_ROUNDING = 16.0 * np.finfo(float).eps


def _planes(sys, w):
    """The six temperature-free planes of E(omega) on the checked grid w,
    shape (6, n): x_u, x_v, a_u, a_v, xi, pairs, formed in CHUNK pieces
    (dynamics._by_piece) from the real factors of the model's u and
    d = q1 - q2 rows (dynamics._row_factors).  With S_sym the symmetrized
    Brownian spectrum at temperature T (NoiseModel._form_real and
    _form_imag),

        Var(u) = S_sym/2 x_u + a_u,  Var(v) = S_sym/2 x_v + a_v,
        <[R_q1, R_p1]> = i (pref omega xi + pairs).

    No noise enters q_j and its drift row is Omega at p_j alone, so with
    rho = omega / Omega the momentum rows are v = -i rho d and
    p1 = -i rho q1, q1 = (u + d) / 2.  In the factors of _row_factors:

        x_u = u2,         a_u = u2 meter,
        x_v = v2 rho^2,   a_v = (2 v2 meter + ent) rho^2 / 2,
        xi = rho (u2 + v2) / 2,  pairs = -rho twist / 2.

    The cross terms of u and d cancel in xi, and of the vacuum pairs of q1
    only the entangler's has a Y entry.
    """
    def planes(w):
        u2, v2, ent, meter, twist = _row_factors(sys, w)
        rho = w / sys.params.big_omega
        rho2 = rho * rho
        a_v = 0.5 * ((2.0 * v2 * meter + ent) * rho2)
        return (u2, v2 * rho2, u2 * meter, a_v,
                0.5 * rho * (u2 + v2), -0.5 * rho * twist)

    return _by_piece(planes, w)


def _degree(planes, noise, w, temperatures):
    """E(omega) and its ingredients from _planes(sys, w) at each of a float
    or a (k,) array of temperatures, in one broadcast.

    The commutator has no temperature in it, so it is formed and checked
    once: commutator_sq has shape (n,) either way, and var_u, var_v and
    degree have shape (n,) at one temperature and (k, n) at k, one row per
    temperature with the bits of a call at that temperature alone.
    """
    # <[R_q1, R_p1]>: the closed-form antisymmetric part keeps it exactly
    # temperature independent, with no difference of two thermal forms.
    comm_sq = noise._form_imag(w, planes[4], planes[5]) ** 2
    if np.any(comm_sq == 0.0):
        raise DegenerateCommutatorError(
            "commutator denominator vanished on the grid"
        )
    t = np.asarray(temperatures, dtype=float)[..., None, None]
    var = noise._form_real(w, planes[:2], planes[2:4], t)
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
    forms are built from the real factors of the model's closed-form u and
    d rows (_planes), never from a transfer matrix, so that the strongly
    suppressed relative-momentum variance is computed without catastrophic
    cancellation.  The grid is checked once and evaluated in CHUNK pieces,
    in bounded memory.  The commutator is proportional to omega, so E(0)
    is undefined and a grid that holds 0 raises DegenerateCommutatorError.
    """
    w = frequency_grid(omegas)
    noise._check_mechanics(sys)
    return _degree(_planes(sys, w), noise, w, noise.temperature)


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
        # eigvalsh returns the eigenvalues in ascending order
        return float(np.linalg.eigvalsh(self.cov + _HALF_I_SIGMA)[0])

    def require_physical(self):
        # eigvalsh rounds in proportion to the state's scale, so the
        # allowance is max(1e-9, _EIGVALSH_ROUNDING trace(cov))
        margin = self.physicality_margin()
        if margin < -1e-9 and margin < -_EIGVALSH_ROUNDING * self.cov.trace():
            raise UnphysicalStateError(margin)
        # np.allclose(cov, cov.T) for finite entries, at a tenth of its cost
        cov = self.cov
        if not (np.abs(cov - cov.T) <= 1e-8 + 1e-5 * np.abs(cov.T)).all():
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
    return (c[..., 0, 0], c[..., 2, 2], c[..., 0, 2],
            c[..., 1, 1], c[..., 3, 3], c[..., 1, 3])


def _checked_moments(covs):
    """_moments of covs, after raising InvalidParameterError unless covs is
    a finite real array of shape (..., 4, 4); a GaussianState's is."""
    try:
        c = np.asarray(covs)
    except ValueError:      # a ragged nesting of sequences
        c = np.asarray(None)
    if not _is_real(c) or c.shape[-2:] != (4, 4) or not np.isfinite(c).all():
        raise InvalidParameterError("covs must be a finite real array of "
                                    f"shape (..., 4, 4), got {_shown(covs)}")
    return _moments(c)


def _weights(a_values):
    """a_values as floats; InvalidParameterError unless finite and nonzero."""
    a = np.asarray(a_values, dtype=float)
    if not (np.isfinite(a) & (a != 0.0)).all():
        raise InvalidParameterError("a must be finite and nonzero")
    return a


def _products(moments, a, out=None):
    """Var(|a| q1 + q2/a) Var(|a| p1 - p2/a), with t = a^2 and s = sign a:
    (qa t + 2 s qc + qb/t)(pa t - 2 s pc + pb/t).  a (..., m) broadcasts
    against the batch shape of the moments; returns shape (..., m), or
    stores it into out."""
    qa, qb, qc, pa, pb, pc = moments
    qa, qb, qc = qa[..., None], qb[..., None], qc[..., None]
    pa, pb, pc = pa[..., None], pb[..., None], pc[..., None]
    t, s2 = a * a, 2.0 * np.sign(a)
    return np.multiply(qa * t + s2 * qc + qb / t, pa * t - s2 * pc + pb / t,
                       out=out)


def separability_products(covs, a_values) -> np.ndarray:
    """Vectorized variance products for stacked covariances.

    covs: (..., 4, 4); a_values: (m,).  Returns products of shape (..., m)
    where product[..., k] = Var(|a| q1 + q2/a) * Var(|a| p1 - p2/a) at
    a = a_values[k].

    Each variance is a sum of covariance entries, so a small one is a
    difference of large ones.  For a two-mode squeezed vacuum Var(q1 + q2)
    = e^{-2r} comes from entries of size cosh(2r)/2, and the product's
    relative error is about eps cosh^2(2r): 2.7e-8 at r = 5, 2.7e-3 at
    r = 8, and from r = 10 on the product rounds to 0 (or below).  The
    verdict product < 1 stays right there; the value does not.  covs must
    be a finite real array and a_values finite and nonzero; anything else
    raises InvalidParameterError.
    """
    return _products(_checked_moments(covs), _weights(a_values))


def separability_optimum(covs):
    """(best_a, best_product) over a > 0 for physical covs (..., 4, 4).

    With t = a^2 the product's stationary points are the positive roots of
    qa pa t^4 + (qc pa - pc qa) t^3 - (qc pb - pc qb) t - qb pb, one of which
    exists since qa pa >= 1/4 and qb pb > 0.  Every root's real part > 0 and
    a = 1 are scored exactly, so no candidate undercuts the true minimum and
    best_product <= product(a = 1).  covs that are not a finite real
    array raise InvalidParameterError.
    """
    return _optimum(_checked_moments(covs))


def _optimum(moments):
    """separability_optimum from the _moments of checked covariances."""
    qa, qb, qc, pa, pb, pc = moments
    lead = qa * pa
    comp = np.zeros(lead.shape + (4, 4))    # companions of the monic quartics
    with np.errstate(all="ignore"):
        comp[..., 0, 0] = (pc * qa - qc * pa) / lead
        comp[..., 0, 2] = (qc * pb - pc * qb) / lead
        comp[..., 0, 3] = qb * pb / lead
    if not np.isfinite(comp[..., 0, :]).all():
        raise InvalidParameterError("needs finite covs with Var q1 Var p1 > 0")
    comp[..., 1, 0] = comp[..., 2, 1] = comp[..., 3, 2] = 1.0
    roots = np.linalg.eigvals(comp).real
    # the candidates a (the roots' sqrt, then 1) and their products, as the
    # two rows of one array, so that one take_along_axis picks both; it
    # keeps argmin's first minimum where min() could return -0.0 for +0.0
    cand = np.empty((2,) + lead.shape + (5,))
    a, products = cand
    a.fill(1.0)
    np.sqrt(roots, out=a[..., :4], where=roots > 0.0)
    _products(moments, a, out=products)
    k = products.argmin(-1)[None, ..., None]
    best = np.take_along_axis(cand, k, axis=-1)[..., 0]
    return best[0, ...], best[1, ...]


def separability_product(state: GaussianState, a: float = 1.0):
    """Variance product and the separable-state bound for one weighting a.

    product < bound certifies entanglement; product < bound/4 certifies EPR
    correlations.  The bound |<[q1, p1]>|^2 is 1 in this convention.
    """
    product = float(_products(_moments(state.cov), _weights([float(a)]))[0])
    return product, 1.0


def optimize_separability(state: GaussianState):
    """Most violating weighting a > 0 and its product, in closed form."""
    best_a, best = _optimum(_moments(state.cov))
    return float(best_a), float(best)
