"""Independent verification machinery.

Three unrelated oracles live here: a time-domain Monte Carlo integrator for
the classical (high-temperature) limit of the linear dynamics, a random
generator of separable two-mode Gaussian states for stress-testing the
variance-product criterion, and the two-mode squeezed vacuum as the canonical
entangled witness.

The SDE path deliberately shares no linear algebra with the frequency-domain
engine beyond the drift matrix itself: it steps with the matrix-exponential
propagator, exact in distribution at any dt, and estimates spectra from FFT
periodograms instead of resolvent solves.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .dynamics import N_STATE, LinearSystem, NoiseModel, _require_stable
from .errors import InvalidParameterError
from .entanglement import GaussianState
from .model import check_numbers

#: Most integration steps (burn-in and record) one run may take, and most
#: values its record may hold: 8 bytes per recorded step, signal and
#: trajectory, so at most 0.8 GB.
_MAX_STEPS = 10 ** 8


@dataclass(frozen=True)
class SdeRun:
    """Settings for one Monte Carlo run."""

    seed: int
    dt: float
    total_time: float
    burn_in: float
    trajectories: int
    record: tuple = ((0,),)   # tuples of state indices summed into one signal

    def __post_init__(self):
        record = self.record
        if not (isinstance(record, tuple)
                and all(isinstance(r, tuple) for r in record)):
            raise InvalidParameterError(
                f"record must be a tuple of tuples of state indices, got {record!r}")
        flat = sum(record, ())
        check_numbers({**vars(self), "record": flat},
                      positive=("dt", "total_time"), nonnegative=("burn_in",),
                      counts=("trajectories",), indices=("seed", "record"))
        if any(k >= N_STATE for k in flat):
            raise InvalidParameterError(
                f"record indices must be below {N_STATE}, got {record!r}")
        steps = (self.burn_in + self.total_time) / self.dt
        if steps > _MAX_STEPS:
            raise InvalidParameterError(
                f"(burn_in + total_time) / dt must be at most {_MAX_STEPS:.0e}"
                f" steps, got {steps:.3g}")
        # A periodogram needs 2 recorded steps, and a standard error 2
        # trajectories.
        n_rec = int(round(self.total_time / self.dt))
        if n_rec < 2:
            raise InvalidParameterError(
                f"total_time must hold at least 2 steps of dt, got"
                f" {self.total_time!r} / {self.dt!r} = {n_rec} steps")
        if self.trajectories < 2:
            raise InvalidParameterError(
                f"trajectories must be at least 2, got {self.trajectories!r}")
        # The record of classical_sde_psd: signals x steps x trajectories.
        per_trajectory = len(record) * n_rec
        if per_trajectory * self.trajectories > _MAX_STEPS:
            raise InvalidParameterError(
                f"trajectories must be at most {_MAX_STEPS // per_trajectory}"
                f" to record at most {_MAX_STEPS:.0e} values, {per_trajectory}"
                f" per trajectory, got {reprlib.repr(self.trajectories)}")


def white_noise_intensities(noise: NoiseModel) -> np.ndarray:
    """Per-channel white-noise intensities matching the symmetrized input
    spectra at the mechanical resonance: S_sym(Omega)/2 on the two Brownian
    channels (white at its resonance value) and 1 on the vacuum channels."""
    s = 0.5 * noise.symmetrized_spectrum(noise.big_omega)
    return np.array([s, s] + [1.0] * 6)


def _discretize(sys: LinearSystem, noise: NoiseModel, dt: float):
    """One-step propagator and a square root of the noise-increment
    covariance."""
    # Imported here so that `import mirrorpair` does not load scipy.
    from scipy.linalg import expm

    a = sys.drift
    b = sys.noise_coupling
    q = b @ np.diag(white_noise_intensities(noise)) @ b.T
    # Van Loan block-exponential for the exact discrete-time noise
    # covariance cov(h) = integral_0^h e^{As} Q e^{A^T s} ds, taken over
    # h = dt / 2^doublings with |A|_1 h < 1.  Its e^{-Ah} block grows with
    # h: taken over a dt with |A|_1 dt of some tens, phi @ e12 cancels
    # every digit (at dt = 1e-3 s on the decoupled system, e^{-A dt} holds
    # e^50).
    # Doubling reaches dt by sums of positive semidefinite terms:
    #     cov(2h) = cov(h) + phi(h) cov(h) phi(h)^T,  phi(2h) = phi(h)^2.
    doublings = max(0, math.frexp(np.linalg.norm(a, 1) * dt)[1])
    blk = np.zeros((2 * N_STATE, 2 * N_STATE))
    blk[:N_STATE, :N_STATE] = -a
    blk[:N_STATE, N_STATE:] = q
    blk[N_STATE:, N_STATE:] = a.T
    e = expm(blk * (dt / 2 ** doublings))
    phi = e[N_STATE:, N_STATE:].T
    cov = phi @ e[:N_STATE, N_STATE:]
    for _ in range(doublings):
        cov = cov + phi @ cov @ phi.T
        phi = phi @ phi
    cov = 0.5 * (cov + cov.T)
    # Any square root of cov samples the same increments.  That of eigh
    # needs no positive definite cov: no noise drives q1 and q2 directly,
    # so their increments scale as dt^3 against dt for the rest, and the
    # eigenvalues that rounding puts below 0 are taken as 0.
    lam, vec = np.linalg.eigh(cov)
    return phi, vec * np.sqrt(np.clip(lam, 0.0, None))


@dataclass(frozen=True)
class OracleSpectra:
    """Averaged periodograms with per-bin standard errors."""

    omegas: np.ndarray            # angular frequencies, >= 0
    psd: np.ndarray               # (n_record, n_bins)
    stderr: np.ndarray

    def at(self, omega: float, signal: int = 0, bins: int = 1):
        """Bin-averaged PSD around omega (averaging `bins` nearest bins)."""
        order = np.argsort(np.abs(self.omegas - omega))[:bins]
        return float(self.psd[signal, order].mean())


def classical_sde_psd(
    sys: LinearSystem, noise: NoiseModel, run: SdeRun
) -> OracleSpectra:
    """Monte Carlo stationary spectra of the classical stochastic dynamics.

    Integrates dx = A x dt + B dW with white-noise intensities matching the
    symmetrized input spectra near resonance, then averages per-trajectory
    periodograms.  Valid as a check of the quantum spectra in the
    high-temperature regime kB T >> hbar Omega where symmetrized quantum and
    classical spectra coincide.
    """
    _require_stable(sys)
    phi, root = _discretize(sys, noise, run.dt)

    n_burn = int(round(run.burn_in / run.dt))
    n_rec = int(round(run.total_time / run.dt))
    n_traj = run.trajectories
    sel = np.zeros((len(run.record), N_STATE))
    for i, idxs in enumerate(run.record):
        for j in idxs:
            sel[i, j] += 1.0

    # Trajectories evolve in parallel as columns of a single generator
    # stream, so a given seed fixes every sample path exactly.
    rng = np.random.default_rng(np.random.SeedSequence(run.seed))
    x = np.zeros((N_STATE, n_traj))
    recorded = np.empty((len(run.record), n_rec, n_traj))
    for step in range(n_burn + n_rec):
        w = rng.standard_normal((N_STATE, n_traj))
        x = phi @ x + root @ w
        if step >= n_burn:
            recorded[:, step - n_burn, :] = sel @ x

    # Periodogram in the convention S(w) = integral ds e^{iws} <O(0)O(s)>:
    # P(w_k) = dt^2/T |sum_n x_n e^{i w_k t_n}|^2.
    t_rec = n_rec * run.dt
    spec = np.abs(np.fft.rfft(recorded, axis=1)) ** 2 * (run.dt ** 2 / t_rec)
    omegas = 2.0 * np.pi * np.fft.rfftfreq(n_rec, run.dt)
    psd = spec.mean(axis=2)
    stderr = spec.std(axis=2, ddof=1) / np.sqrt(n_traj)
    return OracleSpectra(omegas=omegas, psd=psd, stderr=stderr)


# ---------------------------------------------------------------------------
# Gaussian-state generators


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]]).transpose(2, 0, 1)


def _single_mode_covs(rng, n):
    """Random squeezed thermal single-mode covariances, shape (n, 2, 2)."""
    theta = rng.uniform(0.0, np.pi, size=n)
    r = rng.uniform(0.0, 1.5, size=n)
    nbar = rng.exponential(0.5, size=n)
    diag = np.zeros((n, 2, 2))
    diag[:, 0, 0] = np.exp(-2.0 * r)
    diag[:, 1, 1] = np.exp(2.0 * r)
    rot = _rotation(theta)
    covs = rot @ diag @ rot.transpose(0, 2, 1)
    return (nbar + 0.5)[:, None, None] * covs


def sample_separable_covariances(seed, count):
    """Random separable two-mode Gaussian states, physical by construction.

    Returns (covs, means) with shapes (count, 4, 4) and (count, 4).  Each
    state is a random mixture rho = sum_i w_i rho_i1 (x) rho_i2 of 2 to 8
    products of displaced, rotated squeezed thermal states; the covariance
    includes the spread of the component means.  GaussianState(cov=c,
    mean=m) holds one of them.
    """
    check_numbers({"seed": seed, "count": count}, counts=("count",),
                  indices=("seed",))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_comp = rng.integers(2, 9, size=count)
    covs = np.empty((count, 4, 4))
    means = np.empty((count, 4))
    for k in np.unique(n_comp):
        idx = np.nonzero(n_comp == k)[0]
        m = idx.size * k
        weights = rng.dirichlet(np.ones(k), size=idx.size)        # (b, k)
        c1 = _single_mode_covs(rng, m).reshape(idx.size, k, 2, 2)
        c2 = _single_mode_covs(rng, m).reshape(idx.size, k, 2, 2)
        mu = rng.normal(0.0, 1.0, size=(idx.size, k, 4))
        comp = np.zeros((idx.size, k, 4, 4))
        comp[:, :, :2, :2] = c1
        comp[:, :, 2:, 2:] = c2
        mean = np.einsum("bk,bki->bi", weights, mu)
        second = np.einsum(
            "bk,bkij->bij", weights, comp + np.einsum("bki,bkj->bkij", mu, mu)
        )
        covs[idx] = second - np.einsum("bi,bj->bij", mean, mean)
        means[idx] = mean
    return covs, means


def tmsv_state(r: float, local_scalings=None) -> GaussianState:
    """Two-mode squeezed vacuum with squeezing parameter r >= 0.

    Var(q1 + q2) = Var(p1 - p2) = exp(-2 r).  Optional local_scalings
    (s1, s2) apply the local symplectic q_i -> s_i q_i, p_i -> p_i / s_i.
    """
    scalings = (1.0, 1.0) if local_scalings is None else local_scalings
    if not (isinstance(scalings, (tuple, list))
            or getattr(scalings, "ndim", 0) == 1) or len(scalings) != 2:
        raise InvalidParameterError(
            f"local_scalings must be a pair (s1, s2), got {scalings!r}")
    # A negative scaling is a symplectic map too; 0 has no inverse.  Both
    # are dimensionless, and r = 1e-300 is as exact as r = 0.
    check_numbers({"r": r, "local_scalings": tuple(scalings)},
                  nonnegative=("r",), nonzero=("local_scalings",),
                  magnitude=(0.0, np.inf))
    ch, sh = np.cosh(2.0 * r) / 2.0, np.sinh(2.0 * r) / 2.0
    cov = np.diag([ch, ch, ch, ch])
    # Anticorrelated positions, correlated momenta.
    cov[0, 2] = cov[2, 0] = -sh
    cov[1, 3] = cov[3, 1] = sh
    s1, s2 = scalings
    scale = np.diag([s1, 1.0 / s1, s2, 1.0 / s2])
    cov = scale @ cov @ scale.T
    return GaussianState(cov=cov)
