"""Collective emission scheme: TWA stochastic equations in the Schwinger
representation, Wigner-consistent initial sampling, symmetric-ordering
observables, and the companion mean-field cascade.

The collective spin is mapped onto two bosonic modes, S+ = a^dag b,
S- = a b^dag, S_z = (a^dag a - b^dag b)/2, with phase-space amplitudes
(alpha, beta) plus the cavity amplitude eta.  In the frame rotating at the
atomic frequency, with Delta the cavity detuning, the Ito equations are

  d alpha = [-i g beta eta - Gamma(|beta|^2 + 1/2) alpha] dt
            + sqrt(Gamma(|beta|^2 + 1/2)/2) (dW1 + i dW2)
  d beta  = [-i g alpha eta* + Gamma(|alpha|^2 - 1/2) beta] dt
            + sqrt(Gamma(|alpha|^2 - 1/2)/2) (dW3 + i dW4)
  d eta   = [-i Delta eta - i g alpha beta* - kappa eta] dt
            + sqrt(kappa/2) (dW5 + i dW6)

with negative noise radicands clamped to zero (the diffusion matrix is not
positive semidefinite near depletion; clamping is the standard regularization
and only touches late-time tails).

The mean-field solver is the free-space reference.  The mean-field equations
for <S+> and <c> are linear and homogeneous in the pair, so from full
inversion, where both vanish, <S+> = <c> = 0 at every t and the cavity never
acts.  What is left is the Riccati equation of the Dicke cascade (Gross &
Haroche, Phys. Rep. 93, 301 (1982)), with j = N/2:

  dS_z/dt = 2 Gamma (S_z - j - 1)(S_z + j),    S_z(0) = j.

So g, kappa and Delta never enter; its I(N) and zeta are those without a
cavity (zeta 1.9788 over N = 50, 100, 200), and it cannot show the cavity's
effect.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from .engine import EnsembleModel
from .params import NumericalParams, SystemParams, SCHEME_COLLECTIVE
from .series import ObservableSeries, time_grid

NOISE_DIM = 6


def _require_collective(params: SystemParams):
    if params.scheme != SCHEME_COLLECTIVE:
        raise ValueError("collective operations need params with gamma_col set")


def _drift(alpha, beta, eta, params: SystemParams):
    """Drift field; elementwise over arrays or scalars."""
    g, gam, kap = params.g, params.gamma_col, params.kappa
    d_alpha = -1j * g * beta * eta - gam * (np.abs(beta) ** 2 + 0.5) * alpha
    d_beta = -1j * g * alpha * np.conj(eta) + gam * (np.abs(alpha) ** 2 - 0.5) * beta
    d_eta = -1j * params.detuning * eta - 1j * g * alpha * np.conj(beta) \
        - kap * eta
    return d_alpha, d_beta, d_eta


def _noise(alpha, beta, eta, dW, params: SystemParams):
    """Stochastic increments for dW columns (dW1..dW6) of variance dt."""
    gam, kap = params.gamma_col, params.kappa
    amp_a = np.sqrt(np.maximum(gam * (np.abs(beta) ** 2 + 0.5), 0.0) / 2.0)
    amp_b = np.sqrt(np.maximum(gam * (np.abs(alpha) ** 2 - 0.5), 0.0) / 2.0)
    amp_h = np.sqrt(kap / 2.0)
    d_alpha = amp_a * (dW[..., 0] + 1j * dW[..., 1])
    d_beta = amp_b * (dW[..., 2] + 1j * dW[..., 3])
    d_eta = amp_h * (dW[..., 4] + 1j * dW[..., 5])
    return d_alpha, d_beta, d_eta


def _sample_block(n_traj: int, n_atoms: int, rng: np.random.Generator) -> np.ndarray:
    """(n_traj, 3) complex block for the state |e_1..e_N; 0>.

    Mode a carries the N quanta: fixed amplitude sqrt(N) with uniform random
    phase; b and eta are vacuum Wigner samples, complex Gaussian with
    <|.|^2> = 1/2.
    """
    phases = rng.uniform(0.0, 2.0 * np.pi, n_traj)
    block = np.empty((n_traj, 3), dtype=complex)
    block[:, 0] = np.sqrt(float(n_atoms)) * np.exp(1j * phases)
    vac = rng.standard_normal((n_traj, 4))
    block[:, 1] = 0.5 * (vac[:, 0] + 1j * vac[:, 1])
    block[:, 2] = 0.5 * (vac[:, 2] + 1j * vac[:, 3])
    return block


def collective_twa_model(params: SystemParams, num: NumericalParams) -> EnsembleModel:
    """Vectorized TWA model over a (n_traj, 6) real state block.

    Adjacent float pairs are the real/imaginary parts of (alpha, beta, eta);
    the callables view the state and output blocks as (n_traj, 3) complex.
    """
    _require_collective(params)

    def sample_initial(n, rng):
        return _sample_block(n, params.n_atoms, rng).view(float).reshape(n, 6)

    def drift(y, out):
        z, o = y.view(complex), out.view(complex)
        o[:, 0], o[:, 1], o[:, 2] = _drift(z[:, 0], z[:, 1], z[:, 2], params)

    def noise(y, dW, out):
        z, o = y.view(complex), out.view(complex)
        o[:, 0], o[:, 1], o[:, 2] = _noise(z[:, 0], z[:, 1], z[:, 2], dW, params)

    def observables(y):
        z = y.view(complex)
        sz = 0.5 * (np.abs(z[:, 0]) ** 2 - np.abs(z[:, 1]) ** 2)
        photon = np.abs(z[:, 2]) ** 2 - 0.5
        return {"sz": sz, "photon": photon}

    return EnsembleModel(state_dim=6, noise_dim=NOISE_DIM,
                         sample_initial=sample_initial, drift=drift, noise=noise,
                         observables=observables)


def solve_meanfield_collective(params: SystemParams, num: NumericalParams) -> ObservableSeries:
    """Integrate the cascade equation from S_z = N/2 on the grid the stochastic
    runner would use (for pointwise comparisons); the cavity stays empty."""
    _require_collective(params)
    _, _, times = time_grid(num.dt, num.t_max)
    gam, j = params.gamma_col, 0.5 * params.n_atoms
    sol = solve_ivp(lambda t, sz: 2.0 * gam * (sz - j - 1.0) * (sz + j),
                    (times[0], times[-1]), [j], t_eval=times,
                    method="DOP853", rtol=1e-10, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"mean-field integration failed: {sol.message}")
    zeros = np.zeros_like(times)
    return ObservableSeries(times=times, sz_mean=sol.y[0], sz_sem=zeros,
                            photon_mean=zeros, photon_sem=zeros,
                            n_atoms=params.n_atoms)
