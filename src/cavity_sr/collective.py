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

with beta's noise radicand clamped to zero where |alpha|^2 < 1/2 (the
diffusion matrix is not positive semidefinite near depletion; clamping is the
standard regularization and only touches late-time tails).  alpha's radicand
Gamma(|beta|^2 + 1/2) is never negative, since Gamma >= 0, and is not clamped.

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
from .params import NumericalParams, SystemParams, SCHEME_COLLECTIVE, require_scheme
from .series import ObservableSeries, time_grid


def collective_twa_model(params: SystemParams) -> EnsembleModel:
    """Vectorized TWA model over a column-major (n_traj, 3) complex128 state
    block.

    The columns are alpha, beta and eta, each one contiguous run of
    trajectories; state_dim counts a row's 6 float64 words.  The initial
    block is the state |e_1..e_N; 0>: mode a carries the N quanta, with fixed
    amplitude sqrt(N) and uniform random phase; b and eta are vacuum Wigner
    samples, complex Gaussian with <|.|^2> = 1/2.
    """
    require_scheme(params, SCHEME_COLLECTIVE)
    g, gam, kap, det = params.g, params.gamma, params.kappa, params.detuning
    amp_h = np.sqrt(kap / 2.0)

    def sample_initial(n, rng):
        phases = rng.uniform(0.0, 2.0 * np.pi, n)
        z = np.empty((n, 3), dtype=complex, order="F")
        z[:, 0] = np.sqrt(float(params.n_atoms)) * np.exp(1j * phases)
        vac = rng.standard_normal((n, 4))
        z[:, 1] = 0.5 * (vac[:, 0] + 1j * vac[:, 1])
        z[:, 2] = 0.5 * (vac[:, 2] + 1j * vac[:, 3])
        return z

    def drift(y, out):
        alpha, beta, eta = y.T
        out[:, 0] = -1j * g * beta * eta - gam * (np.abs(beta) ** 2 + 0.5) * alpha
        out[:, 1] = -1j * g * alpha * np.conj(eta) + gam * (np.abs(alpha) ** 2 - 0.5) * beta
        out[:, 2] = -1j * det * eta - 1j * g * alpha * np.conj(beta) - kap * eta

    def noise(y, dW, out):
        """dW is a row-major float block whose column pairs are the complex
        increments dW1 + i dW2, dW3 + i dW4 and dW5 + i dW6."""
        (alpha, beta, _), w = y.T, dW.view(complex)
        out[:, 0] = np.sqrt(gam * (np.abs(beta) ** 2 + 0.5) / 2.0) * w[:, 0]
        out[:, 1] = np.sqrt(np.maximum(gam * (np.abs(alpha) ** 2 - 0.5), 0.0) / 2.0) * w[:, 1]
        out[:, 2] = amp_h * w[:, 2]

    def observables(y):
        alpha, beta, eta = y.T
        sz = 0.5 * (np.abs(alpha) ** 2 - np.abs(beta) ** 2)
        photon = np.abs(eta) ** 2 - 0.5
        return {"sz": sz, "photon": photon}

    return EnsembleModel(state_dim=6, noise_dim=6,
                         sample_initial=sample_initial, drift=drift, noise=noise,
                         observables=observables)


def solve_meanfield_collective(params: SystemParams, num: NumericalParams) -> ObservableSeries:
    """Integrate the cascade equation from S_z = N/2 on the grid the stochastic
    runner would use (for pointwise comparisons); the cavity stays empty."""
    require_scheme(params, SCHEME_COLLECTIVE)
    _, _, times = time_grid(num.dt, num.t_max)
    gam, j = params.gamma, 0.5 * params.n_atoms
    sol = solve_ivp(lambda t, sz: 2.0 * gam * (sz - j - 1.0) * (sz + j),
                    (times[0], times[-1]), [j], t_eval=times,
                    method="DOP853", rtol=1e-10, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"mean-field integration failed: {sol.message}")
    zeros = np.zeros_like(times)
    return ObservableSeries(times=times, sz_mean=sol.y[0], sz_sem=zeros,
                            photon_mean=zeros, photon_sem=zeros,
                            n_atoms=params.n_atoms)
