"""Individual emission scheme: DTWA spin trajectories with a hybrid TWA
cavity, discrete initial sampling, and the companion mean-field equations.

Each atom carries a classical spin vector (s_x, s_y, s_z); the cavity
amplitude eta is treated exactly as in the collective TWA (vacuum-sampled
initial condition, sqrt(kappa/2) complex Gaussian noise).  The drift is the
mean-field Heisenberg flow in the frame rotating at the atomic frequency,
with Delta the cavity detuning:

  ds_x = -2 g s_z Im(eta) - gamma s_x
  ds_y = -2 g s_z Re(eta) - gamma s_y
  ds_z = +2 g [s_y Re(eta) + s_x Im(eta)] - 2 gamma (s_z + 1)
  d eta = -i Delta eta - kappa eta - (i g / 2) sum_i (s_x^i - i s_y^i)

which is the published form with the purely imaginary (eta - eta*) factors
restored to the real combinations -i(eta - eta*) = 2 Im(eta); the signs are
fixed by requiring exact agreement with the mean-field equations under
sigma_+- = (s_x +- i s_y)/2, which also makes the drift conserve
sum_i s_z^i / 2 + |eta|^2 when gamma = kappa = 0.

The atomic decay noise drives all three components of atom i with one shared
Wiener increment dW_i, which approximately preserves the spin length:

  delta s_x = -sqrt(2 gamma) s_y dW_i
  delta s_y = +sqrt(2 gamma) s_x dW_i
  delta s_z = +sqrt(2 gamma) (s_z + 1) dW_i

The mean-field solver is the free-space reference: from full inversion
<sigma+> = <c> = 0 holds exactly, so g, kappa and Delta never enter and its
I(N) and zeta are those of independent decay.  It cannot show the cavity's
effect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .engine import EnsembleModel
from .params import NumericalParams, SystemParams, SCHEME_INDIVIDUAL
from .series import ObservableSeries, time_grid


@dataclass
class MeanFieldIndividualState:
    """Per-atom <sigma_z> (real) and <sigma_+> (complex), plus <c>."""

    sigma_z: np.ndarray
    sigma_plus: np.ndarray
    c: complex


def _require_individual(params: SystemParams):
    if params.scheme != SCHEME_INDIVIDUAL:
        raise ValueError("individual operations need params with gamma_ind set")


def _drift(sx, sy, sz, eta, params: SystemParams):
    """Drift for spin blocks (..., N) and cavity amplitude (...)."""
    g, gam, kap = params.g, params.gamma_ind, params.kappa
    re = np.real(eta)[..., None]
    im = np.imag(eta)[..., None]
    dsx = -2.0 * g * im * sz - gam * sx
    dsy = -2.0 * g * re * sz - gam * sy
    dsz = 2.0 * g * (sy * re + sx * im) - 2.0 * gam * (sz + 1.0)
    drive = sx.sum(axis=-1) - 1j * sy.sum(axis=-1)
    d_eta = -1j * params.detuning * eta - kap * eta - 0.5j * g * drive
    return dsx, dsy, dsz, d_eta


def _noise(sx, sy, sz, dW_atoms, dW_cavity, params: SystemParams):
    """Noise increments; dW_atoms (..., N) and dW_cavity (..., 2), variance dt."""
    amp = np.sqrt(2.0 * params.gamma_ind)
    nx = -amp * sy * dW_atoms
    ny = amp * sx * dW_atoms
    nz = amp * (sz + 1.0) * dW_atoms
    n_eta = np.sqrt(params.kappa / 2.0) * (dW_cavity[..., 0] + 1j * dW_cavity[..., 1])
    return nx, ny, nz, n_eta


def _sample_spins(n_traj: int, n_atoms: int, rng: np.random.Generator) -> np.ndarray:
    """(n_traj, N, 3) block: (s_x, s_y, s_z) in {(+-1, +-1, 1)}, equal weight."""
    spins = np.empty((n_traj, n_atoms, 3))
    spins[:, :, 0] = rng.integers(0, 2, (n_traj, n_atoms)) * 2.0 - 1.0
    spins[:, :, 1] = rng.integers(0, 2, (n_traj, n_atoms)) * 2.0 - 1.0
    spins[:, :, 2] = 1.0
    return spins


def individual_dtwa_model(params: SystemParams, num: NumericalParams) -> EnsembleModel:
    """Vectorized DTWA model over a (n_traj, 3N + 2) real state block:
    columns [s_x (N), s_y (N), s_z (N), Re eta, Im eta].

    The spin columns of the initial block are discrete Wigner samples of the
    fully excited lattice; the cavity starts in the vacuum Wigner
    distribution (<|eta|^2> = 1/2)."""
    _require_individual(params)
    n = params.n_atoms

    def split(y):
        return (y[:, :n], y[:, n:2 * n], y[:, 2 * n:3 * n],
                y[:, 3 * n] + 1j * y[:, 3 * n + 1])

    def targets(out):
        """Writable views of out, matching the parts split() returns."""
        return (out[:, :n], out[:, n:2 * n], out[:, 2 * n:3 * n],
                out[:, 3 * n:].view(complex)[:, 0])

    def sample_initial(m, rng):
        spins = _sample_spins(m, n, rng)
        y = np.empty((m, 3 * n + 2))
        y[:, :n] = spins[:, :, 0]
        y[:, n:2 * n] = spins[:, :, 1]
        y[:, 2 * n:3 * n] = spins[:, :, 2]
        y[:, 3 * n:] = 0.5 * rng.standard_normal((m, 2))
        return y

    def drift(y, out):
        sx, sy, sz, eta = split(y)
        ox, oy, oz, oh = targets(out)
        ox[...], oy[...], oz[...], oh[...] = _drift(sx, sy, sz, eta, params)

    def noise(y, dW, out):
        sx, sy, sz, _ = split(y)
        ox, oy, oz, oh = targets(out)
        ox[...], oy[...], oz[...], oh[...] = \
            _noise(sx, sy, sz, dW[:, :n], dW[:, n:], params)

    def observables(y):
        _, _, sz, eta = split(y)
        return {"sz": 0.5 * sz.sum(axis=1),
                "photon": np.abs(eta) ** 2 - 0.5}

    return EnsembleModel(state_dim=3 * n + 2, noise_dim=n + 2,
                         sample_initial=sample_initial, drift=drift, noise=noise,
                         observables=observables)


def meanfield_individual_rhs(s: MeanFieldIndividualState,
                             params: SystemParams) -> MeanFieldIndividualState:
    """Mean-field equations with the cavity driven by the sum over atoms:

    d<sigma_z^i> = -2 i g <c><sigma_+^i> + 2 i g <c>*<sigma_-^i> - 2 gamma (1 + <sigma_z^i>)
    d<sigma_+^i> = -i g <c>*<sigma_z^i> - gamma <sigma_+^i>
    d<c>         = -i Delta <c> - i g sum_i <sigma_-^i> - kappa <c>
    """
    _require_individual(params)
    g, gam, kap = params.g, params.gamma_ind, params.kappa
    sminus = np.conj(s.sigma_plus)
    d_sz = np.real(-2j * g * s.c * s.sigma_plus + 2j * g * np.conj(s.c) * sminus) \
        - 2.0 * gam * (1.0 + s.sigma_z)
    d_sp = -1j * g * np.conj(s.c) * s.sigma_z - gam * s.sigma_plus
    d_c = -1j * params.detuning * s.c - 1j * g * sminus.sum() - kap * s.c
    return MeanFieldIndividualState(d_sz, d_sp, complex(d_c))


def solve_meanfield_individual(params: SystemParams, num: NumericalParams,
                               initial: MeanFieldIndividualState | None = None
                               ) -> ObservableSeries:
    """Integrate the mean-field equations (all atoms excited, cavity empty
    unless an explicit initial state is given)."""
    _require_individual(params)
    n = params.n_atoms
    _, _, times = time_grid(num.dt, num.t_max)
    if initial is None:
        initial = MeanFieldIndividualState(np.ones(n), np.zeros(n, dtype=complex), 0j)

    def rhs(t, y):
        s = MeanFieldIndividualState(
            y[:n], y[n:2 * n] + 1j * y[2 * n:3 * n], y[3 * n] + 1j * y[3 * n + 1])
        d = meanfield_individual_rhs(s, params)
        return np.concatenate([d.sigma_z, d.sigma_plus.real, d.sigma_plus.imag,
                               [d.c.real, d.c.imag]])

    y0 = np.concatenate([initial.sigma_z, initial.sigma_plus.real,
                         initial.sigma_plus.imag, [initial.c.real, initial.c.imag]])
    sol = solve_ivp(rhs, (times[0], times[-1]), y0, t_eval=times,
                    method="DOP853", rtol=1e-10, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"mean-field integration failed: {sol.message}")
    sz = 0.5 * sol.y[:n].sum(axis=0)
    photon = sol.y[3 * n] ** 2 + sol.y[3 * n + 1] ** 2
    zeros = np.zeros_like(times)
    return ObservableSeries(times=times, sz_mean=sz, sz_sem=zeros,
                            photon_mean=photon, photon_sem=zeros, n_atoms=n)
