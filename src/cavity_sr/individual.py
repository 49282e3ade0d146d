"""Individual emission scheme: DTWA spin trajectories with a hybrid TWA
cavity, discrete initial sampling, and the companion mean-field decay.

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

The state block is column-major, so each spin column is one contiguous run
of trajectories, and drift and noise are written into it in place.  Each
product is rounded in the order the seed-0 digests pin, e.g.
((-2 g) Im eta) s_z and (-sqrt(2 gamma) s_y) dW_i.  The atom sums (the
cavity drive and S_z) add spin columns in numpy's pairwise grouping, so
the kernels give the same bits for a block of either memory order.

The mean-field solver is the free-space reference.  The mean-field equations
for <sigma_+^i> and <c> are linear and homogeneous in them, so from full
inversion, where all vanish, they stay zero and the cavity never acts.  Every
atom then decays alone, with S_z = (N/2) sigma_z:

  d sigma_z/dt = -2 gamma (1 + sigma_z),    sigma_z(0) = 1.

So g, kappa and Delta never enter; its I(N) and zeta are those of independent
decay, and it cannot show the cavity's effect.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from .engine import EnsembleModel
from .params import NumericalParams, SystemParams, SCHEME_INDIVIDUAL, require_scheme
from .series import ObservableSeries, time_grid


def _pairwise_sum(v):
    """Sums over axis 1 of a (k, n, rows) view, adding whole columns as numpy's
    pairwise sum adds a row: in order below 8 terms; to 128, in 8 accumulators
    over columns i, i + 8, ..., summed as ((r0 + r1) + (r2 + r3)) + ((r4 + r5)
    + (r6 + r7)), then the n mod 8 left; above 128, as two halves split at n/2
    rounded down to a multiple of 8.  Like numpy's, each sum starts at +0.0."""
    n = v.shape[1]
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(v[:, :half]) + _pairwise_sum(v[:, half:])
    if n < 8:
        res, rest = v[:, 0] + 0.0, range(1, n)
    else:
        m = n - n % 8
        r = np.add.reduce(v[:, :m].reshape(len(v), m // 8, 8, -1), axis=1, initial=0.0)
        r = r[:, 0::2] + r[:, 1::2]
        r = r[:, 0::2] + r[:, 1::2]
        res, rest = r[:, 0] + r[:, 1], range(m, n)
    for i in rest:
        res += v[:, i]
    return res


def individual_dtwa_model(params: SystemParams) -> EnsembleModel:
    """Vectorized DTWA model over a column-major (n_traj, 3N + 2) real state
    block: columns [s_x (N), s_y (N), s_z (N), Re eta, Im eta].

    The spin columns of the initial block are discrete Wigner samples of the
    fully excited lattice, (s_x, s_y, s_z) in {(+-1, +-1, 1)} with equal
    weight; the cavity starts in the vacuum Wigner distribution
    (<|eta|^2> = 1/2)."""
    require_scheme(params, SCHEME_INDIVIDUAL)
    n = params.n_atoms
    g, gam, kap, det = params.g, params.gamma, params.kappa, params.detuning
    amp = np.sqrt(2.0 * gam)
    cavity_amp = np.sqrt(kap / 2.0)

    def atom_sums(y, lo, k):
        """(k, n_traj) sums over the atoms of the k spin components from
        column lo on, with the bits of numpy's sum over each row."""
        return _pairwise_sum(y[:, lo:lo + k * n].T.reshape(k, n, -1))

    def sample_initial(m, rng):
        y = np.empty((m, 3 * n + 2), order="F")
        y[:, :n] = rng.integers(0, 2, (m, n)) * 2.0 - 1.0
        y[:, n:2 * n] = rng.integers(0, 2, (m, n)) * 2.0 - 1.0
        y[:, 2 * n:3 * n] = 1.0
        y[:, 3 * n:] = 0.5 * rng.standard_normal((m, 2))
        return y

    def drift(y, out):
        sx, sy, sz = y[:, :n], y[:, n:2 * n], y[:, 2 * n:3 * n]
        re, im = y[:, 3 * n:3 * n + 1], y[:, 3 * n + 1:]
        ox, oy, oz = out[:, :n], out[:, n:2 * n], out[:, 2 * n:3 * n]
        # gamma [s_x | s_y]: one contiguous run in column-major order
        damp = gam * y[:, :2 * n]
        np.multiply(-2.0 * g * im, sz, out=ox)
        ox -= damp[:, :n]
        np.multiply(-2.0 * g * re, sz, out=oy)
        oy -= damp[:, n:]
        tmp = damp[:, :n]       # free once ox is written
        np.multiply(sy, re, out=oz)
        oz += np.multiply(sx, im, out=tmp)
        oz *= 2.0 * g
        np.add(sz, 1.0, out=tmp)
        tmp *= 2.0 * gam
        oz -= tmp
        sums = atom_sums(y, 0, 2)
        drive = sums[0] - 1j * sums[1]
        eta = y[:, 3 * n] + 1j * y[:, 3 * n + 1]
        d_eta = -1j * det * eta - kap * eta - 0.5j * g * drive
        out[:, 3 * n] = d_eta.real
        out[:, 3 * n + 1] = d_eta.imag

    def noise(y, dW, out):
        dw = np.asfortranarray(dW[:, :n])
        ox, oy, oz = out[:, :n], out[:, n:2 * n], out[:, 2 * n:3 * n]
        np.multiply(-amp, y[:, n:2 * n], out=ox)
        ox *= dw
        np.multiply(amp, y[:, :n], out=oy)
        oy *= dw
        np.add(y[:, 2 * n:3 * n], 1.0, out=oz)
        oz *= amp
        oz *= dw
        n_eta = cavity_amp * (dW[:, n] + 1j * dW[:, n + 1])
        out[:, 3 * n] = n_eta.real
        out[:, 3 * n + 1] = n_eta.imag

    def observables(y):
        eta = y[:, 3 * n] + 1j * y[:, 3 * n + 1]
        return {"sz": 0.5 * atom_sums(y, 2 * n, 1)[0],
                "photon": np.abs(eta) ** 2 - 0.5}

    return EnsembleModel(state_dim=3 * n + 2, noise_dim=n + 2,
                         sample_initial=sample_initial, drift=drift, noise=noise,
                         observables=observables)


def solve_meanfield_individual(params: SystemParams, num: NumericalParams) -> ObservableSeries:
    """Integrate the per-atom decay equation from sigma_z = 1 on the grid the
    stochastic runner would use; S_z = (N/2) sigma_z and the cavity stays empty."""
    require_scheme(params, SCHEME_INDIVIDUAL)
    _, _, times = time_grid(num.dt, num.t_max)
    gam = params.gamma
    sol = solve_ivp(lambda t, sigma_z: -2.0 * gam * (1.0 + sigma_z),
                    (times[0], times[-1]), [1.0], t_eval=times,
                    method="DOP853", rtol=1e-10, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"mean-field integration failed: {sol.message}")
    zeros = np.zeros_like(times)
    return ObservableSeries(times=times, sz_mean=0.5 * params.n_atoms * sol.y[0],
                            sz_sem=zeros, photon_mean=zeros, photon_sem=zeros,
                            n_atoms=params.n_atoms)
