"""Time series of ensemble observables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ObservableSeries:
    """Uniform time grid with ensemble mean and standard error of <S_z> and <c^dag c>.

    For deterministic solvers (mean-field, exact oracle) the sem columns are
    zero and n_trajectories is 1.  sz_norm is the figure quantity 2<S_z>/N.
    """

    times: np.ndarray
    sz_mean: np.ndarray
    sz_sem: np.ndarray
    photon_mean: np.ndarray
    photon_sem: np.ndarray
    n_atoms: int
    n_trajectories: int = 1
    n_divergent: int = 0

    def __post_init__(self):
        cols = (self.times, self.sz_mean, self.sz_sem, self.photon_mean, self.photon_sem)
        lengths = {len(c) for c in cols}
        if len(lengths) != 1:
            raise ValueError(f"column lengths differ: {sorted(lengths)}")
        if np.any(self.sz_sem < 0) or np.any(self.photon_sem < 0):
            raise ValueError("standard errors must be non-negative")

    @property
    def sz_norm(self) -> np.ndarray:
        return 2.0 * self.sz_mean / self.n_atoms


def time_grid(dt: float, t_max: float, max_points: int = 1201):
    """Integration step count, recording stride and recorded time grid.

    The recorded grid is uniform with spacing stride*dt; nsteps is rounded up
    to a stride multiple so the final step lands on the grid.
    """
    nsteps = max(1, int(round(t_max / dt)))
    stride = max(1, -(-nsteps // (max_points - 1)))
    nsteps = -(-nsteps // stride) * stride
    times = np.arange(nsteps // stride + 1) * (stride * dt)
    return nsteps, stride, times
