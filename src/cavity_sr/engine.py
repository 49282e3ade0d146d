"""Fixed-step Euler-Maruyama integrator and parallel trajectory-ensemble runner.

Trajectories are integrated in fixed-size chunks (vectorized over the chunk),
chunks run on a thread pool, and per-chunk statistics are merged in chunk
order with the pairwise mean/variance combination, so the output is
bit-identical for any worker count.

Each chunk allocates its state, drift, noise and Wiener buffers once and
updates them in place; the model callables write into the buffers they are
given and keep no state of their own, so chunks can run concurrently.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from .params import ConfigurationError, NumericalParams, SystemParams
from .series import ObservableSeries, time_grid
from .wiener import CHUNK_SIZE, chunk_stream

MAX_WORKERS_ENV = "CAVITY_SR_MAX_WORKERS"


class EnsembleDivergenceError(RuntimeError):
    """All trajectories diverged."""


@dataclass(frozen=True)
class EnsembleModel:
    """Vectorized trajectory model consumed by run_ensemble.

    All callables operate on a C-contiguous (n_traj, d) float64 state block
    y and must be free of shared mutable state:

    sample_initial(n, rng) -> new state block;
    drift(y, out) writes the time derivative into out (shaped like y);
    noise(y, dW, out) writes the stochastic increment into out, for dW of
    shape (n_traj, noise_dim) already scaled to variance dt;
    observables(y) -> {"sz": (n_traj,), "photon": (n_traj,)}.

    The out and dW buffers belong to one chunk: run_ensemble allocates them
    per chunk and never shares them between chunks.
    """

    noise_dim: int
    sample_initial: Callable[[int, np.random.Generator], np.ndarray]
    drift: Callable[[np.ndarray, np.ndarray], None]
    noise: Callable[[np.ndarray, np.ndarray, np.ndarray], None]
    observables: Callable[[np.ndarray], Dict[str, np.ndarray]]


def _worker_count(n_chunks: int) -> int:
    cap = os.environ.get(MAX_WORKERS_ENV)
    if not cap:
        workers = os.cpu_count() or 1
    elif cap.isdecimal() and int(cap) >= 1:
        workers = int(cap)
    else:
        raise ConfigurationError(
            [f"{MAX_WORKERS_ENV} must be an integer >= 1, got {cap!r}"])
    return min(workers, n_chunks)


def _run_chunk(model: EnsembleModel, chunk_index: int, n_traj: int,
               master_seed: int, dt: float, nsteps: int, stride: int):
    """Integrate one chunk; return per-observable (count, mean, M2) plus
    the number of divergent trajectories."""
    rng = chunk_stream(master_seed, chunk_index)
    y = model.sample_initial(n_traj, rng)
    drift = np.empty_like(y)
    noise = np.empty_like(y)
    dW = np.empty((n_traj, model.noise_dim))
    n_rec = nsteps // stride + 1
    rec = {k: np.empty((n_rec, n_traj)) for k in ("sz", "photon")}
    sqrt_dt = np.sqrt(dt)
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(nsteps + 1):
            if step % stride == 0:
                obs = model.observables(y)
                rec["sz"][k] = obs["sz"]
                rec["photon"][k] = obs["photon"]
                k += 1
            if step == nsteps:
                break
            rng.standard_normal(out=dW)
            dW *= sqrt_dt
            # Euler-Maruyama, y + drift(y)*dt + noise(y, dW), in place: strong
            # order 0.5, weak order 1
            model.drift(y, drift)
            model.noise(y, dW, noise)
            drift *= dt
            y += drift
            y += noise

    alive = np.isfinite(y).all(axis=1)
    for buf in rec.values():
        alive &= np.isfinite(buf).all(axis=0)
    n_div = int(n_traj - alive.sum())
    stats = {}
    for key, buf in rec.items():
        kept = buf[:, alive]
        n = kept.shape[1]
        if n == 0:
            stats[key] = (0, np.zeros(n_rec), np.zeros(n_rec))
        else:
            mean = kept.mean(axis=1)
            m2 = ((kept - mean[:, None]) ** 2).sum(axis=1)
            stats[key] = (n, mean, m2)
    return stats, n_div


def _merge(a, b):
    """Pairwise combination of (count, mean, M2) accumulators."""
    na, ma, m2a = a
    nb, mb, m2b = b
    if na == 0:
        return b
    if nb == 0:
        return a
    n = na + nb
    delta = mb - ma
    mean = ma + delta * (nb / n)
    m2 = m2a + m2b + delta ** 2 * (na * nb / n)
    return n, mean, m2


def run_ensemble(model: EnsembleModel, params: SystemParams,
                 num: NumericalParams) -> ObservableSeries:
    """Ensemble mean and standard error of the model observables over
    num.n_traj trajectories.

    The reduction order is fixed by chunk index, independent of parallel
    scheduling: identical (seed, configuration) gives bit-identical output
    for any thread count. Divergent (non-finite) trajectories are excluded
    and counted; if all diverge the run fails.
    """
    nsteps, stride, times = time_grid(num.dt, num.t_max)
    sizes = [CHUNK_SIZE] * (num.n_traj // CHUNK_SIZE)
    if num.n_traj % CHUNK_SIZE:
        sizes.append(num.n_traj % CHUNK_SIZE)

    def job(c):
        return _run_chunk(model, c, sizes[c], num.seed, num.dt, nsteps, stride)

    workers = _worker_count(len(sizes))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, range(len(sizes))))
    else:
        results = [job(c) for c in range(len(sizes))]

    n_div = sum(r[1] for r in results)
    totals = {k: (0, np.zeros(len(times)), np.zeros(len(times))) for k in ("sz", "photon")}
    for stats, _ in results:
        for key in totals:
            totals[key] = _merge(totals[key], stats[key])

    n = totals["sz"][0]
    if n == 0:
        raise EnsembleDivergenceError(
            f"all {num.n_traj} trajectories diverged (dt = {num.dt})")
    if n_div:
        warnings.warn(f"excluded {n_div} divergent trajectories of {num.n_traj}",
                      stacklevel=2)

    def sem(acc):
        cnt, _, m2 = acc
        if cnt < 2:
            return np.zeros(len(times))
        return np.sqrt(m2 / (cnt - 1) / cnt)

    return ObservableSeries(
        times=times,
        sz_mean=totals["sz"][1], sz_sem=sem(totals["sz"]),
        photon_mean=totals["photon"][1], photon_sem=sem(totals["photon"]),
        n_atoms=params.n_atoms, n_trajectories=n, n_divergent=n_div,
    )
