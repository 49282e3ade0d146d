"""Fixed-step Euler-Maruyama integrator and trajectory-ensemble runner.

Trajectories fall into fixed-size chunks of CHUNK_SIZE, and each chunk
samples its initial states and draws its Wiener increments from its own
stream, chunk_stream(seed, chunk index).  Whole consecutive chunks are
integrated as one state block, so drift, noise and the Euler update run
once per step on the block: narrow states (collective TWA, 6 floats) run
all their chunks in one block, a wide DTWA state one chunk per block (see
BLOCK_BYTES).  Blocks run one after another, in chunk order, on the calling
thread.

Statistics are reduced online to a per-chunk (count, mean, M2) per record,
from a buffer of the latest records about the size of the state block, so
no per-trajectory record history is kept.  Each sum runs sequentially over
a chunk's trajectories in row order, not in numpy's pairwise order: the
buffer is copied trajectory-major and summed over that axis, so numpy adds
whole rows, vectorized over records, keys and chunks.  A chunk's statistics
have the same bits whatever block it ran in.  The per-chunk accumulators are
merged in chunk order with the pairwise mean/variance combination as each
block returns.

A trajectory that turns non-finite is excluded, but that is known only at
the end of the run; a chunk that had one is integrated again alone, from
its own stream, with those trajectories left out of the reduction.

Each block allocates its state, drift, noise and Wiener buffers once and
updates them in place; the model callables write into the buffers they are
given.  The state, drift and noise buffers keep the memory order of the
model's sample_initial blocks (row-major for the collective TWA,
column-major for the DTWA); the Wiener buffer is row-major, one row per
trajectory.

The thread budget, the number of CPUs the process may run on or
CAVITY_SR_MAX_WORKERS when set, caps every engine thread.  Each block draws
its Wiener increments, scaled by sqrt(dt), into two alternating (steps, rows,
noise_dim) batches of at most BATCH_BYTES (one step, if a step is larger),
several steps of each chunk's stream per call.  With a budget of two or
more, a run starts one producer thread, which fills each block's next batch
while the calling thread integrates the current one; with a budget of one
the calling thread fills each batch as it reaches it.  Either way each
chunk's stream is consumed in the same order, so the output bits do not
depend on who draws or on the budget.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict

import numpy as np

from .params import ConfigurationError, NumericalParams, SystemParams
from .series import ObservableSeries, time_grid

MAX_WORKERS_ENV = "CAVITY_SR_MAX_WORKERS"
KEYS = ("sz", "photon")

# Trajectories per noise stream. Fixed: changing it changes the mapping of
# trajectories to noise streams (but never the statistics).
CHUNK_SIZE = 256

# Bytes of state per block; a block holds
# max(1, BLOCK_BYTES // (CHUNK_SIZE * 8 * state_dim)) whole chunks.  Tall
# blocks amortize the per-call overhead of the model kernels; this size keeps
# a block's state, drift, noise and Wiener buffers within a core's L2 cache.
BLOCK_BYTES = 256 * 1024
# Bytes of one batch of Wiener increments; a block double-buffers two batches.
BATCH_BYTES = 1024 * 1024


class EnsembleDivergenceError(RuntimeError):
    """All trajectories diverged."""


@dataclass(frozen=True)
class EnsembleModel:
    """Vectorized trajectory model consumed by run_ensemble.

    All callables operate on a (n_traj, state_dim) float64 state block y:

    sample_initial(n, rng) -> new state block, contiguous in the memory
    order the model's kernels prefer; the block run_ensemble steps, and its
    drift and noise buffers, have that order;
    drift(y, out) writes the time derivative into out (shaped like y);
    noise(y, dW, out) writes the stochastic increment into out, for a
    row-major dW of shape (n_traj, noise_dim) already scaled to variance dt;
    dW is a view into a batch of increments drawn ahead of the step: it is
    read-only, and valid for that call only;
    observables(y) -> {"sz": (n_traj,), "photon": (n_traj,)}.

    The out and dW buffers belong to one block of chunks: run_ensemble
    allocates them per block and never shares them between blocks.
    state_dim sets how many chunks a block holds.
    """

    state_dim: int
    noise_dim: int
    sample_initial: Callable[[int, np.random.Generator], np.ndarray]
    drift: Callable[[np.ndarray, np.ndarray], None]
    noise: Callable[[np.ndarray, np.ndarray, np.ndarray], None]
    observables: Callable[[np.ndarray], Dict[str, np.ndarray]]


def chunk_stream(master_seed: int, chunk_index: int) -> np.random.Generator:
    """The noise stream of one chunk, a pure function of its two keys."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(chunk_index,))
    return np.random.default_rng(seq)


def thread_budget() -> int:
    """The engine's thread cap: CAVITY_SR_MAX_WORKERS, an integer >= 1, when
    set, else the number of CPUs the process may run on."""
    cap = os.environ.get(MAX_WORKERS_ENV)
    if not cap:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if cap.isdecimal() and int(cap) >= 1:
        return int(cap)
    raise ConfigurationError(
        [f"{MAX_WORKERS_ENV} must be an integer >= 1, got {cap!r}"])


def _moments(x: np.ndarray, shapes):
    """Per-chunk mean and M2 over the last axis of x, the trajectories, as
    two (..., chunks) arrays; sums run sequentially in trajectory order.

    shapes lists the (chunks, trajectories per chunk) groups that tile the
    last axis.
    """
    means, m2s, lo = [], [], 0
    for chunks, rows in shapes:
        part = x[..., lo:lo + chunks * rows].reshape(*x.shape[:-1], chunks, rows)
        lo += chunks * rows
        # trajectories outermost, so numpy adds whole rows in order; -0.0 adds nothing
        part = np.ascontiguousarray(np.moveaxis(part, -1, 0))
        mean = part.sum(axis=0, initial=-0.0) / rows
        means.append(mean)
        m2s.append(((part - mean) ** 2).sum(axis=0, initial=-0.0))
    return np.concatenate(means, axis=-1), np.concatenate(m2s, axis=-1)


def _fill(rngs, bounds, batch: np.ndarray, sqrt_dt: float, scratch: np.ndarray):
    """Fill a (steps, rows, noise_dim) batch with the block's next steps of
    Wiener increments, scaled by sqrt_dt.

    Chunk j owns rows bounds[j]:bounds[j + 1] and draws all the batch's steps
    from rngs[j] in one call, in C order, the order in which one draw per
    step would consume the stream, into the flat scratch buffer; it is scaled
    on its way into the batch.  One call per chunk per batch keeps the
    producer's calls few, and the cost of a producer thread grows with its
    call count: over 10 paired twa-sweep benchmark runs on 2 shared vCPUs,
    one-step fills in place inside each batch cut trajectory-steps per second
    by 15% (6.37M -> 5.42M/s), and a two-slot ring of one-step buffers by 16%
    (6.19M -> 5.18M/s).
    """
    for rng, lo, hi in zip(rngs, bounds[:-1], bounds[1:]):
        out = batch[:, lo:hi]
        drawn = scratch[:out.size].reshape(out.shape)
        rng.standard_normal(out=drawn)
        np.multiply(drawn, sqrt_dt, out=out)


def _increments(rngs, bounds, noise_dim: int, dt: float, nsteps: int, producer):
    """Generator of the block's nsteps Wiener increments, one (rows,
    noise_dim) array per step, valid until the next one is taken.  The
    producer, a one-thread executor, fills the next batch while the caller
    steps through the current one; without it (None) the caller fills each
    batch as it reaches it."""
    sqrt_dt = np.sqrt(dt)
    per = min(nsteps, max(1, BATCH_BYTES // max(1, 8 * bounds[-1] * noise_dim)))
    batches = np.empty((2, per, bounds[-1], noise_dim))
    scratch = np.empty(per * CHUNK_SIZE * noise_dim)
    starts = range(0, nsteps, per)

    def draw(k):
        batch = batches[k % 2, :min(per, nsteps - starts[k])]
        fill = (_fill, rngs, bounds, batch, sqrt_dt, scratch)
        return batch, producer.submit(*fill).result if producer else partial(*fill)

    pending = draw(0)
    for k in range(len(starts)):
        batch, filled = pending
        filled()
        if k + 1 < len(starts):
            pending = draw(k + 1)
        yield from batch


def _run_block(model: EnsembleModel, first: int, sizes: list, master_seed: int,
               dt: float, nsteps: int, stride: int, producer, keep=None):
    """Integrate the consecutive chunks first, first + 1, ... as one state
    block.

    Returns per-chunk {observable: (count, mean, M2)} and per-chunk masks
    of the trajectories that stayed finite.  Each chunk samples and draws
    from its own stream, so every trajectory has the bits it has when its
    chunk runs alone.  keep (one chunk only) leaves trajectories out of the
    reduction; without it, a chunk with a non-finite trajectory has
    non-finite statistics.  producer, if not None, draws the Wiener
    increments ahead (see _increments).
    """
    rngs = [chunk_stream(master_seed, first + j) for j in range(len(sizes))]
    y = np.concatenate([model.sample_initial(n, rng) for n, rng in zip(sizes, rngs)])
    drift = np.empty_like(y)
    noise = np.empty_like(y)
    bounds = np.cumsum([0] + sizes).tolist()
    if keep is None:
        full = len(sizes) - (sizes[-1] != CHUNK_SIZE)
        shapes = [(full, CHUNK_SIZE)] + [(1, sizes[-1])] * (full < len(sizes))
    else:
        shapes = [(1, int(keep.sum()))]
    n_rec = nsteps // stride + 1
    mean = np.empty((n_rec, len(KEYS), len(sizes)))
    m2 = np.empty_like(mean)
    # the latest records, reduced together once the buffer is full, so a
    # one-chunk block reduces many records per call
    depth = min(n_rec, max(1, BLOCK_BYTES // (8 * len(KEYS) * len(y))))
    rec = np.empty((depth, len(KEYS), len(y)))
    finite = np.ones(len(y), dtype=bool)
    increments = _increments(rngs, bounds, model.noise_dim, dt, nsteps, producer)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(nsteps + 1):
            if step % stride == 0:
                k = step // stride
                j = k % depth
                obs = model.observables(y)
                for i, key in enumerate(KEYS):
                    rec[j, i] = obs[key]
                if j == depth - 1 or k == n_rec - 1:
                    batch = rec[:j + 1]
                    finite &= np.isfinite(batch).all(axis=(0, 1))
                    mean[k - j:k + 1], m2[k - j:k + 1] = _moments(
                        batch if keep is None else batch[..., keep], shapes)
            if step == nsteps:
                break
            dW = next(increments)
            # Euler-Maruyama, y + drift(y)*dt + noise(y, dW), in place:
            # strong order 0.5, weak order 1
            model.drift(y, drift)
            model.noise(y, dW, noise)
            drift *= dt
            y += drift
            y += noise
    finite &= np.isfinite(y).all(axis=1)
    counts = [rows for chunks, rows in shapes for _ in range(chunks)]
    stats = [{key: (n, mean[:, i, j], m2[:, i, j]) for i, key in enumerate(KEYS)}
             for j, n in enumerate(counts)]
    return stats, [finite[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _run_chunks(model: EnsembleModel, first: int, sizes: list, master_seed: int,
                dt: float, nsteps: int, stride: int, producer):
    """Per-chunk statistics of one block and its number of divergent
    trajectories.

    A chunk with a divergent trajectory is integrated again alone, its
    divergent rows left out of the reduction; that is rare, and cheaper than
    keeping every trajectory's record history for it.
    """
    stats, finite = _run_block(model, first, sizes, master_seed, dt, nsteps, stride,
                               producer)
    for j, keep in enumerate(finite):
        if keep.all():
            continue
        if keep.any():
            stats[j] = _run_block(model, first + j, [sizes[j]], master_seed,
                                  dt, nsteps, stride, producer, keep)[0][0]
        else:
            stats[j] = {key: (0, mean, m2) for key, (_, mean, m2) in stats[j].items()}
    return stats, sum(int(len(keep) - keep.sum()) for keep in finite)


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

    The reduction runs in chunk index order: identical (seed,
    configuration) gives bit-identical output for any thread budget.
    Divergent (non-finite) trajectories are excluded and counted; if all
    diverge the run fails.
    """
    nsteps, stride, times = time_grid(num.dt, num.t_max)
    sizes = [CHUNK_SIZE] * (num.n_traj // CHUNK_SIZE)
    if num.n_traj % CHUNK_SIZE:
        sizes.append(num.n_traj % CHUNK_SIZE)

    per_block = max(1, BLOCK_BYTES // (CHUNK_SIZE * 8 * model.state_dim))
    n_div = 0
    totals = {k: (0, np.zeros(len(times)), np.zeros(len(times))) for k in KEYS}
    # the budget's second thread, if any, draws every block's increments ahead
    with (ThreadPoolExecutor(max_workers=1) if thread_budget() >= 2
          else nullcontext()) as producer:
        for first in range(0, len(sizes), per_block):
            block, divergent = _run_chunks(model, first, sizes[first:first + per_block],
                                           num.seed, num.dt, nsteps, stride, producer)
            n_div += divergent
            for stats in block:
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
