import os
import sys
import threading

import numpy as np
import pytest

from cavity_sr import (ConfigurationError, EnsembleDivergenceError,
                       EnsembleModel, NumericalParams, collective_params,
                       individual_params, run_ensemble)
from cavity_sr import engine
from cavity_sr.collective import collective_twa_model
from cavity_sr.engine import (BATCH_BYTES, BLOCK_BYTES, CHUNK_SIZE, KEYS,
                              MAX_WORKERS_ENV, _merge, chunk_stream)
from cavity_sr.individual import individual_dtwa_model
from cavity_sr.series import time_grid


def fixed_point_model(y0):
    """Zero drift and noise: every trajectory stays at y0 (a 2-vector)."""
    return EnsembleModel(
        state_dim=2, noise_dim=1,
        sample_initial=lambda n, rng: np.tile(y0, (n, 1)),
        drift=lambda y, out: np.multiply(0.0, y, out=out),
        noise=lambda y, dW, out: np.multiply(0.0, y, out=out),
        observables=lambda y: {"sz": y[:, 0], "photon": y[:, 1]},
    )


def test_step_identity_with_zero_fields():
    params = individual_params(n_atoms=1)
    num = NumericalParams(n_traj=1, seed=0, dt=0.1, t_max=1.0)
    series = run_ensemble(fixed_point_model([1.0, -2.0]), params, num)
    np.testing.assert_array_equal(series.sz_mean, 1.0)
    np.testing.assert_array_equal(series.photon_mean, -2.0)


def test_step_scalar_decay():
    params = individual_params(n_atoms=1)
    num = NumericalParams(n_traj=1, seed=0, dt=0.1, t_max=0.1)
    series = run_ensemble(exponential_model(), params, num)
    assert series.sz_mean[1] == pytest.approx(0.9)


def ou_model(sigma):
    """dx = -x dt + sigma dW, x0 = 0."""
    return EnsembleModel(
        state_dim=1, noise_dim=1,
        sample_initial=lambda n, rng: np.zeros((n, 1)),
        drift=lambda y, out: np.negative(y, out=out),
        noise=lambda y, dW, out: np.multiply(sigma, dW, out=out),
        observables=lambda y: {"sz": y[:, 0], "photon": y[:, 0] ** 2},
    )


def test_ou_variance_matches_closed_form():
    # Ornstein-Uhlenbeck: Var x(t) = sigma^2 (1 - e^{-2t}) / 2
    sigma, m = 0.8, 10_000
    params = individual_params(n_atoms=1)
    num = NumericalParams(n_traj=m, seed=11, dt=5e-3, t_max=2.0)
    series = run_ensemble(ou_model(sigma), params, num)
    t = series.times[-1]
    expected = sigma ** 2 * (1 - np.exp(-2 * t)) / 2
    measured = series.photon_mean[-1]
    se = expected * np.sqrt(2.0 / (m - 1))
    assert abs(measured - expected) < 3 * se + 0.01 * expected  # O(dt) bias allowance


def exponential_model():
    return EnsembleModel(
        state_dim=1, noise_dim=0,
        sample_initial=lambda n, rng: np.ones((n, 1)),
        drift=lambda y, out: np.negative(y, out=out),
        noise=lambda y, dW, out: np.multiply(0.0, y, out=out),
        observables=lambda y: {"sz": y[:, 0], "photon": 0.0 * y[:, 0]},
    )


def test_single_noiseless_trajectory_is_deterministic_integration():
    params = individual_params(n_atoms=1)
    num = NumericalParams(n_traj=1, seed=0, dt=0.1, t_max=1.0)
    series = run_ensemble(exponential_model(), params, num)
    # Euler: (1 - dt)^k exactly
    ks = np.round(series.times / 0.1).astype(int)
    np.testing.assert_allclose(series.sz_mean, 0.9 ** ks, rtol=1e-12)
    assert np.all(series.sz_sem == 0)
    assert series.n_trajectories == 1


def test_weak_convergence_first_order():
    params = individual_params(n_atoms=1)
    errors = []
    for dt in (0.02, 0.01):
        num = NumericalParams(n_traj=1, seed=0, dt=dt, t_max=1.0)
        series = run_ensemble(exponential_model(), params, num)
        errors.append(abs(series.sz_mean[-1] - np.exp(-1.0)))
    ratio = errors[0] / errors[1]
    assert 1.5 < ratio < 3.0


def test_thread_count_does_not_change_bits():
    params = individual_params(n_atoms=20, g=2.0, kappa=20.0)
    num = NumericalParams(n_traj=600, seed=42, dt=1e-3, t_max=0.05)
    model = individual_dtwa_model(params)
    old = os.environ.get(MAX_WORKERS_ENV)
    try:
        os.environ[MAX_WORKERS_ENV] = "1"
        serial = run_ensemble(model, params, num)
        os.environ[MAX_WORKERS_ENV] = "4"
        threaded = run_ensemble(model, params, num)
    finally:
        if old is None:
            os.environ.pop(MAX_WORKERS_ENV, None)
        else:
            os.environ[MAX_WORKERS_ENV] = old
    np.testing.assert_array_equal(serial.sz_mean, threaded.sz_mean)
    np.testing.assert_array_equal(serial.sz_sem, threaded.sz_sem)
    np.testing.assert_array_equal(serial.photon_mean, threaded.photon_mean)


@pytest.mark.parametrize("value", ["two", "0", "-3", "1.5"])
def test_bad_worker_count_is_a_configuration_error(monkeypatch, value):
    monkeypatch.setenv(MAX_WORKERS_ENV, value)
    params = individual_params(n_atoms=1)
    num = NumericalParams(n_traj=10, seed=0, dt=0.1, t_max=0.2)
    with pytest.raises(ConfigurationError, match=f"{MAX_WORKERS_ENV}.*{value}"):
        run_ensemble(exponential_model(), params, num)


def test_same_seed_same_bits_and_new_seed_new_sample():
    params = individual_params(n_atoms=5)
    num = NumericalParams(n_traj=300, seed=3, dt=1e-3, t_max=0.2)
    model = individual_dtwa_model(params)
    a = run_ensemble(model, params, num)
    b = run_ensemble(model, params, num)
    np.testing.assert_array_equal(a.sz_mean, b.sz_mean)
    import dataclasses
    c = run_ensemble(model, params, dataclasses.replace(num, seed=4))
    assert not np.array_equal(a.sz_mean, c.sz_mean)


def test_sem_halves_when_trajectories_quadruple():
    sigma = 1.0
    params = individual_params(n_atoms=1)
    base = NumericalParams(n_traj=800, seed=5, dt=5e-3, t_max=1.0)
    big = NumericalParams(n_traj=3200, seed=5, dt=5e-3, t_max=1.0)
    s1 = run_ensemble(ou_model(sigma), params, base)
    s2 = run_ensemble(ou_model(sigma), params, big)
    tail = slice(20, None)      # skip early points where sem ~ 0
    ratio = np.median(s1.sz_sem[tail] / s2.sz_sem[tail])
    assert 2.0 * 0.8 < ratio < 2.0 * 1.2


def ordered_model(order, seen):
    """A damped rotation with additive noise whose sample_initial returns
    blocks in the given memory order; drift and noise append
    (y.flags.f_contiguous, out.flags.f_contiguous) to seen."""
    def sample(n, rng):
        return np.asarray(rng.standard_normal((n, 2)), order=order)

    def drift(y, out):
        seen.append((y.flags.f_contiguous, out.flags.f_contiguous))
        np.multiply(-1.0, y[:, 1], out=out[:, 0])
        np.multiply(0.5, y[:, 1], out=out[:, 1])
        np.subtract(y[:, 0], out[:, 1], out=out[:, 1])

    def noise(y, dW, out):
        seen.append((y.flags.f_contiguous, out.flags.f_contiguous))
        np.multiply(0.3, dW, out=out)

    return EnsembleModel(state_dim=2, noise_dim=2, sample_initial=sample,
                         drift=drift, noise=noise,
                         observables=lambda y: {"sz": y[:, 0], "photon": y[:, 1] ** 2})


def test_engine_keeps_the_model_layout():
    # width 2: one block of three chunks, the last one partial
    params = individual_params(n_atoms=1)
    num = NumericalParams(n_traj=600, seed=9, dt=0.01, t_max=0.2)
    runs = {}
    for order in ("F", "C"):
        seen = []
        runs[order] = run_ensemble(ordered_model(order, seen), params, num)
        assert seen and set(seen) == {(order == "F", order == "F")}
    for field in ("sz_mean", "sz_sem", "photon_mean", "photon_sem"):
        np.testing.assert_array_equal(getattr(runs["F"], field).view(np.uint64),
                                      getattr(runs["C"], field).view(np.uint64))


def divergent_model(fraction, sigma=None):
    """Blows up trajectories whose initial marker exceeds 1 - fraction; the
    others decay from a random sz, so their per-chunk sums depend on order.
    With sigma, sz also takes additive noise sigma dW."""
    def sample(n, rng):
        y = np.empty((n, 2))
        y[:, 0] = rng.standard_normal(n)
        y[:, 1] = rng.uniform(0, 1, n)
        return y

    def drift(y, out):
        out[:] = 0.0
        out[:, 0] = np.where(y[:, 1] > 1 - fraction, np.inf, -y[:, 0])

    def noise(y, dW, out):
        np.multiply(0.0, y, out=out)
        if sigma is not None:
            np.multiply(sigma, dW[:, 0], out=out[:, 0])

    return EnsembleModel(state_dim=2, noise_dim=int(sigma is not None),
                         sample_initial=sample, drift=drift, noise=noise,
                         observables=lambda y: {"sz": y[:, 0], "photon": y[:, 1]})


def test_partial_divergence_warns_and_excludes():
    params = individual_params(n_atoms=1)
    num = NumericalParams(n_traj=200, seed=1, dt=0.01, t_max=0.1)
    with pytest.warns(UserWarning, match="divergent"):
        series = run_ensemble(divergent_model(0.3), params, num)
    assert 0 < series.n_divergent < 200
    assert series.n_trajectories == 200 - series.n_divergent
    assert np.all(np.isfinite(series.sz_mean))


def test_total_divergence_is_an_error():
    params = individual_params(n_atoms=1)
    num = NumericalParams(n_traj=50, seed=1, dt=0.01, t_max=0.1)
    with pytest.raises(EnsembleDivergenceError):
        run_ensemble(divergent_model(1.1), params, num)


def history_reduction(model, num):
    """Reference: each chunk integrated alone with its full (records,
    trajectories) history, reduced over the trajectories that stayed finite
    and merged in chunk order."""
    nsteps, stride, times = time_grid(num.dt, num.t_max)
    totals = {k: (0, np.zeros(len(times)), np.zeros(len(times))) for k in KEYS}
    n_div = 0
    for c, lo in enumerate(range(0, num.n_traj, CHUNK_SIZE)):
        n = min(CHUNK_SIZE, num.n_traj - lo)
        rng = chunk_stream(num.seed, c)
        y = model.sample_initial(n, rng)
        drift, noise = np.empty_like(y), np.empty_like(y)
        dW = np.empty((n, model.noise_dim))
        rec = {k: np.empty((len(times), n)) for k in KEYS}
        for step in range(nsteps + 1):
            if step % stride == 0:
                for k, x in model.observables(y).items():
                    rec[k][step // stride] = x
            if step < nsteps:
                rng.standard_normal(out=dW)
                dW *= np.sqrt(num.dt)
                model.drift(y, drift)
                model.noise(y, dW, noise)
                drift *= num.dt
                y += drift
                y += noise
        alive = np.isfinite(y).all(axis=1)
        for buf in rec.values():
            alive &= np.isfinite(buf).all(axis=0)
        n_div += n - int(alive.sum())
        for k, buf in rec.items():
            kept = buf[:, alive]
            if kept.shape[1]:
                mean = kept.mean(axis=1)
                m2 = ((kept - mean[:, None]) ** 2).sum(axis=1)
                totals[k] = _merge(totals[k], (kept.shape[1], mean, m2))
    return totals, n_div


@pytest.mark.filterwarnings("ignore:excluded")
@pytest.mark.parametrize("fraction", [0.0, 0.002, 0.3])
def test_online_reduction_matches_history_reduction(fraction):
    # width 2: 64 chunks per block, so 67 chunks make two blocks and the
    # last chunk is partial.  At 0.3 every chunk holds a divergent
    # trajectory and is reduced again without it; at 0.002 about 60% of the
    # chunks stay whole, so both reductions meet in one run
    params = individual_params(n_atoms=1)
    num = NumericalParams(n_traj=17_000, seed=5, dt=0.01, t_max=0.1)
    model = divergent_model(fraction)
    series = run_ensemble(model, params, num)
    with np.errstate(over="ignore", invalid="ignore"):
        totals, n_div = history_reduction(model, num)
    assert series.n_divergent == n_div
    assert (n_div > 0) == (fraction > 0)
    for key, mean, sem in (("sz", series.sz_mean, series.sz_sem),
                           ("photon", series.photon_mean, series.photon_sem)):
        n, ref_mean, m2 = totals[key]
        np.testing.assert_array_equal(mean, ref_mean)
        np.testing.assert_array_equal(sem, np.sqrt(m2 / (n - 1) / n))


def sequential_sum(x):
    """Sum over the last axis, one trajectory at a time in row order."""
    total = x[..., 0].copy()
    for r in range(1, x.shape[-1]):
        total += x[..., r]
    return total


@pytest.mark.parametrize("depth", [1, 3, 64])
@pytest.mark.parametrize("shapes", [[(1, CHUNK_SIZE)], [(3, CHUNK_SIZE), (1, 37)],
                                    [(2, CHUNK_SIZE), (1, 1)]])
def test_chunk_moments_sum_each_chunk_in_row_order(depth, shapes):
    # magnitudes spanning 1e-6..1e6 make every reordering of a sum round
    # differently; one all -0.0 chunk record pins the sign of a zero sum
    rng = np.random.default_rng(8)
    x = rng.standard_normal((depth, len(KEYS), sum(c * r for c, r in shapes)))
    x *= 10.0 ** rng.uniform(-6, 6, x.shape)
    x[0, 0, :CHUNK_SIZE] = -0.0
    means, m2s = engine._moments(x, shapes)
    lo, j = 0, 0
    for chunks, rows in shapes:
        for _ in range(chunks):
            part = x[..., lo:lo + rows]
            mean = sequential_sum(part) / rows
            m2 = sequential_sum((part - mean[..., None]) ** 2)
            np.testing.assert_array_equal(means[..., j].view(np.uint64),
                                          mean.view(np.uint64))
            np.testing.assert_array_equal(m2s[..., j].view(np.uint64),
                                          m2.view(np.uint64))
            lo, j = lo + rows, j + 1
    assert means.shape == m2s.shape == (depth, len(KEYS), j)


def spy_fills(monkeypatch):
    """Record the thread name of every engine._fill call; names, unlike
    thread idents, are not reused by later threads."""
    threads, fill = [], engine._fill

    def spy(*args, **kwargs):
        threads.append(threading.current_thread().name)
        return fill(*args, **kwargs)
    monkeypatch.setattr(engine, "_fill", spy)
    return threads


def drew_ahead(threads):
    """True if every recorded fill ran off the calling thread, False if
    every one ran on it."""
    on_caller = {name == threading.current_thread().name for name in threads}
    assert len(on_caller) == 1
    return not on_caller.pop()


def test_drawing_ahead_gives_the_same_bits(monkeypatch):
    # one block of a full and a partial chunk; under the cap of 2 its
    # producer draws ahead, and the last batch of increments is a short one
    params = collective_params(20, g=4.0, kappa=10.0)
    num = NumericalParams(n_traj=300, seed=2, dt=1e-3, t_max=0.2)
    model = collective_twa_model(params)
    nsteps = time_grid(num.dt, num.t_max)[0]
    per = BATCH_BYTES // (8 * num.n_traj * model.noise_dim)
    assert nsteps > 2 * per and nsteps % per
    threads = spy_fills(monkeypatch)
    runs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # hand the interpreter lock over often
    try:
        for workers in ("1", "2"):
            monkeypatch.setenv(MAX_WORKERS_ENV, workers)
            threads.clear()
            runs[workers] = run_ensemble(model, params, num)
            assert drew_ahead(threads) == (workers == "2")
            # batches of per steps, filled on the caller or on the producer
            assert len(threads) == -(-nsteps // per)
    finally:
        sys.setswitchinterval(interval)
    for field in ("sz_mean", "sz_sem", "photon_mean", "photon_sem"):
        np.testing.assert_array_equal(getattr(runs["1"], field), getattr(runs["2"], field))


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_budget_counts_only_the_cpus_the_process_may_run_on(monkeypatch, cpus):
    # a machine of 64 CPUs, of which the process may use those in cpus
    monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: cpus, raising=False)
    threads = spy_fills(monkeypatch)
    params = collective_params(20, g=4.0, kappa=10.0)
    num = NumericalParams(n_traj=300, seed=2, dt=1e-3, t_max=0.05)
    run_ensemble(collective_twa_model(params), params, num)
    assert drew_ahead(threads) == (len(cpus) > 1)


def test_every_block_draws_ahead_on_one_producer(monkeypatch):
    # two one-chunk DTWA blocks, run one after another, with threads to spare
    # under the cap of 8
    params = individual_params(n_atoms=50)
    num = NumericalParams(n_traj=2 * CHUNK_SIZE, seed=3, dt=1e-3, t_max=0.02)
    model = individual_dtwa_model(params)
    assert BLOCK_BYTES < 2 * CHUNK_SIZE * 8 * model.state_dim     # one chunk a block
    nsteps = time_grid(num.dt, num.t_max)[0]
    per = BATCH_BYTES // (8 * CHUNK_SIZE * model.noise_dim)
    assert 1 < per < nsteps
    fills, fill = [], engine._fill

    def spy(rngs, bounds, batch, *args):
        fills.append((threading.current_thread().name, len(batch),
                      threading.active_count()))
        return fill(rngs, bounds, batch, *args)
    monkeypatch.setattr(engine, "_fill", spy)
    runs = {}
    for workers in ("1", "8"):
        monkeypatch.setenv(MAX_WORKERS_ENV, workers)
        fills.clear()
        before = threading.active_count()
        runs[workers] = run_ensemble(model, params, num)
    assert all(name != threading.current_thread().name for name, _, _ in fills)
    assert len({name for name, _, _ in fills}) == 1     # one producer for the run
    block = [per] * (nsteps // per) + [nsteps % per] * (nsteps % per > 0)
    assert [steps for _, steps, _ in fills] == 2 * block
    assert max(alive for _, _, alive in fills) <= before + 1
    for field in ("sz_mean", "sz_sem", "photon_mean", "photon_sem"):
        np.testing.assert_array_equal(getattr(runs["1"], field), getattr(runs["8"], field))


@pytest.mark.filterwarnings("ignore:excluded")
@pytest.mark.parametrize("workers", ["1", "2"])
def test_rerun_of_divergent_chunks_matches_history_reduction(monkeypatch, workers):
    # both chunks of the one block hold a divergent trajectory and run again
    # alone, on the run's one producer under the cap of 2
    monkeypatch.setenv(MAX_WORKERS_ENV, workers)
    threads = spy_fills(monkeypatch)
    params = individual_params(n_atoms=1)
    num = NumericalParams(n_traj=300, seed=5, dt=0.01, t_max=0.5)
    model = divergent_model(0.02, sigma=0.3)
    series = run_ensemble(model, params, num)
    assert drew_ahead(threads) == (workers == "2")
    assert len(set(threads)) == 1
    with np.errstate(over="ignore", invalid="ignore"):
        totals, n_div = history_reduction(model, num)
    assert series.n_divergent == n_div > 1
    for key, mean, sem in (("sz", series.sz_mean, series.sz_sem),
                           ("photon", series.photon_mean, series.photon_sem)):
        n, ref_mean, m2 = totals[key]
        np.testing.assert_array_equal(mean, ref_mean)
        np.testing.assert_array_equal(sem, np.sqrt(m2 / (n - 1) / n))


class RaisingStream:
    """A chunk stream whose draws with out= fail once the stream has made
    `after` of them; other calls pass through."""

    def __init__(self, rng, after):
        self._rng, self._left = rng, after

    def __getattr__(self, attr):
        return getattr(self._rng, attr)

    def standard_normal(self, *args, out=None, **kwargs):
        if out is not None:
            if self._left == 0:
                raise FloatingPointError("draw failed")
            self._left -= 1
        return self._rng.standard_normal(*args, out=out, **kwargs)


def failing_drift_model(after):
    """ou_model whose drift raises on its call number `after`."""
    model, calls = ou_model(0.5), []

    def drift(y, out):
        calls.append(None)
        if len(calls) == after:
            raise FloatingPointError("drift failed")
        model.drift(y, out)
    return EnsembleModel(state_dim=1, noise_dim=1, sample_initial=model.sample_initial,
                         drift=drift, noise=model.noise, observables=model.observables)


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("fails", ["drift", "draw"])
def test_failure_propagates_and_stops_the_producer(monkeypatch, workers, fails):
    monkeypatch.setenv(MAX_WORKERS_ENV, workers)
    threads = spy_fills(monkeypatch)
    # 600 one-float trajectories: one block of three chunks.  Each stream's
    # fourth draw, of a batch of steps, fails mid-run, on the calling thread
    # under the cap of 1 and on the producer under the cap of 2
    num = NumericalParams(n_traj=600, seed=1, dt=1e-3, t_max=1.0)
    assert 3 * (BATCH_BYTES // (8 * num.n_traj)) < time_grid(num.dt, num.t_max)[0]
    if fails == "draw":
        model = ou_model(0.5)
        stream = engine.chunk_stream
        monkeypatch.setattr(engine, "chunk_stream",
                            lambda seed, index: RaisingStream(stream(seed, index), 3))
    else:
        model = failing_drift_model(40)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match=f"{fails} failed"):
        run_ensemble(model, individual_params(n_atoms=1), num)
    assert threading.active_count() == before
    assert drew_ahead(threads) == (workers == "2")


def test_dtwa_free_decay_matches_exact_solution():
    # g = 0 closes the z equation: sz_norm(t) = 2 e^{-2 gamma t} - 1
    params = individual_params(n_atoms=50, g=0.0, kappa=0.0)
    num = NumericalParams(n_traj=1500, seed=8, dt=1e-3, t_max=1.5)
    series = run_ensemble(individual_dtwa_model(params), params, num)
    exact = 25.0 * (2 * np.exp(-2 * series.times) - 1)
    resid = np.abs(series.sz_mean - exact)
    assert np.all(resid <= 3 * np.maximum(series.sz_sem, 1e-12) + 1e-9)
