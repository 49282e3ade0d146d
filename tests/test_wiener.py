import numpy as np

from cavity_sr import EnsembleModel, NumericalParams, individual_params, run_ensemble
from cavity_sr.engine import chunk_stream


def wiener_model(noise_dim):
    """y = W(t): zero drift, the raw Wiener increments as noise."""
    def noise(y, dW, out):
        out[...] = dW

    return EnsembleModel(
        state_dim=noise_dim, noise_dim=noise_dim,
        sample_initial=lambda n, rng: np.zeros((n, noise_dim)),
        drift=lambda y, out: np.multiply(0.0, y, out=out),
        noise=noise,
        observables=lambda y: {"sz": y.mean(axis=1), "photon": (y ** 2).mean(axis=1)},
    )


def test_zero_count_gives_empty_block():
    seen = []

    def noise(y, dW, out):
        seen.append(dW.shape)
        out[...] = 0.0

    model = EnsembleModel(
        state_dim=1, noise_dim=0, sample_initial=lambda n, rng: np.ones((n, 1)),
        drift=lambda y, out: np.multiply(0.0, y, out=out), noise=noise,
        observables=lambda y: {"sz": y[:, 0], "photon": y[:, 0]})
    num = NumericalParams(n_traj=3, seed=0, dt=0.1, t_max=0.3)
    series = run_ensemble(model, individual_params(n_atoms=1), num)
    assert seen == [(3, 0)] * 3
    np.testing.assert_array_equal(series.sz_mean, 1.0)


def test_variance_matches_dt():
    # sample variance over 1e6 draws (1000 trajectories x 1000 increments,
    # one step) equals dt within 1%
    dt = 0.01
    num = NumericalParams(n_traj=1000, seed=2024, dt=dt, t_max=dt)
    series = run_ensemble(wiener_model(1000), individual_params(n_atoms=1), num)
    assert abs(series.photon_mean[-1] - dt) < 0.0001
    assert abs(series.sz_mean[-1]) < 3 * 0.1 / 1000


def test_chunk_streams_reproducible_and_distinct():
    a = chunk_stream(99, 0).standard_normal(16)
    b = chunk_stream(99, 0).standard_normal(16)
    c = chunk_stream(99, 1).standard_normal(16)
    d = chunk_stream(100, 0).standard_normal(16)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
