import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from cavity_sr import collective
from cavity_sr import (NumericalParams, collective_params,
                       collective_twa_model, individual_params, run_ensemble,
                       solve_meanfield_collective, solve_meanfield_individual,
                       validate_params)
from cavity_sr.params import SystemParams


def cparams(**kw):
    defaults = dict(n_atoms=10, scheme="collective", g=0.0, kappa=0.0, gamma=0.0,
                    detuning=0.0)
    defaults.update(kw)
    return SystemParams(**defaults)


def state(block):
    """Column-major (n, 3) complex state block of the (alpha, beta, eta) rows."""
    return np.array(block, dtype=complex, order="F", ndmin=2)


def drift_at(params, alpha, beta, eta):
    """(d_alpha, d_beta, d_eta) of the model drift at one point."""
    out = np.empty((1, 3), dtype=complex, order="F")
    collective_twa_model(params).drift(state([alpha, beta, eta]), out)
    return out[0]


def noise_at(params, alpha, beta, eta, dW):
    """Model noise increments at one point for a 6-component Wiener block."""
    out = np.empty((1, 3), dtype=complex, order="F")
    collective_twa_model(params).noise(state([alpha, beta, eta]),
                                       np.asarray(dW, dtype=float).reshape(1, 6), out)
    return out[0]


def observables_of(block):
    """Ensemble means of the model observables over a (n, 3) complex block."""
    obs = collective_twa_model(cparams()).observables(state(block))
    return float(np.mean(obs["sz"])), float(np.mean(obs["photon"]))


class TestDrift:
    def test_free_point_has_zero_derivative(self):
        d_alpha, d_beta, d_eta = drift_at(cparams(), 1 + 2j, 0.5j, -3.0)
        assert d_alpha == d_beta == d_eta == 0

    def test_vacuum_fluctuation_damping_of_alpha(self):
        # Gamma = 1, (alpha, beta, eta) = (2, 0, 0): d_alpha = -Gamma/2 * alpha... * (|b|^2+1/2)
        d_alpha, d_beta, d_eta = drift_at(cparams(gamma=1.0), 2.0, 0.0, 0.0)
        assert d_alpha == pytest.approx(-1.0)
        assert d_beta == 0 and d_eta == 0

    def test_generic_substitution(self):
        # independent symbolic substitution into the drift equations
        p = cparams(detuning=1.0, g=1.0, gamma=0.5, kappa=0.5)
        d_alpha, d_beta, d_eta = drift_at(p, 1.0, 1.0, 1.0)
        assert d_alpha == pytest.approx(-0.75 - 1.0j)
        assert d_beta == pytest.approx(0.25 - 1.0j)
        assert d_eta == pytest.approx(-0.5 - 2.0j)

    def test_generic_complex_point(self):
        # frozen CAS values at a non-symmetric phase-space point
        p = cparams(detuning=3.0, g=1.5, gamma=0.75, kappa=0.4)
        d_alpha, d_beta, d_eta = drift_at(p, 0.5 + 2j, -1 + 1j / 3, 0.25 - 1j)
        assert d_alpha == pytest.approx(1.0208333333333335 - 2.5416666666666665j)
        assert d_beta == pytest.approx(-1.3125 + 3.75j)
        assert d_eta == pytest.approx(-6.35 - 0.6j)


class TestNoise:
    def test_noiseless_limit(self):
        d_alpha, d_beta, d_eta = noise_at(cparams(), 1.0, 2.0, 3.0, np.ones(6))
        assert d_alpha == d_beta == d_eta == 0

    def test_negative_radicand_clamped(self):
        # |alpha|^2 = 0.25 -> Gamma(|alpha|^2 - 1/2) < 0 -> beta noise clamped
        d_alpha, d_beta, _ = noise_at(cparams(gamma=1.0), 0.5, 1.0, 0.0,
                                      np.ones(6))
        assert d_beta == 0
        assert abs(d_alpha) > 0

    def test_alpha_noise_amplitude(self):
        # Gamma = 1, beta = 0, dW = (1,0,0,0,0,0): delta alpha = sqrt(1/4) = 0.5
        d_alpha, _, _ = noise_at(cparams(gamma=1.0), 1.0, 0.0, 0.0,
                                 [1.0, 0, 0, 0, 0, 0])
        assert d_alpha == pytest.approx(0.5)

    def test_amplitudes_always_real_nonnegative(self):
        rng = np.random.default_rng(0)
        p = cparams(gamma=1.3, kappa=0.7)
        for _ in range(200):
            a, b, h = rng.standard_normal(6).view(complex)
            d = noise_at(p, a, b, h, np.ones(6))
            # dW = (1,...,1): increment must be finite, never nan from sqrt(<0)
            assert np.isfinite(d).all()


class TestSampling:
    def test_vacuum_second_moment(self):
        rng = np.random.default_rng(123)
        block = collective_twa_model(cparams(n_atoms=10)).sample_initial(
            1_000_000, rng)
        assert np.mean(np.abs(block[:, 1]) ** 2) == pytest.approx(0.5, abs=0.002)
        assert np.mean(np.abs(block[:, 2]) ** 2) == pytest.approx(0.5, abs=0.002)

    def test_vacuum_mean_is_zero(self):
        rng = np.random.default_rng(7)
        block = collective_twa_model(cparams(n_atoms=10)).sample_initial(
            1_000_000, rng)
        sem = 0.5 / 1000.0   # std of Re/Im is 1/2
        assert abs(np.mean(block[:, 1])) < 3 * sem * np.sqrt(2)
        assert abs(np.mean(block[:, 2])) < 3 * sem * np.sqrt(2)

    def test_alpha_amplitude_conventions(self):
        rng = np.random.default_rng(5)
        p = cparams(n_atoms=64)
        y = collective_twa_model(p).sample_initial(1, rng)
        assert abs(y[0, 0]) == pytest.approx(8.0)

    def test_phase_is_uniform(self):
        rng = np.random.default_rng(9)
        block = collective_twa_model(cparams(n_atoms=4)).sample_initial(
            200_000, rng)
        # mean of alpha vanishes only if the phase is spread over the circle
        assert abs(np.mean(block[:, 0])) < 0.02 * 2


class TestObservables:
    def test_full_inversion(self):
        sz, photon = observables_of([[np.sqrt(16), 0, 0]])
        assert sz == pytest.approx(8.0)
        assert photon == pytest.approx(-0.5)

    def test_balanced_modes_give_zero(self):
        sz, _ = observables_of([[1.0, 1.0, 0.0]])
        assert sz == 0

    def test_vacuum_cavity_photon_number(self):
        rng = np.random.default_rng(21)
        eta = 0.5 * (rng.standard_normal(500_000) + 1j * rng.standard_normal(500_000))
        block = np.zeros((500_000, 3), dtype=complex)
        block[:, 2] = eta
        _, photon = observables_of(block)
        assert photon == pytest.approx(0.0, abs=0.005)


def docstring_kernels(p, y, dW):
    """Drift, noise and observables of the module docstring's Ito equations
    on a whole interleaved (n, 6) float block, each product in the
    docstring's association."""
    alpha, beta, eta = y.view(complex).T
    g, gam, kap = p.g, p.gamma, p.kappa
    w = dW.view(complex)
    drift = np.column_stack([
        -1j * g * beta * eta - gam * (np.abs(beta) ** 2 + 0.5) * alpha,
        -1j * g * alpha * np.conj(eta) + gam * (np.abs(alpha) ** 2 - 0.5) * beta,
        -1j * p.detuning * eta - 1j * g * alpha * np.conj(beta) - kap * eta])
    noise = np.column_stack([
        np.sqrt(gam * (np.abs(beta) ** 2 + 0.5) / 2.0) * w[:, 0],
        np.sqrt(np.maximum(gam * (np.abs(alpha) ** 2 - 0.5), 0.0) / 2.0) * w[:, 1],
        np.sqrt(kap / 2.0) * w[:, 2]])
    return (drift.view(float), noise.view(float),
            0.5 * (np.abs(alpha) ** 2 - np.abs(beta) ** 2), np.abs(eta) ** 2 - 0.5)


def bits(x):
    """The float64 words of x in row-major order, as uint64."""
    return np.ascontiguousarray(x).view(float).view(np.uint64)


class TestKernelBits:
    # couplings that are not powers of two, a detuning and gamma != 1, so a
    # reassociated product or a dropped term rounds differently
    PARAMS = dict(g=1.5, kappa=3.0, gamma=0.7, detuning=0.7)

    def test_kernels_match_the_docstring_formulas_bit_for_bit(self):
        # a sampled (64, 3) block after 20 Euler-Maruyama steps, every other
        # row then depleted to |alpha|^2 < 1/2, where beta's noise is clamped;
        # the formulas run on an interleaved row-major copy of the block
        p = cparams(n_atoms=2, **self.PARAMS)
        model = collective_twa_model(p)
        rng = np.random.default_rng(6)
        y = model.sample_initial(64, rng)
        d, z = np.empty_like(y), np.empty_like(y)
        for _ in range(21):
            dW = 0.03 * rng.standard_normal((64, model.noise_dim))
            model.drift(y, d)
            model.noise(y, dW, z)
            y += d * 1e-3 + z
        y[::2, 0] *= 0.4
        model.drift(y, d)
        model.noise(y, dW, z)
        obs = model.observables(y)
        assert np.any(np.abs(y[:, 0]) ** 2 < 0.5)
        for got, want in zip((d, z, obs["sz"], obs["photon"]),
                             docstring_kernels(p, np.ascontiguousarray(y).view(float), dW)):
            np.testing.assert_array_equal(bits(got), bits(want))


def test_engine_steps_the_sampled_column_major_complex_block():
    # two chunks, the second partial, in one block
    params = collective_params(6, g=2.0, kappa=5.0)
    model = collective_twa_model(params)
    seen = []

    def layout(*blocks):
        seen.append(tuple((b.dtype, b.shape[1], b.flags.f_contiguous) for b in blocks))

    def drift(y, out):
        layout(y, out)
        model.drift(y, out)

    def noise(y, dW, out):
        layout(y, out)
        model.noise(y, dW, out)

    sampled = model.sample_initial(5, np.random.default_rng(1))
    assert sampled.dtype == np.complex128 and sampled.shape == (5, 3)
    assert sampled.flags.f_contiguous and not sampled.flags.c_contiguous
    num = NumericalParams(n_traj=300, seed=3, dt=1e-3, t_max=0.01)
    run_ensemble(dataclasses.replace(model, drift=drift, noise=noise), params, num)
    assert len(seen) == 2 * 10
    assert set(seen) == {((np.dtype(complex), 3, True),) * 2}


class TestMeanField:
    def test_solvers_need_collective_params(self):
        num = NumericalParams(dt=1e-2, t_max=0.1)
        message = "^collective operations need params of the collective scheme$"
        with pytest.raises(ValueError, match=message):
            collective_twa_model(individual_params(4))
        with pytest.raises(ValueError, match=message):
            solve_meanfield_collective(individual_params(4), num)

    def test_failed_integration_is_a_runtime_error(self, monkeypatch):
        monkeypatch.setattr(collective, "solve_ivp", lambda *args, **kwargs:
                            SimpleNamespace(success=False, message="step size too small"))
        with pytest.raises(RuntimeError,
                           match="mean-field integration failed: step size too small"):
            solve_meanfield_collective(collective_params(4), NumericalParams(dt=1e-2, t_max=0.1))

    @pytest.mark.parametrize("n", [1, 10, 40])
    def test_solver_matches_cascade_closed_form(self, n):
        # Riccati solution of dS_z/dt = 2 Gamma (S_z - j - 1)(S_z + j) from
        # S_z = j: S_z = j (2 (j+1) u - 1) / (2 j u + 1), u = exp(-2 Gamma (2j+1) t)
        gam, j = 0.5, 0.5 * n
        params, num = validate_params(collective_params(n_atoms=n, gamma=gam),
                                      NumericalParams(t_max=2.0, dt=1e-3))
        series = solve_meanfield_collective(params, num)
        u = np.exp(-2 * gam * (2 * j + 1) * series.times)
        exact = j * (2 * (j + 1) * u - 1) / (2 * j * u + 1)
        np.testing.assert_allclose(series.sz_mean, exact, rtol=0, atol=1e-8 * j)

    def test_meanfield_solver_reaches_ground_state(self):
        params, num = validate_params(
            collective_params(n_atoms=40), NumericalParams(t_max=1.0))
        series = solve_meanfield_collective(params, num)
        assert series.sz_norm[0] == pytest.approx(1.0)
        assert series.sz_norm[-1] == pytest.approx(-1.0, abs=1e-6)

    def test_solvers_ignore_the_cavity_from_full_inversion(self):
        # <S+> = <c> = 0 is an exact invariant of both mean-field flows from
        # full inversion, so g, kappa and Delta never enter: the mean-field
        # solvers are free-space references in either scheme
        num = NumericalParams(dt=1e-3, t_max=0.5)
        for make, solve in [(collective_params, solve_meanfield_collective),
                            (individual_params, solve_meanfield_individual)]:
            free = solve(make(20), num)
            cavity = solve(make(20, g=10.0, kappa=100.0, detuning=3.0), num)
            np.testing.assert_array_equal(cavity.sz_mean, free.sz_mean)
            np.testing.assert_array_equal(cavity.photon_mean, free.photon_mean)
            assert not np.any(cavity.photon_mean)


def integrate_drift_only(params, y0, dt, nsteps):
    model = collective_twa_model(params)
    y = y0.copy()
    d = np.empty_like(y)
    for _ in range(nsteps):
        model.drift(y, d)
        y = y + d * dt
    return y


class TestConservation:
    def setup_method(self):
        self.params = cparams(g=2.0, detuning=0.5)
        rng = np.random.default_rng(3)
        self.y0 = collective_twa_model(cparams(n_atoms=8)).sample_initial(16, rng)

    @staticmethod
    def invariants(y):
        schwinger = np.abs(y[:, 0]) ** 2 + np.abs(y[:, 1]) ** 2
        excitation = 0.5 * (np.abs(y[:, 0]) ** 2 - np.abs(y[:, 1]) ** 2) \
            + np.abs(y[:, 2]) ** 2
        return schwinger, excitation

    def test_drift_conserves_schwinger_and_excitation_numbers(self):
        n0, e0 = self.invariants(self.y0)
        t_total, dt = 0.5, 1e-3
        y = integrate_drift_only(self.params, self.y0, dt, int(t_total / dt))
        n1, e1 = self.invariants(y)
        # Euler global error is O(dt); invariants are O(N) quantities
        assert np.max(np.abs(n1 - n0)) < 0.02 * 8
        assert np.max(np.abs(e1 - e0)) < 0.02 * 8

    def test_conservation_error_scales_linearly_with_dt(self):
        errs = []
        for dt in (2e-3, 1e-3, 5e-4):
            y = integrate_drift_only(self.params, self.y0, dt, int(0.25 / dt))
            n1, e1 = self.invariants(y)
            n0, e0 = self.invariants(self.y0)
            errs.append(np.max(np.abs(n1 - n0)) + np.max(np.abs(e1 - e0)))
        slopes = np.diff(np.log(errs)) / np.diff(np.log([2e-3, 1e-3, 5e-4]))
        assert np.all(slopes > 0.5) and np.all(slopes < 2.0)
