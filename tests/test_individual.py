import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from cavity_sr import individual
from cavity_sr import (NumericalParams, collective_params, individual_dtwa_model,
                       individual_params, run_ensemble,
                       solve_meanfield_individual, validate_params)
from cavity_sr.individual import _pairwise_sum
from cavity_sr.params import SystemParams


def iparams(**kw):
    defaults = dict(n_atoms=1, scheme="individual", g=0.0, kappa=0.0, gamma=0.0,
                    detuning=0.0)
    defaults.update(kw)
    return SystemParams(**defaults)


def model_for(params, n_atoms):
    return individual_dtwa_model(dataclasses.replace(params, n_atoms=n_atoms))


def row(spins, eta=0j):
    """(1, 3N + 2) state block for (N, 3) spin vectors and the cavity eta."""
    spins = np.asarray(spins, dtype=float)
    return np.concatenate([spins.T.ravel(), [eta.real, eta.imag]])[None, :]


def unrow(y, n_atoms):
    """Inverse of row(): ((N, 3) spin block, eta) of a one-row block."""
    return y[0, :3 * n_atoms].reshape(3, n_atoms).T, complex(y[0, -2], y[0, -1])


def drift_at(params, spins, eta=0j):
    """(d_spins (N, 3), d_eta) of the model drift at one lattice state."""
    n = len(spins)
    out = np.empty((1, 3 * n + 2))
    model_for(params, n).drift(row(spins, complex(eta)), out)
    return unrow(out, n)


def noise_at(params, spins, dW, eta=0j):
    """Model noise increments for N per-atom plus 2 cavity Wiener values."""
    n = len(spins)
    out = np.empty((1, 3 * n + 2))
    model_for(params, n).noise(row(spins, complex(eta)),
                               np.asarray(dW, dtype=float).reshape(1, n + 2), out)
    return unrow(out, n)


def observables_of(states):
    """Ensemble means (<S_z>, <c^dag c>) over (spins, eta) lattice states."""
    n = len(states[0][0])
    y = np.concatenate([row(spins, complex(eta)) for spins, eta in states])
    obs = model_for(iparams(), n).observables(y)
    return float(np.mean(obs["sz"])), float(np.mean(obs["photon"]))


def spin_state(sx, sy, sz):
    return [[sx, sy, sz]]


class TestDrift:
    def test_decay_rate_at_full_excitation(self):
        gam = 0.7
        d_spins, _ = drift_at(iparams(gamma=gam), spin_state(0, 0, 1))
        assert d_spins[0, 2] == pytest.approx(-4 * gam)

    def test_cavity_coupling_heisenberg_signs(self):
        # g=1, eta=i/2, spin (0,0,1): ds = (-2 g s_z Im eta, 0, 0) = (-1, 0, 0),
        # the sign that matches the mean-field equations under
        # sigma_+- = (s_x +- i s_y)/2 and the exact oracle (see test below)
        d_spins, d_eta = drift_at(iparams(g=1.0), spin_state(0, 0, 1), eta=0.5j)
        np.testing.assert_allclose(d_spins[0], [-1.0, 0.0, 0.0], atol=1e-14)
        assert d_eta == 0

    def test_generic_point_frozen_cas_values(self):
        p = iparams(g=1.5, gamma=2 / 3)
        d_spins, _ = drift_at(p, spin_state(0.5, -1 / 3, 0.8), eta=0.25 - 0.5j)
        np.testing.assert_allclose(
            d_spins[0],
            [0.8666666666666668, -0.37777777777777777, -3.4], rtol=1e-12)

    def test_cavity_drive_sums_over_atoms(self):
        spins = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        p = iparams(g=2.0)
        _, d_eta = drift_at(p, spins)
        # d_eta = -(i g / 2) sum(s_x - i s_y) = -(i) (2 - 2i) = -2 - 2i
        assert d_eta == pytest.approx(-2.0 - 2.0j)

    def test_spin_derivatives_are_real(self):
        rng = np.random.default_rng(1)
        p = iparams(g=2.0, gamma=0.5, kappa=3.0, detuning=2.0)
        spins = rng.standard_normal((5, 3))
        d_spins, _ = drift_at(p, spins, eta=0.3 - 0.8j)
        assert d_spins.dtype == np.float64

    def test_drift_conserves_excitation_without_dissipation(self):
        # d(sum s_z / 2 + |eta|^2)/dt = 0 when gamma = kappa = 0
        rng = np.random.default_rng(2)
        p = iparams(n_atoms=4, g=1.7)
        spins = rng.standard_normal((4, 3))
        eta = complex(*rng.standard_normal(2))
        d_spins, d_eta = drift_at(p, spins, eta)
        d_exc = d_spins[:, 2].sum() / 2 + 2 * np.real(np.conj(eta) * d_eta)
        assert d_exc == pytest.approx(0.0, abs=1e-12)


class TestNoise:
    def test_no_decay_no_spin_noise(self):
        d_spins, _ = noise_at(iparams(), spin_state(1, 1, 1), np.ones(3))
        np.testing.assert_array_equal(d_spins, 0)

    def test_ground_state_is_noise_free_in_z(self):
        d_spins, _ = noise_at(iparams(gamma=1.0), spin_state(0, 0, -1), np.ones(3))
        assert d_spins[0, 2] == 0

    def test_substitution_example(self):
        # spin (1,0,1), gamma=1/2, dW=1: (0, 1, 2)
        d_spins, _ = noise_at(iparams(gamma=0.5), spin_state(1, 0, 1), np.ones(3))
        np.testing.assert_allclose(d_spins[0], [0.0, 1.0, 2.0], atol=1e-14)

    def test_shared_increment_per_atom(self):
        # both spin components of one atom see the same dW_i
        p = iparams(n_atoms=2, gamma=0.5)
        spins = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        d_spins, _ = noise_at(p, spins, np.array([1.0, -1.0, 0, 0]))
        assert d_spins[0, 1] == -d_spins[1, 1]


class TestSampling:
    @staticmethod
    def sample_spins(n_atoms, seed):
        """(N, 3) spins of one sampled initial lattice."""
        y = model_for(iparams(), n_atoms).sample_initial(1, np.random.default_rng(seed))
        return unrow(y, n_atoms)[0]

    def test_discrete_support(self):
        spins = self.sample_spins(1000, 0)
        assert np.all(spins[:, 0] ** 2 == 1.0)
        assert np.all(spins[:, 1] ** 2 == 1.0)
        assert np.all(spins[:, 2] == 1.0)

    def test_transverse_means_vanish(self):
        spins = self.sample_spins(1_000_000, 1)
        sem = 1.0 / 1000
        assert abs(spins[:, 0].mean()) < 3 * sem
        assert abs(spins[:, 1].mean()) < 3 * sem
        assert spins[:, 2].mean() == 1.0

    def test_four_states_equally_likely(self):
        spins = self.sample_spins(1_000_000, 2)
        for sx in (-1, 1):
            for sy in (-1, 1):
                freq = np.mean((spins[:, 0] == sx) & (spins[:, 1] == sy))
                assert freq == pytest.approx(0.25, abs=0.002)

    def test_cavity_vacuum_sampling(self):
        rng = np.random.default_rng(3)
        y = model_for(iparams(), 1).sample_initial(20000, rng)
        etas = y[:, -2] + 1j * y[:, -1]
        assert np.mean(np.abs(etas) ** 2) == pytest.approx(0.5, rel=0.05)


class TestObservables:
    def test_extremes_and_mixtures(self):
        up = (np.tile([0.0, 0.0, 1.0], (6, 1)), 0j)
        down = (np.tile([0.0, 0.0, -1.0], (6, 1)), 0j)
        assert observables_of([up])[0] == pytest.approx(3.0)
        assert observables_of([down])[0] == pytest.approx(-3.0)
        assert observables_of([up, down])[0] == pytest.approx(0.0)

    def test_photon_symmetric_ordering_correction(self):
        state = (np.zeros((1, 3)), 2.0 + 0j)
        assert observables_of([state])[1] == pytest.approx(3.5)

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(5)
        spins = rng.standard_normal((8, 3))
        eta = 0.2 + 0.1j
        perm = rng.permutation(8)
        a = observables_of([(spins, eta)])
        b = observables_of([(spins[perm], eta)])
        assert a == pytest.approx(b)


def row_major_kernels(p, y, dW):
    """Drift, noise and sz of the DTWA equations evaluated on whole row-major
    blocks, each product in the association of the module docstring."""
    n = p.n_atoms
    y = np.ascontiguousarray(y)
    sx, sy, sz = y[:, :n], y[:, n:2 * n], y[:, 2 * n:3 * n]
    eta = y[:, 3 * n] + 1j * y[:, 3 * n + 1]
    re, im = eta.real[:, None], eta.imag[:, None]
    g, gam, amp = p.g, p.gamma, np.sqrt(2.0 * p.gamma)
    d_eta = (-1j * p.detuning * eta - p.kappa * eta
             - 0.5j * g * (sx.sum(axis=-1) - 1j * sy.sum(axis=-1)))
    n_eta = np.sqrt(p.kappa / 2.0) * (dW[:, n] + 1j * dW[:, n + 1])
    drift = np.column_stack([-2.0 * g * im * sz - gam * sx,
                             -2.0 * g * re * sz - gam * sy,
                             2.0 * g * (sy * re + sx * im) - 2.0 * gam * (sz + 1.0),
                             d_eta.real, d_eta.imag])
    dw = dW[:, :n]
    noise = np.column_stack([-amp * sy * dw, amp * sx * dw, amp * (sz + 1.0) * dw,
                             n_eta.real, n_eta.imag])
    return drift, noise, 0.5 * sz.sum(axis=1)


class TestMemoryOrder:
    # couplings that are not powers of two, so a reassociated product
    # rounds differently
    PARAMS = dict(g=1.5, gamma=0.7, kappa=3.0, detuning=0.7)

    @classmethod
    def stepped_block(cls, n_atoms):
        """A sampled (64, 3N + 2) block after 20 Euler-Maruyama steps, and
        the Wiener increments of one more step."""
        p = iparams(n_atoms=n_atoms, **cls.PARAMS)
        model = model_for(p, n_atoms)
        rng = np.random.default_rng(6)
        y = model.sample_initial(64, rng)
        d, z = np.empty_like(y), np.empty_like(y)
        for _ in range(21):
            dW = 0.03 * rng.standard_normal((64, model.noise_dim))
            model.drift(y, d)
            model.noise(y, dW, z)
            y += d * 1e-3 + z
        return model, y, dW

    def test_column_sums_have_the_bits_of_numpys_row_sums(self):
        # every atom count up to two recursion levels; magnitudes spanning
        # 1e-6..1e6 make every regrouping round differently, and rows of
        # -0.0 sum to +0.0 in numpy
        rng = np.random.default_rng(9)
        for n in range(1, 300):
            x = rng.standard_normal((16, n)) * 10.0 ** rng.uniform(-6, 6, (16, n))
            x[:2] = -0.0
            want = np.ascontiguousarray(x).sum(axis=-1)
            for block in (np.ascontiguousarray(x), np.asfortranarray(x)):
                got = _pairwise_sum(block.T.reshape(1, n, -1))[0]
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_sample_initial_is_column_major(self):
        y = model_for(iparams(n_atoms=3), 3).sample_initial(10, np.random.default_rng(0))
        assert y.flags.f_contiguous and not y.flags.c_contiguous

    @pytest.mark.parametrize("n_atoms", [3, 8, 50, 129, 300])
    def test_kernels_give_the_same_bits_in_either_order(self, n_atoms):
        model, y, dW = self.stepped_block(n_atoms)
        results = []
        for block in (np.ascontiguousarray(y), np.asfortranarray(y)):
            d, z = np.empty_like(block), np.empty_like(block)
            model.drift(block, d)
            model.noise(block, dW, z)
            obs = model.observables(block)
            results.append([d, z, obs["sz"], obs["photon"]])
        for c_order, f_order in zip(*results):
            np.testing.assert_array_equal(c_order.view(np.uint64),
                                          f_order.view(np.uint64))

    @pytest.mark.parametrize("n_atoms", [3, 8, 50, 129, 300])
    def test_kernels_match_the_row_major_formulas_bit_for_bit(self, n_atoms):
        model, y, dW = self.stepped_block(n_atoms)
        d, z = np.empty_like(y), np.empty_like(y)
        model.drift(y, d)
        model.noise(y, dW, z)
        expected = row_major_kernels(iparams(n_atoms=n_atoms, **self.PARAMS), y, dW)
        for got, want in zip((d, z, model.observables(y)["sz"]), expected):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestMeanField:
    def test_solvers_need_individual_params(self):
        num = NumericalParams(dt=1e-2, t_max=0.1)
        message = "^individual operations need params of the individual scheme$"
        with pytest.raises(ValueError, match=message):
            individual_dtwa_model(collective_params(4))
        with pytest.raises(ValueError, match=message):
            solve_meanfield_individual(collective_params(4), num)

    def test_failed_integration_is_a_runtime_error(self, monkeypatch):
        monkeypatch.setattr(individual, "solve_ivp", lambda *args, **kwargs:
                            SimpleNamespace(success=False, message="step size too small"))
        with pytest.raises(RuntimeError,
                           match="mean-field integration failed: step size too small"):
            solve_meanfield_individual(individual_params(4), NumericalParams(dt=1e-2, t_max=0.1))

    def test_solver_free_decay(self):
        # gamma = 0.5 fails if the rate loses its gamma factor
        for gamma in (1.0, 0.5):
            params, num = validate_params(individual_params(n_atoms=7, gamma=gamma),
                                          NumericalParams(t_max=2.0, dt=1e-3))
            series = solve_meanfield_individual(params, num)
            exact = 3.5 * (2 * np.exp(-2 * gamma * series.times) - 1)
            np.testing.assert_allclose(series.sz_mean, exact, atol=1e-8)


class TestSpinLengthConservation:
    def test_drift_derivative_is_tangent(self):
        # gamma = 0: d(s.s)/dt = 2 s . ds = 0 exactly
        rng = np.random.default_rng(4)
        p = iparams(n_atoms=6, g=1.3)
        spins = rng.standard_normal((6, 3))
        d_spins, _ = drift_at(p, spins, eta=0.4 - 0.2j)
        dots = np.einsum("ij,ij->i", spins, d_spins)
        np.testing.assert_allclose(dots, 0.0, atol=1e-12)

    def test_integrated_growth_is_first_order_in_dt(self):
        p = iparams(n_atoms=4, g=1.5, detuning=0.3)
        model = individual_dtwa_model(p)
        rng = np.random.default_rng(11)
        y0 = model.sample_initial(32, rng)
        errs = []
        for dt in (2e-3, 1e-3, 5e-4):
            y = y0.copy()
            d = np.empty_like(y)
            for _ in range(int(0.5 / dt)):
                model.drift(y, d)
                y = y + d * dt
            lengths = y[:, :4] ** 2 + y[:, 4:8] ** 2 + y[:, 8:12] ** 2
            errs.append(np.max(np.abs(lengths - 3.0)))
        slopes = np.diff(np.log(errs)) / np.diff(np.log([2e-3, 1e-3, 5e-4]))
        assert np.all(slopes > 0.5) and np.all(slopes < 2.0)


class TestAgainstOracle:
    def test_dtwa_tracks_exact_dynamics_small_lattice(self):
        from cavity_sr.oracle import solve_oracle
        params, num = validate_params(
            individual_params(n_atoms=3, g=2.0, kappa=20.0),
            NumericalParams(n_traj=6000, seed=17, dt=5e-4, t_max=1.5))
        dtwa = run_ensemble(individual_dtwa_model(params), params, num)
        oracle = solve_oracle(params, num)
        gap = np.max(np.abs(dtwa.sz_norm - oracle.sz_norm))
        assert gap < 0.05
