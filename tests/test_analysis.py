import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavity_sr import (IncomparableReportsError, NumericalParams,
                       ObservableSeries, ScalingReport, UnresolvedBurstError,
                       collective_params, convergence_check, emission_strength,
                       individual_params, moving_average, power_law_fit,
                       scaling_sweep)
from cavity_sr.fileio import write_report


def series_from(times, sz, n_atoms=100, sem=None):
    zeros = np.zeros_like(times)
    sem = zeros if sem is None else sem
    return ObservableSeries(times=times, sz_mean=np.asarray(sz, float),
                            sz_sem=sem, photon_mean=zeros, photon_sem=zeros,
                            n_atoms=n_atoms)


class TestMovingAverage:
    def test_linear_input_preserved_including_edges(self):
        x = np.linspace(0, 1, 50)
        y = 3.0 * x - 1.0
        np.testing.assert_allclose(moving_average(y), y, atol=1e-12)

    def test_interior_is_plain_window_mean(self):
        y = np.arange(10.0) ** 2
        sm = moving_average(y)
        assert sm[4] == pytest.approx(np.mean(y[2:7]))

    @given(values=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=60))
    @settings(max_examples=200)
    def test_equals_the_per_point_loop_bit_for_bit(self, values):
        # the reference is the per-point loop over EMISSION_WINDOW = 5 points
        values = np.array(values)
        csum = np.concatenate([[0.0], np.cumsum(values)])
        n = len(values)
        loop = np.empty(n)
        for i in range(n):
            w = min(2, i, n - 1 - i)
            loop[i] = (csum[i + w + 1] - csum[i - w]) / (2 * w + 1)
        np.testing.assert_array_equal(moving_average(values), loop)


class TestEmissionStrength:
    def test_linear_ramp(self):
        t = np.linspace(0, 1, 101)
        m = emission_strength(series_from(t, -t))
        assert m.intensity == pytest.approx(1.0, rel=1e-10)
        assert m.t0 == t[0]        # tie-break: earliest grid point

    def test_independent_decay_closed_form(self):
        # sz(t) = (N/2)(2 e^{-2 gamma t} - 1): I = 2 gamma N at t = 0
        n, gamma = 100, 0.5
        t = np.arange(0, 3, 1e-3)
        sz = (n / 2) * (2 * np.exp(-2 * gamma * t) - 1)
        m = emission_strength(series_from(t, sz))
        assert m.t0 == 0.0
        assert m.intensity == pytest.approx(2 * gamma * n, rel=2e-3)

    def test_two_atom_cascade_closed_form(self):
        # -dSz/dt = 4 Gamma e^{-4 Gamma t}(1 + 4 Gamma t), maximal at t = 0
        t = np.arange(0, 2, 5e-4)
        sz = 2 * np.exp(-4 * t) + 4 * t * np.exp(-4 * t) - 1
        m = emission_strength(series_from(t, sz, n_atoms=2))
        expected = np.max(4 * np.exp(-4 * t) * (1 + 4 * t))
        assert m.intensity == pytest.approx(expected, rel=2e-3)
        assert m.t0 == 0.0

    def test_burst_in_interior(self):
        t = np.linspace(0, 2, 400)
        sz = -np.tanh(4 * (t - 1.0))
        m = emission_strength(series_from(t, sz))
        assert m.t0 == pytest.approx(1.0, abs=0.02)
        assert m.intensity == pytest.approx(4.0, rel=0.01)

    def test_unresolved_burst_raises(self):
        t = np.linspace(0, 1, 50)
        with pytest.raises(UnresolvedBurstError):
            emission_strength(series_from(t, -t ** 2))

    def test_grid_refinement_invariance(self):
        def run(dt):
            t = np.arange(0, 2, dt)
            sz = -np.tanh(4 * (t - 1.0))
            return emission_strength(series_from(t, sz)).intensity
        assert abs(run(2e-3) - run(1e-3)) / run(1e-3) < 0.01

    def test_smoothing_suppresses_single_spike(self):
        t = np.linspace(0, 1, 201)
        sz = -t.copy()
        sz[100] -= 0.05                  # one bad ensemble point
        raw = -np.gradient(sz, t)
        smooth = emission_strength(series_from(t, sz))
        assert raw.max() > 5.0           # spike dominates the raw derivative
        assert smooth.intensity < 3.0


class TestPowerLawFit:
    def test_exact_quadratic(self):
        fit = power_law_fit([(10, 100), (100, 1e4), (1000, 1e6)])
        assert fit.zeta == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_exact_linear_with_prefactor(self):
        fit = power_law_fit([(n, 5.0 * n) for n in (50, 100, 200, 400)])
        assert fit.zeta == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(5.0), abs=1e-12)
        assert fit.zeta_stderr == pytest.approx(0.0, abs=1e-10)

    def test_nonpositive_intensity_names_the_atom_number(self):
        with pytest.raises(ValueError, match="200"):
            power_law_fit([(100, 10.0), (200, -1.0), (400, 40.0)])

    @pytest.mark.parametrize("points, message", [
        ([(10, float("nan")), (20, 4.0), (40, 16.0)], "non-finite emission strength at N = 10"),
        ([(10, 1.0), (20, 4.0), (40, float("inf"))], "non-finite emission strength at N = 40"),
        ([(10, 1.0), (float("inf"), 4.0), (40, 16.0)], "positive and finite"),
    ], ids=["nan-intensity", "inf-intensity", "inf-atom-number"])
    def test_non_finite_point_is_rejected(self, points, message):
        with pytest.raises(ValueError, match=message):
            power_law_fit(points)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="3"):
            power_law_fit([(10, 1.0), (20, 2.0)])

    def test_duplicate_atom_numbers(self):
        with pytest.raises(ValueError, match="distinct"):
            power_law_fit([(10, 1.0), (10, 2.0), (40, 3.0)])

    @given(scale=st.floats(0.01, 100.0))
    @settings(max_examples=40)
    def test_rescaling_moves_intercept_only(self, scale):
        pts = [(50, 120.0), (100, 500.0), (200, 1900.0), (400, 8000.0)]
        base = power_law_fit(pts)
        scaled = power_law_fit([(n, scale * i) for n, i in pts])
        assert scaled.zeta == pytest.approx(base.zeta, abs=1e-9)
        assert scaled.intercept == pytest.approx(base.intercept + np.log(scale),
                                                 abs=1e-9)
        assert scaled.r_squared == pytest.approx(base.r_squared, abs=1e-9)

    @given(perm=st.permutations(range(4)))
    @settings(max_examples=24)
    def test_permutation_invariance(self, perm):
        pts = [(50, 120.0), (100, 500.0), (200, 1900.0), (400, 8000.0)]
        base = power_law_fit(pts)
        shuffled = power_law_fit([pts[i] for i in perm])
        assert shuffled.zeta == pytest.approx(base.zeta)
        assert shuffled.intercept == pytest.approx(base.intercept)
        assert shuffled.r_squared == pytest.approx(base.r_squared)


class TestScalingSweep:
    def test_meanfield_collective_free_space_matches_cascade_closed_form(self):
        # mean-field cascade: I(N) = Gamma (N+1)^2 / 2 exactly (peak of the
        # parabola J(J+1) - Sz^2 + Sz at Sz = 1/2); fit that as the oracle
        ns = [50, 100, 200]
        params = collective_params(50)
        num = NumericalParams(n_traj=1, seed=0)
        report = scaling_sweep("meanfield", ns, params, num)
        exact = power_law_fit([(n, (n + 1) ** 2 / 2) for n in ns])
        assert report.zeta == pytest.approx(exact.zeta, abs=0.01)
        # per-point intensities carry a small common-mode smoothing bias
        for (_, intensity, _), n in zip(report.points, ns):
            assert intensity == pytest.approx((n + 1) ** 2 / 2, rel=0.02)
        assert report.r_squared > 0.999
        assert report.divergent == [0, 0, 0]
        assert len(report.fingerprint) == 16

    def test_needs_three_atom_numbers(self):
        with pytest.raises(ValueError, match="3"):
            scaling_sweep("meanfield", [50, 100],
                          collective_params(50), NumericalParams())

    # convergence_check compares these configs, so a change here changes
    # which reports it accepts as comparable
    @pytest.mark.parametrize("params, num, fingerprint", [
        (collective_params(5, g=1.0, kappa=2.0), NumericalParams(), "3b3f2bc8db92bb6c"),
        (individual_params(5, g=1.0, kappa=2.0, detuning=0.5),
         NumericalParams(n_traj=7, seed=3), "6be33c64e16b9254"),
    ], ids=["collective", "individual"])
    def test_fingerprint_is_pinned(self, params, num, fingerprint):
        report = scaling_sweep("meanfield", [5, 10, 20], params, num)
        assert report.fingerprint == fingerprint

    def test_numpy_counts_give_the_fingerprint_of_python_ints(self):
        params = collective_params(5, g=1.0, kappa=2.0)
        plain = scaling_sweep("meanfield", [5, 10, 20], params, NumericalParams(n_traj=10))
        numpy = scaling_sweep("meanfield", [5, 10, 20], params,
                              NumericalParams(n_traj=np.int64(10)))
        assert numpy.fingerprint == plain.fingerprint
        assert numpy.config == plain.config

    def test_numpy_scalars_write_a_json_report(self, tmp_path):
        params = collective_params(np.int64(5), g=np.float32(1.5), kappa=2.0)
        report = scaling_sweep("meanfield", [5, 10, 20], params,
                               NumericalParams(n_traj=np.int64(10), seed=np.int32(3)))
        path = write_report(report, {}, tmp_path / "report.json")
        config = json.loads(path.read_text())["config"]
        assert config["n_traj"] == 10 and config["seed"] == 3 and config["g"] == 1.5

    @pytest.mark.parametrize("n_list, bad", [
        ([50.9, 100, 200], "[50.9]"),
        (["5", "6", "7"], "['5', '6', '7']"),
        ([5, 10.0, 20], "[10.0]"),
        ([True, 5, 10], "[True]"),
    ], ids=["fraction", "strings", "integral-floats", "bool"])
    def test_non_integer_atom_numbers_are_rejected(self, n_list, bad):
        with pytest.raises(ValueError, match=f"must be integers, got {re.escape(bad)}"):
            scaling_sweep("meanfield", n_list, collective_params(50), NumericalParams())

    def test_numpy_integer_atom_numbers_are_accepted(self):
        report = scaling_sweep("meanfield", np.array([5, 10, 20]), collective_params(5),
                               NumericalParams(n_traj=1))
        assert [n for n, _, _ in report.points] == [5, 10, 20]
        assert all(type(n) is int for n, _, _ in report.points)

    @pytest.mark.parametrize("solver", ["twa", "stochastic"])
    def test_solver_must_be_resolved_for_the_scheme(self, solver):
        with pytest.raises(ValueError, match=f"no solver '{solver}' for the individual"):
            scaling_sweep(solver, [2, 3, 4], individual_params(2), NumericalParams())


def exact_zeta(make, ns, g, kappa):
    """Exponent of the exact oracle's I(N) over ns at coupling g, decay kappa."""
    return scaling_sweep("oracle", ns, make(ns[0], g=g, kappa=kappa),
                         NumericalParams(n_traj=1)).zeta


class TestPaperHeadline:
    """The paper's claim from the exact oracle: a cavity (g = kappa = 3, and
    the bad cavity g = 10, kappa = 100) suppresses the collective exponent
    and enhances the individual one against free space (g = kappa = 0).
    README.md lists these values."""

    def test_cavity_suppresses_the_collective_exponent(self):
        free = exact_zeta(collective_params, [5, 10, 20], 0.0, 0.0)
        cavity = exact_zeta(collective_params, [5, 10, 20], 3.0, 3.0)
        bad = exact_zeta(collective_params, [5, 10, 20], 10.0, 100.0)
        assert (free, cavity, bad) == pytest.approx((1.801, 1.635, 1.762), abs=1e-3)
        assert free - cavity > 0.1

    def test_cavity_enhances_the_individual_exponent(self):
        free = exact_zeta(individual_params, [2, 3, 4, 5], 0.0, 0.0)
        cavity = exact_zeta(individual_params, [2, 3, 4, 5], 3.0, 3.0)
        bad = exact_zeta(individual_params, [2, 3, 4, 5], 10.0, 100.0)
        assert (free, cavity, bad) == pytest.approx((1.000, 1.084, 1.053), abs=1e-3)
        assert cavity - free > 0.03


def report_with(zeta, dt=(1e-3,), n_traj=1000, **config_overrides):
    config = {"scheme": "individual", "solver": "dtwa", "n_list": [50, 100, 200],
              "dt": list(dt), "t_max": None, "n_traj": n_traj, "seed": 1,
              "g": 2.0, "kappa": 20.0, "gamma": 1.0,
              "detuning": 0.0}
    config.update(config_overrides)
    return ScalingReport(points=[(50, 1.0, 0.0), (100, 2.0, 0.0), (200, 4.0, 0.0)],
                         zeta=zeta, intercept=0.0, r_squared=1.0,
                         zeta_stderr=0.0, config=config, fingerprint="x")


class TestConvergenceCheck:
    def test_identical_reports_pass_with_zero_delta(self):
        v = convergence_check(report_with(1.76), report_with(1.76))
        assert v.passed and v.delta == 0.0 and v.variation == "identical"

    def test_small_shift_passes(self):
        v = convergence_check(report_with(1.76, dt=(1e-3,)),
                              report_with(1.77, dt=(5e-4,)))
        assert v.passed and v.delta == pytest.approx(0.01)
        assert v.variation == "dt-halved"

    def test_large_shift_fails(self):
        v = convergence_check(report_with(1.76), report_with(1.85, n_traj=2000))
        assert not v.passed
        assert v.delta == pytest.approx(0.09)
        assert v.variation == "trajectories-doubled"

    def test_physics_mismatch_is_incomparable(self):
        with pytest.raises(IncomparableReportsError, match="g"):
            convergence_check(report_with(1.76), report_with(1.76, g=5.0))

    def test_key_of_the_second_report_alone_is_named(self):
        # a report written while the smoothing window was an option
        with pytest.raises(IncomparableReportsError, match="smoothing_window"):
            convergence_check(report_with(1.76), report_with(1.76, smoothing_window=5))

    def test_simultaneous_variation_is_incomparable(self):
        with pytest.raises(IncomparableReportsError):
            convergence_check(report_with(1.76),
                              report_with(1.76, dt=(5e-4,), n_traj=2000))

    def test_wrong_dt_ratio_is_incomparable(self):
        with pytest.raises(IncomparableReportsError):
            convergence_check(report_with(1.76), report_with(1.76, dt=(2.5e-4,)))
