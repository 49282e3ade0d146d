import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from cavity_sr import (ConfigurationError, NumericalParams, SystemParams,
                       collective_params, default_horizon, default_time_step,
                       individual_params, validate_params)


def test_paper_figure_configuration_is_valid():
    # resonant cavity, kappa = Gamma, g = 10 Gamma, N = 100
    params = collective_params(n_atoms=100, g=10.0, kappa=1.0)
    num = NumericalParams(dt=1e-4)
    p, n = validate_params(params, num)
    assert p.n_atoms == 100
    assert n.dt == 1e-4


def test_free_decay_limit_is_valid():
    p, n = validate_params(individual_params(n_atoms=1), NumericalParams())
    assert p.g == 0.0 and n.dt is not None


def test_zero_atoms_rejected():
    with pytest.raises(ConfigurationError, match="zero atoms"):
        validate_params(collective_params(n_atoms=0), NumericalParams())


def test_all_violations_reported_together():
    params = SystemParams(n_atoms=0, scheme="collective", g=-1.0, kappa=-2.0,
                          gamma=-1.0)
    num = NumericalParams(n_traj=0, dt=2.0, t_max=1.0)
    with pytest.raises(ConfigurationError) as err:
        validate_params(params, num)
    messages = " ".join(err.value.errors)
    assert len(err.value.errors) >= 6
    assert "zero atoms" in messages
    assert "g" in messages and "kappa" in messages
    assert "negative rate: gamma = -1.0" in messages
    assert "exceeds t_max" in messages


@pytest.mark.parametrize("n_atoms", [2.5, 4.0, True])
def test_non_integer_atom_number_rejected(n_atoms):
    with pytest.raises(ConfigurationError,
                       match=f"n_atoms must be an integer, got {n_atoms}"):
        validate_params(SystemParams(n_atoms, "collective"), NumericalParams())


def test_numpy_integer_counts_accepted():
    num = NumericalParams(n_traj=np.int32(10), seed=np.uint64(1))
    p, n = validate_params(SystemParams(np.int64(4), "individual"), num)
    assert (p.n_atoms, n.n_traj, n.seed) == (4, 10, 1)


def test_unknown_scheme_rejected():
    with pytest.raises(ConfigurationError, match="unknown scheme 'both'"):
        validate_params(SystemParams(2, "both"), NumericalParams())


@given(field=st.sampled_from(["g", "kappa", "gamma", "detuning"]),
       value=st.sampled_from([math.nan, math.inf, -math.inf]),
       make=st.sampled_from([collective_params, individual_params]),
       n=st.integers(1, 1000), rate=st.floats(0, 50))
def test_non_finite_rate_is_rejected_naming_the_field(field, value, make, n, rate):
    rates = dict(g=rate, kappa=rate, gamma=rate, detuning=rate)
    rates[field] = value
    with pytest.raises(ConfigurationError, match="non-finite value") as err:
        validate_params(make(n_atoms=n, **rates), NumericalParams())
    assert field in str(err.value)


@pytest.mark.parametrize("field, value, message", [
    ("dt", math.nan, "dt = nan"),
    ("dt", math.inf, "dt = inf"),
    ("dt", 0.0, "dt must be positive, got 0.0"),
    ("t_max", -1.0, "t_max must be positive, got -1.0"),
    ("t_max", math.nan, "t_max = nan"),
    ("t_max", math.inf, "t_max = inf"),
    ("seed", -1, "seed must be a non-negative integer, got -1"),
    ("n_traj", 10.5, "n_traj must be an integer, got 10.5"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("n_traj", True, "n_traj must be an integer, got True"),
    ("seed", False, "seed must be an integer, got False"),
])
def test_bad_numerics_are_rejected_naming_the_field(field, value, message):
    with pytest.raises(ConfigurationError, match=message):
        validate_params(collective_params(4), NumericalParams(**{field: value}))


@given(field=st.sampled_from(["g", "kappa", "gamma", "detuning", "dt", "t_max"]),
       value=st.sampled_from([True, False, "1", None, 1j, b"0.1", [1.0]]),
       make=st.sampled_from([collective_params, individual_params]))
def test_a_field_that_is_not_a_real_number_is_rejected_naming_it(field, value, make):
    numerical = field in ("dt", "t_max")
    assume(not (numerical and value is None))      # None asks for the default
    params = make(4) if numerical else make(4, **{field: value})
    num = NumericalParams(**{field: value}) if numerical else NumericalParams()
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"{field} must be a real number, got {value!r}")):
        validate_params(params, num)


def test_validation_idempotent():
    params = SystemParams(n_atoms=50, scheme="individual", g=2.0, kappa=20.0,
                          gamma=1.0, detuning=3.0)
    once = validate_params(params, NumericalParams(seed=9))
    twice = validate_params(*once)
    assert once == twice


@given(n=st.integers(1, 1000), g=st.floats(0, 50), kappa=st.floats(0, 50),
       seed=st.integers(0, 2 ** 32))
def test_validation_idempotent_property(n, g, kappa, seed):
    params = individual_params(n_atoms=n, g=g, kappa=kappa)
    once = validate_params(params, NumericalParams(seed=seed))
    assert validate_params(*once) == once


def test_time_step_shrinks_with_atoms_collective():
    small = default_time_step(collective_params(10))
    large = default_time_step(collective_params(1000))
    assert large < small
    assert default_time_step(collective_params(400)) == pytest.approx(0.05 / 400)


@pytest.mark.parametrize("n, dt", [(8, 1e-3), (50, 1e-3), (100, 5e-4), (200, 2.5e-4),
                                   (400, 1.25e-4)])
def test_collective_time_step_at_kappa_100_is_pinned(n, dt):
    # the benchmark's collective configurations: their cavity cap,
    # 0.5 / kappa = 5e-3, lies above every one of these steps
    assert default_time_step(collective_params(n, g=10.0, kappa=100.0)) == dt


@pytest.mark.parametrize("make, resonant", [(collective_params, 0.05 / (3000 / 10)),
                                             (individual_params, 0.05 / 3000)],
                         ids=["collective", "individual"])
def test_detuning_caps_the_step_only_off_resonance(make, resonant):
    # the Euler cavity update is stable only for dt < 2 kappa / (kappa^2 +
    # detuning^2); for kappa > 0 the step is capped at a quarter of that,
    # which leaves the resonant step's bits alone and the kappa = 0 rule too
    assert default_time_step(make(10, g=1.0, kappa=3000.0)) == resonant
    for detuning in (3000.0, -3000.0):
        assert default_time_step(make(10, g=1.0, kappa=100.0, detuning=detuning)) == \
            pytest.approx(0.5 * 100 / (100 ** 2 + 3000 ** 2))
    assert default_time_step(make(10, detuning=3000.0)) == 1e-3


def test_a_default_step_rounded_to_zero_is_rejected():
    params = collective_params(3, kappa=1.0, detuning=1e200)
    assert default_time_step(params) == 0.0
    with pytest.raises(ConfigurationError, match="t_max/dt = inf steps"):
        validate_params(params, NumericalParams())


def test_individual_time_step_tracks_cavity_rate():
    # at g = 0 there is no N-dependent burst; dt is set by kappa
    no_coupling = default_time_step(individual_params(400, g=0.0, kappa=20.0))
    coupled = default_time_step(individual_params(400, g=2.0, kappa=20.0))
    assert no_coupling == pytest.approx(1e-3)
    # strong-coupling regime: rate saturates at 2 g sqrt(N) = 80
    assert coupled == pytest.approx(0.05 / 80.0)
    # adiabatic regime (kappa >> g sqrt(N)): rate = 2 N g^2 / kappa
    adiabatic = default_time_step(individual_params(400, g=2.0, kappa=200.0))
    assert adiabatic == pytest.approx(min(1e-3, 0.05 / max(200.0, 2 * 400 * 4 / 200)))


def test_horizon_covers_decay():
    assert default_horizon(individual_params(100, g=0.0, kappa=20.0)) >= 1.0
    assert default_horizon(collective_params(100)) > 0.05


def test_horizon_without_atomic_decay():
    # no decay to scale the collective burst, and no rate at all for the
    # individual scheme: one time unit
    assert default_horizon(collective_params(10, g=2.0, kappa=20.0, gamma=0.0)) == 1.0
    assert default_horizon(individual_params(10, gamma=0.0)) == 1.0
    # the cavity-mediated rate 2 N g^2 / kappa = 4 alone sets the burst
    burst = (4.0 * math.log(20) + 12.0) / 4.0
    assert default_horizon(individual_params(10, g=2.0, kappa=20.0, gamma=0.0)) == burst


def test_scheme_and_gamma_accessors():
    assert collective_params(5).scheme == "collective"
    assert individual_params(5).scheme == "individual"
    assert collective_params(5, gamma=2.0).gamma == 2.0
