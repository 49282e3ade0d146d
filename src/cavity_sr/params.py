"""Physical and numerical run configuration.

Unit convention: the active atomic decay half-rate (Gamma for the collective
scheme, gamma for the individual scheme) is the inverse time unit. All rates
and frequencies are expressed in these units, e.g. g = 10 means g = 10*Gamma.
Lindblad dissipators carry prefactors 2*kappa, 2*Gamma, 2*gamma; the
configuration stores the half-rates kappa and gamma (Gamma or gamma, by scheme).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import asdict, dataclass, replace

SCHEME_COLLECTIVE = "collective"
SCHEME_INDIVIDUAL = "individual"
SCHEMES = (SCHEME_COLLECTIVE, SCHEME_INDIVIDUAL)


class ConfigurationError(ValueError):
    """Raised by validate_params with the complete list of violations."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of the atom-cavity model.

    scheme is the emission channel, collective or individual; gamma is its
    atomic decay half-rate and the unit of inverse time.  The equations are
    written in the frame rotating at the atomic frequency, so detuning
    (cavity minus atomic frequency) is the only frequency.
    """

    n_atoms: int
    scheme: str
    g: float = 0.0
    kappa: float = 0.0
    gamma: float = 1.0
    detuning: float = 0.0


@dataclass(frozen=True)
class NumericalParams:
    """Numerical controls: step size, horizon, ensemble size, seeding.

    dt and t_max may be left as None, in which case validate_params fills in
    the scheme- and N-adapted defaults (see default_time_step / default_horizon).
    """

    n_traj: int = 2000
    seed: int = 0
    dt: float | None = None
    t_max: float | None = None


def _cavity_collective_rate(params: SystemParams) -> float:
    """Rate scale of cavity-mediated collective emission, 2*N*g^2/kappa in
    the adiabatic regime (kappa >> g*sqrt(N)), saturating at the collective
    exchange rate 2*g*sqrt(N) for strong coupling."""
    g, n = params.g, params.n_atoms
    if g == 0:
        return 0.0
    return 2.0 * n * g * g / max(params.kappa, g * math.sqrt(n))


def default_time_step(params: SystemParams) -> float:
    """N-adapted Euler-Maruyama step.

    The superradiant burst narrows with N, so dt must shrink accordingly.
    Collective scheme: the burst rate scale is Gamma*N, and the cavity decay
    caps the step at 0.5/kappa, giving dt = min(1e-3, 0.05/(Gamma*N),
    0.5/kappa).  Individual scheme: the fast rates are the cavity decay, the
    independent decay and the cavity-mediated collective rate (at g = 0
    there is no N-dependent burst at all), giving dt = min(1e-3, 0.05/rate).
    """
    if params.scheme == SCHEME_COLLECTIVE:
        rate = max(params.gamma * params.n_atoms, params.kappa / 10)
    else:
        rate = max(2.0 * params.gamma, params.kappa, _cavity_collective_rate(params))
    return min(1e-3, 0.05 / rate) if rate > 0 else 1e-3


def default_horizon(params: SystemParams) -> float:
    """Simulation horizon covering the emission burst plus margin.

    Collective: delay and width both scale as 1/(2*Gamma*N), with a
    logarithmic delay factor.  Individual: the cavity-mediated collective
    rate sets the burst position when it dominates the independent rate
    2*gamma; otherwise the maximum slope sits near t = 0 and one unit of
    1/gamma covers the decay well past the zero crossing.
    """
    n = params.n_atoms
    if params.scheme == SCHEME_COLLECTIVE:
        if params.gamma <= 0:
            return 1.0
        return (4.0 * math.log(2 * n) + 10.0) / (2.0 * params.gamma * n)
    gam = params.gamma
    rate = max(_cavity_collective_rate(params), 2.0 * gam)
    if rate <= 0:
        return 1.0
    burst = (4.0 * math.log(2 * n) + 12.0) / rate
    if gam <= 0:
        return burst
    return min(2.5 / gam, max(1.0 / gam, burst))


def _check_finite(owner, names, errors: list) -> None:
    for name in names:
        value = getattr(owner, name)
        if value is not None and not math.isfinite(value):
            errors.append(f"non-finite value: {name} = {value}")


def _is_integer(owner, name, errors: list) -> bool:
    """Whether the field is an integer, numpy integers included and bools
    not; if not, appends an error naming it."""
    value = getattr(owner, name)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        errors.append(f"{name} must be an integer, got {value!r}")
        return False
    return True


def _check_system(p: SystemParams, errors: list) -> None:
    if _is_integer(p, "n_atoms", errors) and p.n_atoms < 1:
        errors.append("zero atoms: n_atoms must be >= 1")
    if p.scheme not in SCHEMES:
        errors.append(f"unknown scheme {p.scheme!r}: must be "
                      f"{SCHEME_COLLECTIVE!r} or {SCHEME_INDIVIDUAL!r}")
    _check_finite(p, ("g", "kappa", "gamma", "detuning"), errors)
    for name in ("g", "kappa", "gamma"):
        if getattr(p, name) < 0:
            errors.append(f"negative rate: {name} = {getattr(p, name)}")


def _check_numerics(num: NumericalParams, errors: list) -> None:
    if _is_integer(num, "n_traj", errors) and num.n_traj < 1:
        errors.append(f"n_traj must be >= 1, got {num.n_traj}")
    if _is_integer(num, "seed", errors) and num.seed < 0:
        errors.append(f"seed must be a non-negative integer, got {num.seed}")
    _check_finite(num, ("dt", "t_max"), errors)
    if num.dt is not None and num.dt <= 0:
        errors.append(f"dt must be positive, got {num.dt}")
    if num.t_max is not None and num.t_max <= 0:
        errors.append(f"t_max must be positive, got {num.t_max}")
    if (num.dt is not None and num.t_max is not None and num.dt > num.t_max):
        errors.append(f"dt = {num.dt} exceeds t_max = {num.t_max}")


def validate_params(params: SystemParams, num: NumericalParams):
    """Validate and normalize a run configuration.

    Returns a (SystemParams, NumericalParams) pair with the dt / t_max
    defaults filled in.  Raises ConfigurationError carrying the complete list
    of violations (including any NaN or infinite rate, detuning, dt or t_max,
    any count that is not an integer, and a dt / t_max pair whose step count
    is infinite or exceeds sys.maxsize) otherwise.
    Idempotent: validating an already validated pair returns it unchanged.
    """
    errors: list = []
    _check_system(params, errors)
    _check_numerics(num, errors)
    if errors:
        raise ConfigurationError(errors)
    dt = num.dt if num.dt is not None else default_time_step(params)
    t_max = num.t_max if num.t_max is not None else default_horizon(params)
    t_max = max(t_max, dt)
    steps = t_max / dt
    if not math.isfinite(steps) or round(steps) > sys.maxsize:
        raise ConfigurationError([f"dt = {dt} and t_max = {t_max} give t_max/dt = "
                                  f"{steps:g} steps, more than {sys.maxsize}"])
    if num.dt != dt or num.t_max != t_max:
        num = replace(num, dt=dt, t_max=t_max)
    return params, num


def collective_params(n_atoms: int, g: float = 0.0, kappa: float = 0.0,
                      gamma: float = 1.0, detuning: float = 0.0) -> SystemParams:
    """Collective-emission configuration in Gamma = gamma units."""
    return SystemParams(n_atoms, SCHEME_COLLECTIVE, g, kappa, gamma, detuning)


def individual_params(n_atoms: int, g: float = 0.0, kappa: float = 0.0,
                      gamma: float = 1.0, detuning: float = 0.0) -> SystemParams:
    """Individual-emission configuration in gamma units."""
    return SystemParams(n_atoms, SCHEME_INDIVIDUAL, g, kappa, gamma, detuning)


def config_echo(params: SystemParams, num: NumericalParams, solver: str) -> dict:
    """The run configuration as recorded in manifest.json and report.json:
    every field of params and num, and the resolved solver; numpy numbers
    become int or float, so it is plain JSON and 10 and np.int64(10) agree."""
    echo = {**asdict(params), **asdict(num), "solver": solver}
    return {key: int(v) if isinstance(v, numbers.Integral)
            else float(v) if isinstance(v, numbers.Real) else v
            for key, v in echo.items()}
