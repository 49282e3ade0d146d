"""Superradiance strength extraction and power-law scaling fits.

The emission strength I is the global maximum of -d<S_z>/dt over the run,
the peak collective radiation rate; t0 is where it occurs.  A sweep over atom
numbers fits log I against log N, whose slope is the scaling exponent zeta
(2 for ideal Dicke superradiance, 1 for independent emission).
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass, field, replace
from typing import List, Sequence, Tuple

import numpy as np

from .params import NumericalParams, SystemParams, config_echo, validate_params
from .runners import simulate_timeseries
from .series import ObservableSeries


class UnresolvedBurstError(RuntimeError):
    """The maximum slope sits on the final grid point; extend t_max."""


class IncomparableReportsError(ValueError):
    """convergence_check got reports that differ in more than dt or M."""


@dataclass(frozen=True)
class EmissionMeasurement:
    intensity: float            # units of the active decay rate times atoms
    t0: float
    smoothing_window: int = 5


@dataclass(frozen=True)
class PowerLawFit:
    zeta: float
    intercept: float            # log prefactor (natural log)
    r_squared: float
    zeta_stderr: float


@dataclass
class ScalingReport:
    points: List[Tuple[int, float, float]]   # (N, I, I standard error)
    zeta: float
    intercept: float
    r_squared: float
    zeta_stderr: float
    config: dict                              # sweep configuration echo
    fingerprint: str
    divergent: List[int] = field(default_factory=list)


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with an odd window; near the edges the window
    shrinks symmetrically, which keeps linear inputs exactly linear."""
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 1, got {window}")
    values = np.asarray(values, dtype=float)
    if window == 1 or len(values) < 3:
        return values.copy()
    half = window // 2
    csum = np.concatenate([[0.0], np.cumsum(values)])
    i = np.arange(len(values))
    w = np.minimum(half, np.minimum(i, len(values) - 1 - i))
    return (csum[i + w + 1] - csum[i - w]) / (2 * w + 1)


def emission_strength(series: ObservableSeries,
                      smoothing_window: int = 5) -> EmissionMeasurement:
    """Peak of -d<S_z>/dt: moving-average smoothing followed by central
    differences (one-sided at the endpoints).  Ties break to the earliest
    grid point; a maximum on the final grid point raises UnresolvedBurstError.
    """
    if len(series.times) < 3:
        raise ValueError("series too short for derivative estimation")
    smoothed = moving_average(series.sz_mean, smoothing_window)
    slope = -np.gradient(smoothed, series.times)
    peak = slope.max()
    # earliest grid point among float-equal maxima
    idx = int(np.argmax(slope >= peak - 1e-12 * max(abs(peak), 1.0)))
    if idx == len(series.times) - 1:
        raise UnresolvedBurstError(
            f"maximum emission at t_max = {series.times[-1]:.4g}; "
            "the burst is not resolved within the horizon")
    return EmissionMeasurement(intensity=float(slope[idx]),
                               t0=float(series.times[idx]),
                               smoothing_window=smoothing_window)


def emission_uncertainty(series: ObservableSeries, measurement: EmissionMeasurement) -> float:
    """Rough standard error of the intensity from the ensemble sem, treating
    the smoothed neighbor points entering the central difference as
    independent after window averaging."""
    if np.all(series.sz_sem == 0):
        return 0.0
    idx = int(np.searchsorted(series.times, measurement.t0))
    lo = max(idx - 1, 0)
    hi = min(idx + 1, len(series.times) - 1)
    dt = series.times[hi] - series.times[lo]
    if dt == 0:
        return 0.0
    w = max(1, measurement.smoothing_window)
    sem = np.hypot(series.sz_sem[lo], series.sz_sem[hi]) / np.sqrt(w)
    return float(sem / dt)


def power_law_fit(points: Sequence[Tuple[float, float]]) -> PowerLawFit:
    """Ordinary least squares of log I on log N; slope = zeta.  Every N and I
    must be finite and positive."""
    if len(points) < 3:
        raise ValueError(f"need at least 3 points, got {len(points)}")
    ns = np.array([p[0] for p in points], dtype=float)
    intensities = np.array([p[1] for p in points], dtype=float)
    if len(set(ns.tolist())) != len(ns):
        raise ValueError("atom numbers must be distinct")
    if not np.all(np.isfinite(ns) & (ns > 0)):
        raise ValueError(f"atom numbers must be positive and finite, got {ns.tolist()}")
    for label, bad in (("non-finite", ~np.isfinite(intensities)),
                       ("nonpositive", intensities <= 0)):
        if bad.any():
            raise ValueError(f"{label} emission strength at N = "
                             f"{', '.join(str(int(n)) for n in ns[bad])}")
    x = np.log(ns)
    y = np.log(intensities)
    xbar, ybar = x.mean(), y.mean()
    sxx = np.sum((x - xbar) ** 2)
    slope = np.sum((x - xbar) * (y - ybar)) / sxx
    intercept = ybar - slope * xbar
    resid = y - (intercept + slope * x)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - ybar) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    dof = len(points) - 2
    stderr = float(np.sqrt(ss_res / dof / sxx)) if dof > 0 else 0.0
    return PowerLawFit(float(slope), float(intercept), float(r2), stderr)


def _fingerprint(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, default=str).encode()).hexdigest()[:16]


def atom_numbers(n_list: Sequence[int]) -> List[int]:
    """n_list as ints if it holds at least 3 distinct integers >= 1, numpy
    integers included."""
    bad = [n for n in n_list if not isinstance(n, numbers.Integral)]
    if bad:
        raise ValueError(f"atom numbers in n_list must be integers, got {bad}")
    ns = [int(n) for n in n_list]
    if len(ns) < 3:
        raise ValueError("n_list needs at least 3 atom numbers")
    if len(set(ns)) != len(ns):
        raise ValueError(f"atom numbers in n_list must be distinct, got {ns}")
    if min(ns) < 1:
        raise ValueError(f"atom numbers in n_list must be >= 1, got {ns}")
    return ns


def scaling_sweep(solver: str, n_list: Sequence[int], params: SystemParams,
                  num: NumericalParams) -> ScalingReport:
    """Run a resolved solver (runners.resolve_solver) for each N in the
    scheme params.scheme, extract I, and fit the exponent.

    dt and t_max follow the N-adapted defaults unless given explicitly; any
    unresolved burst aborts the fit.  The report records per-N divergent
    trajectory counts and a configuration fingerprint.  n_list is checked
    as a whole (atom_numbers) before the first solve.
    """
    ns = atom_numbers(n_list)
    points = []
    divergent = []
    dts = []
    for n in ns:
        p_n = replace(params, n_atoms=n)
        p_n, num_n = validate_params(p_n, num)
        series = simulate_timeseries(solver, p_n, num_n)
        measurement = emission_strength(series, num_n.smoothing_window)
        points.append((n, measurement.intensity,
                       emission_uncertainty(series, measurement)))
        divergent.append(series.n_divergent)
        dts.append(num_n.dt)

    fit = power_law_fit([(n, i) for n, i, _ in points])
    config = {**config_echo(params, num, solver), "n_list": ns, "dt": dts}
    del config["n_atoms"]
    return ScalingReport(points=points, zeta=fit.zeta, intercept=fit.intercept,
                         r_squared=fit.r_squared, zeta_stderr=fit.zeta_stderr,
                         config=config, fingerprint=_fingerprint(config),
                         divergent=divergent)


@dataclass(frozen=True)
class ConvergenceVerdict:
    passed: bool
    delta: float
    variation: str              # "dt-halved" | "trajectories-doubled" | "identical"

    TOLERANCE = 0.02


def convergence_check(report_a: ScalingReport, report_b: ScalingReport) -> ConvergenceVerdict:
    """Pass iff the fitted exponents agree within 0.02 for reports that
    differ only in dt (halved) or trajectory count (doubled)."""
    ca, cb = dict(report_a.config), dict(report_b.config)
    dt_a, dt_b = ca.pop("dt"), cb.pop("dt")
    m_a, m_b = ca.pop("n_traj"), cb.pop("n_traj")
    ca.pop("t_max"), cb.pop("t_max")
    ca.pop("seed"), cb.pop("seed")
    if ca != cb:
        diff = {k for k in ca if ca.get(k) != cb.get(k)}
        raise IncomparableReportsError(f"reports differ in {sorted(diff)}")

    ratios = {round(a / b, 6) for a, b in zip(np.atleast_1d(dt_a), np.atleast_1d(dt_b))}
    dt_varied = ratios not in ({1.0},) and len(ratios) == 1 and ratios <= {0.5, 2.0}
    dt_same = ratios == {1.0}
    m_ratio = m_a / m_b
    m_varied = m_ratio in (0.5, 2.0)
    m_same = m_ratio == 1.0
    if dt_same and m_same:
        variation = "identical"
    elif dt_varied and m_same:
        variation = "dt-halved"
    elif m_varied and dt_same:
        variation = "trajectories-doubled"
    else:
        raise IncomparableReportsError(
            f"reports must differ only in dt halved or M doubled "
            f"(dt ratios {sorted(ratios)}, M ratio {m_ratio})")
    delta = abs(report_a.zeta - report_b.zeta)
    return ConvergenceVerdict(passed=delta <= ConvergenceVerdict.TOLERANCE,
                              delta=float(delta), variation=variation)
