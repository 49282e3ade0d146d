"""Solver dispatch shared by the CLI and the sweep orchestration."""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import __version__
from .collective import collective_twa_model, solve_meanfield_collective
from .engine import run_ensemble
from .individual import individual_dtwa_model, solve_meanfield_individual
from .oracle import solve_oracle
from .params import (NumericalParams, SystemParams, SCHEME_COLLECTIVE,
                     SCHEME_INDIVIDUAL)

SOLVERS = ("stochastic", "twa", "dtwa", "meanfield", "oracle")


@dataclass(frozen=True)
class RunInfo:
    solver_id: str
    wall_clock_s: float
    n_divergent: int


def resolve_solver(scheme: str, solver: str) -> str:
    """Resolve "stochastic" to the scheme's phase-space solver and reject
    unknown solvers and invalid scheme/solver pairs."""
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    if solver == "stochastic":
        solver = "twa" if scheme == SCHEME_COLLECTIVE else "dtwa"
    if solver == "twa" and scheme != SCHEME_COLLECTIVE:
        raise ValueError("--solver twa requires --scheme collective")
    if solver == "dtwa" and scheme != SCHEME_INDIVIDUAL:
        raise ValueError("--solver dtwa requires --scheme individual")
    if scheme not in (SCHEME_COLLECTIVE, SCHEME_INDIVIDUAL):
        raise ValueError(f"unknown scheme {scheme!r}")
    return solver


def simulate_timeseries(scheme: str, solver: str, params: SystemParams,
                        num: NumericalParams):
    """Run one (scheme, solver) time-series simulation on validated params."""
    solver = resolve_solver(scheme, solver)
    if params.scheme != scheme:
        raise ValueError(f"params configured for {params.scheme}, asked for {scheme}")
    start = time.perf_counter()
    if solver == "twa":
        series = run_ensemble(collective_twa_model(params, num), params, num)
    elif solver == "dtwa":
        series = run_ensemble(individual_dtwa_model(params, num), params, num)
    elif solver == "meanfield":
        if scheme == SCHEME_COLLECTIVE:
            series = solve_meanfield_collective(params, num)
        else:
            series = solve_meanfield_individual(params, num)
    else:
        series = solve_oracle(params, num)
    info = RunInfo(solver_id=f"cavity-sr {__version__} {scheme}/{solver}",
                   wall_clock_s=time.perf_counter() - start,
                   n_divergent=series.n_divergent)
    return series, info
