"""Solver dispatch: the one path from validated params to a time series.

The scheme is SystemParams.scheme; a caller resolves the solver name once
(resolve_solver) and passes it to simulate_timeseries or scaling_sweep."""

from __future__ import annotations

from .collective import collective_twa_model, solve_meanfield_collective
from .engine import run_ensemble
from .individual import individual_dtwa_model, solve_meanfield_individual
from .oracle import solve_oracle
from .params import (NumericalParams, SystemParams, SCHEME_COLLECTIVE,
                     SCHEME_INDIVIDUAL)

# the valid (scheme, solver) pairs; the model factories and run_ensemble are
# looked up at call time
_SOLVE = {
    (SCHEME_COLLECTIVE, "twa"):
        lambda params, num: run_ensemble(collective_twa_model(params, num), params, num),
    (SCHEME_INDIVIDUAL, "dtwa"):
        lambda params, num: run_ensemble(individual_dtwa_model(params, num), params, num),
    (SCHEME_COLLECTIVE, "meanfield"): solve_meanfield_collective,
    (SCHEME_INDIVIDUAL, "meanfield"): solve_meanfield_individual,
    (SCHEME_COLLECTIVE, "oracle"): solve_oracle,
    (SCHEME_INDIVIDUAL, "oracle"): solve_oracle,
}
# the --solver choices of simulate and sweep
SOLVERS = ("stochastic", *dict.fromkeys(solver for _, solver in _SOLVE))


def resolve_solver(scheme: str, solver: str) -> str:
    """Resolve "stochastic" to the scheme's phase-space solver and reject
    unknown solvers and invalid scheme/solver pairs."""
    if solver == "stochastic":
        solver = "twa" if scheme == SCHEME_COLLECTIVE else "dtwa"
    if (scheme, solver) not in _SOLVE:
        schemes = [s for s, name in _SOLVE if name == solver]
        raise ValueError(f"--solver {solver} requires --scheme {' or '.join(schemes)}"
                         if schemes else f"unknown solver {solver!r}")
    return solver


def simulate_timeseries(solver: str, params: SystemParams, num: NumericalParams):
    """Run one resolved solver on validated params of scheme params.scheme."""
    solve = _SOLVE.get((params.scheme, solver))
    if solve is None:
        raise ValueError(f"no solver {solver!r} for the {params.scheme} scheme")
    return solve(params, num)
