"""Command-line interface.

Subcommands: simulate (one time series), sweep (scaling report over an atom
number list), fit (power-law fit of a points file), check (convergence
comparison of two reports).  Exit codes: 0 success, 1 validation error,
2 runtime failure.  Rates are in units of the active atomic decay half-rate.

simulate and sweep validate their input before _run reads the engine's thread
budget, resolves the solver for SystemParams.scheme, checks each N against the
oracle limit and creates --out.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .analysis import (ConvergenceVerdict, IncomparableReportsError,
                       UnresolvedBurstError, convergence_check, power_law_fit,
                       scaling_sweep, sweep_configs)
from .engine import thread_budget
from .fileio import (read_points_file, read_report, write_manifest, write_report,
                     write_timeseries)
from .oracle import check_atom_number
from .params import (SCHEMES, ConfigurationError, NumericalParams, SystemParams,
                     config_echo, validate_params)
from .runners import SOLVERS, resolve_solver, simulate_timeseries


def _add_physics_flags(p: argparse.ArgumentParser):
    p.add_argument("--scheme", required=True, choices=SCHEMES)
    p.add_argument("--g", type=float, default=SystemParams.g,
                   help="atom-cavity coupling (units of the decay rate)")
    p.add_argument("--kappa", type=float, default=SystemParams.kappa,
                   help="cavity decay half-rate")
    p.add_argument("--gamma", type=float, default=SystemParams.gamma,
                   help="atomic decay half-rate (the time unit; default %(default)g)")
    p.add_argument("--detuning", type=float, default=SystemParams.detuning,
                   help="cavity detuning from the atomic frequency (default resonance)")
    p.add_argument("--t-max", type=float, default=NumericalParams.t_max)
    p.add_argument("--dt", type=float, default=NumericalParams.dt)
    p.add_argument("--trajectories", type=int, default=NumericalParams.n_traj)
    p.add_argument("--seed", type=int, default=NumericalParams.seed)


def _raw_config(args, n_atoms: int):
    params = SystemParams(n_atoms, args.scheme, args.g, args.kappa, args.gamma,
                          args.detuning)
    num = NumericalParams(n_traj=args.trajectories, seed=args.seed, dt=args.dt,
                          t_max=args.t_max)
    return params, num


def _run(args, params, num, n_list, solve):
    """Check CAVITY_SR_MAX_WORKERS, resolve the solver, check that an oracle
    can hold every atom number of n_list and create --out, then time
    solve(solver), which returns (result, config, divergent count).  Returns
    the result, --out and the manifest.json record; write_manifest adds its
    outputs."""
    thread_budget()
    solver = resolve_solver(params.scheme, args.solver)
    if solver == "oracle":
        check_atom_number(params.scheme, max(n_list))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    result, config, n_divergent = solve(solver)
    return result, out, {
        "config": config,
        "master_seed": num.seed,
        "solver": f"cavity-sr {__version__} {params.scheme}/{solver}",
        "version": __version__,
        "n_divergent": n_divergent,
        "wall_clock_s": time.perf_counter() - start,
    }


def _cmd_simulate(args) -> int:
    params, num = validate_params(*_raw_config(args, args.n_atoms))

    def solve(solver):
        series = simulate_timeseries(solver, params, num)
        return series, config_echo(params, num, solver), series.n_divergent
    series, out, manifest = _run(args, params, num, [params.n_atoms], solve)
    csv = write_timeseries(series, out / "timeseries.csv")
    write_manifest(manifest, out, [csv])
    print(f"wrote {csv} ({len(series.times)} points, "
          f"{series.n_divergent} divergent)")
    return 0


def _parse_n_list(text: str) -> list[int]:
    n_list, errors = [], []
    for entry in text.split(","):
        try:
            n_list.append(int(entry))
        except ValueError:
            errors.append(f"--n-list entry {entry!r} in {text!r} is not an integer")
    if errors:
        raise ConfigurationError(errors)
    return n_list


def _cmd_sweep(args) -> int:
    n_list = _parse_n_list(args.n_list)
    # keep dt / t_max unresolved so the sweep adapts them per N
    params, num = _raw_config(args, n_list[0])
    sweep_configs(n_list, params, num)

    def solve(solver):
        report = scaling_sweep(solver, n_list, params, num)
        return report, report.config, int(sum(report.divergent))
    report, out, manifest = _run(args, params, num, n_list, solve)
    report_path = write_report(report, manifest, out / "report.json")
    write_manifest(manifest, out, [report_path])
    print(f"zeta = {report.zeta:.4f} +- {report.zeta_stderr:.4f} "
          f"(r^2 = {report.r_squared:.5f}) -> {report_path}")
    return 0


def _cmd_fit(args) -> int:
    points = read_points_file(args.input)
    fit = power_law_fit(points)
    result = {"zeta": fit.zeta, "intercept": fit.intercept,
              "r_squared": fit.r_squared, "zeta_stderr": fit.zeta_stderr,
              "points": [{"n": n, "intensity": i} for n, i in points]}
    text = json.dumps(result, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def _read_checked_report(path):
    """read_report plus what check compares: config keys dt, n_traj, t_max and
    seed, a finite zeta and positive finite dt (one per N) and n_traj, none
    of them a bool; else a ValueError naming the file and the field."""
    report = read_report(path)
    config = report.config if isinstance(report.config, dict) else {}
    missing = {"dt", "n_traj", "t_max", "seed"} - config.keys()
    if missing:
        raise ValueError(f"report {path} lacks the config key {min(missing)!r}")
    for name, value, low in (("zeta", report.zeta, -math.inf), ("config dt", config["dt"], 0),
                             ("config n_traj", config["n_traj"], 0)):
        values = value if isinstance(value, list) else [value]
        if not all(type(v) in (int, float) and low < v < math.inf for v in values):
            raise ValueError(f"report {path}: {name} must hold numbers in ({low}, inf), "
                             f"got {value!r}")
    return report


def _cmd_check(args) -> int:
    verdict = convergence_check(*map(_read_checked_report, (args.report_a, args.report_b)))
    print(json.dumps({"passed": verdict.passed, "delta": verdict.delta,
                      "variation": verdict.variation,
                      "tolerance": ConvergenceVerdict.TOLERANCE}, indent=2))
    return 0 if verdict.passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavity-sr",
        description="Cavity-controlled superradiance: stochastic phase-space "
                    "simulation and scaling analysis")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one time-series simulation")
    _add_physics_flags(p_sim)
    p_sim.add_argument("--solver", required=True, choices=SOLVERS)
    p_sim.add_argument("--n-atoms", type=int, required=True)
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="scaling sweep over atom numbers")
    _add_physics_flags(p_sweep)
    p_sweep.add_argument("--solver", default="stochastic", choices=SOLVERS)
    p_sweep.add_argument("--n-list", default="50,100,200,400",
                         help="comma-separated atom numbers")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fit = sub.add_parser("fit", help="power-law fit of a points file")
    p_fit.add_argument("--input", required=True,
                       help="report JSON or CSV with header n,intensity[,sem]")
    p_fit.add_argument("--out", default=None)
    p_fit.set_defaults(func=_cmd_fit)

    p_check = sub.add_parser("check", help="convergence check of two reports")
    p_check.add_argument("report_a")
    p_check.add_argument("report_b")
    p_check.set_defaults(func=_cmd_check)
    return parser


def cli_dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:           # argparse exits 2 on bad flags
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigurationError, IncomparableReportsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UnresolvedBurstError, RuntimeError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
