"""Cavity-controlled superradiance toolkit.

Stochastic phase-space solvers (collective TWA, individual DTWA), free-space
mean-field references (the one equation per scheme that full inversion
leaves), an exact small-N Lindblad oracle, and a power-law scaling harness
for the emission strength versus atom number.
"""

__version__ = "0.1.0"

from .params import (ConfigurationError, NumericalParams, SystemParams,
                     collective_params, default_horizon, default_time_step,
                     individual_params, validate_params)
from .series import ObservableSeries, time_grid
from .wiener import CHUNK_SIZE
from .engine import EnsembleDivergenceError, EnsembleModel, run_ensemble
from .collective import collective_twa_model, solve_meanfield_collective
from .individual import individual_dtwa_model, solve_meanfield_individual
from .oracle import (BasisDescriptor, Liouvillian, build_liouvillian,
                     evolve_density_matrix, solve_oracle)
from .analysis import (ConvergenceVerdict, EmissionMeasurement,
                       IncomparableReportsError, PowerLawFit, ScalingReport,
                       UnresolvedBurstError, convergence_check,
                       emission_strength, moving_average, power_law_fit,
                       scaling_sweep)
from .runners import resolve_solver, simulate_timeseries
