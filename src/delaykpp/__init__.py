"""Numerical laboratory for delayed non-local reaction-diffusion equations.

Linear theory (decay rates, tangency asymptotics, fundamental solutions)
and the non-local delayed KPP equation (spreading speeds, level sets,
comparison certificates).
"""

from .kernels import (Dirac, Gaussian, LaplaceKernel, UniformKernel,
                      TiltedKernel, DiscreteKernel, discretize,
                      quadrature_laplace, kernel_from_dict)
from .characteristic import (CharParams, DecayPair, TangencySolution,
                             SpeedPair, halanay_root, gamma_zero,
                             gamma_on_grid, tangency_solve, polish_speed,
                             critical_speeds, implicit_l, envelope_bounds,
                             local_tail_ratio, local_expansion)
from .grids import Grid, HistoryRing
from .birth import (Nicholson, MackeyGlass, LinearCap, LinearBirth,
                    subtangential_defect, birth_from_dict)
from .linear_solver import (LinearTrajectory, scalar_dde_solve, solve_linear,
                            solve_linear_fd, probe_value,
                            tangency_limit_diagnostic,
                            universal_bound_diagnostic)
from .fundamental import (SymbolTable, gate_check, rho_solve, symbol_table,
                          gamma_h_eval, approx_identity_error, pde_residual)
from .nonlinear import (KPPTrajectory, solve_kpp, LevelCrossings, level_set,
                        LevelSetTrace, trace_levels, ComparisonReport,
                        comparison_run)
from .experiments import (ExperimentReport, LogDriftFit, mckean_experiment,
                          logdrift_fit, extinction_experiment,
                          spreading_experiment, bridge_check,
                          verdict_stability, tune_kernel_shift)
from .presets import preset, preset_names
from .errors import (ConfigError, TransformDomainError, TangencyError,
                     GateError)

__version__ = "0.1.0"
