"""Numerical laboratory for delayed non-local reaction-diffusion equations.

Linear theory (decay rates, tangency asymptotics, fundamental solutions)
and the non-local delayed KPP equation (spreading speeds, level sets).
"""

from .kernels import (Dirac, Gaussian, LaplaceKernel, UniformKernel,
                      TiltedKernel, DiscreteKernel, discretize,
                      quadrature_laplace, kernel_from_dict)
from ._roots import halanay_root
from .characteristic import (CharParams, DecayPair, TangencySolution,
                             SpeedPair, gamma_zero, gamma_on_grid,
                             tangency_solve, polish_speed, critical_speeds,
                             tune_kernel_shift, implicit_l, envelope_bounds)
from .grids import Grid, HistoryRing, Trajectory
from .birth import (Nicholson, MackeyGlass, LinearCap, LinearBirth,
                    birth_from_dict)
from .linear_solver import (solve_linear, probe_value,
                            tangency_limit_diagnostic,
                            universal_bound_diagnostic)
from .fundamental import (SymbolTable, gate_check, rho_solve, symbol_table,
                          approx_identity_error, pde_residual)
from .nonlinear import (solve_kpp, LevelCrossings, level_set, LevelScan,
                        LevelSetTrace, trace_levels)
from .experiments import (ExperimentReport, mckean_experiment, logdrift_fit,
                          extinction_experiment, spreading_experiment,
                          bridge_check)
from .presets import preset, preset_names
from .errors import (ConfigError, TransformDomainError, TangencyError,
                     GateError)

__version__ = "0.1.0"
