"""Dynamic fractional-order viscoelasticity solver.

Displacement u of a 2D linearly elastic body with a fading-memory
constitutive law

    rho u'' - div sigma0(u) + int_0^t beta(t-s) div sigma0(u(s)) ds = f

is advanced by a piecewise-constant-in-time (dG(0)) scheme over P1 finite
elements.  The convolution kernel beta is of Mittag-Leffler type with order
alpha, relaxation time tau and total mass gamma < 1, so the long-time
stiffness relaxes to the factor 1 - gamma.

Subpackages: mlf (kernel special functions), weights (convolution weight
tables), fem (assembly), stepper (dG(0) advance), diagnostics (exact discrete
energy balance, long-time limits), scalar (independent single-mode solvers
and convergence harnesses), cli (CSV-emitting command line).
"""

from .config import ConfigError, RunConfig, parse_config
from .diagnostics import EnergyLedger, energy_ledger, long_time_limit
from .fem import (AssembledSystem, ElasticParams, Mesh, assemble,
                  build_rect_mesh, quasi_static_solve, side_traction,
                  traction_load, volume_load)
from .mlf import (KernelParams, beta_double_primitive, beta_primitive,
                  kernel_beta, ml_e)
from .scalar import (ScalarModel, convergence_study, scalar_dg0,
                     scalar_reference)
from .solvers import SolverError, make_spd_solver
from .stepper import SolutionHistory, run, time_average_load
from .weights import (TimeGrid, WeightTable, build_weights,
                      verify_sign_structure)

__version__ = "0.1.0"
