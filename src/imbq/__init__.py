"""Pseudospectral lab for the improved modified Boussinesq equation.

    u_tt - u_xx - u_xxtt = sign * (u^p)_xx    on the line,

solved through its frequency-space Duhamel form by Picard iteration, with
an independent RK4 integrator, certification harnesses for the multiplier
symbols steering the linear flow, and norm-inflation experiments probing
the flow map's roughness below L^2.
"""

from .grid import (
    BandWindow,
    FrequencyGrid,
    SpectralField,
    lambda_symbol,
    make_grid,
    random_real_field,
    restricted_norm,
    sobolev_norm,
    sup_norm,
    to_position,
)
from .inflation import (
    DerivativeCheck,
    InflationReport,
    InflationRow,
    IPData,
    QuadratureConfig,
    brute_force_Ap,
    compute_Ap,
    flowmap_derivative_check,
    generic_term_complex,
    grid_for_boxes,
    inflation_ratio,
    make_ip_data,
    ratio_sweep,
)
from .solver import (
    CauchyData,
    ContractionReport,
    ConvergenceError,
    SolverConfig,
    Trajectory,
    dispersion_check,
    energy,
    energy_series,
    free_propagator,
    gaussian_data,
    picard_window,
    rk4_solve,
    single_mode_data,
    solve,
)
from .symbols import (
    BesovEstimate,
    Symbol,
    apply_symbol,
    besov_seminorm,
    besov_seminorms,
    check_kernel_inequality,
    eval_symbol,
    kernel_ratio_sweep,
)

__version__ = "0.1.0"
