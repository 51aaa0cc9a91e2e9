"""Causal time calculus on exponentially weighted grids, evolutionary
equation solvers, and homogenization convergence experiments."""

from .signals import (
    Coefficient,
    GridMismatchError,
    Signal,
    TimeGrid,
    inner_nu,
    multiply,
    norm_nu,
    shift,
    truncate_before,
)
from .timecalc import (
    MultiplierFunction,
    SpectrumSignal,
    antiderivative,
    apply_multiplier,
    derivative,
    fourier_laplace,
    inverse_fourier_laplace,
    resolvent,
    resolvent_series,
    spectrum_of_antiderivative,
)
from .operators import (
    CausalOp,
    ProbeSet,
    causality_defect,
    nu_independence_defect,
    op_norm,
    transfer_function,
)
from .solvers import (
    OdeBlockSystem,
    PdeSystem,
    SpatialOperator,
    elliptic_solve,
    funid_residual,
    heat_1d_solve,
    maxwell_1d_solve,
    picard_solve,
    solve_evo_pde,
    solve_ode_block,
    wave_1d_solve,
)
from .homogenization import (
    ConvergenceReport,
    bessel_i0,
    dbf_experiment,
    eddy_current_experiment,
    harmonic_mean,
    memory_kernel_experiment,
    ode_weak_limit_equation,
    product_mean_limit,
    strong_error,
    wave_g_convergence_experiment,
    weak_pairing_error,
)

__version__ = "0.1.0"
