"""Causal time calculus on exponentially weighted grids, evolutionary
equation solvers, and homogenization convergence experiments.

Each name is imported from the module that defines it and lists it in its
`__all__`, e.g. `from evocalc.solvers import solve_evo_pde`."""

from . import homogenization, operators, signals, solvers, timecalc

__version__ = "0.1.0"
