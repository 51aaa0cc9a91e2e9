"""Exhaustive causality certification of solution operators.

For a causal map S the output truncated before t must agree with the output
for input truncated before t, at every cut.  Running a fresh solve per cut
is quadratic in the node count, so the audits feed the production steppers
of `solvers` the ensemble of truncated inputs (one column per cut, the uncut
input last), one stepping pass per block of columns, and accumulate the
weighted defect of each column online.  The Picard audit runs `picard_solve`
itself on the same blocks.

All audits return max over cuts of |Q_t S f - Q_t S Q_t f| / |f| in the
weighted norm of the grid.
"""

from __future__ import annotations

import numpy as np

from .signals import NORM_FLOOR, Signal, TimeGrid
from .solvers import OdeBlockSystem, PdeSystem, _pde_steps, _step_ode_block, picard_solve

__all__ = [
    "audit_ode_block",
    "audit_pde",
    "audit_picard",
]

# Ensemble columns per pass, the uncut one included; bounds the memory of
# the stepper audits at O(m * BLOCK) and of the Picard audit at O(n * BLOCK).
BLOCK = 256


def _finish(acc: np.ndarray, f_norm2: float) -> float:
    return float(np.sqrt(np.max(acc) / max(f_norm2, NORM_FLOOR)))


def _ensemble_defect(stepper, sys, F: Signal, grid: TimeGrid) -> float:
    """All-cuts defect of a per-node stepper.

    `stepper(sys, rows, grid)` must yield the state at each node for RHS rows
    of shape (m, K).  The cuts go in blocks of BLOCK - 1; in a block's pass,
    the column of cut j carries F_k in row k when k < j, so it is F
    truncated before cut j, and the last column carries F itself.  Node k
    counts only for the cuts after it, so a pass ends at its last cut.
    """
    n = grid.n
    w = grid.quad_weights()
    acc = np.zeros(n)
    for start in range(0, n, BLOCK - 1):
        stop = min(start + BLOCK - 1, n)
        cols = np.append(np.arange(start, stop), n)
        rows = (f[:, None] * (k < cols) for k, f in enumerate(F.values))
        for k, u in zip(range(stop - 1), stepper(sys, rows, grid)):
            i = max(k + 1, start)
            acc[i:stop] += w[k] * np.sum(np.abs(u[:, i - start:-1] - u[:, -1:]) ** 2, axis=0)
    return _finish(acc, float(w @ np.sum(np.abs(F.values) ** 2, axis=1)))


def audit_ode_block(sys: OdeBlockSystem, F: Signal, grid: TimeGrid) -> float:
    """All-cuts causality defect of the block time-stepping solve."""
    return _ensemble_defect(_step_ode_block, sys, F, grid)


def audit_pde(sys: PdeSystem, F: Signal, grid: TimeGrid) -> float:
    """All-cuts causality defect of the PDE stepping engines."""
    return _ensemble_defect(_pde_steps, sys, F, grid)


def _audit_skew(sys: PdeSystem, F: Signal, grid: TimeGrid) -> float:
    # kept for the benchmark's skew-audit operation, which calls it by name
    return audit_pde(sys, F, grid)


def audit_picard(F_rule, lip: float, f: Signal) -> float:
    """All-cuts causality defect of the fixed-point solution map.

    Runs `picard_solve` on blocks of the truncated-input ensemble; the map
    is nonlinear but the defect definition needs no linearity.  Each block
    carries the uncut input as its last column, so the reference and the
    cut columns go through the same iterations.
    """
    grid = f.grid.with_nu(2.0 * lip)
    n = grid.n
    w = grid.quad_weights()
    fv = f.values[:, 0]
    acc = np.zeros(n)
    for start in range(0, n, BLOCK - 1):
        cuts = np.arange(start, min(start + BLOCK - 1, n))
        mask = np.arange(n)[:, None] < cuts[None, :]
        ens = Signal(grid, np.column_stack([fv[:, None] * mask, fv]))
        u = picard_solve(F_rule, lip, ens).values
        acc[cuts] = w @ (np.abs(u[:, :-1] - u[:, -1:]) ** 2 * mask)
    return _finish(acc, float(w @ np.abs(fv) ** 2))
