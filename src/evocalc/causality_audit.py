"""Exhaustive causality certification of solution operators.

For a causal map S the output truncated before t must agree with the output
for input truncated before t, at every cut.  Running a fresh solve per cut
is quadratic in the node count, so the audits feed the production steppers
of `solvers` the ensemble of truncated inputs (one column per cut, the uncut
input last), one stepping pass per block of columns, and accumulate the
weighted defect of each column online.  Before a block's first cut every
column carries F, so a pass steps that shared past as one column and widens
to the block's columns at its first cut; a stepper that reads ahead of the
node it yields meets the wide rows as early as it reads them, so its leak
still shows.  The Picard audit runs `picard_solve` itself on the same
blocks.

Each block fills its own slice of the per-cut defects, so the blocks run in
any order and in any process with the same bits: they go through
`forkmap.map`, on two processes where the host has two CPUs.

All audits return max over cuts of |Q_t S f - Q_t S Q_t f| / |f| in the
weighted norm of the grid.
"""

from __future__ import annotations

import numpy as np

from . import forkmap
from .signals import NORM_FLOOR, GridMismatchError, Signal, TimeGrid
from .solvers import OdeBlockSystem, PdeSystem, _pde_steps, picard_solve

__all__ = [
    "audit_ode_block",
    "audit_pde",
    "audit_picard",
]

# Ensemble columns per pass, the uncut one included; bounds the memory of
# the stepper audits at O(m * BLOCK) and of the Picard audit at O(n * BLOCK).
# A stepper audit costs about n * BLOCK column steps plus n^2 / (2 * BLOCK)
# one-column steps of the blocks' shared pasts.  At n = 401 every audit is
# faster at 128 than at 256; at n = 3001 the stepper audits are slower and
# the Picard audit faster, about even in total.
BLOCK = 128


def _finish(acc: np.ndarray, f_norm2: float) -> float:
    return float(np.sqrt(np.max(acc) / max(f_norm2, NORM_FLOOR)))


def _map_blocks(block, n: int) -> np.ndarray:
    """The per-cut defects of n cuts, block(start) for the block of BLOCK - 1
    cuts from each start.  The blocks go to the map last-first, which hands
    them out in block order."""
    return np.concatenate(forkmap.map(block, range(0, n, BLOCK - 1)[::-1])[::-1])


def _ensemble_defect(stepper, sys, F: Signal, grid: TimeGrid) -> float:
    """All-cuts defect of a per-node stepper.

    `stepper(sys, rows, grid)` must yield the state at each node for RHS rows
    of shape (m, K), and keep its state one column wide while the rows it
    has read are (m, 1), widening when they widen.  The cuts go in blocks of
    BLOCK - 1; in a block's pass, the column of cut j carries F_k in row k
    when k < j, so it is F truncated before cut j, and the last column
    carries F itself.  Rows before the block's first cut are the same in
    every column and go in as the one column F_k; a node whose state is
    still one column wide has equal columns by construction and adds
    nothing.  Node k counts only for the cuts after it, so a pass ends at
    its last cut, and its stepper gets the grid's nodes up to there.
    """
    if grid != F.grid:
        raise GridMismatchError(f"audit grid {grid} differs from the signal's grid {F.grid}")
    n = grid.n
    w = grid.quad_weights()

    def block(start):
        stop = min(start + BLOCK - 1, n)
        cols = np.append(np.arange(start, stop), n)
        rows = (f[:, None] if k < start else f[:, None] * (k < cols)
                for k, f in enumerate(F.values))
        head = TimeGrid(grid.t0, grid.dt, stop, grid.nu)
        acc = np.zeros(stop - start)
        for k, u in zip(range(stop - 1), stepper(sys, rows, head)):
            if u.shape[1] == 1:
                continue
            i = max(k + 1, start)
            acc[i - start:] += w[k] * np.sum(np.abs(u[:, i - start:-1] - u[:, -1:]) ** 2, axis=0)
        return acc

    return _finish(_map_blocks(block, n), float(w @ np.sum(np.abs(F.values) ** 2, axis=1)))


def audit_ode_block(sys: OdeBlockSystem, F: Signal, grid: TimeGrid) -> float:
    """All-cuts causality defect of the block time-stepping solve; grid must
    be F's."""
    return _ensemble_defect(_pde_steps, sys, F, grid)


def audit_pde(sys: PdeSystem, F: Signal, grid: TimeGrid) -> float:
    """All-cuts causality defect of the PDE stepping engines; grid must be
    F's."""
    return _ensemble_defect(_pde_steps, sys, F, grid)


def _audit_skew(sys: PdeSystem, F: Signal, grid: TimeGrid) -> float:
    # kept for the benchmark's skew-audit operation, which calls it by name
    return audit_pde(sys, F, grid)


def audit_picard(F_rule, lip: float, f: Signal) -> float:
    """All-cuts causality defect of the fixed-point solution map.

    Runs `picard_solve` on blocks of the truncated-input ensemble; the map
    is nonlinear but the defect definition needs no linearity.  Each block
    carries the uncut input as its last column, so the reference and the
    cut columns go through the same iterations.  The ensemble takes the
    state columns, so f must have dim 1 and the rule must act column by
    column: on the stack [f, f/2] it must agree with its action on each
    column alone to 1e-12 relative.
    """
    if f.dim != 1:
        raise ValueError(f"the Picard audit needs a dim-1 input, got dim {f.dim}")
    grid = f.grid.with_nu(2.0 * lip)
    n = grid.n
    w = grid.quad_weights()
    fv = f.values[:, 0]
    pair = np.column_stack([fv, fv / 2])
    joint = np.asarray(F_rule(pair), dtype=complex)
    alone = np.column_stack([np.asarray(F_rule(pair[:, j:j + 1]), dtype=complex) for j in (0, 1)])
    if joint.shape != alone.shape:
        raise ValueError(f"rule mapped the {pair.shape} stack to shape {joint.shape}")
    gap = np.linalg.norm(joint - alone) / max(np.linalg.norm(alone), NORM_FLOOR)
    if not gap <= 1e-12:
        raise ValueError(f"the Picard audit needs a column-wise rule: on two columns "
                         f"it differs from one column at a time by {gap:.2e}")

    def block(start):
        cuts = np.arange(start, min(start + BLOCK - 1, n))
        mask = np.arange(n)[:, None] < cuts[None, :]
        ens = Signal(grid, np.column_stack([fv[:, None] * mask, fv]))
        u = picard_solve(F_rule, lip, ens).values
        return w @ (np.abs(u[:, :-1] - u[:, -1:]) ** 2 * mask)

    return _finish(_map_blocks(block, n), float(w @ np.abs(fv) ** 2))
