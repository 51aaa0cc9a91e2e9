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
any order and in any process with the same bits.  With at least
`FORK_MIN_BLOCKS` blocks and two CPUs, an audit runs block 0 itself and
block 1 in one `os.fork` child; then each takes the next block from a
queue shared through a pipe, so when the host slows one process the other
takes more of the blocks.  The child pipes its results (or its exception,
re-raised here) back and always ends with the audit.  Without `os.fork` or
a second CPU, or with fewer blocks, the blocks run in turn in this
process.

All audits return max over cuts of |Q_t S f - Q_t S Q_t f| / |f| in the
weighted norm of the grid.
"""

from __future__ import annotations

import os
import pickle
import select
import signal

import numpy as np

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

# Fewest blocks worth a forked child.  A bare fork, pipe and wait take about
# 2 ms in a 45 MB process, and two busy processes slow each other on a
# 2-core host.  There (best of 15 per route), at 2 blocks (n = 254) the
# ODE-block and skew audits took 5.5 -> 7.2 and 4.9 -> 7.0 ms forked while
# the other four gained 25-28%; at 3 blocks (n = 381) those two lost under
# 1 ms (8.7 -> 9.3, 8.3 -> 9.3) and the other four gained 22-33%.
FORK_MIN_BLOCKS = 3

# Most blocks past the first two that the shared block queue holds: 4-byte
# records in one write of at most PIPE_BUF bytes, which an empty pipe takes
# whole (1024 on Linux, so up to n = 130,302 cuts); with more blocks an
# audit runs serially.
QUEUE_MAX = getattr(select, "PIPE_BUF", 512) // 4


def _finish(acc: np.ndarray, f_norm2: float) -> float:
    return float(np.sqrt(np.max(acc) / max(f_norm2, NORM_FLOOR)))


def _map_blocks(block, n: int) -> np.ndarray:
    """The per-cut defects acc of n cuts, acc[start:stop] = block(start)
    for each block of BLOCK - 1 cuts."""
    starts = range(0, n, BLOCK - 1)
    pairs = _forked(block, starts) if _two_processes(len(starts)) else zip(starts, map(block, starts))
    acc = np.zeros(n)
    for start, values in pairs:
        acc[start:start + len(values)] = values
    return acc


def _two_processes(blocks: int) -> bool:
    if not FORK_MIN_BLOCKS <= blocks <= QUEUE_MAX + 2:
        return False
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return False
    return len(os.sched_getaffinity(0)) >= 2


def _forked(block, starts: range) -> list:
    """(start, block(start)) for every start, from this process and one
    forked child.  This process runs block 0 and the child block 1; then
    each takes the next block from a shared queue until it is empty, so a
    process that the host slows takes fewer blocks.  The child's exception
    is re-raised here; an exception here kills the child.  Either way the
    child is reaped before this returns.  The child leaves by `os._exit`,
    so it runs none of the parent's exit handlers and flushes none of its
    buffers."""
    parent = os.getpid()
    fds = [_block_queue(range(2, len(starts)))]
    try:
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    queue_fd, read_fd, write_fd = fds
    if pid == 0:
        try:
            os.close(read_fd)
            payload = _child_payload(block, _taken(starts, 1, queue_fd), parent)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            mine = [(start, block(start)) for start in _taken(starts, 0, queue_fd)]
            payload = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            os.close(queue_fd)
    _, status = os.waitpid(pid, 0)
    if not payload:
        raise RuntimeError(f"the audit's forked worker ended without a result "
                           f"(exit code {os.waitstatus_to_exitcode(status)})")
    theirs, exc = pickle.loads(payload)
    if exc is not None:
        raise exc
    return mine + theirs


def _block_queue(numbers: range) -> int:
    """The read end of a pipe that holds `numbers` as 4-byte records, its
    write end closed.  An empty pipe takes a write of at most PIPE_BUF
    bytes whole, and a read of 4 bytes takes one whole record, so two
    processes reading the pipe take each number once."""
    read_fd, write_fd = os.pipe()
    try:
        os.write(write_fd, b"".join(i.to_bytes(4, "little") for i in numbers))
    except OSError:
        os.close(read_fd)
        raise
    finally:
        os.close(write_fd)
    return read_fd


def _taken(starts: range, first: int, queue_fd: int):
    """starts[first], then the starts of the numbers read from the queue
    until it is empty."""
    yield starts[first]
    while record := os.read(queue_fd, 4):
        yield starts[int.from_bytes(record, "little")]


def _child_payload(block, starts, parent: int) -> bytes:
    """The pickled (pairs, None) of the child's blocks, or ([], exception);
    the child ends at once if its parent has gone."""
    try:
        pairs = []
        for start in starts:
            if os.getppid() != parent:
                os._exit(1)
            pairs.append((start, block(start)))
        return pickle.dumps((pairs, None))
    except BaseException as exc:  # sent to the parent, which re-raises it
        try:
            return pickle.dumps(([], exc))
        except Exception:  # an exception pickle cannot carry
            return pickle.dumps(([], RuntimeError(f"{type(exc).__name__}: {exc}")))


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
