"""Grid functions on exponentially weighted time lattices.

The continuous object being modelled is a square-integrable function on the
real line measured against the weight exp(-2*nu*t).  Large nu damps the
future, which is what makes the causal time calculus in `timecalc` work.
Everything here is a plain numpy array plus a little bookkeeping; all values
are immutable after construction.  A `Signal` shares an array that cannot
change (complex128, 2-D, C-contiguous, owning its memory and read-only) and
copies anything else, so a fresh result that is frozen, and a relabelling
`Signal(grid2, f.values)`, cost no copy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "TimeGrid",
    "Signal",
    "Coefficient",
    "GridMismatchError",
    "inner_nu",
    "norm_nu",
    "truncate_before",
    "shift",
    "multiply",
]

# Floor for norms used as denominators, so zero signals give 0, not nan.
NORM_FLOOR = 1e-30


class GridMismatchError(ValueError):
    """Two signals live on different lattices (t0, dt, n), at different
    weights nu, or their dims differ."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform causal time lattice with exponential weight parameter nu.

    Nodes are t_k = t0 + k*dt for k = 0..n-1.  Two signals interoperate only
    when their (t0, dt, n, nu) coincide: nu is the weight of the space the
    signals live in, and the only one their inner product and norm use.  A
    caller that needs another weight moves a signal onto `with_nu(nu)`.
    """

    t0: float
    dt: float
    n: int
    nu: float

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n < 2:
            raise ValueError(f"need at least 2 nodes, got n={self.n}")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * (self.n - 1)

    def quad_weights(self) -> np.ndarray:
        """Trapezoid weights times the exponential density exp(-2*nu*t),
        read-only and computed once per (t0, dt, n, nu)."""
        return _quad_weights(self.t0, self.dt, self.n, self.nu)

    def with_nu(self, nu: float) -> "TimeGrid":
        return TimeGrid(self.t0, self.dt, self.n, nu)


@functools.lru_cache(maxsize=16)
def _quad_weights(t0: float, dt: float, n: int, nu: float) -> np.ndarray:
    """`TimeGrid.quad_weights` by value: `with_nu` makes a new grid per call,
    and a power iteration asks for the same weights at every step."""
    w = np.full(n, dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    w = w * np.exp(-2.0 * nu * (t0 + dt * np.arange(n)))
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class Signal:
    """Vector-valued grid function: values[k] is the state at node t_k.

    `values` is taken as it is, without a copy, when no one can change it:
    a complex128, 2-D, C-contiguous array that owns its memory and is
    read-only.  Anything else is copied into such an array, and a 1-D input
    becomes its own (n, 1) array, so a writeable source is never aliased.
    """

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values)
        if not (v.dtype == np.complex128 and v.ndim == 2 and v.flags.c_contiguous
                and v.flags.owndata and not v.flags.writeable):
            v = np.array(v[:, None] if v.ndim == 1 else v, dtype=complex, order="C")
            v.setflags(write=False)
        if v.shape[0] != self.grid.n:
            raise ValueError(
                f"values has {v.shape[0]} rows, grid has {self.grid.n} nodes"
            )
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @staticmethod
    def zero(grid: TimeGrid, dim: int = 1) -> "Signal":
        return _frozen(grid, np.zeros((grid.n, dim), dtype=complex))

    @staticmethod
    def indicator(grid: TimeGrid, a: float, b: float, dim: int = 1) -> "Signal":
        """1 on [a, b), 0 elsewhere, in every component."""
        t = grid.times
        mask = ((t >= a) & (t < b)).astype(complex)
        return _frozen(grid, np.repeat(mask[:, None], dim, axis=1))

    def __add__(self, other: "Signal") -> "Signal":
        _check_compatible(self, other)
        return _frozen(self.grid, self.values + other.values)

    def __sub__(self, other: "Signal") -> "Signal":
        _check_compatible(self, other)
        return _frozen(self.grid, self.values - other.values)

    def __mul__(self, scalar: complex) -> "Signal":
        return _frozen(self.grid, self.values * scalar)

    __rmul__ = __mul__


def _frozen(grid: TimeGrid, v: np.ndarray) -> Signal:
    """A `Signal` on a fresh array, which is made read-only so that the
    `Signal` takes it without a copy."""
    v.setflags(write=False)
    return Signal(grid, v)


def _check_compatible(f: Signal, g: Signal):
    gf, gg = f.grid, g.grid
    if gf != gg:
        raise GridMismatchError(
            f"grids differ: (t0,dt,n,nu)=({gf.t0},{gf.dt},{gf.n},{gf.nu}) vs "
            f"({gg.t0},{gg.dt},{gg.n},{gg.nu})"
        )
    if f.dim != g.dim:
        raise GridMismatchError(f"dims differ: {f.dim} vs {g.dim}")


def inner_nu(f: Signal, g: Signal) -> complex:
    """Weighted inner product <f, g>_nu at the weight nu of the signals'
    shared grid, anti-linear in the first argument.

    Trapezoid quadrature of the integral of <f(t), g(t)> exp(-2*nu*t) over
    the grid window; error O(dt^2) for smooth integrands.
    """
    _check_compatible(f, g)
    return _inner_values(f.grid.quad_weights(), f.values, g.values)


def _inner_values(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> complex:
    """The quadrature sum behind `inner_nu` on raw (n, dim) value arrays.

    The row sums of conj(a) * b are formed over blocks of at most 2^16
    entries, so no (n, dim) temporary is made; each row's sum, and so the
    quadrature sum, has the same bits as in one pass over all rows."""
    rows = np.empty(len(a), dtype=complex)
    step = max(1, 2**16 // max(a.shape[1], 1))
    for start in range(0, len(a), step):
        block = slice(start, start + step)
        rows[block] = np.sum(np.conj(a[block]) * b[block], axis=1)
    return complex(np.sum(w * rows))


def norm_nu(f: Signal) -> float:
    """The norm of f at the weight of its grid."""
    val = inner_nu(f, f).real
    return float(np.sqrt(max(val, 0.0)))


def truncate_before(f: Signal, t: float) -> Signal:
    """Keep the strict past: zero all nodes with t_k >= t.

    This is the sharp-cutoff projection used by every causality diagnostic;
    applying it twice changes nothing.
    """
    mask = (f.grid.times < t).astype(float)
    return _frozen(f.grid, f.values * mask[:, None])


def shift(f: Signal, h: float) -> Signal:
    """Time translation (shift(f, h))(t) = f(t + h) for grid-aligned h.

    Values translated in from outside the window are zero.  h < 0 delays the
    signal (causal direction); h > 0 peeks into the future.
    """
    steps = h / f.grid.dt
    k = int(round(steps))
    if abs(steps - k) > 1e-9:
        raise ValueError(f"shift h={h} is not an integer multiple of dt={f.grid.dt}")
    out = np.zeros_like(f.values)
    if k == 0:
        out[:] = f.values
    elif k > 0:
        out[:-k] = f.values[k:]
    else:
        out[-k:] = f.values[:k]
    return _frozen(f.grid, out)


@dataclass(frozen=True)
class Coefficient:
    """Matrix-valued coefficient acting nodewise on signals.

    `sampler(times)` takes a grid's whole time array and returns either one
    dim x dim matrix, the value at every node, or the (n, dim, dim) stack;
    any other shape raises.  A coefficient is time-independent exactly when
    its sampler returns one matrix: `sample_all` then returns that matrix
    broadcast over the nodes (`strides[0] == 0`), the rule every solver
    reads.  `pos_const` is a claimed accretivity constant c with
    Re <M xi, xi> >= c |xi|^2, kept as data; the solvers certify positivity
    themselves.  `deriv_sampler`, the analytic time derivative, follows the
    same contract and is data, never a difference of samples (zero for
    constants and space profiles); `sample_deriv_all` raises without it.
    `diagonal` holds the cell values of a space profile, and only a space
    profile carries it.
    """

    dim: int
    sampler: Callable[[np.ndarray], np.ndarray]
    pos_const: float | None = None
    deriv_sampler: Callable[[np.ndarray], np.ndarray] | None = None
    diagonal: np.ndarray | None = field(default=None, repr=False, compare=False)

    @staticmethod
    def constant(matrix, pos_const: float | None = None) -> "Coefficient":
        m = np.atleast_2d(np.asarray(matrix, dtype=complex))
        zero = np.zeros_like(m)
        return Coefficient(
            dim=m.shape[0],
            sampler=lambda t, _m=m: _m,
            pos_const=pos_const,
            deriv_sampler=lambda t, _z=zero: _z,
        )

    @staticmethod
    def space_profile(edge_values) -> "Coefficient":
        """Time-independent diagonal coefficient sampled on spatial cells.

        Only the cell values are stored (O(m)); the sampler builds the full
        diagonal matrix when called, and 1D solvers read `diagonal` instead.
        A non-finite cell value raises, as a non-finite sample does.
        """
        vals = np.array(edge_values, dtype=complex)
        finite = np.isfinite(vals)
        if not finite.all():
            raise ValueError(f"space profile has a non-finite value at cell {np.argmin(finite)}")
        vals.setflags(write=False)
        return Coefficient(
            dim=len(vals),
            sampler=lambda t: np.diag(vals),
            deriv_sampler=lambda t: np.zeros((len(vals),) * 2, dtype=complex),
            diagonal=vals,
        )

    @staticmethod
    def scalar_profile(
        fn: Callable[[np.ndarray], complex],
        dim: int = 1,
        deriv: Callable[[np.ndarray], complex] | None = None,
    ) -> "Coefficient":
        """fn(times) times the identity; fn returns one value per time, or
        one value for all of them (a constant)."""
        eye = np.eye(dim, dtype=complex)
        deriv_sampler = None
        if deriv is not None:
            deriv_sampler = lambda t: np.multiply.outer(deriv(t), eye)
        return Coefficient(
            dim=dim,
            sampler=lambda t: np.multiply.outer(fn(t), eye),
            deriv_sampler=deriv_sampler,
        )

    def sample_all(self, grid: TimeGrid) -> np.ndarray:
        """Read-only stack of matrices, one per grid node, shape
        (n, dim, dim): a broadcast view of one matrix when the coefficient
        is time-independent."""
        return self._stack(self.sampler, grid)

    def sample_deriv_all(self, grid: TimeGrid) -> np.ndarray:
        if self.deriv_sampler is None:
            raise ValueError("coefficient carries no analytic time derivative")
        return self._stack(self.deriv_sampler, grid)

    def _stack(self, sampler: Callable[[np.ndarray], np.ndarray], grid: TimeGrid) -> np.ndarray:
        shape = (grid.n, self.dim, self.dim)
        times = grid.times
        vals = np.asarray(sampler(times), dtype=complex)
        if vals.shape not in (shape, shape[1:]):
            raise ValueError(f"sampler returned shape {vals.shape}, need {shape[1:]} or {shape}")
        finite = np.isfinite(vals).all(axis=(-2, -1))  # one check for the stack
        if not finite.all():
            raise ValueError(f"sampler returned non-finite entries at t={times[np.argmin(finite)]}")
        return np.broadcast_to(vals, shape)


def multiply(c: Coefficient, f: Signal) -> Signal:
    """Nodewise matrix-vector product (c f)(t_k) = c(t_k) f(t_k)."""
    if c.dim != f.dim:
        raise GridMismatchError(f"coefficient dim {c.dim} != signal dim {f.dim}")
    mats = c.sample_all(f.grid)
    return _frozen(f.grid, np.einsum("kij,kj->ki", mats, f.values))
