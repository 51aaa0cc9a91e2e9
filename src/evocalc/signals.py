"""Grid functions on exponentially weighted time lattices.

The continuous object being modelled is a square-integrable function on the
real line measured against the weight exp(-2*nu*t).  Large nu damps the
future, which is what makes the causal time calculus in `timecalc` work.
Everything here is a plain numpy array plus a little bookkeeping; all values
are immutable after construction.
"""

from __future__ import annotations

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
    """Two signals live on different lattices (t0, dt, n) or dims differ."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform causal time lattice with exponential weight parameter nu.

    Nodes are t_k = t0 + k*dt for k = 0..n-1.  Two signals interoperate only
    when their (t0, dt, n) coincide; nu rides along as the weight used by the
    inner product.
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
        """Trapezoid weights times the exponential density exp(-2*nu*t)."""
        w = np.full(self.n, self.dt)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w * np.exp(-2.0 * self.nu * self.times)

    def with_nu(self, nu: float) -> "TimeGrid":
        return TimeGrid(self.t0, self.dt, self.n, nu)

    def node_index(self, t: float) -> int:
        """Index of the grid node at time t; t must be grid aligned."""
        k = (t - self.t0) / self.dt
        ki = int(round(k))
        if abs(k - ki) > 1e-9:
            raise ValueError(f"t={t} is not aligned to the grid (offset {k - ki})")
        return ki


@dataclass(frozen=True)
class Signal:
    """Vector-valued grid function: values[k] is the state at node t_k."""

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=complex, order="C")  # a private copy
        if v.ndim == 1:
            v = v[:, None]
        if v.shape[0] != self.grid.n:
            raise ValueError(
                f"values has {v.shape[0]} rows, grid has {self.grid.n} nodes"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @staticmethod
    def zero(grid: TimeGrid, dim: int = 1) -> "Signal":
        return Signal(grid, np.zeros((grid.n, dim), dtype=complex))

    @staticmethod
    def indicator(grid: TimeGrid, a: float, b: float, dim: int = 1) -> "Signal":
        """1 on [a, b), 0 elsewhere, in every component."""
        t = grid.times
        mask = ((t >= a) & (t < b)).astype(complex)
        return Signal(grid, np.repeat(mask[:, None], dim, axis=1))

    def support_start(self) -> float:
        """Time of the first nonzero node (window end + dt if identically 0).

        Signals produced as "supported from t_s" are bit-exactly zero before
        t_s, so this is an exact, testable notion on the lattice.
        """
        nonzero = np.any(self.values != 0, axis=1)
        idx = np.argmax(nonzero)
        if not nonzero[idx]:
            return self.grid.t_end + self.grid.dt
        return float(self.grid.times[idx])

    def __add__(self, other: "Signal") -> "Signal":
        _check_compatible(self, other)
        return Signal(self.grid, self.values + other.values)

    def __sub__(self, other: "Signal") -> "Signal":
        _check_compatible(self, other)
        return Signal(self.grid, self.values - other.values)

    def __mul__(self, scalar: complex) -> "Signal":
        return Signal(self.grid, self.values * scalar)

    __rmul__ = __mul__


def _check_compatible(f: Signal, g: Signal):
    gf, gg = f.grid, g.grid
    if (gf.t0, gf.dt, gf.n) != (gg.t0, gg.dt, gg.n):
        raise GridMismatchError(
            f"grids differ: (t0,dt,n)=({gf.t0},{gf.dt},{gf.n}) vs "
            f"({gg.t0},{gg.dt},{gg.n})"
        )
    if f.dim != g.dim:
        raise GridMismatchError(f"dims differ: {f.dim} vs {g.dim}")


def inner_nu(f: Signal, g: Signal, nu: float | None = None) -> complex:
    """Weighted inner product <f, g>_nu, anti-linear in the first argument.

    Trapezoid quadrature of the integral of <f(t), g(t)> exp(-2*nu*t) over
    the grid window; error O(dt^2) for smooth integrands.
    """
    _check_compatible(f, g)
    grid = f.grid if nu is None else f.grid.with_nu(nu)
    w = grid.quad_weights()
    return complex(np.sum(w * np.sum(np.conj(f.values) * g.values, axis=1)))


def norm_nu(f: Signal, nu: float | None = None) -> float:
    val = inner_nu(f, f, nu=nu).real
    return float(np.sqrt(max(val, 0.0)))


def truncate_before(f: Signal, t: float) -> Signal:
    """Keep the strict past: zero all nodes with t_k >= t.

    This is the sharp-cutoff projection used by every causality diagnostic;
    applying it twice changes nothing.
    """
    mask = (f.grid.times < t).astype(float)
    return Signal(f.grid, f.values * mask[:, None])


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
    return Signal(f.grid, out)


@dataclass(frozen=True)
class Coefficient:
    """Matrix-valued coefficient acting nodewise on signals.

    `sampler(t)` returns the dim x dim matrix at time t.  `pos_const` is a
    claimed accretivity constant c with Re <M xi, xi> >= c |xi|^2; it is
    spot-checked, never assumed.  `deriv_sampler`, when present, is the
    analytic time derivative (supplied as data, never obtained by numerical
    differentiation of samples).  `diagonal` holds the cell values of a
    space profile.
    """

    dim: int
    sampler: Callable[[float], np.ndarray]
    pos_const: float | None = None
    deriv_sampler: Callable[[float], np.ndarray] | None = None
    kind: str = "time-profile"
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
            kind="constant-matrix",
        )

    @staticmethod
    def space_profile(edge_values, pos_const: float | None = None) -> "Coefficient":
        """Time-independent diagonal coefficient sampled on spatial cells.

        Only the cell values are stored (O(m)); the sampler builds the full
        diagonal matrix when called, and 1D solvers read the cells instead.
        """
        vals = np.array(edge_values, dtype=complex)
        vals.setflags(write=False)
        return Coefficient(
            dim=len(vals),
            sampler=lambda t: np.diag(vals),
            pos_const=pos_const,
            deriv_sampler=lambda t: np.zeros((len(vals),) * 2, dtype=complex),
            kind="space-profile",
            diagonal=vals,
        )

    def diagonal_values(self) -> np.ndarray:
        """Read-only cell values of a space-profile coefficient."""
        if self.kind != "space-profile":
            raise ValueError(f"not a space profile: kind={self.kind}")
        return self.diagonal

    @staticmethod
    def scalar_profile(
        fn: Callable[[float], complex],
        dim: int = 1,
        pos_const: float | None = None,
        deriv: Callable[[float], complex] | None = None,
    ) -> "Coefficient":
        eye = np.eye(dim, dtype=complex)
        deriv_sampler = None
        if deriv is not None:
            deriv_sampler = lambda t: deriv(t) * eye
        return Coefficient(
            dim=dim,
            sampler=lambda t: fn(t) * eye,
            pos_const=pos_const,
            deriv_sampler=deriv_sampler,
            kind="time-profile",
        )

    def sample_all(self, grid: TimeGrid) -> np.ndarray:
        """Stack of matrices, one per grid node, shape (n, dim, dim).

        Time-independent kinds are sampled once and broadcast: the stack is
        then a read-only view.
        """
        return self._stack(self.sampler, grid)

    def sample_deriv_all(self, grid: TimeGrid) -> np.ndarray:
        if self.deriv_sampler is None:
            raise ValueError("coefficient carries no analytic time derivative")
        return self._stack(self.deriv_sampler, grid)

    def _stack(self, sampler: Callable[[float], np.ndarray], grid: TimeGrid) -> np.ndarray:
        shape = (self.dim, self.dim)
        times = grid.times
        varying = self.kind not in ("constant-matrix", "space-profile")
        out = np.empty((grid.n if varying else 1,) + shape, dtype=complex)
        for k, t in enumerate(times[: len(out)]):
            m = np.atleast_2d(np.asarray(sampler(t), dtype=complex))
            if m.shape != shape:
                raise ValueError(f"sampler returned shape {m.shape} at t={t}")
            out[k] = m
        finite = np.isfinite(out).all(axis=(1, 2))  # one check for the stack
        if not finite.all():
            t = times[np.argmin(finite)]
            raise ValueError(f"sampler returned non-finite entries at t={t}")
        return out if varying else np.broadcast_to(out[0], (grid.n,) + shape)

    def check_positivity(self, grid: TimeGrid, rng=None, n_probes: int = 16) -> float:
        """Sampled lower bound of Re <M xi, xi> / |xi|^2 over nodes and probes.

        Raises if pos_const is claimed but violated beyond roundoff.
        """
        rng = np.random.default_rng(0) if rng is None else rng
        mats = self.sample_all(grid)
        worst = np.inf
        # Rayleigh bound of (M + M*)/2 per node is enough; probe a few nodes.
        idx = np.unique(np.linspace(0, grid.n - 1, min(grid.n, 64)).astype(int))
        for k in idx:
            herm = 0.5 * (mats[k] + mats[k].conj().T)
            worst = min(worst, float(np.linalg.eigvalsh(herm)[0]))
        for _ in range(n_probes):
            xi = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
            xi /= np.linalg.norm(xi)
            k = rng.integers(0, grid.n)
            worst = min(worst, float(np.real(np.vdot(xi, mats[k] @ xi))))
        if self.pos_const is not None and worst < self.pos_const - 1e-10:
            raise ValueError(
                f"claimed positivity {self.pos_const} violated: sampled bound {worst}"
            )
        return worst


def multiply(c: Coefficient, f: Signal) -> Signal:
    """Nodewise matrix-vector product (c f)(t_k) = c(t_k) f(t_k)."""
    if c.dim != f.dim:
        raise GridMismatchError(f"coefficient dim {c.dim} != signal dim {f.dim}")
    mats = c.sample_all(f.grid)
    return Signal(f.grid, np.einsum("kij,kj->ki", mats, f.values))
