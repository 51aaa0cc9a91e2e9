"""Solution operators for the two master classes of causal evolution systems.

The ODE class couples a time derivative of a positive coefficient with a
bounded block perturbation and is inverted two independent ways (geometric
series and causal time stepping); the PDE class adds a skew spatial operator
assembled so that skew-adjointness is a bit-exact matrix identity (staggered
one-sided differences: the divergence leg is literally minus the transpose
of the Dirichlet gradient leg).
"""

from __future__ import annotations

import collections
import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .signals import (
    NORM_FLOOR, Coefficient, Signal, TimeGrid, _inner_values, multiply, norm_nu,
)
from .timecalc import _cumsum, _pcr_levels, _pcr_solve, antiderivative, derivative
from .operators import series_terms

__all__ = [
    "OdeBlockSystem",
    "PdeSystem",
    "SpatialOperator",
    "solve_ode_block",
    "solve_ode_block_stepping",
    "solve_ode_block_neumann",
    "picard_solve",
    "solve_evo_pde",
    "evo_pde_forward",
    "funid_residual",
    "maxwell_1d_solve",
    "heat_1d_solve",
    "wave_1d_solve",
    "elliptic_solve",
    "staggered_grad0",
    "mean_zero_project",
]


# ---------------------------------------------------------------------------
# spatial operators
# ---------------------------------------------------------------------------

def _dx_inv(m_x: int) -> float:
    """1/dx of the staggered grid with m_x interior nodes on (0, 1).  Written
    as 1/(1/(m_x + 1)), which differs from m_x + 1 in the last bit for some
    m_x (48, for one)."""
    return 1.0 / (1.0 / (m_x + 1))


def staggered_grad0(m_x: int) -> np.ndarray:
    """One-sided difference gradient with zero Dirichlet values.

    Maps interior node values (m_x of them on (0, 1)) to edge values
    (m_x + 1); minus its transpose is the matching divergence, so the block
    [[0, -G^T], [G, 0]] is skew-symmetric exactly.  The steppers and the
    elliptic solve apply it matrix-free (`_g_apply`, `_gt_apply`).
    """
    return (np.eye(m_x + 1, m_x) - np.eye(m_x + 1, m_x, -1)) * _dx_inv(m_x)


def mean_zero_project(v: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the mean-zero subspace (the discrete range
    of the Dirichlet gradient in one dimension)."""
    return v - v.mean(axis=0, keepdims=True)


@dataclass(frozen=True)
class SpatialOperator:
    """Skew spatial block of an evolution system.

    kinds:
      * "skew-matrix": an explicit bounded skew matrix (stands in for the
        three-dimensional curl realizations; only skewness, boundedness and
        commutation with the time operators are ever used).
      * "grad0-div-1d": state (u-leg of size m_x, flux-leg of size m_x+1)
        with block [[0, -G^T], [G, 0]] on the domain (0, 1).
      * "grad0-div-1d-projected": the same pair conjugated with the
        projection onto mean-zero flux values (acoustic wave form).
    """

    kind: str
    m_x: int = 0
    matrix: np.ndarray | None = field(default=None, repr=False)

    @staticmethod
    def skew_matrix(A) -> "SpatialOperator":
        A = np.atleast_2d(np.asarray(A, dtype=complex))
        defect = np.linalg.norm(A + A.conj().T, 2)
        if defect > 1e-12 * max(1.0, np.linalg.norm(A, 2)):
            raise ValueError(f"matrix is not skew-adjoint: defect {defect:.2e}")
        return SpatialOperator(kind="skew-matrix", m_x=A.shape[0], matrix=A)

    @staticmethod
    def grad0_div_1d(m_x: int) -> "SpatialOperator":
        return SpatialOperator(kind="grad0-div-1d", m_x=m_x)

    @staticmethod
    def grad0_div_1d_projected(m_x: int) -> "SpatialOperator":
        return SpatialOperator(kind="grad0-div-1d-projected", m_x=m_x)

    @property
    def state_dim(self) -> int:
        if self.kind == "skew-matrix":
            return self.matrix.shape[0]
        return 2 * self.m_x + 1  # u-leg m_x, flux-leg m_x+1

    def dense(self) -> np.ndarray:
        """Assembled matrix; used by checks and the skew-matrix solve path."""
        if self.kind == "skew-matrix":
            return self.matrix
        g = staggered_grad0(self.m_x)
        m = self.m_x
        a = np.zeros((2 * m + 1, 2 * m + 1))
        if self.kind == "grad0-div-1d-projected":
            # conjugate the gradient leg with the mean-zero projection and
            # flip sign: the wave system carries minus the heat block
            g = -mean_zero_project(g)
        # one leg is built, the other is minus its transpose: exactly skew
        a[m:, :m] = g
        a[:m, m:] = -g.T
        return a


# ---------------------------------------------------------------------------
# tridiagonal kernels (cached inverses, cyclic reduction) and staggered
# differences
# ---------------------------------------------------------------------------

# Largest tridiagonal size the 1D steppers solve with a cached explicit
# inverse, one GEMM per node; larger ones solve by parallel cyclic reduction
# (`timecalc._pcr_levels`), set up once per matrix.  Best of 100-200 calls
# (2 cores, BLAS on 1 thread), one RHS column, Thomas against inverse @ rhs:
# 96 vs 21 us at m = 256, 209 vs 181 us at m = 512 and 642 vs 1448 us at
# m = 1024.  Cyclic reduction then replaced Thomas above INVERSE_MAX: 37 us
# per solve at m = 512 and 54 us at m = 1024, against Thomas's 180 and 422.
# Building the inverses by cyclic reduction on the identity, batched over
# the nodes, was slower than Thomas (2.3 vs 1.6 ms for 100 nodes at m = 24,
# 3.7 vs 2.1 ms for one at m = 256), so Thomas builds them.
INVERSE_MAX = 256
# Complex entries of the inverses one batched pass builds: a time-varying
# stepper inverts its moved nodes in chunks of INVERSE_CHUNK // m**2, so the
# memory of the cache does not grow with the node count.
INVERSE_CHUNK = 2**16


def _tridiag_factor(lower, diag, upper):
    """Thomas factors (lower, c, dd) of a tridiagonal matrix whose off bands
    have length m - 1.  Bands of shape (m - 1, B) and (m, B) factor B
    matrices at once, the node axis last.

    The loops run over Python lists of numpy scalars (or of (B,) rows): list
    indexing is cheaper than array indexing, and the arithmetic is the same.
    Its one use is to build the cached explicit inverses of the 1D steppers
    at m <= INVERSE_MAX: this kernel applied to the identity
    (`_tridiag_inverses`), in chunks of at most INVERSE_CHUNK entries.
    Every solve with a right-hand side above INVERSE_MAX, and every
    `elliptic_solve`, runs by cyclic reduction instead.
    """
    lower, diag, upper = list(lower), list(diag), list(upper)
    c, dd = [], [diag[0]]
    for i in range(1, len(diag)):
        c.append(upper[i - 1] / dd[i - 1])
        dd.append(diag[i] - lower[i - 1] * c[i - 1])
    return lower, c, dd


def _tridiag_solve(factors, rhs):
    """Forward and back substitution with `_tridiag_factor` factors; rhs of
    shape (m,) or (m, K), one system per column; with the factors of B
    matrices, rhs of shape (m, K, B), or (m, K, 1) shared by all B.  The
    1D steppers call it once per chunk of nodes on the identity, up to
    INVERSE_MAX only (see `_tridiag_factor`)."""
    lower, c, dd = factors
    x = [rhs[0] / dd[0]]
    for i in range(1, len(dd)):
        x.append((rhs[i] - lower[i - 1] * x[i - 1]) / dd[i])
    for i in range(len(dd) - 2, -1, -1):
        x[i] = x[i] - c[i] * x[i + 1]
    return np.array(x, dtype=complex)


def _tridiag_inverses(lower, diag, upper):
    """Explicit inverses (B, m, m) of the B tridiagonal matrices with bands
    (m - 1, B), (m, B), (m - 1, B): the Thomas kernel applied to the identity
    in one batched pass (Meurant, SIAM J. Matrix Anal. Appl. 13(3), 1992, on
    inverses of tridiagonal matrices)."""
    inv = _tridiag_solve(_tridiag_factor(lower, diag, upper), np.eye(len(diag))[:, :, None])
    return np.ascontiguousarray(inv.transpose(2, 0, 1))


def _inverse_solve(inv: np.ndarray):
    """rhs -> inv @ rhs for a complex inverse and rhs of shape (m,) or
    (m, K).  A GEMM rounds a column by its position in the block unless one
    operand is real-valued, so the real and imaginary parts of rhs are
    multiplied apart; equal columns then give bit-identical results, which
    keeps the all-cuts audits of `causality_audit` exact.  A real-valued
    inverse multiplies rhs directly (`_tridiag_solvers`)."""
    return lambda rhs: inv @ rhs.real + 1j * (inv @ rhs.imag)


def _tridiag_solvers(m: int, bands, nodes: np.ndarray):
    """The solves of the tridiagonal systems at `nodes`, in order, each a
    map rhs -> x for rhs of shape (m,) or (m, K).  `bands(chunk)` returns
    the bands of the nodes in `chunk` with the node axis last, (m - 1, B),
    (m, B), (m - 1, B).  Up to INVERSE_MAX the solve is a cached explicit
    inverse, built in one batched pass per chunk of at most INVERSE_CHUNK
    entries; above it, cyclic reduction set up per node (`_pcr_levels`)."""
    step = max(1, INVERSE_CHUNK // m**2)  # 1 above INVERSE_MAX
    for start in range(0, len(nodes), step):
        lower, diag, upper = bands(nodes[start:start + step])
        if m <= INVERSE_MAX:
            invs = _tridiag_inverses(lower, diag, upper)
            for inv, is_complex in zip(invs, invs.imag.any(axis=(1, 2))):
                yield _inverse_solve(inv) if is_complex else inv.__matmul__
        else:
            yield functools.partial(
                _pcr_solve, _pcr_levels(lower[:, 0], diag[:, 0], upper[:, 0]))


def _laplacian_bands(dx_inv: float, weight: np.ndarray):
    """Off and main band of G^T diag(weight) G from the m+1 edge weights,
    for the staggered gradient G with entries +-dx_inv."""
    dx_inv2 = dx_inv**2
    w = np.asarray(weight, dtype=complex)
    return -w[1:-1] * dx_inv2, (w[:-1] + w[1:]) * dx_inv2


def _scale(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row i of x times v[i]; x of shape (m,) or (m, K)."""
    return (v * x.T).T


def _g_apply(u: np.ndarray, dx_inv: float) -> np.ndarray:
    """Staggered gradient: edge_i = (u_i - u_{i-1})/dx with zero boundary."""
    m = len(u)
    out = np.empty((m + 1,) + u.shape[1:], dtype=complex)
    out[0] = u[0]
    out[1:m] = u[1:] - u[:-1]
    out[m] = -u[-1]
    return out * dx_inv


def _gt_apply(h: np.ndarray, dx_inv: float) -> np.ndarray:
    """Transpose of the staggered gradient (minus the divergence)."""
    return (h[:-1] - h[1:]) * dx_inv


def _batch_shape(rows):
    """Trailing shape of the RHS rows, () or (K,), and an iterator over all
    of them."""
    rows = iter(rows)
    first = next(rows)
    return first.shape[1:], itertools.chain([first], rows)


# ---------------------------------------------------------------------------
# ODE block systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OdeBlockSystem:
    """Data (M, N00, N01, N10, N11) of the block system with a derivative on
    the first leg only; c is the shared accretivity constant of M and N11."""

    M: Coefficient
    N00: Coefficient
    c: float
    N01: Coefficient | None = None
    N10: Coefficient | None = None
    N11: Coefficient | None = None

    @property
    def m0(self) -> int:
        return self.M.dim

    @property
    def m1(self) -> int:
        return 0 if self.N11 is None else self.N11.dim

    def block_norms(self, grid: TimeGrid):
        """Sup over nodes of the spectral norms of the four blocks."""
        def sup_norm(c: Coefficient | None) -> float:
            if c is None:
                return 0.0
            mats = c.sample_all(grid)
            if mats.strides[0] == 0:  # time-independent: one matrix, broadcast
                mats = mats[:1]
            return float(np.max(np.linalg.norm(mats, 2, axis=(1, 2))))

        return {
            "N00": sup_norm(self.N00),
            "N01": sup_norm(self.N01),
            "N10": sup_norm(self.N10),
            "N11": sup_norm(self.N11),
        }

    def theta(self, grid: TimeGrid) -> float:
        """(c |N00| + |N01| |N10|) / (nu c^2) at the weight nu of the grid."""
        ns = self.block_norms(grid)
        return (self.c * ns["N00"] + ns["N01"] * ns["N10"]) / (grid.nu * self.c**2)


def _step_dense(Ms, mats, rows, dt: float):
    """Backward difference of M u: mats[k] u_k = f_k + (M u)_{k-1}/dt with
    M = Ms[k] on the leading m0 rows (any rows past them are an algebraic
    leg with no memory).  The stack is inverted once per pass, so each node
    is two small products, u_k = inv_k f_k + P_k u_{k-1}[:m0] with the
    memory propagator P_k = inv_k[:, :m0] Ms[k-1] / dt (P_0 = 0).  Yields u
    node by node for RHS rows of shape (m,) or (m, K); rows may widen from
    (m, 1) to (m, K) at any node, and the states widen with them."""
    m0 = Ms.shape[1]
    inv = np.linalg.inv(mats)
    prop = np.zeros_like(inv[:, :, :m0])
    prop[1:] = inv[1:, :, :m0] @ Ms[:-1] / dt
    batch, rows = _batch_shape(rows)
    u = np.zeros((mats.shape[1],) + batch, dtype=complex)
    for inv_k, prop_k, f in zip(inv, prop, rows):
        u = inv_k @ f + prop_k @ u[:m0]
        yield u


def _step_ode_block(sys: OdeBlockSystem, rows, grid: TimeGrid):
    """Stepper of (d/dt diag(M,0) + N) U = F, derivative on the first leg."""
    Ms = sys.M.sample_all(grid)
    blks = Ms / grid.dt + sys.N00.sample_all(grid)
    if sys.m1:
        blks = np.concatenate([
            np.concatenate([blks, sys.N01.sample_all(grid)], axis=2),
            np.concatenate([sys.N10.sample_all(grid), sys.N11.sample_all(grid)], axis=2),
        ], axis=1)
    return _step_dense(Ms, blks, rows, grid.dt)


def solve_ode_block_stepping(sys: OdeBlockSystem, F: Signal) -> np.ndarray:
    """Route (b) of `solve_ode_block` alone: causal stepping, values (n, m)."""
    return np.array(list(_step_ode_block(sys, F.values, F.grid)))


def solve_ode_block_neumann(sys: OdeBlockSystem, F: Signal, tol: float) -> np.ndarray:
    """Route (a) of `solve_ode_block` alone: the geometric series through the
    triangular block factorization, truncated a priori from theta < 1."""
    grid, nu = F.grid, F.grid.nu
    theta = sys.theta(grid)
    if not theta < 1:
        raise ValueError(f"contraction fails: theta={theta:.3e} >= 1 at nu={nu}")
    m0, m1 = sys.m0, sys.m1
    Ms = sys.M.sample_all(grid)
    M_inv = np.linalg.inv(Ms)
    N00 = sys.N00.sample_all(grid)
    if m1:
        N01 = sys.N01.sample_all(grid)
        N10 = sys.N10.sample_all(grid)
        N11_inv = np.linalg.inv(sys.N11.sample_all(grid))
        R = N00 - np.einsum("kab,kbc,kcd->kad", N01, N11_inv, N10)
    else:
        R = N00

    def apply_nodewise(mats, vals):
        return np.einsum("kab,kb->ka", mats, vals)

    def b_tilde_inv(g: np.ndarray) -> np.ndarray:
        # sum_k T^k (M^-1 J g), T = -(M^-1 J R .), J the causal integral
        base = apply_nodewise(M_inv, _cumsum(g, grid.dt))
        k_max = series_terms(theta, 1.0 / (sys.c * nu) * 1.05, tol / 10)
        acc = base.copy()
        for _ in range(k_max):
            acc = base - apply_nodewise(M_inv, _cumsum(apply_nodewise(R, acc), grid.dt))
        return acc

    f0 = F.values[:, :m0]
    if m1 == 0:
        return b_tilde_inv(f0)
    f1 = F.values[:, m0:]
    g0 = f0 - apply_nodewise(N01, apply_nodewise(N11_inv, f1))
    w = b_tilde_inv(g0)
    v = apply_nodewise(N11_inv, f1) - apply_nodewise(N11_inv, apply_nodewise(N10, w))
    return np.concatenate([w, v], axis=1)


def _ode_block_routes(sys: OdeBlockSystem, F: Signal, tol: float) -> tuple[Signal, float]:
    """Both routes of `solve_ode_block`, the series truncated at tol: the
    stepping solution and the relative gap |u_step - u_series| / |u_step|.
    The series runs first, so theta >= 1 raises before any stepping."""
    u_neum = solve_ode_block_neumann(sys, F, tol)
    u_step = Signal(F.grid, solve_ode_block_stepping(sys, F))
    gap = norm_nu(Signal(F.grid, u_step.values - u_neum)) / max(norm_nu(u_step), NORM_FLOOR)
    return u_step, gap


def solve_ode_block(sys: OdeBlockSystem, F: Signal) -> Signal:
    """Solve (d/dt diag(M,0) + N) U = F by two independent routes at the
    weight of F's grid.

    Route (a) is the truncated geometric series through the block
    factorization, route (b) direct causal stepping; their agreement within
    1e-8 is asserted before route (b) is returned.  Route (a) runs first and
    raises unless theta < 1 at the working weight.
    """
    tol = 1e-8
    sig_step, gap = _ode_block_routes(sys, F, tol)
    if gap > tol:
        raise ValueError(f"route disagreement {gap:.3e} > tol={tol}")
    return sig_step


# ---------------------------------------------------------------------------
# Picard fixed point for Lipschitz right-hand sides
# ---------------------------------------------------------------------------

def picard_solve(
    F_rule: Callable[[np.ndarray], np.ndarray],
    lip: float,
    f: Signal,
    tol: float = 1e-10,
) -> Signal:
    """Fixed point of u = J(F(u) + f) with J the causal integral.

    The working weight is chosen as twice the Lipschitz bound, which makes
    the iteration a 1/2-contraction; the returned signal satisfies the
    backward-difference equation du = F(u) + f nodewise to within 10*tol.
    `F_rule` maps the whole (n, m) stack of states to an (n, m) array; any
    other shape raises.

    Convergence is in the weighted norm: pointwise accuracy at the window
    tail degrades like exp(2*lip*t) times the iteration gap, so nodal
    comparisons should use windows with lip * t_end moderate.
    """
    if not lip > 0:
        raise ValueError(f"Lipschitz bound must be positive, got {lip}")
    nu = 2.0 * lip
    grid = f.grid.with_nu(nu)
    w = grid.quad_weights()
    kappa = 0.5

    def nemitskii(u: np.ndarray) -> np.ndarray:
        vals = np.asarray(F_rule(u), dtype=complex)
        if vals.shape != u.shape:
            raise ValueError(f"rule mapped the {u.shape} stack to shape {vals.shape}")
        return vals

    u = np.zeros((grid.n, f.dim), dtype=complex)
    for _ in range(200):
        u.setflags(write=False)  # a rule that writes to its input raises, not corrupts u
        u_next = _cumsum(nemitskii(u) + f.values, grid.dt)
        d = u_next - u
        gap = float(np.sqrt(max(_inner_values(w, d, d).real, 0.0)))
        del d  # one (n, m) block fewer alive while the rule runs
        u = u_next
        if gap <= tol * (1 - kappa):
            break
    else:
        raise ValueError(f"fixed point did not reach tol={tol} in 200 iterations")
    sol = Signal(grid, u)
    defect = norm_nu(derivative(sol) - Signal(grid, nemitskii(sol.values) + f.values))
    if defect > 10 * tol * max(1.0, norm_nu(sol)):
        raise ValueError(f"fixed-point equation defect {defect:.2e} too large")
    return Signal(f.grid, u)


# ---------------------------------------------------------------------------
# PDE systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PdeSystem:
    """State-space data for (d/dt M + N + A) u = f.

    Every coefficient is a `Coefficient` in `legs`: the full-state blocks
    (M, N) for the skew-matrix kind, (m0, m1, n0, n1) for the grad-div
    kind, (a,) for the wave form.  A 1D leg is a space profile of the leg's
    length or a dim-1 coefficient acting on every cell; a solve samples it
    once, as a time series when its sampler returns one.  `c` is the
    certified accretivity constant of the full system at the working weight.
    """

    A: SpatialOperator
    c: float
    legs: tuple[Coefficient, ...] = ()

    @property
    def state_dim(self) -> int:
        return self.A.state_dim

    @staticmethod
    def dense_small(M: Coefficient, N: Coefficient, A: SpatialOperator, c: float) -> "PdeSystem":
        return PdeSystem(A=A, c=c, legs=(M, N))

    @staticmethod
    def heat(a_edge: np.ndarray, nu: float) -> "PdeSystem":
        """Heat system: state (theta, flux), M = diag(1, 0), N = diag(0, 1/a)."""
        a_edge = np.asarray(a_edge, dtype=complex)
        amin = float(np.min(a_edge.real))
        amax = float(np.max(np.abs(a_edge)))
        if amin <= 0:
            raise ValueError("conductivity must have positive real part")
        one, zero = Coefficient.constant(1.0), Coefficient.constant(0.0)
        return PdeSystem(
            A=SpatialOperator.grad0_div_1d(len(a_edge) - 1),
            c=min(nu, amin / amax**2),
            legs=(one, zero, zero, Coefficient.space_profile(1.0 / a_edge)),
        )

    @staticmethod
    def maxwell(eps: Coefficient, mu: Coefficient, sigma: Coefficient,
                m_x: int) -> "PdeSystem":
        """1D Maxwell block: state (E on interior nodes, H on edges), c = 1."""
        return PdeSystem(
            A=SpatialOperator.grad0_div_1d(m_x),
            c=1.0,
            legs=(eps, mu, sigma, Coefficient.constant(0.0)),
        )

    @staticmethod
    def wave(a_edge: np.ndarray, nu: float) -> "PdeSystem":
        """Acoustic wave in first-order form with mean-zero projected flux:
        M = diag(1, 1/a), so c = nu min(1, min Re(1/a))."""
        a_edge = np.asarray(a_edge, dtype=complex)
        if float(np.min(a_edge.real)) <= 0:
            raise ValueError("wave coefficient must have positive real part")
        return PdeSystem(
            A=SpatialOperator.grad0_div_1d_projected(len(a_edge) - 1),
            c=nu * min(1.0, float(np.min((1.0 / a_edge).real))),
            legs=(Coefficient.space_profile(a_edge),),
        )


def _sample_legs(sys: PdeSystem, grid: TimeGrid) -> list:
    """The 1D legs sampled once per solve: a space profile as its read-only
    (1, size) cell values, a dim-1 leg as an (n, 1) series when it varies
    in time and as (1, 1) when its stack is one broadcast matrix."""
    m = sys.A.m_x
    sizes = (m, m + 1, m, m + 1) if sys.A.kind == "grad0-div-1d" else (m + 1,)
    out = []
    for leg, size in zip(sys.legs, sizes):
        if leg.diagonal is not None and leg.dim == size:
            out.append(leg.diagonal[None])
        elif leg.dim == 1:
            stack = leg.sample_all(grid)[:, :, 0]
            out.append(stack[:1] if stack.strides[0] == 0 else stack)
        else:
            raise ValueError(f"a leg of length {size} needs a dim-1 coefficient or a "
                             f"space profile of that length, got dim {leg.dim}")
    return out


def _pde_check(sys: PdeSystem, grid: TimeGrid):
    """Check the positivity certificate Re(nu M + M'/2) + Re N >= c at
    nu = grid.nu, M' the analytic derivative of M (a time-varying M without
    one raises; a time-independent leg has M' = 0): for the skew-matrix
    kind in one batched eigenvalue solve, at every node when a stack varies
    in time and at one node otherwise; per leg pair of the grad-div kind,
    at every node of a time-varying leg and once for a time-independent one
    (a time series meets a space profile through the two minima); for the
    wave form as nu min(1, min Re(1/a))."""
    nu = grid.nu
    if sys.A.kind == "skew-matrix":
        M, N = sys.legs
        stacks = M.sample_all(grid), M.sample_deriv_all(grid), N.sample_all(grid)
        nodes = slice(1) if all(s.strides[0] == 0 for s in stacks) else slice(None)
        Ms, dMs, Ns = (s[nodes] for s in stacks)
        herm = nu * Ms + 0.5 * dMs + Ns
        low = np.linalg.eigvalsh(0.5 * (herm + herm.conj().swapaxes(1, 2)))[:, 0]
        k = int(np.argmax(low < sys.c - 1e-9))  # the first failing node
        if low[k] < sys.c - 1e-9:
            raise ValueError(f"positivity certificate fails at t={grid.times[k]}: "
                             f"{low[k]:.4f} < c={sys.c}")
    elif sys.A.kind == "grad0-div-1d":
        m0, m1, n0, n1 = _sample_legs(sys, grid)
        dm0, dm1 = (np.zeros((1, 1)) if len(s) == 1 else leg.sample_deriv_all(grid)[:, :, 0]
                    for leg, s in zip(sys.legs, (m0, m1)))
        for leg, (m, dm, n) in enumerate(((m0, dm0, n0), (m1, dm1, n1))):
            damped, n = (nu * m + 0.5 * dm).real, n.real
            if damped.min() < -1e-12:
                raise ValueError(f"leg {leg} damping fails: {damped.min():.3e} < 0")
            if damped.shape[0] != n.shape[0] and damped.shape[1] != n.shape[1]:
                damped, n = damped.min(), n.min()
            low = float(np.min(damped + n))
            if low < sys.c - 1e-9:
                raise ValueError(f"leg {leg} positivity fails: {low:.4f} < c={sys.c}")
    elif sys.A.kind == "grad0-div-1d-projected":
        (a,) = _sample_legs(sys, grid)
        low = nu * min(1.0, float(np.min((1.0 / a).real)))
        if not low >= sys.c - 1e-9:  # a NaN (a = 0) fails too
            raise ValueError(f"wave positivity fails: {low:.4f} < c={sys.c}")


def _step_skew_dense(sys: PdeSystem, rows, grid: TimeGrid):
    M, N = sys.legs
    Ms = M.sample_all(grid)
    mats = Ms / grid.dt + N.sample_all(grid) + sys.A.dense()
    return _step_dense(Ms, mats, rows, grid.dt)


def _step_grad_div(sys: PdeSystem, rows, grid: TimeGrid):
    """Implicit step for the (u-leg, flux-leg) systems; flux eliminated per
    node, leaving a tridiagonal solve on the u-leg.  The legs are sampled
    once per solve, and the matrix is refactored only at the nodes where a
    time-varying leg moved (`_tridiag_solvers`: batched inverses up to
    INVERSE_MAX, cyclic reduction above).  The flux weight w = 1/(m1/dt + n1) of those nodes is
    computed with their bands, one chunk at a time, and queued for the node
    loop."""
    m_x = sys.A.m_x
    dx_inv = _dx_inv(m_x)
    dt = grid.dt
    legs = _sample_legs(sys, grid)
    moved = np.zeros(grid.n, dtype=bool)
    moved[0] = True
    for s in legs:
        if len(s) > 1:
            moved[1:] |= s[1:, 0] != s[:-1, 0]
    # the memory term of the first step multiplies the zero initial state
    m0_prev, m1_prev = (s[0] for s in legs[:2])

    weights = collections.deque()  # w of the moved nodes whose bands are built

    def bands(nodes):
        # flux-leg: d1 * h + G u = rhs1  ->  h = (rhs1 - G u)/d1
        # u-leg: (m0/dt + n0) u - G^T h = f0 + m0_prev u_prev / dt
        m0, m1, n0, n1 = (s[nodes] if len(s) > 1 else s[:1] for s in legs)
        d1 = m1 / dt + n1
        if np.any(np.abs(d1) < 1e-300):
            raise ValueError("flux-leg coefficient vanishes; cannot eliminate")
        w = np.broadcast_to(1.0 / d1, (len(nodes), m_x + 1))
        weights.extend(w)
        off, diag = _laplacian_bands(dx_inv, w.T)
        return off, diag + m0.T / dt + n0.T, off

    solves = _tridiag_solvers(m_x, bands, np.flatnonzero(moved))
    batch, rows = _batch_shape(rows)
    u = np.zeros((m_x,) + batch, dtype=complex)
    h = np.zeros((m_x + 1,) + batch, dtype=complex)
    for k, f in enumerate(rows):
        if moved[k]:
            m0, m1 = (s[k] if len(s) > 1 else s[0] for s in legs[:2])
            solve = next(solves)
            w = weights.popleft()
        rhs1 = f[m_x:] + _scale(m1_prev, h) / dt
        rhs0 = f[:m_x] + _scale(m0_prev, u) / dt + _gt_apply(_scale(w, rhs1), dx_inv)
        u = solve(rhs0)
        h = _scale(w, rhs1 - _g_apply(u, dx_inv))
        yield np.concatenate([u, h])
        m0_prev, m1_prev = m0, m1


def _step_wave(sys: PdeSystem, rows, grid: TimeGrid):
    """Velocity/strain stepping of the projected wave system.

    Internally integrates (v, q) with dq = pi grad0 v so that only a
    constant tridiagonal solve appears, inverted (or reduced) once; the
    reported flux p = pi a pi* q is mean-zero by construction.
    """
    m_x = sys.A.m_x
    (a,) = _sample_legs(sys, grid)
    if len(a) > 1:
        raise ValueError("the wave coefficient must not depend on time")
    a = np.broadcast_to(a[0], (m_x + 1,))
    dx_inv = _dx_inv(m_x)
    dt = grid.dt
    off, diag = _laplacian_bands(dx_inv, a[:, None])
    (solve,) = _tridiag_solvers(
        m_x, lambda nodes: (off * dt, diag * dt + 1.0 / dt, off * dt), np.arange(1))
    batch, rows = _batch_shape(rows)
    v = np.zeros((m_x,) + batch, dtype=complex)
    q = np.zeros((m_x + 1,) + batch, dtype=complex)
    for f in rows:
        # (1/dt + dt G^T a G) v_k = f + v_prev/dt - G^T a q_prev
        rhs = f[:m_x] + v / dt - _gt_apply(_scale(a, q), dx_inv)
        v = solve(rhs)
        q = q + dt * _g_apply(v, dx_inv)
        yield np.concatenate([v, mean_zero_project(_scale(a, q))])


def solve_evo_pde(sys: PdeSystem, F: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """The solution map of (d/dt M + N + A) u = f, K solves in one stepping
    pass: F of shape (n, state_dim, K) gives the states (n, state_dim, K),
    column j the solution for F[:, :, j]; F of shape (n, state_dim) is one
    solve.  The positivity certificate is checked first at grid.nu, so every
    solve is of a certified system.  The 1D wrappers add the norm bound; the
    all-cuts audits of `causality_audit` certify causality."""
    _pde_check(sys, grid)
    return _dispatch_step(sys, F, grid)


def _pde_steps(sys: PdeSystem, rows, grid: TimeGrid):
    """Node-by-node states of the stepper for the system's spatial kind, fed
    RHS rows of shape (m,) or (m, K).  Rows may widen from (m, 1) to (m, K)
    at any node: the states stay one column wide up to it and then match
    the states of full-width rows, as the causality audits require."""
    if sys.A.kind == "skew-matrix":
        return _step_skew_dense(sys, rows, grid)
    if sys.A.kind == "grad0-div-1d":
        return _step_grad_div(sys, rows, grid)
    if sys.A.kind == "grad0-div-1d-projected":
        return _step_wave(sys, rows, grid)
    raise ValueError(f"unknown spatial kind {sys.A.kind}")


def _dispatch_step(sys: PdeSystem, F: np.ndarray, grid: TimeGrid) -> np.ndarray:
    return np.array(list(_pde_steps(sys, F, grid)))


def evo_pde_forward(sys: PdeSystem, u: Signal) -> Signal:
    """The forward operator (d/dt M + N + A) u on u's grid, d/dt the
    steppers' backward difference, so that it inverts the solution map to
    roundoff.  Covers the skew-matrix and grad-div kinds."""
    grid = u.grid
    v = u.values
    if sys.A.kind == "skew-matrix":
        M, N = sys.legs
        mu, nv = multiply(M, u), multiply(N, u)
        av = v @ sys.A.dense().T
    elif sys.A.kind == "grad0-div-1d":
        m, dx_inv = sys.A.m_x, _dx_inv(sys.A.m_x)
        m0, m1, n0, n1 = _sample_legs(sys, grid)
        e, h = v[:, :m], v[:, m:]
        mu = Signal(grid, np.concatenate([m0 * e, m1 * h], axis=1))
        nv = Signal(grid, np.concatenate([n0 * e, n1 * h], axis=1))
        av = np.concatenate([-_gt_apply(h.T, dx_inv).T, _g_apply(e.T, dx_inv).T], axis=1)
    else:
        raise ValueError(f"no forward operator for spatial kind {sys.A.kind}")
    return derivative(mu) + nv + Signal(grid, av)


# ---------------------------------------------------------------------------
# fundamental identity and continuity estimate
# ---------------------------------------------------------------------------

def funid_residual(
    M: Coefficient,
    N: Coefficient,
    O: Coefficient,
    P: Coefficient,
    A: SpatialOperator,
    f: Signal,
    c: float,
) -> float:
    """Relative discrepancy between the two sides of the exchange identity

        (sol(M,N) - sol(O,P)) sol(O,P)^-1 J sol(O,P)
          = sol(M,N) ((O-M) + (O'-M') J + (P-N) J) sol(O,P)

    evaluated on f, J the causal integral.  Time derivatives of the
    coefficients enter as analytic data; for constant-in-time pairs the
    discrete identity is exact up to solver roundoff.
    """
    grid = f.grid
    sys_mn = PdeSystem.dense_small(M, N, A, c)
    sys_op = PdeSystem.dense_small(O, P, A, c)

    def sol(sys: PdeSystem, g: Signal) -> Signal:
        return Signal(grid, solve_evo_pde(sys, g.values, grid))

    u = sol(sys_op, f)
    ju = antiderivative(u)
    y = evo_pde_forward(sys_op, ju)  # B_OP J u, the forward map of the smoothed state
    lhs = sol(sys_mn, y) - sol(sys_op, y)

    dM = O.sample_all(grid) - M.sample_all(grid)
    dN = P.sample_all(grid) - N.sample_all(grid)
    dMp = O.sample_deriv_all(grid) - M.sample_deriv_all(grid)
    inner = (
        np.einsum("kab,kb->ka", dM, u.values)
        + np.einsum("kab,kb->ka", dMp, ju.values)
        + np.einsum("kab,kb->ka", dN, ju.values)
    )
    rhs = sol(sys_mn, Signal(grid, inner))

    denom = max(norm_nu(lhs), norm_nu(rhs), 1e-8 * max(norm_nu(ju), NORM_FLOOR))
    return norm_nu(lhs - rhs) / denom


# ---------------------------------------------------------------------------
# named physical systems
# ---------------------------------------------------------------------------

def maxwell_1d_solve(
    eps: Coefficient, mu: Coefficient, sigma: Coefficient, J: Signal, nu: float
) -> Signal:
    """Solve the 1D Maxwell block on (0, 1) with Dirichlet condition on the
    E leg (c = 1), through the gates of `_solve_driven`.

    J is the current density on the J.dim interior nodes of the E leg; the
    returned signal stacks (E, H).  The damped-dielectricity inequalities
    (nu*eps + eps'/2 >= 0, nu*mu + mu'/2 >= c and nu*eps + eps'/2 + Re sigma
    >= c) are checked at every node where a coefficient varies in time;
    eps = 0 is admissible (eddy-current regime).
    """
    return _solve_driven(PdeSystem.maxwell(eps, mu, sigma, J.dim), J, nu)


def _solve_driven(sys: PdeSystem, f: Signal, nu: float) -> Signal:
    """`solve_evo_pde` of a 1D system driven by f on its u-leg, at weight
    nu, followed by the accretive norm bound |u| <= (1/c)|f| with
    5% discretization slack.  Every 1D wrapper runs these two gates."""
    grid = f.grid.with_nu(nu)
    f = Signal(grid, f.values)
    F = np.zeros((grid.n, sys.state_dim), dtype=complex)
    F[:, :sys.A.m_x] = f.values
    u = Signal(grid, solve_evo_pde(sys, F, grid))
    # f is F without its zero columns, so it has F's norm
    bound = (1.0 / sys.c) * norm_nu(f) * 1.05
    norm_u = norm_nu(u)
    if norm_u > bound + 1e-14:
        raise ValueError(
            f"norm bound violated: |u|={norm_u:.4e} > (1/c)|f|*1.05={bound:.4e}"
        )
    return u


def heat_1d_solve(a_edge, f: Signal, nu: float) -> Signal:
    """Heat flow on (0, 1) with edge-sampled conductivity (an array of the
    m_x + 1 edge values); f drives the theta leg.  Gated by `_solve_driven`."""
    return _solve_driven(PdeSystem.heat(a_edge, nu=nu), f, nu)


def wave_1d_solve(a_edge, f: Signal, nu: float) -> Signal:
    """First-order wave system on (0, 1) driven on the velocity leg, a_edge
    the m_x + 1 edge values; returns (v, p).  Gated by `_solve_driven`."""
    return _solve_driven(PdeSystem.wave(a_edge, nu=nu), f, nu)


# ---------------------------------------------------------------------------
# elliptic divergence-form solve via the three-factor formula
# ---------------------------------------------------------------------------

def elliptic_solve(a_edge, f_nodes: np.ndarray) -> np.ndarray:
    """Solve -(a u')' = f on (0, 1) with zero boundary values.

    Uses the factorization of the inverse into (projected gradient)^-1,
    (projected coefficient)^-1 and (projected divergence)^-1 and
    cross-checks against the direct three-point solve; the two must agree
    to 1e-8 since the discrete factorization is exact.  The coefficient is
    an array of the m_x + 1 edge values.
    """
    a_edge = np.asarray(a_edge, dtype=complex)
    f_nodes = np.asarray(f_nodes, dtype=complex)
    m_x = len(f_nodes)
    if len(a_edge) != m_x + 1:
        raise ValueError("a must be sampled on the m_x+1 edges")
    alpha = float(np.min(a_edge.real))
    if alpha <= 0:
        raise ValueError(f"coefficient not uniformly positive: min Re a = {alpha}")
    dx_inv = _dx_inv(m_x)
    # steps 1 and 3 solve with the Dirichlet Laplacian G^T G, reduced once
    off, diag = _laplacian_bands(dx_inv, np.ones(m_x + 1))
    lap = _pcr_levels(off, diag, off)
    # step 1: sigma = (-div pi*)^-1 f, the mean-zero edge field with G^T s = f
    sigma = _g_apply(_pcr_solve(lap, f_nodes), dx_inv)
    # step 2: w = (pi a pi*)^-1 sigma on the mean-zero subspace, i.e.
    # w = a^-1 (sigma + k) with the constant k that makes w mean-zero
    a_inv = 1.0 / a_edge
    s = a_inv * sigma
    w = s - a_inv * (s.mean() / a_inv.mean())
    # step 3: u = (pi grad0)^-1 w
    u = _pcr_solve(lap, _gt_apply(w, dx_inv))

    off, diag = _laplacian_bands(dx_inv, a_edge)
    direct = _pcr_solve(_pcr_levels(off, diag, off), f_nodes)
    scale = max(float(np.linalg.norm(direct)), NORM_FLOOR)
    gap = float(np.linalg.norm(u - direct)) / scale
    if gap > 1e-8:
        raise ValueError(f"three-factor route disagrees with direct solve: {gap:.2e}")
    return u
