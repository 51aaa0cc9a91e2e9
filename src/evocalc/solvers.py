"""Solution operators for the two master classes of causal evolution systems.

The ODE class couples a time derivative of a positive coefficient with a
bounded block perturbation and is inverted two independent ways (geometric
series and causal time stepping); the PDE class adds a skew spatial operator
assembled so that skew-adjointness is a bit-exact matrix identity (staggered
one-sided differences: the divergence leg is literally minus the transpose
of the Dirichlet gradient leg).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .signals import NORM_FLOOR, Coefficient, Signal, TimeGrid, norm_nu, truncate_before
from .timecalc import antiderivative, derivative

__all__ = [
    "OdeBlockSystem",
    "PdeSystem",
    "SpatialOperator",
    "solve_ode_block",
    "solve_ode_block_stepping",
    "solve_ode_block_neumann",
    "picard_solve",
    "solve_evo_pde",
    "evo_pde_solution_map",
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

def _dx_inv(m_x: int, length: float) -> float:
    """1/dx of the staggered grid with m_x interior nodes on (0, length)."""
    return 1.0 / (length / (m_x + 1))


def staggered_grad0(m_x: int, length: float = 1.0) -> np.ndarray:
    """One-sided difference gradient with zero Dirichlet values.

    Maps interior node values (m_x of them on (0, L)) to edge values
    (m_x + 1); minus its transpose is the matching divergence, so the block
    [[0, -G^T], [G, 0]] is skew-symmetric exactly.  The steppers and the
    elliptic solve apply it matrix-free (`_g_apply`, `_gt_apply`).
    """
    return (np.eye(m_x + 1, m_x) - np.eye(m_x + 1, m_x, -1)) * _dx_inv(m_x, length)


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
        with block [[0, -G^T], [G, 0]].
      * "grad0-div-1d-projected": the same pair conjugated with the
        projection onto mean-zero flux values (acoustic wave form).
    """

    kind: str
    m_x: int = 0
    length: float = 1.0
    matrix: np.ndarray | None = field(default=None, repr=False)

    @staticmethod
    def skew_matrix(A) -> "SpatialOperator":
        A = np.atleast_2d(np.asarray(A, dtype=complex))
        defect = np.linalg.norm(A + A.conj().T, 2)
        if defect > 1e-12 * max(1.0, np.linalg.norm(A, 2)):
            raise ValueError(f"matrix is not skew-adjoint: defect {defect:.2e}")
        return SpatialOperator(kind="skew-matrix", m_x=A.shape[0], matrix=A)

    @staticmethod
    def grad0_div_1d(m_x: int, length: float = 1.0) -> "SpatialOperator":
        return SpatialOperator(kind="grad0-div-1d", m_x=m_x, length=length)

    @staticmethod
    def grad0_div_1d_projected(m_x: int, length: float = 1.0) -> "SpatialOperator":
        return SpatialOperator(kind="grad0-div-1d-projected", m_x=m_x, length=length)

    @property
    def state_dim(self) -> int:
        if self.kind == "skew-matrix":
            return self.matrix.shape[0]
        if self.kind == "grad0-div-1d":
            return 2 * self.m_x + 1
        return 2 * self.m_x + 1  # v-leg m_x, embedded mean-zero flux m_x+1

    def dense(self) -> np.ndarray:
        """Assembled matrix; used by checks and the skew-matrix solve path."""
        if self.kind == "skew-matrix":
            return self.matrix
        g = staggered_grad0(self.m_x, self.length)
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
# tridiagonal kernel (Thomas algorithm, numpy only) and staggered differences
# ---------------------------------------------------------------------------

def _tridiag_factor(lower, diag, upper):
    """Thomas factors (lower, c, dd) of a tridiagonal matrix whose off bands
    have length m - 1.

    The loops run over Python lists of numpy scalars: list indexing is
    cheaper than array indexing, and the arithmetic is the same.
    """
    lower, diag, upper = list(lower), list(diag), list(upper)
    c, dd = [], [diag[0]]
    for i in range(1, len(diag)):
        c.append(upper[i - 1] / dd[i - 1])
        dd.append(diag[i] - lower[i - 1] * c[i - 1])
    return lower, c, dd


def _tridiag_solve(factors, rhs):
    """Forward and back substitution with `_tridiag_factor` factors; rhs of
    shape (m,) or (m, K), one system per column."""
    lower, c, dd = factors
    x = [rhs[0] / dd[0]]
    for i in range(1, len(dd)):
        x.append((rhs[i] - lower[i - 1] * x[i - 1]) / dd[i])
    for i in range(len(dd) - 2, -1, -1):
        x[i] = x[i] - c[i] * x[i + 1]
    return np.array(x, dtype=complex)


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
            return float(np.max(np.linalg.norm(c.sample_all(grid), 2, axis=(1, 2))))

        return {
            "N00": sup_norm(self.N00),
            "N01": sup_norm(self.N01),
            "N10": sup_norm(self.N10),
            "N11": sup_norm(self.N11),
        }

    def theta(self, grid: TimeGrid, nu: float) -> float:
        ns = self.block_norms(grid)
        return (self.c * ns["N00"] + ns["N01"] * ns["N10"]) / (nu * self.c**2)


def _step_dense(Ms, mats, rows, dt: float):
    """Backward difference of M u, one dense solve per node: mats[k] u_k =
    f_k + (M u)_{k-1}/dt with M = Ms[k] on the leading rows (any rows past
    them are an algebraic leg with no memory).  Yields u node by node for
    RHS rows of shape (m,) or (m, K)."""
    m0 = Ms.shape[1]
    batch, rows = _batch_shape(rows)
    mu_prev = np.zeros((mats.shape[1],) + batch, dtype=complex)  # (M u) at the previous node
    for k, f in enumerate(rows):
        uk = np.linalg.solve(mats[k], f + mu_prev / dt)
        mu_prev[:m0] = Ms[k] @ uk[:m0]
        yield uk


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


def solve_ode_block_stepping(sys: OdeBlockSystem, F: Signal, grid: TimeGrid) -> np.ndarray:
    """Route (b) of `solve_ode_block` alone: causal stepping, values (n, m)."""
    return np.array(list(_step_ode_block(sys, F.values, grid)))


def solve_ode_block_neumann(
    sys: OdeBlockSystem, F: Signal, grid: TimeGrid, nu: float, tol: float
) -> np.ndarray:
    """Route (a) of `solve_ode_block` alone: the geometric series through the
    triangular block factorization, truncated a priori from theta."""
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

    def cum(vals):
        return grid.dt * np.cumsum(vals, axis=0)

    def b_tilde_inv(g: np.ndarray) -> np.ndarray:
        # sum_k T^k (M^-1 J g), T = -(M^-1 J R .), J the causal integral
        theta = sys.theta(grid, nu)
        if not theta < 1:
            raise ValueError(f"series route needs theta < 1, got {theta:.3f} at nu={nu}")
        base = apply_nodewise(M_inv, cum(g))
        norm_pref = 1.0 / (sys.c * nu) * 1.05
        k_max = 0
        rem = theta / (1 - theta) * norm_pref
        while rem > tol / 10 and k_max < 10_000:
            k_max += 1
            rem *= theta
        acc = base.copy()
        for _ in range(k_max):
            acc = base - apply_nodewise(M_inv, cum(apply_nodewise(R, acc)))
        return acc

    f0 = F.values[:, :m0]
    if m1 == 0:
        return b_tilde_inv(f0)
    f1 = F.values[:, m0:]
    g0 = f0 - apply_nodewise(N01, apply_nodewise(N11_inv, f1))
    w = b_tilde_inv(g0)
    v = apply_nodewise(N11_inv, f1) - apply_nodewise(N11_inv, apply_nodewise(N10, w))
    return np.concatenate([w, v], axis=1)


def solve_ode_block(
    sys: OdeBlockSystem, F: Signal, nu: float | None = None, tol: float = 1e-8
) -> Signal:
    """Solve (d/dt diag(M,0) + N) U = F by two independent routes.

    Route (a) is the truncated geometric series through the block
    factorization, route (b) direct causal stepping; their agreement within
    `tol` is asserted before route (b) is returned.  Requires the
    contraction condition theta < 1 at the working weight.
    """
    grid = F.grid if nu is None else F.grid.with_nu(nu)
    nu = grid.nu
    theta = sys.theta(grid, nu)
    if not theta < 1:
        raise ValueError(f"contraction fails: theta={theta:.3f} >= 1 at nu={nu}")
    u_step = solve_ode_block_stepping(sys, F, grid)
    u_neum = solve_ode_block_neumann(sys, F, grid, nu, tol)
    sig_step = Signal(grid, u_step)
    scale = max(norm_nu(sig_step), NORM_FLOOR)
    gap = norm_nu(Signal(grid, u_step - u_neum)) / scale
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
    max_iter: int = 200,
) -> Signal:
    """Fixed point of u = J(F(u) + f) with J the causal integral.

    The working weight is chosen as twice the Lipschitz bound, which makes
    the iteration a 1/2-contraction; the returned signal satisfies the
    backward-difference equation du = F(u) + f nodewise to within 10*tol.

    Convergence is in the weighted norm: pointwise accuracy at the window
    tail degrades like exp(2*lip*t) times the iteration gap, so nodal
    comparisons should use windows with lip * t_end moderate.
    """
    if not lip > 0:
        raise ValueError(f"Lipschitz bound must be positive, got {lip}")
    nu = 2.0 * lip
    grid = f.grid.with_nu(nu)
    fv = Signal(grid, f.values)
    kappa = 0.5

    def nemitskii(u: Signal) -> Signal:
        try:  # vectorized rules act on the whole (n, m) stack at once
            vals = np.asarray(F_rule(u.values), dtype=complex)
            if vals.shape != u.values.shape:
                raise ValueError
        except Exception:
            vals = np.stack([np.asarray(F_rule(row), dtype=complex) for row in u.values])
        return Signal(grid, vals)

    u = Signal.zero(grid, f.dim)
    for _ in range(max_iter):
        u_next = antiderivative(nemitskii(u) + fv)
        gap = norm_nu(u_next - u)
        u = u_next
        if gap <= tol * (1 - kappa):
            break
    else:
        raise ValueError(f"fixed point did not reach tol={tol} in {max_iter} iterations")
    defect = norm_nu(derivative(u) - (nemitskii(u) + fv))
    if defect > 10 * tol * max(1.0, norm_nu(u)):
        raise ValueError(f"fixed-point equation defect {defect:.2e} too large")
    return Signal(f.grid, u.values)


# ---------------------------------------------------------------------------
# PDE systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PdeSystem:
    """State-space data for (d/dt M + N + A) u = f.

    The skew-matrix kind carries full-state blocks `M` and `N`.  The 1D
    kinds carry one `Coefficient` per leg in `legs`: (m0, m1, n0, n1) for
    the grad-div kind, (a,) for the wave form.  A leg is a space profile of
    the leg's length or a dim-1 scalar acting on every cell, and its kind
    decides how a solve samples it.  `c` is the certified accretivity
    constant of the full system at the working weight.
    """

    A: SpatialOperator
    c: float
    M: Coefficient | None = None
    N: Coefficient | None = None
    legs: tuple[Coefficient, ...] = ()

    @property
    def state_dim(self) -> int:
        return self.A.state_dim

    @staticmethod
    def dense_small(M: Coefficient, N: Coefficient, A: SpatialOperator, c: float) -> "PdeSystem":
        return PdeSystem(A=A, c=c, M=M, N=N)

    @staticmethod
    def heat(a_edge: np.ndarray, length: float = 1.0, c: float | None = None,
             nu: float = 1.0) -> "PdeSystem":
        """Heat system: state (theta, flux), M = diag(1, 0), N = diag(0, 1/a)."""
        a_edge = np.asarray(a_edge, dtype=complex)
        amin = float(np.min(a_edge.real))
        amax = float(np.max(np.abs(a_edge)))
        if amin <= 0:
            raise ValueError("conductivity must have positive real part")
        c_eff = min(nu, amin / amax**2) if c is None else c
        one, zero = Coefficient.constant(1.0), Coefficient.constant(0.0)
        return PdeSystem(
            A=SpatialOperator.grad0_div_1d(len(a_edge) - 1, length),
            c=c_eff,
            legs=(one, zero, zero, Coefficient.space_profile(1.0 / a_edge)),
        )

    @staticmethod
    def maxwell(eps: Coefficient, mu: Coefficient, sigma: Coefficient,
                m_x: int, length: float = 1.0, c: float = 1.0) -> "PdeSystem":
        """1D Maxwell block: state (E on interior nodes, H on edges)."""
        return PdeSystem(
            A=SpatialOperator.grad0_div_1d(m_x, length),
            c=c,
            legs=(eps, mu, sigma, Coefficient.constant(0.0)),
        )

    @staticmethod
    def wave(a_edge: np.ndarray, length: float = 1.0, nu: float = 1.0) -> "PdeSystem":
        """Acoustic wave in first-order form with mean-zero projected flux."""
        a_edge = np.asarray(a_edge, dtype=complex)
        amax = float(np.max(np.abs(a_edge)))
        c_eff = nu * min(1.0, 1.0 / amax)
        return PdeSystem(
            A=SpatialOperator.grad0_div_1d_projected(len(a_edge) - 1, length),
            c=c_eff,
            legs=(Coefficient.space_profile(a_edge),),
        )


def _sample_legs(sys: PdeSystem, grid: TimeGrid, deriv: bool = False) -> list:
    """The 1D legs, or the analytic time derivatives of the M legs (m0, m1),
    sampled once per solve by kind: a time profile as an (n, 1) series, a
    space profile as its read-only (1, size) cell values, any other scalar
    as (1, 1).  A time-independent leg has derivative zero; a time profile
    without an analytic derivative raises."""
    m = sys.A.m_x
    sizes = (m, m + 1, m, m + 1) if sys.A.kind == "grad0-div-1d" else (m + 1,)
    out = []
    for leg, size in zip(sys.legs[:2] if deriv else sys.legs, sizes):
        if leg.dim != 1 and not (leg.kind == "space-profile" and leg.dim == size):
            raise ValueError(f"a leg of length {size} needs a dim-1 coefficient or a "
                             f"space profile of that length, got {leg.kind} of dim {leg.dim}")
        varying = leg.kind == "time-profile"
        if deriv and not varying:
            out.append(np.zeros((1, 1)))
        elif leg.kind == "space-profile":
            out.append(leg.diagonal_values()[None])
        else:
            stack = leg.sample_deriv_all(grid) if deriv else leg.sample_all(grid)
            out.append(stack[:, :, 0] if varying else stack[:1, :, 0])
    return out


def _pde_check(sys: PdeSystem, grid: TimeGrid, nu: float):
    """Check the positivity certificate Re(nu M + M'/2) + Re N >= c: at every
    node in one batched eigenvalue solve for the skew-matrix kind; per leg
    pair of the grad-div kind, at every node of a time-profile leg and once
    for a time-independent one (a time series meets a space profile through
    the two minima)."""
    if sys.A.kind == "skew-matrix" and sys.M is not None:
        herm = nu * sys.M.sample_all(grid)
        if sys.M.deriv_sampler is not None:
            herm = herm + 0.5 * sys.M.sample_deriv_all(grid)
        herm = herm + sys.N.sample_all(grid)
        low = np.linalg.eigvalsh(0.5 * (herm + herm.conj().swapaxes(1, 2)))[:, 0]
        k = int(np.argmax(low < sys.c - 1e-9))  # the first failing node
        if low[k] < sys.c - 1e-9:
            raise ValueError(f"positivity certificate fails at t={grid.times[k]}: "
                             f"{low[k]:.4f} < c={sys.c}")
    elif sys.A.kind == "grad0-div-1d":
        m0, m1, n0, n1 = _sample_legs(sys, grid)
        dm0, dm1 = _sample_legs(sys, grid, deriv=True)
        for leg, (m, dm, n) in enumerate(((m0, dm0, n0), (m1, dm1, n1))):
            damped, n = (nu * m + 0.5 * dm).real, n.real
            if damped.min() < -1e-12:
                raise ValueError(f"leg {leg} damping fails: {damped.min():.3e} < 0")
            if damped.shape[0] != n.shape[0] and damped.shape[1] != n.shape[1]:
                damped, n = damped.min(), n.min()
            low = float(np.min(damped + n))
            if low < sys.c - 1e-9:
                raise ValueError(f"leg {leg} positivity fails: {low:.4f} < c={sys.c}")


def _step_skew_dense(sys: PdeSystem, rows, grid: TimeGrid):
    Ms = sys.M.sample_all(grid)
    mats = Ms / grid.dt + sys.N.sample_all(grid) + sys.A.dense()
    return _step_dense(Ms, mats, rows, grid.dt)


def _step_grad_div(sys: PdeSystem, rows, grid: TimeGrid):
    """Implicit step for the (u-leg, flux-leg) systems; flux eliminated per
    node, leaving a tridiagonal solve on the u-leg.  The legs are sampled
    once per solve, and the matrix is refactored only at the nodes where a
    time-profile leg moved."""
    m_x = sys.A.m_x
    dx_inv = _dx_inv(m_x, sys.A.length)
    dt = grid.dt
    legs = _sample_legs(sys, grid)
    moved = np.zeros(grid.n, dtype=bool)
    moved[0] = True
    for s in legs:
        if len(s) > 1:
            moved[1:] |= s[1:, 0] != s[:-1, 0]
    # the memory term of the first step reads M one step before t0
    t_before = grid.times[0] - dt
    m0_prev, m1_prev = (
        s[0] if len(s) == 1 else np.asarray(leg.sampler(t_before), dtype=complex).reshape(1)
        for leg, s in zip(sys.legs, legs[:2])
    )
    batch, rows = _batch_shape(rows)
    u = np.zeros((m_x,) + batch, dtype=complex)
    h = np.zeros((m_x + 1,) + batch, dtype=complex)
    for k, f in enumerate(rows):
        if moved[k]:
            m0, m1, n0, n1 = (s[k] if len(s) > 1 else s[0] for s in legs)
            d1 = m1 / dt + n1
            if np.any(np.abs(d1) < 1e-300):
                raise ValueError("flux-leg coefficient vanishes; cannot eliminate")
            # flux-leg: d1 * h + G u = rhs1  ->  h = (rhs1 - G u)/d1
            # u-leg: (m0/dt + n0) u - G^T h = f0 + m0_prev u_prev / dt
            w = np.broadcast_to(1.0 / d1, (m_x + 1,))
            off, diag = _laplacian_bands(dx_inv, w)
            factors = _tridiag_factor(off, diag + m0 / dt + n0, off)
        rhs1 = f[m_x:] + _scale(m1_prev, h) / dt
        rhs0 = f[:m_x] + _scale(m0_prev, u) / dt + _gt_apply(_scale(w, rhs1), dx_inv)
        u = _tridiag_solve(factors, rhs0)
        h = _scale(w, rhs1 - _g_apply(u, dx_inv))
        yield np.concatenate([u, h])
        m0_prev, m1_prev = m0, m1


def _step_wave(sys: PdeSystem, rows, grid: TimeGrid):
    """Velocity/strain stepping of the projected wave system.

    Internally integrates (v, q) with dq = pi grad0 v so that only a
    constant tridiagonal solve appears, factored once; the reported flux
    p = pi a pi* q is mean-zero by construction.
    """
    m_x = sys.A.m_x
    (a,) = _sample_legs(sys, grid)
    if len(a) > 1:
        raise ValueError("the wave coefficient must not depend on time")
    a = np.broadcast_to(a[0], (m_x + 1,))
    dx_inv = _dx_inv(m_x, sys.A.length)
    dt = grid.dt
    off, diag = _laplacian_bands(dx_inv, a)
    factors = _tridiag_factor(off * dt, diag * dt + 1.0 / dt, off * dt)
    batch, rows = _batch_shape(rows)
    v = np.zeros((m_x,) + batch, dtype=complex)
    q = np.zeros((m_x + 1,) + batch, dtype=complex)
    for f in rows:
        # (1/dt + dt G^T a G) v_k = f + v_prev/dt - G^T a q_prev
        rhs = f[:m_x] + v / dt - _gt_apply(_scale(a, q), dx_inv)
        v = _tridiag_solve(factors, rhs)
        q = q + dt * _g_apply(v, dx_inv)
        yield np.concatenate([v, mean_zero_project(_scale(a, q))])


def solve_evo_pde(
    sys: PdeSystem,
    f: Signal,
    nu: float | None = None,
    check_causality: bool = True,
    check_norm: bool = True,
) -> Signal:
    """Implicit causal step for (d/dt M + N + A) u = f.

    Asserts the accretive norm bound |u| <= (1/c)|f| with 5% discretization
    slack and a spot causality check (three cut times, using f itself as the
    probe, run as one batch with the uncut f) before returning.
    """
    grid = f.grid if nu is None else f.grid.with_nu(nu)
    nu = grid.nu
    _pde_check(sys, grid, nu)
    u_vals = _dispatch_step(sys, f.values, grid)
    u = Signal(grid, u_vals)
    if check_norm:
        bound = (1.0 / sys.c) * norm_nu(Signal(grid, f.values)) * 1.05
        if norm_nu(u) > bound + 1e-14:
            raise ValueError(
                f"norm bound violated: |u|={norm_nu(u):.4e} > (1/c)|f|*1.05={bound:.4e}"
            )
    if check_causality:
        cuts = [grid.t0 + frac * (grid.t_end - grid.t0) for frac in (0.25, 0.5, 0.75)]
        # the uncut input and its three truncations run as one (m, 4) batch
        keep = np.stack([np.ones(grid.n)] + [(grid.times < t).astype(float) for t in cuts], 1)
        u_cut = _dispatch_step(sys, f.values[:, :, None] * keep[:, None, :], grid)
        f_norm = max(norm_nu(Signal(grid, f.values)), NORM_FLOOR)
        for j, t_cut in enumerate(cuts, 1):
            defect = norm_nu(truncate_before(Signal(grid, u_cut[..., 0] - u_cut[..., j]), t_cut))
            if defect > 1e-10 * f_norm:
                raise ValueError(f"causality defect {defect:.2e} at t={t_cut}")
    return u


def _pde_steps(sys: PdeSystem, rows, grid: TimeGrid):
    """Node-by-node states of the stepper for the system's spatial kind, fed
    RHS rows of shape (m,) or (m, K)."""
    if sys.A.kind == "skew-matrix":
        return _step_skew_dense(sys, rows, grid)
    if sys.A.kind == "grad0-div-1d":
        return _step_grad_div(sys, rows, grid)
    if sys.A.kind == "grad0-div-1d-projected":
        return _step_wave(sys, rows, grid)
    raise ValueError(f"unknown spatial kind {sys.A.kind}")


def _dispatch_step(sys: PdeSystem, F: np.ndarray, grid: TimeGrid) -> np.ndarray:
    return np.array(list(_pde_steps(sys, F, grid)))


def evo_pde_solution_map(sys: PdeSystem, grid: TimeGrid):
    """Solution operator as a callable, with the per-call checks disabled
    (diagnostics run them on the map as a whole)."""
    def act(F: Signal) -> Signal:
        return Signal(grid, _dispatch_step(sys, F.values, grid))

    return act


def evo_pde_forward(sys: PdeSystem, u: Signal) -> Signal:
    """The forward operator (d/dt M + N + A) u on u's grid, d/dt the
    steppers' backward difference, so that it inverts the solution map to
    roundoff.  Covers the skew-matrix and grad-div kinds."""
    grid = u.grid
    v = u.values
    if sys.A.kind == "skew-matrix":
        mu = np.einsum("kab,kb->ka", sys.M.sample_all(grid), v)
        nv = np.einsum("kab,kb->ka", sys.N.sample_all(grid), v)
        av = v @ sys.A.dense().T
    elif sys.A.kind == "grad0-div-1d":
        m, dx_inv = sys.A.m_x, _dx_inv(sys.A.m_x, sys.A.length)
        m0, m1, n0, n1 = _sample_legs(sys, grid)
        e, h = v[:, :m], v[:, m:]
        mu = np.concatenate([m0 * e, m1 * h], axis=1)
        nv = np.concatenate([n0 * e, n1 * h], axis=1)
        av = np.concatenate([-_gt_apply(h.T, dx_inv).T, _g_apply(e.T, dx_inv).T], axis=1)
    else:
        raise ValueError(f"no forward operator for spatial kind {sys.A.kind}")
    return derivative(Signal(grid, mu)) + Signal(grid, nv) + Signal(grid, av)


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
    nu: float,
    c: float,
) -> float:
    """Relative discrepancy between the two sides of the exchange identity

        (sol(M,N) - sol(O,P)) sol(O,P)^-1 J sol(O,P)
          = sol(M,N) ((O-M) + (O'-M') J + (P-N) J) sol(O,P)

    evaluated on f, J the causal integral.  Time derivatives of the
    coefficients enter as analytic data; for constant-in-time pairs the
    discrete identity is exact up to solver roundoff.
    """
    grid = f.grid.with_nu(nu)
    sys_mn = PdeSystem.dense_small(M, N, A, c)
    sys_op = PdeSystem.dense_small(O, P, A, c)
    sol_mn = evo_pde_solution_map(sys_mn, grid)
    sol_op = evo_pde_solution_map(sys_op, grid)

    u = sol_op(Signal(grid, f.values))
    ju = antiderivative(u)
    y = evo_pde_forward(sys_op, ju)  # B_OP J u, the forward map of the smoothed state
    O_mats = O.sample_all(grid)
    M_mats = M.sample_all(grid)
    N_mats = N.sample_all(grid)
    lhs = sol_mn(y) - sol_op(y)

    dM = O_mats - M_mats
    dN = P.sample_all(grid) - N_mats
    dMp = np.zeros_like(dM)
    if O.deriv_sampler is not None or M.deriv_sampler is not None:
        Od = O.sample_deriv_all(grid) if O.deriv_sampler is not None else np.zeros_like(O_mats)
        Md = M.sample_deriv_all(grid) if M.deriv_sampler is not None else np.zeros_like(M_mats)
        dMp = Od - Md
    inner = (
        np.einsum("kab,kb->ka", dM, u.values)
        + np.einsum("kab,kb->ka", dMp, ju.values)
        + np.einsum("kab,kb->ka", dN, ju.values)
    )
    rhs = sol_mn(Signal(grid, inner))

    denom = max(norm_nu(lhs), norm_nu(rhs), 1e-8 * max(norm_nu(ju), NORM_FLOOR))
    return norm_nu(lhs - rhs) / denom


# ---------------------------------------------------------------------------
# named physical systems
# ---------------------------------------------------------------------------

def maxwell_1d_solve(
    eps: Coefficient,
    mu: Coefficient,
    sigma: Coefficient,
    J: Signal,
    nu: float,
    m_x: int | None = None,
    length: float = 1.0,
    c: float = 1.0,
    check: bool = True,
) -> Signal:
    """Solve the 1D Maxwell block with Dirichlet condition on the E leg.

    J is the current density on the E leg; the returned signal stacks
    (E, H).  The damped-dielectricity inequalities (nu*eps + eps'/2 >= 0,
    nu*mu + mu'/2 >= c and nu*eps + eps'/2 + Re sigma >= c) are checked at
    every node where a coefficient varies in time; eps = 0 is admissible
    (eddy-current regime).
    """
    sys = PdeSystem.maxwell(eps, mu, sigma, J.dim if m_x is None else m_x, length, c)
    return _solve_driven(sys, J, nu, check)


def _solve_driven(sys: PdeSystem, f: Signal, nu: float, check_norm: bool = False) -> Signal:
    """`solve_evo_pde` of a 1D system driven by f on its u-leg, without the
    spot causality check."""
    F = np.zeros((f.grid.n, sys.state_dim), dtype=complex)
    F[:, :sys.A.m_x] = f.values
    return solve_evo_pde(sys, Signal(f.grid, F), nu=nu, check_causality=False,
                         check_norm=check_norm)


def _edge_values(a_edge):
    """Edge values from an array or a space-profile Coefficient."""
    return a_edge.diagonal_values() if isinstance(a_edge, Coefficient) else a_edge


def heat_1d_solve(a_edge, f: Signal, nu: float, length: float = 1.0) -> Signal:
    """Heat flow with edge-sampled conductivity; f drives the theta leg."""
    return _solve_driven(PdeSystem.heat(_edge_values(a_edge), length, nu=nu), f, nu)


def wave_1d_solve(a_edge, f: Signal, nu: float, length: float = 1.0) -> Signal:
    """First-order wave system driven on the velocity leg; returns (v, p)."""
    return _solve_driven(PdeSystem.wave(_edge_values(a_edge), length, nu=nu), f, nu)


# ---------------------------------------------------------------------------
# elliptic divergence-form solve via the three-factor formula
# ---------------------------------------------------------------------------

def elliptic_solve(
    a_edge,
    f_nodes: np.ndarray,
    length: float = 1.0,
    cross_check_tol: float = 1e-8,
) -> np.ndarray:
    """Solve -(a u')' = f with zero boundary values in one dimension.

    Uses the factorization of the inverse into (projected gradient)^-1,
    (projected coefficient)^-1 and (projected divergence)^-1 and
    cross-checks against the direct three-point solve; the two must agree
    to `cross_check_tol` since the discrete factorization is exact.  The
    coefficient may be an edge-sampled array or a space-profile Coefficient.
    """
    if isinstance(a_edge, Coefficient):
        a_edge = a_edge.diagonal_values()
    a_edge = np.asarray(a_edge, dtype=complex)
    f_nodes = np.asarray(f_nodes, dtype=complex)
    m_x = len(f_nodes)
    if len(a_edge) != m_x + 1:
        raise ValueError("a must be sampled on the m_x+1 edges")
    alpha = float(np.min(a_edge.real))
    if alpha <= 0:
        raise ValueError(f"coefficient not uniformly positive: min Re a = {alpha}")
    dx_inv = _dx_inv(m_x, length)
    # steps 1 and 3 solve with the Dirichlet Laplacian G^T G, factored once
    off, diag = _laplacian_bands(dx_inv, np.ones(m_x + 1))
    lap = _tridiag_factor(off, diag, off)
    # step 1: sigma = (-div pi*)^-1 f, the mean-zero edge field with G^T s = f
    sigma = _g_apply(_tridiag_solve(lap, f_nodes), dx_inv)
    # step 2: w = (pi a pi*)^-1 sigma on the mean-zero subspace, i.e.
    # w = a^-1 (sigma + k) with the constant k that makes w mean-zero
    a_inv = 1.0 / a_edge
    s = a_inv * sigma
    w = s - a_inv * (s.mean() / a_inv.mean())
    # step 3: u = (pi grad0)^-1 w
    u = _tridiag_solve(lap, _gt_apply(w, dx_inv))

    off, diag = _laplacian_bands(dx_inv, a_edge)
    direct = _tridiag_solve(_tridiag_factor(off, diag, off), f_nodes)
    scale = max(float(np.linalg.norm(direct)), NORM_FLOOR)
    gap = float(np.linalg.norm(u - direct)) / scale
    if gap > cross_check_tol:
        raise ValueError(f"three-factor route disagrees with direct solve: {gap:.2e}")
    return u
