"""Algebra of causal linear operators on signals.

Operators are wrapped actions with optional dense materialization.  All
norm-type quantities on the weighted space are probe-set or dense-window
estimates; every acceptance bound downstream carries explicit slack to
absorb the discretization, so estimates only ever need to be honest lower
bounds computed the same way on both sides of an inequality.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .signals import (
    NORM_FLOOR, GridMismatchError, Signal, TimeGrid, inner_nu, norm_nu, truncate_before, shift,
)
from .timecalc import antiderivative

__all__ = [
    "CausalOp",
    "ProbeSet",
    "op_norm",
    "causality_defect",
    "transfer_function",
    "nu_independence_defect",
    "pairing_sup",
    "probe_sup",
    "sup",
    "series_terms",
]

DENSE_LIMIT = 1024  # columns up to which an operator materializes


@dataclass(frozen=True)
class CausalOp:
    """Linear operator on signals over a fixed grid.

    `action` must be linear; the diagnostics assume it.  `dense`, when
    present, is the (n*dim_out) x (n*dim_in) matrix acting on stacked node
    values.  An operator declares neither causality nor translation
    invariance: the diagnostics in this module measure both.
    """

    grid: TimeGrid
    action: Callable[[Signal], Signal]
    dim_in: int = 1
    dim_out: int = 1
    dense: np.ndarray | None = field(default=None, repr=False)
    # adjoint with respect to the nu-weighted product at grid.nu, when known
    # analytically; lets op_norm power-iterate without materializing
    adjoint_action: Callable[[Signal], Signal] | None = field(default=None, repr=False)

    def __call__(self, f: Signal) -> Signal:
        if f.dim != self.dim_in:
            raise GridMismatchError(f"operator expects dim {self.dim_in}, got {f.dim}")
        out = self.action(f)
        if out.dim != self.dim_out:
            raise GridMismatchError(
                f"operator produced dim {out.dim}, declared {self.dim_out}"
            )
        return out

    # -- constructors -------------------------------------------------------

    @staticmethod
    def identity(grid: TimeGrid) -> "CausalOp":
        return CausalOp(grid=grid, action=lambda f: f)

    @staticmethod
    def antiderivative_op(grid: TimeGrid) -> "CausalOp":
        w = np.exp(-2.0 * grid.nu * grid.times)

        def adj(f: Signal) -> Signal:
            # W^-1 J^T W with rectangle weights: reversed weighted cumsum
            damped = f.values * w[:, None]
            rev = grid.dt * np.cumsum(damped[::-1], axis=0)[::-1]
            return Signal(grid, rev / w[:, None])

        return CausalOp(grid=grid, action=antiderivative, adjoint_action=adj)

    @staticmethod
    def shift_op(grid: TimeGrid, h: float) -> "CausalOp":
        # weighted adjoint of translation: opposite shift scaled by exp(2 h nu)
        scale = np.exp(2.0 * h * grid.nu)

        def adj(f: Signal) -> Signal:
            return scale * shift(f, -h)

        return CausalOp(grid=grid, action=lambda f: shift(f, h), adjoint_action=adj)

    # -- materialization ----------------------------------------------------

    def materialize(self) -> "CausalOp":
        """Assemble the dense stacked-node matrix by applying unit impulses."""
        if self.dense is not None:
            return self
        n, di, do = self.grid.n, self.dim_in, self.dim_out
        size_in = n * di
        if size_in > DENSE_LIMIT:
            raise ValueError(f"refusing to materialize {size_in} columns")
        cols = np.empty((n * do, size_in), dtype=complex)
        basis = np.zeros((n, di), dtype=complex)
        for j in range(size_in):
            basis.flat[j] = 1.0
            cols[:, j] = self.action(Signal(self.grid, basis)).values.ravel()
            basis.flat[j] = 0.0
        return replace(self, dense=cols)


@dataclass(frozen=True)
class ProbeSet:
    """Deterministic, seed-versioned dictionary of test signals.

    Contains indicator blocks, Gaussian bumps, and seeded random smooth
    signals, all supported in [t0, window end].  Indicators are mandatory:
    the weak-topology pairings downstream test against them.
    """

    grid: TimeGrid
    dim: int = 1
    seed: int = 42
    n_random: int = 4
    signals: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "signals", tuple(self._build()))

    def _build(self):
        grid, dim = self.grid, self.dim
        rng = np.random.default_rng(self.seed)
        t = grid.times
        span = grid.t_end - grid.t0
        out = []
        # indicator blocks over the early window (weight-relevant region)
        for (a, b) in ((0.0, 1.0), (0.5, 2.0), (1.0, 4.0)):
            out.append(Signal.indicator(grid, grid.t0 + a * span / 10, grid.t0 + b * span / 10, dim))
        # Gaussian bumps, fully interior: center/width ratio 6 keeps the tails
        # below the 1e-14 floor at both window edges
        for (c_frac, s_frac) in ((0.12, 0.02), (0.2, 1 / 30), (0.35, 0.35 / 6)):
            c = grid.t0 + c_frac * span
            s = max(s_frac * span, 2 * grid.dt)
            bump = np.exp(-(((t - c) / s) ** 2))
            bump[bump < 1e-14] = 0.0
            out.append(Signal(grid, np.repeat(bump[:, None], dim, axis=1)))
        # random smooth signals: low-order Fourier sums under an interior envelope
        for _ in range(self.n_random):
            coeffs = rng.standard_normal((4, dim)) + 1j * rng.standard_normal((4, dim))
            phase = rng.uniform(0, 2 * np.pi, size=4)
            freq = rng.uniform(0.2, 1.5, size=4)
            env = np.exp(-(((t - grid.t0 - 0.3 * span) / (0.05 * span)) ** 2))
            env[env < 1e-14] = 0.0
            vals = np.zeros((grid.n, dim), dtype=complex)
            for j in range(4):
                vals += np.outer(env * np.cos(freq[j] * (t - grid.t0) + phase[j]), coeffs[j])
            out.append(Signal(grid, vals))
        return out

    def __iter__(self):
        return iter(self.signals)

    def __len__(self):
        return len(self.signals)

    def smooth_only(self) -> tuple:
        """The members other than the indicators (bumps and random smooth
        signals only); for diagnostics whose error budget assumes spectral
        decay of the inputs."""
        return self.signals[3:]


def _weight_vector(grid: TimeGrid, dim: int) -> np.ndarray:
    # Rectangle weights, not trapezoid: the similarity then reduces to the
    # pure exponential diag(exp(-nu t_k)), under which grid translations have
    # their exact continuum norm (no spurious sqrt(2) from half end-weights).
    w = grid.dt * np.exp(-2.0 * grid.nu * grid.times)
    return np.repeat(w, dim)


def sup(values: Iterable[float]) -> float:
    """The largest of 0.0 and the values, NaN when any value is NaN, so that
    a NaN reaches the gate it feeds instead of being dropped."""
    return float(np.max(list(values), initial=0.0))


def probe_sup(pairs: Iterable[tuple[Signal, Signal]]) -> float:
    """`sup` over (residual, probe) pairs (r, f) of |r| / max(|f|, NORM_FLOOR),
    each norm at the weight of its signal's grid."""
    return sup(norm_nu(r) / max(norm_nu(f), NORM_FLOOR) for r, f in pairs)


def pairing_sup(tests: Iterable[Signal], mismatches: Iterable[tuple[Signal, float]]) -> float:
    """The weak counterpart of `probe_sup`: `sup` over every test g and every
    (mismatch d, scale s) of |<g, d>| / (max(|g|, NORM_FLOOR) s), each test's
    norm taken once; a mismatch off a test's grid or dim raises."""
    pairs = list(mismatches)
    normed = ((g, max(norm_nu(g), NORM_FLOOR)) for g in tests)
    return sup(abs(inner_nu(g, d)) / (ng * s) for g, ng in normed for d, s in pairs)


def series_terms(theta: float, prefactor: float, tol: float) -> int:
    """Smallest K with a-priori geometric remainder theta^(K+1)/(1 - theta)
    * prefactor <= tol; raises past 10,000 terms."""
    k_max = 0
    rem = theta / (1 - theta) * prefactor
    while rem > tol:
        k_max += 1
        rem *= theta
        if k_max > 10_000:
            raise ValueError("series truncation index exploded; theta too close to 1")
    return k_max


def op_norm(S: CausalOp) -> float:
    """Estimated operator norm of S on the space weighted at S.grid.nu.

    With an analytic adjoint: power iteration on S* S from a seeded random
    start, at most 3000 steps, stopping at relative change 1e-12; it warns
    with its budget when it does not settle and returns the final Rayleigh
    ratio; a norm that is not finite raises at its step.  Otherwise, up to
    DENSE_LIMIT columns: the largest singular value of the weighted
    similarity W^(1/2) S W^(-1/2) of the materialized S, taken in real
    arithmetic when that matrix has no imaginary part.
    """
    size = S.grid.n * S.dim_in
    if S.adjoint_action is not None:
        # matvec-only power iteration; iterations are O(n), so the budget
        # can be deep
        rng = np.random.default_rng(11)
        v = Signal(S.grid, rng.standard_normal((S.grid.n, S.dim_in))
                   + 1j * rng.standard_normal((S.grid.n, S.dim_in)))
        v = (1.0 / max(norm_nu(v), NORM_FLOOR)) * v
        sigma = 0.0
        for step in range(1, 3001):
            v = S.adjoint_action(S(v))
            nv = norm_nu(v)
            if not np.isfinite(nv):
                raise ValueError(f"power iteration norm {nv} is not finite at step {step}")
            if nv < NORM_FLOOR:
                return 0.0
            sigma_new = float(np.sqrt(nv))
            v = (1.0 / nv) * v
            if abs(sigma_new - sigma) <= 1e-12 * max(sigma_new, 1.0):
                return sigma_new
            sigma = sigma_new
        warnings.warn(
            "op_norm power iteration did not settle in 3000 iterations; "
            f"returning the final Rayleigh ratio {sigma:.6e}",
            RuntimeWarning,
        )
        return sigma
    if size > DENSE_LIMIT:
        raise ValueError(f"op_norm needs an analytic adjoint above {DENSE_LIMIT} "
                         f"columns, got {size}")
    S = S.materialize()
    w_in = _weight_vector(S.grid, S.dim_in)
    w_out = _weight_vector(S.grid, S.dim_out)
    A = np.sqrt(w_out)[:, None] * S.dense / np.sqrt(w_in)[None, :]
    return float(np.linalg.norm(A if A.imag.any() else A.real, 2))


def causality_defect(S: CausalOp, t: float, probes: Iterable[Signal]) -> float:
    """Max over probes of |Q_t S f - Q_t S Q_t f| / |f| at the cut time t.

    Zero (up to roundoff) certifies that output before t only sees input
    before t; anti-causal operators light up on indicator probes straddling
    the cut.  Norms are weighted at the probes' grid, which is S.grid for
    an operator that maps its grid to itself.
    """
    return probe_sup(
        (truncate_before(S(f), t) - truncate_before(S(truncate_before(f, t)), t), f)
        for f in probes
    )


def transfer_function(
    S: CausalOp,
    z_samples: Sequence[complex],
) -> list[np.ndarray]:
    """Extract the analytic symbol M(z) of a causal TI operator.

    Feeds a smooth interior bump through S and divides one-sided Laplace
    transforms: M(z) e_j = L[S(bump e_j)](z) / L[bump](z).  Both hypotheses
    of the representation theorem are measured on every column e_j, each to
    a relative defect of 1e-8: causality at the bump's centre c0, on the
    bump and on the step 1[c0, t_end) (so any advance shorter than the
    window shows), and translation invariance by shift-commutation on the
    bump (causal shifts only, so nothing falls off the window edge).
    """
    grid = S.grid
    t = grid.times
    span = grid.t_end - grid.t0
    c0, s0 = grid.t0 + 0.08 * span, 0.02 * span
    bump = np.exp(-(((t - c0) / s0) ** 2))
    bump[bump < 1e-14] = 0.0
    step = (t >= c0).astype(float)
    h = -16 * grid.dt

    def column(x: np.ndarray, j: int) -> Signal:
        e = np.zeros((grid.n, S.dim_in), dtype=complex)
        e[:, j] = x
        return Signal(grid, e)

    responses = []
    for j in range(S.dim_in):
        probe, late = column(bump, j), column(step, j)
        resp = S(probe)
        # causality: Q_c0 S = Q_c0 S Q_c0; the step has no past, so its
        # leak is Q_c0 S step alone.  The plain norms, not causality_defect's
        # floored ones: where they underflow to 0 this raises, not passes
        leak = sup((
            norm_nu(truncate_before(resp - S(truncate_before(probe, c0)), c0)) / norm_nu(probe),
            norm_nu(truncate_before(S(late), c0)) / norm_nu(late),
        ))
        if not leak <= 1e-8:
            raise ValueError(
                f"causality defect {leak:.2e} > 1e-8 at t={c0} on column {j}: "
                "representation theorem hypothesis (causality) violated"
            )
        # S tau_h = tau_h S for a causal grid shift
        drift = norm_nu(S(shift(probe, h)) - shift(resp, h)) / max(norm_nu(resp), NORM_FLOOR)
        if not drift <= 1e-8:
            raise ValueError(
                f"shift-commutation defect {drift:.2e} > 1e-8 on column {j}: "
                "representation theorem hypothesis (translation invariance) violated"
            )
        responses.append(resp.values)

    w = grid.with_nu(0.0).quad_weights()  # plain trapezoid weights

    def laplace(values: np.ndarray, z: complex) -> np.ndarray:
        return (w * np.exp(-z * t)) @ values

    out = []
    for z in z_samples:
        denom = laplace(bump[:, None], z)[0]
        if not abs(denom) >= 1e-14:
            raise ValueError(f"probe transform vanishes at z={z}")
        m = np.empty((S.dim_out, S.dim_in), dtype=complex)
        for j in range(S.dim_in):
            m[:, j] = laplace(responses[j], z) / denom
        out.append(m)
    return out


def nu_independence_defect(
    solve: Callable[[np.ndarray, TimeGrid], np.ndarray],
    nu1: float,
    nu2: float,
    probes: Iterable[Signal],
) -> float:
    """Discrepancy of a solution map solved at two weights.

    `solve(values, grid)` maps a probe's node values on `grid` to output
    node values at the weight grid.nu.  Each probe is moved onto its own
    lattice at nu1 and at nu2; compactly supported probes lie in every
    weighted space, so the outputs must coincide if the underlying operator
    is genuinely weight-independent.  Compared on copies of the probes at
    weight zero, the unweighted grid norm, to avoid privileging either nu.
    """
    if not (0 < nu1 < nu2):
        raise ValueError(f"need 0 < nu1 < nu2, got {nu1}, {nu2}")

    def gap(f: Signal) -> Signal:
        return Signal(f.grid.with_nu(0.0), solve(f.values, f.grid.with_nu(nu1))
                      - solve(f.values, f.grid.with_nu(nu2)))

    return probe_sup((gap(f), Signal(f.grid.with_nu(0.0), f.values)) for f in probes)
