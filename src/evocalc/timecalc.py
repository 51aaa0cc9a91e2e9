"""Discrete causal time calculus: derivative, antiderivative, resolvents,
the weighted Fourier transform, and spectral multipliers.

The discrete pair is chosen so that the algebra holds on the lattice:
`derivative` is the backward difference with zero history and
`antiderivative` is the inclusive cumulative sum scaled by dt.  They are
mutual inverses up to the rounding of the cumulative sum (bit-exact only
where every partial sum is exact; see `antiderivative`), so solver
identities downstream hold to roundoff instead of up to O(dt).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .signals import Signal, TimeGrid

__all__ = [
    "SpectrumSignal",
    "MultiplierFunction",
    "derivative",
    "antiderivative",
    "resolvent",
    "resolvent_series",
    "fourier_laplace",
    "inverse_fourier_laplace",
    "apply_multiplier",
    "spectrum_of_antiderivative",
]

# Zero padding of the weighted transform: the window is extended to at
# least PAD_FACTOR times its length, so multiplier application is a linear
# (not circular) convolution for signals whose damped mass at the window
# edge is negligible.  The padded length is rounded up to a 5-smooth one
# (`_pad_length`), a fast FFT size: the forward transform of 30001 nodes
# took 2.1 ms at 121500 samples against 21.9 ms at 120004 (best of 12).
PAD_FACTOR = 4


def _pad_length(n: int) -> int:
    """The smallest 5-smooth integer (2^i 3^j 5^k) at or above n *
    PAD_FACTOR: the one transform length of `fourier_laplace`, its inverse
    and `SpectrumSignal`."""
    target = n * PAD_FACTOR
    best = 1 << (target - 1).bit_length()  # the next power of two
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def derivative(f: Signal) -> Signal:
    """Backward difference (f_k - f_{k-1}) / dt with f_{-1} = 0."""
    v = f.values
    out = np.empty_like(v)
    out[0] = v[0] / f.grid.dt
    out[1:] = (v[1:] - v[:-1]) / f.grid.dt
    return Signal(f.grid, out)


def antiderivative(f: Signal) -> Signal:
    """Causal cumulative integral g_k = dt * sum_{j<=k} f_j.

    Inverse of `derivative` up to the rounding of the cumulative sum: at
    node k, |derivative(antiderivative(f)) - f| <= 4u(|s_k| + |s_{k-1}| +
    |f_k|), u the unit roundoff and s the partial sums; bit-exact where every
    partial sum is exact, such as integers on a dyadic step.  The weight
    must be positive, else the cumulative sum models no bounded operator.
    """
    if not f.grid.nu > 0:
        raise ValueError(
            f"antiderivative requires nu > 0 on the grid, got nu={f.grid.nu}"
        )
    return Signal(f.grid, _cumsum(f.values, f.grid.dt))


def _cumsum(values: np.ndarray, dt: float) -> np.ndarray:
    """The scaled cumulative sum behind `antiderivative` on raw values."""
    return dt * np.cumsum(values, axis=0)


def _pcr_levels(lower, diag, upper):
    """Parallel cyclic reduction (Hockney, J. ACM 12, 1965; in vector form
    Zhang, Cohen and Owens, PPoPP 2010) of the tridiagonal matrix with main
    band `diag` (m,) and off bands `lower`, `upper` (m - 1,).

    Level s (s = 1, 2, 4, ... < m) adds alpha_i times row i - s and gamma_i
    times row i + s to row i, which couples x_i to x_{i -+ 2s} only; after
    the last level the matrix is diagonal.  Returns ([(s, alpha, gamma)],
    final diagonal), alpha of length m - s for rows s.., gamma for rows
    ..m - s, or None when `upper` is zero (a lower-bidiagonal matrix stays
    lower-bidiagonal, and row i then reads no later row).  Stable without
    pivoting for diagonally dominant matrices.
    """
    # at stride s, a[j] couples row j + s to x_j and c[j] row j to x_{j + s}
    a = np.asarray(lower, dtype=complex)
    b = np.array(diag, dtype=complex)
    c = np.asarray(upper, dtype=complex) if np.any(upper) else None
    m, s, levels = len(b), 1, []
    while s < m:
        alpha = -a / b[:-s]
        if c is None:
            gamma, a = None, alpha[s:] * a[:-s]
        else:
            gamma = -c / b[s:]
            b[s:] += alpha * c
            b[:-s] += gamma * a
            a, c = alpha[s:] * a[:-s], gamma[:-s] * c[s:]
        levels.append((s, alpha, gamma))
        s *= 2
    return levels, b


def _pcr_solve(levels, rhs):
    """x with T x = rhs for the `_pcr_levels` of T; rhs of shape (m,) or
    (m, K), one system per column.  Every level is elementwise arithmetic
    along the rows, so equal columns give equal bits wherever they sit."""
    steps, diag = levels
    x = np.array(rhs, dtype=complex)
    col = (slice(None),) + (None,) * (x.ndim - 1)
    for s, alpha, gamma in steps:
        lo = alpha[col] * x[:-s]
        if gamma is not None:
            x[:-s] += gamma[col] * x[s:]
        x[s:] += lo
    return x / diag[col]


def resolvent(f: Signal, eps: float) -> Signal:
    """Apply (1 + eps*d/dt)^{-1}: solve g_k + eps*(g_k - g_{k-1})/dt = f_k,
    the lower-bidiagonal system of diagonal 1 + eps/dt and subdiagonal
    -eps/dt, by parallel cyclic reduction (`_pcr_levels`).  Node k reads
    f only up to node k; unconditionally stable contraction for eps > 0 and
    positive grid weight.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not f.grid.nu > 0:
        raise ValueError(f"resolvent requires nu > 0 on the grid, got {f.grid.nu}")
    a = eps / f.grid.dt
    n = f.grid.n
    levels = _pcr_levels(np.full(n - 1, -a), np.full(n, 1.0 + a), np.zeros(n - 1))
    return Signal(f.grid, _pcr_solve(levels, f.values))


def resolvent_series(f: Signal, eps: float) -> Signal:
    """Resolvent via the geometric expansion in the causal antiderivative.

    Cross-check oracle only: sums c * J * sum_k ((r - J)/(r + eps))^k f with
    J the antiderivative and r = 1/(2 nu), truncated at the closed-form index
    of remainder 1e-8, at least 4 terms (`timecalc` sits below
    `operators.series_terms`).  `resolvent` is the production path.
    """
    nu = f.grid.nu
    if not (nu > 0 and eps > 0):
        raise ValueError("resolvent_series requires nu > 0 and eps > 0")
    r = 1.0 / (2.0 * nu)
    ratio = r / (r + eps)  # sup_{z on the circle} |(r - z)/eps| / (1 + r/eps)
    if not ratio < 1:
        raise ValueError("series does not contract")
    n_terms = max(4, int(np.ceil(np.log(1e-8 * (1 - ratio)) / np.log(ratio))))
    scale = 1.0 / (eps * (1.0 + r / eps))
    denom = r + eps
    # Horner form: acc <- f + ((r - J)/denom) acc
    acc = Signal.zero(f.grid, f.dim)
    for _ in range(n_terms):
        acc = f + (1.0 / denom) * (r * acc - antiderivative(acc))
    return scale * antiderivative(acc)


@dataclass(frozen=True)
class SpectrumSignal:
    """Frequency-side picture of a Signal under the weighted transform.

    values[j] is (dt / sqrt(2 pi)) times the DFT of exp(-nu t) f(t) on the
    window zero-padded to `_pad_length(grid.n)` samples, nu = grid.nu; `freqs`
    are the matching angular frequencies.  With this normalization the
    discrete Parseval identity reproduces the weighted norm of the
    originating signal exactly (rectangle rule).
    """

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    @property
    def freqs(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(_pad_length(self.grid.n), d=self.grid.dt)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def norm(self) -> float:
        dxi = 2.0 * np.pi / (_pad_length(self.grid.n) * self.grid.dt)
        total = np.sum(np.abs(self.values) ** 2) * dxi
        return float(np.sqrt(total))


def fourier_laplace(f: Signal) -> SpectrumSignal:
    """Weighted Fourier transform: damp by exp(-nu t), then DFT on the window
    zero-padded to `_pad_length(n)` samples."""
    grid = f.grid
    damped = f.values * np.exp(-grid.nu * grid.times)[:, None]
    n_pad = _pad_length(grid.n)
    spec = np.fft.fft(damped, n=n_pad, axis=0) * (grid.dt / np.sqrt(2.0 * np.pi))
    return SpectrumSignal(grid=grid, values=spec)


def inverse_fourier_laplace(F: SpectrumSignal) -> Signal:
    """Invert `fourier_laplace`: inverse DFT, drop padding, undo the damping."""
    grid = F.grid
    n_pad = _pad_length(grid.n)
    damped = np.fft.ifft(F.values, n=n_pad, axis=0) / (grid.dt / np.sqrt(2.0 * np.pi))
    damped = damped[: grid.n]
    return Signal(grid, damped * np.exp(grid.nu * grid.times)[:, None])


@dataclass(frozen=True)
class MultiplierFunction:
    """Analytic material law z -> dim x dim matrix.  `rule` is evaluated once
    on the (J,) array of samples and returns values that broadcast to
    (J, dim, dim)."""

    rule: Callable[[np.ndarray], np.ndarray]
    dim: int = 1

    @staticmethod
    def scalar(fn: Callable[[np.ndarray], np.ndarray]):
        """Scalar law: evaluated once on the array of samples; `fn` acts
        elementwise (a constant such as `lambda z: 1.0` broadcasts)."""
        return MultiplierFunction(rule=lambda z: np.asarray(fn(z))[..., None, None], dim=1)

    def sample(self, z_values: np.ndarray) -> np.ndarray:
        out = np.broadcast_to(np.asarray(self.rule(z_values), dtype=complex),
                              (len(z_values), self.dim, self.dim))
        if not np.all(np.isfinite(out)):
            raise ValueError("multiplier sampled to non-finite values")
        return out


def apply_multiplier(M: MultiplierFunction, f: Signal) -> Signal:
    """Apply the operator function M of the inverse time derivative.

    Computes the conjugation of pointwise multiplication by M(h(xi)) with the
    weighted Fourier transform, where h(xi) = 1/(i xi + nu) maps frequencies
    onto the spectral circle of the causal antiderivative.
    """
    if M.dim != f.dim:
        raise ValueError(f"multiplier dim {M.dim} != signal dim {f.dim}")
    nu = f.grid.nu
    if not nu > 0:
        raise ValueError("apply_multiplier requires nu > 0")
    F = fourier_laplace(f)
    h = 1.0 / (1j * F.freqs + nu)
    mats = M.sample(h)
    out_spec = np.einsum("jab,jb->ja", mats, F.values)
    return inverse_fourier_laplace(SpectrumSignal(grid=F.grid, values=out_spec))


def spectrum_of_antiderivative(grid: TimeGrid):
    """Spectral picture of the causal antiderivative on the window.

    Returns (circle_deviation, h_samples): h_samples are the frequency
    samples 1/(i xi_j + nu); they lie on the circle |z - r| = r with
    r = 1/(2 nu) up to roundoff, and circle_deviation is the largest
    distance observed.  (The materialized window operator dt * tril(1) is
    triangular, so its finite-section eigenvalues are all exactly dt and
    say nothing about the circle.)
    """
    if not grid.nu > 0:
        raise ValueError("spectrum requires nu > 0")
    r = 1.0 / (2.0 * grid.nu)
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dt)
    h_samples = 1.0 / (1j * xi + grid.nu)
    circle_deviation = float(np.max(np.abs(np.abs(h_samples - r) - r)))
    return circle_deviation, h_samples
