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
    "shift_multiplier",
    "spectrum_of_antiderivative",
    "DEFAULT_PAD_FACTOR",
]

DEFAULT_PAD_FACTOR = 4


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
    return Signal(f.grid, f.grid.dt * np.cumsum(f.values, axis=0))


def resolvent(f: Signal, eps: float) -> Signal:
    """Apply (1 + eps*d/dt)^{-1} by the causal one-step recursion.

    Solves g_k + eps*(g_k - g_{k-1})/dt = f_k node by node; unconditionally
    stable contraction for eps > 0 and positive grid weight.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not f.grid.nu > 0:
        raise ValueError(f"resolvent requires nu > 0 on the grid, got {f.grid.nu}")
    dt = f.grid.dt
    a = eps / dt
    out = np.empty_like(f.values)
    prev = np.zeros(f.dim, dtype=complex)
    denom = 1.0 + a
    for k in range(f.grid.n):
        prev = (f.values[k] + a * prev) / denom
        out[k] = prev
    return Signal(f.grid, out)


def resolvent_series(f: Signal, eps: float, tail: float = 1e-8) -> Signal:
    """Resolvent via the geometric expansion in the causal antiderivative.

    Cross-check oracle only: sums c * J * sum_k ((r - J)/(r + eps))^k f with
    J the antiderivative and r = 1/(2 nu), truncated when the geometric
    remainder drops below `tail`.  The recursion in `resolvent` is the
    production path.
    """
    nu = f.grid.nu
    if not (nu > 0 and eps > 0):
        raise ValueError("resolvent_series requires nu > 0 and eps > 0")
    r = 1.0 / (2.0 * nu)
    ratio = r / (r + eps)  # sup_{z on the circle} |(r - z)/eps| / (1 + r/eps)
    if not ratio < 1:
        raise ValueError("series does not contract")
    n_terms = max(4, int(np.ceil(np.log(tail * (1 - ratio)) / np.log(ratio))))
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
    zero-padded window; `freqs` are the matching angular frequencies.  With
    this normalization the discrete Parseval identity reproduces the weighted
    norm of the originating signal exactly (rectangle rule).
    """

    grid: TimeGrid
    nu: float
    pad_factor: int
    values: np.ndarray = field(repr=False)

    @property
    def freqs(self) -> np.ndarray:
        n_pad = self.grid.n * self.pad_factor
        return 2.0 * np.pi * np.fft.fftfreq(n_pad, d=self.grid.dt)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def norm(self) -> float:
        n_pad = self.grid.n * self.pad_factor
        dxi = 2.0 * np.pi / (n_pad * self.grid.dt)
        total = np.sum(np.abs(self.values) ** 2) * dxi
        return float(np.sqrt(total))


def fourier_laplace(f: Signal, pad_factor: int = DEFAULT_PAD_FACTOR) -> SpectrumSignal:
    """Weighted Fourier transform: damp by exp(-nu t), then DFT.

    The window is zero-padded by `pad_factor` so multiplier application is a
    linear (not circular) convolution for signals whose damped mass at the
    window edge is negligible.
    """
    grid = f.grid
    damped = f.values * np.exp(-grid.nu * grid.times)[:, None]
    n_pad = grid.n * pad_factor
    spec = np.fft.fft(damped, n=n_pad, axis=0) * (grid.dt / np.sqrt(2.0 * np.pi))
    return SpectrumSignal(grid=grid, nu=grid.nu, pad_factor=pad_factor, values=spec)


def inverse_fourier_laplace(F: SpectrumSignal) -> Signal:
    """Invert `fourier_laplace`: inverse DFT, drop padding, undo the damping."""
    grid = F.grid
    n_pad = grid.n * F.pad_factor
    damped = np.fft.ifft(F.values, n=n_pad, axis=0) / (grid.dt / np.sqrt(2.0 * np.pi))
    damped = damped[: grid.n]
    return Signal(grid, damped * np.exp(F.nu * grid.times)[:, None])


@dataclass(frozen=True)
class MultiplierFunction:
    """Analytic material law z -> m x m matrix with a certified sup bound."""

    rule: Callable[[complex], np.ndarray]
    dim: int = 1
    bound: float | None = None

    @staticmethod
    def scalar(fn: Callable[[complex], complex], bound: float | None = None):
        return MultiplierFunction(
            rule=lambda z: np.array([[fn(z)]], dtype=complex), dim=1, bound=bound
        )

    def sample(self, z_values: np.ndarray) -> np.ndarray:
        out = np.empty((len(z_values), self.dim, self.dim), dtype=complex)
        for j, z in enumerate(z_values):
            out[j] = np.atleast_2d(np.asarray(self.rule(z), dtype=complex))
        if not np.all(np.isfinite(out)):
            raise ValueError("multiplier sampled to non-finite values")
        if self.bound is not None:
            top = max(np.linalg.norm(out[j], 2) for j in range(len(z_values)))
            if top > self.bound * (1 + 1e-9):
                raise ValueError(
                    f"multiplier exceeds declared bound: {top} > {self.bound}"
                )
        return out


def apply_multiplier(
    M: MultiplierFunction, f: Signal, pad_factor: int = DEFAULT_PAD_FACTOR
) -> Signal:
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
    F = fourier_laplace(f, pad_factor=pad_factor)
    h = 1.0 / (1j * F.freqs + nu)
    mats = M.sample(h)
    out_spec = np.einsum("jab,jb->ja", mats, F.values)
    G = SpectrumSignal(grid=F.grid, nu=F.nu, pad_factor=F.pad_factor, values=out_spec)
    return inverse_fourier_laplace(G)


def shift_multiplier(h: float) -> MultiplierFunction:
    """Multiplier z -> exp(h / z) realizing time translation by h (h <= 0 causal)."""
    return MultiplierFunction.scalar(lambda z: np.exp(h / z))


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
