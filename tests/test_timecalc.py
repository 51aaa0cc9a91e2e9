"""Discrete time calculus: inverse pairs, spectral representation, and the
functional calculus of the causal antiderivative."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evocalc.signals import Signal, TimeGrid, inner_nu, norm_nu, shift, truncate_before
from evocalc.timecalc import (
    MultiplierFunction,
    antiderivative,
    apply_multiplier,
    derivative,
    fourier_laplace,
    inverse_fourier_laplace,
    resolvent,
    resolvent_series,
    spectrum_of_antiderivative,
)
from evocalc.operators import CausalOp, op_norm
from evocalc import timecalc


def ref_grid(nu=1.0):
    return TimeGrid(0.0, 0.01, 3001, nu)


def gaussian(grid, c, s):
    t = grid.times
    vals = np.exp(-(((t - c) / s) ** 2))
    vals[vals < 1e-14] = 0.0
    return Signal(grid, vals)


class TestAntiderivative:
    def test_zero(self):
        g = ref_grid()
        out = antiderivative(Signal.zero(g))
        assert np.all(out.values == 0)

    def test_clamp_oracle(self):
        # integral of the indicator of [0,1] is clamp(t, 0, 1)
        g = ref_grid()
        f = Signal.indicator(g, 0.0, 1.0)
        out = antiderivative(f)
        expected = np.clip(g.times, 0.0, 1.0)
        assert np.max(np.abs(out.values[:, 0] - expected)) <= 1.5 * g.dt

    def test_rejects_nonpositive_weight(self):
        g = TimeGrid(0.0, 0.01, 100, -1.0)
        with pytest.raises(ValueError):
            antiderivative(Signal.zero(g))

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
    def test_norm_bound(self, nu):
        est = op_norm(CausalOp.antiderivative_op(ref_grid(nu)))
        assert est <= 1.0 / nu + 0.02

    def test_young_bound_on_signals(self):
        rng = np.random.default_rng(42)
        g = ref_grid()
        for _ in range(5):
            f = Signal(g, rng.standard_normal(g.n))
            assert norm_nu(antiderivative(f)) <= (1.0 / g.nu + g.dt) * norm_nu(f)


class TestDerivative:
    def test_step_derivative(self):
        g = ref_grid()
        f = Signal(g, np.ones(g.n))
        out = derivative(f)
        assert out.values[0, 0] == pytest.approx(1.0 / g.dt)
        assert np.all(out.values[1:] == 0)

    def test_exact_inverse_pair(self):
        rng = np.random.default_rng(0)
        g = ref_grid()
        f = Signal(g, rng.standard_normal((g.n, 2)))
        back = derivative(antiderivative(f))
        np.testing.assert_allclose(back.values, f.values, rtol=0, atol=1e-10)
        fwd = antiderivative(derivative(f))
        np.testing.assert_allclose(fwd.values, f.values, rtol=0, atol=1e-10)

    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 3001),
           dt=st.sampled_from([1e-3, 0.01, 0.125, 0.3, 7.0]))
    @settings(max_examples=25, deadline=None)
    def test_inverse_within_cumsum_rounding(self, seed, n, dt):
        # each partial sum, the product with dt, the difference and the
        # division round once: to first order the error at node k is at most
        # u(2|s_k| + |s_{k-1}| + 2|f_k|) per component; 4u covers the rest
        rng = np.random.default_rng(seed)
        g = TimeGrid(0.0, dt, n, 1.0)
        vals = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        back = derivative(antiderivative(Signal(g, vals))).values
        s = np.abs(np.cumsum(vals, axis=0))
        s_prev = np.vstack([np.zeros((1, 2)), s[:-1]])
        u = np.finfo(float).eps / 2
        assert np.all(np.abs(back - vals) <= 4 * u * (s + s_prev + np.abs(vals)))

    def test_bit_exact_on_dyadic_integers(self):
        rng = np.random.default_rng(1)
        g = TimeGrid(0.0, 2.0 ** -10, 3001, 1.0)
        f = Signal(g, rng.integers(-1000, 1001, (g.n, 2)).astype(complex))
        assert np.array_equal(derivative(antiderivative(f)).values, f.values)
        assert np.array_equal(antiderivative(derivative(f)).values, f.values)

    def test_accretivity_identity(self):
        # Re <df, f> = nu <f, f> within 2% on twenty seeded smooth bumps
        g = ref_grid()
        rng = np.random.default_rng(42)
        for _ in range(20):
            c = rng.uniform(6.0, 18.0)
            s = rng.uniform(1.0, 2.0)
            phi = gaussian(g, c, s)
            lhs = inner_nu(derivative(phi), phi).real
            rhs = g.nu * inner_nu(phi, phi).real
            assert lhs == pytest.approx(rhs, rel=0.02)


class TestResolvent:
    def test_zero(self):
        out = resolvent(Signal.zero(ref_grid()), 0.1)
        assert np.all(out.values == 0)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            resolvent(Signal.zero(ref_grid()), -0.1)

    def test_contraction(self):
        rng = np.random.default_rng(1)
        g = ref_grid()
        f = Signal(g, rng.standard_normal(g.n))
        assert norm_nu(resolvent(f, 0.3)) <= norm_nu(f) * (1 + g.dt)

    def test_strong_identity_limit(self):
        g = ref_grid()
        f = gaussian(g, 5.0, 1.0)
        rel = norm_nu(resolvent(f, 1e-3) - f) / norm_nu(f)
        assert rel <= 0.01

    def test_series_cross_check(self):
        # geometric expansion in the antiderivative agrees with the recursion
        g = ref_grid()
        f = gaussian(g, 4.0, 0.8)
        direct = resolvent(f, 0.1)
        series = resolvent_series(f, 0.1)
        assert norm_nu(direct - series) / norm_nu(direct) <= 1e-6


def resolvent_loop(f, eps):
    """The node-by-node recursion that `resolvent` ran before cyclic
    reduction, kept as its value oracle."""
    a = eps / f.grid.dt
    out = np.empty_like(f.values)
    prev = np.zeros(f.dim, dtype=complex)
    denom = 1.0 + a
    for k in range(f.grid.n):
        prev = (f.values[k] + a * prev) / denom
        out[k] = prev
    return out


class TestResolventReduction:
    @pytest.mark.parametrize("n, dt, eps, dim", [
        (2, 0.01, 0.1, 1), (3, 0.01, 0.1, 1), (1025, 0.01, 0.3, 2),
        (3001, 0.01, 1e-3, 1), (30001, 1e-3, 0.2, 1),
    ])
    def test_matches_the_recursion(self, n, dt, eps, dim):
        rng = np.random.default_rng(n)
        g = TimeGrid(0.0, dt, n, 0.2)
        f = Signal(g, rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim)))
        ref = resolvent_loop(f, eps)
        assert np.linalg.norm(resolvent(f, eps).values - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_lower_bidiagonal_levels_carry_no_upper_half(self):
        # a zero upper band stays zero, so no level reads a later row
        steps, _ = timecalc._pcr_levels(np.full(99, -2.0), np.full(100, 3.0), np.zeros(99))
        assert [s for s, _, _ in steps] == [1, 2, 4, 8, 16, 32, 64]
        assert all(gamma is None for _, _, gamma in steps)


class TestPadLength:
    @staticmethod
    def smooth(x):
        for p in (2, 3, 5):
            while x % p == 0:
                x //= p
        return x == 1

    # 30001 and 20001 are the kernels' and transfer's window lengths, whose
    # plain padding 120004 = 4 * 19 * 1579 and 80004 are slow FFT sizes
    @pytest.mark.parametrize("n", [2, 3, 7, 256, 1001, 1024, 3001, 20001, 30001])
    def test_smallest_5_smooth_length_at_or_above_the_padding(self, n):
        length, target = timecalc._pad_length(n), n * timecalc.PAD_FACTOR
        assert self.smooth(length) and length >= target
        assert not any(self.smooth(k) for k in range(target, length))

    def test_one_helper_gives_the_length_to_all_four_users(self, monkeypatch):
        # a different length from the helper reaches the transform, its
        # inverse, the frequencies and the Parseval normalisation
        g = TimeGrid(0.0, 0.01, 300, 1.0)
        f = gaussian(g, 1.0, 0.2)
        monkeypatch.setattr(timecalc, "_pad_length", lambda n: 2048)
        F = fourier_laplace(f)
        assert F.values.shape == (2048, 1) and F.freqs.shape == (2048,)
        assert F.freqs[1] == 2.0 * np.pi / (2048 * g.dt)
        assert F.norm() == pytest.approx(norm_nu(f), rel=1e-6)
        assert norm_nu(inverse_fourier_laplace(F) - f) <= 1e-12 * norm_nu(f)


class TestCausalityStructure:
    def test_antiderivative_strictly_causal_bit_exact(self):
        rng = np.random.default_rng(2)
        g = TimeGrid(0.0, 0.01, 512, 1.0)
        f = Signal(g, rng.standard_normal(g.n))
        for frac in (0.2, 0.5, 0.8):
            t_cut = g.t0 + frac * (g.t_end - g.t0)
            lhs = truncate_before(antiderivative(f), t_cut)
            rhs = truncate_before(antiderivative(truncate_before(f, t_cut)), t_cut)
            np.testing.assert_array_equal(lhs.values, rhs.values)

    def test_resolvent_strictly_causal_bit_exact(self):
        rng = np.random.default_rng(3)
        g = TimeGrid(0.0, 0.01, 512, 1.0)
        f = Signal(g, rng.standard_normal(g.n))
        t_cut = g.t0 + 0.5 * (g.t_end - g.t0)
        lhs = truncate_before(resolvent(f, 0.2), t_cut)
        rhs = truncate_before(resolvent(truncate_before(f, t_cut), 0.2), t_cut)
        np.testing.assert_array_equal(lhs.values, rhs.values)


class TestFourierLaplace:
    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        g = TimeGrid(0.0, 0.01, 1024, 1.0)
        f = Signal(g, rng.standard_normal((g.n, 2)))
        back = inverse_fourier_laplace(fourier_laplace(f))
        assert norm_nu(back - f) / norm_nu(f) <= 1e-10

    def test_parseval(self):
        g = TimeGrid(0.0, 0.01, 1024, 1.0)
        f = gaussian(g, 3.0, 0.5)
        F = fourier_laplace(f)
        assert F.norm() == pytest.approx(norm_nu(f), rel=1e-6)

    def test_antiderivative_via_multiplier(self):
        # spectral route agrees with the cumulative sum at the finer step
        g = TimeGrid(0.0, 1e-3, 20001, 1.0)
        f = gaussian(g, 5.0, 1.0)
        spectral = apply_multiplier(MultiplierFunction.scalar(lambda z: z), f)
        direct = antiderivative(f)
        assert norm_nu(spectral - direct) / norm_nu(direct) <= 1e-3


class TestMultipliers:
    def test_identity_multiplier(self):
        g = TimeGrid(0.0, 0.01, 1024, 1.0)
        f = gaussian(g, 3.0, 0.5)
        out = apply_multiplier(MultiplierFunction.scalar(lambda z: 1.0), f)
        assert norm_nu(out - f) / norm_nu(f) <= 1e-10

    def test_shift_multiplier(self):
        g = ref_grid()
        f = gaussian(g, 5.0, 1.0)
        h = -10 * g.dt
        out = apply_multiplier(MultiplierFunction.scalar(lambda z: np.exp(h / z)), f)
        ref = shift(f, h)
        assert norm_nu(out - ref) / norm_nu(ref) <= 1e-3

    def test_translation_invariance(self):
        # the spectral calculus commutes with grid-aligned causal shifts
        g = ref_grid()
        f = gaussian(g, 5.0, 1.0)
        h = -16 * g.dt
        M = MultiplierFunction.scalar(lambda z: z / (1.0 + 0.5 * z))
        lhs = apply_multiplier(M, shift(f, h))
        rhs = shift(apply_multiplier(M, f), h)
        assert norm_nu(lhs - rhs) / max(norm_nu(rhs), 1e-30) <= 1e-8

    def test_linearity(self):
        rng = np.random.default_rng(8)
        g = TimeGrid(0.0, 0.01, 512, 1.0)
        M = MultiplierFunction.scalar(lambda z: z)
        a = gaussian(g, 2.0, 0.3)
        b = gaussian(g, 3.0, 0.4)
        lhs = apply_multiplier(M, 2.0 * a + b)
        rhs = 2.0 * apply_multiplier(M, a) + apply_multiplier(M, b)
        assert norm_nu(lhs - rhs) <= 1e-12 * max(norm_nu(rhs), 1.0)


def spectral_samples(grid):
    # the z samples apply_multiplier evaluates a rule on
    return 1.0 / (1j * fourier_laplace(Signal.zero(grid)).freqs + grid.nu)


def per_z_sample(fn, z_values):
    # reference: the rule evaluated once per sample, as a Python loop
    return np.array([complex(fn(z)) for z in z_values]).reshape(-1, 1, 1)


class TestVectorisedSample:
    def test_identity_rule_is_bit_identical_to_per_z(self):
        # the causality suite's nu-indep-multiplier row runs this rule
        z = spectral_samples(ref_grid())
        out = MultiplierFunction.scalar(lambda z: z).sample(z)
        assert out.shape == (len(z), 1, 1)
        assert np.array_equal(out, per_z_sample(lambda z: z, z))

    @pytest.mark.parametrize("fn", [
        lambda z: 1.0,
        lambda z: np.exp(-0.1 / z),
        lambda z: z / (1.0 + 0.5 * z),
    ], ids=["constant", "delay", "rational"])
    def test_elementwise_rules_match_per_z(self, fn):
        z = spectral_samples(ref_grid())
        out = MultiplierFunction.scalar(fn).sample(z)
        ref = per_z_sample(fn, z)
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref) / np.abs(ref)) <= 1e-15

    def test_matrix_rule_broadcasts_to_dim_by_dim(self):
        # a dim > 1 rule gets the (J,) samples and returns (J, dim, dim)
        g = TimeGrid(0.0, 0.01, 256, 1.0)
        z = spectral_samples(g)
        a = np.array([[1.0, 2.0], [0.0, 3.0]])
        M = MultiplierFunction(rule=lambda z: z[:, None, None] * a + np.eye(2), dim=2)
        out = M.sample(z)
        assert out.shape == (len(z), 2, 2)
        for j in (0, 17, len(z) - 1):
            np.testing.assert_array_equal(out[j], z[j] * a + np.eye(2))
        f = Signal(g, np.repeat(gaussian(g, 1.0, 0.2).values, 2, axis=1))
        assert apply_multiplier(M, f).values.shape == (g.n, 2)

    def test_non_finite_rule_raises(self):
        z = spectral_samples(TimeGrid(0.0, 0.01, 256, 1.0))
        with pytest.raises(ValueError, match="non-finite"):
            MultiplierFunction.scalar(lambda z: np.where(z.real > 0.5, np.inf, z)).sample(z)


class TestSpectrum:
    def test_circle_nu_half(self):
        g = TimeGrid(0.0, 0.01, 2048, 0.5)
        deviation, h_samples = spectrum_of_antiderivative(g)
        r = 1.0  # 1/(2 nu)
        assert deviation <= 1e-12
        assert np.max(np.abs(np.abs(h_samples - r) - r)) <= 1e-12

    def test_circle_nu_one(self):
        g = TimeGrid(0.0, 0.01, 2048, 1.0)
        deviation, h_samples = spectrum_of_antiderivative(g)
        assert deviation <= 1e-12
        # center and radius are both 1/2
        assert np.max(np.abs(np.abs(h_samples - 0.5) - 0.5)) <= 1e-12

    def test_zero_frequency_point(self):
        # z = 1/nu sits on the circle exactly
        for nu in (0.5, 1.0, 2.0):
            r = 1.0 / (2 * nu)
            assert abs(abs(1.0 / nu - r) - r) == 0.0
