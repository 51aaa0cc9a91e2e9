"""Weighted grid functions: quadrature oracles and algebraic invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evocalc.signals import (
    Coefficient,
    GridMismatchError,
    Signal,
    TimeGrid,
    inner_nu,
    multiply,
    norm_nu,
    shift,
    truncate_before,
)
from evocalc.signals import _inner_values


def small_grid(nu=1.0, n=256, dt=0.05):
    return TimeGrid(0.0, dt, n, nu)


class TestGrid:
    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, -0.1, 10, 1.0)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 0.1, 1, 1.0)


class TestQuadWeights:
    def test_cached_weights_are_the_formula_bit_for_bit(self):
        for g in (small_grid(), TimeGrid(0.3, 1e-3, 30001, 0.2), small_grid(nu=0.0)):
            w = np.full(g.n, g.dt)
            w[0] *= 0.5
            w[-1] *= 0.5
            w = w * np.exp(-2.0 * g.nu * g.times)
            assert np.array_equal(g.quad_weights(), w)
            # a grid of equal values shares the array; `with_nu` makes one
            assert g.with_nu(g.nu).quad_weights() is g.quad_weights()

    def test_cached_weights_are_read_only(self):
        w = small_grid(nu=0.7).quad_weights()
        with pytest.raises(ValueError):
            w[0] = 1.0
        with pytest.raises(ValueError):
            w *= 2.0
        assert small_grid(nu=0.7).quad_weights()[0] == 0.5 * 0.05


class TestInnerProduct:
    def test_zero_signal(self):
        g = small_grid()
        z = Signal.zero(g)
        assert inner_nu(z, z) == 0.0

    def test_unit_integral_unweighted(self):
        # nu = 0, f = g = 1 on [0,1]: integral is exactly 1
        g = TimeGrid(0.0, 1e-3, 1001, 0.0)
        one = Signal(g, np.ones(g.n))
        assert abs(inner_nu(one, one) - 1.0) <= 1e-6

    def test_exponential_integral(self):
        # nu = 1 on a [0,20] window: integral of exp(-2t) is 1/2
        g = TimeGrid(0.0, 0.005, 4001, 1.0)
        one = Signal(g, np.ones(g.n))
        assert abs(inner_nu(one, one) - 0.5) <= 1e-3

    def test_grid_mismatch_rejected(self):
        f = Signal.zero(small_grid(n=256))
        h = Signal.zero(small_grid(n=128))
        with pytest.raises(GridMismatchError):
            inner_nu(f, h)

    def test_weight_mismatch_rejected(self):
        # a weight is a space: signals at two weights neither add nor pair
        f = Signal.zero(small_grid(nu=1.0))
        h = Signal.zero(small_grid(nu=2.0))
        for mix in (lambda: f + h, lambda: f - h, lambda: inner_nu(f, h)):
            with pytest.raises(GridMismatchError, match="nu"):
                mix()

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_conjugate_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        g = small_grid(n=64)
        f = Signal(g, rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2)))
        h = Signal(g, rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2)))
        assert inner_nu(f, h) == pytest.approx(np.conj(inner_nu(h, f)), abs=1e-12)

    def test_antilinear_first_argument(self):
        rng = np.random.default_rng(3)
        g = small_grid(n=64)
        f = Signal(g, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        h = Signal(g, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        alpha = 0.7 - 0.4j
        lhs = inner_nu(alpha * f, h)
        assert lhs == pytest.approx(np.conj(alpha) * inner_nu(f, h), rel=1e-12)


class TestChunkedInnerProduct:
    """`_inner_values` sums conj(a) * b over row blocks of at most 2^16
    entries; every result has the bits of the one-pass sum."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n, dim", [
        (1000, 1), (70001, 1),  # one block of 65536 rows, then two
        (300, 128), (3001, 128),  # the Picard gap's (3001, 128) stack
        (20, 2049), (301, 2049),  # 31 rows a block
    ])
    def test_blocks_match_one_pass_bit_for_bit(self, n, dim, order):
        rng = np.random.default_rng(n + dim)
        a, b = (np.asarray(rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim)),
                           order=order) for _ in range(2))
        w = rng.random(n)
        one_pass = complex(np.sum(w * np.sum(np.conj(a) * b, axis=1)))
        assert _inner_values(w, a, b) == one_pass
        assert _inner_values(w, a, a) == complex(np.sum(w * np.sum(np.conj(a) * a, axis=1)))


class TestSharing:
    """A Signal takes an array that no one can change without a copy, and
    copies anything else."""

    def test_writeable_source_is_never_aliased(self):
        g = small_grid(n=8)
        base = np.ones((8, 2), dtype=complex)
        view = base[:]
        view.setflags(write=False)  # read-only, but writes to base reach it
        owned = [np.ones((8, 2), dtype=complex), np.ones(8), np.ones((8, 2))]
        for src, writer in [*((a, a) for a in owned), (view, base)]:
            f = Signal(g, src)
            writer[0] = 5.0
            assert np.all(f.values == 1.0)
            assert not np.shares_memory(f.values, src)

    def test_read_only_owned_source_is_shared(self):
        g = small_grid(n=8)
        src = np.arange(16, dtype=complex).reshape(8, 2).copy()
        src.setflags(write=False)
        f = Signal(g, src)
        assert np.shares_memory(f.values, src)
        # relabelling onto another weight copies nothing
        assert Signal(g.with_nu(2.0), f.values).values is f.values
        # a read-only array in another layout or dtype is copied
        for other in (np.asfortranarray(np.ones((8, 2), dtype=complex)), np.ones((8, 2))):
            other.setflags(write=False)
            v = Signal(g, other).values
            assert not np.shares_memory(v, other)
            assert v.flags.c_contiguous and v.dtype == np.complex128

    def test_results_are_read_only_and_shared(self):
        rng = np.random.default_rng(8)
        g = small_grid(n=16)
        f = Signal(g, rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2)))
        h = Signal(g, rng.standard_normal((16, 2)))
        for r in (f + h, f - h, 2.0 * f, f * (0.5 - 1j)):
            assert not r.values.flags.writeable
            with pytest.raises(ValueError):
                r.values[0, 0] = 1.0
            assert Signal(g, r.values).values is r.values

    def test_one_dimensional_input_becomes_an_owned_column(self):
        g = small_grid(n=8)
        v = Signal(g, np.arange(8.0)).values
        assert v.shape == (8, 1)
        assert v.flags.owndata and v.flags.c_contiguous and not v.flags.writeable
        assert np.array_equal(v[:, 0], np.arange(8.0))


class TestTruncation:
    def test_full_truncation_at_left_edge(self):
        g = small_grid()
        f = Signal(g, np.ones(g.n))
        out = truncate_before(f, g.t0)
        assert np.all(out.values == 0)

    def test_identity_beyond_window(self):
        g = small_grid()
        f = Signal(g, np.arange(g.n, dtype=float))
        out = truncate_before(f, g.t_end + 10.0)
        np.testing.assert_array_equal(out.values, f.values)

    def test_indicator_restriction(self):
        g = TimeGrid(0.0, 0.01, 201, 1.0)
        f = Signal.indicator(g, 0.0, 1.0)
        out = truncate_before(f, 0.5)
        expected = Signal.indicator(g, 0.0, 0.5)
        np.testing.assert_array_equal(out.values, expected.values)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        g = small_grid()
        f = Signal(g, rng.standard_normal(g.n))
        once = truncate_before(f, 3.3 * g.dt + g.t0)
        twice = truncate_before(once, 3.3 * g.dt + g.t0)
        np.testing.assert_array_equal(once.values, twice.values)

    def test_orthogonal_split(self):
        # |Q_t f|^2 + |(1-Q_t) f|^2 = |f|^2: the node masks are disjoint
        rng = np.random.default_rng(7)
        g = small_grid()
        f = Signal(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
        t_cut = g.t0 + 0.4 * (g.t_end - g.t0)
        past = norm_nu(truncate_before(f, t_cut)) ** 2
        future = norm_nu(f - truncate_before(f, t_cut)) ** 2
        assert past + future == pytest.approx(norm_nu(f) ** 2, rel=1e-12)


class TestShift:
    def test_zero_shift_is_identity(self):
        rng = np.random.default_rng(11)
        g = small_grid()
        f = Signal(g, rng.standard_normal(g.n))
        np.testing.assert_array_equal(shift(f, 0.0).values, f.values)

    def test_pulse_translation(self):
        g = TimeGrid(0.0, 0.01, 501, 1.0)
        pulse = np.zeros(g.n)
        pulse[100] = 1.0  # t = 1.0
        out = shift(Signal(g, pulse), -1.0)
        assert out.values[200, 0] == 1.0
        assert np.sum(np.abs(out.values)) == 1.0

    def test_non_aligned_rejected(self):
        g = small_grid()
        with pytest.raises(ValueError):
            shift(Signal.zero(g), 0.5 * g.dt)

    def test_roundtrip_inside_window(self):
        rng = np.random.default_rng(13)
        g = small_grid()
        f = Signal(g, rng.standard_normal(g.n))
        h = 7 * g.dt
        back = shift(shift(f, h), -h)
        # nodes whose images stayed inside the window agree exactly
        np.testing.assert_array_equal(back.values[7:-7], f.values[7:-7])


class TestMultiplication:
    def test_identity_and_scaling(self):
        rng = np.random.default_rng(17)
        g = small_grid()
        f = Signal(g, rng.standard_normal((g.n, 2)))
        ident = Coefficient.constant(np.eye(2))
        np.testing.assert_allclose(multiply(ident, f).values, f.values, atol=0)
        double = Coefficient.constant(2 * np.eye(2))
        np.testing.assert_allclose(multiply(double, f).values, 2 * f.values, atol=0)

    def test_oscillation_integrates_to_zero(self):
        # multiply by sin(2 pi t) then pair with the indicator of [0,1] at
        # weight zero: one full period integrates to zero
        g = TimeGrid(0.0, 1e-3, 1001, 0.0)
        c = Coefficient.scalar_profile(lambda t: np.sin(2 * np.pi * t))
        f = Signal(g, np.ones(g.n))
        probe = Signal.indicator(g, 0.0, 1.0)
        val = inner_nu(multiply(c, f), probe)
        assert abs(val) <= 1e-6

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, seed):
        # exact up to float reassociation of the two evaluation orders
        rng = np.random.default_rng(seed)
        g = small_grid(n=64)
        c = Coefficient.constant(rng.standard_normal((2, 2)))
        a = Signal(g, rng.standard_normal((64, 2)))
        b = Signal(g, rng.standard_normal((64, 2)))
        alpha = 1.5
        lhs = multiply(c, alpha * a + b)
        rhs = alpha * multiply(c, a) + multiply(c, b)
        np.testing.assert_allclose(lhs.values, rhs.values, rtol=0, atol=1e-13)

    def test_dim_mismatch(self):
        g = small_grid()
        with pytest.raises(GridMismatchError):
            multiply(Coefficient.constant(np.eye(3)), Signal.zero(g, 2))


class TestCoefficient:
    @pytest.mark.parametrize("coef", [
        Coefficient.constant([[1.0, 0.5], [-0.5, 2.0]]),
        Coefficient.space_profile([1.0, 2.0, 3.0]),
    ], ids=["constant-matrix", "space-profile"])
    def test_time_independent_sampling_is_a_readonly_broadcast(self, coef):
        g = small_grid(n=7)
        stacked = np.stack([np.atleast_2d(coef.sampler(t)) for t in g.times])
        for mats in (coef.sample_all(g), coef.sample_deriv_all(g)):
            assert mats.shape == stacked.shape
            assert not mats.flags.writeable
        assert np.array_equal(coef.sample_all(g), stacked)
        assert np.array_equal(coef.sample_deriv_all(g), np.zeros_like(stacked))

    def test_non_finite_constant_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Coefficient.constant([[1.0, np.nan], [0.0, 1.0]]).sample_all(small_grid())

    def test_non_finite_time_sample_names_its_time(self):
        g = TimeGrid(0.0, 0.25, 9, 1.0)
        c = Coefficient.scalar_profile(lambda t: np.where(t == 1.5, np.nan, 1.0))
        with pytest.raises(ValueError, match=r"non-finite entries at t=1\.5"):
            c.sample_all(g)

    @pytest.mark.parametrize("n", [51, 501])
    def test_time_profile_sampled_in_one_call(self, n):
        calls = []

        def fn(t):
            calls.append(t)
            return 1.0 + np.sin(t)

        mats = Coefficient.scalar_profile(fn, dim=2).sample_all(TimeGrid(0.0, 0.01, n, 1.0))
        assert len(calls) == 1
        assert mats.strides[0] != 0
        assert np.array_equal(mats[:, 1, 1], 1.0 + np.sin(0.01 * np.arange(n)))

    def test_stack_of_wrong_shape_names_its_shape(self):
        g = small_grid(n=7)
        c = Coefficient(dim=2, sampler=lambda t: np.ones((len(t), 1, 2)))
        with pytest.raises(ValueError, match=r"shape \(7, 1, 2\)"):
            c.sample_all(g)
