"""Causal operator algebra: materialization, norms, causality diagnostics,
the series truncation index, the transfer-function extraction and the
weight-independence defect."""

from dataclasses import replace

import numpy as np
import pytest

from evocalc import operators
from evocalc.signals import (
    NORM_FLOOR, GridMismatchError, Signal, TimeGrid, inner_nu, norm_nu, shift,
)
from evocalc.timecalc import MultiplierFunction, antiderivative, apply_multiplier
from evocalc.operators import (
    CausalOp,
    ProbeSet,
    causality_defect,
    nu_independence_defect,
    op_norm,
    pairing_sup,
    probe_sup,
    series_terms,
    sup,
    transfer_function,
)


def grid_small(nu=1.0, n=512, dt=0.02):
    return TimeGrid(0.0, dt, n, nu)


class TestAlgebra:
    def test_materialized_dense_matches_action(self):
        g = grid_small(n=64)
        S = CausalOp.antiderivative_op(g).materialize()
        rng = np.random.default_rng(21)
        f = Signal(g, rng.standard_normal(g.n))
        np.testing.assert_allclose(
            S.dense @ f.values.ravel(), S(f).values.ravel(), rtol=0, atol=1e-12,
        )

    def test_materialized_dense_is_the_impulse_responses(self):
        # column j is the response to the j-th unit impulse, bit for bit;
        # each impulse is its own Signal although one buffer builds them all
        g = grid_small(n=24)
        B = np.random.default_rng(6).standard_normal((2, 3))
        seen = []

        def act(f):
            seen.append(f)
            return Signal(g, antiderivative(f).values @ B)

        S = CausalOp(grid=g, action=act, dim_in=2, dim_out=3).materialize()
        eye = np.eye(2 * g.n)
        assert len(seen) == len(eye)
        assert all(np.array_equal(f.values.ravel(), e) for f, e in zip(seen, eye))
        cols = np.stack([act(Signal(g, e.reshape(g.n, 2))).values.ravel() for e in eye], axis=1)
        assert np.array_equal(S.dense, cols)

    def test_submultiplicative_norm(self):
        g = grid_small(n=256)
        rng = np.random.default_rng(4)
        lower = np.tril(rng.standard_normal((g.n, g.n)))
        S = CausalOp(grid=g, action=lambda f: Signal(g, lower @ f.values), dense=lower)
        T = CausalOp.antiderivative_op(g).materialize()
        lhs = op_norm(CausalOp(grid=g, action=lambda f: S(T(f)), dense=S.dense @ T.dense))
        assert lhs <= op_norm(S) * op_norm(T) * (1 + 1e-6)


class TestOpNorm:
    def test_zero_and_scaled_identity(self):
        g = grid_small(n=256)
        assert op_norm(CausalOp(grid=g, action=lambda f: 0.0 * f)) == 0.0
        assert op_norm(CausalOp(grid=g, action=lambda f: 2.0 * f)) == pytest.approx(2.0, abs=1e-8)

    def test_shift_norm_is_exponential(self):
        g = TimeGrid(0.0, 0.01, 3001, 1.0)
        est = op_norm(CausalOp.shift_op(g, -0.5))
        assert est == pytest.approx(np.exp(-0.5), abs=1e-2)

    def test_antiderivative_norm_bound(self):
        g = TimeGrid(0.0, 0.01, 3001, 1.0)
        assert op_norm(CausalOp.antiderivative_op(g)) <= 1.02

    def test_unsettled_adjoint_iteration_warns_with_its_budget(self):
        # two top singular values 1 and 1 - 1e-4: the Rayleigh ratio still
        # moves by far more than 1e-12 per step after 3000 steps
        g = TimeGrid(0.0, 0.1, 4, 1.0)
        d = np.array([1.0, 1.0 - 1e-4, 0.5, 0.5])[:, None]

        def scale(f):
            return Signal(g, d * f.values)

        S = CausalOp(grid=g, action=scale, adjoint_action=scale)
        with pytest.warns(RuntimeWarning, match="in 3000 iterations"):
            est = op_norm(S)
        assert est == pytest.approx(1.0, abs=1e-4)

    @staticmethod
    def complex_weighted_norm(S):
        # the dense route's matrix W^(1/2) S W^(-1/2), kept complex
        S = S.materialize()
        w = np.exp(-2.0 * S.grid.nu * S.grid.times) * S.grid.dt
        A = np.sqrt(w)[:, None] * S.dense.astype(complex) / np.sqrt(w)[None, :]
        return np.linalg.norm(A, 2)

    @staticmethod
    def random_real(g):
        mat = np.random.default_rng(5).standard_normal((g.n, g.n))
        return CausalOp(grid=g, action=lambda f: Signal(g, mat @ f.values), dense=mat)

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("build", [
        CausalOp.antiderivative_op,
        lambda g: CausalOp.shift_op(g, -0.2),
        random_real,
    ], ids=["antiderivative", "shift", "random"])
    def test_real_dense_route_matches_complex_svd(self, build, nu):
        # with the adjoint stripped a real operator takes the real SVD
        S = replace(build(grid_small(nu=nu, n=300)), adjoint_action=None)
        ref = self.complex_weighted_norm(S)
        assert op_norm(S) == pytest.approx(ref, rel=1e-14)

    def test_complex_dense_route_is_the_complex_svd(self):
        g = grid_small(n=300)
        S = CausalOp(grid=g, action=lambda f: 1j * shift(f, -0.2))
        assert op_norm(S) == self.complex_weighted_norm(S)

    @pytest.mark.parametrize("n", [1025, 1100, 5000])
    def test_no_adjoint_above_dense_limit_raises(self, n):
        # above DENSE_LIMIT columns only an analytic adjoint gives a norm,
        # also when a dense matrix comes with the operator
        g = TimeGrid(0.0, 0.01, n, 1.0)
        d = np.full(g.n, 0.5)
        d[7] = 2.0
        S = CausalOp(grid=g, action=lambda f: Signal(g, d[:, None] * f.values),
                     dense=np.diag(d) if n < 2000 else None)
        with pytest.raises(ValueError, match="needs an analytic adjoint above 1024 columns"):
            op_norm(S)


class TestProbeSup:
    def test_floored_ratio_at_the_given_weight(self):
        # the norms are taken at the weight of the probes' grid
        ramp = np.linspace(0.0, 1.0, grid_small().n)[:, None]

        def residual(f):
            return Signal(f.grid, ramp * f.values)

        for nu in (1.0, 0.0, 2.0):
            g = grid_small(nu=nu)
            probes = list(ProbeSet(g, seed=4)) + [Signal.zero(g)]
            expected = max(norm_nu(residual(f)) / max(norm_nu(f), NORM_FLOOR)
                           for f in probes)
            assert probe_sup((residual(f), f) for f in probes) == expected
        assert probe_sup([]) == 0.0

    def test_nan_ratio_reaches_the_sup(self):
        # a NaN anywhere is the sup, wherever it falls among the values;
        # with no values the sup is 0.0
        assert sup([]) == 0.0
        assert sup([0.5, 2.0, 1.0]) == 2.0
        for vals in ([np.nan], [np.nan, 1.0], [1.0, np.nan, 2.0], [3.0, np.nan]):
            assert np.isnan(sup(vals))
        g = TimeGrid(0.0, 0.01, 101, 1.0)
        assert np.isnan(probe_sup((Signal(g, f.values * np.nan), f) for f in ProbeSet(g)))


class TestPairingSup:
    def mismatches(self, g):
        return [(f, s) for f, s in zip(ProbeSet(g, seed=5), (1.0, 0.5, 3.0, 2.0, 0.25))]

    def test_floored_ratio_at_the_given_weight(self):
        # a zero test is floored, not divided by: its pairings are 0.0
        for nu in (1.0, 0.0, 2.0):
            g = grid_small(nu=nu)
            tests = list(ProbeSet(g, seed=4)) + [Signal.zero(g)]
            expected = max(abs(inner_nu(h, d)) / (max(norm_nu(h), NORM_FLOOR) * s)
                           for h in tests for d, s in self.mismatches(g))
            assert pairing_sup(tests, self.mismatches(g)) == expected
            assert pairing_sup([Signal.zero(g)], self.mismatches(g)) == 0.0
        assert pairing_sup([], self.mismatches(g)) == 0.0

    def test_nan_mismatch_reaches_the_sup(self):
        g = grid_small()
        for at in (0, 2, 4):
            pairs = self.mismatches(g)
            pairs[at] = (Signal(g, pairs[at][0].values * np.nan), 1.0)
            assert np.isnan(pairing_sup(ProbeSet(g, seed=4), pairs))

    def test_mismatch_of_another_dim_raises(self):
        g = grid_small()
        with pytest.raises(GridMismatchError, match="dims differ"):
            pairing_sup(ProbeSet(g), [(Signal.zero(g, 2), 1.0)])

    def test_each_test_is_normed_once(self, monkeypatch):
        # every test meets every mismatch, and the mismatches may come as a
        # one-pass iterator
        calls = 0

        def counted(f):
            nonlocal calls
            calls += 1
            return norm_nu(f)

        g = grid_small()
        tests = list(ProbeSet(g, seed=4))
        expected = pairing_sup(tests, self.mismatches(g))
        monkeypatch.setattr(operators, "norm_nu", counted)
        assert pairing_sup(tests, iter(self.mismatches(g))) == expected
        assert calls == len(tests)


class TestSeriesTerms:
    @pytest.mark.parametrize("theta", [1e-12, 0.1, 0.5, 0.9, 0.99])
    def test_smallest_index_meeting_the_remainder(self, theta):
        pref, tol = 2.0, 1e-10
        k = series_terms(theta, pref, tol)
        assert theta ** (k + 1) / (1 - theta) * pref <= tol * (1 + 1e-9)
        assert k == 0 or theta ** k / (1 - theta) * pref > tol * (1 - 1e-9)

    def test_raises_past_ten_thousand_terms(self):
        with pytest.raises(ValueError, match="exploded"):
            series_terms(1 - 1e-6, 1.0, 1e-10)


class TestCausalityDiagnostics:
    def test_antiderivative_defect_all_cuts(self):
        g = TimeGrid(0.0, 0.05, 200, 1.0)
        probes = ProbeSet(g, seed=5)
        S = CausalOp.antiderivative_op(g)
        worst = max(causality_defect(S, t, probes) for t in g.times)
        assert worst <= 1e-12

    def test_anticausal_shift_flagged(self):
        g = TimeGrid(0.0, 0.01, 1001, 1.0)
        probes = ProbeSet(g, seed=6)
        S = CausalOp.shift_op(g, +5 * g.dt)
        t_cut = g.t0 + 0.12 * (g.t_end - g.t0)
        assert causality_defect(S, t_cut, probes) > 0.1

    def test_lower_triangular_dense_is_causal(self):
        g = TimeGrid(0.0, 0.05, 128, 1.0)
        rng = np.random.default_rng(7)
        strict = np.tril(rng.standard_normal((g.n, g.n)), k=-1)
        S = CausalOp(grid=g, action=lambda f: Signal(g, strict @ f.values), dense=strict)
        probes = ProbeSet(g, seed=7)
        worst = max(causality_defect(S, t, probes) for t in g.times[:: 8])
        assert worst <= 1e-12

class TestTransferFunction:
    def test_identity(self):
        g = TimeGrid(0.0, 1e-3, 20001, 0.5)
        ms = transfer_function(CausalOp.identity(g), [1.0 + 0j, 2.0 + 0j])
        for m in ms:
            assert abs(m[0, 0] - 1.0) <= 1e-8

    def test_antiderivative_is_one_over_z(self):
        g = TimeGrid(0.0, 1e-3, 20001, 0.5)
        ms = transfer_function(CausalOp.antiderivative_op(g), [1.0 + 0j])
        assert abs(ms[0][0, 0] - 1.0) <= 1e-3

    def test_delay_is_exponential(self):
        g = TimeGrid(0.0, 1e-3, 20001, 0.5)
        ms = transfer_function(CausalOp.shift_op(g, -1.0), [1.0 + 0j, 2.0 + 0j])
        assert abs(ms[0][0, 0] - np.exp(-1.0)) <= 1e-3
        assert abs(ms[1][0, 0] - np.exp(-2.0)) <= 1e-3

    def test_unlabelled_antiderivative_is_one_over_z(self):
        # both hypotheses are measured, so a bare action needs no declaration
        g = TimeGrid(0.0, 1e-3, 20001, 0.5)
        ms = transfer_function(CausalOp(grid=g, action=antiderivative), [1.0 + 0j])
        assert abs(ms[0][0, 0] - 1.0) <= 1e-3

    def test_non_ti_rejected(self):
        g = TimeGrid(0.0, 0.01, 2001, 0.5)
        with pytest.raises(ValueError, match="translation invariance"):
            ramp = CausalOp(grid=g, action=lambda f: Signal(g, (1.0 + g.times)[:, None] * f.values))
            transfer_function(ramp, [1.0 + 0j])

    @pytest.mark.parametrize("build", [
        lambda g: CausalOp(grid=g, action=lambda f: shift(f, g.dt)),
        lambda g: CausalOp.shift_op(g, g.dt),
        lambda g: CausalOp.shift_op(g, 0.5 * (g.t_end - g.t0)),
        lambda g: CausalOp(grid=g, dim_in=2, dim_out=1, action=lambda f: shift(
            Signal(g, f.values[:, :1] - f.values[:, 1:]), g.dt)),
    ], ids=["plain", "shift_op", "half_window", "cancelling_columns"])
    def test_anticausal_shift_rejected(self, build):
        # an advance commutes with shifts, so only causality catches it; the
        # half-window advance moves the whole bump off the left edge, and the
        # cancelling columns give zero output on the all-ones direction
        g = TimeGrid(0.0, 2.5e-4, 80001, 0.5)
        with pytest.raises(ValueError, match="causality"):
            transfer_function(build(g), [1.0 + 0j])


class TestNuIndependence:
    def test_antiderivative_same_formula(self):
        g = TimeGrid(0.0, 0.01, 1001, 1.0)
        probes = ProbeSet(g, seed=13)

        def solve(values, grid):
            return antiderivative(Signal(grid, values)).values

        # the formula never reads nu, so the defect is exactly zero
        assert nu_independence_defect(solve, 1.0, 3.0, probes) == 0.0

    def test_relaxation_solution_map(self):
        g = TimeGrid(0.0, 0.01, 1001, 1.0)
        probes = ProbeSet(g, seed=14)

        def solve(values, grid):
            out = np.empty_like(values)
            prev = np.zeros(values.shape[1], dtype=complex)
            a = 1.0 / grid.dt
            for k in range(grid.n):
                prev = (values[k] + a * prev) / (1.0 + a)
                out[k] = prev
            return out

        assert nu_independence_defect(solve, 1.0, 3.0, probes) <= 2 * g.dt

    def test_multiplier_route(self):
        g = TimeGrid(0.0, 0.01, 1001, 1.0)
        probes = ProbeSet(g, seed=15).smooth_only()

        def solve(values, grid):
            return apply_multiplier(MultiplierFunction.scalar(lambda z: z),
                                    Signal(grid, values)).values

        assert nu_independence_defect(solve, 1.0, 2.0, probes) <= 1e-3
