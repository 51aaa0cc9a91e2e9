"""Evolution solvers: block ODE routes, fixed points, PDE stepping,
the exchange identity, and the elliptic factorization."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evocalc.signals import Coefficient, Signal, TimeGrid, inner_nu, norm_nu, truncate_before
from evocalc.timecalc import antiderivative, derivative, resolvent
from evocalc.signals import multiply
from evocalc.solvers import (
    OdeBlockSystem,
    PdeSystem,
    SpatialOperator,
    elliptic_solve,
    evo_pde_forward,
    funid_residual,
    heat_1d_solve,
    maxwell_1d_solve,
    picard_solve,
    solve_evo_pde,
    solve_ode_block,
    solve_ode_block_neumann,
    staggered_grad0,
    wave_1d_solve,
)
from evocalc import solvers
from evocalc.causality_audit import BLOCK
from evocalc.operators import CausalOp, op_norm, transfer_function
from evocalc.solvers import _tridiag_factor, _tridiag_solve
from evocalc.timecalc import _pcr_levels, _pcr_solve


def rand_skew(rng, dim, scale=1.0):
    k = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    k = 0.5 * (k - k.conj().T)
    return scale * k / np.linalg.norm(k, 2)


class TestSpatialOperator:
    def test_staggered_pair_is_exact_transpose(self):
        g = staggered_grad0(17)
        div = -g.T
        block = np.zeros((35, 35))
        block[:17, 17:] = div
        block[17:, :17] = g
        assert np.linalg.norm(block + block.T, 2) <= 1e-12

    def test_matrix_free_pair_is_bit_exact(self):
        # the pair the grad-div and wave steppers run: the divergence leg is
        # exactly the transpose of the gradient leg, and the gradient leg is
        # exactly staggered_grad0; at m = 48, _dx_inv(m) differs from m + 1
        for m in (1, 12, 16, 48, 64):
            dx = solvers._dx_inv(m)
            g = solvers._g_apply(np.eye(m), dx)
            assert np.array_equal(solvers._gt_apply(np.eye(m + 1), dx), g.T)
            assert np.array_equal(g, staggered_grad0(m))

    def test_non_skew_rejected(self):
        with pytest.raises(ValueError):
            SpatialOperator.skew_matrix(np.eye(2))


class TestTridiagonalKernel:
    @pytest.mark.parametrize("m", [1, 2, 9])
    def test_matches_dense_solve_single_and_batched(self, m):
        rng = np.random.default_rng(m)
        lower = rng.standard_normal(m - 1) + 1j * rng.standard_normal(m - 1)
        upper = rng.standard_normal(m - 1) + 1j * rng.standard_normal(m - 1)
        diag = 4.0 + rng.standard_normal(m) + 1j * rng.standard_normal(m)
        dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        factors = _tridiag_factor(lower, diag, upper)
        for rhs in (rng.standard_normal(m) + 0j, rng.standard_normal((m, 3)) + 0j):
            x = _tridiag_solve(factors, rhs)
            assert x.shape == rhs.shape
            assert np.linalg.norm(dense @ x - rhs) <= 1e-13 * np.linalg.norm(rhs)

    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, solvers.INVERSE_MAX),
           nodes=st.integers(1, 3), K=st.integers(1, 9), real=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_inverse_route_matches_thomas(self, seed, m, nodes, K, real):
        # diagonally dominant, complex unless `real`; several matrices in
        # one batched pass, node axis last
        rng = np.random.default_rng(seed)

        def draw(*shape):
            return rng.standard_normal(shape) + (0 if real else 1j) * rng.standard_normal(shape)

        lower, upper = draw(m - 1, nodes), draw(m - 1, nodes)
        diag = 5.0 + draw(m, nodes)
        solves = solvers._tridiag_solves(lower, diag, upper)
        assert len(solves) == nodes
        col = draw(m)
        for b, solve in enumerate(solves):
            factors = _tridiag_factor(lower[:, b], diag[:, b], upper[:, b])
            for rhs in (draw(m), draw(m, K)):
                x, ref = solve(rhs), _tridiag_solve(factors, rhs)
                assert x.shape == rhs.shape
                assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)
            # equal columns give equal bits wherever they sit in the block
            same = solve(np.repeat(col[:, None], K, axis=1))
            assert (same == same[:, -1:]).all()


class TestCyclicReduction:
    """Above INVERSE_MAX every solve with a right-hand side runs by cyclic
    reduction; pinned to the Thomas kernel it replaced."""

    @pytest.mark.parametrize("m", [257, 512, 1024, 1025])
    @pytest.mark.parametrize("real", [False, True])
    def test_matches_thomas(self, m, real):
        rng = np.random.default_rng(m)

        def draw(*shape):
            return rng.standard_normal(shape) + (0 if real else 1j) * rng.standard_normal(shape)

        lower, upper = draw(m - 1), draw(m - 1)
        diag = 5.0 + draw(m)
        levels, factors = _pcr_levels(lower, diag, upper), _tridiag_factor(lower, diag, upper)
        for rhs in (draw(m), draw(m, 7)):
            x, ref = _pcr_solve(levels, rhs), _tridiag_solve(factors, rhs)
            assert x.shape == rhs.shape
            assert np.linalg.norm(x - ref) <= 1e-14 * np.linalg.norm(ref)
        # equal columns give equal bits wherever they sit, and as one
        # column, one (m, 1) row block or one column of a wider block
        col = draw(m)
        one = _pcr_solve(levels, col)
        assert np.array_equal(_pcr_solve(levels, col[:, None])[:, 0], one)
        for K in (2, 3, 8, 17):
            same = _pcr_solve(levels, np.repeat(col[:, None], K, axis=1))
            assert (same == one[:, None]).all()

    @staticmethod
    def recorded_bands(monkeypatch):
        bands = []

        def recording(lower, diag, upper):
            bands.append((lower, diag, upper))
            return _pcr_levels(lower, diag, upper)

        monkeypatch.setattr(solvers, "_pcr_levels", recording)
        return bands

    @pytest.mark.parametrize("kind", ["heat", "wave", "maxwell"])
    def test_stepper_matrices_are_diagonally_dominant(self, monkeypatch, kind):
        # the u-leg matrices above INVERSE_MAX, on the benchmark's kinds of
        # input: real conductivities and a time-varying permittivity
        bands = self.recorded_bands(monkeypatch)
        m_x = solvers.INVERSE_MAX + 1
        g = TimeGrid(0.0, 0.01, 4, 1.0)
        xe, xi = np.linspace(0.0, 1.0, m_x + 1), np.linspace(0.0, 1.0, m_x + 2)[1:-1]
        f = Signal(g, np.outer(np.ones(g.n), np.sin(np.pi * xi)))
        a = 1.5 + 0.5 * np.sin(2 * np.pi * xe)
        if kind == "heat":
            heat_1d_solve(a, f, nu=1.0)
        elif kind == "wave":
            wave_1d_solve(a, f, nu=1.0)
        else:
            eps = Coefficient.scalar_profile(lambda t: 1.0 + 0.25 * np.cos(t),
                                             deriv=lambda t: -0.25 * np.sin(t))
            one = Coefficient.scalar_profile(lambda t: 1.0, deriv=lambda t: 0.0)
            maxwell_1d_solve(eps, one, one, f, nu=1.0)
        assert len(bands) == (g.n if kind == "maxwell" else 1)
        for lower, diag, upper in bands:
            off = np.zeros(m_x)
            off[1:] += np.abs(lower)
            off[:-1] += np.abs(upper)
            assert (np.abs(diag) > off).all()


class TestOdeBlock:
    def test_reduces_to_antiderivative(self):
        g = TimeGrid(0.0, 0.01, 1001, 2.0)
        sys0 = OdeBlockSystem(M=Coefficient.constant([[1.0]], 1.0),
                              N00=Coefficient.constant([[0.0]]), c=1.0)
        rng = np.random.default_rng(0)
        F = Signal(g, rng.standard_normal(g.n))
        u = solve_ode_block(sys0, F)
        np.testing.assert_allclose(u.values, antiderivative(F).values,
                                   rtol=0, atol=1e-10)

    def test_scalar_relaxation_oracle(self):
        g = TimeGrid(0.0, 0.01, 3001, 2.5)
        sys1 = OdeBlockSystem(M=Coefficient.constant([[1.0]], 1.0),
                              N00=Coefficient.constant([[1.0]]), c=1.0)
        u = solve_ode_block(sys1, Signal.indicator(g, 0.0, 1e9))
        oracle = 1.0 - np.exp(-g.times)
        assert np.max(np.abs(u.values[:, 0] - oracle)) <= 2 * g.dt

    def test_contraction_condition_enforced(self):
        g = TimeGrid(0.0, 0.01, 201, 0.5)
        sys1 = OdeBlockSystem(M=Coefficient.constant([[1.0]], 1.0),
                              N00=Coefficient.constant([[1.0]]), c=1.0)
        with pytest.raises(ValueError):
            solve_ode_block(sys1, Signal.zero(g))

    def test_theta_once_per_solve_and_before_stepping(self, monkeypatch):
        # one block_norms pass per solve, in the series route, which runs
        # first: a system that fails theta < 1 never reaches the stepper
        calls = []
        block_norms = OdeBlockSystem.block_norms
        monkeypatch.setattr(OdeBlockSystem, "block_norms",
                            lambda sys, grid: calls.append(grid) or block_norms(sys, grid))
        sys1 = OdeBlockSystem(M=Coefficient.constant([[1.0]], 1.0),
                              N00=Coefficient.constant([[1.0]]), c=1.0)
        solve_ode_block(sys1, Signal.indicator(TimeGrid(0.0, 0.01, 201, 2.5), 0.0, 1.0))
        assert len(calls) == 1

        def no_stepping(*args):
            raise AssertionError("stepped before the theta check")

        monkeypatch.setattr(solvers, "_step_ode_block", no_stepping)
        with pytest.raises(ValueError, match="contraction fails"):
            solve_ode_block(sys1, Signal.zero(TimeGrid(0.0, 0.01, 201, 0.5)))

    def test_series_route_raises_near_theta_one(self):
        # theta = 1 - 1e-6 needs millions of terms; the route raises instead
        # of returning an under-converged series
        g = TimeGrid(0.0, 0.01, 64, 1.0)
        sys1 = OdeBlockSystem(M=Coefficient.constant([[1.0]], 1.0),
                              N00=Coefficient.constant([[1.0 - 1e-6]]), c=1.0)
        assert sys1.theta(g) < 1
        with pytest.raises(ValueError, match="exploded"):
            solve_ode_block_neumann(sys1, Signal(g, np.ones(g.n)), 1e-8)

    def test_block_routes_agree(self):
        rng = np.random.default_rng(42)
        g = TimeGrid(0.0, 0.01, 1001, 20.0)
        m = 2

        def bounded(norm):
            k = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            return k * (norm / np.linalg.norm(k, 2))

        sysb = OdeBlockSystem(
            M=Coefficient.constant(np.eye(m) + 0.4 * rand_skew(rng, m), 1.0),
            N00=Coefficient.constant(bounded(1.0)),
            N01=Coefficient.constant(bounded(1.0)),
            N10=Coefficient.constant(bounded(1.0)),
            N11=Coefficient.constant(np.eye(m) + 0.4 * rand_skew(rng, m), 1.0),
            c=1.0,
        )
        F = Signal(g, rng.standard_normal((g.n, 2 * m)))
        # the call itself asserts the two-route agreement at 1e-8
        solve_ode_block(sysb, F)

    def test_block_norms_match_nodewise_norms(self):
        g = TimeGrid(0.0, 0.05, 41, 1.0)
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        N00 = Coefficient(dim=2, sampler=lambda t: np.eye(2) + np.multiply.outer(np.sin(t), skew))
        N01 = Coefficient.constant([[1.0, 2.0], [0.0, -1.0]])
        sysb = OdeBlockSystem(M=Coefficient.constant(np.eye(2), 1.0), N00=N00, N01=N01,
                              N10=N01, N11=Coefficient.constant(np.eye(2), 1.0), c=1.0)
        norms = sysb.block_norms(g)
        for name, coef in (("N00", N00), ("N01", N01)):
            mats = coef.sample_all(g)
            assert norms[name] == max(np.linalg.norm(mats[k], 2) for k in range(g.n))


def _step_dense_by_solve(Ms, mats, rows, dt):
    """The recurrence `solvers._step_dense` replaced: one dense solve per node."""
    m0 = Ms.shape[1]
    mu_prev = np.zeros((mats.shape[1], 1), dtype=complex)  # (M u) at the previous node
    for k, f in enumerate(rows):
        uk = np.linalg.solve(mats[k], f + mu_prev / dt)
        if mu_prev.shape != uk.shape:
            mu_prev = np.zeros_like(uk)
        mu_prev[:m0] = Ms[k] @ uk[:m0]
        yield uk


class TestDenseStepper:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d))),
           st.integers(2, 30), st.sampled_from(["wide", "widen"]),
           st.integers(1, 7), st.integers(0, 30), st.floats(0.01, 1.0),
           st.integers(0, 2**32 - 1))
    def test_matches_the_per_node_solve(self, dims, n, layout, K, widen_at, dt, seed):
        # a time-varying M, so the memory propagator differs node by node
        (d, m0), rng = dims, np.random.default_rng(seed)

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        Ms = np.eye(m0) + 0.3 * cplx(n, m0, m0)
        mats = 1.5 * np.eye(d) + 0.3 * cplx(n, d, d)
        mats[:, :m0, :m0] += Ms / dt
        F = cplx(n, d, K)
        widen_at = min(widen_at, n)
        rows = {"wide": list(F),
                "widen": [F[k, :, :1] if k < widen_at else F[k] for k in range(n)]}[layout]
        ref = list(_step_dense_by_solve(Ms, mats, rows, dt))
        got = list(solvers._step_dense(Ms, mats, rows, dt))
        assert [u.shape for u in got] == [u.shape for u in ref]
        if layout == "widen":
            assert all(u.shape[1] == (1 if k < widen_at else K) for k, u in enumerate(got))
        scale = max(np.max(np.abs(u)) for u in ref)
        assert max(np.max(np.abs(a - b)) for a, b in zip(got, ref)) <= 1e-12 * scale

    def test_singular_node_raises(self):
        n = 9
        Ms = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2))
        mats = Ms / 0.1 + np.eye(2)
        mats[4] = [[1.0, 2.0], [2.0, 4.0]]
        with pytest.raises(np.linalg.LinAlgError):
            list(solvers._step_dense(Ms, mats, np.ones((n, 2, 1)), 0.1))


@pytest.mark.parametrize("iteration", ["picard_solve", "op_norm"])
def test_non_finite_iterate_raises_at_its_step(iteration):
    # a NaN iterate stops the iteration at once, naming the step, instead of
    # running out its budget (200 Picard steps, 3000 power steps)
    g = TimeGrid(0.0, 0.01, 2001, 1.0)
    with pytest.raises(ValueError, match="nan is not finite at step 1$"):
        if iteration == "picard_solve":
            picard_solve(lambda u: np.sin(u) * np.nan, 1.0, Signal(g, np.ones(g.n)))
        else:
            def nan(f):
                return Signal(g, f.values * np.nan)
            op_norm(CausalOp(grid=g, action=nan, adjoint_action=nan))


class TestPicard:
    def test_pure_quadrature(self):
        g = TimeGrid(0.0, 0.01, 1001, 1.0)
        f = Signal.indicator(g, 0.0, 1.0)
        u = picard_solve(lambda v: 0.0 * v, lip=1.0, f=f, tol=1e-12)
        expected = np.clip(g.times, 0.0, 1.0)
        assert np.max(np.abs(u.values[:, 0] - expected)) <= 1.5 * g.dt

    def test_single_solve_is_causal(self):
        # the all-cuts audit certifies the block map, whose 256 columns share
        # one stopping test; this pins picard_solve(f) as users call it
        g = TimeGrid(0.0, 0.01, 3001, 2.0)
        f = Signal(g, np.exp(-(((g.times - 2.0) / 0.6) ** 2)))
        u = picard_solve(np.sin, 1.0, f)
        for t_cut in g.t0 + (g.t_end - g.t0) * np.arange(1, 11) / 11:
            u_cut = picard_solve(np.sin, 1.0, truncate_before(f, t_cut))
            defect = norm_nu(truncate_before(u - u_cut, t_cut))
            assert defect <= 1e-10 * norm_nu(f)

    def test_linear_decay_oracle(self):
        # window with lip * t_end moderate: nodal values are then converged
        g = TimeGrid(0.0, 0.01, 501, 1.0)
        f = Signal(g, np.ones(g.n))
        u = picard_solve(lambda v: -v, lip=1.0, f=f, tol=1e-12)
        oracle = 1.0 - np.exp(-g.times)
        assert np.max(np.abs(u.values[:, 0] - oracle)) <= 2 * g.dt

    def test_nonlinear_vs_rk4(self):
        # compared at nu = 2, the weight picard_solve works at for lip = 1
        dt = 1e-3
        g = TimeGrid(0.0, dt, 2001, 2.0)
        t = g.times

        def pulse(s):
            return np.exp(-(((s - 0.75) / 0.2) ** 2))

        u = picard_solve(np.sin, lip=1.0, f=Signal(g, pulse(t)), tol=1e-12)
        # independent fourth-order reference on the staggered lattice
        y, s = 0.0, 0.0
        ref = np.empty(g.n)
        for k in range(g.n):
            target = t[k] + dt / 2
            h = target - s
            k1 = np.sin(y) + pulse(s)
            k2 = np.sin(y + h / 2 * k1) + pulse(s + h / 2)
            k3 = np.sin(y + h / 2 * k2) + pulse(s + h / 2)
            k4 = np.sin(y + h * k3) + pulse(s + h)
            y += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            s = target
            ref[k] = y
        ref_sig = Signal(g, ref)
        rel = norm_nu(u - ref_sig) / norm_nu(ref_sig)
        assert rel <= 1e-3

    def test_rejects_nonpositive_lipschitz(self):
        g = TimeGrid(0.0, 0.01, 101, 1.0)
        with pytest.raises(ValueError):
            picard_solve(np.sin, lip=0.0, f=Signal.zero(g))

    @pytest.mark.parametrize("case", ["sin", "real-ensemble", "complex-decay",
                                      *(f"audit-401-{b}" for b in range(4)),
                                      *(f"audit-3001-{b}" for b in (0, 12, 23))])
    def test_matches_the_signal_iteration(self, case):
        # reference: the same iteration with one Signal per intermediate
        def reference(rule, f, tol):
            grid = f.grid.with_nu(2.0)
            fv, u = Signal(grid, f.values), Signal.zero(grid, f.dim)
            while True:
                u_next = antiderivative(Signal(grid, rule(u.values)) + fv)
                gap, u = norm_nu(u_next - u), u_next
                if gap <= 0.5 * tol:
                    return u.values

        rng = np.random.default_rng(5)
        g = TimeGrid(0.0, 0.01, 401, 1.0)
        if case == "sin":
            g = TimeGrid(0.0, 1e-3, 2001, 1.0)
            rule, f, tol = np.sin, Signal(g, np.exp(-(((g.times - 0.75) / 0.2) ** 2))), 1e-12
        elif case == "real-ensemble":
            rule, f, tol = np.sin, Signal(g, rng.standard_normal((g.n, 64))), 1e-10
        elif case.startswith("audit"):
            # block b of `audit_picard`'s truncated-input ensemble on the
            # causality suite's drive: the shipped audit at n = 3001, the
            # benchmark's size at n = 401; the iterate is column-major and
            # the reference row-major, so the gap's sums round apart
            n, b = map(int, case.split("-")[1:])
            g = TimeGrid(0.0, 0.01, n, 1.0)
            fv = np.exp(-(((g.times - 2.0) / 0.6) ** 2))
            cuts = np.arange(b * (BLOCK - 1), min((b + 1) * (BLOCK - 1), n))
            ens = np.column_stack([fv[:, None] * (np.arange(n)[:, None] < cuts), fv])
            rule, f, tol = np.sin, Signal(g, ens), 1e-10
        else:
            vals = rng.standard_normal((g.n, 3)) + 1j * rng.standard_normal((g.n, 3))
            rule, f, tol = (lambda v: -v), Signal(g, vals), 1e-12
        assert np.array_equal(picard_solve(rule, lip=1.0, f=f, tol=tol).values,
                              reference(rule, f, tol))

    def test_rule_of_the_wrong_shape_raises(self):
        g = TimeGrid(0.0, 0.01, 101, 1.0)
        f = Signal(g, np.ones((g.n, 2)))
        with pytest.raises(ValueError, match=r"\(101, 2\).*\(101,\)"):
            picard_solve(lambda v: v[:, 0], lip=1.0, f=f)

    def test_per_state_rule_is_not_applied_row_by_row(self):
        # the rule maps the whole (n, m) stack; a per-state rule A @ u fails
        # loudly instead of falling back to one call per node
        g = TimeGrid(0.0, 0.01, 101, 1.0)
        A = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            picard_solve(lambda u: A @ u, lip=1.0, f=Signal(g, np.ones((g.n, 2))))


class TestEvoPde:
    def test_skew_reduces_to_scalar_ode(self):
        g = TimeGrid(0.0, 0.01, 2001, 2.5)
        sys_pde = PdeSystem.dense_small(
            Coefficient.constant([[1.0]], 1.0),
            Coefficient.constant([[1.0]]),
            SpatialOperator.skew_matrix([[0.0]]),
            c=1.0,
        )
        f = Signal.indicator(g, 0.0, 1e9)
        u = Signal(g, solve_evo_pde(sys_pde, f.values, g.with_nu(2.5)))
        oracle = 1.0 - np.exp(-g.times)
        assert np.max(np.abs(u.values[:, 0] - oracle)) <= 2 * g.dt

    def test_heat_mode_decay_rate(self):
        # driven sine mode approaches steady state at the mode eigenvalue
        m_x = 200
        x = np.linspace(0, 1, m_x + 2)[1:-1]
        g = TimeGrid(0.0, 0.002, 501, 1.0)
        f = Signal(g, np.outer(np.ones(g.n), np.sin(np.pi * x)))
        u = heat_1d_solve(np.ones(m_x + 1), f, nu=1.0)
        theta = u.values[:, :m_x].real
        resid = np.linalg.norm(theta - theta[-1], axis=1)
        mask = (g.times > 0.15) & (g.times < 0.75)
        slope = np.polyfit(g.times[mask], np.log(resid[mask]), 1)[0]
        assert -slope == pytest.approx(np.pi**2, rel=0.05)

    def test_skew_energy_identity(self):
        # skew part contributes no energy: Re <Q_t A u, u> = 0
        rng = np.random.default_rng(1)
        g = TimeGrid(0.0, 0.01, 1001, 1.0)
        A = rand_skew(rng, 2, scale=1.0)
        sys_pde = PdeSystem.dense_small(
            Coefficient.constant(np.eye(2), 1.0),
            Coefficient.constant(0.2 * np.eye(2)),
            SpatialOperator.skew_matrix(A),
            c=1.0,
        )
        f = Signal(g, np.column_stack([
            np.exp(-(((g.times - 2.0) / 0.5) ** 2)),
            np.exp(-(((g.times - 3.0) / 0.8) ** 2)),
        ]))
        u = Signal(g, solve_evo_pde(sys_pde, f.values, g.with_nu(1.0)))
        au = Signal(g, u.values @ A.T)
        for frac in (0.3, 0.7):
            t_cut = g.t0 + frac * (g.t_end - g.t0)
            val = inner_nu(truncate_before(au, t_cut), truncate_before(u, t_cut)).real
            assert abs(val) <= 1e-10 * max(norm_nu(u) ** 2, 1.0)

    def test_norm_bound_asserted(self):
        g = TimeGrid(0.0, 0.01, 1001, 1.0)
        sys_pde = PdeSystem.dense_small(
            Coefficient.constant([[1.0]], 1.0),
            Coefficient.constant([[1.0]]),
            SpatialOperator.skew_matrix([[0.0]]),
            c=2.0,
        )
        f = Signal(g, np.exp(-(((g.times - 2.0) / 0.5) ** 2)))
        u = Signal(g, solve_evo_pde(sys_pde, f.values, g.with_nu(1.0)))
        assert norm_nu(u) <= (1.0 / 2.0) * norm_nu(f) * 1.05


class TestPdeChecks:
    """The gates of the PDE solves: the positivity certificate of
    `solve_evo_pde` and the norm bound that the 1D wrappers add to it."""

    def test_skew_system_without_its_legs_rejected_before_stepping(self, monkeypatch):
        def no_stepping(*args):
            raise AssertionError("stepped an unchecked system")

        monkeypatch.setattr(solvers, "_pde_steps", no_stepping)
        g = TimeGrid(0.0, 0.01, 21, 1.0)
        sys_pde = PdeSystem(A=SpatialOperator.skew_matrix([[0.0, -1.0], [1.0, 0.0]]), c=1.0)
        with pytest.raises(ValueError):
            solve_evo_pde(sys_pde, np.zeros((g.n, 2)), g)

    @pytest.mark.parametrize("kind", ["skew", "wave", "maxwell-const", "maxwell-eps(t)"])
    @pytest.mark.parametrize("rows", [15, 7])
    def test_solution_map_rejects_f_off_the_grid(self, kind, rows):
        # a stepper takes as many rows as F has, up to the length of a
        # time-varying leg: an F of another node count would be cut short or
        # stepped past the grid
        g = TimeGrid(0.0, 0.01, 11, 1.0)
        one = Coefficient.constant(1.0)
        eps = Coefficient.scalar_profile(lambda t: 1.0 + 0.25 * np.cos(t),
                                         deriv=lambda t: -0.25 * np.sin(t))
        sys_pde = {
            "skew": PdeSystem.dense_small(Coefficient.constant(np.eye(2)),
                                          Coefficient.constant(np.eye(2)),
                                          SpatialOperator.skew_matrix([[0.0, -1.0], [1.0, 0.0]]),
                                          c=1.0),
            "wave": PdeSystem.wave(np.full(5, 2.0), nu=1.0),
            "maxwell-const": PdeSystem.maxwell(one, one, one, 4),
            "maxwell-eps(t)": PdeSystem.maxwell(eps, one, one, 4),
        }[kind]
        with pytest.raises(ValueError, match=r"is not \(n, state_dim\) = \(11, "):
            solve_evo_pde(sys_pde, np.ones((rows, sys_pde.state_dim)), g)

    @pytest.mark.parametrize("shape", [(), (3,)], ids=["one-solve", "K=3"])
    def test_wave_flux_leg_drive_rejected(self, shape):
        # the wave stepper reads the velocity leg of F only, so a drive on
        # the flux leg would be dropped, giving the undriven states
        g = TimeGrid(0.0, 0.01, 21, 1.0)
        m_x = 4
        sys_pde = PdeSystem.wave(np.full(m_x + 1, 2.0), nu=1.0)
        F = np.zeros((g.n, sys_pde.state_dim, *shape))
        F[:, :m_x] = 1.0
        solve_evo_pde(sys_pde, F, g)
        F[:, m_x:] = 1e3
        with pytest.raises(ValueError, match="drives the wave system's flux leg"):
            solve_evo_pde(sys_pde, F, g)

    @pytest.mark.parametrize("shape", [(), (3,)], ids=["one-solve", "K=3"])
    def test_solution_map_takes_a_nested_list_f(self, shape):
        g = TimeGrid(0.0, 0.01, 11, 1.0)
        sys_pde = PdeSystem.heat(np.ones(5), nu=1.0)
        F = np.random.default_rng(3).standard_normal((g.n, sys_pde.state_dim, *shape))
        assert np.array_equal(solve_evo_pde(sys_pde, F.tolist(), g), solve_evo_pde(sys_pde, F, g))

    def test_skew_positivity_checked_at_every_node(self):
        # M dips below c at a single node that a spot check could skip
        g = TimeGrid(0.0, 0.01, 301, 1.0)
        M = Coefficient.scalar_profile(lambda t: np.where(abs(t - 1.37) < 1e-9, 0.2, 1.0),
                                       deriv=lambda t: 0.0)
        sys_pde = PdeSystem.dense_small(M, Coefficient.constant([[0.0]]),
                                        SpatialOperator.skew_matrix([[0.0]]), c=0.9)
        f = Signal(g, np.exp(-(((g.times - 1.0) / 0.5) ** 2)))
        with pytest.raises(ValueError, match="positivity certificate fails at t=1.37"):
            solve_evo_pde(sys_pde, f.values, g.with_nu(1.0))

    @pytest.mark.parametrize("deriv, match", [
        (None, "coefficient carries no analytic time derivative"),
        (lambda t: 4.5 * np.cos(5 * t), "positivity certificate fails at t=0.6: 0.2265 < c=0.3"),
    ], ids=["no-derivative", "derivative"])
    def test_skew_time_profile_needs_its_derivative(self, deriv, match):
        # Re(nu M + N) >= 2 * 0.1 + 0.2 = 0.4 >= c at every node, but with
        # M'/2 the certificate fails, so a missing M' is not taken as zero
        g = TimeGrid(0.0, 0.01, 301, 2.0)
        M = Coefficient.scalar_profile(lambda t: 1.0 + 0.9 * np.sin(5 * t), dim=2, deriv=deriv)
        sys_pde = PdeSystem.dense_small(M, Coefficient.constant(0.2 * np.eye(2)),
                                        SpatialOperator.skew_matrix([[0.0, -1.0], [1.0, 0.0]]),
                                        c=0.3)
        with pytest.raises(ValueError, match=match):
            solve_evo_pde(sys_pde, np.zeros((g.n, 2)), g)

    @pytest.mark.parametrize("a", [0.0, -1.0])
    def test_wave_rejects_nonpositive_coefficient(self, a):
        with pytest.raises(ValueError, match="wave coefficient must have positive real part"):
            PdeSystem.wave(np.full(9, a), nu=1.0)

    def test_wave_constant_is_the_least_re_inverse(self):
        # |1 + i| = sqrt(2), but the flux leg's M = 1/a has Re(1/a) = 1/2
        assert PdeSystem.wave(np.full(9, 1.0 + 1.0j), nu=1.0).c == 0.5
        assert PdeSystem.wave(np.full(9, 4.0), nu=2.0).c == 0.5

    @pytest.mark.parametrize("a, c", [(2.0, 1.0), (1.0 + 1.0j, 0.7071), (-1.0, 0.5)])
    def test_wave_positivity_checked(self, a, c):
        # a wave system claiming more than nu min(1, min Re(1/a)) is refused
        g = TimeGrid(0.0, 0.01, 101, 1.0)
        sys_pde = PdeSystem(A=SpatialOperator.grad0_div_1d_projected(8), c=c,
                            legs=(Coefficient.space_profile(np.full(9, a, dtype=complex)),))
        with pytest.raises(ValueError, match="wave positivity fails"):
            solve_evo_pde(sys_pde, np.zeros((g.n, sys_pde.state_dim)), g)

    @pytest.mark.parametrize("kind", ["heat", "wave", "maxwell"])
    def test_wrappers_gate_the_norm_bound(self, kind, monkeypatch):
        # a stepper whose states are 100 times too large passes positivity
        # and must still be stopped by the norm bound
        m_x = 8
        g = TimeGrid(0.0, 0.01, 201, 1.0)
        a = 1.5 + np.cos(np.linspace(0.0, 3.0, m_x + 1))
        one = Coefficient.constant(1.0)
        solve = {
            "heat": lambda J: heat_1d_solve(a, J, nu=1.0),
            "wave": lambda J: wave_1d_solve(a, J, nu=1.0),
            "maxwell": lambda J: maxwell_1d_solve(one, one, one, J, nu=1.0),
        }[kind]
        J = Signal(g, np.outer(np.exp(-(((g.times - 1.0) / 0.6) ** 2)), np.ones(m_x)))
        dispatch = solvers._dispatch_step
        monkeypatch.setattr(solvers, "_dispatch_step", lambda *args: 100 * dispatch(*args))
        with pytest.raises(ValueError, match="norm bound violated"):
            solve(J)


class TestCommutatorFormula:
    def test_resolvent_commutator_identity_and_decay(self):
        # [(1+eps d)^-1, d M] equals -eps d (1+eps d)^-1 M' (1+eps d)^-1 with
        # the exact lattice commutator M', and vanishes strongly as eps -> 0
        g = TimeGrid(0.0, 0.01, 2001, 1.0)
        t = g.times
        M = Coefficient.scalar_profile(lambda s: 2.0 + np.sin(s), deriv=lambda s: np.cos(s))
        mats = M.sample_all(g)[:, 0, 0]
        dm = np.empty_like(mats)
        dm[0] = mats[0] / g.dt
        dm[1:] = (mats[1:] - mats[:-1]) / g.dt

        def mprime_lattice(u):
            vals = np.zeros_like(u.values)
            vals[1:] = dm[1:, None] * u.values[:-1]
            return Signal(g, vals)

        phi = Signal(g, np.exp(-(((t - 5.0) / 1.0) ** 2)))
        norms = []
        for eps in (1e-1, 1e-2, 1e-3):
            dM = lambda u: derivative(multiply(M, u))
            R = lambda u: resolvent(u, eps)
            comm = R(dM(phi)) - dM(R(phi))
            rhs = -eps * derivative(R(mprime_lattice(R(phi))))
            rel = norm_nu(comm - rhs) / max(norm_nu(comm), 1e-30)
            assert rel <= 1e-8
            norms.append(norm_nu(comm))
        assert norms[0] > norms[1] > norms[2]  # strong decay, monotone


class TestFundamentalIdentity:
    def grid(self):
        return TimeGrid(0.0, 0.01, 1001, 1.0)

    def probe(self, g):
        t = g.times
        return Signal(g, np.column_stack([
            np.exp(-(((t - 2.0) / 0.5) ** 2)), np.exp(-(((t - 3.0) / 0.7) ** 2))
        ]))

    def test_same_pair_is_exact(self):
        g = self.grid()
        A = SpatialOperator.skew_matrix(np.array([[0.0, -1.0], [1.0, 0.0]]))
        M = Coefficient.constant(np.eye(2), 1.0)
        N = Coefficient.constant(np.zeros((2, 2)))
        assert funid_residual(M, N, M, N, A, self.probe(g), c=0.5) <= 1e-12

    def test_scalar_pair(self):
        g = self.grid()
        A0 = SpatialOperator.skew_matrix(np.zeros((1, 1)))
        f = Signal(g, np.exp(-(((g.times - 2.0) / 0.5) ** 2)))
        r = funid_residual(
            Coefficient.constant([[1.0]]), Coefficient.constant([[0.0]]),
            Coefficient.constant([[2.0]]), Coefficient.constant([[0.0]]),
            A0, f, c=0.9,
        )
        assert r <= 1e-6

    def test_random_constant_pairs(self):
        rng = np.random.default_rng(42)
        g = self.grid()
        A = SpatialOperator.skew_matrix(np.array([[0.0, -1.0], [1.0, 0.0]]))
        f = self.probe(g)
        for _ in range(3):
            M = Coefficient.constant(np.eye(2) + 0.4 * rand_skew(rng, 2), 1.0)
            N = Coefficient.constant(0.3 * rand_skew(rng, 2) + 0.2 * np.eye(2))
            O = Coefficient.constant(np.eye(2) + 0.4 * rand_skew(rng, 2), 1.0)
            P = Coefficient.constant(0.3 * rand_skew(rng, 2) + 0.2 * np.eye(2))
            assert funid_residual(M, N, O, P, A, f, c=0.5) <= 1e-6

    def test_uncertified_constant_rejected(self):
        # Re(nu M) + Re N = 1 at every node: the identity is only evaluated
        # for a c the positivity certificate backs
        g = self.grid()
        A = SpatialOperator.skew_matrix(np.array([[0.0, -1.0], [1.0, 0.0]]))
        M = Coefficient.constant(np.eye(2), 1.0)
        N = Coefficient.constant(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="positivity certificate fails at t=0.0"):
            funid_residual(M, N, M, N, A, self.probe(g), c=1.5)


class TestMaxwell:
    def one(self):
        return Coefficient.scalar_profile(lambda t: 1.0, deriv=lambda t: 0.0)

    def test_zero_current_zero_field(self):
        g = TimeGrid(0.0, 0.01, 501, 1.0)
        u = maxwell_1d_solve(self.one(), self.one(), self.one(),
                             Signal.zero(g, 24), nu=1.0)
        assert norm_nu(u) == 0.0

    def test_eddy_regime_runs(self):
        # zero dielectricity is admissible: the parabolic limit solves fine
        g = TimeGrid(0.0, 0.01, 501, 1.0)
        m_x = 24
        x = np.linspace(0, 1, m_x + 2)[1:-1]
        zero = Coefficient.scalar_profile(lambda t: 0.0, deriv=lambda t: 0.0)
        J = Signal(g, np.outer(np.exp(-(((g.times - 1.0) / 0.3) ** 2)), np.sin(np.pi * x)))
        u = maxwell_1d_solve(zero, self.one(), self.one(), J, nu=1.0)
        assert np.all(np.isfinite(u.values))
        assert norm_nu(u) > 0

    def test_lossless_energy_conservation(self):
        # sigma = 0, constant eps = mu = 1: after the drive stops, the
        # discrete field energy stays flat to 2 percent
        dt = 2e-4
        g = TimeGrid(0.0, dt, int(1.0 / dt) + 1, 2.0)
        m_x = 50
        x = np.linspace(0, 1, m_x + 2)[1:-1]
        zero_sigma = Coefficient.scalar_profile(lambda t: 0.0, deriv=lambda t: 0.0)
        drive = np.where(g.times < 0.1, np.sin(np.pi * g.times / 0.1) ** 2, 0.0)
        J = Signal(g, np.outer(drive, np.sin(np.pi * x)))
        u = maxwell_1d_solve(self.one(), self.one(), zero_sigma, J, nu=2.0)
        energy = np.linalg.norm(u.values, axis=1)
        tail = energy[g.times >= 0.15]
        assert np.max(tail) / np.min(tail) <= 1.02

    def test_positivity_spot_check_failure(self):
        g = TimeGrid(0.0, 0.01, 301, 1.0)
        bad_mu = Coefficient.scalar_profile(lambda t: -1.0, deriv=lambda t: 0.0)
        with pytest.raises(ValueError):
            maxwell_1d_solve(self.one(), bad_mu, self.one(), Signal.zero(g, 8), nu=1.0)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_switching_dielectricity_matches_dense_elimination(self, seed):
        # eps(t) piecewise constant, switching at random nodes: a factor kept
        # past a switch would show against a fresh dense solve at every node
        rng = np.random.default_rng(seed)
        n, m_x, dt = 40, 6, 0.05
        g = TimeGrid(0.0, dt, n, 1.0)
        switches = np.sort(rng.choice(np.arange(1, n), size=rng.integers(1, 6), replace=False))
        levels = rng.choice([0.0, 0.5, 1.0, 2.0], size=len(switches) + 1)

        def eps_at(t):
            return levels[np.searchsorted(switches, np.rint(t / dt), side="right")]

        eps = Coefficient.scalar_profile(eps_at, deriv=lambda t: 0.0)
        J = Signal(g, rng.standard_normal((n, m_x)) + 1j * rng.standard_normal((n, m_x)))
        # positivity checked, norm bound not: the jumps of eps are not in its derivative
        F = np.zeros((n, 2 * m_x + 1), dtype=complex)
        F[:, :m_x] = J.values
        got = solve_evo_pde(PdeSystem.maxwell(eps, self.one(), self.one(), m_x), F, g)

        grad = staggered_grad0(m_x)
        u, h = np.zeros(m_x, complex), np.zeros(m_x + 1, complex)
        eps_prev = eps_at(-dt)
        for k, t in enumerate(g.times):
            e = eps_at(t)
            # mu = sigma = 1: the flux leg gives h_k = h_{k-1} - dt G u_k, so
            # (e/dt + 1 + dt G^T G) u_k = J_k + eps_prev u_{k-1}/dt + G^T h_{k-1}
            lhs = np.diag(np.full(m_x, e / dt + 1.0)) + dt * grad.T @ grad
            u = np.linalg.solve(lhs, J.values[k] + eps_prev * u / dt + grad.T @ h)
            h = h - dt * grad @ u
            ref = np.concatenate([u, h])
            assert np.linalg.norm(got[k] - ref) <= 1e-12 * max(np.linalg.norm(ref), 1.0)
            eps_prev = e


class TestFactorOnChange:
    """The grad-div stepper factors its u-leg matrix once when no leg varies
    in time and at every node otherwise.  The count is of matrices factored,
    not of calls: the inverses of a chunk of nodes come from one batched
    call, bands with the node axis last."""

    @pytest.fixture
    def factor_calls(self, monkeypatch):
        calls = []

        def counting(lower, diag, upper):
            calls.extend([1] * (np.shape(diag)[1] if np.ndim(diag) == 2 else 1))
            return _tridiag_factor(lower, diag, upper)

        monkeypatch.setattr(solvers, "_tridiag_factor", counting)
        return calls

    def drive(self, g, m_x):
        x = np.linspace(0, 1, m_x + 2)[1:-1]
        return Signal(g, np.outer(np.exp(-(((g.times - 0.5) / 0.2) ** 2)), np.sin(np.pi * x)))

    def test_heat_factors_once(self, factor_calls):
        g = TimeGrid(0.0, 0.01, 101, 1.0)
        heat_1d_solve(1.5 + np.cos(np.linspace(0, 3, 17)), self.drive(g, 16), nu=1.0)
        assert len(factor_calls) == 1

    @pytest.mark.parametrize("eps, factors", [
        (Coefficient.scalar_profile(lambda t: 0.0, deriv=lambda t: 0.0), 1),
        (Coefficient.scalar_profile(lambda t: 1.0 + 0.25 * np.cos(t),
                                    deriv=lambda t: -0.25 * np.sin(t)), 101),
    ], ids=["eps=0", "eps=1+cos/4"])
    def test_maxwell_factors_per_change(self, factor_calls, eps, factors):
        g = TimeGrid(0.0, 0.01, 101, 1.0)
        one = Coefficient.scalar_profile(lambda t: 1.0, deriv=lambda t: 0.0)
        maxwell_1d_solve(eps, one, one, self.drive(g, 16), nu=1.0)
        assert len(factor_calls) == factors


class TestInverseRoute:
    """Up to INVERSE_MAX the 1D steppers solve a real matrix with its cached
    explicit inverse: chosen by size and by realness, pinned to
    single-column solves, and built in chunks whose memory does not grow
    with n."""

    def one(self):
        return Coefficient.scalar_profile(lambda t: 1.0, deriv=lambda t: 0.0)

    def eps(self):
        return Coefficient.scalar_profile(lambda t: 1.0 + 0.25 * np.cos(t),
                                          deriv=lambda t: -0.25 * np.sin(t))

    @pytest.mark.parametrize("m_x, a, inverses", [
        (solvers.INVERSE_MAX, 1.5, 1), (solvers.INVERSE_MAX + 1, 1.5, 0),
        (16, 1.5 + 0.5j, 0),  # a complex matrix solves by cyclic reduction
    ], ids=["256-1", "257-0", "16-complex-0"])
    def test_route_chosen_by_size(self, monkeypatch, m_x, a, inverses):
        calls = []
        build = solvers._tridiag_inverses

        def counting(*bands):
            calls.append(1)
            return build(*bands)

        monkeypatch.setattr(solvers, "_tridiag_inverses", counting)
        g = TimeGrid(0.0, 0.01, 3, 1.0)
        heat_1d_solve(a + np.zeros(m_x + 1), Signal(g, np.ones((g.n, m_x))), nu=1.0)
        assert len(calls) == inverses

    @pytest.mark.parametrize("kind", ["heat", "wave", "maxwell"])
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=5, deadline=None)
    def test_batch_matches_single_solves(self, kind, seed):
        # complex conductivities (cyclic reduction) for heat and wave, a
        # real eps(t) factored at every node for Maxwell
        rng = np.random.default_rng(seed)
        g = TimeGrid(0.0, 0.01, 101, 1.0)
        m_x, K = 16, int(rng.integers(2, 8))
        xe = np.linspace(0.0, 1.0, m_x + 1)
        a = 1.5 + 0.5 * np.sin(2 * np.pi * xe) + 0.3j * rng.standard_normal(m_x + 1)
        if kind == "heat":
            sys_pde, single = PdeSystem.heat(a, nu=1.0), lambda f: heat_1d_solve(a, f, nu=1.0)
        elif kind == "wave":
            sys_pde, single = PdeSystem.wave(a, nu=1.0), lambda f: wave_1d_solve(a, f, nu=1.0)
        else:
            sys_pde = PdeSystem.maxwell(self.eps(), self.one(), self.one(), m_x)

            def single(f):
                return maxwell_1d_solve(self.eps(), self.one(), self.one(), f, nu=1.0)
        J = rng.standard_normal((g.n, m_x, K)) + 1j * rng.standard_normal((g.n, m_x, K))
        F = np.zeros((g.n, sys_pde.state_dim, K), dtype=complex)
        F[:, :m_x] = J
        batch = solvers.solve_evo_pde(sys_pde, F, g)
        assert batch.shape == F.shape
        for j in range(K):
            ref = single(Signal(g, J[:, :, j])).values
            assert np.linalg.norm(batch[..., j] - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_batch_checks_positivity(self):
        g = TimeGrid(0.0, 0.01, 11, 1.0)
        weak_mu = Coefficient.scalar_profile(lambda t: 0.5, deriv=lambda t: 0.0)
        sys_pde = PdeSystem.maxwell(self.one(), weak_mu, self.one(), 4)
        F = np.zeros((g.n, sys_pde.state_dim, 2), dtype=complex)
        with pytest.raises(ValueError, match="positivity"):
            solvers.solve_evo_pde(sys_pde, F, g)

    def test_inverse_cache_bounded_in_n(self):
        # every inverse of a time-varying m = 64 solve at once would take
        # 49 MB at n = 751 and 197 MB at n = 3001
        m_x = 64
        sys_pde = PdeSystem.maxwell(self.eps(), self.one(), self.one(), m_x)

        def peak(n):
            g = TimeGrid(0.0, 0.01, n, 1.0)
            rows = (np.ones((sys_pde.state_dim, 1), dtype=complex) for _ in range(n))
            tracemalloc.start()
            try:
                for _ in solvers._pde_steps(sys_pde, rows, g):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(751), peak(3001)
        assert small < 8 * 2**20
        assert large <= small + 2**18


class TestWeightFreeStepping:
    """No stepper reads the grid's weight: nu enters only the norms and the
    positivity certificate.  `eddy_current_experiment` steps each system
    once for all its weights on the strength of this, so a stepper that
    reads nu has to fail here rather than silently change eddy."""

    @staticmethod
    def equal_at_two_weights(stepper, sys, g, m):
        rng = np.random.default_rng(5)
        F = rng.standard_normal((g.n, m, 3)) + 1j * rng.standard_normal((g.n, m, 3))
        low, high = (np.array(list(stepper(sys, F, g.with_nu(nu)))) for nu in (1.0, 2.0))
        assert np.array_equal(low, high)

    @pytest.mark.parametrize("kind", ["skew", "heat", "maxwell", "wave"])
    def test_pde_states_equal_at_two_weights(self, kind):
        sys_pde, m = stepping_system(kind)
        g = TimeGrid(0.0, 0.01, 201, 1.0)
        self.equal_at_two_weights(solvers._pde_steps, sys_pde, g, m)

    def test_ode_block_states_equal_at_two_weights(self):
        sys, m = stepping_system("ode-block")
        self.equal_at_two_weights(solvers._pde_steps, sys, TimeGrid(0.0, 0.01, 201, 1.0), m)


def stepping_system(kind: str):
    """One system of each stepper, with its state size m.  Heat has a
    complex conductivity (cyclic reduction), Maxwell an eps(t) factored at
    every node."""
    m_x = 8
    xe = np.linspace(0.0, 1.0, m_x + 1)
    one = Coefficient.constant(1.0)
    eps = Coefficient.scalar_profile(lambda t: 1.0 + 0.25 * np.cos(t),
                                     deriv=lambda t: -0.25 * np.sin(t))
    if kind == "ode-block":
        rng = np.random.default_rng(2)
        C = Coefficient.constant
        sys = OdeBlockSystem(M=C(np.eye(2) + 0.3 * rand_skew(rng, 2), 1.0),
                             N00=C(rand_skew(rng, 2)), N01=C(rand_skew(rng, 2)),
                             N10=C(rand_skew(rng, 2)), N11=C(np.eye(2), 1.0), c=1.0)
        return sys, 4
    sys_pde = {
        "skew": PdeSystem.dense_small(
            Coefficient.constant(np.eye(2), 1.0), Coefficient.constant(0.2 * np.eye(2)),
            SpatialOperator.skew_matrix(rand_skew(np.random.default_rng(1), 2)), c=1.0),
        "heat": PdeSystem.heat(1.5 + 0.5 * np.sin(2 * np.pi * xe) + 0.3j * xe, nu=1.0),
        "maxwell": PdeSystem.maxwell(eps, one, one, m_x),
        "wave": PdeSystem.wave(2.0 + np.sin(2 * np.pi * xe), nu=1.0),
    }[kind]
    return sys_pde, sys_pde.state_dim


class TestDispatchStep:
    """`_dispatch_step` writes the states of `_pde_steps` node by node into
    one array that owns its memory: the bits of the stacked states."""

    @pytest.mark.parametrize("K", [None, 1, 3], ids=["single", "K1", "K3"])
    @pytest.mark.parametrize("kind", ["skew", "heat", "maxwell", "wave", "ode-block"])
    def test_matches_stacked_states(self, kind, K):
        sys, m = stepping_system(kind)
        g = TimeGrid(0.0, 0.01, 201, 1.0)
        rng = np.random.default_rng(9)
        F = rng.standard_normal((g.n, m, K or 1)) + 1j * rng.standard_normal((g.n, m, K or 1))
        ref = np.array(list(solvers._pde_steps(sys, F, g)))
        if K is None:  # one solve: F and the states are (n, m)
            F, ref = F[:, :, 0], ref[:, :, 0]
        states = solvers._dispatch_step(sys, F, g)
        assert np.array_equal(states, ref)
        assert states.shape == F.shape
        assert states.flags.owndata and states.flags.c_contiguous


class TestLegCoefficients:
    """Every 1D leg is a Coefficient, sampled once per solve."""

    def one(self):
        return Coefficient.scalar_profile(lambda t: 1.0, deriv=lambda t: 0.0)

    @pytest.mark.parametrize("build", [
        lambda a: Coefficient.space_profile(a).diagonal,
        lambda a: PdeSystem.heat(a, nu=1.0),
        lambda a: PdeSystem.wave(a, nu=1.0),
    ], ids=["space_profile", "heat", "wave"])
    def test_space_profile_legs_stay_linear_in_m(self, build):
        # a dense (2049, 2049) complex diagonal alone would be 64 MB
        a = np.ones(2049)
        tracemalloc.start()
        try:
            build(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_constant_leg_sampled_independent_of_n(self):
        calls = []

        def sampler(t):
            calls.append(t)
            return np.eye(1)

        mu = Coefficient(dim=1, sampler=sampler, deriv_sampler=lambda t: np.zeros((1, 1)))
        counts = []
        for n in (51, 501):
            calls.clear()
            maxwell_1d_solve(self.one(), mu, self.one(),
                             Signal.zero(TimeGrid(0.0, 0.01, n, 1.0), 4), nu=1.0)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_matrix_leg_rejected(self):
        g = TimeGrid(0.0, 0.01, 21, 1.0)
        with pytest.raises(ValueError, match="dim-1"):
            maxwell_1d_solve(Coefficient.constant(np.eye(2)), self.one(), self.one(),
                             Signal.zero(g, 4), nu=1.0)

    def test_time_profile_without_derivative_rejected(self):
        g = TimeGrid(0.0, 0.01, 21, 1.0)
        eps = Coefficient.scalar_profile(lambda t: 1.0 + 0.25 * np.cos(t))
        with pytest.raises(ValueError, match="derivative"):
            maxwell_1d_solve(eps, self.one(), self.one(), Signal.zero(g, 4), nu=1.0)

    @pytest.mark.parametrize("margin, fails", [(-1e-6, False), (1e-6, True)])
    def test_time_series_meets_space_profile(self, margin, fails):
        # m1(t) a time profile, n1 a space profile: the check works through
        # the two minima and must agree with the full (n, m) minimum
        g = TimeGrid(0.0, 0.01, 301, 1.0)
        m_x = 8
        mu = Coefficient.scalar_profile(lambda t: 1.0 + 0.5 * np.sin(3 * t),
                                        deriv=lambda t: 1.5 * np.cos(3 * t))
        n1 = 0.3 + 0.2 * np.cos(np.linspace(0.0, 3.0, m_x + 1))
        damped = 1.0 + 0.5 * np.sin(3 * g.times) + 0.75 * np.cos(3 * g.times)
        low = np.min(damped[:, None] + n1[None, :])
        sys = PdeSystem(A=SpatialOperator.grad0_div_1d(m_x), c=low + margin, legs=(
            Coefficient.constant(1.0), mu, Coefficient.constant(1.0),
            Coefficient.space_profile(n1)))
        if fails:
            with pytest.raises(ValueError, match="leg 1 positivity"):
                solvers._pde_check(sys, g)
        else:
            solvers._pde_check(sys, g)

    def test_positivity_checked_at_every_node(self):
        # mu dips below c at a single node that a spot check could skip
        g = TimeGrid(0.0, 0.01, 301, 1.0)
        mu = Coefficient.scalar_profile(lambda t: np.where(abs(t - 1.37) < 1e-9, 0.5, 1.0),
                                        deriv=lambda t: 0.0)
        with pytest.raises(ValueError, match="positivity"):
            maxwell_1d_solve(self.one(), mu, self.one(), Signal.zero(g, 4), nu=1.0)


class TestElliptic:
    def test_eigenfunction_oracle(self):
        m_x = 200
        x = np.linspace(0, 1, m_x + 2)[1:-1]
        u = elliptic_solve(np.ones(m_x + 1), np.sin(np.pi * x))
        dx = 1.0 / (m_x + 1)
        assert np.max(np.abs(u - np.sin(np.pi * x) / np.pi**2)) <= 4 * dx**2

    def test_zero_source(self):
        u = elliptic_solve(np.ones(65), np.zeros(64))
        assert np.all(u == 0)

    def test_interface_flux_continuity(self):
        # piecewise coefficient {1, 4}: the flux a u' is sigma0 - x, so the
        # combination flux + x is constant across the interface
        m_x = 200
        xe = np.linspace(0, 1, m_x + 1)
        a = np.where(xe < 0.5, 1.0, 4.0)
        u = elliptic_solve(a, np.ones(m_x))
        flux = a * (staggered_grad0(m_x) @ u)
        dx = 1.0 / (m_x + 1)
        assert np.max(np.abs(np.diff(flux.real + xe))) <= 5 * dx

    def test_nonpositive_coefficient_rejected(self):
        with pytest.raises(ValueError):
            elliptic_solve(np.zeros(11), np.ones(10))

    @given(m_x=st.integers(1, 200), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_solve(self, m_x, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.1, 10.0, m_x + 1) + 1j * rng.uniform(-10.0, 10.0, m_x + 1)
        f = rng.standard_normal(m_x) + 1j * rng.standard_normal(m_x)
        g = staggered_grad0(m_x)
        ref = np.linalg.solve(g.T @ np.diag(a) @ g, f)
        assert np.linalg.norm(elliptic_solve(a, f) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_high_contrast_matches_exact_solution(self):
        # coefficients drawn from {0.1, 10} at random: a dense LU solve
        # of G^T a G is off by up to about 1e-11 here, so the reference is
        # the exact rational solution of the same three-point system
        m_x = 160
        rng = np.random.default_rng(4)
        a = rng.choice([0.1, 10.0], m_x + 1)
        f = rng.standard_normal(m_x)
        dx_inv2 = Fraction(1.0 / (1.0 / (m_x + 1))) ** 2
        a_q, f_q = [Fraction(v) for v in a], [Fraction(v) for v in f]
        diag = [(a_q[i] + a_q[i + 1]) * dx_inv2 for i in range(m_x)]
        off = [-a_q[i + 1] * dx_inv2 for i in range(m_x - 1)]
        # the list kernel is generic: in Fractions it is exact, then rounded
        ref = _tridiag_solve(_tridiag_factor(off, diag, off), f_q)
        assert np.linalg.norm(elliptic_solve(a, f) - ref) <= 1e-12 * np.linalg.norm(ref)


class TestMatrixFreeGradient:
    """No solver builds the dense staggered gradient."""

    @pytest.mark.parametrize("solve, m_x, limit", [
        (lambda a, f: elliptic_solve(a, f.values[0]), 1024, 2**20),
        (lambda a, f: heat_1d_solve(a, f, nu=1.0), 2048, 4 * 2**20),
        (lambda a, f: wave_1d_solve(a, f, nu=1.0), 2048, 4 * 2**20),
    ], ids=["elliptic", "heat", "wave"])
    def test_memory_linear_in_m(self, solve, m_x, limit):
        # a dense (m+1, m) gradient alone is 33.6 MB at m = 2048
        g = TimeGrid(0.0, 0.01, 5, 1.0)
        xi = np.linspace(0.0, 1.0, m_x + 2)[1:-1]
        f = Signal(g, np.outer(np.ones(g.n), np.sin(np.pi * xi)))
        a = 1.5 + np.cos(np.linspace(0.0, 3.0, m_x + 1))
        tracemalloc.start()
        try:
            solve(a, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


class TestWaveSolve:
    def test_flux_is_mean_zero(self):
        g = TimeGrid(0.0, 0.01, 301, 1.0)
        m_x = 32
        xi = np.linspace(0, 1, m_x + 2)[1:-1]
        F = Signal(g, np.outer(np.exp(-(((g.times - 1.0) / 0.3) ** 2)), np.sin(np.pi * xi)))
        u = wave_1d_solve(2.0 + np.sin(2 * np.pi * np.linspace(0, 1, m_x + 1)), F, nu=1.0)
        p = u.values[:, m_x:]
        assert np.max(np.abs(p.mean(axis=1))) <= 1e-12 * max(np.max(np.abs(p)), 1.0)

    def test_peak_memory_in_state_arrays(self):
        # the zero-padded drive and the states should be the only (n, state)
        # arrays alive at once: 2.05 state arrays measured, 3.51 with private
        # Signal copies and one-pass norm temporaries; a copy of f alone,
        # half a state array alive throughout, crosses the bound
        m_x, n = 1024, 301
        g = TimeGrid(0.0, 0.01, n, 1.0)
        f = Signal(g, np.random.default_rng(3).standard_normal((n, m_x)))
        a = np.linspace(1.0, 2.0, m_x + 1)
        state_bytes = n * (2 * m_x + 1) * 16
        tracemalloc.start()
        try:
            wave_1d_solve(a, f, nu=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * state_bytes


class TestForwardMap:
    """`evo_pde_forward` inverts the solution map, and the 1D wrappers are
    the solution map of the system they build."""

    M_X = 12

    def systems(self):
        xe = np.linspace(0.0, 1.0, self.M_X + 1)
        eps = Coefficient.scalar_profile(lambda t: 1.0 + 0.25 * np.cos(t),
                                         deriv=lambda t: -0.25 * np.sin(t))
        one = Coefficient.constant(1.0)
        M = Coefficient.scalar_profile(lambda t: 1.0 + 0.3 * np.sin(t), dim=3,
                                       deriv=lambda t: 0.3 * np.cos(t))
        return {
            "heat": PdeSystem.heat(1.0 + 0.5 * np.sin(2 * np.pi * xe), nu=1.0),
            "maxwell": PdeSystem.maxwell(eps, one, one, self.M_X),
            "maxwell-eps0": PdeSystem.maxwell(Coefficient.constant(0.0), one, one, self.M_X),
            "skew": PdeSystem.dense_small(
                M, Coefficient.constant(0.2 * np.eye(3)),
                SpatialOperator.skew_matrix(rand_skew(np.random.default_rng(2), 3)), c=0.5),
        }

    @pytest.mark.parametrize("kind", ["heat", "maxwell", "maxwell-eps0", "skew"])
    def test_inverts_the_solution_map(self, kind):
        sys_pde = self.systems()[kind]
        g = TimeGrid(0.0, 0.01, 301, 1.0)
        rng = np.random.default_rng(7)
        shape = (g.n, sys_pde.state_dim)
        f = Signal(g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        u = Signal(g, solve_evo_pde(sys_pde, f.values, g))
        back = evo_pde_forward(sys_pde, u)
        assert np.linalg.norm(back.values - f.values) <= 1e-12 * np.linalg.norm(f.values)

    def test_wave_kind_rejected(self):
        g = TimeGrid(0.0, 0.01, 11, 1.0)
        sys_pde = PdeSystem.wave(np.full(self.M_X + 1, 2.0), nu=1.0)
        with pytest.raises(ValueError, match="no forward operator"):
            evo_pde_forward(sys_pde, Signal.zero(g, sys_pde.state_dim))

    def test_1d_wrappers_are_the_solution_map(self):
        g = TimeGrid(0.0, 0.01, 201, 1.0)
        nu = 1.5
        a = 1.5 + np.cos(np.linspace(0.0, 3.0, self.M_X + 1))
        J = Signal(g, np.random.default_rng(8).standard_normal((g.n, self.M_X)))
        eps = Coefficient.scalar_profile(lambda t: 1.0 + 0.25 * np.cos(t),
                                         deriv=lambda t: -0.25 * np.sin(t))
        one = Coefficient.constant(1.0)
        cases = [
            (heat_1d_solve(a, J, nu), PdeSystem.heat(a, nu=nu)),
            (wave_1d_solve(a, J, nu), PdeSystem.wave(a, nu=nu)),
            (maxwell_1d_solve(eps, one, one, J, nu), PdeSystem.maxwell(eps, one, one, self.M_X)),
        ]
        F = np.zeros((g.n, 2 * self.M_X + 1), dtype=complex)
        F[:, :self.M_X] = J.values
        for u, sys_pde in cases:
            ref = solve_evo_pde(sys_pde, F, g.with_nu(nu))
            assert np.array_equal(u.values, ref)


def _nan_at(values, k):
    out = np.array(values, dtype=complex)
    out[k] = np.nan
    return out


def _fail_closed_cases():
    g = TimeGrid(0.0, 0.01, 201, 1.0)
    m_x = 16
    xe = np.linspace(0.0, 1.0, m_x + 1)
    xi = np.linspace(0.0, 1.0, m_x + 2)[1:-1]
    drive = Signal(g, np.outer(np.exp(-(((g.times - 0.5) / 0.2) ** 2)), np.sin(np.pi * xi)))
    relax = OdeBlockSystem(M=Coefficient.constant([[1.0]], 1.0),
                           N00=Coefficient.constant([[0.5]]), c=1.0)
    pulse = np.exp(-(((g.times - 0.5) / 0.2) ** 2))[:, None]
    nan_op = CausalOp(grid=g, action=lambda f: Signal(g, f.values * np.nan))
    return {
        "heat": (lambda: heat_1d_solve(_nan_at(1.0 + 0.5 * np.sin(2 * np.pi * xe), 5), drive, nu=1.0),
                 "conductivity must have positive real part"),
        "wave": (lambda: wave_1d_solve(_nan_at(2.0 + np.sin(2 * np.pi * xe), 5), drive, nu=1.0),
                 "wave coefficient must have positive real part"),
        "elliptic": (lambda: elliptic_solve(_nan_at(2.0 + np.sin(2 * np.pi * xe), 5), np.ones(m_x)),
                     "coefficient not uniformly positive"),
        "ode-block": (lambda: solve_ode_block(relax, Signal(g, _nan_at(pulse, 40))),
                      "route disagreement"),
        "transfer": (lambda: transfer_function(nan_op, [1.0]), "causality defect"),
        "space-profile": (lambda: Coefficient.space_profile(_nan_at(np.ones(m_x), 3)),
                          "non-finite value at cell 3"),
    }


@pytest.mark.parametrize("case", sorted(_fail_closed_cases()))
def test_certificates_fail_closed_on_nan(case):
    # each certificate is the condition that must hold, so a NaN fails it
    call, match = _fail_closed_cases()[case]
    with pytest.raises(ValueError, match=match):
        call()
