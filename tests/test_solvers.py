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
    evo_pde_solution_map,
    funid_residual,
    heat_1d_solve,
    maxwell_1d_solve,
    picard_solve,
    solve_evo_pde,
    solve_ode_block,
    staggered_grad0,
    wave_1d_solve,
)
from evocalc import solvers
from evocalc.solvers import _tridiag_factor, _tridiag_solve


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

    def test_assembled_kinds_are_skew(self):
        for op in (
            SpatialOperator.grad0_div_1d(12),
            SpatialOperator.grad0_div_1d_projected(12),
            SpatialOperator.grad0_div_1d_projected(16),
            SpatialOperator.grad0_div_1d_projected(64),
            SpatialOperator.skew_matrix(np.array([[0.0, -2.0], [2.0, 0.0]])),
        ):
            a = op.dense()
            assert np.array_equal(a, -a.conj().T)

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


class TestOdeBlock:
    def test_reduces_to_antiderivative(self):
        g = TimeGrid(0.0, 0.01, 1001, 2.0)
        sys0 = OdeBlockSystem(M=Coefficient.constant([[1.0]], 1.0),
                              N00=Coefficient.constant([[0.0]]), c=1.0)
        rng = np.random.default_rng(0)
        F = Signal(g, rng.standard_normal(g.n))
        u = solve_ode_block(sys0, F, nu=2.0)
        np.testing.assert_allclose(u.values, antiderivative(F).values,
                                   rtol=0, atol=1e-10)

    def test_scalar_relaxation_oracle(self):
        g = TimeGrid(0.0, 0.01, 3001, 2.5)
        sys1 = OdeBlockSystem(M=Coefficient.constant([[1.0]], 1.0),
                              N00=Coefficient.constant([[1.0]]), c=1.0)
        u = solve_ode_block(sys1, Signal.indicator(g, 0.0, 1e9), nu=2.5)
        oracle = 1.0 - np.exp(-g.times)
        assert np.max(np.abs(u.values[:, 0] - oracle)) <= 2 * g.dt

    def test_contraction_condition_enforced(self):
        g = TimeGrid(0.0, 0.01, 201, 0.5)
        sys1 = OdeBlockSystem(M=Coefficient.constant([[1.0]], 1.0),
                              N00=Coefficient.constant([[1.0]]), c=1.0)
        with pytest.raises(ValueError):
            solve_ode_block(sys1, Signal.zero(g), nu=0.5)

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
        # the call itself asserts the two-route agreement at tol
        solve_ode_block(sysb, F, nu=20.0, tol=1e-6)

    def test_block_norms_match_nodewise_norms(self):
        g = TimeGrid(0.0, 0.05, 41, 1.0)
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        N00 = Coefficient(dim=2, sampler=lambda t: np.eye(2) + np.sin(t) * skew)
        N01 = Coefficient.constant([[1.0, 2.0], [0.0, -1.0]])
        sysb = OdeBlockSystem(M=Coefficient.constant(np.eye(2), 1.0), N00=N00, N01=N01,
                              N10=N01, N11=Coefficient.constant(np.eye(2), 1.0), c=1.0)
        norms = sysb.block_norms(g)
        for name, coef in (("N00", N00), ("N01", N01)):
            mats = coef.sample_all(g)
            assert norms[name] == max(np.linalg.norm(mats[k], 2) for k in range(g.n))


class TestPicard:
    def test_pure_quadrature(self):
        g = TimeGrid(0.0, 0.01, 1001, 1.0)
        f = Signal.indicator(g, 0.0, 1.0)
        u = picard_solve(lambda v: 0.0 * v, lip=1.0, f=f, tol=1e-12)
        expected = np.clip(g.times, 0.0, 1.0)
        assert np.max(np.abs(u.values[:, 0] - expected)) <= 1.5 * g.dt

    def test_linear_decay_oracle(self):
        # window with lip * t_end moderate: nodal values are then converged
        g = TimeGrid(0.0, 0.01, 501, 1.0)
        f = Signal(g, np.ones(g.n))
        u = picard_solve(lambda v: -v, lip=1.0, f=f, tol=1e-12)
        oracle = 1.0 - np.exp(-g.times)
        assert np.max(np.abs(u.values[:, 0] - oracle)) <= 2 * g.dt

    def test_nonlinear_vs_rk4(self):
        dt = 1e-3
        g = TimeGrid(0.0, dt, 2001, 1.0)
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
        rel = norm_nu(Signal(g, u.values) - ref_sig, nu=2.0) / norm_nu(ref_sig, nu=2.0)
        assert rel <= 1e-3

    def test_rejects_nonpositive_lipschitz(self):
        g = TimeGrid(0.0, 0.01, 101, 1.0)
        with pytest.raises(ValueError):
            picard_solve(np.sin, lip=0.0, f=Signal.zero(g))


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
        u = solve_evo_pde(sys_pde, f, nu=2.5)
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
        u = solve_evo_pde(sys_pde, f, nu=1.0)
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
        u = solve_evo_pde(sys_pde, f, nu=1.0)
        assert norm_nu(u) <= (1.0 / 2.0) * norm_nu(f) * 1.05


class TestPdeChecks:
    """The positivity certificate and the spot causality check of
    `solve_evo_pde`."""

    def test_skew_positivity_checked_at_every_node(self):
        # M dips below c at a single node that a spot check could skip
        g = TimeGrid(0.0, 0.01, 301, 1.0)
        M = Coefficient.scalar_profile(lambda t: 0.2 if abs(t - 1.37) < 1e-9 else 1.0,
                                       deriv=lambda t: 0.0)
        sys_pde = PdeSystem.dense_small(M, Coefficient.constant([[0.0]]),
                                        SpatialOperator.skew_matrix([[0.0]]), c=0.9)
        f = Signal(g, np.exp(-(((g.times - 1.0) / 0.5) ** 2)))
        with pytest.raises(ValueError, match="positivity certificate fails at t=1.37"):
            solve_evo_pde(sys_pde, f, nu=1.0)

    @staticmethod
    def leaking(steps):
        """A stepper that adds the next node's input to every state."""
        def leaky(sys, rows, grid):
            rows = np.asarray(rows)
            for k, u in enumerate(steps(sys, rows, grid)):
                yield u + rows[min(k + 1, len(rows) - 1)]
        return leaky

    def systems(self):
        m_x = 8
        heat = PdeSystem.heat(1.5 + np.cos(np.linspace(0.0, 3.0, m_x + 1)))
        skew = PdeSystem.dense_small(
            Coefficient.constant(np.eye(2), 1.0), Coefficient.constant(0.2 * np.eye(2)),
            SpatialOperator.skew_matrix(rand_skew(np.random.default_rng(3), 2)), c=1.0)
        return [heat, skew]

    def drive(self, g, dim):
        return Signal(g, np.outer(np.exp(-(((g.times - 1.0) / 0.6) ** 2)), np.ones(dim)))

    def test_causal_systems_pass_and_return_the_single_solve(self):
        g = TimeGrid(0.0, 0.01, 201, 1.0)
        for sys_pde in self.systems():
            f = self.drive(g, sys_pde.state_dim)
            u = solve_evo_pde(sys_pde, f, nu=1.0)
            assert np.array_equal(u.values, solvers._dispatch_step(sys_pde, f.values, g))

    def test_leaking_stepper_is_caught(self, monkeypatch):
        g = TimeGrid(0.0, 0.01, 201, 1.0)
        monkeypatch.setattr(solvers, "_pde_steps", self.leaking(solvers._pde_steps))
        for sys_pde in self.systems():
            with pytest.raises(ValueError, match="causality defect"):
                solve_evo_pde(sys_pde, self.drive(g, sys_pde.state_dim), nu=1.0,
                              check_norm=False)


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
        assert funid_residual(M, N, M, N, A, self.probe(g), nu=1.0, c=0.5) <= 1e-12

    def test_scalar_pair(self):
        g = self.grid()
        A0 = SpatialOperator.skew_matrix(np.zeros((1, 1)))
        f = Signal(g, np.exp(-(((g.times - 2.0) / 0.5) ** 2)))
        r = funid_residual(
            Coefficient.constant([[1.0]]), Coefficient.constant([[0.0]]),
            Coefficient.constant([[2.0]]), Coefficient.constant([[0.0]]),
            A0, f, nu=1.0, c=0.9,
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
            assert funid_residual(M, N, O, P, A, f, nu=1.0, c=0.5) <= 1e-6


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
        u = maxwell_1d_solve(self.one(), self.one(), zero_sigma, J, nu=2.0, c=1.0)
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
            return levels[np.searchsorted(switches, int(round(t / dt)), side="right")]

        eps = Coefficient.scalar_profile(eps_at, deriv=lambda t: 0.0)
        J = Signal(g, rng.standard_normal((n, m_x)) + 1j * rng.standard_normal((n, m_x)))
        got = maxwell_1d_solve(eps, self.one(), self.one(), J, nu=1.0, check=False).values

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
    """The grad-div stepper refactors only when a leg profile changes."""

    @pytest.fixture
    def factor_calls(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return _tridiag_factor(*args)

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


class TestLegCoefficients:
    """Every 1D leg is a Coefficient, sampled once per solve by its kind."""

    def one(self):
        return Coefficient.scalar_profile(lambda t: 1.0, deriv=lambda t: 0.0)

    @pytest.mark.parametrize("build", [
        lambda a: Coefficient.space_profile(a).diagonal_values(),
        lambda a: PdeSystem.heat(a),
        lambda a: PdeSystem.wave(a),
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

        mu = Coefficient(dim=1, sampler=sampler, kind="constant-matrix",
                         deriv_sampler=lambda t: np.zeros((1, 1)))
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
                solvers._pde_check(sys, g, g.nu)
        else:
            solvers._pde_check(sys, g, g.nu)

    def test_positivity_checked_at_every_node(self):
        # mu dips below c at a single node that a spot check could skip
        g = TimeGrid(0.0, 0.01, 301, 1.0)
        mu = Coefficient.scalar_profile(lambda t: 0.5 if abs(t - 1.37) < 1e-9 else 1.0,
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

    def test_space_profile_coefficient_accepted(self):
        m_x = 40
        x = np.linspace(0, 1, m_x + 2)[1:-1]
        a = Coefficient.space_profile(np.ones(m_x + 1), pos_const=1.0)
        u = elliptic_solve(a, np.sin(np.pi * x))
        dx = 1.0 / (m_x + 1)
        assert np.max(np.abs(u - np.sin(np.pi * x) / np.pi**2)) <= 6 * dx**2


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
            "heat": PdeSystem.heat(1.0 + 0.5 * np.sin(2 * np.pi * xe)),
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
        back = evo_pde_forward(sys_pde, evo_pde_solution_map(sys_pde, g)(f))
        assert np.linalg.norm(back.values - f.values) <= 1e-12 * np.linalg.norm(f.values)

    def test_wave_kind_rejected(self):
        g = TimeGrid(0.0, 0.01, 11, 1.0)
        sys_pde = PdeSystem.wave(np.full(self.M_X + 1, 2.0))
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
            ref = evo_pde_solution_map(sys_pde, g.with_nu(nu))(Signal(g, F))
            assert np.array_equal(u.values, ref.values)
