"""Topology diagnostics, mean-limit theorems, and the experiment reports."""

import csv

import numpy as np
import pytest

from evocalc.signals import (
    Coefficient, GridMismatchError, Signal, TimeGrid, inner_nu, norm_nu, truncate_before,
)
from evocalc.timecalc import antiderivative
from evocalc.operators import CausalOp, ProbeSet
from evocalc import homogenization
from evocalc.experiments import DEFAULTS, RUNNERS
from evocalc.homogenization import (
    ConvergenceReport,
    _probe_errors,
    arithmetic_mean,
    bessel_i0,
    dbf_experiment,
    eddy_current_experiment,
    harmonic_mean,
    memory_kernel_experiment,
    ode_weak_limit_equation,
    product_mean_limit,
    strong_error,
    wave_g_convergence_experiment,
    weak_pairing_error,
)


def ref_grid(nu=1.0):
    return TimeGrid(0.0, 0.01, 3001, nu)


def matrix_op(g, matrix):
    """A constant matrix acting nodewise."""
    m = np.atleast_2d(np.asarray(matrix, dtype=complex))
    return CausalOp(grid=g, action=lambda f: Signal(f.grid, f.values @ m.T),
                    dim_in=m.shape[1], dim_out=m.shape[0])


def sin_mult(grid, n):
    diag = np.sin(2 * np.pi * n * grid.times)
    return lambda f: Signal(f.grid, f.values * diag[:, None])


def zero_op(grid):
    return lambda f: Signal.zero(f.grid, f.dim)


class TestTopologyDiagnostics:
    def test_identical_operators(self):
        g = ref_grid()
        probes = ProbeSet(g, seed=1)
        S = sin_mult(g, 8)
        assert weak_pairing_error(S, S, probes) == 0.0
        assert strong_error(S, S, probes) == 0.0

    def test_topologies_separate_on_oscillation(self):
        # multiplication by sin(2 pi n t): weak pairing vanishes with n while
        # the strong error locks at 1/sqrt(2)
        g = ref_grid()
        probes = ProbeSet(g, seed=42)
        weak = weak_pairing_error(sin_mult(g, 64), zero_op(g), probes)
        strong = strong_error(sin_mult(g, 64), zero_op(g), probes)
        assert weak <= 0.02
        assert strong == pytest.approx(1 / np.sqrt(2), rel=0.1)
        # the joint pass of `product_mean_limit` gives both, bit for bit
        assert _probe_errors(sin_mult(g, 64), zero_op(g), probes) == (weak, strong)

    def test_mean_shift_matches_oscillation_decay(self):
        # 2 + sin oscillation against the constant 2: same decay as pure sin
        g = ref_grid()
        probes = ProbeSet(g, seed=3)
        diag = 2.0 + np.sin(2 * np.pi * 64 * g.times)
        osc = lambda f: Signal(f.grid, f.values * diag[:, None])
        const = lambda f: 2.0 * f
        assert weak_pairing_error(osc, const, probes) <= 0.02

    def test_reweighting_leaves_verdicts_invariant(self):
        for nu in (1.0, 2.0):
            g = ref_grid(nu)
            val = weak_pairing_error(sin_mult(g, 64), zero_op(g), ProbeSet(g, seed=4))
            assert val <= 0.02  # the pairing verdict agrees at both weights

    def test_ordering_chain(self):
        # the norm column dominates the strong one by construction in
        # `product_mean_limit`, which runs `assert_topology_ordering`
        g = ref_grid()
        probes = ProbeSet(g, seed=5)
        S, Z = sin_mult(g, 16), zero_op(g)
        w = weak_pairing_error(S, Z, probes)
        s = strong_error(S, Z, probes)
        assert w <= s * (1 + 1e-9)

    def test_difference_of_another_dim_raises(self):
        # a pairing of a dim-2 difference with the dim-1 probes has no value;
        # skipping such pairs would read as a weak error of 0.0
        g = ref_grid()
        with pytest.raises(GridMismatchError, match="dims differ"):
            _probe_errors(matrix_op(g, [[1.0], [2.0]]), matrix_op(g, [[0.0], [0.0]]),
                          ProbeSet(g, seed=1))

    def test_nan_difference_reaches_both_errors(self):
        g = ref_grid()
        nan_op = lambda f: Signal(f.grid, f.values * np.nan)
        weak, strong = _probe_errors(nan_op, zero_op(g), ProbeSet(g, seed=1))
        assert np.isnan(weak) and np.isnan(strong)


class TestOracles:
    def test_bessel_series_spot_value(self):
        assert float(bessel_i0(np.array(1.0))) == pytest.approx(1.2660658777520084, abs=1e-12)

    def test_bessel_matches_oscillation_average(self):
        # quadrature of exp(-t sin(2 pi y)) over one period reproduces the
        # kernel the series produces
        y = (np.arange(8192) + 0.5) / 8192
        for t in (0.5, 1.0, 2.0):
            quad = np.mean(np.exp(-t * np.sin(2 * np.pi * y)))
            assert float(bessel_i0(np.array(t))) == pytest.approx(quad, rel=1e-10)

    def test_harmonic_mean_of_two_plus_sin(self):
        hm = harmonic_mean(lambda y: 2.0 + np.sin(2 * np.pi * y))
        assert complex(hm).real == pytest.approx(np.sqrt(3.0), abs=1e-12)

    def test_arithmetic_mean(self):
        am = arithmetic_mean(lambda y: 2.0 + np.sin(2 * np.pi * y))
        assert complex(am).real == pytest.approx(2.0, abs=1e-12)


class TestProductMeanLimit:
    def test_single_profile_mean(self):
        rep = product_mean_limit(
            [lambda y: 2.0 + np.sin(2 * np.pi * np.asarray(y))], [16, 32, 64], nu=1.0, seed=42,
        )
        assert rep.metadata["mean_product"] == pytest.approx(2.0, abs=1e-12)
        assert rep.verdict

    def test_two_sines_vanish(self):
        profile = lambda y: np.sin(2 * np.pi * np.asarray(y))
        rep = product_mean_limit([profile, profile], [8, 16, 32, 64], nu=1.0, seed=42)
        assert rep.rows[-1]["pairing_error"] <= 0.02
        assert rep.slope() <= -0.5
        assert rep.verdict

    def test_unit_mean_product(self):
        a1 = lambda y: 1.0 + 0.5 * np.sin(2 * np.pi * np.asarray(y))
        a2 = lambda y: 1.0 + 0.5 * np.cos(2 * np.pi * np.asarray(y))
        rep = product_mean_limit([a1, a2], [16, 64], nu=1.0, seed=42)
        assert rep.metadata["mean_product"] == pytest.approx(1.0, abs=1e-12)
        assert rep.rows[-1]["pairing_error"] <= 0.02

    def test_timprod_evaluates_each_probe_once_per_scale(self, monkeypatch):
        # 4 scales, 10 base and 14 enriched probes; each difference
        # (S_n - S_lim) phi takes one antiderivative in the chain and one in
        # the limit.  Evaluating the base probes for the weak and the strong
        # error apart made it 34 differences per scale, 272 calls.
        calls = 0

        def counted(f):
            nonlocal calls
            calls += 1
            return antiderivative(f)

        monkeypatch.setattr(homogenization, "antiderivative", counted)
        RUNNERS["timprod"](dict(DEFAULTS["timprod"]))
        assert calls == 4 * (10 + 14) * 2


class TestWeakLimitEquation:
    def grid(self):
        return TimeGrid(0.0, 0.01, 1001, 2.0)

    def test_no_perturbation_gives_o_inverse(self):
        g = self.grid()
        O_inv = matrix_op(g, [[2.0]])
        probes = ProbeSet(g, seed=6)
        M_inf = ode_weak_limit_equation(O_inv, [], theta=0.1, c=0.5, probes=probes)
        f = list(probes)[3]
        np.testing.assert_allclose(M_inf(f).values, 2.0 * f.values, atol=1e-12)

    def test_scalar_geometric_series(self):
        # single constant block: the double series collapses to 2/(1+2p)
        g = self.grid()
        p = 0.1
        O_inv = matrix_op(g, [[2.0]])
        P1 = matrix_op(g, [[p]])
        probes = ProbeSet(g, seed=7)
        M_inf = ode_weak_limit_equation(O_inv, [P1], theta=0.15, c=0.5,
                                        probes=probes, tol=1e-12)
        f = list(probes)[4]
        exact = 2.0 / (1.0 + 2.0 * p)
        assert norm_nu(M_inf(f) - exact * f) / norm_nu(f) <= 1e-10

    def test_dbf_telescoping(self):
        # blocks (-O J N)^k O reproduce M_inf = O^-1 + J N
        g = self.grid()
        o_mat = np.diag([1 / np.sqrt(3.0), 1 / np.sqrt(3.0)])
        n_mat = np.array([[0.0, -1.0], [1.0, 0.0]])

        def p_block(k):
            def act(f):
                out = f
                for _ in range(k):
                    out = Signal(g, antiderivative(out).values @ (o_mat @ n_mat).T)
                    out = -1.0 * out
                return Signal(g, out.values @ o_mat.T)
            return CausalOp(grid=g, action=act, dim_in=2, dim_out=2)

        O_inv = matrix_op(g, np.linalg.inv(o_mat))
        probes = ProbeSet(g, dim=2, seed=8)
        M_inf = ode_weak_limit_equation(O_inv, [p_block(k) for k in range(1, 17)],
                                        theta=0.15, c=0.5, probes=probes, tol=1e-12)
        for f in list(probes)[3:6]:
            expected = Signal(g, f.values @ np.linalg.inv(o_mat).T) \
                + Signal(g, antiderivative(f).values @ n_mat.T)
            rel = norm_nu(M_inf(f) - expected) / max(norm_nu(expected), 1e-30)
            assert rel <= 1e-8

    def test_degraded_accretivity_constant(self):
        # uniformly accretive inputs with constant c: the assembled limit
        # keeps Re <Q_t M phi, phi> >= (1-c) c/(2-c) <Q_t phi, phi>
        g = self.grid()
        c = 0.5
        O_inv = matrix_op(g, [[c + 0.2j]])  # Re = c, accretive
        P1 = matrix_op(g, [[0.05]])
        probes = ProbeSet(g, seed=9)
        M_inf = ode_weak_limit_equation(O_inv, [P1], theta=0.1, c=c,
                                        probes=probes, tol=1e-12)
        c_degraded = (1 - c) * c / (2 - c)
        for phi in list(probes)[:4]:
            t_cut = g.t0 + 0.5 * (g.t_end - g.t0)
            lhs = inner_nu(truncate_before(M_inf(phi), t_cut),
                           truncate_before(phi, t_cut)).real
            rhs = c_degraded * norm_nu(truncate_before(phi, t_cut)) ** 2
            assert lhs >= rhs - 1e-10

    def test_commuting_variant_splits_m_and_n(self):
        g = self.grid()
        O_inv = matrix_op(g, [[2.0]])
        P1 = matrix_op(g, [[0.1]])
        probes = ProbeSet(g, seed=10)
        M_inf, N_inf = ode_weak_limit_equation(
            O_inv, [P1], theta=0.15, c=0.5, probes=probes, commuting=True,
        )
        f = list(probes)[3]
        np.testing.assert_allclose(M_inf(f).values, 2.0 * f.values, atol=1e-12)
        assert norm_nu(N_inf(f)) > 0

    def test_certificate_violation_rejected(self):
        g = self.grid()
        O_inv = matrix_op(g, [[2.0]])
        P_big = matrix_op(g, [[50.0]])
        probes = ProbeSet(g, seed=11)
        with pytest.raises(ValueError):
            ode_weak_limit_equation(O_inv, [P_big], theta=0.1, c=0.5, probes=probes)


class TestExperiments:
    def test_dbf_constant_coefficients_trivial(self):
        one = lambda y: np.ones_like(np.asarray(y, dtype=float))
        A = np.array([[0.0, -1.0], [1.0, 0.0]])
        rep = dbf_experiment(one, one, A, [8], nu=2.0, seed=42, limit_coefficients=(1.0, 1.0))
        assert rep.rows[-1]["pairing_error"] <= 1e-10

    def test_dbf_rejects_non_skew_matrix(self):
        one = lambda y: np.ones_like(np.asarray(y, dtype=float))
        with pytest.raises(ValueError, match="skew"):
            dbf_experiment(one, one, np.array([[0.0, 1.0], [1.0, 0.0]]), [8], nu=2.0, seed=42)

    def test_memory_kernel_zero_forcing(self):
        # the window [0, 4] contains the unit forcing pulse on [0, 1); one
        # coarse scale gives a finite pairing error of at most 1
        rep = memory_kernel_experiment([8], nu=2.0, seed=42)
        assert rep.rows[-1]["pairing_error"] <= 1.0  # smoke: finite, small

    def test_eddy_bound_column_formula(self):
        # bound column for (1 + cos(t)/2)/n at weight eta is (1.5 + 0.5/eta)/n
        n = 4
        eps = Coefficient.scalar_profile(
            lambda t: (1.0 + 0.5 * np.cos(t)) / n,
            deriv=lambda t: -0.5 * np.sin(t) / n,
        )
        rep = eddy_current_experiment([(n, eps, 1.5 / n, 0.5 / n)], eta_list=[2.0], seed=42)
        assert rep.rows[0]["bound_rhs"] == pytest.approx((1.5 + 0.25) / n, abs=1e-12)

    def test_eddy_zero_dielectricity_row(self):
        zero = Coefficient.scalar_profile(lambda t: 0.0, deriv=lambda t: 0.0)
        rep = eddy_current_experiment([(1, zero, 0.0, 0.0)], eta_list=[1.0], seed=42)
        assert rep.rows[0]["pairing_error"] <= 1e-12
        assert rep.rows[0]["verdict"]

    def test_eddy_rejects_uncertified_dielectricity(self):
        # nu*eps + eps'/2 = -eta < 0: the eps_n solve is not certified
        bad = Coefficient.scalar_profile(lambda t: -1.0, deriv=lambda t: 0.0)
        with pytest.raises(ValueError, match="leg 0 damping fails"):
            eddy_current_experiment([(1, bad, 1.0, 0.0)], eta_list=[1.0], seed=42)

    def test_eddy_weights_share_their_solves(self):
        # each system steps once for every weight; each weight's norms are
        # those of its run alone, bit for bit
        def per_eta(etas):
            cfg = {**DEFAULTS["eddy"], "scales": (8, 16), "eta_list": etas}
            return RUNNERS["eddy"](cfg).metadata["per_eta"]

        assert per_eta((1.0, 2.0)) == {**per_eta((1.0,)), **per_eta((2.0,))}

    def test_eddy_certifies_every_weight(self):
        # the shipped profiles pass at eta = 2; at eta = 0.1 the mu leg of
        # the eps = 0 system fails its positivity, 0.1 < c = 1
        cfg = {**DEFAULTS["eddy"], "eta_list": (2.0, 0.1)}
        with pytest.raises(ValueError, match=r"leg 1 positivity fails: 0\.1000"):
            RUNNERS["eddy"](cfg)
        # 1 + cos(5t)/2 is damped at eta = 2 (min 2 - sqrt(10.25)/2 > 0) and
        # not at eta = 1 (min 1 - sqrt(7.25)/2 < 0), where the eps = 0
        # system still passes
        eps = Coefficient.scalar_profile(lambda t: 1.0 + 0.5 * np.cos(5 * t),
                                         deriv=lambda t: -2.5 * np.sin(5 * t))
        with pytest.raises(ValueError, match="leg 0 damping fails"):
            eddy_current_experiment([(1, eps, 1.5, 2.5)], eta_list=[2.0, 1.0], seed=42)

    def test_one_scale_wave_with_a_nan_profile_fails(self):
        # 2 + sin(2 pi y), NaN near y = 0.5: scale 8 samples y = 0.5 on the
        # edges, and the coefficient check rejects the NaN instead of
        # solving with it
        def profile(y):
            y = np.asarray(y)
            return np.where(np.abs(y - 0.5) < 0.01, np.nan, 2.0 + np.sin(2 * np.pi * y))

        with pytest.raises(ValueError, match="wave coefficient must have positive real part"):
            wave_g_convergence_experiment(profile, [8], nu=1.0, seed=42)


class TestConvergenceReport:
    def test_csv_roundtrip_and_verdict(self, tmp_path):
        rep = ConvergenceReport("demo", metadata={"seed": 1})
        rep.add_row(8, 0.01, 0.02, 0.03, bound_rhs=0.1, verdict=True)
        rep.add_row(16, 0.005, 0.01, 0.02, bound_rhs=0.1, verdict=True)
        path = tmp_path / "demo.csv"
        rep.write_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["scale", "pairing_error", "strong_error",
                           "norm_error", "bound_rhs", "verdict"]
        assert [r[-1] for r in rows[1:]] == ["pass", "pass"]
        # verdict is recomputable from the rows alone
        assert rep.verdict == all(r[-1] == "pass" for r in rows[1:])

    def test_slope_and_finalize(self):
        rep = ConvergenceReport("demo")
        for n, e in ((8, 0.08), (16, 0.04), (32, 0.02), (64, 0.01)):
            rep.add_row(n, pairing_error=e)
        assert rep.slope() == pytest.approx(-1.0, abs=1e-9)
        assert rep.finalize(0.02, -0.5)
        rep2 = ConvergenceReport("flat")
        for n in (8, 16, 32, 64):
            rep2.add_row(n, pairing_error=0.01)
        assert not rep2.finalize(0.02, -0.5)  # no decay, slope gate trips

    def test_one_scale_ladder_has_no_slope(self):
        # one row has no slope: NaN, not a made-up 0.0, and the ladder is
        # judged by its pairing gate alone
        rep = ConvergenceReport("one")
        rep.add_row(64, pairing_error=0.01)
        assert np.isnan(rep.slope())
        assert rep.finalize(0.02, -0.5)
        assert np.isnan(rep.metadata["slope"])

    def test_ordering_assertion(self):
        rep = ConvergenceReport("demo")
        rep.add_row(8, pairing_error=0.5, strong_error=0.1, norm_error=0.2)
        with pytest.raises(AssertionError):
            rep.assert_topology_ordering()
