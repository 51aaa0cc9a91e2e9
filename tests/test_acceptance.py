"""Acceptance gate: one test per certification criterion.

Every criterion runs at its stated tolerance and prints one pass/fail line
(visible with `pytest -s` or in the failure report).  Reference grid unless
a criterion pins its own: window [0, 30], dt = 0.01, nu = 1, seed = 42.
Criteria that need finer time steps (route agreement, transfer extraction,
the fourth-order reference) declare them inline.
"""

import numpy as np
import pytest

from evocalc.signals import Signal, TimeGrid, inner_nu, norm_nu
from evocalc.timecalc import (
    MultiplierFunction,
    antiderivative,
    apply_multiplier,
    derivative,
    spectrum_of_antiderivative,
)
from evocalc.operators import CausalOp, ProbeSet, op_norm
from evocalc.homogenization import strong_error, weak_pairing_error
from evocalc.experiments import DEFAULTS, RUNNERS

SEED = 42
REF = dict(t0=0.0, dt=0.01, n=3001, nu=1.0)


def report(num, ok, text):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def causality_report():
    return RUNNERS["causality-suite"](dict(DEFAULTS["causality-suite"]))


class TestAcceptance:
    def test_criterion_01_antiderivative_norm_bound(self):
        """Three weights: spectrum.cfg runs nu = 0.5 alone and perfbench pins its CSV."""
        worst = {}
        for nu in (0.5, 1.0, 2.0):
            grid = TimeGrid(0.0, 0.01, 3001, nu)
            est = op_norm(CausalOp.antiderivative_op(grid))
            worst[nu] = (est, 1.0 / nu + 0.02)
        ok = all(est <= bound for est, bound in worst.values())
        report(1, ok, "causal integral norm <= 1/nu + 0.02 for nu in {0.5, 1, 2}: "
               + ", ".join(f"{nu}: {e:.4f}<={b:.3f}" for nu, (e, b) in worst.items()))

    def test_criterion_02_spectral_circle_and_route_agreement(self):
        """No shipped config runs the dt = 1e-3 cumsum-vs-spectral agreement."""
        grid = TimeGrid(0.0, 0.01, 2048, 1.0)
        deviation, _ = spectrum_of_antiderivative(grid)
        circle_ok = deviation <= 1e-12
        fine = TimeGrid(0.0, 1e-3, 30001, 1.0)
        t = fine.times
        rel = 0.0
        for (c, s) in ((5.0, 1.0), (8.0, 1.4)):
            f = Signal(fine, np.exp(-(((t - c) / s) ** 2)))
            spectral = apply_multiplier(MultiplierFunction.scalar(lambda z: z), f)
            direct = antiderivative(f)
            rel = max(rel, norm_nu(spectral - direct) / norm_nu(direct))
        ok = circle_ok and rel <= 1e-3
        report(2, ok, f"frequency samples on the circle to {deviation:.1e}; "
               f"cumsum vs spectral antiderivative {rel:.2e} <= 1e-3 (dt=1e-3)")

    def test_criterion_03_accretivity_identity(self):
        """No shipped config computes Re<d phi, phi> = nu <phi, phi>."""
        grid = TimeGrid(**REF)
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for _ in range(20):
            c = rng.uniform(6.0, 18.0)
            s = rng.uniform(1.0, 2.0)
            vals = np.exp(-(((grid.times - c) / s) ** 2))
            vals[vals < 1e-14] = 0.0
            phi = Signal(grid, vals)
            lhs = inner_nu(derivative(phi), phi).real
            rhs = grid.nu * inner_nu(phi, phi).real
            worst = max(worst, abs(lhs - rhs) / rhs)
        ok = worst <= 0.02
        report(3, ok, f"Re<d phi, phi> = nu <phi, phi> within {worst:.2%} <= 2% "
               "on 20 seeded smooth probes")

    def test_criterion_04_ode_block_routes_and_residual(self):
        rep = RUNNERS["ode-block"](dict(DEFAULTS["ode-block"]))
        gap = rep.rows[1]["norm_error"]
        resid = rep.rows[2]["norm_error"]
        bound = rep.rows[2]["bound_rhs"]
        ok = rep.rows[1]["verdict"] and rep.rows[2]["verdict"]
        report(4, ok, f"route gap {gap:.2e} <= 1e-6; residual estimate "
               f"{resid:.3f} <= theta-bound {bound:.3f} (+5%) at nu=20, c=1")

    def test_criterion_05_picard_vs_fourth_order(self):
        rep = RUNNERS["picard"](dict(DEFAULTS["picard"]))
        rel = rep.rows[0]["norm_error"]
        ok = rel <= 1e-3
        report(5, ok, f"fixed-point vs staggered RK4 for sin(u) at dt=1e-3: "
               f"{rel:.2e} <= 1e-3")

    def test_criterion_06_causality_suite(self, causality_report):
        rep = causality_report
        solver_keys = ("ode-block", "heat", "maxwell", "wave", "skew-dbf", "picard")
        defects = {k: rep.metadata[k] for k in solver_keys}
        control = rep.metadata["anticausal-control"]
        ok = all(d <= 1e-10 for d in defects.values()) and control > 0.1
        report(6, ok, "all-cuts causality defect <= 1e-10 for every solver "
               f"(max {max(defects.values()):.1e}); anti-causal control {control:.2f} > 0.1")

    def test_criterion_07_nu_independence(self, causality_report):
        rep = causality_report
        keys = [k for k in rep.metadata if k.startswith("nu-indep-")]
        worst = max(rep.metadata[k] for k in keys)
        ok = worst <= 10 * 0.01
        report(7, ok, f"solution maps' weight-independence defect "
               f"{worst:.2e} <= 10*dt between nu and 2 nu")

    def test_criterion_08_topology_separation(self):
        """No shipped config pairs the weak and strong errors of one operator."""
        grid = TimeGrid(**REF)
        probes = ProbeSet(grid, seed=SEED)
        t = grid.times
        diag = np.sin(2 * np.pi * 64 * t)
        osc = lambda f: Signal(f.grid, f.values * diag[:, None])
        zero = lambda f: Signal.zero(f.grid, f.dim)
        weak = weak_pairing_error(osc, zero, probes, grid.nu)
        strong = strong_error(osc, zero, probes, grid.nu)
        ok = weak <= 0.02 and abs(strong - 1 / np.sqrt(2)) <= 0.1 / np.sqrt(2)
        report(8, ok, f"sin(2 pi 64 t) multiplication: weak {weak:.4f} <= 0.02, "
               f"strong {strong:.4f} within 10% of 1/sqrt(2)")

    def test_criterion_09_product_of_means(self):
        rep = RUNNERS["timprod"](dict(DEFAULTS["timprod"]))
        final = rep.rows[-1]["pairing_error"]
        slope = rep.slope()
        ok = final <= 0.02 and slope <= -0.5
        report(9, ok, f"k=2 oscillatory product: final pairing {final:.4f} <= 0.02, "
               f"slope {slope:.2f} <= -0.5")

    def test_criterion_10_dbf_harmonic_mean(self):
        cfg = dict(DEFAULTS["dbf"], scales=(64,))
        good = RUNNERS["dbf"](cfg)
        straw = RUNNERS["dbf"](dict(cfg, control="arithmetic"))
        g_err = good.rows[-1]["pairing_error"]
        s_err = straw.rows[-1]["pairing_error"]
        ok = g_err <= 0.02 and s_err >= 5 * 0.02
        report(10, ok, f"sqrt(3) coefficient passes at {g_err:.4f} <= 0.02; "
               f"arithmetic straw man fails at {s_err:.3f} >= 0.10")

    def test_criterion_11_memory_kernel(self):
        rep = RUNNERS["memory-kernel"](dict(DEFAULTS["memory-kernel"]))
        final = rep.rows[-1]["pairing_error"]
        ok = final <= 0.02
        report(11, ok, f"Bessel-kernel convolution limit: pairing {final:.4f} "
               "<= 0.02 at eps = 1/64")

    def test_criterion_12_eddy_current_bound(self):
        rep = RUNNERS["eddy"](dict(DEFAULTS["eddy"]))
        rows_ok = all(r["pairing_error"] <= r["bound_rhs"] * 1.10 + 1e-12
                      for r in rep.rows)
        slope = rep.slope()
        ok = rows_ok and slope <= -0.9
        report(12, ok, "observed <= (1/c^2)(|eps| + |eps'|/eta) + 10% on all rows; "
               f"decay slope {slope:.2f} <= -0.9")

    def test_criterion_13_heat_strong_continuity(self):
        rep = RUNNERS["heat"](dict(DEFAULTS["heat"]))
        ladder = [r for r in rep.rows if r["scale"] != 999]
        final = ladder[-1]["pairing_error"]
        gap = rep.metadata["ainv_constant_gap"]
        ok = final <= 0.02 and gap <= 1e-10
        report(13, ok, f"heat maps converge strongly (final {final:.4f} <= 0.02); "
               f"inverse-coefficient constant verified to {max(gap, 0):.1e}")

    def test_criterion_14_wave_g_convergence(self):
        rep = RUNNERS["wave"](dict(DEFAULTS["wave"]))
        final = rep.rows[-1]["pairing_error"]
        premise = rep.metadata["elliptic_premise_final"]
        ok = final <= 0.05 and rep.metadata["elliptic_premise_verdict"] == "pass" \
            and premise <= 0.05
        report(14, ok, f"wave pairs converge to the harmonic-mean solution "
               f"({final:.4f} <= 0.05); elliptic premise ladder at {premise:.4f}")

    def test_criterion_15_fundamental_identity(self):
        rep = RUNNERS["funid"](dict(DEFAULTS["funid"]))
        resid = rep.rows[1]["norm_error"]
        lhs = rep.rows[2]["norm_error"]
        bound = rep.rows[2]["bound_rhs"]
        ok = all(r["verdict"] for r in rep.rows)
        report(15, ok, f"exchange-identity residual {resid:.1e} <= 1e-6 on random "
               f"accretive pairs; continuity estimate {lhs:.3f} <= {bound:.3f} (+5%)")

    def test_criterion_16_transfer_extraction(self):
        rep = RUNNERS["transfer"](dict(DEFAULTS["transfer"]))
        errs = {r["scale"]: r["norm_error"] for r in rep.rows}
        ok = all(r["verdict"] for r in rep.rows)
        report(16, ok, "symbols at z in {1, 1+i, 2}: identity "
               f"{errs[0]:.1e}, integration {errs[1]:.1e}, delay {errs[2]:.1e}, "
               "each <= 1e-3 (dt=1e-3)")
