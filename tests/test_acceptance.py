"""Acceptance gate: one test per certification criterion.

Criteria 4-7 and 9-16 assert the verdict of the runner report that their
shipped config produces, so each bound is written once, in the experiment;
criteria 1-3 and 8 compute their claims here at their stated tolerance.
Every criterion prints one pass/fail line with its values (visible with
`pytest -s` or in the failure report).  Reference grid unless a criterion
pins its own: window [0, 30], dt = 0.01, nu = 1, seed = 42.
"""

import functools
import inspect
from pathlib import Path

import numpy as np

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
from evocalc.cli import parse_config

SEED = 42
REF = dict(t0=0.0, dt=0.01, n=3001, nu=1.0)


def report(num, ok, text):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


# the negative control's settings: the arithmetic-mean straw man at one scale
NEGATIVE_CONTROL = {"scales": (64,), "control": "arithmetic"}


@functools.cache
def runner_report(name, **overrides):
    """The report `evocalc run` judges for a config of experiment `name` that
    sets `overrides` on its DEFAULTS; cached, so the causality suite runs
    once per session."""
    return RUNNERS[name](dict(DEFAULTS[name], **overrides))


def ladder_text(rep, final_row=-1):
    m = rep.metadata
    return (f"final pairing {rep.rows[final_row]['pairing_error']:.4f} <= {m['tol']}, "
            f"slope {m['slope']:.2f} <= {m['slope_max']}")


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
        rep = runner_report("ode-block")
        gap, resid = rep.rows[1], rep.rows[2]
        report(4, rep.verdict, f"route gap {gap['norm_error']:.2e} <= {gap['bound_rhs']:.0e}; "
               f"residual estimate {resid['norm_error']:.3f} <= theta-bound + 5% "
               f"{resid['bound_rhs']:.3f} at nu=20, c=1")

    def test_criterion_05_picard_vs_fourth_order(self):
        rep = runner_report("picard")
        row = rep.rows[0]
        report(5, rep.verdict, f"fixed-point vs staggered RK4 for sin(u) at dt=1e-3: "
               f"{row['norm_error']:.2e} <= {row['bound_rhs']:.0e}")

    def test_criterion_06_causality_suite(self):
        # rows 0-5 are the six all-cuts audits, row 6 the anti-causal control
        rep = runner_report("causality-suite")
        rows = rep.rows[:7]
        worst = max(r["norm_error"] for r in rows[:6])
        report(6, all(r["verdict"] for r in rows),
               f"all-cuts causality defect <= {rows[0]['bound_rhs']:.0e} for every solver "
               f"(max {worst:.1e}); anti-causal control {rows[6]['norm_error']:.2f} > "
               f"{rows[6]['bound_rhs']}")

    def test_criterion_07_nu_independence(self):
        # rows 7-10 are the weight-independence defects of four solution maps
        rows = runner_report("causality-suite").rows[7:]
        worst = max(r["norm_error"] for r in rows)
        report(7, len(rows) == 4 and all(r["verdict"] for r in rows),
               f"solution maps' weight-independence defect {worst:.2e} <= "
               f"10*dt = {rows[0]['bound_rhs']:.2f} between nu and 2 nu")

    def test_criterion_08_topology_separation(self):
        """No shipped config pairs the weak and strong errors of one operator."""
        grid = TimeGrid(**REF)
        probes = ProbeSet(grid, seed=SEED)
        t = grid.times
        diag = np.sin(2 * np.pi * 64 * t)
        osc = lambda f: Signal(f.grid, f.values * diag[:, None])
        zero = lambda f: Signal.zero(f.grid, f.dim)
        weak = weak_pairing_error(osc, zero, probes)
        strong = strong_error(osc, zero, probes)
        ok = weak <= 0.02 and abs(strong - 1 / np.sqrt(2)) <= 0.1 / np.sqrt(2)
        report(8, ok, f"sin(2 pi 64 t) multiplication: weak {weak:.4f} <= 0.02, "
               f"strong {strong:.4f} within 10% of 1/sqrt(2)")

    def test_criterion_09_product_of_means(self):
        rep = runner_report("timprod")
        report(9, rep.verdict, f"k=2 oscillatory product: {ladder_text(rep)}")

    def test_criterion_10_dbf_harmonic_mean(self):
        """Beyond the two configs: the straw man misses by a margin, its
        pairing error at least 0.10, five times the ladder's tol."""
        good = runner_report("dbf")
        straw = runner_report("dbf", **NEGATIVE_CONTROL)
        s_err = straw.rows[-1]["pairing_error"]
        ok = good.verdict and not straw.verdict and s_err >= 0.10
        report(10, ok, f"sqrt(3) coefficient passes: {ladder_text(good)}; "
               f"arithmetic straw man fails at {s_err:.3f} >= 0.10")

    def test_criterion_11_memory_kernel(self):
        rep = runner_report("memory-kernel")
        report(11, rep.verdict, f"Bessel-kernel convolution limit: {ladder_text(rep)}")

    def test_criterion_12_eddy_current_bound(self):
        rep = runner_report("eddy")
        report(12, rep.verdict, "observed <= (1/c^2)(|eps| + |eps'|/eta) + 10% on all rows; "
               f"decay slope {rep.metadata['slope']:.2f} <= -0.9")

    def test_criterion_13_heat_strong_continuity(self):
        rep = runner_report("heat")
        gap = rep.rows[-1]  # scale 999: the inverted-coefficient constant
        report(13, rep.verdict, f"heat maps converge strongly: {ladder_text(rep, -2)}; "
               f"inverse-coefficient constant verified to {gap['norm_error']:.1e} "
               f"<= {gap['bound_rhs']:.0e}")

    def test_criterion_14_wave_g_convergence(self):
        rep = runner_report("wave")
        report(14, rep.verdict, f"wave pairs converge to the harmonic-mean solution: "
               f"{ladder_text(rep)}; elliptic premise ladder "
               f"{rep.metadata['elliptic_premise_verdict']} at "
               f"{rep.metadata['elliptic_premise_final']:.4f}")

    def test_criterion_15_fundamental_identity(self):
        rep = runner_report("funid")
        resid, cont = rep.rows[1], rep.rows[2]
        report(15, rep.verdict, f"exchange-identity residual {resid['norm_error']:.1e} <= "
               f"{resid['bound_rhs']:.0e} on random accretive pairs; continuity estimate "
               f"{cont['norm_error']:.3f} <= {cont['bound_rhs']:.3f} (+5% included)")

    def test_criterion_16_transfer_extraction(self):
        rep = runner_report("transfer")
        errs = [r["norm_error"] for r in rep.rows]
        report(16, rep.verdict, "symbols at z in {1, 1+i, 2}: identity "
               f"{errs[0]:.1e}, integration {errs[1]:.1e}, delay {errs[2]:.1e}, "
               f"each <= {rep.rows[0]['bound_rhs']:.0e} (dt=1e-3)")


# shipped config -> (overrides of its experiment's DEFAULTS, expect, criteria).
# Criteria 4-7 and 9-16 read the runner's report at those settings, so the
# CLI verdict of the config and the criterion are one computation; criteria
# 1 and 2 check the spectrum claims at more weights and steps than
# spectrum.cfg runs, and 3 and 8 have no config.
CONFIG_CRITERIA = {
    "causality_suite.cfg": ({}, "pass", (6, 7)),
    "dbf.cfg": ({}, "pass", (10,)),
    "dbf_negative_control.cfg": (NEGATIVE_CONTROL, "fail", (10,)),
    "eddy.cfg": ({}, "pass", (12,)),
    "funid.cfg": ({}, "pass", (15,)),
    "heat.cfg": ({}, "pass", (13,)),
    "memory_kernel.cfg": ({}, "pass", (11,)),
    "ode_block.cfg": ({}, "pass", (4,)),
    "picard.cfg": ({}, "pass", (5,)),
    "spectrum.cfg": ({}, "pass", (1, 2)),
    "timprod.cfg": ({}, "pass", (9,)),
    "transfer.cfg": ({}, "pass", (16,)),
    "wave.cfg": ({}, "pass", (14,)),
}
RUNNER_CRITERIA = {4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16}


def test_shipped_configs_map_to_criteria():
    # runs no runner: it checks that each criterion reads the report of the
    # settings its config parses to
    configs = Path(__file__).resolve().parents[1] / "configs"
    assert sorted(p.name for p in configs.glob("*.cfg")) == sorted(CONFIG_CRITERIA)
    sources = {int(name[15:17]): inspect.getsource(method)
               for name, method in vars(TestAcceptance).items()
               if name.startswith("test_criterion_")}
    reached = set()
    for config, (overrides, expect, criteria) in CONFIG_CRITERIA.items():
        cfg = parse_config(configs / config)
        name = cfg.pop("experiment")
        assert cfg.pop("expect") == expect, config
        assert cfg == dict(DEFAULTS[name], **overrides), config
        call = f'runner_report("{name}", **NEGATIVE_CONTROL)' if overrides \
            else f'runner_report("{name}")'
        for num in RUNNER_CRITERIA.intersection(criteria):
            assert call in sources[num], (config, num)
            reached.add(num)
    assert reached == RUNNER_CRITERIA
