"""All-cuts causality audits on short grids: the six production audits,
anti-causal controls for the ensemble driver and the production steppers,
and batched stepping pinned to single-RHS stepping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evocalc import causality_audit as audit
from evocalc.signals import Coefficient, Signal, TimeGrid
from evocalc.solvers import (
    OdeBlockSystem,
    PdeSystem,
    SpatialOperator,
    _dispatch_step,
    _pde_steps,
    _step_ode_block,
    solve_ode_block_stepping,
)

M_X = 8


def grid(n=64):
    return TimeGrid(0.0, 0.05, n, 1.0)


def long_grid():
    # three blocks of cuts
    return TimeGrid(0.0, 0.01, 2 * audit.BLOCK + 3, 1.0)


def bump(g, centre=0.8, width=0.3):
    return np.exp(-(((g.times - centre) / width) ** 2))


def accretive(rng, dim):
    k = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    skew = 0.5 * (k - k.conj().T)
    return np.eye(dim) + 0.4 * skew / np.linalg.norm(skew, 2)


def bounded(rng, dim):
    k = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return k / np.linalg.norm(k, 2)


def ode_system(rng, coupled):
    C = Coefficient.constant
    if not coupled:
        return OdeBlockSystem(M=C(accretive(rng, 2), 1.0), N00=C(bounded(rng, 2)), c=1.0)
    return OdeBlockSystem(M=C(accretive(rng, 2), 1.0), N00=C(bounded(rng, 2)),
                          N01=C(bounded(rng, 2)), N10=C(bounded(rng, 2)),
                          N11=C(accretive(rng, 2), 1.0), c=1.0)


def pde_systems():
    xe = np.linspace(0.0, 1.0, M_X + 1)
    eps = Coefficient.scalar_profile(lambda s: 1.0 + 0.25 * np.cos(s),
                                     deriv=lambda s: -0.25 * np.sin(s))
    one = Coefficient.scalar_profile(lambda s: 1.0, deriv=lambda s: 0.0)
    skew = PdeSystem.dense_small(
        Coefficient.constant(np.eye(2), 1.0), Coefficient.constant(0.2 * np.eye(2)),
        SpatialOperator.skew_matrix(np.array([[0.0, -1.0], [1.0, 0.0]])), c=1.0)
    return {
        "heat": PdeSystem.heat(1.0 + 0.5 * np.sin(2 * np.pi * xe)),
        "maxwell": PdeSystem.maxwell(eps, one, one, M_X),
        "wave": PdeSystem.wave(2.0 + np.sin(2 * np.pi * xe)),
        "skew": skew,
    }


def pde_drive(g):
    xi = np.linspace(0.0, 1.0, M_X + 2)[1:-1]
    F = np.zeros((g.n, 2 * M_X + 1), dtype=complex)
    F[:, :M_X] = np.outer(bump(g), np.sin(np.pi * xi))
    return Signal(g, F)


class TestAudits:
    def test_ode_block(self):
        g = grid()
        F = Signal(g, np.column_stack([bump(g), bump(g, 1.5, 0.5)]))
        assert audit.audit_ode_block(ode_system(np.random.default_rng(3), False), F, g) <= 1e-10

    @pytest.mark.parametrize("kind", ["heat", "maxwell", "wave"])
    def test_pde(self, kind):
        g = grid()
        assert audit.audit_pde(pde_systems()[kind], pde_drive(g), g) <= 1e-10

    @pytest.mark.parametrize("kind", ["heat", "wave"])
    def test_complex_data_audit_exactly_zero(self, kind):
        # complex conductivity and drive, 65 ensemble columns: the cached
        # inverse must give equal columns equal bits, as Thomas does
        g = grid()
        xe = np.linspace(0.0, 1.0, M_X + 1)
        a = 1.5 + 0.5 * np.sin(2 * np.pi * xe) + 0.3j * np.cos(3 * np.pi * xe)
        sys_pde = PdeSystem.heat(a) if kind == "heat" else PdeSystem.wave(a)
        F = Signal(g, pde_drive(g).values * (1.0 + 0.5j))
        assert audit.audit_pde(sys_pde, F, g) == 0.0

    def test_skew(self):
        g = grid()
        F = Signal(g, np.column_stack([bump(g), bump(g, 1.5, 0.5)]))
        assert audit._audit_skew(pde_systems()["skew"], F, g) <= 1e-10

    def test_picard(self):
        g = grid()
        assert audit.audit_picard(np.sin, 1.0, Signal(g, bump(g))) <= 1e-10

    def test_picard_rejects_multi_column_input(self):
        # the ensemble takes the state columns: a second column would be
        # dropped from the audit, not certified
        g = grid()
        f = Signal(g, np.column_stack([bump(g), bump(g, 1.5, 0.5)]))
        with pytest.raises(ValueError, match="dim-1"):
            audit.audit_picard(np.sin, 1.0, f)

    def test_picard_rule_checked_on_two_columns(self):
        # a rule that mixes the state columns, which the ensemble fills with
        # cuts, would audit to 0.0 without certifying anything; a rule of
        # the wrong shape is named as such
        g = grid()
        rule = lambda u: np.sin(u.sum(axis=1, keepdims=True)) * np.ones_like(u) / u.shape[1]
        with pytest.raises(ValueError, match="column-wise rule"):
            audit.audit_picard(rule, 1.0, Signal(g, bump(g)))
        with pytest.raises(ValueError, match=r"\(64, 2\) stack to shape \(64,\)"):
            audit.audit_picard(lambda u: u[:, 0], 1.0, Signal(g, bump(g)))

    def test_heat_and_picard_span_several_blocks(self):
        g = long_grid()
        assert audit.audit_pde(pde_systems()["heat"], pde_drive(g), g) <= 1e-10
        assert audit.audit_picard(np.sin, 1.0, Signal(g, bump(g))) <= 1e-10


def reads_ahead(sys, rows, g):
    # the state at node k is the input row of node k + 1
    rows = iter(rows)
    next(rows)
    for row in rows:
        yield row
    yield np.zeros_like(row)


class TestAntiCausalControl:
    def test_reading_one_node_ahead_fails_loudly(self):
        g = grid()
        assert audit._ensemble_defect(reads_ahead, None, Signal(g, bump(g)), g) > 0.1

    def test_caught_in_the_last_block(self):
        g = long_grid()
        F = Signal(g, bump(g, centre=g.times[-6], width=0.05))
        assert audit._ensemble_defect(reads_ahead, None, F, g) > 0.1

    @staticmethod
    def leaking(steps):
        """A stepper that adds the next node's input row to every state."""
        def leaky(sys, rows, g):
            rows = list(rows)
            for k, u in enumerate(steps(sys, rows, g)):
                yield u + rows[min(k + 1, len(rows) - 1)]
        return leaky

    @pytest.mark.parametrize("kind", ["heat", "skew"])
    def test_leaking_production_stepper_is_caught(self, kind, monkeypatch):
        g = grid()
        sys = pde_systems()[kind]
        F = pde_drive(g) if kind == "heat" else Signal(g, np.column_stack([bump(g)] * 2))
        monkeypatch.setattr(audit, "_pde_steps", self.leaking(audit._pde_steps))
        assert audit.audit_pde(sys, F, g) > 1e-10


def batched_matches_single(stepper, single, sys, g, rng, m):
    K = int(rng.integers(1, 5))
    F = rng.standard_normal((g.n, m, K)) + 1j * rng.standard_normal((g.n, m, K))
    batched = np.array(list(stepper(sys, F, g)))
    for j in range(K):
        ref = single(sys, F[:, :, j], g)
        assert np.linalg.norm(batched[:, :, j] - ref) <= 1e-13 * np.linalg.norm(ref)


class TestBatchedStepping:
    @pytest.mark.parametrize("coupled", [False, True])
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=5, deadline=None)
    def test_ode_block(self, coupled, seed):
        rng = np.random.default_rng(seed)
        sys = ode_system(rng, coupled)
        g = grid(32)

        def single(sys, F, g):
            return solve_ode_block_stepping(sys, Signal(g, F), g)

        batched_matches_single(_step_ode_block, single, sys, g, rng, sys.m0 + sys.m1)

    @pytest.mark.parametrize("kind", ["heat", "maxwell", "wave", "skew"])
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=5, deadline=None)
    def test_pde(self, kind, seed):
        sys = pde_systems()[kind]
        batched_matches_single(_pde_steps, _dispatch_step, sys, grid(32),
                               np.random.default_rng(seed), sys.state_dim)
