"""All-cuts causality audits on short grids: the six production audits,
anti-causal controls for the ensemble driver and the production steppers,
the ensemble driver pinned to its full-width form, batched stepping pinned
to single-RHS stepping, and the forked block route pinned to the serial
one."""

import functools
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evocalc import causality_audit as audit, forkmap
from evocalc.signals import Coefficient, GridMismatchError, Signal, TimeGrid
from evocalc.solvers import (
    INVERSE_MAX,
    OdeBlockSystem,
    PdeSystem,
    SpatialOperator,
    _dispatch_step,
    _pde_steps,
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
        "heat": PdeSystem.heat(1.0 + 0.5 * np.sin(2 * np.pi * xe), nu=1.0),
        "maxwell": PdeSystem.maxwell(eps, one, one, M_X),
        "wave": PdeSystem.wave(2.0 + np.sin(2 * np.pi * xe), nu=1.0),
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
        sys_pde = PdeSystem.heat(a, nu=1.0) if kind == "heat" else PdeSystem.wave(a, nu=1.0)
        F = Signal(g, pde_drive(g).values * (1.0 + 0.5j))
        assert audit.audit_pde(sys_pde, F, g) == 0.0

    @pytest.mark.parametrize("kind", ["heat", "wave", "maxwell"])
    def test_cyclic_reduction_audit_exactly_zero(self, kind):
        # above INVERSE_MAX the steppers solve by cyclic reduction; its
        # equal columns must give equal bits as the rows widen
        m_x, g = INVERSE_MAX + 1, grid(12)
        xe, xi = np.linspace(0.0, 1.0, m_x + 1), np.linspace(0.0, 1.0, m_x + 2)[1:-1]
        a = 1.5 + 0.5 * np.sin(2 * np.pi * xe) + 0.3j * np.cos(3 * np.pi * xe)
        if kind == "maxwell":
            eps = Coefficient.scalar_profile(lambda s: 1.0 + 0.25 * np.cos(s),
                                             deriv=lambda s: -0.25 * np.sin(s))
            one = Coefficient.scalar_profile(lambda s: 1.0, deriv=lambda s: 0.0)
            sys_pde = PdeSystem.maxwell(eps, one, one, m_x)
        else:
            sys_pde = PdeSystem.heat(a, nu=1.0) if kind == "heat" else PdeSystem.wave(a, nu=1.0)
        F = np.zeros((g.n, 2 * m_x + 1), dtype=complex)
        F[:, :m_x] = np.outer(bump(g), np.sin(np.pi * xi)) * (1.0 + 0.5j)
        assert audit.audit_pde(sys_pde, Signal(g, F), g) == 0.0

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

    @pytest.mark.parametrize("kind", ["ode-block", "pde", "skew"])
    def test_stepper_audits_reject_a_grid_not_the_signals(self, kind):
        # the steppers would run at the other grid's dt and weight and
        # certify a solve nobody asked for
        g, other = TimeGrid(0.0, 0.01, 201, 1.0), TimeGrid(0.0, 0.02, 201, 5.0)
        two = Signal(g, np.column_stack([bump(g), bump(g, 1.5, 0.5)]))
        run = {
            "ode-block": lambda: audit.audit_ode_block(ode_system(np.random.default_rng(3), False),
                                                       two, other),
            "pde": lambda: audit.audit_pde(pde_systems()["heat"], pde_drive(g), other),
            "skew": lambda: audit._audit_skew(pde_systems()["skew"], two, other),
        }[kind]
        with pytest.raises(GridMismatchError, match="differs from the signal's grid"):
            run()

    def test_heat_and_picard_span_several_blocks(self):
        g = long_grid()
        assert audit.audit_pde(pde_systems()["heat"], pde_drive(g), g) <= 1e-10
        assert audit.audit_picard(np.sin, 1.0, Signal(g, bump(g))) <= 1e-10


def reads_ahead(sys, rows, g, d=1):
    # the state at node k is the input row of node k + d
    rows = iter(rows)
    for _ in range(d):
        next(rows)
    for row in rows:
        yield row
    for _ in range(d):
        yield np.zeros_like(row)


class TestAntiCausalControl:
    def test_reading_one_node_ahead_fails_loudly(self):
        g = grid()
        assert audit._ensemble_defect(reads_ahead, None, Signal(g, bump(g)), g) > 0.1

    def test_caught_in_the_last_block(self):
        g = long_grid()
        F = Signal(g, bump(g, centre=g.times[-6], width=0.05))
        assert audit._ensemble_defect(reads_ahead, None, F, g) > 0.1

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("width", ["cut", "cut+d"])
    def test_caught_at_a_block_boundary(self, d, width):
        # the drive sits on the second block's first cut s (and the d nodes
        # after it): the leak shows only at nodes before s, which step the
        # block's shared past, so the rows must widen at s and a node must
        # count as soon as its state is wide
        g = long_grid()
        s = audit.BLOCK - 1
        F = np.zeros((g.n, 1))
        F[s:s + (1 if width == "cut" else d + 1)] = 1.0
        stepper = functools.partial(reads_ahead, d=d)
        assert audit._ensemble_defect(stepper, None, Signal(g, F), g) > 0.1

    def test_picard_rule_reading_one_node_ahead_is_caught(self):
        # the rule is the caller's: one that reads the next node's state
        # leaks across every cut, also in the last block
        ahead = lambda u: np.sin(np.roll(u, -1, axis=0))
        g = grid()
        assert audit.audit_picard(ahead, 1.0, Signal(g, bump(g))) > 1e-10
        g = long_grid()
        F = Signal(g, bump(g, centre=g.times[-6], width=0.05))
        assert audit.audit_picard(ahead, 1.0, F) > 1e-10

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
    """K-column rows give the K single solves.  Rows that are one column
    wide up to a node s and K columns from s on give one-column states up
    to s and then the states of the full-width rows (the audits' shared
    past)."""
    K = int(rng.integers(1, 5))
    F = rng.standard_normal((g.n, m, K)) + 1j * rng.standard_normal((g.n, m, K))
    batched = np.array(list(stepper(sys, F, g)))
    for j in range(K):
        ref = single(sys, F[:, :, j], g)
        assert np.linalg.norm(batched[:, :, j] - ref) <= 1e-13 * np.linalg.norm(ref)

    s = int(rng.integers(1, g.n))
    F[:s] = F[:s, :, :1]
    full = np.array(list(stepper(sys, F, g)))
    rows = [f[:, :1] if k < s else f for k, f in enumerate(F)]
    widening = list(stepper(sys, rows, g))
    assert [u.shape[1] for u in widening] == [1] * s + [K] * (g.n - s)
    widening = np.array([np.broadcast_to(u, (m, K)) for u in widening])
    assert np.linalg.norm(widening - full) <= 1e-13 * np.linalg.norm(full)


class TestBatchedStepping:
    @pytest.mark.parametrize("coupled", [False, True])
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=5, deadline=None)
    def test_ode_block(self, coupled, seed):
        rng = np.random.default_rng(seed)
        sys = ode_system(rng, coupled)
        g = grid(32)

        def single(sys, F, g):
            return solve_ode_block_stepping(sys, Signal(g, F))

        batched_matches_single(_pde_steps, single, sys, g, rng, sys.m0 + sys.m1)

    @pytest.mark.parametrize("kind", ["heat", "maxwell", "wave", "skew"])
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=5, deadline=None)
    def test_pde(self, kind, seed):
        sys = pde_systems()[kind]
        batched_matches_single(_pde_steps, _dispatch_step, sys, grid(32),
                               np.random.default_rng(seed), sys.state_dim)


def full_width_defect(stepper, sys, F: Signal, grid: TimeGrid) -> float:
    """The ensemble driver as it was before the shared past went in as one
    column: every pass steps every node at full width.  The reference the
    driver is pinned to."""
    BLOCK, _finish = audit.BLOCK, audit._finish
    n = grid.n
    w = grid.quad_weights()
    acc = np.zeros(n)
    for start in range(0, n, BLOCK - 1):
        stop = min(start + BLOCK - 1, n)
        cols = np.append(np.arange(start, stop), n)
        rows = (f[:, None] * (k < cols) for k, f in enumerate(F.values))
        for k, u in zip(range(stop - 1), stepper(sys, rows, grid)):
            i = max(k + 1, start)
            acc[i:stop] += w[k] * np.sum(np.abs(u[:, i - start:-1] - u[:, -1:]) ** 2, axis=0)
    return _finish(acc, float(w @ np.sum(np.abs(F.values) ** 2, axis=1)))


def audited(kind, g):
    """(stepper, system, drive) of one production audit on grid g."""
    two = np.column_stack([bump(g), bump(g, 1.5, 0.5)])
    if kind == "ode-block":
        # coupled: an algebraic leg past the memory rows of M
        sys = ode_system(np.random.default_rng(3), True)
        return _pde_steps, sys, Signal(g, np.hstack([two, two[:, ::-1]]))
    sys = pde_systems()[kind]
    return _pde_steps, sys, Signal(g, two) if kind == "skew" else pde_drive(g)


class TestSharedPast:
    """The driver steps each block's shared past as one column; on three
    blocks it must give the full-width driver's defect."""

    KINDS = ["ode-block", "heat", "maxwell", "wave", "skew"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_leaking_stepper_matches_full_width(self, kind):
        g = long_grid()
        stepper, sys, F = audited(kind, g)
        leaky = TestAntiCausalControl.leaking(stepper)
        fast = audit._ensemble_defect(leaky, sys, F, g)
        ref = full_width_defect(leaky, sys, F, g)
        assert ref > 0.1
        assert abs(fast - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("kind", KINDS)
    def test_causal_stepper_passes_on_both(self, kind):
        g = long_grid()
        stepper, sys, F = audited(kind, g)
        assert audit._ensemble_defect(stepper, sys, F, g) <= 1e-10
        assert full_width_defect(stepper, sys, F, g) <= 1e-10


def on_both_routes(run):
    """run() on the forked block route, with two CPUs claimed so that it
    is taken on any host with os.fork, and on the serial route, with no
    os.fork; returns (forked, serial)."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    forks, fork = [], os.fork
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        mp.setattr(os, "fork", lambda: forks.append(1) or fork())
        forked = run()
    assert forks, "the forked route was not taken"
    with pytest.MonkeyPatch.context() as mp:
        mp.delattr(os, "fork")
        serial = run()
    return forked, serial


def raises_in_block(b):
    """A stepper that raises when it reads block b's first cut (block b is
    the only pass that widens there) and passes its rows through before."""
    def stepper(sys, rows, g):
        for k, row in enumerate(rows):
            if k == b * (audit.BLOCK - 1) and row.shape[1] > 1:
                raise ValueError(f"block {b} fails at node {k}")
            yield row
    return stepper


def anti_causal_controls():
    """The defects of the anti-causal controls above, each a function of a
    grid, by name."""
    controls = {
        "reads-ahead": lambda g: audit._ensemble_defect(reads_ahead, None, Signal(g, bump(g)), g),
        "reads-ahead-last-block": lambda g: audit._ensemble_defect(
            reads_ahead, None, Signal(g, bump(g, centre=g.times[-6], width=0.05)), g),
        "picard-reads-ahead": lambda g: audit.audit_picard(
            lambda u: np.sin(np.roll(u, -1, axis=0)), 1.0,
            Signal(g, bump(g, centre=g.times[-6], width=0.05))),
    }

    def boundary(g, d, extra):
        F = np.zeros((g.n, 1))
        F[audit.BLOCK - 1:audit.BLOCK + extra] = 1.0
        return audit._ensemble_defect(functools.partial(reads_ahead, d=d), None, Signal(g, F), g)

    def shared_past(g, kind):
        stepper, sys, F = audited(kind, g)
        return audit._ensemble_defect(TestAntiCausalControl.leaking(stepper), sys, F, g)

    for d in (1, 3):
        for extra in (0, d):
            controls[f"boundary-d{d}-{extra}"] = functools.partial(boundary, d=d, extra=extra)
    for kind in TestSharedPast.KINDS:
        controls[f"leaking-{kind}"] = functools.partial(shared_past, kind=kind)
    return controls


CONTROLS = anti_causal_controls()


class TestForkedRoute:
    """On three blocks the parent runs block 0, one forked child block 1,
    and block 2 goes to whichever is free first; every defect must have
    the serial route's bits."""

    @pytest.mark.parametrize("kind", ["ode-block", "heat", "maxwell", "wave", "skew", "picard"])
    def test_audits_match_serial(self, kind):
        g = long_grid()
        if kind == "picard":
            run = lambda: audit.audit_picard(np.sin, 1.0, Signal(g, bump(g)))
        else:
            _, sys, F = audited(kind, g)
            run = {"ode-block": audit.audit_ode_block, "skew": audit._audit_skew}.get(
                kind, audit.audit_pde)
            run = functools.partial(run, sys, F, g)
        forked, serial = on_both_routes(run)
        assert forked == serial
        assert forked <= 1e-10

    @pytest.mark.parametrize("name", sorted(CONTROLS))
    def test_controls_fire_alike(self, name):
        g = long_grid()
        forked, serial = on_both_routes(lambda: CONTROLS[name](g))
        assert forked == serial
        assert forked > 1e-10

    @pytest.mark.parametrize("kind", ["heat", "skew"])
    def test_leaking_production_stepper_fires_alike(self, kind, monkeypatch):
        # the child inherits the monkeypatched stepper
        g = long_grid()
        _, sys, F = audited(kind, g)
        monkeypatch.setattr(audit, "_pde_steps", TestAntiCausalControl.leaking(audit._pde_steps))
        forked, serial = on_both_routes(lambda: audit.audit_pde(sys, F, g))
        assert forked == serial
        assert forked > 1e-10

    def test_errors_reach_the_parent_and_no_process_is_left(self):
        # block 1 runs in the child, block 0 in the parent
        g = long_grid()
        F = Signal(g, bump(g))
        for b in (1, 0):
            for route in on_both_routes(lambda: pytest.raises(
                    ValueError, audit._ensemble_defect, raises_in_block(b), None, F, g)):
                assert route.type is ValueError
                assert str(route.value) == f"block {b} fails at node {b * (audit.BLOCK - 1)}"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_queue_hands_out_each_block_once(self):
        starts = range(0, 40 * (audit.BLOCK - 1), audit.BLOCK - 1)
        queue_fd = forkmap._block_queue(range(2, len(starts)))
        try:
            first, second = forkmap._taken(starts, 0, queue_fd), forkmap._taken(starts, 1, queue_fd)
            taken = [next(first), next(second)]
            for a, b in zip(first, second):
                taken += [a, b]
        finally:
            os.close(queue_fd)
        assert taken[:2] == [0, audit.BLOCK - 1]
        assert sorted(taken) == list(starts)

    def test_a_slowed_child_leaves_the_queue_to_the_parent(self):
        # the child spends half a second in block 1; the parent meanwhile
        # takes every queued block, and every block is run once
        if not hasattr(os, "fork"):
            pytest.skip("no os.fork on this platform")
        parent = os.getpid()

        def block(start):
            if os.getpid() != parent:
                time.sleep(0.5)
            return np.array([float(os.getpid())])

        starts = range(0, 6 * (audit.BLOCK - 1), audit.BLOCK - 1)
        # the map hands items out from the last, so the blocks go in last-first
        runs = dict(zip(starts[::-1], forkmap._forked(block, starts[::-1])))
        assert sorted(runs) == list(starts)
        assert [s for s, pid in runs.items() if pid[0] != parent] == [starts[1]]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
