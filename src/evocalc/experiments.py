"""Named certification experiments behind the command line.

Each run_* function takes a flat config dict (already validated by the CLI
layer or built from defaults), performs the experiment with fixed seeds, and
returns a ConvergenceReport whose rows carry the per-check verdicts.  Of the
acceptance criteria, 4-7 and 9-16 read a runner's report, so the CLI and
pytest certify the same computation there; criteria 1-3 and 8 call library
functions with their own parameters.
"""

from __future__ import annotations

import numpy as np

from .signals import NORM_FLOOR, Coefficient, Signal, TimeGrid, norm_nu
from .timecalc import (
    antiderivative,
    apply_multiplier,
    derivative,
    MultiplierFunction,
    spectrum_of_antiderivative,
)
from .operators import (
    CausalOp,
    ProbeSet,
    causality_defect,
    nu_independence_defect,
    op_norm,
    probe_sup,
    transfer_function,
)
from .solvers import (
    OdeBlockSystem,
    PdeSystem,
    SpatialOperator,
    _ode_block_routes,
    _step_ode_block,
    evo_pde_forward,
    funid_residual,
    picard_solve,
    solve_evo_pde,
    solve_ode_block_neumann,
    solve_ode_block_stepping,
)
from .homogenization import (
    ConvergenceReport,
    dbf_experiment,
    eddy_current_experiment,
    heat_strong_continuity_experiment,
    memory_kernel_experiment,
    product_mean_limit,
    wave_g_convergence_experiment,
)
from . import causality_audit as audit

DEFAULTS = {
    "spectrum": {"nu": 0.5, "dt": 0.01, "n": 2048},
    "ode-block": {"nu": 20.0, "dt": 0.01, "n": 2001, "seed": 42},
    "picard": {"dt": 1e-3, "t_end": 2.0, "seed": 42},
    "transfer": {"nu": 0.5, "dt": 1e-3, "t_end": 20.0},
    "causality-suite": {"nu": 1.0, "dt": 0.01, "n": 3001, "seed": 42, "m_x": 16},
    "timprod": {"nu": 1.0, "scales": (8, 16, 32, 64), "seed": 42},
    "dbf": {"nu": 2.0, "scales": (8, 16, 32, 64), "seed": 42, "control": "harmonic"},
    "memory-kernel": {"nu": 2.0, "scales": (8, 16, 32, 64), "seed": 42},
    "eddy": {"scales": (8, 16, 32, 64), "eta_list": (1.0, 2.0), "seed": 42},
    "heat": {"nu": 1.0, "scales": (2, 4, 8, 16), "seed": 42, "m_x": 100},
    "wave": {"nu": 1.0, "scales": (8, 16, 32, 64), "seed": 42},
    "funid": {"nu": 1.0, "dt": 0.01, "n": 1001, "seed": 42},
}
# The experiments whose scales count cells (16 per period), so that each
# scale must be an integer; the other ladders take any scale > 0.
COUNT_SCALES = {"memory-kernel", "wave"}


def _gate(rep: ConvergenceReport, scale, value: float, bound: float):
    """A row that passes when value <= bound."""
    rep.add_row(scale, norm_error=value, bound_rhs=bound, verdict=value <= bound)


def run_spectrum(cfg: dict) -> ConvergenceReport:
    """Spectral circle of the causal antiderivative plus its norm bound."""
    nu = cfg["nu"]
    grid = TimeGrid(0.0, cfg["dt"], int(cfg["n"]), nu)
    deviation, _ = spectrum_of_antiderivative(grid)
    r = 1.0 / (2.0 * nu)
    rep = ConvergenceReport("spectrum", metadata={"nu": nu, "radius": r})
    _gate(rep, 0, deviation, 1e-12)
    # xi = 0 gives z = 1/nu: on-circle identity |1/nu - r| = r, bit exact
    z0 = 1.0 / nu
    _gate(rep, 1, abs(abs(z0 - r) - r), 1e-15)
    # norm bound |J| <= 1/nu + slack on the long window
    long_grid = TimeGrid(0.0, 0.01, 3001, nu)
    _gate(rep, 2, op_norm(CausalOp.antiderivative_op(long_grid)), 1.0 / nu + 0.02)
    return rep


def _random_accretive(rng, dim):
    """The identity plus a random skew part of norm 0.4: Hermitian part 1."""
    k = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    skew = 0.5 * (k - k.conj().T)
    return np.eye(dim) + 0.4 * skew / max(np.linalg.norm(skew, 2), 1e-12)


def _random_bounded(rng, dim):
    """A random matrix of spectral norm 1."""
    k = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return k * (1.0 / np.linalg.norm(k, 2))


def run_ode_block(cfg: dict) -> ConvergenceReport:
    """Two-route agreement and the quantitative residual estimate."""
    rng = np.random.default_rng(cfg["seed"])
    rep = ConvergenceReport("ode-block", metadata={"seed": cfg["seed"]})

    # scalar closed form: du + u = 1_{[0,inf)} -> 1 - exp(-t)
    grid1 = TimeGrid(0.0, 0.01, 3001, 2.5)
    sys1 = OdeBlockSystem(M=Coefficient.constant([[1.0]], 1.0),
                          N00=Coefficient.constant([[1.0]]), c=1.0)
    F1 = Signal.indicator(grid1, 0.0, 1e9)
    u1 = Signal(grid1, solve_ode_block_stepping(sys1, F1))
    oracle = 1.0 - np.exp(-np.maximum(grid1.times, 0.0))
    err = float(np.max(np.abs(u1.values[:, 0] - oracle)))
    _gate(rep, 0, err, 2.0 * grid1.dt)

    # random bounded blocks at nu = 20, c = 1: route gap and theta bound
    nu = cfg["nu"]
    grid = TimeGrid(0.0, cfg["dt"], int(cfg["n"]), nu)
    m0 = m1 = 2
    sysb = OdeBlockSystem(
        M=Coefficient.constant(_random_accretive(rng, m0), 1.0),
        N00=Coefficient.constant(_random_bounded(rng, m0)),
        N01=Coefficient.constant(_random_bounded(rng, m0)),
        N10=Coefficient.constant(_random_bounded(rng, m1)),
        N11=Coefficient.constant(_random_accretive(rng, m1), 1.0),
        c=1.0,
    )
    F = Signal(grid, rng.standard_normal((grid.n, m0 + m1))
               + 1j * rng.standard_normal((grid.n, m0 + m1)))
    routes_tol = 1e-6  # the series' truncation tolerance bounds the route gap
    _, gap = _ode_block_routes(sysb, F, routes_tol)
    _gate(rep, 1, gap, routes_tol)

    # residual estimate: |B^-1 diag(d,1) - [[M^-1,0],[-N11^-1 N10 M^-1, N11^-1]]|
    ns = sysb.block_norms(grid)
    c0 = c1 = sysb.c
    theta = sysb.theta(grid)
    rhs_bound = (c1 * ns["N01"] + ns["N01"] * ns["N10"]) / (c0 * c1**2 * nu) + (
        theta / (1 - theta)
    ) * (
        1 / c0 + ns["N01"] / (c0 * c1 * nu) + ns["N10"] / (c0 * c1)
        + ns["N01"] * ns["N10"] / (c0 * c1**2 * nu)
    )
    M_mats = sysb.M.sample_all(grid)
    N10_m = sysb.N10.sample_all(grid)
    N11_m = sysb.N11.sample_all(grid)
    M_inv = np.linalg.inv(M_mats)
    N11_inv = np.linalg.inv(N11_m)

    def exact(phi: Signal) -> Signal:
        top = np.einsum("kab,kb->ka", M_inv, phi.values[:, :m0])
        bot = np.einsum("kab,kb->ka", N11_inv, phi.values[:, m0:]) - np.einsum(
            "kab,kbc,kc->ka", N11_inv, np.einsum("kab,kbc->kac", N10_m, M_inv),
            phi.values[:, :m0],
        )
        return Signal(grid, np.concatenate([top, bot], axis=1))

    # the probes' right-hand sides diag(d/dt, 1) phi step as one (n, m, K)
    # batch; `probe_sup` takes the probes, and so the state columns, in order
    probes = ProbeSet(grid, dim=m0 + m1, seed=cfg["seed"])
    rhs = np.stack([np.concatenate([derivative(Signal(grid, phi.values[:, :m0])).values,
                                    phi.values[:, m0:]], axis=1) for phi in probes], axis=2)
    cols = iter(np.moveaxis(np.array(list(_step_ode_block(sysb, rhs, grid))), 2, 0))
    observed = probe_sup(lambda phi: Signal(grid, next(cols)) - exact(phi), probes)
    rep.metadata["theta"] = theta
    _gate(rep, 2, observed, rhs_bound * (1 + 0.05))
    return rep


def run_picard(cfg: dict) -> ConvergenceReport:
    """Fixed-point integrator against a staggered-lattice RK4 reference.

    The contraction solution lives on staggered cell midpoints (its
    cumulative sum is midpoint-exact there), so the fourth-order reference
    is evaluated at t_k + dt/2.  Both are compared at nu = 2, the weight
    `picard_solve` works at for the Lipschitz bound 1.
    """
    dt = cfg["dt"]
    grid = TimeGrid(0.0, dt, int(round(cfg["t_end"] / dt)) + 1, 2.0)
    t = grid.times
    amp, c0, s0 = 1.0, 0.75, 0.2

    def pulse(s):
        return amp * np.exp(-(((s - c0) / s0) ** 2))

    f_sig = Signal(grid, pulse(t))
    u = picard_solve(np.sin, 1.0, f_sig, tol=1e-12)
    y, s = 0.0, 0.0
    ref = np.empty(grid.n)
    for k in range(grid.n):
        target = t[k] + dt / 2
        h = target - s
        k1 = np.sin(y) + pulse(s)
        k2 = np.sin(y + h / 2 * k1) + pulse(s + h / 2)
        k3 = np.sin(y + h / 2 * k2) + pulse(s + h / 2)
        k4 = np.sin(y + h * k3) + pulse(s + h)
        y += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        s = target
        ref[k] = y
    ref_sig = Signal(grid, ref)
    rel = norm_nu(u - ref_sig) / norm_nu(ref_sig)
    rep = ConvergenceReport("picard", metadata={"seed": cfg["seed"]})
    _gate(rep, 0, rel, 1e-3)
    return rep


def run_transfer(cfg: dict) -> ConvergenceReport:
    """Symbol extraction for identity, causal integration, and delay."""
    grid = TimeGrid(0.0, cfg["dt"], int(round(cfg["t_end"] / cfg["dt"])) + 1, cfg["nu"])
    z_samples = [1.0 + 0.0j, 1.0 + 1.0j, 2.0 + 0.0j]
    cases = [
        ("identity", CausalOp.identity(grid), lambda z: 1.0),
        ("antiderivative", CausalOp.antiderivative_op(grid), lambda z: 1.0 / z),
        ("delay-1", CausalOp.shift_op(grid, -1.0), lambda z: np.exp(-z)),
    ]
    rep = ConvergenceReport("transfer", metadata={"z_samples": [str(z) for z in z_samples]})
    for idx, (name, S, truth) in enumerate(cases):
        ms = transfer_function(S, z_samples)
        err = max(abs(ms[i][0, 0] - truth(z)) for i, z in enumerate(z_samples))
        _gate(rep, idx, err, 1e-3)
        rep.metadata[name] = err
    return rep


def run_causality_suite(cfg: dict) -> ConvergenceReport:
    """All-cuts causality audit of every solution operator, the anti-causal
    control, and the weight-independence defects of four solution maps."""
    nu = cfg["nu"]
    seed = cfg["seed"]
    grid = TimeGrid(0.0, cfg["dt"], int(cfg["n"]), nu)
    m_x = int(cfg["m_x"])
    rng = np.random.default_rng(seed)
    t = grid.times
    rep = ConvergenceReport("causality-suite", metadata={"seed": seed})

    # ODE block with random constant blocks
    sysb = OdeBlockSystem(
        M=Coefficient.constant(_random_accretive(rng, 2), 1.0),
        N00=Coefficient.constant(_random_bounded(rng, 2)), c=1.0,
    )
    F2 = Signal(grid, np.column_stack([
        np.exp(-(((t - 3.0) / 0.8) ** 2)), np.exp(-(((t - 5.0) / 1.2) ** 2))
    ]))

    # heat, maxwell, wave on the reference window
    xi = np.linspace(0.0, 1.0, m_x + 2)[1:-1]
    xe = np.linspace(0.0, 1.0, m_x + 1)
    mode = np.sin(np.pi * xi)
    drive = np.exp(-(((t - 2.0) / 0.6) ** 2))
    F_state = np.zeros((grid.n, 2 * m_x + 1), dtype=complex)
    F_state[:, :m_x] = np.outer(drive, mode)
    F_state = Signal(grid, F_state)
    a_edge = 1.0 + 0.5 * np.sin(2 * np.pi * xe)
    eps = Coefficient.scalar_profile(lambda s: 1.0 + 0.25 * np.cos(s),
                                     deriv=lambda s: -0.25 * np.sin(s))
    one = Coefficient.scalar_profile(lambda s: 1.0, deriv=lambda s: 0.0)
    skew = np.array([[0.0, -1.0], [1.0, 0.0]])
    sys_skew = PdeSystem.dense_small(
        Coefficient.constant(np.eye(2), 1.0),
        Coefficient.constant(0.2 * np.eye(2)),
        SpatialOperator.skew_matrix(skew), c=1.0,
    )
    defects = {
        "ode-block": audit.audit_ode_block(sysb, F2, grid),
        "heat": audit.audit_pde(PdeSystem.heat(a_edge, nu=nu), F_state, grid),
        "maxwell": audit.audit_pde(PdeSystem.maxwell(eps, one, one, m_x), F_state, grid),
        "wave": audit.audit_pde(PdeSystem.wave(2.0 + np.sin(2 * np.pi * xe), nu=nu),
                                F_state, grid),
        "skew-dbf": audit.audit_pde(sys_skew, F2, grid),
        "picard": audit.audit_picard(np.sin, 1.0, Signal(grid, drive)),
    }
    for row, (key, d) in enumerate(defects.items()):
        _gate(rep, row, d, 1e-10)
        rep.metadata[key] = d

    # anti-causal control: shift by +5 dt must violate causality loudly
    probes = ProbeSet(grid, dim=1, seed=seed)
    S_bad = CausalOp.shift_op(grid, +5 * grid.dt)
    bad = causality_defect(S_bad, grid.t0 + 0.1 * (grid.t_end - grid.t0), probes)
    rep.add_row(len(defects), norm_error=bad, bound_rhs=0.1, verdict=bad > 0.1)
    rep.metadata["anticausal-control"] = bad

    # weight independence of the solution maps on compactly supported data.
    # Stepping engines are compared on the reference grid; the series and
    # multiplier routes use a window with nu * T moderate, because their
    # weighted-norm truncation tails blow up by exp(2 nu T) when re-measured
    # in the unweighted norm of a long window.
    nu_tol = 10.0 * grid.dt
    grid_short = TimeGrid(0.0, grid.dt, min(grid.n, 1001), nu)
    probes_short = ProbeSet(grid_short, dim=1, seed=seed)

    # one scalar relaxation for stepping and series; N00 = 1/2 keeps the
    # series contraction at both weights nu and 2 nu
    sysn = OdeBlockSystem(M=Coefficient.constant([[1.0]], 1.0),
                          N00=Coefficient.constant([[0.5]]), c=1.0)

    def heat_solve(v: np.ndarray, g: TimeGrid) -> np.ndarray:
        F = np.zeros((g.n, 2 * m_x + 1), dtype=complex)
        F[:, :m_x] = np.outer(v[:, 0], mode)
        return solve_evo_pde(PdeSystem.heat(a_edge, nu=g.nu), F, g)[:, :1]

    # the multiplier route is certified on smooth interior probes only: the
    # exp(+nu t) undamping amplifies the spectral tail of non-smooth inputs
    cases = (
        ("stepping", lambda v, g: solve_ode_block_stepping(sysn, Signal(g, v)), probes),
        ("heat", heat_solve, probes),
        ("neumann", lambda v, g: solve_ode_block_neumann(sysn, Signal(g, v), 1e-10),
         probes_short),
        ("multiplier", lambda v, g: apply_multiplier(MultiplierFunction.scalar(lambda z: z),
                                                     Signal(g, v)).values,
         probes_short.smooth_only()),
    )
    for row, (name, solve, pset) in enumerate(cases, start=len(defects) + 1):
        defect = nu_independence_defect(solve, nu, 2 * nu, pset)
        _gate(rep, row, defect, nu_tol)
        rep.metadata[f"nu-indep-{name}"] = defect
    return rep


def run_timprod(cfg: dict) -> ConvergenceReport:
    profile = lambda y: np.sin(2 * np.pi * np.asarray(y))
    return product_mean_limit(
        [profile, profile], list(cfg["scales"]), nu=cfg["nu"], seed=cfg["seed"],
    )


def run_dbf(cfg: dict) -> ConvergenceReport:
    eps = lambda y: 2.0 + np.sin(2 * np.pi * np.asarray(y))
    mu = lambda y: 2.0 + np.sin(2 * np.pi * np.asarray(y) + 1.0)
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    limit = None
    if cfg.get("control") == "arithmetic":
        limit = (2.0, 2.0)  # straw man: arithmetic means, must fail
    return dbf_experiment(
        eps, mu, A, list(cfg["scales"]), nu=cfg["nu"], seed=cfg["seed"],
        limit_coefficients=limit,
    )


def run_memory_kernel(cfg: dict) -> ConvergenceReport:
    return memory_kernel_experiment(list(cfg["scales"]), nu=cfg["nu"], seed=cfg["seed"])


def run_eddy(cfg: dict) -> ConvergenceReport:
    def mk(n):
        c = Coefficient.scalar_profile(
            lambda t, n=n: (1.0 + 0.5 * np.cos(t)) / n,
            deriv=lambda t, n=n: -0.5 * np.sin(t) / n,
        )
        return (n, c, 1.5 / n, 0.5 / n)

    return eddy_current_experiment(
        [mk(n) for n in cfg["scales"]], eta_list=list(cfg["eta_list"]), seed=cfg["seed"])


def run_heat(cfg: dict) -> ConvergenceReport:
    m_x = int(cfg["m_x"])
    xe = np.linspace(0.0, 1.0, m_x + 1)
    base = 1.0 + 0.25 * np.sin(2 * np.pi * xe)
    family = [(k, base + (1.0 / k) * 0.5 * np.cos(2 * np.pi * xe)) for k in cfg["scales"]]
    rep = heat_strong_continuity_experiment(family, base, nu=cfg["nu"], seed=cfg["seed"])
    # Lemma-style constant of the inverted coefficient on sampled matrices
    rng = np.random.default_rng(cfg["seed"])
    worst_gap = 0.0
    for _ in range(20):
        k = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = 1.0 * np.eye(3) + 0.4 * (k - k.conj().T) / np.linalg.norm(k, 2) \
            + 0.3 * (k + k.conj().T) / np.linalg.norm(k, 2)
        herm = 0.5 * (a + a.conj().T)
        c_a = float(np.linalg.eigvalsh(herm)[0])
        if c_a <= 0:
            continue
        norm_a = float(np.linalg.norm(a, 2))
        inv_herm = 0.5 * (np.linalg.inv(a) + np.linalg.inv(a).conj().T)
        low = float(np.linalg.eigvalsh(inv_herm)[0])
        worst_gap = max(worst_gap, (c_a / norm_a**2) - low)
    rep.metadata["ainv_constant_gap"] = worst_gap
    rep.add_row(999, norm_error=max(worst_gap, 0.0), bound_rhs=1e-10, verdict=worst_gap <= 1e-10)
    return rep


def run_wave(cfg: dict) -> ConvergenceReport:
    profile = lambda y: 2.0 + np.sin(2 * np.pi * np.asarray(y))
    return wave_g_convergence_experiment(
        profile, list(cfg["scales"]), nu=cfg["nu"], seed=cfg["seed"])


def run_funid(cfg: dict) -> ConvergenceReport:
    rng = np.random.default_rng(cfg["seed"])
    nu = cfg["nu"]
    grid = TimeGrid(0.0, cfg["dt"], int(cfg["n"]), nu)
    t = grid.times
    A = SpatialOperator.skew_matrix(np.array([[0.0, -1.0], [1.0, 0.0]]))
    f = Signal(grid, np.column_stack([
        np.exp(-(((t - 2.0) / 0.5) ** 2)), np.exp(-(((t - 3.0) / 0.7) ** 2))
    ]))
    rep = ConvergenceReport("funid", metadata={"seed": cfg["seed"]})

    M = Coefficient.constant(_random_accretive(rng, 2), 0.7)
    N = Coefficient.constant(0.3 * _random_bounded(rng, 2))
    r0 = funid_residual(M, N, M, N, A, f, c=0.5)
    _gate(rep, 0, r0, 1e-12)

    worst = 0.0
    systems = []
    for _ in range(3):
        Mi = Coefficient.constant(_random_accretive(rng, 2), 0.7)
        Ni = Coefficient.constant(0.3 * _random_bounded(rng, 2))
        Oi = Coefficient.constant(_random_accretive(rng, 2), 0.7)
        Pi = Coefficient.constant(0.3 * _random_bounded(rng, 2))
        worst = max(worst, funid_residual(Mi, Ni, Oi, Pi, A, f, c=0.5))
        systems.append((Mi, Ni, Oi, Pi))
    _gate(rep, 1, worst, 1e-6)

    # quantitative continuity estimate on probes with declared slack
    Mi, Ni, Oi, Pi = systems[0]
    c_pos = 0.6  # Re(nu M + N) >= 1 - 0.4/... conservative certified floor
    sys_mn = PdeSystem.dense_small(Mi, Ni, A, c_pos)
    sys_op = PdeSystem.dense_small(Oi, Pi, A, c_pos)

    O_m = Oi.sample_all(grid)
    M_m = Mi.sample_all(grid)
    N_m = Ni.sample_all(grid)
    P_m = Pi.sample_all(grid)
    probes = ProbeSet(grid, dim=2, seed=cfg["seed"])

    # every probe in one (n, 2, K) pass per system
    us = solve_evo_pde(sys_op, np.stack([phi.values for phi in probes], axis=2), grid)
    jus = [antiderivative(Signal(grid, us[:, :, j])) for j in range(len(probes))]
    ys = solve_evo_pde(sys_mn, np.stack([evo_pde_forward(sys_op, ju).values for ju in jus],
                                        axis=2), grid)

    lhs_best = rhs_m = rhs_n = 0.0
    for j, (phi, ju) in enumerate(zip(probes, jus)):
        nphi = max(norm_nu(phi), NORM_FLOOR)
        v = Signal(grid, ys[:, :, j]) - ju
        lhs_best = max(lhs_best, norm_nu(v) / nphi)
        rhs_m = max(rhs_m, norm_nu(Signal(grid, np.einsum("kab,kb->ka", M_m - O_m, us[:, :, j]))) / nphi)
        rhs_n = max(rhs_n, norm_nu(Signal(grid, np.einsum("kab,kb->ka", N_m - P_m, ju.values))) / nphi)
    _gate(rep, 2, lhs_best, (1.0 / c_pos) * (rhs_m + rhs_n) * (1 + 0.05))
    return rep


RUNNERS = {
    "spectrum": run_spectrum,
    "ode-block": run_ode_block,
    "picard": run_picard,
    "transfer": run_transfer,
    "causality-suite": run_causality_suite,
    "timprod": run_timprod,
    "dbf": run_dbf,
    "memory-kernel": run_memory_kernel,
    "eddy": run_eddy,
    "heat": run_heat,
    "wave": run_wave,
    "funid": run_funid,
}
