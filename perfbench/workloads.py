"""The benchmark's three workloads and the checks on their outputs.

Each workload is a closed loop with one caller: a pass is a fixed list of
operations, run one after another, and the harness in `run.py` repeats
passes for the measured time.  The program only ever sees inputs generated
here from the workload seed.

* ``audit``: the six all-cuts causality audits of the causality-suite
  experiment, called one by one on that experiment's systems.
* ``ladders``: the twelve shipped configs other than the causality suite,
  one `evocalc run` each, including the arithmetic-mean control that must
  fail.
* ``kernels``: single public-API calls at pinned sizes, one call each.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CHECKOUT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 42
# The shipped causality-suite config (n = 3001) runs for 65-78 s on a 2-core
# host.  Run whole at n = 751 (5-7 s, arrays of several MB) its fastest
# time still spread by 0.31 (quartile distance over median) across ten runs
# on a shared host, so the audit workload calls the experiment's six audits
# one by one at n = 401: each call takes 0.02-0.4 s and its O(n^2)
# ensembles stay small enough to sit in cache.  At that size they no longer
# show in the process's peak RSS; the traced run's tracemalloc peak of the
# Picard audit still measures them.
AUDIT_N = 401
AUDIT_TOL = 1e-10  # the suite's tol.defect
# Gated CSV values may move in the last printed digit under a fast path
# that reorders roundoff; this is the agreement demanded at the default seed
# (also for the audit defects, which the suite gates at 1e-10).
CSV_RTOL = 1e-6
CSV_ATOL = 1e-12
KERNEL_RTOL = 1e-8

WORKLOADS = ("audit", "ladders", "kernels")


class SetupError(RuntimeError):
    """The checkout lacks the program or its configs."""


def load_program():
    """Import evocalc from this checkout's `src/`, never from elsewhere."""
    src = CHECKOUT / "src"
    if not (src / "evocalc" / "__init__.py").is_file():
        raise SetupError(f"no evocalc sources under {src}")
    sys.path.insert(0, str(src))
    import evocalc

    if Path(evocalc.__file__).resolve().parent != (src / "evocalc").resolve():
        raise SetupError(f"evocalc imported from {evocalc.__file__}, not {src}")
    return evocalc


@dataclass
class Operation:
    """One unit of work: `run` does it, `check` returns an error or None."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


# ---------------------------------------------------------------------------
# ladders: config runs through the command-line layer
# ---------------------------------------------------------------------------

def generate_configs(seed: int, workdir: Path) -> list[Path]:
    """Copy the shipped configs other than the causality suite into
    `workdir` with the workload seed set."""
    cfg_dir = CHECKOUT / "configs"
    paths = [p for p in sorted(cfg_dir.glob("*.cfg")) if p.name != "causality_suite.cfg"]
    if not paths:
        raise SetupError(f"no shipped configs under {cfg_dir}")
    workdir.mkdir(parents=True, exist_ok=True)
    out = []
    for src in paths:
        lines = [ln for ln in src.read_text().splitlines()
                 if ln.split("=", 1)[0].strip() != "seed"]
        lines.append(f"seed = {seed}")
        dst = workdir / src.name
        dst.write_text("\n".join(lines) + "\n")
        out.append(dst)
    return out


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _close(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= CSV_RTOL * abs(y) + CSV_ATOL


def csv_mismatch(rows: list[list[str]], ref: list[list[str]]) -> str | None:
    """Compare CSV rows: scale and verdict exactly, numbers within tolerance."""
    if len(rows) != len(ref):
        return f"{len(rows)} CSV rows, reference has {len(ref)}"
    for row, want in zip(rows, ref):
        if row[0] != want[0] or row[-1] != want[-1]:
            return f"row {row} differs from reference {want}"
        for a, b in zip(row[1:-1], want[1:-1]):
            if not _close(a, b):
                return f"row {row} differs from reference {want}"
    return None


def ladder_operations(ev, seed: int, workdir: Path,
                      reference: dict | None) -> list[Operation]:
    """One operation per generated config, run as `evocalc run <config>`.

    The check demands the exit status that the config's `expect` implies
    (0 for pass, 2 for a failed verdict) and, when a reference is given,
    the recorded CSV values.
    """
    from evocalc import cli

    ops = []
    for path in generate_configs(seed, workdir):
        expect = cli.parse_config(path)["expect"]

        def check(status, path=path, expect=expect):
            want = 0 if expect == "pass" else 2
            if status != want:
                return f"{path.name}: exit status {status}, expected {want}"
            if reference is None:
                return None
            err = csv_mismatch(read_csv(path.with_suffix(".csv")),
                               reference["csv"][path.name])
            return f"{path.name}: {err}" if err else None

        ops.append(Operation(path.name, lambda path=path: cli.run(path), check))
    return ops


def _accretive(rng, dim):
    import numpy as np

    k = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    skew = 0.5 * (k - k.conj().T)
    return np.eye(dim) + 0.4 * skew / np.linalg.norm(skew, 2)


def _bounded(rng, dim):
    import numpy as np

    k = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return k / np.linalg.norm(k, 2)


# ---------------------------------------------------------------------------
# audit: the causality-suite experiment's all-cuts audits, one call each
# ---------------------------------------------------------------------------

def audit_operations(ev, seed: int, reference: dict | None) -> list[Operation]:
    """The systems and drives of the causality-suite experiment, with its
    random blocks and the drive centres drawn from the seed.  Each audit's
    defect must stay within the suite's tolerance and, with a reference,
    match the recorded one."""
    import numpy as np
    from evocalc import causality_audit as ca

    s, sv = ev.signals, ev.solvers
    rng = np.random.default_rng(seed)
    nu, m_x = 1.0, 16
    grid = s.TimeGrid(0.0, 0.01, AUDIT_N, nu)
    t = grid.times
    C = s.Coefficient.constant
    ode = sv.OdeBlockSystem(M=C(_accretive(rng, 2), 1.0), N00=C(_bounded(rng, 2)), c=1.0)
    centres = rng.uniform(1.0, 3.0, size=3)
    F2 = s.Signal(grid, np.column_stack([np.exp(-(((t - centres[0]) / 0.4) ** 2)),
                                         np.exp(-(((t - centres[1]) / 0.6) ** 2))]))
    xi = np.linspace(0.0, 1.0, m_x + 2)[1:-1]
    xe = np.linspace(0.0, 1.0, m_x + 1)
    drive = np.exp(-(((t - centres[2]) / 0.3) ** 2))
    F_state = np.zeros((grid.n, 2 * m_x + 1), dtype=complex)
    F_state[:, :m_x] = np.outer(drive, np.sin(np.pi * xi))
    F_pde = s.Signal(grid, F_state)
    eps = s.Coefficient.scalar_profile(lambda x: 1.0 + 0.25 * np.cos(x),
                                       deriv=lambda x: -0.25 * np.sin(x))
    one = s.Coefficient.scalar_profile(lambda x: 1.0, deriv=lambda x: 0.0)
    heat = sv.PdeSystem.heat(1.0 + 0.5 * np.sin(2 * np.pi * xe), nu=nu)
    maxwell = sv.PdeSystem.maxwell(eps, one, one, m_x)
    wave = sv.PdeSystem.wave(2.0 + np.sin(2 * np.pi * xe), nu=nu)
    skew = sv.PdeSystem.dense_small(
        C(np.eye(2), 1.0), C(0.2 * np.eye(2)),
        sv.SpatialOperator.skew_matrix(np.array([[0.0, -1.0], [1.0, 0.0]])), c=1.0)

    calls = [
        ("audit_ode_block", lambda: ca.audit_ode_block(ode, F2, grid)),
        ("audit_pde.heat", lambda: ca.audit_pde(heat, F_pde, grid)),
        ("audit_pde.maxwell", lambda: ca.audit_pde(maxwell, F_pde, grid)),
        ("audit_pde.wave", lambda: ca.audit_pde(wave, F_pde, grid)),
        ("audit_skew", lambda: ca._audit_skew(skew, F2, grid)),
        ("audit_picard", lambda: ca.audit_picard(np.sin, 1.0, s.Signal(grid, drive))),
    ]
    ops = []
    for short, run in calls:
        name = f"causality_audit.{short}.{AUDIT_N}"

        def check(defect, name=name):
            if not 0.0 <= defect <= AUDIT_TOL:
                return f"{name}: defect {defect!r} outside [0, {AUDIT_TOL}]"
            if reference is not None and not _close(repr(defect), reference["audit"][name]):
                return f"{name}: defect {defect!r} != reference {reference['audit'][name]}"
            return None

        ops.append(Operation(name, run, check))
    return ops


# ---------------------------------------------------------------------------
# kernels: one public-API call per operation at pinned sizes
# ---------------------------------------------------------------------------

def digest(out) -> list[float]:
    """Norm and two position-sensitive projections (each bounded by the
    norm) of a kernel result; what the kernel reference records."""
    import numpy as np

    a = getattr(out, "dense", None)
    if a is None:
        a = getattr(out, "values", out)
    a = np.asarray(a, dtype=complex).ravel()
    w = np.cos(0.37 * np.arange(a.size)) + 1.5
    dot = complex(np.dot(w, a)) / float(np.linalg.norm(w))
    return [float(np.linalg.norm(a)), dot.real, dot.imag]


def digest_mismatch(got: list[float], want: list[float]) -> str | None:
    tol = KERNEL_RTOL * abs(want[0])
    if any(abs(g - r) > tol for g, r in zip(got, want)):
        return f"digest {got} != reference {want}"
    return None


def _rel(a, b) -> float:
    import numpy as np

    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))
                 / max(float(np.linalg.norm(np.asarray(b))), 1e-300))


def kernel_inputs(ev, seed: int) -> dict:
    """Seeded inputs for the kernel mix; built once per run (set-up)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    s, t = ev.signals, ev.timecalc

    def bumps(grid, dim, count=3):
        times = grid.times
        span = grid.t_end - grid.t0
        vals = np.zeros((grid.n, dim), dtype=complex)
        for _ in range(count):
            c = grid.t0 + span * rng.uniform(0.1, 0.5)
            w = span * rng.uniform(0.02, 0.06)
            amp = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            vals += np.outer(np.exp(-(((times - c) / w) ** 2)), amp)
        return s.Signal(grid, vals)

    long_grid = s.TimeGrid(0.0, 1e-3, 30001, 0.2)
    pde_grid = s.TimeGrid(0.0, 0.01, 201, 1.0)
    inp = {
        "long": bumps(long_grid, 1),
        # integers on a dyadic step: every partial sum and difference is
        # exact, so derivative(antiderivative(x)) == x must hold bit for bit
        # (on arbitrary floats the pair is inverse only to roundoff)
        "long_raw": s.Signal(s.TimeGrid(0.0, 2.0 ** -10, 30001, 0.2),
                             rng.integers(-1000, 1001, (30001, 1)).astype(complex)),
        "eps": float(rng.uniform(0.05, 0.2)),
        "multiplier": t.MultiplierFunction.scalar(lambda z: z),
    }
    for m_x in (100, 1024):
        x_edge = np.linspace(0.0, 1.0, m_x + 1)
        x_node = np.linspace(0.0, 1.0, m_x + 2)[1:-1]
        phase = rng.uniform(0.0, 2 * np.pi)
        inp[f"a{m_x}"] = 1.5 + 0.5 * np.sin(2 * np.pi * x_edge + phase)
        drive = bumps(pde_grid, 1).values[:, 0]
        inp[f"f{m_x}"] = s.Signal(pde_grid, np.outer(drive, np.sin(np.pi * x_node)))
        inp[f"rhs{m_x}"] = rng.standard_normal(m_x) + 1j * rng.standard_normal(m_x)
    inp["maxwell_J"] = s.Signal(pde_grid, np.outer(bumps(pde_grid, 1).values[:, 0],
                                                    np.ones(16)))
    inp["eps_coef"] = s.Coefficient.scalar_profile(
        lambda x: 1.0 + 0.25 * np.cos(x), deriv=lambda x: -0.25 * np.sin(x))
    inp["one_coef"] = s.Coefficient.scalar_profile(lambda x: 1.0, deriv=lambda x: 0.0)

    ode_grid = s.TimeGrid(0.0, 0.01, 2001, 20.0)

    C = s.Coefficient.constant
    inp["ode_sys"] = ev.solvers.OdeBlockSystem(
        M=C(_accretive(rng, 2), 1.0), N00=C(_bounded(rng, 2)), N01=C(_bounded(rng, 2)),
        N10=C(_bounded(rng, 2)), N11=C(_accretive(rng, 2), 1.0), c=1.0)
    inp["ode_F"] = s.Signal(ode_grid, rng.standard_normal((2001, 4))
                            + 1j * rng.standard_normal((2001, 4)))
    picard_grid = s.TimeGrid(0.0, 1e-3, 2001, 1.0)
    inp["picard_f"] = bumps(picard_grid, 1)
    nu = float(rng.uniform(0.5, 2.0))
    inp["nu"] = nu
    inp["J1024"] = ev.operators.CausalOp.antiderivative_op(s.TimeGrid(0.0, 0.01, 1024, nu))
    inp["J3001"] = ev.operators.CausalOp.antiderivative_op(s.TimeGrid(0.0, 0.01, 3001, nu))
    inp["probe1024"] = s.Signal(inp["J1024"].grid, rng.standard_normal((1024, 1)) + 0j)
    return inp


def kernel_operations(ev, seed: int, reference: dict | None) -> list[Operation]:
    """The fixed kernel mix.  Each call is looked up on its module at call
    time, so the traced run's wrappers see it.  Every check holds at any
    seed; with a reference the result must also match the recorded digest."""
    import numpy as np

    inp = kernel_inputs(ev, seed)
    s, t, o, sv = ev.signals, ev.timecalc, ev.operators, ev.solvers
    slack = 0.02  # the spectrum config's norm slack on |J| <= 1/nu

    def norm_bound(sys_c, f_vals, u):
        grid = u.grid
        nf = s.norm_nu(s.Signal(grid, f_vals))
        if not s.norm_nu(u) <= (1.0 / sys_c) * nf * 1.05 + 1e-14:
            return "norm bound |u| <= |f|/c violated"
        return None

    def pde_check(kind, m_x):
        def check(u):
            f = inp[f"f{m_x}"]
            F = np.zeros((f.grid.n, 2 * m_x + 1), dtype=complex)
            F[:, :m_x] = f.values
            build = sv.PdeSystem.heat if kind == "heat" else sv.PdeSystem.wave
            return norm_bound(build(inp[f"a{m_x}"], nu=1.0).c, F, u)
        return check

    def elliptic_check(m_x):
        def check(u):
            g = sv.staggered_grad0(m_x)
            lhs = g.T @ (inp[f"a{m_x}"] * (g @ u))
            if _rel(lhs, inp[f"rhs{m_x}"]) > 1e-8:
                return "elliptic residual above 1e-8"
            return None
        return check

    def op_norm_check(est):
        bound = 1.0 / inp["nu"] + slack
        return None if 0.5 / inp["nu"] < est <= bound else f"|J| = {est} outside (0.5/nu, {bound}]"

    def antiderivative_check(g):
        if not np.array_equal(t.derivative(g).values, inp["long_raw"].values):
            return "derivative(antiderivative(x)) != x"
        return None

    def resolvent_check(g):
        a = inp["eps"] / g.grid.dt
        prev = np.vstack([np.zeros((1, g.dim)), g.values[:-1]])
        if _rel(g.values + a * (g.values - prev), inp["long"].values) > 1e-12:
            return "resolvent recursion residual above 1e-12"
        return None

    def multiplier_check(g):
        # z -> z is the symbol of the continuous antiderivative; on smooth
        # inputs it must agree with the exact discrete one to O(dt)
        if _rel(g.values, t.antiderivative(inp["long"]).values) > 1e-2:
            return "multiplier z -> z disagrees with the antiderivative"
        return None

    def materialize_check(op):
        x = inp["probe1024"]
        if _rel(op.dense @ x.values.ravel(), inp["J1024"](x).values.ravel()) > 1e-12:
            return "materialized matrix disagrees with the operator"
        return None

    def finite(x):
        vals = getattr(x, "values", x)
        return None if np.all(np.isfinite(vals)) else "non-finite result"

    mix = [
        ("timecalc.antiderivative.30001",
         lambda: t.antiderivative(inp["long_raw"]), antiderivative_check),
        ("timecalc.resolvent.30001",
         lambda: t.resolvent(inp["long"], inp["eps"]), resolvent_check),
        ("timecalc.apply_multiplier.30001",
         lambda: t.apply_multiplier(inp["multiplier"], inp["long"]), multiplier_check),
        ("solvers.heat_1d_solve.100",
         lambda: sv.heat_1d_solve(inp["a100"], inp["f100"], 1.0), pde_check("heat", 100)),
        ("solvers.heat_1d_solve.1024",
         lambda: sv.heat_1d_solve(inp["a1024"], inp["f1024"], 1.0), pde_check("heat", 1024)),
        ("solvers.wave_1d_solve.100",
         lambda: sv.wave_1d_solve(inp["a100"], inp["f100"], 1.0), pde_check("wave", 100)),
        ("solvers.wave_1d_solve.1024",
         lambda: sv.wave_1d_solve(inp["a1024"], inp["f1024"], 1.0), pde_check("wave", 1024)),
        ("solvers.maxwell_1d_solve.16",
         lambda: sv.maxwell_1d_solve(inp["eps_coef"], inp["one_coef"], inp["one_coef"],
                                     inp["maxwell_J"], 1.0), finite),
        ("solvers.solve_ode_block.2001",
         lambda: sv.solve_ode_block(inp["ode_sys"], inp["ode_F"]), finite),
        ("solvers.picard_solve.2001",
         lambda: sv.picard_solve(np.sin, 1.0, inp["picard_f"], tol=1e-12), finite),
        ("solvers.elliptic_solve.100",
         lambda: sv.elliptic_solve(inp["a100"], inp["rhs100"]), elliptic_check(100)),
        ("solvers.elliptic_solve.1024",
         lambda: sv.elliptic_solve(inp["a1024"], inp["rhs1024"]), elliptic_check(1024)),
        ("operators.op_norm.dense.1024",
         lambda: o.op_norm(o.CausalOp(grid=inp["J1024"].grid, action=inp["J1024"].action)),
         op_norm_check),
        ("operators.op_norm.adjoint.3001",
         lambda: o.op_norm(inp["J3001"]), op_norm_check),
        ("operators.materialize.1024",
         lambda: inp["J1024"].materialize(), materialize_check),
    ]

    ops = []
    for name, run, invariant in mix:
        def check(out, name=name, invariant=invariant):
            err = invariant(out)
            if err is None and reference is not None:
                err = digest_mismatch(digest(out), reference["kernels"][name])
            return f"{name}: {err}" if err else None

        ops.append(Operation(name, run, check))
    return ops


def operations(ev, workload: str, seed: int, workdir: Path) -> list[Operation]:
    """The operations of one pass; the recorded reference applies only at
    the default seed, the seed it was recorded with."""
    reference = None
    if seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())
    if workload == "audit":
        return audit_operations(ev, seed, reference)
    if workload == "kernels":
        return kernel_operations(ev, seed, reference)
    return ladder_operations(ev, seed, workdir, reference)
