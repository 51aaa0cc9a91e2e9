"""Span tracing from outside the program, and the per-layer metrics.

`install` replaces every function of the seven evocalc layers, in every
evocalc namespace that binds it, by a wrapper that records a span (name,
start, end, parent).  Wrapping the binding in each namespace catches calls
through `from .solvers import _dispatch_step` as well as through the module
and the package.  A few methods (`Coefficient.sample_all`,
`OdeBlockSystem.block_norms`, `CausalOp.materialize`), the runner table of
`experiments` and the PDE-system constructors are wrapped on their class or
dict.  Nothing in `src/` changes.

Spans stay in memory; `Tracer.dump` writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
import tracemalloc
from collections import Counter
from pathlib import Path

LAYERS = ("signals", "timecalc", "operators", "solvers", "homogenization",
          "causality_audit", "experiments", "cli")
# High-frequency leaves: a span each would swamp the layers they sit under
# (norm_nu runs inside every probe loop), so these are only counted.
COUNT_ONLY = {"signals.inner_nu", "signals.norm_nu", "signals.check_compatible"}
METHODS = (("signals", "Coefficient", "sample_all"),
           ("signals", "Coefficient", "sample_deriv_all"),
           ("solvers", "OdeBlockSystem", "block_norms"),
           ("operators", "CausalOp", "materialize"))
AUDIT_ENTRIES = {"causality_audit.audit_ode_block", "causality_audit.audit_pde",
                 "causality_audit.audit_skew", "causality_audit.audit_picard"}
PDE_KINDS = ("heat", "maxwell", "wave")

# Inclusive-time groups: a group's time is the sum of its outermost spans,
# so an entry point calling another entry point is not counted twice.
GROUPS = {
    "causality_audit.audit_ode_block": {"causality_audit.audit_ode_block"},
    "causality_audit.audit_pde.heat": {"causality_audit.audit_pde.heat"},
    "causality_audit.audit_pde.maxwell": {"causality_audit.audit_pde.maxwell"},
    "causality_audit.audit_pde.wave": {"causality_audit.audit_pde.wave"},
    "causality_audit.audit_skew": {"causality_audit.audit_skew"},
    "causality_audit.audit_picard": {"causality_audit.audit_picard"},
    "operators.op_norm": {"operators.op_norm"},
    "operators.materialize": {"operators.materialize"},
    "operators.transfer_function": {"operators.transfer_function"},
    "solvers.step": {"solvers.solve_ode_block_stepping", "solvers.dispatch_step",
                     "solvers.step_skew_dense", "solvers.step_grad_div",
                     "solvers.step_wave"},
    "solvers.neumann": {"solvers.solve_ode_block_neumann"},
    "solvers.block_norms": {"solvers.block_norms"},
    "solvers.elliptic_solve": {"solvers.elliptic_solve"},
    "solvers.picard_solve": {"solvers.picard_solve"},
    "solvers.funid_residual": {"solvers.funid_residual"},
    "timecalc.spectrum_of_antiderivative": {"timecalc.spectrum_of_antiderivative"},
    "timecalc.apply_multiplier": {"timecalc.apply_multiplier"},
    "timecalc.resolvent": {"timecalc.resolvent"},
    "timecalc.antiderivative": {"timecalc.antiderivative"},
    "signals.sample_all": {"signals.sample_all"},
    "homogenization.product_mean_limit": {"homogenization.product_mean_limit"},
    "homogenization.dbf_experiment": {"homogenization.dbf_experiment"},
    "homogenization.memory_kernel_experiment": {"homogenization.memory_kernel_experiment"},
    "homogenization.eddy_current_experiment": {"homogenization.eddy_current_experiment"},
    "homogenization.wave_g_convergence_experiment":
        {"homogenization.wave_g_convergence_experiment"},
    "homogenization.heat_strong_continuity_experiment":
        {"homogenization.heat_strong_continuity_experiment"},
    "homogenization.weak_pairing_error": {"homogenization.weak_pairing_error"},
    "homogenization.strong_error": {"homogenization.strong_error"},
    "cli.parse_config": {"cli.parse_config"},
    "cli.write_outputs": {"cli.write_outputs"},
}
CALL_GROUPS = ("operators.op_norm", "solvers.step", "timecalc.antiderivative",
               "signals.sample_all")
# the runners the ladders configs reach; the audit workload calls the
# causality suite's audits directly
RUNNERS = ("spectrum", "ode_block", "picard", "transfer", "timprod", "dbf",
           "memory_kernel", "eddy", "heat", "wave", "funid")
for _runner in RUNNERS:
    GROUPS[f"experiments.{_runner}"] = {f"experiments.run_{_runner}"}


class Tracer:
    """In-memory span recorder; one per traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []      # (name id, start, end, parent index)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.cuts = 0
        self.picard_peak_bytes = 0
        self.pde_kind: dict[int, tuple] = {}
        self.paused = False

    @contextlib.contextmanager
    def pause(self):
        """Leave out what the benchmark's own output checks call."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((self._id(name), time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1))
        self.stack.append(idx)
        return idx

    def _exit(self, idx: int):
        self.stack.pop()
        nid, start, _, parent = self.spans[idx]
        self.spans[idx] = (nid, start, time.perf_counter(), parent)

    def wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                if not self.paused:
                    self.counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        if name == "causality_audit.audit_picard":
            return self._wrap_picard(name, fn)
        label = self._audit_label if name in AUDIT_ENTRIES else None

        def spanned(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span_name = label(name, args) if label else name
            idx = self._enter(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)
        return spanned

    def _audit_label(self, name: str, args) -> str:
        # audit entry points take (sys, F, grid); count cuts at the outermost
        if not self._inside("causality_audit."):
            self.cuts += args[2].n
        if name == "causality_audit.audit_pde":
            return f"{name}.{self.pde_kind.get(id(args[0]), (None, 'other'))[1]}"
        return name

    def _inside(self, prefix: str) -> bool:
        return any(self.names[self.spans[i][0]].startswith(prefix) for i in self.stack)

    def _wrap_picard(self, name: str, fn):
        def spanned(F_rule, lip, f, *args, **kwargs):
            if self.paused:
                return fn(F_rule, lip, f, *args, **kwargs)
            if not self._inside("causality_audit."):
                self.cuts += f.grid.n
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            tracemalloc.reset_peak()
            idx = self._enter(name)
            try:
                return fn(F_rule, lip, f, *args, **kwargs)
            finally:
                self._exit(idx)
                self.picard_peak_bytes = max(self.picard_peak_bytes,
                                             tracemalloc.get_traced_memory()[1])
                if started:
                    tracemalloc.stop()
        return spanned

    def wrap_pde_constructor(self, kind: str, fn):
        def build(*args, **kwargs):
            system = fn(*args, **kwargs)
            # keep the object alive so its id cannot be reused
            self.pde_kind[id(system)] = (system, kind)
            return system
        return staticmethod(build)

    # -- results ------------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Seconds and counts per pass by layer, group and runner, and the
        largest allocation peak of one Picard audit."""
        n = len(self.spans)
        names = [self.names[s[0]] for s in self.spans]
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * n
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for i in range(n):
            out[f"{names[i].split('.', 1)[0]}.self_s"] += dur[i] - child[i]
        member_of: dict[str, list[str]] = {}
        for group, members in GROUPS.items():
            out[f"{group}.s"] = 0.0
            for name in members:
                member_of.setdefault(name, []).append(group)
        calls = Counter()
        for i in range(n):
            for group in member_of.get(names[i], ()):
                if not self._has_ancestor_in(i, names, GROUPS[group]):
                    out[f"{group}.s"] += dur[i]
                    calls[group] += 1
        for group in CALL_GROUPS:
            out[f"{group}.calls"] = calls[group]
        out["signals.norm_nu.calls"] = self.counts["signals.norm_nu"]
        out["signals.inner_nu.calls"] = self.counts["signals.inner_nu"]
        out["causality_audit.cuts"] = self.cuts
        per_pass = {k: v / max(passes, 1) for k, v in out.items()}
        per_pass["causality_audit.audit_picard.peak_alloc_mb"] = self.picard_peak_bytes / 2**20
        return per_pass

    def _has_ancestor_in(self, i: int, names: list[str], members: set) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if names[p] in members:
                return True
            p = self.spans[p][3]
        return False

    def dump(self, path: Path):
        """Write the spans as CSV: name, start, end, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for nid, start, end, parent in self.spans:
                fh.write(f"{self.names[nid]},{start:.9f},{end:.9f},{parent}\n")


def install(ev, tracer: Tracer):
    """Wrap the layers' functions; returns a callable that undoes it."""
    modules = {layer: importlib.import_module(f"evocalc.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrapped[obj] = tracer.wrap(f"{layer}.{attr.lstrip('_')}", obj)
    undo = []
    for ns in [ev, *modules.values()]:
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                undo.append((ns, attr, obj))
                setattr(ns, attr, wrapped[obj])
    runners = modules["experiments"].RUNNERS
    original_runners = dict(runners)
    for key, fn in original_runners.items():
        runners[key] = wrapped.get(fn, fn)
    for layer, cls_name, meth in METHODS:
        cls = getattr(modules[layer], cls_name)
        undo.append((cls, meth, cls.__dict__[meth]))
        setattr(cls, meth, tracer.wrap(f"{layer}.{meth}", cls.__dict__[meth]))
    pde = modules["solvers"].PdeSystem
    for kind in PDE_KINDS:
        undo.append((pde, kind, pde.__dict__[kind]))
        setattr(pde, kind, tracer.wrap_pde_constructor(kind, pde.__dict__[kind].__func__))

    def uninstall():
        for ns, attr, obj in reversed(undo):
            setattr(ns, attr, obj)
        runners.update(original_runners)
    return uninstall
