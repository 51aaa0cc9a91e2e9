"""The benchmark harness's reach into the program.

`perfbench/` calls evocalc through public and private names (the audits,
the PDE-system constructors, the kernel mix) and wraps its layers for the
traced run.  These tests load the harness modules read-only and check that
every operation still builds, that the audit operations and all kernels but
the dense SVD pass their own checks at the default seed, and that the
tracer installs and uninstalls.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
layertrace = load("layertrace")


@pytest.fixture(scope="module")
def ev():
    return workloads.load_program()


def test_audit_operations_pass_their_checks(ev, tmp_path):
    ops = workloads.operations(ev, "audit", workloads.DEFAULT_SEED, tmp_path)
    assert len(ops) == 6
    for op in ops:
        assert op.check(op.run()) is None, op.name


def test_kernel_operations_build(ev, tmp_path):
    ops = workloads.operations(ev, "kernels", workloads.DEFAULT_SEED, tmp_path)
    assert len(ops) == 15
    assert all(callable(op.run) and callable(op.check) for op in ops)


def test_kernel_operations_pass_their_checks(ev, tmp_path):
    # every kernel but the 0.4-s dense SVD runs its check here, digests
    # included, so a drift fails before the benchmark; two passes in one
    # process, as the benchmark runs them, so state carried between passes
    # (a cache written through, say) shows too
    ops = [op for op in workloads.operations(ev, "kernels", workloads.DEFAULT_SEED, tmp_path)
           if op.name != "operators.op_norm.dense.1024"]
    assert len(ops) == 14
    for _ in range(2):
        for op in ops:
            assert op.check(op.run()) is None, op.name


def test_ladder_operations_build(ev, tmp_path):
    ops = workloads.operations(ev, "ladders", workloads.DEFAULT_SEED, tmp_path)
    assert sorted(op.name for op in ops) == sorted(
        p.name for p in (workloads.CHECKOUT / "configs").glob("*.cfg")
        if p.name != "causality_suite.cfg")


def layer_functions():
    """Every function bound in an evocalc layer's namespace."""
    return {(layer, name): fn
            for layer in layertrace.LAYERS
            for name, fn in vars(importlib.import_module(f"evocalc.{layer}")).items()
            if inspect.isfunction(fn)}


def test_tracer_installs_and_uninstalls(ev, tmp_path):
    before = layer_functions()
    pde = ev.solvers.PdeSystem
    constructors = {kind: pde.__dict__[kind] for kind in layertrace.PDE_KINDS}
    tracer = layertrace.Tracer()
    uninstall = layertrace.install(ev, tracer)
    try:
        assert ev.solvers.heat_1d_solve is not before[("solvers", "heat_1d_solve")]
        heat = [op for op in workloads.operations(ev, "audit", 7, tmp_path)
                if op.name.startswith("causality_audit.audit_pde.heat")]
        assert heat[0].check(heat[0].run()) is None
    finally:
        uninstall()
    metrics = tracer.layer_metrics(1)
    assert metrics["causality_audit.audit_pde.heat.s"] > 0
    assert metrics["causality_audit.cuts"] == workloads.AUDIT_N
    assert layer_functions() == before
    assert {kind: pde.__dict__[kind] for kind in layertrace.PDE_KINDS} == constructors


def resolves(member: str) -> bool:
    """Whether a trace-group member names a function the tracer wraps: a
    layer function `name` or `_name`, a `METHODS` entry, or an audit entry
    with its PDE-kind label."""
    entry, _, kind = member.rpartition(".")
    if entry in layertrace.AUDIT_ENTRIES and kind in layertrace.PDE_KINDS:
        member = entry
    layer, _, name = member.partition(".")
    module = importlib.import_module(f"evocalc.{layer}")
    for mod_layer, cls_name, meth in layertrace.METHODS:
        if (mod_layer, meth) == (layer, name):
            return inspect.isfunction(vars(getattr(module, cls_name)).get(meth))
    return any(inspect.isfunction(fn) and fn.__module__ == module.__name__
               for fn in (getattr(module, name, None), getattr(module, f"_{name}", None)))


def test_trace_group_members_resolve():
    # a renamed or merged function would leave its group reading zero
    members = {m for group in layertrace.GROUPS.values() for m in group}
    assert sorted(m for m in members if not resolves(m)) == []
