"""evocalc benchmark: one workload per fresh process, closed loop, one caller.

    python3 perfbench/run.py --workload audit|ladders|kernels --seed N \
        --seconds S --trace 0|1 [--out result.json]
    python3 perfbench/run.py --workload all        # every workload, one table

Run from the root of a checkout; the program is imported from its `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the metrics
are the end-to-end ones (set-up, pass wall time, peak RSS, operations per
second); with `--trace 1` the run spends half its time untraced and half
with the span wrappers of `layertrace.py` installed, and reports the per-layer
metrics and the tracing overhead.  The environment and every failed check
are printed above that line and stored in `--out`.
"""

from __future__ import annotations

import os

# Pin the BLAS pool before numpy loads.  One thread, so that timings do not
# depend on how a shared host schedules a second BLAS thread; the program's
# hot loops are Python-level either way.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from workloads import CHECKOUT, WORKLOADS, SetupError  # noqa: E402

SETUP_REPEATS = 15
WORK_ROOT = CHECKOUT / ".perfbench"


def setup(workload: str, seed: int):
    """Import the program and build one pass of operations: the work that
    `setup_s` times."""
    ev = workloads.load_program()
    ops = workloads.operations(ev, workload, seed, WORK_ROOT / f"{workload}-seed{seed}")
    return ev, ops


def measure_setup(workload: str, seed: int, repeats: int) -> list[float]:
    """Set-up times of fresh interpreters, so the import is cold for the
    program (warm in the file cache) each time."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=CHECKOUT)
        if proc.returncode != 0:
            raise SetupError(f"set-up failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


class Loop:
    """Closed loop over passes; one caller, no think time."""

    def __init__(self, ops, checking=contextlib.nullcontext):
        self.ops = ops
        self.checking = checking  # context the output checks run in
        self.pass_times: list[float] = []
        self.op_times: dict[str, list[float]] = {op.name: [] for op in ops}
        self.attempted = 0
        self.completed = 0
        self.errors: list[str] = []

    def run(self, seconds: float):
        """Run whole passes while the next one is expected to end within
        `seconds` of wall time; always at least one."""
        sink = io.StringIO()
        start = time.perf_counter()
        done = 0
        while done == 0 or (time.perf_counter() - start
                            + statistics.median(self.pass_times[-done:]) <= seconds):
            total = 0.0
            for op in self.ops:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    elapsed = self._attempt(op)
                sink.seek(0)
                sink.truncate()
                total += elapsed
                self.op_times[op.name].append(elapsed)
            self.pass_times.append(total)
            done += 1

    def _attempt(self, op) -> float:
        """Run and check one operation; returns its wall seconds."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a raising call is a failed operation
            self.errors.append(f"{op.name}: raised {exc!r}")
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        self.completed += 1
        with self.checking():
            try:
                err = op.check(out)
            except Exception as exc:  # e.g. an output file that was not written
                err = f"{op.name}: check raised {exc!r}"
        if err:
            self.errors.append(err)
        return elapsed

    def pass_wall(self) -> float:
        """Wall seconds of one pass: the sum over operations of each one's
        fastest time.  That is what the program needs when the shared host
        leaves it alone; the host's
        slow stretches last tens of seconds and move medians by 20-30%
        from run to run (see Chen & Revels, "Robust benchmarking in noisy
        environments", 2016, for the minimum as the estimator)."""
        return sum(min(times) for times in self.op_times.values())


def environment() -> dict:
    import numpy as np

    def cpu_model():
        with contextlib.suppress(OSError):
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        return platform.processor() or "unknown"

    def l3():
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            with contextlib.suppress(OSError):
                if (index / "level").read_text().strip() == "3":
                    return (index / "size").read_text().strip()
        return "unknown"

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "l3": l3(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        # every kernel array is cache-resident (n = 30001 complex values is
        # 480 KB), so bandwidth and roofline figures would not describe it
        "roofline": "not reported: working sets fit in L3",
    }


def latencies(loop: Loop) -> dict[str, float]:
    """Median and 90th percentile of each call of the untraced half."""
    out = {}
    for name, times in loop.op_times.items():
        p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
        out[f"{name}.p50_ms"] = statistics.median(times) * 1e3
        out[f"{name}.p90_ms"] = p90 * 1e3
    return out


def declared(kind: str) -> list[dict]:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    return spec[kind]


def run_workload(args) -> dict:
    ev, ops = setup(args.workload, args.seed)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    if not args.trace:
        # half the set-up samples before the measured loop and half after,
        # so that one slow stretch of the host does not set the median
        setup_times = measure_setup(args.workload, args.seed, SETUP_REPEATS - SETUP_REPEATS // 2)
        loop = Loop(ops)
        loop.run(args.seconds)
        setup_times += measure_setup(args.workload, args.seed, SETUP_REPEATS // 2)
        wall_s = loop.pass_wall()
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "calls_per_s": len(ops) * loop.completed / loop.attempted / wall_s,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in declared("end_to_end")}
    else:
        import layertrace

        loop = Loop(ops)
        loop.run(args.seconds / 2)
        tracer = layertrace.Tracer()
        uninstall = layertrace.install(ev, tracer)
        try:
            # rebuilt under the wrappers, so bound methods and operator
            # actions captured at build time are traced too; the build
            # itself is set-up, not part of a pass
            with tracer.pause():
                _, traced_ops = setup(args.workload, args.seed)
            traced_loop = Loop(traced_ops, checking=tracer.pause)
            traced_loop.run(args.seconds / 2)
        finally:
            uninstall()
        tracer.dump(WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.csv")
        traced_passes = len(traced_loop.pass_times)
        values = tracer.layer_metrics(traced_passes)
        values["trace.overhead_s"] = traced_loop.pass_wall() - loop.pass_wall()
        values["trace.spans"] = len(tracer.spans) / traced_passes
        if args.workload != "ladders":
            values.update(latencies(loop))
        loop.attempted += traced_loop.attempted
        loop.errors += traced_loop.errors
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in declared("per_layer")}
    result.update(correct=not loop.errors and loop.attempted > 0,
                  attempted=loop.attempted, failed=len(loop.errors),
                  errors=loop.errors[:50], metrics=metrics)
    return result


def run_all(args) -> int:
    """Every workload in its own fresh process; one table of metrics."""
    rows, ok = [], True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=CHECKOUT)
        if proc.returncode != 0:
            print(f"{workload}: exit status {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and res["correct"]
        rows.append((workload, res))
    for workload, res in rows:
        print(f"{workload}: fail_ratio = {res['failed'] / res['attempted']:.4g} "
              f"({res['failed']}/{res['attempted']} operations)")
        for name, m in res["metrics"].items():
            print(f"  {name:56s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full result here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            t0 = time.perf_counter()
            setup(args.workload, args.seed)
            print(f"{time.perf_counter() - t0:.9f}")
            return 0
        if args.workload == "all":
            return run_all(args)
        result = run_workload(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.out:
        args.out.write_text(json.dumps(result, indent=2) + "\n")
    print("environment: " + json.dumps(result["environment"]))
    for err in result["errors"]:
        print(f"check failed: {err}")
    print(f"{args.workload}: fail_ratio = {result['failed'] / result['attempted']:.4g} "
          f"({result['failed']}/{result['attempted']} operations)")
    for name, m in result["metrics"].items():
        print(f"  {name:56s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 2


if __name__ == "__main__":
    sys.exit(main())
