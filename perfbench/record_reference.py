"""Record the outputs that the default-seed checks compare against.

    python3 perfbench/record_reference.py

Runs one pass of every workload at the default seed and writes
`perfbench/reference.json`: the defect of each audit call, the CSV rows of
each config run and a digest of each kernel result.  Re-record only when a
change is meant to alter results, and say so where the change is described.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import workloads


def main() -> int:
    seed = workloads.DEFAULT_SEED
    reference = {"seed": seed, "audit": {}, "csv": {}, "kernels": {}}
    ev = workloads.load_program()
    workdir = run.WORK_ROOT / "ladders-reference"
    passes = {
        "audit": workloads.audit_operations(ev, seed, None),
        "ladders": workloads.ladder_operations(ev, seed, workdir, None),
        "kernels": workloads.kernel_operations(ev, seed, None),
    }
    for workload, ops in passes.items():
        for op in ops:
            with contextlib.redirect_stdout(io.StringIO()):
                out = op.run()
            err = op.check(out)
            if err:
                print(f"not recorded, check failed: {err}", file=sys.stderr)
                return 1
            if workload == "audit":
                reference["audit"][op.name] = repr(out)
            elif workload == "ladders":
                csv_path = (workdir / op.name).with_suffix(".csv")
                reference["csv"][op.name] = workloads.read_csv(csv_path)
            else:
                reference["kernels"][op.name] = workloads.digest(out)
            print(f"recorded {workload}: {op.name}")
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
