"""Per-layer compare report between two benchmark results.

    python3 perfbench/compare.py BEFORE AFTER

Each argument is a file written by `run.py --out`.  Lists every metric that
moved by more than 20% relative to BEFORE.  This is a report, not a gate: it
always exits 0 when both files can be read.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

THRESHOLD = 0.2


def moved(before: dict, after: dict) -> list[tuple]:
    rows = []
    for name, old in before["metrics"].items():
        new = after["metrics"].get(name)
        if new is None:
            continue
        a, b = old["value"], new["value"]
        if a == b:
            continue
        change = (b - a) / abs(a) if a else float("inf")
        if abs(change) > THRESHOLD:
            rows.append((name, a, b, change, old["unit"]))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    before, after = (json.loads(p.read_text()) for p in (args.before, args.after))
    for res in (before, after):
        print(f"{res['workload']} seed {res['seed']}: " + json.dumps(res["environment"]))
    rows = moved(before, after)
    print(f"{len(rows)} metrics moved by more than {THRESHOLD:.0%}")
    for name, a, b, change, unit in sorted(rows, key=lambda r: -abs(r[3])):
        print(f"  {name:56s} {a:12.6g} -> {b:12.6g} {unit:6s} {change:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
