"""Command line harness: `evocalc run <config>` and `evocalc suite <dir>`.

Configs are plain-text key = value files (comments with '#') that set the
problem's inputs; every bound a verdict is judged against is fixed in code.
Unknown keys are rejected so a typo cannot silently fall back to a default.
Every run writes the per-scale CSV (the single source of truth) and a JSON
summary derived from it; the exit status is a pure function of the verdict
set.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .experiments import COUNT_SCALES, DEFAULTS, RUNNERS
from .homogenization import ConvergenceReport

GLOBAL_KEYS = {"experiment", "output", "expect"}
LIST_KEYS = {"scales", "eta_list"}
STR_KEYS = {"experiment", "output", "expect", "control"}
CHOICES = {"control": ("harmonic", "arithmetic"), "expect": ("pass", "fail")}


class ConfigError(ValueError):
    pass


def _number(raw: str):
    """An int when raw is an integer literal, a float otherwise (so `inf`
    and `nan` reach the range checks); ValueError when it is neither."""
    try:
        return int(raw)
    except ValueError:
        return float(raw)


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in STR_KEYS:
        return raw
    if key in LIST_KEYS:
        items = [x for x in (p.strip() for p in raw.split(",")) if x]
        if not items:
            raise ConfigError(f"{key}: empty list")
        return tuple(_number(x) for x in items)
    return _number(raw)


def _positive(x) -> bool:
    return math.isfinite(x) and x > 0


def _range_problem(key: str, value) -> str | None:
    """What a parsed value violates, or None when it is in range."""
    if key in ("nu", "dt", "t_end"):
        return None if _positive(value) else "finite and > 0"
    if key == "n":
        return None if isinstance(value, int) and value >= 2 else "an integer >= 2"
    if key == "m_x":
        return None if isinstance(value, int) and value > 0 else "an integer > 0"
    if key == "seed":
        return None if isinstance(value, int) and value >= 0 else "an integer >= 0"
    if key in CHOICES:
        return None if value in CHOICES[key] else " or ".join(map(repr, CHOICES[key]))
    if key in LIST_KEYS:
        return None if all(_positive(x) for x in value) else "a list of finite values > 0"
    return None


def parse_config(path) -> dict:
    """Read a key = value config; validate keys against the experiment."""
    text = Path(path).read_text()
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key in pairs:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = raw
    if "experiment" not in pairs:
        raise ConfigError(f"{path}: missing 'experiment' key")
    name = pairs["experiment"].strip()
    if name not in RUNNERS:
        raise ConfigError(
            f"{path}: unknown experiment {name!r}; valid: {', '.join(sorted(RUNNERS))}"
        )
    allowed = set(DEFAULTS[name]) | GLOBAL_KEYS | {"seed"}
    cfg = {}
    for key, raw in pairs.items():
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key {key!r} for experiment {name}")
        try:
            cfg[key] = _parse_value(key, raw)
        except ValueError as exc:
            raise ConfigError(f"{path}: {key}: {exc}") from None
    cfg = {**DEFAULTS[name], "expect": "pass", **cfg}
    for key, value in cfg.items():
        problem = _range_problem(key, value)
        if problem:
            raise ConfigError(f"{path}: {key} must be {problem}, got {value!r}")
    if name in COUNT_SCALES and not all(isinstance(x, int) for x in cfg["scales"]):
        raise ConfigError(f"{path}: scales must be integers for {name} (each counts "
                          f"cells), got {cfg['scales']!r}")
    return cfg


def _output_path(out_base: Path, suffix: str) -> Path:
    """The base with `suffix` appended: a dot in the base's name (such as
    `eddy_scales_0.5`) is part of the name, not a suffix to replace."""
    return out_base.with_name(out_base.name + suffix)


def _write_outputs(report: ConvergenceReport, out_base: Path, runtime: float, seed):
    out_base.parent.mkdir(parents=True, exist_ok=True)
    report.write_csv(_output_path(out_base, ".csv"))
    summary = {
        "experiment": report.experiment,
        "seed": seed,
        "rows": report.rows,
        "verdict": "pass" if report.verdict else "fail",
        "runtime_seconds": round(runtime, 3),
        "metadata": {k: v for k, v in report.metadata.items() if k != "seed"},
    }
    with open(_output_path(out_base, ".json"), "w") as fh:
        json.dump(_finite_or_null(summary), fh, indent=2, sort_keys=True, default=str,
                  allow_nan=False)
    return summary


def _finite_or_null(obj):
    """A copy of a summary with every non-finite float as None, so the JSON
    file is strict RFC 8259 (no bare NaN or Infinity tokens)."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def run(config_path, out_override=None, verbose=False) -> int:
    """Execute one experiment config; returns the process exit status."""
    return _run(config_path, out_override, verbose)[0]


def _run(config_path, out_override, verbose) -> tuple[int, dict | None]:
    """`run`, also returning the parsed config (None when it is invalid).  Any
    exception of the runner, numpy's floating-point errors included, is one
    line `error: <experiment>: <Type>: <message>` and exit status 1."""
    try:
        cfg = parse_config(config_path)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1, None
    name = cfg["experiment"]
    if out_override:
        out_base = Path(out_override)
    elif "output" in cfg:
        out_base = Path(cfg["output"])
        if not out_base.is_absolute():
            out_base = Path(config_path).parent / out_base
    else:
        out_base = Path(config_path).with_suffix("")
    t0 = time.time()
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            report = RUNNERS[name](cfg)
    except Exception as exc:
        print(f"error: {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1, cfg
    # a seed is recorded only where the experiment reads one
    summary = _write_outputs(report, out_base, time.time() - t0,
                             cfg["seed"] if "seed" in DEFAULTS[name] else None)
    if verbose:
        for r in report.rows:
            print(f"  scale={r['scale']} pairing={r['pairing_error']:.3e} "
                  f"norm={r['norm_error']:.3e} {_bound_text(r, report.metadata)} "
                  f"{'pass' if r['verdict'] else 'FAIL'}")
    ok = report.verdict
    print(f"{name}: {'pass' if ok else 'FAIL'} ({len(report.rows)} rows, "
          f"{summary['runtime_seconds']}s) -> {_output_path(out_base, '.csv')}")
    if not ok:
        for r in report.rows:
            if not r["verdict"]:
                # the value the verdict was judged on: a ladder row (no
                # bound) gates its pairing error, a bounded row its norm error
                value = r["pairing_error"] if math.isnan(r["bound_rhs"]) else r["norm_error"]
                print(f"  failing row: scale={r['scale']} value={value:.4e} "
                      f"{_bound_text(r, report.metadata)}", file=sys.stderr)
    return (0 if ok else 2), cfg


def _bound_text(row: dict, metadata: dict) -> str:
    """The row's bound, or for ladder rows, which carry none, the ladder rule
    (final value <= tol and log-log slope <= slope_max)."""
    if not math.isnan(row["bound_rhs"]):
        return f"bound={row['bound_rhs']:.4e}"
    nan = float("nan")
    return (f"tol={metadata.get('tol', nan):.4e} slope={metadata.get('slope', nan):.4f} "
            f"slope_max={metadata.get('slope_max', nan):.4f}")


def suite(configs_dir, out_override=None, verbose=False) -> int:
    """Run every *.cfg in a directory; aggregate with expect-fail inversion.
    An invalid or raising config is an error entry; the suite goes on."""
    cfg_dir = Path(configs_dir)
    paths = sorted(cfg_dir.glob("*.cfg"))
    if not paths:
        print(f"no .cfg files in {cfg_dir}", file=sys.stderr)
        return 1
    results = []
    all_ok = True
    for path in paths:
        status, cfg = _run(path, None, verbose)
        if cfg is None:
            results.append({"config": path.name, "verdict": "error", "effective": "fail"})
            all_ok = False
            continue
        # an error (status 1) is never a success, whatever the expectation
        effective = status != 1 and (status == 0) != (cfg["expect"] == "fail")
        results.append({
            "config": path.name,
            "experiment": cfg["experiment"],
            "verdict": {0: "pass", 1: "error"}.get(status, "fail"),
            "expect": cfg["expect"],
            "effective": "pass" if effective else "fail",
        })
        all_ok = all_ok and effective
    aggregate = {
        "configs": results,
        "verdict": "pass" if all_ok else "fail",
    }
    out_path = Path(out_override) if out_override else cfg_dir / "suite_summary.json"
    with open(out_path, "w") as fh:
        json.dump(aggregate, fh, indent=2, sort_keys=True)
    print(f"suite: {'pass' if all_ok else 'FAIL'} ({len(results)} configs) -> {out_path}")
    return 0 if all_ok else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="evocalc",
        description="certification experiments for causal evolution systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="override output base path")
    p_run.add_argument("--verbose", action="store_true")
    p_suite = sub.add_parser("suite", help="run every config in a directory")
    p_suite.add_argument("configs_dir")
    p_suite.add_argument("--out", default=None, help="override summary path")
    p_suite.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.out, args.verbose)
    return suite(args.configs_dir, args.out, args.verbose)


if __name__ == "__main__":
    sys.exit(main())
