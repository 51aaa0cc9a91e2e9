"""Command line harness: config validation, outputs, exit codes, the
bit-for-bit reproducibility of the CSV reports, and the package's export
lists."""

import ast
import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import evocalc
from evocalc import experiments, homogenization
from evocalc.cli import ConfigError, main, parse_config, run, suite
from evocalc.experiments import DEFAULTS, RUNNERS
from evocalc.operators import ProbeSet, probe_sup
from evocalc.signals import Coefficient, Signal, TimeGrid
from evocalc.solvers import OdeBlockSystem, solve_ode_block_stepping
from evocalc.timecalc import derivative


def write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_valid_config(self, tmp_path):
        cfg = parse_config(write(tmp_path / "a.cfg", """
            # spectral check
            experiment = spectrum
            nu = 0.5
            n = 256
        """.replace("            ", "")))
        assert cfg["experiment"] == "spectrum"
        assert cfg["n"] == 256
        assert cfg["dt"] == 0.01  # default merged in

    def test_unknown_key_rejected(self, tmp_path):
        p = write(tmp_path / "a.cfg", "experiment = spectrum\nwibble = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(p)

    def test_unknown_experiment_rejected(self, tmp_path):
        p = write(tmp_path / "a.cfg", "experiment = nonsense\n")
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config(p)

    def test_missing_experiment(self, tmp_path):
        p = write(tmp_path / "a.cfg", "nu = 1.0\n")
        with pytest.raises(ConfigError, match="missing"):
            parse_config(p)

    def test_empty_scales_rejected(self, tmp_path):
        p = write(tmp_path / "a.cfg", "experiment = timprod\nscales = \n")
        with pytest.raises(ConfigError):
            parse_config(p)

    def test_scales_parse_as_list(self, tmp_path):
        p = write(tmp_path / "a.cfg", "experiment = timprod\nscales = 8, 16\n")
        assert parse_config(p)["scales"] == (8, 16)

    def test_bad_expect_rejected(self, tmp_path):
        p = write(tmp_path / "a.cfg", "experiment = spectrum\nexpect = maybe\n")
        with pytest.raises(ConfigError, match="expect"):
            parse_config(p)

    @pytest.mark.parametrize("experiment, line", [
        ("spectrum", "nu = -1"),
        ("spectrum", "nu = 0"),
        ("spectrum", "nu = inf"),
        ("spectrum", "dt = 0"),
        ("spectrum", "dt = nan"),
        ("picard", "t_end = -2.0"),
        ("spectrum", "n = 1"),
        ("spectrum", "n = 256.5"),
        ("heat", "m_x = 0"),
        ("timprod", "scales = 8, 0"),
        ("eddy", "eta_list = 1.0, -2.0"),
        ("timprod", "scales = 8, inf"),
        ("dbf", "control = arithmatic"),
        ("dbf", "seed = 1.5"),
        ("picard", "seed = -1"),
    ])
    def test_out_of_range_value_rejected(self, tmp_path, experiment, line):
        p = write(tmp_path / "a.cfg", f"experiment = {experiment}\n{line}\n")
        key = line.split("=")[0].strip()
        with pytest.raises(ConfigError, match=f"{key} must be"):
            parse_config(p)

    @pytest.mark.parametrize("experiment, line", [
        ("spectrum", "tol.circle = -1e-12"),
        ("spectrum", "tol.circle = nan"),
        ("timprod", "tol.slope = 0.5"),
        ("timprod", "tol.slope = 0"),
        ("causality-suite", "tol.defect = 1"),
    ])
    def test_bound_key_rejected(self, tmp_path, capsys, experiment, line):
        # the bounds a verdict is judged against are fixed in code, so a
        # config that names one fails like any other unknown key
        p = write(tmp_path / "a.cfg", f"experiment = {experiment}\n{line}\n")
        assert run(p) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "unknown key 'tol." in err
        assert err.count("\n") == 1

    def test_non_numeric_value_rejected(self, tmp_path):
        p = write(tmp_path / "a.cfg", "experiment = spectrum\nn = many\n")
        with pytest.raises(ConfigError, match="n:"):
            parse_config(p)

    def test_shipped_configs_parse(self):
        paths = sorted((Path(__file__).parents[1] / "configs").glob("*.cfg"))
        assert paths
        for path in paths:
            parse_config(path)


class TestRun:
    def test_run_writes_csv_and_json(self, tmp_path):
        p = write(tmp_path / "s.cfg", "experiment = spectrum\nn = 256\noutput = out/s\n")
        status = run(p)
        assert status == 0
        csv_path = tmp_path / "out" / "s.csv"
        json_path = tmp_path / "out" / "s.json"
        assert csv_path.exists() and json_path.exists()
        head = csv_path.read_text().splitlines()[0]
        assert head == "scale,pairing_error,strong_error,norm_error,bound_rhs,verdict"
        summary = json.loads(json_path.read_text())
        assert summary["experiment"] == "spectrum"
        assert summary["verdict"] == "pass"
        assert "runtime_seconds" in summary

    def test_invalid_config_nonzero_status(self, tmp_path):
        p = write(tmp_path / "bad.cfg", "experiment = spectrum\nnope = 1\n")
        assert run(p) == 1

    def test_failing_verdict_nonzero_status(self, tmp_path):
        p = write(tmp_path / "neg.cfg",
                  "experiment = dbf\nscales = 8\ncontrol = arithmetic\n")
        assert run(p) == 2

    def test_wave_premise_failure_fails_the_run(self, tmp_path, monkeypatch):
        # the elliptic premise ladder gates the run, not only criterion 14:
        # an oscillatory-coefficient solve that is off by a factor 2 never
        # converges to the harmonic-mean solution
        solve = homogenization.elliptic_solve

        def off(a_edge, f):
            u = solve(a_edge, f)
            return u if np.ptp(np.asarray(a_edge).real) == 0 else 2 * u

        monkeypatch.setattr(homogenization, "elliptic_solve", off)
        p = write(tmp_path / "w.cfg", "experiment = wave\nscales = 2,4\n")
        assert run(p) == 2
        summary = json.loads((tmp_path / "w.json").read_text())
        assert summary["metadata"]["elliptic_premise_verdict"] == "fail"

    @pytest.mark.parametrize("experiment, setting, error", [
        ("picard", "t_end = 0.0005", "ValueError"),
        ("transfer", "nu = 1e300", "ZeroDivisionError"),
        ("funid", "dt = 1e300", "FloatingPointError"),
        ("spectrum", "nu = 1e300", "FloatingPointError"),
        ("ode-block", "dt = 1e300", "FloatingPointError"),
    ], ids=["picard-t_end", "transfer-nu", "funid-dt", "spectrum-nu", "ode-block-dt"])
    def test_runner_error_exits_1_with_one_line(self, tmp_path, capsys, experiment, setting,
                                                error):
        # t_end below dt / 2 gives picard a one-node grid, which it rejects;
        # the 1e300 settings divide by zero or overflow, and numpy's
        # floating-point warnings raise inside the runner
        p = write(tmp_path / "p.cfg", f"experiment = {experiment}\n{setting}\n")
        assert run(p) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {experiment}: {error}: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "p.csv").exists()

    # exit statuses of the dense-stepper experiments at edge values of one
    # key, in the order 1e-300, 1e300, 0.5, 1
    DENSE_EDGES = {
        ("ode-block", "nu"): (1, 2, 1, 1),
        ("ode-block", "dt"): (0, 1, 2, 2),
        ("funid", "nu"): (1, 0, 1, 0),
        ("funid", "dt"): (0, 1, 0, 0),
        ("dbf", "nu"): (1, 1, 1, 1),
        ("dbf", "scales"): (1, 1, 2, 2),
    }

    @staticmethod
    def edge_cases(edges):
        return [(experiment, f"{key} = {value}", status)
                for (experiment, key), statuses in edges.items()
                for value, status in zip(("1e-300", "1e300", "0.5", "1"), statuses)]

    @staticmethod
    def run_edge(tmp_path, capsys, experiment, setting, status):
        # an edge value ends in a verdict or in one short error line, never
        # in a traceback
        p = write(tmp_path / "e.cfg", f"experiment = {experiment}\n{setting}\n")
        assert main(["run", str(p)]) == status
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if status == 1:
            assert err.count("\n") == 1 and len(err) < 200

    @pytest.mark.parametrize("experiment, setting, status", edge_cases(DENSE_EDGES) + [
        (experiment, f"n = {n}", 0) for experiment in ("ode-block", "funid") for n in (2, 3)])
    def test_dense_stepper_edge_configs(self, tmp_path, capsys, experiment, setting, status):
        self.run_edge(tmp_path, capsys, experiment, setting, status)

    # the same for the other experiments but the causality suite, which
    # runs whole at any setting
    EDGES = {
        ("spectrum", "nu"): (0, 1, 0, 0),
        ("spectrum", "dt"): (0, 0, 0, 0),
        ("spectrum", "n"): (1, 1, 1, 1),
        ("picard", "dt"): (1, 1, 2, 1),
        ("picard", "t_end"): (1, 1, 0, 0),
        ("transfer", "nu"): (0, 1, 0, 0),
        ("transfer", "dt"): (1, 1, 2, 2),
        ("transfer", "t_end"): (1, 1, 2, 2),
        ("timprod", "nu"): (0, 2, 0, 0),
        ("timprod", "scales"): (1, 1, 2, 2),
        ("memory-kernel", "nu"): (0, 2, 0, 0),
        ("memory-kernel", "scales"): (1, 1, 1, 2),
        ("eddy", "scales"): (0, 0, 0, 0),
        ("eddy", "eta_list"): (1, 2, 1, 0),
        ("heat", "nu"): (0, 0, 0, 0),
        ("heat", "scales"): (1, 0, 1, 2),
        ("heat", "m_x"): (1, 1, 1, 0),
        ("wave", "nu"): (0, 1, 0, 0),
        ("wave", "scales"): (1, 1, 1, 2),
    }

    @pytest.mark.parametrize("experiment, setting, status", edge_cases(EDGES) + [
        ("spectrum", "n = 2", 0), ("heat", "m_x = 2", 0)])
    def test_edge_configs(self, tmp_path, capsys, experiment, setting, status):
        self.run_edge(tmp_path, capsys, experiment, setting, status)

    @pytest.mark.parametrize("experiment, scales", [
        ("wave", "0.5"), ("wave", "8, 16.0"), ("memory-kernel", "0.5"),
        ("memory-kernel", "8, 1e1"),
    ])
    def test_non_integer_count_scale_exits_1_with_one_line(self, tmp_path, capsys,
                                                           experiment, scales):
        # these runners turn a scale into a cell count; the other ladders
        # take any scale > 0
        p = write(tmp_path / "c.cfg", f"experiment = {experiment}\nscales = {scales}\n")
        assert run(p) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "scales must be integers" in err
        assert not (tmp_path / "c.csv").exists()

    def test_dotted_output_base_keeps_its_name(self, tmp_path, capsys):
        p = write(tmp_path / "e.cfg", "experiment = spectrum\nn = 256\noutput = out/spec_0.5\n")
        assert run(p) == 0
        assert sorted(q.name for q in (tmp_path / "out").iterdir()) == [
            "spec_0.5.csv", "spec_0.5.json"]
        assert capsys.readouterr().out.rstrip().endswith("spec_0.5.csv")

    def test_dotted_config_name_gives_the_default_base(self, tmp_path):
        # the default base is the config path without `.cfg`
        p = write(tmp_path / "spec_0.5.cfg", "experiment = spectrum\nn = 256\n")
        assert run(p) == 0
        assert (tmp_path / "spec_0.5.csv").exists() and (tmp_path / "spec_0.5.json").exists()

    def test_negative_nu_exits_1_with_one_line(self, tmp_path, capsys):
        p = write(tmp_path / "s.cfg", "experiment = spectrum\nnu = -1\n")
        assert run(p) == 1
        err = capsys.readouterr().err
        assert "nu must be" in err and err.count("\n") == 1

    def test_failing_ladder_row_shows_its_rule(self, tmp_path, capsys):
        p = write(tmp_path / "neg.cfg",
                  "experiment = dbf\nscales = 64\ncontrol = arithmetic\n")
        assert run(p) == 2
        err = capsys.readouterr().err
        # the value printed is the pairing error the ladder row is gated on;
        # one scale has no slope, which the line and the summary say
        assert "failing row: scale=64 value=1.5217e-01" in err
        assert "tol=2.0000e-02 slope=nan slope_max=" in err
        assert "bound=nan" not in err
        assert json.loads((tmp_path / "neg.json").read_text())["metadata"]["slope"] is None

    @pytest.mark.parametrize("control, status", [("harmonic", 0), ("arithmetic", 2)])
    def test_one_scale_ladder_is_judged_by_its_pairing(self, tmp_path, control, status):
        # one scale has no slope: the harmonic limit passes on its pairing
        # gate at the negative control's settings, the straw man fails it
        p = write(tmp_path / "d.cfg", f"experiment = dbf\nscales = 64\ncontrol = {control}\n")
        assert run(p) == status

    def test_one_scale_eddy_is_judged_by_its_bound(self, tmp_path):
        # scale 8's error 3.6e-02 is under its bound 2.5e-01; one scale
        # has no slope for the slope <= -0.9 rule to judge
        p = write(tmp_path / "e.cfg", "experiment = eddy\nscales = 8\n")
        assert run(p) == 0

    def test_flat_eddy_ladder_fails_its_slope_rule(self):
        # one coefficient under two scale labels: both rows are under their
        # bounds, but the ladder does not decay, so the slope rule bites
        eps = Coefficient.scalar_profile(lambda t: (1.0 + 0.5 * np.cos(t)) / 8,
                                         deriv=lambda t: -0.5 * np.sin(t) / 8)
        rep = homogenization.eddy_current_experiment(
            [(8, eps, 1.5 / 8, 0.5 / 8), (16, eps, 1.5 / 8, 0.5 / 8)], eta_list=[1.0], seed=42)
        assert [r["pairing_error"] <= r["bound_rhs"] for r in rep.rows] == [True, True]
        assert rep.metadata["slope"] == pytest.approx(0.0, abs=1e-9)
        assert rep.rows[0]["verdict"] and not rep.verdict

    def test_shipped_eddy_csv_is_unchanged(self, tmp_path):
        # the four-scale ladder writes the bytes it wrote before one-scale
        # ladders skipped the slope rule
        run(Path(__file__).parents[1] / "configs" / "eddy.cfg", out_override=tmp_path / "e")
        assert (tmp_path / "e.csv").read_text() == (
            "scale,pairing_error,strong_error,norm_error,bound_rhs,verdict\n"
            "8,3.611682565989e-02,3.611682565989e-02,3.611682565989e-02,2.500000000000e-01,pass\n"
            "16,1.829148029568e-02,1.829148029568e-02,1.829148029568e-02,1.250000000000e-01,pass\n"
            "32,8.743838133177e-03,8.743838133177e-03,8.743838133177e-03,6.250000000000e-02,pass\n"
            "64,4.203983960417e-03,4.203983960417e-03,4.203983960417e-03,3.125000000000e-02,pass\n"
        )

    def test_shipped_ode_block_csv_is_unchanged(self, tmp_path):
        # the bytes it wrote before its residual probes stepped as one batch
        run(Path(__file__).parents[1] / "configs" / "ode_block.cfg", out_override=tmp_path / "o")
        assert (tmp_path / "o.csv").read_text() == (
            "scale,pairing_error,strong_error,norm_error,bound_rhs,verdict\n"
            "0,0.000000000000e+00,0.000000000000e+00,9.900990099010e-03,2.000000000000e-02,pass\n"
            "1,0.000000000000e+00,0.000000000000e+00,4.936355031652e-11,1.000000000000e-06,pass\n"
            "2,0.000000000000e+00,0.000000000000e+00,5.964618198664e-02,3.500000000000e-01,pass\n"
        )

    @pytest.mark.parametrize("name, csv", [
        pytest.param("funid", (
            "0,0.000000000000e+00,0.000000000000e+00,0.000000000000e+00,1.000000000000e-12,pass\n"
            "1,0.000000000000e+00,0.000000000000e+00,5.508984251758e-14,1.000000000000e-06,pass\n"
            "2,0.000000000000e+00,0.000000000000e+00,1.630553239259e-01,6.087772653981e-01,pass\n"
        ), id="funid"),
        pytest.param("heat", (
            "2,2.768577303766e-02,2.768577303766e-02,2.768577303766e-02,nan,pass\n"
            "4,1.367744372740e-02,1.367744372740e-02,1.367744372740e-02,nan,pass\n"
            "8,6.818678864729e-03,6.818678864729e-03,6.818678864729e-03,nan,pass\n"
            "16,3.406852414419e-03,3.406852414419e-03,3.406852414419e-03,nan,pass\n"
            "999,0.000000000000e+00,0.000000000000e+00,0.000000000000e+00,1.000000000000e-10,pass\n"
        ), id="heat"),
    ])
    def test_shipped_probe_sup_csv_is_unchanged(self, tmp_path, name, csv):
        # the bytes they wrote before their probe loops and sample maxima
        # went through `probe_sup` and `sup`
        run(Path(__file__).parents[1] / "configs" / f"{name}.cfg", out_override=tmp_path / "o")
        assert (tmp_path / "o.csv").read_text() == (
            "scale,pairing_error,strong_error,norm_error,bound_rhs,verdict\n" + csv)

    # transfer is left out: its scale-1 row moves in the last digit with
    # the BLAS thread count (see README)
    @pytest.mark.parametrize("name, csv", [
        pytest.param("dbf", (
            "8,1.112912758451e-02,3.919031179669e-01,3.919031179669e-01,nan,pass\n"
            "16,5.015380926909e-03,3.925733607627e-01,3.925733607627e-01,nan,pass\n"
            "32,1.193702592675e-03,3.929401210945e-01,3.929401210945e-01,nan,pass\n"
            "64,2.037313898972e-03,3.931288071096e-01,3.931288071096e-01,nan,pass\n"
        ), id="dbf"),
        pytest.param("dbf_negative_control", (
            "64,1.521698482481e-01,4.795230398267e-01,4.795230398267e-01,nan,fail\n"
        ), id="dbf_negative_control"),
        pytest.param("memory_kernel", (
            "8,9.793874987159e-03,3.264302559013e-01,3.264302559013e-01,nan,pass\n"
            "16,6.460847306720e-03,3.264302559013e-01,3.264302559013e-01,nan,pass\n"
            "32,5.531445270472e-03,3.264302559013e-01,3.264302559013e-01,nan,pass\n"
            "64,2.406994391409e-03,3.264302559013e-01,3.264302559013e-01,nan,pass\n"
        ), id="memory_kernel"),
        pytest.param("picard", (
            "0,0.000000000000e+00,0.000000000000e+00,6.642914054613e-04,1.000000000000e-03,pass\n"
        ), id="picard"),
        pytest.param("spectrum", (
            "0,0.000000000000e+00,0.000000000000e+00,2.220446049250e-16,1.000000000000e-12,pass\n"
            "1,0.000000000000e+00,0.000000000000e+00,0.000000000000e+00,1.000000000000e-15,pass\n"
            "2,0.000000000000e+00,0.000000000000e+00,1.967414312770e+00,2.020000000000e+00,pass\n"
        ), id="spectrum"),
        pytest.param("timprod", (
            "8,2.699917720964e-03,1.850802866362e-02,1.850802866362e-02,nan,pass\n"
            "16,1.396359885617e-03,1.399507884955e-02,1.399507884955e-02,nan,pass\n"
            "32,5.386703373174e-04,4.684147040497e-03,4.684147040497e-03,nan,pass\n"
            "64,2.696516959930e-04,3.504405475460e-03,3.504405475460e-03,nan,pass\n"
        ), id="timprod"),
        pytest.param("wave", (
            "8,3.854316891969e-03,2.775871867230e-02,2.775871867230e-02,nan,pass\n"
            "16,1.871860305592e-03,1.382760524369e-02,1.382760524369e-02,nan,pass\n"
            "32,9.290883817654e-04,6.919749743625e-03,6.919749743625e-03,nan,pass\n"
            "64,4.624408777752e-04,3.463690549836e-03,3.463690549836e-03,nan,pass\n"
        ), id="wave"),
    ])
    def test_shipped_ladder_csv_is_unchanged(self, tmp_path, name, csv):
        # the bytes each shipped config wrote before the 1D steppers took
        # their solves from one bands-to-solves function
        run(Path(__file__).parents[1] / "configs" / f"{name}.cfg", out_override=tmp_path / "o")
        assert (tmp_path / "o.csv").read_text() == (
            "scale,pairing_error,strong_error,norm_error,bound_rhs,verdict\n" + csv)

    def test_batched_ode_block_residual_matches_single_probes(self):
        # the residual estimate of one batched stepping pass against
        # `probe_sup` over single-column solves, at a seed other than the
        # shipped one; a complex GEMM rounds a column by its position in
        # the batch, so the two agree to roundoff, not bit for bit
        cfg = {**DEFAULTS["ode-block"], "seed": 7}
        rng = np.random.default_rng(cfg["seed"])
        grid = TimeGrid(0.0, cfg["dt"], cfg["n"], cfg["nu"])
        sysb = OdeBlockSystem(
            M=Coefficient.constant(experiments._random_accretive(rng, 2), 1.0),
            N00=Coefficient.constant(experiments._random_bounded(rng, 2)),
            N01=Coefficient.constant(experiments._random_bounded(rng, 2)),
            N10=Coefficient.constant(experiments._random_bounded(rng, 2)),
            N11=Coefficient.constant(experiments._random_accretive(rng, 2), 1.0), c=1.0)
        M_inv = np.linalg.inv(sysb.M.sample_all(grid))
        N11_inv = np.linalg.inv(sysb.N11.sample_all(grid))
        N10 = sysb.N10.sample_all(grid)

        def residual(phi):
            top, bot = phi.values[:, :2], phi.values[:, 2:]
            rhs = np.concatenate([derivative(Signal(grid, top)).values, bot], axis=1)
            u = solve_ode_block_stepping(sysb, Signal(grid, rhs))
            exact_top = np.einsum("kab,kb->ka", M_inv, top)
            exact_bot = np.einsum("kab,kb->ka", N11_inv, bot) - np.einsum(
                "kab,kbc,kc->ka", N11_inv, np.einsum("kab,kbc->kac", N10, M_inv), top)
            return Signal(grid, u - np.concatenate([exact_top, exact_bot], axis=1))

        single = probe_sup((residual(phi), phi) for phi in ProbeSet(grid, dim=4, seed=cfg["seed"]))
        batched = RUNNERS["ode-block"](cfg).rows[2]["norm_error"]
        assert batched == pytest.approx(single, rel=1e-12, abs=0.0)

    def test_summary_is_strict_json(self, tmp_path):
        # ladder rows carry no bound: their NaN bound_rhs is written as null
        p = write(tmp_path / "d.cfg", "experiment = dbf\nscales = 8, 16\n")
        run(p)

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        summary = json.loads((tmp_path / "d.json").read_text(), parse_constant=reject)
        assert [r["bound_rhs"] for r in summary["rows"]] == [None, None]

    def test_csv_bit_identical_across_runs(self, tmp_path):
        p = write(tmp_path / "s.cfg", "experiment = picard\nseed = 42\n")
        run(p, out_override=tmp_path / "r1")
        run(p, out_override=tmp_path / "r2")
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


    @pytest.mark.parametrize("experiment, seed", [("transfer", None), ("spectrum", None),
                                                  ("picard", 7)])
    def test_summary_records_a_seed_only_where_it_is_read(self, tmp_path, experiment, seed):
        # every config may set `seed` (the benchmark sets it on all of them),
        # but spectrum and transfer read none
        p = write(tmp_path / "s.cfg", f"experiment = {experiment}\nseed = 7\n")
        assert run(p) == 0
        assert json.loads((tmp_path / "s.json").read_text())["seed"] == seed


class TestSuite:
    def test_aggregate_with_expect_fail(self, tmp_path):
        write(tmp_path / "a_pass.cfg", "experiment = spectrum\nn = 256\n")
        write(tmp_path / "b_neg.cfg",
              "experiment = dbf\nscales = 8\ncontrol = arithmetic\nexpect = fail\n")
        status = suite(tmp_path)
        assert status == 0
        summary = json.loads((tmp_path / "suite_summary.json").read_text())
        assert summary["verdict"] == "pass"
        by_name = {c["config"]: c for c in summary["configs"]}
        assert by_name["b_neg.cfg"]["verdict"] == "fail"
        assert by_name["b_neg.cfg"]["effective"] == "pass"

    def test_child_failure_propagates(self, tmp_path):
        write(tmp_path / "neg.cfg",
              "experiment = dbf\nscales = 8\ncontrol = arithmetic\n")
        assert suite(tmp_path) == 2
        # partial reports are preserved
        assert (tmp_path / "neg.csv").exists()

    def test_runner_error_recorded_and_suite_continues(self, tmp_path):
        # the erroring config sorts first and expects failure: an error must
        # still count as a failure, and the later config must still run
        write(tmp_path / "a_err.cfg",
              "experiment = picard\nt_end = 0.0005\nexpect = fail\n")
        write(tmp_path / "b_ok.cfg", "experiment = spectrum\nn = 256\n")
        # a runner that raises something other than ValueError
        write(tmp_path / "c_zero_division.cfg", "experiment = transfer\nnu = 1e300\n")
        assert suite(tmp_path) == 2
        summary = json.loads((tmp_path / "suite_summary.json").read_text())
        by_name = {c["config"]: c for c in summary["configs"]}
        assert sorted(by_name) == ["a_err.cfg", "b_ok.cfg", "c_zero_division.cfg"]
        for name in ("a_err.cfg", "c_zero_division.cfg"):
            assert by_name[name]["verdict"] == "error"
            assert by_name[name]["effective"] == "fail"
        assert by_name["b_ok.cfg"]["effective"] == "pass"
        assert (tmp_path / "b_ok.csv").exists()

    def test_empty_directory(self, tmp_path):
        assert suite(tmp_path) == 1

    def test_main_entrypoint(self, tmp_path):
        p = write(tmp_path / "s.cfg", "experiment = spectrum\nn = 256\n")
        assert main(["run", str(p)]) == 0
        assert main(["suite", str(tmp_path)]) == 0


@pytest.mark.parametrize("name", sorted(DEFAULTS))
def test_config_keys_are_runner_inputs(name):
    # a config sets only what its runner reads; no bound is a config key
    source = inspect.getsource(RUNNERS[name])
    assert [key for key in DEFAULTS[name]
            if f'cfg["{key}"]' not in source and f'cfg.get("{key}"' not in source] == []
    assert [key for key in DEFAULTS[name] if key.startswith("tol.")] == []


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(evocalc.__path__)))
def test_export_lists_resolve(module):
    # a name left in __all__ after its definition is gone breaks `import *`
    mod = importlib.import_module(f"evocalc.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(evocalc.__path__)))
def test_no_unused_imports(module):
    # no linter is part of the toolchain: an imported name that the module
    # neither reads nor re-exports through __all__ is dead code
    tree = ast.parse(Path(importlib.import_module(f"evocalc.{module}").__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    assert sorted(imported - read - exported) == []


def _names(module: str) -> set:
    # the imported, loaded and attribute names of an evocalc module
    tree = ast.parse(Path(importlib.import_module(f"evocalc.{module}").__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(evocalc.__path__)
                                          if m.name != "solvers"))
def test_only_solvers_names_a_stepper(module):
    # every other module steps a system through `solvers._pde_steps` or
    # `solvers._dispatch_step`, so the choice of stepper is made in one place
    assert sorted(name for name in _names(module) if name.startswith("_step_")) == []


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(evocalc.__path__)
                                          if m.name != "forkmap"))
def test_only_forkmap_names_fork(module):
    # every other module runs independent items through `forkmap.map`, so
    # there stays one fork path
    assert "fork" not in _names(module)


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(evocalc.__path__)
                                          if m.name != "solvers"))
def test_only_solvers_names_staggered_grad0(module):
    # the steppers, the elliptic solve and the wave ladder's premise apply
    # the gradient matrix-free (`solvers._g_apply`); the assembled matrix is
    # the reference of the tests and the benchmark only
    assert "staggered_grad0" not in _names(module)


def test_no_ladder_loops_over_its_scales():
    # each ladder runs its scales as the items of one `forkmap.map`, so no
    # scale's work runs in a serial loop beside it
    tree = ast.parse(Path(homogenization.__file__).read_text())
    loops = [node.iter for node in ast.walk(tree)
             if isinstance(node, (ast.For, ast.comprehension))]
    assert not any(isinstance(it, ast.Name) and it.id == "scales" for it in loops)


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(evocalc.__path__)
                                          if m.name not in ("signals", "operators")))
def test_only_signals_and_operators_name_inner_nu(module):
    # every other module pairs signals through `operators.pairing_sup`, so
    # each weak gate floors and scales its pairing in one place
    assert "inner_nu" not in _names(module)


# Exported names that nothing in src/, the benchmark or the acceptance
# criteria reads, kept because a unit test uses them as its reference.
TEST_REFERENCES = {
    "resolvent_series": "the value oracle test_series_cross_check compares resolvent against",
    "ode_weak_limit_equation": "the only code for the thesis's weak-limit equation",
}


def _reads(tree: ast.AST, attributes: bool) -> set:
    # loaded names, not counting those inside the def or class of the same
    # name (recursion reaches nothing); with `attributes` also attribute
    # names, the way the benchmark calls `ev.operators.op_norm`
    out = set()

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                if child.id not in inside:
                    out.add(child.id)
            elif attributes and isinstance(child, ast.Attribute):
                out.add(child.attr)
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, inside | {child.name})
            else:
                visit(child, inside)

    visit(tree, frozenset())
    return out


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(evocalc.__path__)))
def test_exported_names_are_reached(module):
    # an exported name is read in src/ (the __init__ re-export and __all__
    # are imports and strings, not reads), or by the benchmark or an
    # acceptance criterion; otherwise it is listed in TEST_REFERENCES
    root = Path(__file__).resolve().parents[1]
    read = set()
    for path in (root / "src" / "evocalc").glob("*.py"):
        read |= _reads(ast.parse(path.read_text()), attributes=False)
    for path in [*(root / "perfbench").glob("*.py"), root / "tests" / "test_acceptance.py"]:
        read |= _reads(ast.parse(path.read_text()), attributes=True)
    exported = getattr(importlib.import_module(f"evocalc.{module}"), "__all__", ())
    assert [name for name in exported if name not in read] == [
        name for name in exported if name in TEST_REFERENCES]


# The ratchet below: lower it when a change removes settable values, never
# raise it to let one in.
SETTABLE_VALUES_MAX = 60


def test_settable_values_do_not_grow():
    # settable values are the defaulted parameters of every def plus the
    # fields of every dataclass in src/; each one is a value a caller can
    # change, so one with a single value in use belongs in code as a constant
    count = 0
    for path in (Path(__file__).resolve().parents[1] / "src" / "evocalc").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                count += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    assert count <= SETTABLE_VALUES_MAX
