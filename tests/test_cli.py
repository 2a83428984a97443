"""Command surface: flags, file formats, exit codes, reproducibility."""

import argparse
import hashlib
import json
import logging
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import opiniondyn
from opiniondyn import fixtures as fx
from opiniondyn import simulate as sim
from opiniondyn import stepsize
from opiniondyn.cli import REPRODUCE_NAMES, _write_trajectory_csv, build_parser, main, reproduce
from opiniondyn.netcore import load_matrix_csv, save_matrix_csv

SRC = Path(__file__).resolve().parent.parent / "src"

FIXTURE_SHA256 = "3975b070c42176f1546b6343d09d5f8d885e5e8928a7c056f980513d9b1bc22e"

FIXTURE_ARRAYS = (
    "EXAMPLE1_LAPLACIAN",
    "EXAMPLE1_APPRAISAL",
    "EXAMPLE1_LAM",
    "EXAMPLE1_LAM_FLAT",
    "EXAMPLE1_X0",
    "INFLUENCE_P",
    "INFLUENCE_LAPLACIAN",
    "COOP_APPRAISAL",
    "ANTAG_APPRAISAL",
    "COOP_LAM",
    "ANTAG_LAM",
    "ISSUE_COUPLING_COOP",
    "ISSUE_COUPLING_ANTAG",
    "ISSUE_COUPLING_COOP_DAMPED",
    "ISSUE_COUPLING_ANTAG_DAMPED",
    "X0_MULTI",
    "X0_ISSUE_FREE",
)


@pytest.fixture()
def system_files(tmp_path):
    paths = {}
    paths["example1"] = tmp_path / "example1.json"
    fx.fixture("example1").system.save_json(paths["example1"])
    paths["coop"] = tmp_path / "coop.json"
    fx.fixture("sec5-coop").with_mids().save_json(paths["coop"])
    paths["lap"] = tmp_path / "lap.csv"
    save_matrix_csv(paths["lap"], fx.EXAMPLE1_LAPLACIAN)
    return paths


# Every option each subcommand accepts; the positional of reproduce by name.
OPTIONS = {
    "analyze": {"--system", "--tol-eig", "--x0", "--out"},
    "simulate": {"--system", "--x0", "--steps", "--tol", "--window", "--out"},
    "stepsize": {"--laplacian", "--eps", "--method", "--grid", "--rho-max", "--rho",
                 "--out-dir", "--out-json", "--out-csv"},
    "estimate": {"--system", "--samples", "--gamma0", "--cap", "--box", "--seed", "--out"},
    "samplebound": {"--agents", "--dim", "--eps", "--beta", "--formula"},
    "reproduce": {"name", "--seed", "--out-dir"},
    "fixtures": set(),
}


# Every public name of the package, so that an export change is deliberate.
PUBLIC_NAMES = [
    "AmbiguousSpectrumError", "EstimationResult", "FeasibleRegion", "LimitPrediction",
    "NumericalError", "OpinionDynError", "PolynomialPair", "SampleBoundQuery", "ScenarioSet",
    "SpectralReport", "SystemSpec", "Trajectory", "ValidationError", "abs_matrix",
    "appraisal_kind", "bilinear_transform", "classify_multi_issue", "classify_system",
    "draw_scenarios", "eigen", "empirical_violation", "epsilon_range", "feasible_rho_bound",
    "feasible_rho_cubic", "feasible_rho_direct", "grow_sample_estimate", "has_spanning_tree",
    "hb_step_check", "hermite_biehler_hurwitz", "imaginary_axis_parts",
    "laplacian_to_stochastic", "powers_converge", "predict_limit", "run", "run_multi_issue",
    "same_topology", "sample_bound", "solve_estimation", "spanning_tree_root",
    "stochastic_to_laplacian",
]


def test_public_names_are_pinned():
    # Submodules become package attributes when imported, so they are left out.
    found = sorted(name for name, value in vars(opiniondyn).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert found == PUBLIC_NAMES


class TestParser:
    def test_each_subcommand_takes_only_what_it_reads(self):
        sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        found = {
            name: {a.option_strings[0] if a.option_strings else a.dest
                   for a in p._actions if not isinstance(a, argparse._HelpAction)}
            for name, p in sub.choices.items()
        }
        assert found == OPTIONS
        assert sum(map(len, found.values())) == 34

    @pytest.mark.parametrize("argv", [
        ["samplebound", "--agents", "2", "--eps", "0.1", "--beta", "0.01", "--seed", "1"],
        ["analyze", "--system", "s.json", "--out-dir", "x"],
        ["simulate", "--system", "s.json", "--x0", "1", "--out", "t.csv", "--tol-eig", "1e-9"],
        ["fixtures", "--seed", "1"],
    ])
    def test_an_option_the_subcommand_does_not_read_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCsvFormat:
    """Golden bytes of the one CSV writer: every cell is Python's shortest round-trip repr."""

    CELLS = [-0.0, 5e-324, 1e16, 0.1, 1 / 3, np.inf]

    def test_trajectory_csv(self, tmp_path):
        xi = np.array([self.CELLS[:3], self.CELLS[3:]])
        traj = sim.Trajectory(
            xi_series=xi, ks=np.array([0, 1_000_000]), stop_reason=sim.CONVERGED,
            spread_series=np.array([1e16, np.inf]),
        )
        path = tmp_path / "deep" / "traj.csv"
        _write_trajectory_csv(path, traj)
        assert path.read_bytes() == (
            b"k,xi_1,xi_2,xi_3,spread\n"
            b"0,-0.0,5e-324,1e+16,1e+16\n"
            b"1000000,0.1,0.3333333333333333,inf,inf\n"
        )

    def test_scan_csv(self, tmp_path):
        path = tmp_path / "scan.csv"
        save_matrix_csv(path, np.column_stack([self.CELLS[:3], self.CELLS[3:]]),
                        header="rho,max_magnitude")
        assert path.read_bytes() == (
            b"# rho,max_magnitude\n-0.0,0.1\n5e-324,0.3333333333333333\n1e+16,inf\n"
        )

    def test_matrix_csv(self, tmp_path):
        path = tmp_path / "matrix.csv"
        save_matrix_csv(path, np.array(self.CELLS).reshape(2, 3))
        assert path.read_bytes() == b"-0.0,5e-324,1e+16\n0.1,0.3333333333333333,inf\n"
        np.testing.assert_array_equal(load_matrix_csv(path).reshape(-1), self.CELLS)


class TestFixtureCatalog:
    def test_catalog_validates(self):
        fx.validate_catalog()

    def test_checksum_pin(self):
        h = hashlib.sha256()
        for name in FIXTURE_ARRAYS:
            h.update(name.encode())
            h.update(np.ascontiguousarray(getattr(fx, name)).tobytes())
        assert h.hexdigest() == FIXTURE_SHA256

    def test_unknown_fixture(self):
        with pytest.raises(Exception, match="unknown fixture"):
            fx.fixture("nope")

    def test_listing(self, capsys):
        assert main(["fixtures"]) == 0
        out = capsys.readouterr().out
        for name in ("example1", "sec5-coop", "sec5-antag"):
            assert name in out


class TestAnalyze:
    def test_report_schema(self, system_files, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["analyze", "--system", str(system_files["example1"]), "--x0", "25,75,85",
             "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["classification"] == "consensus"
        assert doc["rho_rest"] == pytest.approx(0.5276171589, abs=1e-9)
        assert len(doc["eigenvalues"]) == 3
        assert all(len(pair) == 2 for pair in doc["eigenvalues"])
        assert doc["phi"] == pytest.approx([11.25, 11.25, 11.25], abs=1e-9)

    def test_out_creates_its_directory(self, system_files, tmp_path, capsys):
        out = tmp_path / "new" / "dir" / "report.json"
        code = main(["analyze", "--system", str(system_files["example1"]), "--out", str(out)])
        assert code == 0
        main(["analyze", "--system", str(system_files["example1"])])
        assert out.read_text() == capsys.readouterr().out

    def test_missing_file_exit_code(self, capsys):
        assert main(["analyze", "--system", "no-such-file.json"]) == 2
        assert "no-such-file.json" in capsys.readouterr().err

    def test_invalid_matrix_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "lambda": [1.0, 0.0],
            "laplacian": [[1.0, -1.0], [-1.0, 1.0]],
            "appraisal": [[0.5, 0.5], [0.5, 0.5]],
        }))
        assert main(["analyze", "--system", str(bad)]) == 2

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "1"])
    def test_tol_eig_outside_the_unit_interval_exit_code(self, system_files, capsys, tol):
        # Outside (0, 1) the tolerance would decide the verdict on its own.
        for name in ("example1", "coop"):
            assert main(["analyze", "--system", str(system_files[name]), "--tol-eig", tol]) == 2
            assert capsys.readouterr().err.startswith("error: tol_eig must be")

    @pytest.mark.parametrize("field, value, message", [
        ("laplacian", [[1.0, -0.5], [-1.0, 1.0]],
         "laplacian rows must sum to 0, worst residual 5.000e-01"),
        ("appraisal", [[0.4, -0.4], [0.3, 0.3]],
         "antagonistic appraisal rows must have absolute sum exactly 1"),
        ("lambda", [1.0, 0.0], "susceptibility factors must be nonzero"),
        ("lambda", ["x", 1.0], "lambda must be a rectangular array of numbers"),
        ("lambda", [10**400, 1.0], "lambda must be a rectangular array of numbers"),
        ("lambda", [[1.0], [1.0]], "lambda must be one-dimensional, got shape (2, 1)"),
        ("laplacian", [[1.0, -1.0], [-1.0]], "laplacian must be a rectangular array of numbers"),
        ("appraisal", {"a": 1}, "appraisal must be a rectangular array of numbers"),
        ("n_issues", "x", "n_issues must be an integer >= 1, got 'x'"),
        ("n_issues", 1.5, "n_issues must be an integer >= 1, got 1.5"),
        ("n_issues", 2, "n_issues=2 does not match the system's 1 issue(s)"),
        ("mids", 3, "issue coupling must be square, got shape ()"),
    ])
    def test_structural_error_exit_code(self, tmp_path, capsys, field, value, message):
        doc = {
            "lambda": [1.0, 1.0],
            "laplacian": [[1.0, -1.0], [-1.0, 1.0]],
            "appraisal": [[0.5, 0.5], [0.5, 0.5]],
            "mids": [[1.0]],
            "n_issues": 1,
        }
        doc[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["analyze", "--system", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSimulate:
    def test_csv_columns(self, system_files, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(
            ["simulate", "--system", str(system_files["coop"]),
             "--x0", "25,25,25,15,75,-50,85,5", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,xi_1,xi_2,xi_3,xi_4,xi_5,xi_6,xi_7,xi_8,spread"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert [float(v) for v in first[1:9]] == list(fx.X0_MULTI)

    def test_wrong_length_exit_code(self, system_files, tmp_path, capsys):
        code = main(
            ["simulate", "--system", str(system_files["example1"]),
             "--x0", "1,2", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--tol", "nan"], ["--tol", "-1"], ["--tol", "inf"], ["--window", "0"], ["--window", "-2"],
    ])
    def test_bad_stop_rule_exit_code(self, system_files, tmp_path, capsys, flags):
        for system, x0 in ((system_files["example1"], "25,75,85"),
                           (system_files["coop"], "25,25,25,15,75,-50,85,5")):
            out = tmp_path / "x.csv"
            code = main(["simulate", "--system", str(system), "--x0", x0, "--out", str(out)]
                        + flags)
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "error:" in captured.err
            assert not out.exists()

    def test_malformed_system_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "lambda": ["x", 1.0, 1.0],
            "laplacian": fx.EXAMPLE1_LAPLACIAN.tolist(),
            "appraisal": fx.EXAMPLE1_APPRAISAL.tolist(),
        }))
        out = tmp_path / "x.csv"
        code = main(["simulate", "--system", str(bad), "--x0", "25,75,85", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: lambda must be a rectangular array of numbers\n"
        assert not out.exists()


class TestStepsize:
    def test_direct_json_and_scan(self, system_files, tmp_path):
        out_json = tmp_path / "region.json"
        out_csv = tmp_path / "scan.csv"
        code = main(
            ["stepsize", "--laplacian", str(system_files["lap"]), "--method", "direct",
             "--grid", "1e-3", "--out-json", str(out_json), "--out-csv", str(out_csv)]
        )
        assert code == 0
        doc = json.loads(out_json.read_text())
        assert doc["method"] == "direct_scan"
        (lo, hi), = doc["intervals"]
        assert lo == 0.0 and hi == pytest.approx(1.0 / 3.0, abs=1e-6)
        scan = load_matrix_csv(out_csv)
        assert scan.shape[1] == 2
        inside = scan[scan[:, 0] < hi - 1e-3]
        assert (inside[:, 1] < 1.0).all()

    def test_direct_computes_one_spectrum_and_one_grid_scan(
        self, system_files, tmp_path, monkeypatch
    ):
        calls = {"eigen": 0, "grid": 0}
        eigen, scan = stepsize.eigen, stepsize.scan_magnitude

        def counted_eigen(M):
            calls["eigen"] += 1
            return eigen(M)

        def counted_scan(rhos, *args):
            calls["grid"] += len(rhos) > 1  # bisection probes pass one rho
            return scan(rhos, *args)

        monkeypatch.setattr(stepsize, "eigen", counted_eigen)
        monkeypatch.setattr(stepsize, "scan_magnitude", counted_scan)
        code = main(
            ["stepsize", "--laplacian", str(system_files["lap"]), "--method", "direct",
             "--out-dir", str(tmp_path)]
        )
        assert code == 0 and calls == {"eigen": 1, "grid": 1}

    def test_direct_rejects_a_graph_without_spanning_tree(self, tmp_path, capsys):
        lap = tmp_path / "split.csv"
        save_matrix_csv(lap, np.kron(np.eye(2), [[1.0, -1.0], [-1.0, 1.0]]))
        out_dir = tmp_path / "out"
        code = main(["stepsize", "--laplacian", str(lap), "--method", "direct",
                     "--out-dir", str(out_dir)])
        assert code == 2
        assert "spanning tree" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_every_method_runs(self, system_files, tmp_path):
        for extra in (
            ["--method", "cubic"],
            ["--method", "cubic-paper"],
            ["--method", "hb", "--rho", "0.2"],
            ["--method", "corollary1", "--eps", "0.1"],
            ["--method", "direct", "--eps", "0.1"],
        ):
            code = main(
                ["stepsize", "--laplacian", str(system_files["lap"]),
                 "--out-dir", str(tmp_path)] + extra
            )
            assert code == 0

    def test_flag_validation(self, system_files, tmp_path, capsys):
        base = ["stepsize", "--laplacian", str(system_files["lap"]), "--out-dir", str(tmp_path)]
        assert main(base + ["--method", "cubic", "--eps", "0.1"]) == 2
        assert main(base + ["--method", "hb"]) == 2
        assert main(base + ["--method", "corollary1"]) == 2

    def test_out_dir_with_both_named_outputs_is_rejected(self, tmp_path, capsys):
        # The Laplacian path does not exist: the flags are rejected before it is read.
        out_dir = tmp_path / "never"
        code = main(["stepsize", "--laplacian", str(tmp_path / "absent.csv"),
                     "--out-dir", str(out_dir), "--out-json", str(tmp_path / "r.json"),
                     "--out-csv", str(tmp_path / "s.csv")])
        assert code == 2
        assert "--out-dir" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, named", [
        (["--method", "corollary1"], "--eps"),
        (["--method", "cubic", "--eps", "0.1"], "--eps"),
        (["--method", "cubic-paper", "--eps", "0.1"], "--eps"),
        (["--method", "hb", "--eps", "0.1", "--rho", "0.2"], "--eps"),
        (["--method", "hb"], "--rho"),
        (["--method", "cubic", "--rho", "0.2"], "--rho"),
    ])
    def test_flag_rules_are_checked_before_the_laplacian_is_read(
        self, tmp_path, capsys, flags, named
    ):
        out_dir = tmp_path / "never"
        code = main(["stepsize", "--laplacian", str(tmp_path / "absent.csv"),
                     "--out-dir", str(out_dir)] + flags)
        assert code == 2
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_hb_json_keys(self, system_files, tmp_path, capsys):
        out_json = tmp_path / "hb.json"
        code = main(
            ["stepsize", "--laplacian", str(system_files["lap"]), "--method", "hb",
             "--rho", "0.2", "--out-json", str(out_json), "--out-dir", str(tmp_path)]
        )
        assert code == 0
        doc = json.loads(out_json.read_text())
        assert set(doc) == {"method", "rho", "hb_verdict", "direct_verdict", "magnitudes"}
        assert doc["method"] == "theorem_hb" and doc["rho"] == 0.2
        assert doc["hb_verdict"] is True and doc["direct_verdict"] is True
        assert len(doc["magnitudes"]) == 2 and max(doc["magnitudes"]) < 1.0
        assert json.loads(capsys.readouterr().out) == doc

    @pytest.mark.parametrize("flags", [
        ["--method", "hb", "--rho", "nan"],
        ["--method", "hb", "--rho", "inf"],
        ["--grid", "inf"],
        ["--grid", "nan"],
        ["--grid", "0"],
        ["--grid", "1e-7", "--rho-max", "1"],
        ["--rho-max", "-1"],
        ["--rho-max", "0"],
        ["--rho-max", "nan"],
        ["--method", "cubic", "--rho-max", "inf"],
        ["--eps", "nan", "--method", "direct"],
        ["--method", "cubic-paper", "--eps", "0.1"],
        ["--method", "cubic", "--rho", "0.2"],
    ])
    def test_bad_number_exit_code(self, system_files, tmp_path, capsys, flags):
        out_dir = tmp_path / "out"
        code = main(
            ["stepsize", "--laplacian", str(system_files["lap"]), "--out-dir", str(out_dir)]
            + flags
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out_dir.exists()


class TestEstimateAndBounds:
    def test_estimate_output(self, tmp_path, capsys):
        truth_path = tmp_path / "truth.json"
        fx.fixture("sec5-coop").system.save_json(truth_path)
        out = tmp_path / "result.json"
        code = main(
            ["estimate", "--system", str(truth_path), "--samples", "8",
             "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["gamma_star"] < 1e-16
        assert doc["m_used"] == 8
        assert doc["rank"] == 12 and doc["unique"] is False

    def test_estimate_growth_mode(self, tmp_path):
        truth_path = tmp_path / "truth.json"
        fx.fixture("sec5-coop").system.save_json(truth_path)
        out = tmp_path / "result.json"
        code = main(
            ["estimate", "--system", str(truth_path), "--samples", "1",
             "--gamma0", "1e-12", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["gamma_star"] <= 1e-12

    def test_estimate_cap_needs_the_growth_loop(self, tmp_path, capsys):
        truth_path = tmp_path / "truth.json"
        fx.fixture("sec5-coop").system.save_json(truth_path)
        out = tmp_path / "result.json"
        code = main(["estimate", "--system", str(truth_path), "--samples", "8",
                     "--cap", "3", "--out", str(out)])
        assert code == 2
        assert "--cap" in capsys.readouterr().err
        assert not out.exists()

    def test_estimate_growth_reads_the_cap(self, tmp_path, capsys):
        truth_path = tmp_path / "truth.json"
        fx.fixture("sec5-coop").system.save_json(truth_path)
        out = tmp_path / "result.json"
        code = main(["estimate", "--system", str(truth_path), "--samples", "5",
                     "--gamma0", "1e-12", "--cap", "3", "--out", str(out)])
        assert code == 2
        assert "m0 <= m_cap" in capsys.readouterr().err
        assert not out.exists()

    def test_estimate_cap_below_one_names_the_cap(self, tmp_path, capsys):
        truth_path = tmp_path / "truth.json"
        fx.fixture("sec5-coop").system.save_json(truth_path)
        out = tmp_path / "result.json"
        code = main(["estimate", "--system", str(truth_path), "--gamma0", "1e-12",
                     "--cap", "0", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: m_cap must be an integer >= 1, got 0\n"
        assert not out.exists()

    def test_estimate_malformed_system_exit_code(self, tmp_path, capsys):
        doc = fx.fixture("sec5-coop").system.to_json_dict()
        doc["appraisal"] = {"a": 1}
        truth_path = tmp_path / "truth.json"
        truth_path.write_text(json.dumps(doc))
        out = tmp_path / "result.json"
        code = main(["estimate", "--system", str(truth_path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: appraisal must be a rectangular array of numbers\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--seed", "-1"],
        ["--box", "nan"],
        ["--box", "inf"],
        ["--seed", "-1", "--gamma0", "1e-12"],
        ["--box", "nan", "--gamma0", "1e-12"],
        ["--gamma0", "nan"],
    ])
    def test_estimate_bad_draw_exit_code(self, tmp_path, capsys, flags):
        truth_path = tmp_path / "truth.json"
        fx.fixture("sec5-coop").system.save_json(truth_path)
        out = tmp_path / "result.json"
        code = main(["estimate", "--system", str(truth_path), "--out", str(out)] + flags)
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_samplebound_output(self, capsys):
        assert main(["samplebound", "--dim", "1", "--eps", "0.1", "--beta", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "m=44" in out and "tail=" in out
        assert main(["samplebound", "--agents", "2", "--eps", "0.1", "--beta", "0.01",
                     "--formula", "paper"]) == 0
        assert "m=48" in capsys.readouterr().out

    @pytest.mark.parametrize("size", [["--agents", "-3"], ["--agents", "0"], ["--dim", "0"]])
    def test_samplebound_rejects_a_size_below_one(self, size, capsys):
        assert main(["samplebound", *size, "--eps", "0.1", "--beta", "0.01"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err

    @pytest.mark.parametrize("size", [[], ["--agents", "99", "--dim", "1"]])
    def test_samplebound_takes_exactly_one_of_agents_and_dim(self, size, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["samplebound", *size, "--eps", "0.1", "--beta", "0.01"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--agents" in err and "--dim" in err


class TestReproduce:
    @pytest.mark.parametrize("name,verdict", [
        ("fig2a", "consensus-outside-hull"),
        ("fig2b", "consensus-inside-hull"),
        ("fig5", "consensus"),
        ("fig6", "clusters"),
        ("fig7a", "stability"),
        ("fig7b", "stability"),
        ("example-estimation", "zero-residual"),
    ])
    def test_verdicts(self, tmp_path, name, verdict):
        report = reproduce(name, tmp_path)
        assert report.verdict == verdict
        for artifact in report.artifacts:
            assert artifact.exists()

    def test_artifacts_byte_identical_across_runs(self, tmp_path):
        for name in REPRODUCE_NAMES:
            r1 = reproduce(name, tmp_path / "a")
            r2 = reproduce(name, tmp_path / "b")
            for p1, p2 in zip(r1.artifacts, r2.artifacts):
                assert p1.read_bytes() == p2.read_bytes()

    def test_scalars_recomputable_from_artifacts(self, tmp_path):
        report = reproduce("fig2a", tmp_path)
        rows = np.genfromtxt(tmp_path / "fig2a.csv", delimiter=",", skip_header=1)
        assert rows[-1, -1] == pytest.approx(report.scalars["final_spread"], abs=0)
        xi_final = rows[-1, 1:-1]
        assert float(np.mean(xi_final)) == pytest.approx(report.scalars["limit"], abs=0)
        analysis = json.loads((tmp_path / "fig2a-analysis.json").read_text())
        mags = sorted(abs(complex(re, im)) for re, im in analysis["eigenvalues"])
        assert mags[-2] == pytest.approx(report.scalars["rho_rest"], abs=1e-12)
        assert float(np.mean(analysis["phi"])) == pytest.approx(
            report.scalars["predicted_limit"], abs=0
        )

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        code = main(["reproduce", "example-estimation", "--seed", "-1",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_cli_entry_and_unknown_name(self, tmp_path, capsys):
        assert main(["reproduce", "fig2b", "--out-dir", str(tmp_path)]) == 0
        assert "consensus-inside-hull" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["reproduce", "not-a-figure", "--out-dir", str(tmp_path)])


class TestRepeatedCalls:
    """One process, many ``main`` calls: each must act as the first call of a fresh process."""

    SEQUENCE = [
        ["reproduce", "fig5", "--out-dir", "{out}"],
        ["samplebound", "--agents", "4", "--eps", "0.1", "--beta", "0.01"],
        ["samplebound", "--dim", "16", "--eps", "0.1", "--beta", "0.01", "--formula", "paper"],
        ["samplebound", "--agents", "2", "--dim", "3", "--eps", "0.1", "--beta", "0.01"],
        ["stepsize", "--laplacian", "{lap}", "--method", "direct", "--eps", "0.01",
         "--out-dir", "{out}"],
        ["stepsize", "--laplacian", "{lap}", "--method", "direct", "--out-dir", "{out}"],
        ["analyze", "--system", "{example1}", "--x0", "25,75,85"],
    ]

    @staticmethod
    def _call(argv, out_dir, system_files, capsys):
        """Exit code, stdout, stderr and the files written by one call, which are then removed."""
        paths = {"{out}": str(out_dir), **{f"{{{k}}}": str(v) for k, v in system_files.items()}}
        try:
            code = main([paths.get(a, a) for a in argv])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        files = {}
        for f in sorted(out_dir.iterdir()):
            files[f.name] = f.read_bytes()
            f.unlink()
        return code, captured.out, captured.err, files

    def test_consecutive_calls_match_first_calls(self, system_files, tmp_path, capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        first = []
        for argv in self.SEQUENCE:
            build_parser.cache_clear()
            first.append(self._call(argv, out_dir, system_files, capsys))
        build_parser.cache_clear()
        for argv, expected in zip(self.SEQUENCE, first):
            assert self._call(argv, out_dir, system_files, capsys) == expected, argv
        assert build_parser.cache_info().misses == 1
        assert [r[0] for r in first] == [0, 0, 0, 2, 0, 0, 0]
        assert all(r[3] for r in first[4:6]) and first[4][3] != first[5][3]

    def test_each_call_logs_to_its_own_stderr_at_its_own_level(
        self, tmp_path, capsys, monkeypatch
    ):
        truth = tmp_path / "truth.json"
        fx.fixture("sec5-coop").system.save_json(truth)
        root = logging.getLogger()
        root_state = (root.level, list(root.handlers))
        errs = []
        for level in ("debug", "debug", "error"):
            monkeypatch.setenv("OPINION_LOG", level)
            assert main(["estimate", "--system", str(truth), "--samples", "2",
                         "--gamma0", "1e-12", "--out", str(tmp_path / "r.json")]) == 0
            errs.append(capsys.readouterr().err)
        assert errs[0].startswith("INFO opiniondyn.estimate: estimation regressor rank 6 < 16")
        assert all(line.startswith(("INFO opiniondyn.", "DEBUG opiniondyn."))
                   for line in errs[0].splitlines())
        assert errs[1] == errs[0]
        assert errs[2] == ""
        assert (root.level, list(root.handlers)) == root_state


def _run_module(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "opiniondyn.cli", *args],
                          capture_output=True, text=True, timeout=120, env=env)


def test_module_entry_point_exit_codes(tmp_path):
    proc = _run_module("reproduce", "fig2b", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("fig2b: consensus-inside-hull\n")
    assert (tmp_path / "fig2b-report.json").exists()
    proc = _run_module("samplebound", "--agents", "2", "--eps", "0.1", "--beta", "0.01",
                       "--seed", "1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: opiniondyn ")
    assert "unrecognized arguments: --seed 1" in proc.stderr
