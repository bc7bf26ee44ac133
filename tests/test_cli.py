import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import assert_datasets_equal, traced_peak
from panel_oracle import read_predictions_rowwise
from psqrnn import artifact, cli, paneldata
from psqrnn.artifact import embedded_schema
from psqrnn.losses import TauGrid
from psqrnn.model import ModelKind, PenaltyConfig, predict_panel
from psqrnn.paneldata import (
    PanelDataset,
    SyntheticConfig,
    destandardize_response,
    emit,
    generate_synthetic,
    scenario_split,
)
from psqrnn.pipeline import evaluate_split, prepare_scenario, train_model
from psqrnn.trainer import AnnealSchedule, TrainConfig

FAST_FLAGS = ["--restarts", "1", "--max-iters", "60", "--eps-end", str(2.0 ** -16)]


def run(args):
    return cli.main(args)


def run_json(args, capsys):
    capsys.readouterr()  # drop output of any earlier commands
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def synth_csv(tmp_path):
    path = tmp_path / "panel.csv"
    assert run(["synth", "--output", str(path), "--seed", "3",
                "--n-individuals", "4", "--n-periods", "20",
                "--noise", "normal", "--nonlinear", "none"]) == 0
    return path


class TestSynth:
    def test_writes_deterministic_file(self, tmp_path):
        # Same command twice (the config echo embeds the output path, so the
        # path must match for byte identity).
        path = tmp_path / "a.csv"
        assert run(["synth", "--output", str(path), "--seed", "7"]) == 0
        first = path.read_bytes()
        assert run(["synth", "--output", str(path), "--seed", "7"]) == 0
        assert path.read_bytes() == first

    def test_truth_sidecar(self, tmp_path):
        out = tmp_path / "p.csv"
        truth = tmp_path / "truth.json"
        assert run(["synth", "--output", str(out), "--truth-output", str(truth),
                    "--seed", "1", "--n-individuals", "3"]) == 0
        doc = json.loads(truth.read_text())
        assert len(doc["truth"]["beta"]) == 2
        assert len(doc["truth"]["alpha"]) == 3
        assert doc["config"]["seed"] == 1

    def test_noiseless_case(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code, status = run_json(
            ["synth", "--output", str(out), "--noise-scale", "0",
             "--heterogeneity-scale", "0", "--nonlinear", "none",
             "--base-level", "0", "--n-individuals", "2", "--n-periods", "3"],
            capsys)
        assert code == 0 and status["n_periods"] == 3

    @pytest.mark.parametrize("nonlinear", ["quadratic", "interaction"])
    def test_nonlinear_kinds(self, tmp_path, capsys, nonlinear):
        out = tmp_path / "p.csv"
        code, status = run_json(["synth", "--output", str(out), "--seed", "2",
                                 "--nonlinear", nonlinear, "--n-individuals", "3"], capsys)
        assert code == 0 and status["n_individuals"] == 3
        assert np.isfinite(_ingest_embedded(out).y).all()

    def test_invalid_dims_exit_code(self, tmp_path):
        assert run(["synth", "--output", str(tmp_path / "p.csv"),
                    "--n-individuals", "0"]) == 1


class TestIngest:
    def test_summary_fully_observed(self, synth_csv, capsys):
        code, doc = run_json(["ingest", "--input", str(synth_csv)], capsys)
        assert code == 0
        assert doc["summary"]["n_individuals"] == 4
        for stats in doc["summary"]["variables"].values():
            assert stats["missing_percent"] == 0.0

    def test_missing_percent_one_of_300(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        run(["synth", "--output", str(path), "--seed", "1",
             "--n-individuals", "30", "--n-periods", "10",
             "--n-parametric", "1", "--n-network", "1"])
        lines = path.read_text().splitlines()
        # blank one covariate cell in the first data row: columns are
        # individual,period,y,z1,x1
        cells = lines[2].split(",")
        cells[4] = ""
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        code, doc = run_json(["ingest", "--input", str(path)], capsys)
        assert code == 0
        pct = doc["summary"]["variables"]["x1"]["missing_percent"]
        assert f"{pct:.2f}" == "0.33"

    def test_bad_cell_names_row(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        run(["synth", "--output", str(path), "--seed", "1",
             "--n-individuals", "2", "--n-periods", "2"])
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[2] = "oops"
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        code = run(["ingest", "--input", str(path)])
        assert code == 2

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_row(self, tmp_path, capsys, token):
        path = tmp_path / "p.csv"
        run(["synth", "--output", str(path), "--seed", "1",
             "--n-individuals", "2", "--n-periods", "2"])
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[2] = token
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["ingest", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        # lines[3] is physical line 4: the '# {json}' preamble is line 1.
        assert "line 4, column 'y'" in err and token in err

    def test_undefined_moments_are_strict_json_null(self, tmp_path, capsys):
        # Two individuals: every period has fewer than 3 observations, so
        # skewness and kurtosis are undefined.
        path = tmp_path / "p.csv"
        run(["synth", "--output", str(path), "--seed", "1",
             "--n-individuals", "2", "--n-periods", "3"])
        capsys.readouterr()
        assert run(["ingest", "--input", str(path)]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        for stats in doc["summary"]["variables"].values():
            assert stats["skewness_by_period"] == [None] * 3
            assert stats["kurtosis_by_period"] == [None] * 3

    @pytest.mark.parametrize("delimiter", ["ab", ""])
    def test_delimiter_of_other_length_is_a_usage_error(self, synth_csv, capsys, delimiter):
        capsys.readouterr()
        assert run(["ingest", "--input", str(synth_csv), "--delimiter", delimiter]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: delimiter must be a single character")
        assert "Traceback" not in err

    def test_header_naming_a_schema_column_twice(self, tmp_path, capsys):
        path = tmp_path / "panel.csv"
        path.write_text("province,year,EC,EC,GDP\nA,2000,1,2,3\nA,2001,4,5,6\n")
        capsys.readouterr()
        assert run(["ingest", "--input", str(path), "--response", "EC",
                    "--parametric", "GDP", "--network", "GDP"]) == 2
        assert "header repeats required columns ['EC']" in capsys.readouterr().err

    def test_canonical_output_reingestable(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "canonical.csv"
        assert run(["ingest", "--input", str(synth_csv), "--output", str(out)]) == 0
        code, doc = run_json(["ingest", "--input", str(out)], capsys)
        assert code == 0 and doc["summary"]["n_individuals"] == 4


class TestTrain:
    def test_default_smoke_and_artifact(self, synth_csv, tmp_path):
        art = tmp_path / "fit.json"
        code = run(["train", "--input", str(synth_csv), "--output", str(art),
                    "--taus", "3", "--hidden", "3", "--seed", "1", *FAST_FLAGS])
        assert code == 0
        doc = json.loads(art.read_text())
        assert doc["schema_version"] == 2
        assert doc["config"]["kind"] == "psqrnn"
        assert len(doc["fits"]) == 1
        assert doc["fits"][0]["params"]["net"] is not None
        assert len(doc["fits"][0]["taus"]) == 3

    def test_quantile_level_outside_the_unit_interval_is_a_usage_error(self, synth_csv,
                                                                      tmp_path, capsys):
        capsys.readouterr()
        assert run(["train", "--input", str(synth_csv), "--output", str(tmp_path / "f.json"),
                    "--taus", "1.5"]) == 1
        err = capsys.readouterr().err
        assert err == "error: every quantile level must lie in (0, 1), got (1.5,)\n"

    def test_linear_kind_has_no_network(self, synth_csv, tmp_path):
        art = tmp_path / "fit.json"
        code = run(["train", "--input", str(synth_csv), "--output", str(art),
                    "--kind", "linear", "--taus", "0.5", *FAST_FLAGS])
        assert code == 0
        doc = json.loads(art.read_text())
        assert doc["fits"][0]["params"]["net"] is None

    def test_stage_trace_records_work_and_stop(self, synth_csv, tmp_path):
        art = tmp_path / "fit.json"
        code = run(["train", "--input", str(synth_csv), "--output", str(art),
                    "--kind", "linear", "--taus", "0.5", *FAST_FLAGS])
        assert code == 0
        fit = json.loads(art.read_text())["fits"][0]
        for stage in fit["stage_trace"]:
            assert set(stage) == {"epsilon", "iterations", "nfev", "objective", "stop"}
            assert stage["nfev"] >= stage["iterations"] + 1
        assert fit["converged"] == fit["stage_trace"][-1]["stop"].startswith("CONVERGENCE")

    def test_scenario3_paper_setup_flags(self, synth_csv, tmp_path):
        art = tmp_path / "fit.json"
        code = run(["train", "--input", str(synth_csv), "--output", str(art),
                    "--scenario", "3", "--hidden", "15,5",
                    "--lambda1", "0.005", "--lambda2", "0.01",
                    "--taus", "3", "--seed", "2", *FAST_FLAGS])
        assert code == 0
        doc = json.loads(art.read_text())
        assert doc["config"]["scenario"] == 3
        assert doc["config"]["hidden"] == [15, 5]
        assert doc["config"]["lambda1"] == 0.005
        assert doc["config"]["lambda2"] == 0.01
        spec = doc["fits"][0]["params"]["net"]["spec"]
        assert spec["hidden_sizes"] == [15, 5]
        # scenario 3 augments the network part with the lagged response
        assert spec["input_dim"] == 3

    def test_default_tau_grid_is_dense_fifty(self, synth_csv, tmp_path):
        art = tmp_path / "fit.json"
        code = run(["train", "--input", str(synth_csv), "--output", str(art),
                    "--kind", "linear", *FAST_FLAGS])
        assert code == 0
        doc = json.loads(art.read_text())
        taus = doc["fits"][0]["taus"]
        assert len(taus) == 50
        assert taus[0] == 0.01 and abs(taus[-1] - 0.99) < 1e-12
        # The symmetric default grid fits the median.
        assert abs(doc["fits"][0]["tau_bar"] - 0.5) < 1e-15

    def test_per_tau(self, synth_csv, tmp_path):
        art = tmp_path / "fit.json"
        code = run(["train", "--input", str(synth_csv), "--output", str(art),
                    "--kind", "linear", "--taus", "0.2,0.8", "--per-tau", *FAST_FLAGS])
        assert code == 0
        doc = json.loads(art.read_text())
        assert len(doc["fits"]) == 2
        assert doc["fits"][0]["taus"] == [0.2]
        assert [f["tau_bar"] for f in doc["fits"]] == [0.2, 0.8]

    def test_usage_error_exit_code(self, synth_csv, tmp_path):
        assert run(["train", "--input", str(synth_csv),
                    "--output", str(tmp_path / "f.json"), "--kind", "nope"]) == 1
        assert run(["train", "--input", str(synth_csv),
                    "--output", str(tmp_path / "f.json"), "--optimizer", "gd"]) == 1

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_grad_tol_is_a_usage_error(self, synth_csv, tmp_path, value):
        # With an infinite tolerance every stage would stop at its start.
        art = tmp_path / "f.json"
        assert run(["train", "--input", str(synth_csv), "--output", str(art),
                    "--grad-tol", value]) == 1
        assert not art.exists()

    def test_missing_input_is_data_error(self, tmp_path):
        assert run(["train", "--input", str(tmp_path / "absent.csv"),
                    "--output", str(tmp_path / "f.json")]) == 2

    def test_numeric_overflow_is_training_error(self, synth_csv, tmp_path):
        # A weight penalty near the float ceiling overflows the objective at
        # the first evaluation.
        assert run(["train", "--input", str(synth_csv),
                    "--output", str(tmp_path / "f.json"),
                    "--taus", "0.5", "--hidden", "3",
                    "--lambda2", "1e308", *FAST_FLAGS]) == 3


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: psqrnn")


class TestFlagsBeforeFiles:
    """Flags that need no data are checked before the input is read."""

    @pytest.mark.parametrize("flags, message", [
        (["train", "--restarts", "0"], "error: restarts must be >= 1, got 0\n"),
        (["train", "--taus", "1.5"],
         "error: every quantile level must lie in (0, 1), got (1.5,)\n"),
        (["train", "--hidden", "1,a"],
         "error: argument --hidden: invalid comma list of int value: '1,a'\n"),
        (["grid-search", "--kind", "linear", "--grid-n1", "2"],
         "error: grid search requires a network model kind\n"),
        (["grid-search", "--grid-n1", "2", "--grid-lambda1=-1"],
         "error: lambda1 must be a finite nonnegative real, got -1.0\n"),
        (["grid-search", "--grid-n1", "2", "--grid-n2", ""],
         "error: argument --grid-n2: invalid comma list of int value: ''\n"),
        (["train", "--hidden", "0"], "error: hidden sizes must be >= 1, got (0,)\n"),
        (["train", "--seed", "-1"], "error: seed must be >= 0, got -1\n"),
        (["grid-search", "--grid-n1", "2"],
         "error: two-hidden-layer template needs n2_values\n"),
        (["grid-search", "--hidden", "3", "--grid-n1", "2", "--grid-n2", "2"],
         "error: one-hidden-layer template has no second layer to size; "
         "give the template two hidden layers to search n2_values\n"),
    ], ids=["restarts", "taus", "hidden", "linear-grid", "grid-lambda1", "empty-grid-n2",
            "hidden-0", "negative-seed", "two-layer-without-grid-n2",
            "one-layer-with-grid-n2"])
    def test_bad_flag_is_reported_before_a_missing_input(self, tmp_path, capsys, monkeypatch,
                                                          flags, message):
        def no_ingest(*args, **kwargs):
            raise AssertionError("read the input before the flags were checked")

        monkeypatch.setattr(paneldata, "ingest", no_ingest)
        capsys.readouterr()
        assert run([*flags, "--input", str(tmp_path / "absent.csv"),
                    "--output", str(tmp_path / "f.json")]) == 1
        assert capsys.readouterr().err == message

    def test_synth_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "never.csv"
        capsys.readouterr()
        assert run(["synth", "--output", str(path), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not path.exists()

    def test_csv_output_whose_preamble_fails_is_not_created(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(TypeError):
            with cli._open_csv(str(path), {"value": object()}, ["a"]):
                pass
        assert not path.exists()


class TestReproducibility:
    def test_rerun_is_bit_identical(self, synth_csv, tmp_path):
        art = tmp_path / "fit.json"
        args = ["train", "--input", str(synth_csv), "--output", str(art),
                "--taus", "3", "--hidden", "3", "--seed", "5", *FAST_FLAGS]
        assert run(args) == 0
        first = art.read_bytes()
        assert run(args) == 0
        assert art.read_bytes() == first

    def test_rerun_from_embedded_config(self, synth_csv, tmp_path):
        art = tmp_path / "fit.json"
        args = ["train", "--input", str(synth_csv), "--output", str(art),
                "--taus", "0.25,0.5,0.75", "--hidden", "4,2", "--seed", "9",
                "--lambda1", "0.01", *FAST_FLAGS]
        assert run(args) == 0
        first = art.read_bytes()
        config = json.loads(first)["config"]
        rebuilt = [
            "train",
            "--input", config["input"],
            "--output", config["output"],
            "--scenario", str(config["scenario"]),
            "--kind", config["kind"],
            "--taus", ",".join(repr(t) for t in config["taus"]),
            "--hidden", ",".join(str(h) for h in config["hidden"]),
            "--activation", config["activation"],
            "--lambda1", repr(config["lambda1"]),
            "--lambda2", repr(config["lambda2"]),
            "--restarts", str(config["restarts"]),
            "--seed", str(config["seed"]),
            "--eps-start", repr(config["eps_start"]),
            "--eps-end", repr(config["eps_end"]),
            "--eps-factor", repr(config["eps_factor"]),
            "--max-iters", str(config["max_iters"]),
            "--grad-tol", repr(config["grad_tol"]),
        ]
        if not config["standardize"]:
            rebuilt.append("--no-standardize")
        assert run(rebuilt) == 0
        assert art.read_bytes() == first


class TestGridSearch:
    def test_single_point(self, synth_csv, tmp_path):
        art = tmp_path / "best.json"
        table = tmp_path / "table.csv"
        code = run(["grid-search", "--input", str(synth_csv), "--output", str(art),
                    "--table-output", str(table), "--grid-n1", "2",
                    "--taus", "0.5", "--hidden", "2", "--seed", "1", *FAST_FLAGS])
        assert code == 0
        rows = [ln for ln in table.read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert rows[0] == "n1,n2,lambda1,lambda2,avg_loss,bic,status"
        assert len(rows) == 2
        doc = json.loads(art.read_text())
        assert doc["config"]["selected"]["n1"] == 2

    def test_linear_kind_is_a_config_error(self, synth_csv, tmp_path, capsys):
        art = tmp_path / "best.json"
        capsys.readouterr()
        assert run(["grid-search", "--input", str(synth_csv), "--output", str(art),
                    "--kind", "linear", "--grid-n1", "2", *FAST_FLAGS]) == 1
        assert capsys.readouterr().err == "error: grid search requires a network model kind\n"
        assert not art.exists()

    def test_penalty_flags_belong_to_train(self, synth_csv, tmp_path, capsys):
        capsys.readouterr()
        assert run(["grid-search", "--input", str(synth_csv), "--output",
                    str(tmp_path / "a.json"), "--grid-n1", "2", "--lambda1", "0.1"]) == 1
        assert "unrecognized arguments: --lambda1 0.1" in capsys.readouterr().err
        echoed = ("lambda1", "lambda2", "per_tau")
        art, table = tmp_path / "best.json", tmp_path / "table.csv"
        assert run(["grid-search", "--input", str(synth_csv), "--output", str(art),
                    "--table-output", str(table), "--grid-n1", "2", "--taus", "0.5",
                    "--hidden", "2", *FAST_FLAGS]) == 0
        preamble = json.loads(table.read_text().splitlines()[0][2:])
        for config in (json.loads(art.read_text())["config"], preamble["config"]):
            assert [key for key in echoed if key in config] == []
        fit = tmp_path / "fit.json"
        assert run(["train", "--input", str(synth_csv), "--output", str(fit),
                    "--taus", "0.5", "--hidden", "2", *FAST_FLAGS]) == 0
        config = json.loads(fit.read_text())["config"]
        assert [config[key] for key in echoed] == [0.005, 0.01, False]

    def test_identical_reruns_identical_tables(self, synth_csv, tmp_path):
        tables = []
        for name in ("t1.csv", "t2.csv"):
            table = tmp_path / name
            code = run(["grid-search", "--input", str(synth_csv),
                        "--output", str(tmp_path / (name + ".json")),
                        "--table-output", str(table), "--grid-n1", "1,2",
                        "--taus", "0.5", "--hidden", "2", "--seed", "1", *FAST_FLAGS])
            assert code == 0
            tables.append((tmp_path / name).read_text())
        a = tables[0].splitlines()[1:]
        b = tables[1].splitlines()[1:]
        assert a == b

    def test_per_tau_is_not_an_option(self, synth_csv, tmp_path):
        code = run(["grid-search", "--input", str(synth_csv), "--output",
                    str(tmp_path / "a.json"), "--hidden", "3", "--grid-n1", "3",
                    "--taus", "0.2,0.8", "--per-tau", *FAST_FLAGS])
        assert code == 1
        assert not (tmp_path / "a.json").exists()

    @pytest.mark.parametrize("flag", ["--grid-lambda1=-1", "--grid-lambda2=0.01,nan",
                                      "--grid-n1=0,3", "--grid-n2=5,7"])
    def test_unusable_grid_value_is_a_usage_error(self, synth_csv, tmp_path, flag,
                                                   monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the grid was checked")

        monkeypatch.setattr("psqrnn.selection.trainer.fit", no_fit)
        code = run(["grid-search", "--input", str(synth_csv), "--output",
                    str(tmp_path / "a.json"), "--hidden", "3", "--grid-n1", "3", flag,
                    *FAST_FLAGS])
        assert code == 1

    def test_two_by_two_selects_table_minimum(self, synth_csv, tmp_path):
        art = tmp_path / "best.json"
        table = tmp_path / "table.csv"
        code = run(["grid-search", "--input", str(synth_csv), "--output", str(art),
                    "--table-output", str(table), "--grid-n1", "1,2",
                    "--grid-lambda2", "0.01,0.1",
                    "--taus", "0.5", "--hidden", "2", "--seed", "1", *FAST_FLAGS])
        assert code == 0
        rows = [ln.split(",") for ln in table.read_text().splitlines()[2:] if ln]
        assert len(rows) == 4
        scored = [(float(r[5]), int(r[0]), float(r[3])) for r in rows if r[6] == "ok"]
        best_bic = min(s[0] for s in scored)
        doc = json.loads(art.read_text())
        assert doc["config"]["selected"]["bic"] == pytest.approx(best_bic, rel=1e-12)


class TestPredictEvaluate:
    def fit_artifact(self, synth_csv, tmp_path, extra=()):
        art = tmp_path / "fit.json"
        code = run(["train", "--input", str(synth_csv), "--output", str(art),
                    "--kind", "linear", "--taus", "0.5", "--seed", "4",
                    *FAST_FLAGS, *extra])
        assert code == 0
        return art

    def test_predict_writes_test_rows(self, synth_csv, tmp_path):
        art = self.fit_artifact(synth_csv, tmp_path)
        pred = tmp_path / "pred.csv"
        assert run(["predict", "--artifact", str(art), "--input", str(synth_csv),
                    "--output", str(pred)]) == 0
        rows = [ln for ln in pred.read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        assert len(rows) == 4 * 5

    def test_scenario3_future_rows(self, synth_csv, tmp_path):
        art = self.fit_artifact(synth_csv, tmp_path, extra=["--scenario", "3"])
        pred = tmp_path / "pred.csv"
        assert run(["predict", "--artifact", str(art), "--input", str(synth_csv),
                    "--output", str(pred)]) == 0
        rows = [ln.split(",") for ln in pred.read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        assert len(rows) == 4 * 5
        years = sorted({int(r[1]) for r in rows})
        assert years == [2019, 2020, 2021, 2022, 2023]

    def test_per_tau_predict_and_evaluate(self, synth_csv, tmp_path, capsys):
        art = tmp_path / "fit.json"
        assert run(["train", "--input", str(synth_csv), "--output", str(art),
                    "--kind", "linear", "--taus", "0.2,0.8", "--per-tau",
                    "--seed", "4", *FAST_FLAGS]) == 0
        pred = tmp_path / "pred.csv"
        assert run(["predict", "--artifact", str(art), "--input", str(synth_csv),
                    "--output", str(pred)]) == 0
        rows = [ln.split(",") for ln in pred.read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        assert len(rows) == 2 * 4 * 5
        assert sorted({r[2] for r in rows}) == ["0.2", "0.8"]
        # without --tau the mixed file is ambiguous
        assert run(["evaluate", "--predictions", str(pred),
                    "--actuals", str(synth_csv)]) == 2
        code, status = run_json(["evaluate", "--predictions", str(pred),
                                 "--actuals", str(synth_csv), "--tau", "0.8"], capsys)
        assert code == 0 and status["total_mape"] > 0.0

    def test_unknown_individuals_rejected(self, synth_csv, tmp_path):
        art = self.fit_artifact(synth_csv, tmp_path)
        other = tmp_path / "other.csv"
        run(["synth", "--output", str(other), "--seed", "3",
             "--n-individuals", "5", "--n-periods", "20",
             "--noise", "normal", "--nonlinear", "none"])
        assert run(["predict", "--artifact", str(art), "--input", str(other),
                    "--output", str(tmp_path / "p.csv")]) == 2

    @pytest.mark.parametrize("flags, shown", [
        (["--parametric", "z2,z1", "--network", "x2,x1"],
         "parametric ['z2', 'z1'], network ['x2', 'x1']"),
        (["--parametric", "z1"], "parametric ['z1'], network ['x1', 'x2']"),
    ])
    def test_covariates_other_than_the_artifact_are_a_data_error(
            self, synth_csv, tmp_path, capsys, flags, shown):
        # Without standardization no saved state checks the columns.
        art = self.fit_artifact(synth_csv, tmp_path, extra=["--no-standardize"])
        capsys.readouterr()
        assert run(["predict", "--artifact", str(art), "--input", str(synth_csv),
                    "--output", str(tmp_path / "p.csv"), *flags]) == 2
        err = capsys.readouterr().err
        assert shown in err
        assert "fitted on parametric ['z1', 'z2'], network ['x1', 'x2']" in err

    def test_malformed_artifact_is_a_data_error(self, synth_csv, tmp_path):
        art = self.fit_artifact(synth_csv, tmp_path)
        document = json.loads(art.read_text())
        del document["fits"][0]["params"]
        art.write_text(json.dumps(document))
        assert run(["predict", "--artifact", str(art), "--input", str(synth_csv),
                    "--output", str(tmp_path / "p.csv")]) == 2

    def test_artifact_of_another_schema_version_is_a_data_error(self, synth_csv, tmp_path,
                                                               capsys):
        art = self.fit_artifact(synth_csv, tmp_path)
        document = json.loads(art.read_text())
        document["schema_version"] = 1
        art.write_text(json.dumps(document))
        capsys.readouterr()
        assert run(["predict", "--artifact", str(art), "--input", str(synth_csv),
                    "--output", str(tmp_path / "p.csv")]) == 2
        assert "has schema version 1, expected 2" in capsys.readouterr().err

    def test_noiseless_train_rows_reproduce_response(self, tmp_path):
        panel = tmp_path / "noiseless.csv"
        run(["synth", "--output", str(panel), "--seed", "2", "--n-individuals", "3",
             "--n-periods", "20", "--noise-scale", "0", "--nonlinear", "none",
             "--base-level", "10"])
        art = tmp_path / "fit.json"
        assert run(["train", "--input", str(panel), "--output", str(art),
                    "--kind", "linear", "--taus", "0.5", "--seed", "0",
                    "--restarts", "1"]) == 0
        pred = tmp_path / "pred.csv"
        assert run(["predict", "--artifact", str(art), "--input", str(panel),
                    "--output", str(pred), "--which", "train"]) == 0
        rows = [ln.split(",") for ln in pred.read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        predicted = {(r[0], int(r[1])): float(r[3]) for r in rows}
        ds = _ingest_embedded(panel)
        for (ind, year), value in predicted.items():
            i = ds.individuals.index(ind)
            j = ds.periods.index(year)
            assert abs(value - ds.y[i, j]) < 1e-3

    def test_evaluate_perfect_predictions(self, synth_csv, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        ds = _ingest_embedded(synth_csv)
        with open(pred, "w") as handle:
            handle.write('# {"command": "predict"}\n')
            handle.write("individual,period,tau,predicted\n")
            for i, ind in enumerate(ds.individuals):
                for j in (15, 16, 17, 18, 19):
                    handle.write(f"{ind},{ds.periods[j]},,{float(ds.y[i, j])!r}\n")
        report_path = tmp_path / "report.json"
        code, status = run_json(["evaluate", "--predictions", str(pred),
                                 "--actuals", str(synth_csv),
                                 "--output", str(report_path)], capsys)
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["report"]["total_mape"] == 0.0
        assert doc["report"]["total_rrmse"] == 0.0
        assert doc["report"]["mape_mean"] == 0.0
        assert "mape_std" in doc["report"]

    @staticmethod
    def evaluate_2x2(tmp_path, actual):
        """``evaluate`` argv for a hand 2x2 panel of actuals and fixed predictions."""
        actuals = tmp_path / "actuals.csv"
        with open(actuals, "w") as handle:
            handle.write("individual,period,y,z1,x1\n")
            for ind, series in zip(("a", "b"), actual):
                for year, value in zip((2000, 2001), series):
                    handle.write(f"{ind},{year},{value!r},0.0,0.0\n")
        pred = tmp_path / "pred.csv"
        values = {("a", 2000): 110.0, ("a", 2001): 180.0,
                  ("b", 2000): 55.0, ("b", 2001): 72.0}
        with open(pred, "w") as handle:
            handle.write("individual,period,tau,predicted\n")
            for (ind, year), value in values.items():
                handle.write(f"{ind},{year},,{value!r}\n")
        schema_flags = ["--individual-col", "individual", "--period-col", "period",
                        "--response", "y", "--parametric", "z1", "--network", "x1"]
        return ["evaluate", "--predictions", str(pred), "--actuals", str(actuals),
                *schema_flags]

    def test_evaluate_metrics_passthrough(self, tmp_path, capsys):
        # Hand 2x2 case from the metrics module, driven through the files.
        actual = np.array([[100.0, 200.0], [50.0, 80.0]])
        code, status = run_json(self.evaluate_2x2(tmp_path, actual.tolist()), capsys)
        assert code == 0
        predicted = np.array([[110.0, 180.0], [55.0, 72.0]])
        assert status["total_mape"] == np.mean(np.abs((actual - predicted) / actual))

    def test_evaluate_zero_actual_is_a_data_error(self, tmp_path, capsys):
        argv = self.evaluate_2x2(tmp_path, [[100.0, 200.0], [50.0, 0.0]])
        capsys.readouterr()
        assert run(argv) == 2
        actuals = argv[argv.index("--actuals") + 1]
        assert capsys.readouterr().err == (
            f"data error: {actuals}: actual response is zero for (b, 2001); "
            "MAPE is undefined\n")

    def test_evaluate_tau_without_rows_names_the_file(self, tmp_path, capsys):
        argv = self.evaluate_2x2(tmp_path, [[100.0, 200.0], [50.0, 80.0]])
        capsys.readouterr()
        assert run([*argv, "--tau", "0.9"]) == 2
        pred = argv[argv.index("--predictions") + 1]
        assert capsys.readouterr().err == (
            f"data error: {pred}: no prediction rows matched tau='0.9'\n")

    def test_evaluate_actuals_lacking_a_period(self, tmp_path, capsys):
        argv = self.evaluate_2x2(tmp_path, [[100.0, 200.0], [50.0, 80.0]])
        pred = tmp_path / "pred.csv"
        with open(pred, "a") as handle:
            handle.write("a,2002,,1.0\nb,2002,,1.0\n")
        capsys.readouterr()
        assert run(argv) == 2
        actuals = argv[argv.index("--actuals") + 1]
        assert capsys.readouterr().err == (
            f"data error: {actuals}: actuals file lacks periods [2002]\n")

    def test_evaluate_actuals_lacking_an_individual(self, tmp_path, capsys):
        argv = self.evaluate_2x2(tmp_path, [[100.0, 200.0], [50.0, 80.0]])
        with open(tmp_path / "pred.csv", "a") as handle:
            handle.write("c,2000,,1.0\nc,2001,,1.0\n")
        capsys.readouterr()
        assert run(argv) == 2
        actuals = argv[argv.index("--actuals") + 1]
        assert capsys.readouterr().err == (
            f"data error: {actuals}: actuals file lacks individuals ['c']\n")

    def test_evaluate_misaligned_keys(self, synth_csv, tmp_path):
        pred = tmp_path / "pred.csv"
        with open(pred, "w") as handle:
            handle.write("individual,period,tau,predicted\n")
            handle.write("ghost,2014,,1.0\n")
        assert run(["evaluate", "--predictions", str(pred),
                    "--actuals", str(synth_csv)]) == 2

    def test_evaluate_keeps_first_seen_individual_order(self, synth_csv, tmp_path):
        pred = tmp_path / "pred.csv"
        ds = _ingest_embedded(synth_csv)
        order = list(reversed(ds.individuals))
        with open(pred, "w") as handle:
            handle.write("individual,period,tau,predicted\n")
            for ind in order:
                for year in (ds.periods[16], ds.periods[15]):
                    handle.write(f"{ind},{year},,1.0\n")
        report_path = tmp_path / "report.json"
        assert run(["evaluate", "--predictions", str(pred), "--actuals", str(synth_csv),
                    "--output", str(report_path)]) == 0
        doc = json.loads(report_path.read_text())
        assert doc["individuals"] == order
        assert doc["periods"] == [ds.periods[15], ds.periods[16]]

    def test_evaluate_names_first_missing_actual(self, synth_csv, tmp_path, capsys):
        lines = synth_csv.read_text().splitlines()
        # Blank the last-period response of the second and third individuals.
        for k in (1 + 2 * 20, 1 + 3 * 20):
            cells = lines[k].split(",")
            cells[2] = ""
            lines[k] = ",".join(cells)
        synth_csv.write_text("\n".join(lines) + "\n")
        ds = _ingest_embedded(synth_csv)
        pred = tmp_path / "pred.csv"
        with open(pred, "w") as handle:
            handle.write("individual,period,tau,predicted\n")
            for ind in ds.individuals:
                handle.write(f"{ind},{ds.periods[19]},,1.0\n")
        capsys.readouterr()
        assert run(["evaluate", "--predictions", str(pred),
                    "--actuals", str(synth_csv)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {synth_csv}: actual response missing for "
            f"({ds.individuals[1]}, {ds.periods[19]})\n")

    def test_series_output(self, synth_csv, tmp_path):
        pred = tmp_path / "pred.csv"
        ds = _ingest_embedded(synth_csv)
        with open(pred, "w") as handle:
            handle.write("individual,period,tau,predicted\n")
            for i, ind in enumerate(ds.individuals):
                handle.write(f"{ind},{ds.periods[15]},,{float(ds.y[i, 15] * 1.1)!r}\n")
        series = tmp_path / "series.csv"
        assert run(["evaluate", "--predictions", str(pred), "--actuals", str(synth_csv),
                    "--series-output", str(series)]) == 0
        rows = [ln for ln in series.read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert rows[0] == "individual,period,actual,predicted"
        assert len(rows) == 1 + 4


class TestPredictGathersOnePanel:
    """predict gathers only the split panel it writes, imputed as prepare_scenario imputes it."""

    @pytest.mark.parametrize("which", ["train", "test"])
    @pytest.mark.parametrize("scenario", [2, 3])
    def test_rows_of_the_prepared_panel(self, tmp_path, monkeypatch, which, scenario):
        ds, _ = generate_synthetic(SyntheticConfig(n_individuals=4, n_periods=16), 8)
        ds.missing_mask = np.random.default_rng(8).random(ds.missing_mask.shape) < 0.2
        ds.y[ds.missing_mask[:, :, 0]] = np.nan
        panel, art, pred = tmp_path / "panel.csv", tmp_path / "fit.json", tmp_path / "pred.csv"
        artifact.write_panel(ds, panel, "synth", {})
        assert run(["train", "--input", str(panel), "--output", str(art), "--kind", "linear",
                    "--taus", "0.5", "--scenario", str(scenario), *FAST_FLAGS]) == 0
        times = scenario_split(ds, scenario).times(which)
        gathered = []
        gather = paneldata._gather
        monkeypatch.setattr(paneldata, "_gather", lambda *args: gathered.append(args[1])
                            or gather(*args))
        assert run(["predict", "--artifact", str(art), "--input", str(panel),
                    "--output", str(pred), "--which", which]) == 0
        assert gathered == [times]
        fitted = artifact.load(art)
        prepared = prepare_scenario(_ingest_embedded(panel), scenario)
        want = destandardize_response(predict_panel(
            fitted.params[0], fitted.kind, getattr(prepared, which)), prepared.state)
        rows = list(csv.reader(pred.read_text().splitlines()[2:]))
        assert [float(r[3]) for r in rows] == want.ravel().tolist()


class TestOnlyTheArtifactIsVersioned:
    """``schema_version`` labels the fit artifact, the one document whose reader checks it."""

    def test_other_documents_carry_none(self, tmp_path):
        panel, truth, clean = tmp_path / "panel.csv", tmp_path / "truth.json", tmp_path / "c.csv"
        art, pred, report = tmp_path / "fit.json", tmp_path / "pred.csv", tmp_path / "r.json"
        assert run(["synth", "--output", str(panel), "--truth-output", str(truth),
                    "--seed", "4", "--n-individuals", "4", "--n-periods", "12"]) == 0
        assert run(["ingest", "--input", str(panel), "--output", str(clean)]) == 0
        assert run(["train", "--input", str(clean), "--output", str(art), "--kind", "linear",
                    *FAST_FLAGS]) == 0
        assert run(["predict", "--artifact", str(art), "--input", str(clean),
                    "--output", str(pred)]) == 0
        assert run(["evaluate", "--predictions", str(pred), "--actuals", str(clean),
                    "--output", str(report)]) == 0
        assert json.loads(art.read_text())["schema_version"] == 2
        preambles = [json.loads(path.read_text().splitlines()[0][2:]) for path in (panel, clean)]
        for document in [json.loads(truth.read_text()), json.loads(report.read_text()),
                         *preambles]:
            assert "command" in document and "schema_version" not in document

    def test_a_preamble_that_still_holds_one_reads_the_same(self, synth_csv, tmp_path):
        first, rest = synth_csv.read_text().split("\n", 1)
        preamble = json.loads(first[2:])
        older = tmp_path / "older.csv"
        older.write_text("# " + json.dumps({**preamble, "schema_version": 2}) + "\n" + rest)
        assert_datasets_equal(_ingest_embedded(older), _ingest_embedded(synth_csv))


class TestDamagedPreamble:
    """A '# {' first line that is not JSON is a data error naming the file and line 1."""

    @pytest.mark.parametrize("command", ["ingest", "train"])
    def test_exit_2(self, synth_csv, tmp_path, capsys, command):
        text = synth_csv.read_text()
        assert text.startswith('# {"command"')
        synth_csv.write_text(text.replace('# {"command"', '# {x"command"', 1))
        argv = {"ingest": ["ingest", "--input", str(synth_csv)],
                "train": ["train", "--input", str(synth_csv), "--output",
                          str(tmp_path / "fit.json"), "--kind", "linear", *FAST_FLAGS]}[command]
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            f"data error: {synth_csv}: line 1: the preamble is not valid JSON: "
            "Expecting property name enclosed in double quotes at column 4\n")
        assert not (tmp_path / "fit.json").exists()


def test_predictions_short_of_a_full_grid_name_their_file(synth_csv, tmp_path, capsys):
    art, pred = tmp_path / "fit.json", tmp_path / "pred.csv"
    assert run(["train", "--input", str(synth_csv), "--output", str(art), "--kind", "linear",
                "--restarts", "1", "--max-iters", "2"]) == 0
    assert run(["predict", "--artifact", str(art), "--input", str(synth_csv),
                "--output", str(pred)]) == 0
    lines = pred.read_text().splitlines()
    assert lines[-1].startswith("P4,2018,")
    pred.write_text("\n".join(lines[:-1]) + "\n")
    capsys.readouterr()
    assert run(["evaluate", "--predictions", str(pred), "--actuals", str(synth_csv)]) == 2
    assert capsys.readouterr().err == (
        f"data error: {pred}: predictions are not a full grid; missing [('P4', 2018)]\n")


class TestMalformedPredictions:
    """evaluate rejects a malformed predictions row with exit 2 and its physical line."""

    def evaluate(self, synth_csv, tmp_path, capsys, rows, extra=()):
        ds = _ingest_embedded(synth_csv)
        good = [f"{ind},{ds.periods[15]},,{float(ds.y[i, 15])!r}"
                for i, ind in enumerate(ds.individuals)]
        pred = tmp_path / "pred.csv"
        # Physical line 1 is a comment, 2 the header, 3 and on the rows.
        pred.write_text("\n".join(["# a comment", "individual,period,tau,predicted",
                                   *good, *rows(ds)]) + "\n")
        capsys.readouterr()
        code = run(["evaluate", "--predictions", str(pred), "--actuals", str(synth_csv),
                    *extra])
        return code, capsys.readouterr().err

    def test_wrong_field_count(self, synth_csv, tmp_path, capsys):
        code, err = self.evaluate(synth_csv, tmp_path, capsys,
                                  lambda ds: [f"{ds.individuals[0]},{ds.periods[16]},,1.0,9"])
        assert code == 2 and "line 7: 5 fields, header has 4" in err

    def test_non_integer_period(self, synth_csv, tmp_path, capsys):
        code, err = self.evaluate(synth_csv, tmp_path, capsys,
                                  lambda ds: [f"{ds.individuals[0]},20x4,,1.0"])
        assert code == 2
        assert "line 7, column 'period': cannot parse '20x4' as an integer period" in err

    @pytest.mark.parametrize("value, message", [
        ("abc", "cannot parse 'abc' as a number"),
        ("nan", "non-finite value 'nan'"),
        ("inf", "non-finite value 'inf'"),
    ])
    def test_bad_predicted_value(self, synth_csv, tmp_path, capsys, value, message):
        code, err = self.evaluate(synth_csv, tmp_path, capsys,
                                  lambda ds: [f"{ds.individuals[0]},{ds.periods[16]},,{value}"])
        assert code == 2 and f"line 7, column 'predicted': {message}" in err

    def test_duplicate_row_under_chosen_tau(self, synth_csv, tmp_path, capsys):
        def rows(ds):
            return [f"{ds.individuals[1]},{ds.periods[15]},0.5,1.0",
                    f"{ds.individuals[1]},{ds.periods[15]},0.9,2.0",
                    f"{ds.individuals[1]},{ds.periods[15]},0.5,3.0"]

        code, err = self.evaluate(synth_csv, tmp_path, capsys, rows, ["--tau", "0.5"])
        assert code == 2
        assert "line 9: duplicate row for " in err and "line 7" not in err

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines.insert(3, lines[2]), "line 4: duplicate row for ('P1', 1999)"),
        (lambda lines: lines.pop(2), "unbalanced panel: 1 missing rows, e.g. ('P1', 1999)"),
    ], ids=["duplicate", "unbalanced"])
    def test_malformed_actuals_name_their_file(self, synth_csv, tmp_path, capsys, edit,
                                               message):
        pred, actuals = tmp_path / "pred.csv", tmp_path / "actuals.csv"
        pred.write_text("individual,period,tau,predicted\nP1,2000,,1.0\n")
        lines = synth_csv.read_text().splitlines()
        edit(lines)
        actuals.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["evaluate", "--predictions", str(pred), "--actuals", str(actuals)]) == 2
        assert capsys.readouterr().err == f"data error: {actuals}: {message}\n"

    def test_missing_file(self, synth_csv, tmp_path, capsys):
        absent = tmp_path / "absent.csv"
        capsys.readouterr()
        assert run(["evaluate", "--predictions", str(absent),
                    "--actuals", str(synth_csv)]) == 2
        assert capsys.readouterr().err.startswith(f"data error: cannot read {absent}: ")


@pytest.mark.parametrize("value", ["", " NA "])
def test_missing_prediction_names_its_line(tmp_path, capsys, value):
    argv = TestPredictEvaluate.evaluate_2x2(tmp_path, [[100.0, 200.0], [50.0, 80.0]])
    pred = tmp_path / "pred.csv"
    pred.write_text(pred.read_text().replace(",180.0", f",{value}"))
    capsys.readouterr()
    assert run(argv) == 2
    assert f"{pred}: line 3, column 'predicted': missing value" in capsys.readouterr().err


class TestPredictionsLikeIngest:
    """Labels and blank rows of a predictions file are read as ingest reads a panel's."""

    def test_padded_label_matches_actuals(self, tmp_path):
        argv = TestPredictEvaluate.evaluate_2x2(tmp_path, [[100.0, 200.0], [50.0, 80.0]])
        pred = tmp_path / "pred.csv"
        pred.write_text(pred.read_text().replace("\na,", '\n a ,').replace("\nb,", '\n"b ",'))
        report = tmp_path / "report.json"
        assert run([*argv, "--output", str(report)]) == 0
        assert json.loads(report.read_text())["individuals"] == ["a", "b"]

    def test_whitespace_only_row_is_skipped(self, tmp_path, capsys):
        argv = TestPredictEvaluate.evaluate_2x2(tmp_path, [[100.0, 200.0], [50.0, 80.0]])
        code, status = run_json(argv, capsys)
        pred = tmp_path / "pred.csv"
        lines = pred.read_text().splitlines()
        pred.write_text("\n".join([*lines[:3], "   ", "\t", " , , , ", *lines[3:]]) + "\n")
        assert code == 0 and run_json(argv, capsys) == (0, status)


#: Labels that need quotes in a CSV row: commas, quotes, line breaks and a
#: leading '#'. None has a line that starts with '#', which a reader skips.
QUOTED_LABELS = st.text(st.sampled_from(list('ab,"#\n ')), min_size=1, max_size=4).map(
    str.strip).filter(lambda s: s and "\n#" not in s)


def csv_field(text: str, quote: bool) -> str:
    if quote or any(c in text for c in ',"\n') or text.startswith("#"):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def predictions_case(draw):
    """An actuals panel, and the lines of a predictions file for some of its cells.

    The chosen level's rows fill a grid of the panel's individuals and
    periods. Rows of other levels ride along, and the rows come shuffled
    among comment lines, blank and whitespace-only rows, with padded labels
    that are quoted where they need it or at random. Returns the panel, the
    lines and the --tau argument (None where the file holds one level).
    """
    labels = draw(st.lists(QUOTED_LABELS, min_size=1, max_size=4, unique=True))
    periods = tuple(range(2000, 2000 + draw(st.integers(1, 4))))
    n, t = len(labels), len(periods)
    panel = PanelDataset(labels, periods, 1.0 + np.arange(n * t).reshape(n, t),
                         np.zeros((n, t, 0)), np.zeros((n, t, 0)), np.zeros((n, t, 1), bool))
    chosen = draw(st.sampled_from(["", "0.5"]))
    others = sorted(draw(st.sets(st.sampled_from(["0.2", "0.8"]))))
    tau = chosen if others or draw(st.booleans()) else None
    individuals = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
    grid = draw(st.lists(st.sampled_from(periods), min_size=1, unique=True))
    cells = [((ind, per), chosen) for ind in individuals for per in grid]
    for level in others:
        cells += [(cell, level) for cell in draw(st.lists(
            st.sampled_from([(i, p) for i in labels for p in periods]), unique=True))]
    pad = st.sampled_from(["", " ", "  "])
    lines = []
    for (ind, per), level in draw(st.permutations(cells)):
        label = csv_field(draw(pad) + ind + draw(pad), draw(st.booleans()))
        value = repr(draw(st.floats(1e-3, 1e6)))
        lines.append(",".join([label, draw(pad) + str(per) + draw(pad), level,
                               draw(pad) + value + draw(pad)]))
    filler = st.sampled_from(["# a comment, with commas", '#"quoted', "", "   ", "\t",
                              ",,,", " , , , "])
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(filler))
    return panel, ["# {}", "individual,period,tau,predicted", *lines], tau


class TestEvaluateMatchesRowwiseOracle:
    """evaluate writes the same report and series from the block read as from the oracle's dict."""

    @staticmethod
    def oracle_read(path, tau):
        data = read_predictions_rowwise(path, tau)
        individuals = list(dict.fromkeys(individual for individual, _ in data))
        periods = sorted({period for _, period in data})
        return individuals, periods, np.array(
            [[data[(ind, per)] for per in periods] for ind in individuals])

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=predictions_case())
    def test_same_report_and_series(self, tmp_path, monkeypatch, case):
        panel, lines, tau = case
        actuals, pred = tmp_path / "actuals.csv", tmp_path / "pred.csv"
        artifact.write_panel(panel, actuals, "synth", {})
        pred.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report, series = tmp_path / "report.json", tmp_path / "series.csv"
        argv = ["evaluate", "--predictions", str(pred), "--actuals", str(actuals),
                "--output", str(report), "--series-output", str(series),
                *([] if tau is None else ["--tau", tau])]
        outputs = []
        for reader in (cli._read_predictions, self.oracle_read):
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_read_predictions", reader)
                assert run(argv) == 0
            outputs.append((report.read_bytes(), series.read_bytes()))
        assert outputs[0] == outputs[1]


class TestPredictionsMemory:
    """evaluate reads a predictions file a block at a time, not into a dict of its rows."""

    def test_peak_of_a_35k_row_read(self, tmp_path):
        values = np.random.default_rng(7).uniform(1.0, 100.0, (1000, 35))
        path = tmp_path / "pred.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write('# {"command": "predict"}\nindividual,period,tau,predicted\n')
            for i, row in enumerate(values.tolist()):
                handle.writelines(f"P{i},{2000 + j},,{value!r}\n"
                                  for j, value in enumerate(row))
        result, peak = traced_peak(lambda: cli._read_predictions(str(path), None))
        # 11x the 0.27 MiB of the values as float64; a dict of the rows took 6.6 MiB.
        assert peak <= 3 * 2 ** 20
        individuals, periods, pred = result
        assert individuals[:2] == ["P0", "P1"] and periods == list(range(2000, 2035))
        assert np.array_equal(pred, values)


class TestNotUtf8:
    """A file that does not decode as UTF-8 is a data error naming it (exit 2)."""

    @staticmethod
    def spoil(path, line):
        """Start ``line`` (0-based) of ``path`` with a Latin-1 e-acute, which is not UTF-8."""
        lines = path.read_bytes().split(b"\n")
        lines[line] = b"\xe9" + lines[line]
        path.write_bytes(b"\n".join(lines))

    @pytest.mark.parametrize("line", [0, -2], ids=["preamble", "last-data-row"])
    def test_ingest(self, tmp_path, capsys, line):
        # 600 rows: the last one lies beyond what the preamble's read decodes.
        path = tmp_path / "panel.csv"
        assert run(["synth", "--output", str(path), "--n-individuals", "30"]) == 0
        self.spoil(path, line)
        capsys.readouterr()
        assert run(["ingest", "--input", str(path)]) == 2
        assert capsys.readouterr().err == (f"data error: {path} is not UTF-8 text: "
                                           "invalid continuation byte\n")

    def test_predictions_and_artifact(self, synth_csv, tmp_path, capsys):
        art, pred = tmp_path / "fit.json", tmp_path / "p.csv"
        assert run(["train", "--input", str(synth_csv), "--output", str(art), "--kind", "linear",
                    "--restarts", "1", "--max-iters", "2"]) == 0
        assert run(["predict", "--artifact", str(art), "--input", str(synth_csv),
                    "--output", str(pred)]) == 0
        self.spoil(pred, 3)
        capsys.readouterr()
        assert run(["evaluate", "--predictions", str(pred), "--actuals", str(synth_csv)]) == 2
        assert f"data error: {pred} is not UTF-8 text" in capsys.readouterr().err
        self.spoil(art, 2)
        assert run(["predict", "--artifact", str(art), "--input", str(synth_csv),
                    "--output", str(pred)]) == 2
        assert f"data error: artifact {art} is not UTF-8 text" in capsys.readouterr().err


def test_byte_order_mark_before_the_preamble(synth_csv, tmp_path, capsys):
    # The mark would otherwise hide the preamble and make it the header.
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + synth_csv.read_bytes())
    assert embedded_schema(marked) == embedded_schema(synth_csv) is not None
    assert_datasets_equal(_ingest_embedded(marked), _ingest_embedded(synth_csv))
    assert run(["ingest", "--input", str(marked)]) == 0


class TestUnwritableOutput:
    """An output that cannot be written is a data error (exit 2): one line naming it."""

    @staticmethod
    def argv(command, absent, out):
        """A command line that would read ``absent`` and write ``out``."""
        return {
            "ingest": ["ingest", "--input", absent],
            "synth": ["synth", "--output", out],
            "train": ["train", "--input", absent, "--output", out],
            "grid-search": ["grid-search", "--input", absent, "--output", out,
                            "--hidden", "3", "--grid-n1", "2"],
            "predict": ["predict", "--artifact", absent, "--input", absent, "--output", out],
            "evaluate": ["evaluate", "--predictions", absent, "--actuals", absent],
        }[command]

    @pytest.fixture
    def no_read(self, monkeypatch):
        def no_read(*args, **kwargs):
            raise AssertionError("read an input before the outputs were checked")

        for module, name in ((paneldata, "_read_cells"), (artifact, "embedded_schema"),
                             (artifact, "load")):
            monkeypatch.setattr(module, name, no_read)

    OUTPUTS = pytest.mark.parametrize("command, flag", [
        ("ingest", "--output"), ("synth", "--output"), ("synth", "--truth-output"),
        ("train", "--output"), ("grid-search", "--output"), ("grid-search", "--table-output"),
        ("predict", "--output"), ("evaluate", "--output"), ("evaluate", "--series-output"),
    ])

    @OUTPUTS
    def test_missing_directory_is_found_before_any_input_is_read(
            self, tmp_path, capsys, no_read, command, flag):
        argv = self.argv(command, str(tmp_path / "absent.csv"), str(tmp_path / "out"))
        missing = tmp_path / "missing"
        capsys.readouterr()
        assert run([*argv, flag, str(missing / "file")]) == 2
        assert capsys.readouterr().err == (
            f"data error: cannot write {missing / 'file'}: {missing} is not a directory\n")
        assert os.listdir(tmp_path) == []

    @OUTPUTS
    def test_existing_directory_is_found_before_any_input_is_read(
            self, tmp_path, capsys, no_read, command, flag):
        argv = self.argv(command, str(tmp_path / "absent.csv"), str(tmp_path / "out"))
        directory = tmp_path / "adir"
        directory.mkdir()
        capsys.readouterr()
        assert run([*argv, flag, str(directory)]) == 2
        assert capsys.readouterr().err == f"data error: cannot write {directory}: Is a directory\n"
        assert os.listdir(tmp_path) == ["adir"] and os.listdir(directory) == []

    def test_output_the_system_refuses(self, synth_csv, tmp_path, capsys):
        # Its directory exists, so only opening it finds the fault.
        refused = tmp_path / ("x" * 300)
        capsys.readouterr()
        assert run(["ingest", "--input", str(synth_csv), "--output", str(refused)]) == 2
        assert capsys.readouterr().err == f"data error: cannot write {refused}: File name too long\n"

    def test_output_that_cannot_be_opened(self, synth_csv, tmp_path, capsys):
        capsys.readouterr()
        assert run(["ingest", "--input", str(synth_csv), "--output", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"data error: cannot write {tmp_path}: Is a directory\n"


class TestWritersQuoteLabels:
    """predict and --series-output write what csv.writer writes for the same cells."""

    def test_labels_that_need_quotes(self, tmp_path):
        ds, _ = generate_synthetic(SyntheticConfig(n_individuals=4, n_periods=12), 5)
        ds.individuals = ("plain", "a,b", 'say "hi"', "two\r\nlines")
        panel = tmp_path / "panel.csv"
        emit(ds, panel, preamble=json.dumps({"schema": asdict(ds.schema())}))
        art, pred, series = (tmp_path / name for name in ("fit.json", "pred.csv", "series.csv"))
        assert run(["train", "--input", str(panel), "--output", str(art), "--kind", "linear",
                    "--restarts", "1", "--max-iters", "2"]) == 0
        assert run(["predict", "--artifact", str(art), "--input", str(panel),
                    "--output", str(pred)]) == 0
        assert run(["evaluate", "--predictions", str(pred), "--actuals", str(panel),
                    "--series-output", str(series)]) == 0
        for path in (pred, series):
            text = path.read_bytes().decode("utf-8").split("\n", 1)[1]
            rows = list(csv.reader(io.StringIO(text, newline="")))
            buffer = io.StringIO(newline="")
            csv.writer(buffer).writerows(rows)
            assert text == buffer.getvalue()
            assert {row[0] for row in rows[1:]} == set(ds.individuals)


@pytest.mark.usefixtures("small_blocks")
class TestWritersQuoteLabelsInSmallBlocks(TestWritersQuoteLabels):
    """The same bytes when the rows are written 1 or 3 at a time."""


class TestCliMatchesLibrary:
    def test_no_numeric_drift(self, synth_csv, tmp_path, capsys):
        art = tmp_path / "fit.json"
        assert run(["train", "--input", str(synth_csv), "--output", str(art),
                    "--kind", "linear", "--taus", "0.5", "--seed", "4",
                    *FAST_FLAGS]) == 0
        pred = tmp_path / "pred.csv"
        assert run(["predict", "--artifact", str(art), "--input", str(synth_csv),
                    "--output", str(pred)]) == 0
        report_path = tmp_path / "report.json"
        assert run(["evaluate", "--predictions", str(pred),
                    "--actuals", str(synth_csv), "--output", str(report_path)]) == 0
        cli_report = json.loads(report_path.read_text())["report"]

        ds = _ingest_embedded(synth_csv)
        prep = prepare_scenario(ds, 1, standardize=True)
        cfg = TrainConfig(restarts=1, seed=4, max_iters_per_stage=60,
                          schedule=AnnealSchedule(2.0 ** -8, 2.0 ** -16, 2.0 ** -4))
        trained = train_model(prep, ModelKind.LINEAR, TauGrid.single(0.5),
                              PenaltyConfig(0.005, 0.01), None, cfg)
        lib_report = evaluate_split(trained, "test")
        assert cli_report["total_mape"] == lib_report.total_mape
        assert cli_report["total_rrmse"] == lib_report.total_rrmse


def test_cli_import_leaves_scipy_stats_unloaded():
    code = "import sys, psqrnn.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def _fresh_python(code, *args):
    """The last stdout line of ``code`` run in a new interpreter, parsed as JSON."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


_SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_package_import_leaves_scipy_unloaded():
    code = f"import json, sys, psqrnn, psqrnn.cli; print(json.dumps({_SCIPY_LOADED}))"
    assert _fresh_python(code) == []


class TestCommandImports:
    """No command loads scipy: each runs in a new interpreter."""

    CODE = f"""
import contextlib, io, json, sys
from psqrnn import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, {_SCIPY_LOADED}]))
"""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("imports")
        paths = {name: str(root / name) for name in
                 ("panel.csv", "clean.csv", "fit.json", "pred.csv")}
        assert run(["synth", "--output", paths["panel.csv"], "--seed", "2",
                    "--n-individuals", "3", "--n-periods", "12"]) == 0
        assert run(["train", "--input", paths["panel.csv"], "--output", paths["fit.json"],
                    "--kind", "linear", "--restarts", "1", "--max-iters", "2"]) == 0
        assert run(["predict", "--artifact", paths["fit.json"], "--input",
                    paths["panel.csv"], "--output", paths["pred.csv"]]) == 0
        return paths

    def loaded(self, argv):
        code, modules = _fresh_python(self.CODE, json.dumps(argv))
        assert code == 0
        return modules

    @pytest.mark.parametrize("command", ["synth", "ingest", "predict", "evaluate"])
    def test_commands_that_do_not_fit_leave_scipy_unloaded(self, files, command):
        argv = {
            "synth": ["synth", "--output", files["clean.csv"], "--n-individuals", "3"],
            "ingest": ["ingest", "--input", files["panel.csv"], "--output", files["clean.csv"]],
            "predict": ["predict", "--artifact", files["fit.json"], "--input",
                        files["panel.csv"], "--output", files["pred.csv"]],
            "evaluate": ["evaluate", "--predictions", files["pred.csv"],
                         "--actuals", files["panel.csv"]],
        }[command]
        assert self.loaded(argv) == []

    def test_every_command_runs_with_scipy_blocked(self, tmp_path):
        # A None entry in sys.modules makes every import of scipy fail.
        code = f"""
import contextlib, io, json, sys
sys.modules["scipy"] = None
from psqrnn import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
del sys.modules["scipy"]
print(json.dumps([codes, {_SCIPY_LOADED}]))
"""
        path = {name: str(tmp_path / name) for name in
                ("panel.csv", "psqrnn.json", "linear.json", "grid.json", "pred.csv")}
        fast = ["--restarts", "1", "--max-iters", "3", "--eps-end", str(2.0 ** -12)]
        chain = [
            ["synth", "--output", path["panel.csv"], "--seed", "2", "--n-individuals", "3",
             "--n-periods", "12"],
            ["train", "--input", path["panel.csv"], "--output", path["psqrnn.json"],
             "--hidden", "3", *fast],
            ["train", "--input", path["panel.csv"], "--output", path["linear.json"],
             "--kind", "linear", *fast],
            ["grid-search", "--input", path["panel.csv"], "--output", path["grid.json"],
             "--hidden", "2", "--grid-n1", "1,2", *fast],
            ["predict", "--artifact", path["psqrnn.json"], "--input", path["panel.csv"],
             "--output", path["pred.csv"]],
            ["evaluate", "--predictions", path["pred.csv"], "--actuals", path["panel.csv"]],
        ]
        codes, modules = _fresh_python(code, json.dumps(chain))
        assert codes == [0] * len(chain)
        assert modules == []


def _ingest_embedded(path):
    from psqrnn.paneldata import ingest
    return ingest(path, embedded_schema(path))
