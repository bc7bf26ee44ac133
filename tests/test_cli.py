import json
import os
import subprocess
import sys

import numpy as np
import pytest

from psqrnn import cli
from psqrnn.losses import TauGrid
from psqrnn.model import ModelKind, PenaltyConfig
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
        assert doc["schema_version"] == 1
        assert doc["config"]["kind"] == "psqrnn"
        assert len(doc["fits"]) == 1
        assert doc["fits"][0]["params"]["net"] is not None
        assert len(doc["fits"][0]["taus"]) == 3

    def test_linear_kind_has_no_network(self, synth_csv, tmp_path):
        art = tmp_path / "fit.json"
        code = run(["train", "--input", str(synth_csv), "--output", str(art),
                    "--kind", "linear", "--taus", "0.5", *FAST_FLAGS])
        assert code == 0
        doc = json.loads(art.read_text())
        assert doc["fits"][0]["params"]["net"] is None

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
            "--optimizer", config["optimizer"],
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

    def test_evaluate_metrics_passthrough(self, tmp_path, capsys):
        # Hand 2x2 case from the metrics module, driven through the files.
        actuals = tmp_path / "actuals.csv"
        with open(actuals, "w") as handle:
            handle.write("individual,period,y,z1,x1\n")
            for ind, series in (("a", (100.0, 200.0)), ("b", (50.0, 80.0))):
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
        code, status = run_json(["evaluate", "--predictions", str(pred),
                                 "--actuals", str(actuals), *schema_flags], capsys)
        assert code == 0
        actual = np.array([[100.0, 200.0], [50.0, 80.0]])
        predicted = np.array([[110.0, 180.0], [55.0, 72.0]])
        assert status["total_mape"] == np.mean(np.abs((actual - predicted) / actual))

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
        err = capsys.readouterr().err
        assert f"actual response missing for ({ds.individuals[1]}, {ds.periods[19]})" in err

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


def _embedded_schema(path):
    from psqrnn.cli import _peek_embedded, _schema_from_dict
    return _schema_from_dict(_peek_embedded(path)["schema"])


def _ingest_embedded(path):
    from psqrnn.paneldata import ingest
    return ingest(path, _embedded_schema(path))
