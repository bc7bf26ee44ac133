import numpy as np
import pytest

from psqrnn import cli, paneldata
from psqrnn.errors import ConfigError
from psqrnn.losses import TauGrid
from psqrnn.model import ModelKind, PenaltyConfig
from psqrnn.network import NetworkSpec
from psqrnn.paneldata import SyntheticConfig, generate_synthetic
from psqrnn.pipeline import (
    beta_original_scale,
    default_tau_grid,
    evaluate_split,
    predict_matrix,
    prepare_scenario,
    train_model,
)
from psqrnn.trainer import AnnealSchedule, TrainConfig

FAST = TrainConfig(restarts=1, seed=0, max_iters_per_stage=200)


def noiseless_linear_panel(seed=0):
    config = SyntheticConfig(
        n_individuals=3, n_periods=20, n_parametric=2, n_network=0,
        noise_scale=0.0, heterogeneity_scale=0.3, nonlinear="none",
        base_level=10.0, beta=(1.2, -0.4),
    )
    return generate_synthetic(config, seed)


class TestDefaultGrid:
    def test_psqrnn_gets_dense_grid(self):
        assert default_tau_grid(ModelKind.PSQRNN).k == 50
        assert default_tau_grid(ModelKind.LINEAR).k == 50

    def test_qrnn_gets_median(self):
        assert default_tau_grid(ModelKind.QRNN).taus == (0.5,)


class TestPrepareScenario:
    def test_standardized_train_panel(self):
        ds, _ = generate_synthetic(SyntheticConfig(n_individuals=4), 1)
        prep = prepare_scenario(ds, 1)
        assert abs(prep.train.y.mean()) < 1e-12
        assert prep.state is not None
        # Test covariates are standardized with train statistics, so their
        # mean need not vanish.
        assert prep.test.n_periods == 5

    def test_no_standardize(self):
        ds, _ = generate_synthetic(SyntheticConfig(n_individuals=4), 1)
        prep = prepare_scenario(ds, 1, standardize=False)
        assert prep.state is None
        assert np.array_equal(prep.train.y, ds.y[:, :15])

    def test_scenario3_test_has_masked_response(self):
        ds, _ = generate_synthetic(SyntheticConfig(n_individuals=4), 1)
        prep = prepare_scenario(ds, 3)
        assert prep.test.missing_mask[:, :, 0].all()
        assert np.isnan(prep.test.y).all()


class TestTrainPredictEvaluate:
    def test_noiseless_linear_recovery(self):
        ds, truth = noiseless_linear_panel()
        prep = prepare_scenario(ds, 1)
        trained = train_model(prep, ModelKind.LINEAR, TauGrid.single(0.5),
                              PenaltyConfig(), None, FAST)
        beta_hat = beta_original_scale(trained)
        assert np.max(np.abs(beta_hat - np.array(truth.beta))) < 1e-3
        pred_train = predict_matrix(trained, "train")
        assert np.max(np.abs(pred_train - ds.y[:, :15])) < 1e-3
        rep = evaluate_split(trained, "test")
        assert rep.total_mape < 1e-4

    @pytest.mark.parametrize("subset", ["tset", "validation", "Train", ""])
    def test_unknown_subset_rejected(self, subset):
        ds, _ = noiseless_linear_panel()
        trained = train_model(prepare_scenario(ds, 1), ModelKind.LINEAR, TauGrid.single(0.5),
                              PenaltyConfig(), None, TrainConfig(restarts=1, max_iters_per_stage=1))
        with pytest.raises(ConfigError, match="subset"):
            predict_matrix(trained, subset)
        with pytest.raises(ConfigError, match="subset"):
            evaluate_split(trained, subset)

    def test_per_tau_fits(self):
        ds, _ = noiseless_linear_panel()
        prep = prepare_scenario(ds, 1)
        trained = train_model(prep, ModelKind.LINEAR, TauGrid((0.3, 0.7), (0.5, 0.5)),
                              PenaltyConfig(), None, FAST, per_tau=True)
        assert len(trained.fits) == 2
        with pytest.raises(Exception):
            trained.fit

    def test_network_model_runs_scenario2(self):
        ds, _ = generate_synthetic(
            SyntheticConfig(n_individuals=4, n_periods=20, n_network=1, n_parametric=1), 3)
        prep = prepare_scenario(ds, 2)
        spec = NetworkSpec(prep.train.p, (3,))
        cfg = TrainConfig(restarts=1, seed=0, max_iters_per_stage=60,
                          schedule=AnnealSchedule(2.0 ** -8, 2.0 ** -16, 2.0 ** -4))
        trained = train_model(prep, ModelKind.PSQRNN, TauGrid.single(0.5),
                              PenaltyConfig(0.005, 0.01), spec, cfg)
        rep = evaluate_split(trained, "test")
        assert rep.predictions.shape == (4, 5)
        assert np.isfinite(rep.total_mape)

    def test_scenario3_predicts_future_periods(self, tmp_path):
        # The test targets of scenario 3 are the five periods after the panel,
        # so their response is masked; the covariates come from observed lags.
        ds, _ = generate_synthetic(SyntheticConfig(), 0)
        cfg = TrainConfig(restarts=1, seed=0, max_iters_per_stage=60,
                          schedule=AnnealSchedule(eps_end=2.0 ** -16))
        trained = train_model(prepare_scenario(ds, 3), ModelKind.LINEAR,
                              TauGrid.single(0.5), PenaltyConfig(0.005, 0.01), None, cfg)
        pred = predict_matrix(trained, "test")
        assert pred.shape == (30, 5)
        assert np.isfinite(pred).all()

        panel, artifact, written = (tmp_path / name for name in
                                    ("panel.csv", "fit.json", "pred.csv"))
        paneldata.emit(ds, panel)
        schema = ["--individual-col", "individual", "--period-col", "period",
                  "--response", "y", "--parametric", "z1,z2", "--network", "x1,x2"]
        assert cli.main(["train", "--input", str(panel), "--output", str(artifact),
                         "--scenario", "3", "--kind", "linear", "--taus", "0.5",
                         "--restarts", "1", "--seed", "0", "--max-iters", "60",
                         "--eps-end", str(2.0 ** -16), *schema]) == 0
        assert cli.main(["predict", "--artifact", str(artifact), "--input", str(panel),
                         "--output", str(written), *schema]) == 0
        rows = [line.split(",") for line in written.read_text().splitlines()[2:]]
        assert [(r[0], int(r[1])) for r in rows[:6]] == [
            ("P01", 2019), ("P01", 2020), ("P01", 2021), ("P01", 2022), ("P01", 2023),
            ("P02", 2019),
        ]
        assert np.array_equal(pred, np.array([float(r[3]) for r in rows]).reshape(30, 5))
