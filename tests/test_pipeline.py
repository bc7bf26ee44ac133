import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_datasets_equal, traced_peak
from panel_oracle import prepare_chain
from psqrnn import cli, paneldata
from psqrnn.errors import ConfigError, DataError
from psqrnn.losses import TauGrid
from psqrnn.model import ModelKind, PenaltyConfig
from psqrnn.network import NetworkSpec
from psqrnn.paneldata import PanelDataset, SyntheticConfig, generate_synthetic
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

    @pytest.mark.parametrize("scenario", [1, 2, 3])
    def test_dataset_left_as_it_was(self, scenario):
        ds, _ = generate_synthetic(SyntheticConfig(n_individuals=6, n_periods=16), 4)
        ds.missing_mask = np.random.default_rng(4).random(ds.missing_mask.shape) < 0.2
        ds.y[ds.missing_mask[:, :, 0]] = np.nan
        arrays = (ds.y, ds.z, ds.x, ds.missing_mask)
        before = [a.copy() for a in arrays]
        prep = prepare_scenario(ds, scenario)
        for array, copy in zip(arrays, before):
            assert array.tobytes() == copy.tobytes()
        for panel in (prep.train, prep.test):
            for out in (panel.y, panel.z, panel.x, panel.missing_mask):
                assert not any(np.shares_memory(out, a) for a in arrays)


@st.composite
def masked_panels(draw):
    """A scenario and a panel with NaN in its masked cells, as ingest reads one.

    Masks are random. One column may be missing for one whole individual,
    and cells may be missing only in the last five periods, the test window
    of scenarios 1 and 2 and the feature window of scenario 3's test. The
    network part may reuse the first parametric column, values and mask.
    """
    scenario = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(1, 5))
    t = draw(st.integers(6 if scenario == 1 else 15, 18))
    q, p = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    shared = q > 0 and p > 0 and draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    share = draw(st.sampled_from([0.0, 0.05, 0.3]))
    width = 1 + q + p - shared
    values = rng.standard_normal((n, t, width))
    values[:, :, 0] += 50.0
    missing = rng.random(values.shape) < share
    if draw(st.booleans()):
        missing[rng.integers(n), :, rng.integers(width)] = True
    if draw(st.booleans()):
        missing[:, t - 5:, :] |= rng.random((n, 5, width)) < 0.3
    values[missing] = np.nan
    # Physical column of each mask slot: response, z columns, x columns.
    slots = [0, *range(1, 1 + q), *([1] if shared else []), *range(1 + q, width)]
    x_names = ("z1",) * shared + tuple(f"x{j + 1}" for j in range(shared, p))
    dataset = PanelDataset(
        tuple(f"i{k}" for k in range(n)), tuple(range(2000, 2000 + t)), values[:, :, 0],
        values[:, :, 1:1 + q], values[:, :, slots[1 + q:]], missing[:, :, slots],
        x_names=x_names,
    )
    return scenario, dataset


def same_bits(a: PanelDataset, b: PanelDataset) -> bool:
    assert_datasets_equal(a, b)
    return all(u.tobytes() == v.tobytes() for u, v in ((a.y, b.y), (a.z, b.z), (a.x, b.x)))


def outcome(call):
    """call()'s result, or the message of the DataError it raised."""
    try:
        return call()
    except DataError as exc:
        return str(exc)


class TestPrepareMatchesChainOracle:
    """prepare_scenario gives the bits of imputing, materializing and standardizing copies."""

    @settings(max_examples=100, deadline=None)
    @given(case=masked_panels(), standardize=st.booleans())
    def test_same_bits(self, case, standardize):
        scenario, dataset = case
        got = outcome(lambda: prepare_scenario(dataset, scenario, standardize))
        want = outcome(lambda: prepare_chain(dataset, scenario, standardize))
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
            return
        split, train, test, state = want
        assert got.split == split and got.state == state and got.periods == dataset.periods
        assert same_bits(got.train, train) and same_bits(got.test, test)


class TestPrepareMemory:
    """prepare_scenario gathers each split panel once, with no imputed or standardized copy."""

    def test_peak_on_a_1000_by_40_panel(self):
        ds, _ = generate_synthetic(SyntheticConfig(n_individuals=1000, n_periods=40), 5)
        ds.missing_mask = np.random.default_rng(5).random(ds.missing_mask.shape) < 0.02
        for values, slot in ((ds.y, 0), (ds.z[:, :, 0], 1), (ds.z[:, :, 1], 2),
                             (ds.x[:, :, 0], 3), (ds.x[:, :, 1], 4)):
            values[ds.missing_mask[:, :, slot]] = np.nan
        prep, peak = traced_peak(lambda: prepare_scenario(ds, 1))
        # The panel's arrays take 1.72 MiB, and so do the two split panels;
        # imputing and standardizing copies of them peaked at 8.0 MiB.
        assert prep.train.y.shape == (1000, 35)
        assert peak <= 3 * 2 ** 20


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
